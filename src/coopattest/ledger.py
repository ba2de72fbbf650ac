"""Simulated per-provider append-only ledgers.

Each provider owns one ledger and is its only registered writer; a
ledger is a provider-signed public bulletin board, not a consensus
system.  Records are hash-chained: every record carries the digest of
the previous record's canonical bytes (all zeros for the genesis
record), and every record is signed by the provider under the ledger
domain tag.  A record is signed, memoised and checked by the signed-record
base it shares with the attestations (``attestation._Signed``), so this
module makes no signature and checks none itself.  Anyone may read any
ledger.

Two payload kinds exist: an attestation record embedding a countersigned
blinded attestation, and a post record holding a post-body digest plus a
pointer to the attestation record on the same ledger that vouches for
the author.  A ledger vouches only for its own records; only a DSN
provider reads other providers' ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import crypto
from .attestation import CounterSignedAttestation, _Signed
from .crypto import Digest, KeyPair, Signature, ZERO_DIGEST
from .errors import DanglingAttestationPointer, OutOfBounds, UnregisteredWriter

PAYLOAD_ATTESTATION = "attestation"
PAYLOAD_POST = "post"


# Each record's fields, in order, are its canonical layout (see the record
# codec in ``canonical``); ``_KIND`` is the text written under "kind".

@dataclass(frozen=True)
class RecordPointer:
    ledger_id: str
    index: int


@dataclass(frozen=True)
class AttestationRecord:
    _KIND = PAYLOAD_ATTESTATION

    csa: CounterSignedAttestation


@dataclass(frozen=True)
class PostRecord:
    _KIND = PAYLOAD_POST

    post_digest: Digest
    attestation_ptr: RecordPointer
    posted_at: int


Payload = Union[AttestationRecord, PostRecord]


@dataclass(frozen=True)
class LedgerRecord(_Signed):
    """The writer signs every key but its own key id and signature."""

    _TAG = crypto.TAG_LEDGER
    _UNSIGNED = ("writer_key_id", "writer_signature")
    _SIGNATURE = "writer_signature"

    index: int
    prev_digest: Digest
    payload: Payload
    writer_key_id: Digest
    writer_signature: Signature


class Ledger:
    """Single-writer, publicly readable hash chain with a post-digest index."""

    def __init__(self, ledger_id: str, writer_public_key: bytes) -> None:
        self.ledger_id = ledger_id
        self.writer_public_key = writer_public_key
        self._records: list[LedgerRecord] = []
        self._post_index: dict[bytes, list[LedgerRecord]] = {}

    def append(self, writer: KeyPair, payload: Payload) -> RecordPointer:
        if writer.public_key != self.writer_public_key:
            raise UnregisteredWriter(f"key {writer.key_id.hex()[:12]} may not write {self.ledger_id}")
        if isinstance(payload, PostRecord):
            try:
                referenced = self.get(payload.attestation_ptr)
            except OutOfBounds as exc:
                raise DanglingAttestationPointer(str(exc)) from exc
            if not isinstance(referenced.payload, AttestationRecord):
                raise DanglingAttestationPointer(
                    f"{payload.attestation_ptr} is not an attestation record"
                )
        index = len(self._records)
        record = LedgerRecord._sign(writer, dict(
            index=index, payload=payload, writer_key_id=writer.key_id,
            prev_digest=ZERO_DIGEST if index == 0 else self._records[-1]._digest))
        self._records.append(record)
        if isinstance(payload, PostRecord):
            self._post_index.setdefault(payload.post_digest, []).append(record)
        return RecordPointer(self.ledger_id, index)

    def get(self, ptr: RecordPointer) -> LedgerRecord:
        if ptr.ledger_id != self.ledger_id:
            raise OutOfBounds(f"pointer targets {ptr.ledger_id!r}, not {self.ledger_id!r}")
        if not 0 <= ptr.index < len(self._records):
            raise OutOfBounds(f"index {ptr.index} outside ledger of length {len(self._records)}")
        return self._records[ptr.index]

    def post_matches(self, d: bytes) -> list[LedgerRecord]:
        """The matching post records themselves, in ledger order; one indexed
        search, including its hit entries, like any transparency-log query."""
        return list(self._post_index.get(d, ()))

    def verify_chain(self) -> bool:
        """True iff every record chains to its predecessor and carries a valid
        signature from the registered writer."""
        expected_key_id = crypto.digest(self.writer_public_key)
        prev = ZERO_DIGEST
        for i, record in enumerate(self._records):
            if record.index != i:
                return False
            if record.prev_digest != prev:
                return False
            if record.writer_key_id != expected_key_id:
                return False
            if not record._signature_verifies(self.writer_public_key):
                return False
            prev = record._digest
        return True
