"""Attestation artifacts: plain, blinded, and countersigned.

A plain attestation names the member and is signed by the issuing
cooperative.  Its blinded counterpart drops the identity (or swaps in a
social handle), keeps the attribute list, and carries a digest of the
full plain artifact so a witness can check the two match without the
blinded copy revealing anything.  The countersigned artifact is a
notary envelope over the byte-identical blinded attestation, naming the
legal point of contact for later disclosure.

Identifier scheme: ``attestation_id`` is the digest of the record's
canonical bytes without the id field itself (body plus issuer
signature), so every artifact has a stable, tamper-evident reference.
``plain_digest`` on a blinded attestation is the digest of the complete
canonical bytes of the signed plain attestation, id included — exactly
the bytes a ``.att`` file holds.

The plain attestation carries a random 32-byte nonce.  Without it, a
small subject space would let anyone de-anonymize a blinded attestation
by brute-forcing candidate plain attestations against ``plain_digest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

from . import crypto
from .canonical import (
    _record_writer,
    canonical_parse,
    canonical_serialize,
    record_bytes,
    record_from_map,
    record_text,
    write_canonical,
)
from .crypto import Digest, KeyPair, Signature
from .errors import (
    EmptyAttributes,
    EmptyNotaryId,
    InvalidValidityWindow,
    IssuerKeyMismatch,
    SubjectModeMismatch,
)

MODE_LEGAL_IDENTITY = "legal-identity"
MODE_ABSENT = "absent"
MODE_HANDLE = "handle"

NONCE_SIZE = 32

KIND_PLAIN = "plain"
KIND_BLINDED = "blinded"
KIND_COUNTERSIGNED = "countersigned"


# --- signed records -------------------------------------------------------------

class _Signed:
    """A frozen record signed over its fields: the attestation artifacts and
    the ledger records.  Each subclass names its signature's domain tag
    (``_TAG``), the wire keys the signature does not cover (``_UNSIGNED``)
    and the field that holds the signature (``_SIGNATURE``).

    Work derived from the fields is done once per object.  Results live in
    the instance dict, which the dataclass's eq, hash and repr never read
    and ``dataclasses.replace`` never copies: a changed record is a new
    object and starts with no memos.  A record is written once, when
    ``_sign`` signs it: one encoding of its fields gives the bytes its
    signature covers, the bytes its id covers, and its canonical text, and
    the signer stores each under the memo that would otherwise derive it.
    The signer is generated from the class's declarations, as its writer is
    (``canonical.generated_writer``).
    A record made any other way (``dataclasses.replace``, a decoded map or
    ``.att`` file) starts with none, and each check derives it afresh.
    """

    _ID = None  # the key of an id over every other key, if the record has one
    _KEEPS_TEXT = False  # the signer keeps the canonical text, not its digest

    @cached_property
    def _signed_bytes(self) -> bytes:
        return record_bytes(type(self), self, self._UNSIGNED)

    @cached_property
    def _digest(self) -> bytes:
        """The digest of the complete canonical bytes: a blinded attestation
        carries its plain attestation's as ``plain_digest``, and a ledger
        record's successor chains to it."""
        return crypto.digest(record_bytes(type(self), self))

    def _signature_verifies(self, public_key: bytes) -> bool:
        """True iff the record's own signature verifies under *public_key*.

        A success is remembered under the exact key bytes; a failure is
        never remembered.  The message and the signature are fixed by the
        frozen record and Ed25519 verification is deterministic in its
        inputs (RFC 8032, section 5.1.7), so a remembered success is the
        verdict a new check would give.
        """
        verified = self.__dict__.get("_verified_keys", ())
        exact = type(public_key) is bytes
        if exact and public_key in verified:
            return True
        ok = crypto.verify(public_key, self._TAG, self._signed_bytes,
                           getattr(self, self._SIGNATURE))
        if ok and exact:
            self.__dict__["_verified_keys"] = verified + (public_key,)
        return ok

    @classmethod
    def _sign(cls, key: KeyPair, fields: dict):
        """The *cls* record with the body *fields*, signed by *key* and, if it
        has an id, sealed with it.  Each field is encoded once, the signature
        and the id as they are made, and what its checks read is joined from
        those texts."""
        return _record_writer(cls, (), "sign")(key, fields)


class _Artifact(_Signed):
    """An attestation artifact.  Every encoding that holds one (a
    countersignature's signed bytes, a ledger record, a message body in the
    event log) splices its canonical text in as it is, since
    ``canonical_serialize`` encodes an artifact as its text; the signer
    keeps that text, except for a plain attestation (see there)."""

    _KEEPS_TEXT = True

    @cached_property
    def _canonical_text(self) -> str:
        return record_text(type(self), self)


class _IssuerSigned(_Artifact):
    """A plain or blinded attestation: the issuer signs every key but the id
    and the signature, and the id is the digest of every key but itself."""

    _UNSIGNED = ("attestation_id", "issuer_signature")
    _SIGNATURE = "issuer_signature"
    _ID = "attestation_id"

    @cached_property
    def _id_consistent(self) -> bool:
        return self.attestation_id == crypto.digest(
            record_bytes(type(self), self, ("attestation_id",)))


# --- domain types -------------------------------------------------------------
# Each record's fields, in order, are its canonical layout (see the record
# codec in ``canonical``); ``_KIND`` is the text written under "kind".

@dataclass(frozen=True)
class AttributeClaim:
    """One validated member attribute, e.g. ("age-over-18", "true")."""

    name: str
    value: str
    method: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")


@dataclass(frozen=True)
class SubjectRef:
    """Who an attestation is about: a legal identity, nobody, or a handle."""

    mode: str
    value: str

    def __post_init__(self) -> None:
        if self.mode not in (MODE_LEGAL_IDENTITY, MODE_ABSENT, MODE_HANDLE):
            raise ValueError(f"unknown subject mode {self.mode!r}")
        if self.mode == MODE_ABSENT and self.value != "":
            raise ValueError("absent subject must carry an empty value")
        if self.mode == MODE_HANDLE and not self.value.startswith("@"):
            raise ValueError("handle subject must begin with '@'")

    @classmethod
    def legal(cls, identity: str) -> "SubjectRef":
        return cls(MODE_LEGAL_IDENTITY, identity)

    @classmethod
    def absent(cls) -> "SubjectRef":
        return cls(MODE_ABSENT, "")

    @classmethod
    def handle(cls, handle: str) -> "SubjectRef":
        return cls(MODE_HANDLE, handle)


@dataclass(frozen=True)
class PlainAttestation(_IssuerSigned):
    """Its signer keeps only the digest of its canonical bytes, which a
    blinded attestation carries as ``plain_digest``: blinding and pair
    checks need nothing else of those bytes."""

    _KIND = KIND_PLAIN
    _TAG = crypto.TAG_PLAIN
    _KEEPS_TEXT = False

    attestation_id: Digest
    subject: SubjectRef
    attributes: tuple[AttributeClaim, ...]
    issuer_key_id: Digest
    legal_rep_id: str
    issued_at: int
    expires_at: int
    nonce: bytes
    hash_alg: str
    issuer_signature: Signature

    def __post_init__(self) -> None:
        if self.subject.mode != MODE_LEGAL_IDENTITY:
            raise SubjectModeMismatch("plain attestation subject must be a legal identity")
        if self.expires_at <= self.issued_at:
            raise InvalidValidityWindow(f"[{self.issued_at}, {self.expires_at}) is empty")
        if len(self.nonce) != NONCE_SIZE:
            raise ValueError("nonce must be exactly 32 bytes")


@dataclass(frozen=True)
class BlindedAttestation(_IssuerSigned):
    _KIND = KIND_BLINDED
    _TAG = crypto.TAG_BLINDED

    attestation_id: Digest
    subject: SubjectRef
    attributes: tuple[AttributeClaim, ...]
    plain_digest: Digest
    issuer_key_id: Digest
    legal_rep_id: str
    issued_at: int
    expires_at: int
    hash_alg: str
    issuer_signature: Signature

    def __post_init__(self) -> None:
        if self.subject.mode == MODE_LEGAL_IDENTITY:
            raise SubjectModeMismatch("blinded attestation must not identify the member")
        if self.expires_at <= self.issued_at:
            raise InvalidValidityWindow(f"[{self.issued_at}, {self.expires_at}) is empty")


@dataclass(frozen=True)
class CounterSignedAttestation(_Artifact):
    """The notary signs the embedded blinded attestation, unmodified, and
    the envelope fields; not the kind, nor its own signature."""

    _KIND = KIND_COUNTERSIGNED
    _TAG = crypto.TAG_COUNTER
    _UNSIGNED = ("kind", "notary_signature")
    _SIGNATURE = "notary_signature"

    blinded: BlindedAttestation
    notary_id: str
    notary_key_id: Digest
    countersigned_at: int
    notary_signature: Signature

    def __post_init__(self) -> None:
        if not self.notary_id:
            raise EmptyNotaryId("countersignature must name its legal point of contact")

    def _signed_under(self, issuer_public_key: bytes, notary_public_key: bytes,
                      now: int) -> bool:
        """True iff ``verify_countersigned``'s report at tick *now* under these
        keys is ``signed``: every flag passed but, perhaps, the expiry.

        A success is remembered under the exact pair of key bytes, a failure
        never, as ``_signature_verifies`` remembers a key.  Those three flags
        are functions of the frozen record and of the key bytes alone, so a
        remembered pair is the verdict a new report would give, at any tick;
        a hit builds no report.
        """
        keys = (issuer_public_key, notary_public_key)
        signed = self.__dict__.get("_signed_keys", ())
        exact = type(issuer_public_key) is bytes and type(notary_public_key) is bytes
        if exact and keys in signed:
            return True
        if not verify_countersigned(self, issuer_public_key, notary_public_key, now).signed:
            return False
        if exact:
            self.__dict__["_signed_keys"] = signed + (keys,)
        return True


Attestation = Union[PlainAttestation, BlindedAttestation, CounterSignedAttestation]


# --- canonical bytes ------------------------------------------------------------

def canonical_bytes(att) -> bytes:
    """Complete canonical serialization, id included; also the file format."""
    if not isinstance(att, _Artifact):
        raise TypeError(f"not an attestation: {type(att).__name__}")
    return canonical_serialize(att)


def attestation_from_map(raw: dict):
    """Rebuild an attestation, of the class its "kind" names, from its
    canonical map; structural checks only (signatures and digests are the
    verify operations' business)."""
    return record_from_map(Attestation, raw)


def attestation_from_bytes(data: bytes):
    return attestation_from_map(canonical_parse(data))


def write_attestation(path: str | Path, att) -> None:
    """Write *att* to *path* like a state file, atomically and a new file
    private to its owner: a plain attestation names the member."""
    write_canonical(path, canonical_bytes(att))


def read_attestation(path: str | Path):
    return attestation_from_bytes(Path(path).read_bytes())


# --- operations -----------------------------------------------------------------

def build_plain(
    subject: SubjectRef,
    attributes: list[AttributeClaim] | tuple[AttributeClaim, ...],
    issuer: KeyPair,
    legal_rep_id: str,
    issued_at: int,
    expires_at: int,
    nonce: bytes,
) -> PlainAttestation:
    """Build and sign the identity-bearing attestation."""
    attributes = tuple(attributes)
    if not attributes:
        raise EmptyAttributes("at least one attribute claim is required")
    return PlainAttestation._sign(issuer, dict(
        subject=subject,
        attributes=attributes,
        issuer_key_id=issuer.key_id,
        legal_rep_id=legal_rep_id,
        issued_at=issued_at,
        expires_at=expires_at,
        nonce=nonce,
        hash_alg=crypto.HASH_ALG,
    ))


def blind(plain: PlainAttestation, substitute: SubjectRef, issuer: KeyPair) -> BlindedAttestation:
    """Derive the subject-stripped attestation that hashes to *plain*."""
    if issuer.key_id != plain.issuer_key_id:
        raise IssuerKeyMismatch("blinding key does not match the plain attestation's issuer")
    return BlindedAttestation._sign(issuer, dict(
        subject=substitute,
        attributes=plain.attributes,
        plain_digest=plain._digest,
        issuer_key_id=plain.issuer_key_id,
        legal_rep_id=plain.legal_rep_id,
        issued_at=plain.issued_at,
        expires_at=plain.expires_at,
        hash_alg=plain.hash_alg,
    ))


class _Checks:
    """A dataclass report whose fields are all pass/fail flags, read in
    declaration order, which is the order `coopattest verify` prints them
    in."""

    @property
    def passed(self) -> bool:
        return all(vars(self).values())

    def checks(self) -> dict[str, bool]:
        return dict(vars(self))

    def failing(self) -> list[str]:
        return [name for name, ok in vars(self).items() if not ok]


@dataclass
class MatchReport(_Checks):
    """Outcome of comparing a plain/blinded pair, one flag per check."""

    plain_signature: bool
    blinded_signature: bool
    plain_id: bool
    blinded_id: bool
    attributes_match: bool
    digest_match: bool
    window_match: bool
    legal_rep_match: bool


def verify_pair(plain: PlainAttestation, blinded: BlindedAttestation,
                issuer_public_key: bytes) -> MatchReport:
    """Check that *blinded* is the faithful blinding of *plain*.

    Failures are reported, never raised; the caller decides what a partial
    match means.
    """
    return MatchReport(
        plain_signature=plain._signature_verifies(issuer_public_key),
        blinded_signature=blinded._signature_verifies(issuer_public_key),
        plain_id=plain._id_consistent,
        blinded_id=blinded._id_consistent,
        attributes_match=plain.attributes == blinded.attributes,
        digest_match=blinded.plain_digest == plain._digest,
        window_match=(plain.issued_at == blinded.issued_at
                      and plain.expires_at == blinded.expires_at),
        legal_rep_match=plain.legal_rep_id == blinded.legal_rep_id,
    )


def countersign(
    blinded: BlindedAttestation,
    notary: KeyPair,
    notary_id: str,
    at: int,
) -> CounterSignedAttestation:
    """Wrap *blinded*, byte-identical, in a notary envelope.  It checks
    nothing: its caller has checked the pair with ``verify_pair``."""
    return CounterSignedAttestation._sign(notary, dict(
        blinded=blinded, notary_id=notary_id, notary_key_id=notary.key_id, countersigned_at=at))


@dataclass
class VerificationReport(_Checks):
    """Outcome of checking a countersigned attestation at a given tick."""

    issuer_signature: bool
    notary_signature: bool
    blinded_id: bool
    not_expired: bool

    @property
    def signed(self) -> bool:
        """Every flag but ``not_expired`` passed: the flags that depend on the
        record and the keys, not on the tick."""
        return self.failing() in ([], ["not_expired"])


def verify_countersigned(
    csa: CounterSignedAttestation,
    issuer_public_key: bytes,
    notary_public_key: bytes,
    now: int,
) -> VerificationReport:
    blinded = csa.blinded
    return VerificationReport(
        issuer_signature=blinded._signature_verifies(issuer_public_key),
        notary_signature=csa._signature_verifies(notary_public_key),
        blinded_id=blinded._id_consistent,
        not_expired=now < blinded.expires_at,
    )
