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

from . import crypto
from .canonical import canonical_parse, canonical_serialize, require
from .crypto import Digest, KeyPair, Signature
from .errors import (
    DecodeError,
    EmptyAttributes,
    EmptyNotaryId,
    InvalidBlinded,
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


# --- per-artifact memos -----------------------------------------------------------

class _Artifact:
    """Work derived from a frozen artifact's fields, done once per object.

    Results live in the instance dict, which the dataclass's eq, hash and
    repr never read and ``dataclasses.replace`` never copies: a changed
    artifact is a new object and starts with no memos.  Each subclass
    names its signature's domain tag (``_TAG``), the signature itself
    (``_signature``) and the bytes it covers (``_signed_bytes``).
    """

    @cached_property
    def _canonical_bytes(self) -> bytes:
        return canonical_serialize(attestation_to_map(self))

    def _signature_verifies(self, public_key: bytes) -> bool:
        """True iff the artifact's own signature verifies under *public_key*.

        A success is remembered under the exact key bytes; a failure is
        never remembered.  The message and the signature are fixed by the
        frozen artifact and Ed25519 verification is deterministic in its
        inputs (RFC 8032, section 5.1.7), so a remembered success is the
        verdict a new check would give.
        """
        verified = self.__dict__.get("_verified_keys", ())
        exact = type(public_key) is bytes
        if exact and public_key in verified:
            return True
        ok = crypto.verify(public_key, self._TAG, self._signed_bytes, self._signature)
        if ok and exact:
            self.__dict__["_verified_keys"] = verified + (public_key,)
        return ok


class _IssuerSigned(_Artifact):
    """The memos of a plain or blinded attestation."""

    @property
    def _signature(self) -> Signature:
        return self.issuer_signature

    @cached_property
    def _signed_bytes(self) -> bytes:
        return canonical_serialize(_body_map(self))

    @cached_property
    def _id_consistent(self) -> bool:
        return self.attestation_id == _seal_id(_body_map(self), self.issuer_signature)


# --- domain types -------------------------------------------------------------

@dataclass(frozen=True)
class AttributeClaim:
    """One validated member attribute, e.g. ("age-over-18", "true")."""

    name: str
    value: str
    method: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")

    def to_map(self) -> dict:
        return {"name": self.name, "value": self.value, "method": self.method}

    @classmethod
    def from_map(cls, raw: dict) -> "AttributeClaim":
        return cls(
            name=require(raw, "name", str, "attribute claim"),
            value=require(raw, "value", str, "attribute claim"),
            method=require(raw, "method", str, "attribute claim"),
        )


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

    def to_map(self) -> dict:
        return {"mode": self.mode, "value": self.value}

    @classmethod
    def from_map(cls, raw: dict) -> "SubjectRef":
        return cls(mode=require(raw, "mode", str, "subject"),
                   value=require(raw, "value", str, "subject"))


@dataclass(frozen=True)
class PlainAttestation(_IssuerSigned):
    _TAG = crypto.TAG_PLAIN

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
    _TAG = crypto.TAG_COUNTER

    blinded: BlindedAttestation
    notary_id: str
    notary_key_id: Digest
    countersigned_at: int
    notary_signature: Signature

    def __post_init__(self) -> None:
        if not self.notary_id:
            raise EmptyNotaryId("countersignature must name its legal point of contact")

    @property
    def _signature(self) -> Signature:
        return self.notary_signature

    @cached_property
    def _signed_bytes(self) -> bytes:
        return countersign_bytes(self.blinded, self.notary_id, self.notary_key_id,
                                 self.countersigned_at)


# --- canonical maps -------------------------------------------------------------

def _plain_body_map(
    subject: SubjectRef,
    attributes: tuple[AttributeClaim, ...],
    issuer_key_id: Digest,
    legal_rep_id: str,
    issued_at: int,
    expires_at: int,
    nonce: bytes,
    hash_alg: str,
) -> dict:
    return {
        "kind": KIND_PLAIN,
        "subject": subject.to_map(),
        "attributes": [a.to_map() for a in attributes],
        "issuer_key_id": issuer_key_id.value,
        "legal_rep_id": legal_rep_id,
        "issued_at": issued_at,
        "expires_at": expires_at,
        "nonce": nonce,
        "hash_alg": hash_alg,
    }


def _blinded_body_map(
    subject: SubjectRef,
    attributes: tuple[AttributeClaim, ...],
    plain_digest: Digest,
    issuer_key_id: Digest,
    legal_rep_id: str,
    issued_at: int,
    expires_at: int,
    hash_alg: str,
) -> dict:
    return {
        "kind": KIND_BLINDED,
        "subject": subject.to_map(),
        "attributes": [a.to_map() for a in attributes],
        "plain_digest": plain_digest.value,
        "issuer_key_id": issuer_key_id.value,
        "legal_rep_id": legal_rep_id,
        "issued_at": issued_at,
        "expires_at": expires_at,
        "hash_alg": hash_alg,
    }


def _body_map(att: PlainAttestation | BlindedAttestation) -> dict:
    if isinstance(att, PlainAttestation):
        return _plain_body_map(
            att.subject, att.attributes, att.issuer_key_id, att.legal_rep_id,
            att.issued_at, att.expires_at, att.nonce, att.hash_alg,
        )
    return _blinded_body_map(
        att.subject, att.attributes, att.plain_digest, att.issuer_key_id,
        att.legal_rep_id, att.issued_at, att.expires_at, att.hash_alg,
    )


def signing_bytes(att: PlainAttestation | BlindedAttestation) -> bytes:
    """The bytes the issuer signature covers: everything but id and signature."""
    return att._signed_bytes


def _seal_id(body: dict, signature: Signature) -> Digest:
    sealed = dict(body)
    sealed["issuer_signature"] = signature.to_map()
    return crypto.digest(canonical_serialize(sealed))


def countersign_bytes(blinded: BlindedAttestation, notary_id: str,
                      notary_key_id: Digest, countersigned_at: int) -> bytes:
    """The bytes the notary signature covers: the unmodified embedded blinded
    attestation plus the envelope metadata."""
    return canonical_serialize({
        "blinded": attestation_to_map(blinded),
        "notary_id": notary_id,
        "notary_key_id": notary_key_id.value,
        "countersigned_at": countersigned_at,
    })


def attestation_to_map(att) -> dict:
    if isinstance(att, (PlainAttestation, BlindedAttestation)):
        full = _body_map(att)
        full["issuer_signature"] = att.issuer_signature.to_map()
        full["attestation_id"] = att.attestation_id.value
        return full
    if isinstance(att, CounterSignedAttestation):
        return {
            "kind": KIND_COUNTERSIGNED,
            "blinded": attestation_to_map(att.blinded),
            "notary_id": att.notary_id,
            "notary_key_id": att.notary_key_id.value,
            "countersigned_at": att.countersigned_at,
            "notary_signature": att.notary_signature.to_map(),
        }
    raise TypeError(f"not an attestation: {type(att).__name__}")


def canonical_bytes(att) -> bytes:
    """Complete canonical serialization, id included; also the file format."""
    if not isinstance(att, _Artifact):
        raise TypeError(f"not an attestation: {type(att).__name__}")
    return att._canonical_bytes


def _require(raw: dict, field: str, types) -> object:
    return require(raw, field, types, "attestation")


def attestation_from_map(raw: dict):
    """Rebuild an attestation from its canonical map; structural checks only
    (signatures and digests are the verify operations' business)."""
    if not isinstance(raw, dict):
        raise DecodeError("attestation must be a map")
    kind = _require(raw, "kind", str)
    try:
        if kind == KIND_PLAIN:
            return PlainAttestation(
                attestation_id=Digest(_require(raw, "attestation_id", bytes)),
                subject=SubjectRef.from_map(_require(raw, "subject", dict)),
                attributes=tuple(AttributeClaim.from_map(a) for a in _require(raw, "attributes", list)),
                issuer_key_id=Digest(_require(raw, "issuer_key_id", bytes)),
                legal_rep_id=_require(raw, "legal_rep_id", str),
                issued_at=_require(raw, "issued_at", int),
                expires_at=_require(raw, "expires_at", int),
                nonce=_require(raw, "nonce", bytes),
                hash_alg=_require(raw, "hash_alg", str),
                issuer_signature=Signature.from_map(_require(raw, "issuer_signature", dict)),
            )
        if kind == KIND_BLINDED:
            return BlindedAttestation(
                attestation_id=Digest(_require(raw, "attestation_id", bytes)),
                subject=SubjectRef.from_map(_require(raw, "subject", dict)),
                attributes=tuple(AttributeClaim.from_map(a) for a in _require(raw, "attributes", list)),
                plain_digest=Digest(_require(raw, "plain_digest", bytes)),
                issuer_key_id=Digest(_require(raw, "issuer_key_id", bytes)),
                legal_rep_id=_require(raw, "legal_rep_id", str),
                issued_at=_require(raw, "issued_at", int),
                expires_at=_require(raw, "expires_at", int),
                hash_alg=_require(raw, "hash_alg", str),
                issuer_signature=Signature.from_map(_require(raw, "issuer_signature", dict)),
            )
        if kind == KIND_COUNTERSIGNED:
            blinded = attestation_from_map(_require(raw, "blinded", dict))
            if not isinstance(blinded, BlindedAttestation):
                raise DecodeError("countersigned envelope must embed a blinded attestation")
            return CounterSignedAttestation(
                blinded=blinded,
                notary_id=_require(raw, "notary_id", str),
                notary_key_id=Digest(_require(raw, "notary_key_id", bytes)),
                countersigned_at=_require(raw, "countersigned_at", int),
                notary_signature=Signature.from_map(_require(raw, "notary_signature", dict)),
            )
    except DecodeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed {kind} attestation: {exc}") from exc
    except (SubjectModeMismatch, InvalidValidityWindow, EmptyNotaryId) as exc:
        raise DecodeError(f"invalid {kind} attestation: {exc}") from exc
    raise DecodeError(f"unknown attestation kind {kind!r}")


def attestation_from_bytes(data: bytes):
    return attestation_from_map(canonical_parse(data))


def write_attestation(path: str | Path, att) -> None:
    Path(path).write_bytes(canonical_bytes(att))


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
    if subject.mode != MODE_LEGAL_IDENTITY:
        raise SubjectModeMismatch("plain attestation requires a legal-identity subject")
    if expires_at <= issued_at:
        raise InvalidValidityWindow(f"[{issued_at}, {expires_at}) is empty")
    attributes = tuple(attributes)
    if not attributes:
        raise EmptyAttributes("at least one attribute claim is required")
    body = _plain_body_map(
        subject, attributes, issuer.key_id, legal_rep_id,
        issued_at, expires_at, nonce, crypto.HASH_ALG,
    )
    message = canonical_serialize(body)
    signature = crypto.sign(issuer, crypto.TAG_PLAIN, message)
    return _signed_over(message, PlainAttestation(
        attestation_id=_seal_id(body, signature),
        subject=subject,
        attributes=attributes,
        issuer_key_id=issuer.key_id,
        legal_rep_id=legal_rep_id,
        issued_at=issued_at,
        expires_at=expires_at,
        nonce=nonce,
        hash_alg=crypto.HASH_ALG,
        issuer_signature=signature,
    ))


def blind(plain: PlainAttestation, substitute: SubjectRef, issuer: KeyPair) -> BlindedAttestation:
    """Derive the subject-stripped attestation that hashes to *plain*."""
    if issuer.key_id != plain.issuer_key_id:
        raise IssuerKeyMismatch("blinding key does not match the plain attestation's issuer")
    if substitute.mode == MODE_LEGAL_IDENTITY:
        raise SubjectModeMismatch("substitute subject must not be a legal identity")
    plain_digest = crypto.digest(canonical_bytes(plain))
    body = _blinded_body_map(
        substitute, plain.attributes, plain_digest, plain.issuer_key_id,
        plain.legal_rep_id, plain.issued_at, plain.expires_at, plain.hash_alg,
    )
    message = canonical_serialize(body)
    signature = crypto.sign(issuer, crypto.TAG_BLINDED, message)
    return _signed_over(message, BlindedAttestation(
        attestation_id=_seal_id(body, signature),
        subject=substitute,
        attributes=plain.attributes,
        plain_digest=plain_digest,
        issuer_key_id=plain.issuer_key_id,
        legal_rep_id=plain.legal_rep_id,
        issued_at=plain.issued_at,
        expires_at=plain.expires_at,
        hash_alg=plain.hash_alg,
        issuer_signature=signature,
    ))


def _signed_over(message: bytes, att):
    """*att*, holding the bytes its signature was just made over, so that
    its first check does not serialize them again."""
    att.__dict__["_signed_bytes"] = message
    return att


class _Checks:
    """A frozen dataclass report whose fields are all pass/fail flags.  Its
    instance dict holds exactly those fields, in declaration order, which
    is the order `coopattest verify` prints them in."""

    @property
    def passed(self) -> bool:
        return all(vars(self).values())

    def checks(self) -> dict[str, bool]:
        return dict(vars(self))

    def failing(self) -> list[str]:
        return [name for name, ok in vars(self).items() if not ok]


@dataclass(frozen=True)
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
        digest_match=blinded.plain_digest == crypto.digest(canonical_bytes(plain)),
        window_match=(plain.issued_at == blinded.issued_at
                      and plain.expires_at == blinded.expires_at),
        legal_rep_match=plain.legal_rep_id == blinded.legal_rep_id,
    )


def countersign(
    blinded: BlindedAttestation,
    notary: KeyPair,
    notary_id: str,
    at: int,
    issuer_public_key: bytes | None = None,
) -> CounterSignedAttestation:
    """Wrap *blinded*, byte-identical, in a notary envelope.

    When *issuer_public_key* is supplied (the notary's key resolver found
    it), the blinded signature and id are verified first.
    """
    if not notary_id:
        raise EmptyNotaryId("countersignature must name its legal point of contact")
    if issuer_public_key is not None:
        if not blinded._signature_verifies(issuer_public_key) or not blinded._id_consistent:
            raise InvalidBlinded("blinded attestation does not verify under its issuer key")
    message = countersign_bytes(blinded, notary_id, notary.key_id, at)
    signature = crypto.sign(notary, crypto.TAG_COUNTER, message)
    return _signed_over(message, CounterSignedAttestation(
        blinded=blinded,
        notary_id=notary_id,
        notary_key_id=notary.key_id,
        countersigned_at=at,
        notary_signature=signature,
    ))


@dataclass(frozen=True)
class VerificationReport(_Checks):
    """Outcome of checking a countersigned attestation at a given tick."""

    issuer_signature: bool
    notary_signature: bool
    blinded_id: bool
    not_expired: bool
    subject_blinded: bool

    @property
    def expired_only(self) -> bool:
        return self.failing() == ["not_expired"]


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
        subject_blinded=blinded.subject.mode != MODE_LEGAL_IDENTITY,
    )
