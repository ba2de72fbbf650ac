"""Digests, deterministic key generation, and domain-tagged signatures.

One hash function (SHA-256) backs the whole artifact; every serialized
record names it in a ``hash_alg`` field so formats stay self-describing.
Signatures are Ed25519, deterministic by construction, so scenarios
replay bit-exactly.

Every signature is bound to a domain tag.  The same key may sign plain
attestations, blinded attestations, countersignatures, and ledger
records, and a signature for one kind must never verify as another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import EmptySeed, UnknownDomainTag

HASH_ALG = "sha-256"
DIGEST_SIZE = 32

TAG_PLAIN = "coop-attest/plain/v1"
TAG_BLINDED = "coop-attest/blinded/v1"
TAG_COUNTER = "coop-attest/counter/v1"
TAG_LEDGER = "coop-attest/ledger/v1"
TAG_RECOVER = "coop-attest/recover/v1"

DOMAIN_TAGS = frozenset({TAG_PLAIN, TAG_BLINDED, TAG_COUNTER, TAG_LEDGER, TAG_RECOVER})

_KEYGEN_CONTEXT = b"coop-attest/keygen/v1:"


@dataclass(frozen=True)
class Digest:
    """A 32-byte hash value; equality is byte-wise.  Records write it as
    its bytes."""

    _SCALAR = bytes

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_SIZE:
            raise ValueError("digest must be exactly 32 bytes")

    # Written out, not generated: the generated pair builds a tuple per call,
    # and a digest is looked up as a dict key on every verdict.  The bytes
    # object caches its own hash.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        """The digest whose ``hex()`` is *text*: lowercase digits, no spaces,
        so that a state file cannot spell one id two ways."""
        value = bytes.fromhex(text)
        if value.hex() != text:
            raise ValueError(f"{text!r} is not the lowercase hex of a digest")
        return cls(value)


ZERO_DIGEST = Digest(b"\x00" * DIGEST_SIZE)


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    secret_key: bytes
    key_id: Digest


@dataclass(frozen=True)
class Signature:
    data: bytes = field(metadata={"key": "bytes"})
    signer_key_id: Digest
    domain_tag: str


def digest(data: bytes) -> Digest:
    """SHA-256 of *data*; 32 bytes, stable across platforms."""
    return Digest(hashlib.sha256(data).digest())


def _framed(domain_tag: str, message: bytes) -> bytes:
    # Tags contain no newline, so prefix + separator is unambiguous.
    return domain_tag.encode("utf-8") + b"\n" + message


def _check_tag(domain_tag: str) -> None:
    if domain_tag not in DOMAIN_TAGS:
        raise UnknownDomainTag(domain_tag)


# --- Ed25519 -------------------------------------------------------------------

# Key objects are built once per key's bytes: loading a private key costs
# more than the signature it makes.  A key object is a pure function of
# its bytes, so reusing one cannot change a signature or a verdict.  A
# public key's id is kept beside its object, so a verify hashes no key.
_KEY_OBJECTS = 4096


@lru_cache(maxsize=_KEY_OBJECTS)
def _private_key(secret_key: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(secret_key)


@lru_cache(maxsize=_KEY_OBJECTS)
def _public_key(public_key: bytes) -> tuple[Digest, Ed25519PublicKey | None]:
    """The key's id and its object, None for bytes that are not a key."""
    key_id = digest(public_key)
    try:
        return key_id, Ed25519PublicKey.from_public_bytes(public_key)
    except ValueError:
        return key_id, None


# --- operations ----------------------------------------------------------------

def keygen(seed: bytes) -> KeyPair:
    """Deterministic Ed25519 key pair: the same seed always yields the same keys."""
    if not seed:
        raise EmptySeed("keygen seed must be non-empty")
    secret = hashlib.sha256(_KEYGEN_CONTEXT + seed).digest()
    public = _private_key(secret).public_key().public_bytes_raw()
    return KeyPair(public_key=public, secret_key=secret, key_id=digest(public))


def sign(key: KeyPair, domain_tag: str, message: bytes) -> Signature:
    """Ed25519 signature of *message* framed with *domain_tag*."""
    _check_tag(domain_tag)
    raw = _private_key(key.secret_key).sign(_framed(domain_tag, message))
    return Signature(data=raw, signer_key_id=key.key_id, domain_tag=domain_tag)


def verify(public_key: bytes, domain_tag: str, message: bytes, sig: Signature) -> bool:
    """True iff *sig* was produced over *message* under *domain_tag* by the
    holder of *public_key*.  Tag or key mismatches report False; only an
    unregistered tag raises."""
    _check_tag(domain_tag)
    if sig.domain_tag != domain_tag:
        return False
    key_id, key = _public_key(public_key)
    if sig.signer_key_id != key_id or key is None:
        return False
    try:
        key.verify(sig.data, _framed(domain_tag, message))
        return True
    except InvalidSignature:
        return False


class KeyDirectory:
    """Public-key lookup by key id.  Public keys are public; every actor in
    a scenario shares one directory, and a notary keeps one more, of the
    cooperatives it represents.

    ``get(key_id.value)`` is the public key whose id is *key_id*, None if
    the directory lacks it.  It takes the id's bytes, never the Digest
    (which it does not find): a consumer check looks two keys up, and bytes
    hash and compare in C where a Digest does both in Python.  ``get`` is
    the map's own, with no frame of its own."""

    def __init__(self) -> None:
        self._keys: dict[bytes, bytes] = {}
        self.get = self._keys.get

    def add(self, public_key: bytes) -> Digest:
        key_id = digest(public_key)
        self._keys[key_id.value] = public_key
        return key_id

    def __iter__(self) -> Iterator[bytes]:
        """The public keys, in the order they were first added."""
        return iter(self._keys.values())
