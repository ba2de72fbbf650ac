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
from typing import Iterator, NewType

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

# Each registered tag's framing prefix: the tag, then a newline, which no tag
# contains, so prefix and message are unambiguous.
_PREFIXES = {tag: tag.encode("utf-8") + b"\n"
             for tag in (TAG_PLAIN, TAG_BLINDED, TAG_COUNTER, TAG_LEDGER, TAG_RECOVER)}
DOMAIN_TAGS = frozenset(_PREFIXES)

_KEYGEN_CONTEXT = b"coop-attest/keygen/v1:"


# A digest is its 32 bytes.  A record field annotated ``Digest`` is written
# and decoded only as exactly that many bytes (the record codec in
# ``canonical``); anywhere else a digest is plain ``bytes``.
Digest = NewType("Digest", bytes)

ZERO_DIGEST = bytes(DIGEST_SIZE)


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    secret_key: bytes
    key_id: bytes


@dataclass(frozen=True)
class Signature:
    data: bytes = field(metadata={"key": "bytes"})
    signer_key_id: Digest
    domain_tag: str


def digest(data: bytes) -> bytes:
    """SHA-256 of *data*; 32 bytes, stable across platforms."""
    return hashlib.sha256(data).digest()


def digest_from_hex(text: str) -> bytes:
    """The digest whose ``hex()`` is *text*: 64 lowercase digits, no spaces,
    so that a state file cannot spell one id two ways."""
    value = bytes.fromhex(text)
    if value.hex() != text:
        raise ValueError(f"{text!r} is not the lowercase hex of a digest")
    if len(value) != DIGEST_SIZE:
        raise ValueError(f"a digest is {DIGEST_SIZE} bytes, not {len(value)}")
    return value


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
def _public_key(public_key: bytes) -> tuple[bytes, Ed25519PublicKey | None]:
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
    prefix = _PREFIXES.get(domain_tag)
    if prefix is None:
        raise UnknownDomainTag(domain_tag)
    raw = _private_key(key.secret_key).sign(prefix + message)
    return Signature(data=raw, signer_key_id=key.key_id, domain_tag=domain_tag)


def verify(public_key: bytes, domain_tag: str, message: bytes, sig: Signature) -> bool:
    """True iff *sig* was produced over *message* under *domain_tag* by the
    holder of *public_key*.  Tag or key mismatches report False; only an
    unregistered tag raises."""
    prefix = _PREFIXES.get(domain_tag)
    if prefix is None:
        raise UnknownDomainTag(domain_tag)
    if sig.domain_tag != domain_tag:
        return False
    key_id, key = _public_key(public_key)
    if sig.signer_key_id != key_id or key is None:
        return False
    try:
        key.verify(sig.data, prefix + message)
        return True
    except InvalidSignature:
        return False


class KeyDirectory:
    """Public-key lookup by key id.  Public keys are public; every actor in
    a scenario shares one directory, and a notary keeps one more, of the
    cooperatives it represents.

    ``get(key_id)`` is the public key whose id is *key_id*, None if the
    directory lacks it.  A consumer check looks two keys up, so ``get`` is
    the map's own, with no frame of its own."""

    def __init__(self) -> None:
        self._keys: dict[bytes, bytes] = {}
        self.get = self._keys.get

    def add(self, public_key: bytes) -> bytes:
        key_id = digest(public_key)
        self._keys[key_id] = public_key
        return key_id

    def __iter__(self) -> Iterator[bytes]:
        """The public keys, in the order they were first added."""
        return iter(self._keys.values())
