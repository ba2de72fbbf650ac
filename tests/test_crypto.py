"""Digest, keygen, and domain-tagged signature behaviour."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import crypto
from coopattest.canonical import canonical_parse, record_bytes, record_from_map
from coopattest.crypto import (
    Digest,
    digest,
    keygen,
    sign,
    verify,
)
from coopattest.errors import EmptySeed, UnknownDomainTag

# Published SHA-256 test vector for the empty message.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_input_matches_published_vector():
    assert digest(b"").hex() == SHA256_EMPTY


def test_digest_is_deterministic():
    assert digest(b"hello") == digest(b"hello")


def test_bit_flip_changes_digest():
    rng = random.Random(0xD1675)
    for _ in range(100):
        data = bytearray(rng.randbytes(rng.randint(1, 200)))
        original = digest(bytes(data))
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        assert digest(bytes(data)) != original


@given(st.binary(max_size=65536))
@settings(max_examples=50)
def test_digest_length_constant(data):
    assert len(digest(data).value) == 32


def test_digest_type_enforces_length():
    with pytest.raises(ValueError):
        Digest(b"short")


_DIGEST_BYTES = st.binary(min_size=32, max_size=32)


@given(_DIGEST_BYTES, _DIGEST_BYTES, st.booleans())
def test_digest_equality_and_hash_are_those_of_its_bytes(a, b, same):
    if same:
        b = bytes(bytearray(a))  # equal bytes, another object
    first, second = Digest(a), Digest(b)
    assert (first == second) is (a == b)
    assert (first != second) is (a != b)
    if a == b:
        assert hash(first) == hash(second)
    for other in (a, bytearray(a), a.hex(), None, 0, (a,)):
        assert first != other and other != first
        assert first.__eq__(other) is NotImplemented
    # A digest read back from a record's bytes, with its own new bytes
    # object, finds what the original was filed under.
    directory = crypto.KeyDirectory()
    key_id, other_id = directory.add(a), directory.add(b)
    signature = crypto.Signature(b"s", key_id, crypto.TAG_PLAIN)
    decoded = record_from_map(crypto.Signature,
                              canonical_parse(record_bytes(crypto.Signature, signature)))
    assert decoded == signature and decoded.signer_key_id is not key_id
    assert directory.get(decoded.signer_key_id.value) == a
    assert (decoded.signer_key_id == other_id) is (a == b)


class TestKeygen:
    def test_same_seed_same_keys(self):
        assert keygen(b"coop-1") == keygen(b"coop-1")

    def test_distinct_over_1000_seeds(self):
        publics = {keygen(b"seed-%d" % i).public_key for i in range(1000)}
        assert len(publics) == 1000

    def test_empty_seed_rejected(self):
        with pytest.raises(EmptySeed):
            keygen(b"")

    def test_key_id_is_digest_of_public_key(self):
        kp = keygen(b"a")
        assert kp.key_id == digest(kp.public_key)


class TestSignVerify:
    def test_roundtrip(self):
        kp = keygen(b"k")
        sig = sign(kp, crypto.TAG_PLAIN, b"hello")
        assert verify(kp.public_key, crypto.TAG_PLAIN, b"hello", sig)

    def test_tampered_message_fails(self):
        kp = keygen(b"k")
        rng = random.Random(7)
        for _ in range(50):
            message = bytearray(rng.randbytes(rng.randint(1, 100)))
            sig = sign(kp, crypto.TAG_LEDGER, bytes(message))
            message[rng.randrange(len(message))] ^= 1 + rng.randrange(255)
            assert not verify(kp.public_key, crypto.TAG_LEDGER, bytes(message), sig)

    def test_wrong_domain_tag_fails(self):
        kp = keygen(b"k")
        sig = sign(kp, crypto.TAG_PLAIN, b"msg")
        assert not verify(kp.public_key, crypto.TAG_BLINDED, b"msg", sig)

    def test_unknown_tag_raises(self):
        kp = keygen(b"k")
        with pytest.raises(UnknownDomainTag):
            sign(kp, "made-up/v9", b"msg")
        sig = sign(kp, crypto.TAG_PLAIN, b"msg")
        with pytest.raises(UnknownDomainTag):
            verify(kp.public_key, "made-up/v9", b"msg", sig)

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.binary(max_size=64))
    @settings(max_examples=60)
    def test_cross_key_verification_fails(self, i, j, message):
        a = keygen(b"cross-%d" % i)
        b = keygen(b"cross-%d" % j)
        sig = sign(a, crypto.TAG_COUNTER, message)
        assert verify(b.public_key, crypto.TAG_COUNTER, message, sig) == (i == j)

    def test_a_signature_naming_another_key_fails(self):
        a, b = keygen(b"named-a"), keygen(b"named-b")
        sig = sign(a, crypto.TAG_PLAIN, b"msg")
        renamed = dataclasses.replace(sig, signer_key_id=b.key_id)
        assert verify(a.public_key, crypto.TAG_PLAIN, b"msg", sig)
        # Its data is still a's valid signature; only the id it names refuses it.
        assert not verify(a.public_key, crypto.TAG_PLAIN, b"msg", renamed)
        assert not verify(b.public_key, crypto.TAG_PLAIN, b"msg", renamed)

    @pytest.mark.parametrize("public_key", [b"", b"k" * 31, b"k" * 33],
                             ids=lambda key: f"{len(key)}-bytes")
    def test_bytes_that_are_not_a_key_fail(self, public_key):
        # The signature names these bytes, so it is loading them that refuses it,
        # the first time and from the cache alike.
        sig = crypto.Signature(b"\x00" * 64, digest(public_key), crypto.TAG_PLAIN)
        assert not verify(public_key, crypto.TAG_PLAIN, b"msg", sig)
        assert not verify(public_key, crypto.TAG_PLAIN, b"msg", sig)

    def test_deterministic_signatures(self):
        kp = keygen(b"k")
        assert sign(kp, crypto.TAG_PLAIN, b"m") == sign(kp, crypto.TAG_PLAIN, b"m")

    def test_a_digest_of_the_message_is_not_a_signature(self):
        # What anyone can compute without the secret key does not verify.
        victim = keygen(b"victim")
        framed = crypto.TAG_PLAIN.encode() + b"\n" + b"owe me $100"
        for data in (hashlib.sha256(framed).digest(), b"", b"\x00" * 64):
            forged = crypto.Signature(data, victim.key_id, crypto.TAG_PLAIN)
            assert not verify(victim.public_key, crypto.TAG_PLAIN, b"owe me $100", forged)


def test_key_directory_lookup():
    directory = crypto.KeyDirectory()
    kp = keygen(b"dir")
    key_id = directory.add(kp.public_key)
    assert key_id == kp.key_id
    assert directory.get(key_id.value) == kp.public_key
    assert directory.get(digest(b"absent").value) is None
    assert directory.get(key_id) is None   # the id's bytes are the key, not the Digest
