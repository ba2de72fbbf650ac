"""Build, blind, countersign, and verify the three attestation artifacts."""

import dataclasses
import hashlib
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import crypto
from coopattest.canonical import canonical_parse, canonical_serialize
from coopattest.attestation import (
    AttributeClaim,
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
    SubjectRef,
    _Signed,
    attestation_from_bytes,
    attestation_from_map,
    blind,
    build_plain,
    canonical_bytes,
    countersign,
    read_attestation,
    verify_countersigned,
    verify_pair,
    write_attestation,
)
from coopattest.crypto import Signature
from coopattest.errors import (
    DecodeError,
    EmptyAttributes,
    EmptyNotaryId,
    InvalidValidityWindow,
    IssuerKeyMismatch,
    SubjectModeMismatch,
)
from coopattest.ledger import LedgerRecord

from conftest import check_strict_decoding, make_claims, make_plain


def _artifact_maps() -> list[dict]:
    """The maps of a real plain, blinded and countersigned attestation."""
    issuer, notary = crypto.keygen(b"test-coop"), crypto.keygen(b"test-notary")
    plain = make_plain(issuer, claims=make_claims(("age-over-18", "true"), ("residence-country", "NL")))
    blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
    csa = countersign(blinded, notary, "notary-1", 11)
    return [canonical_parse(canonical_bytes(artifact)) for artifact in (plain, blinded, csa)]


ARTIFACT_MAPS = _artifact_maps()


class TestSubjectRef:
    def test_absent_requires_empty_value(self):
        with pytest.raises(ValueError):
            SubjectRef("absent", "bob")

    def test_handle_requires_at_prefix(self):
        with pytest.raises(ValueError):
            SubjectRef("handle", "sender")
        assert SubjectRef.handle("@sender").value == "@sender"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SubjectRef("pseudonym", "x")


class TestBuildPlain:
    def test_constructive_roundtrip(self, issuer):
        plain = make_plain(issuer)
        report = verify_pair(plain, blind(plain, SubjectRef.absent(), issuer), issuer.public_key)
        assert report.plain_signature

    def test_empty_window_rejected(self, issuer):
        with pytest.raises(InvalidValidityWindow):
            make_plain(issuer, issued_at=10, expires_at=10)

    def test_deterministic_id(self, issuer):
        a = make_plain(issuer, nonce=b"x" * 32)
        b = make_plain(issuer, nonce=b"x" * 32)
        assert a.attestation_id == b.attestation_id

    def test_empty_attributes_rejected(self, issuer):
        with pytest.raises(EmptyAttributes):
            make_plain(issuer, claims=[])

    def test_non_legal_subject_rejected(self, issuer):
        with pytest.raises(SubjectModeMismatch):
            build_plain(SubjectRef.absent(), make_claims(("a", "b")), issuer, "n", 0, 10, b"n" * 32)

    def test_short_nonce_rejected(self, issuer):
        with pytest.raises(ValueError):
            make_plain(issuer, nonce=b"short")


class TestBlind:
    def test_absent_substitute(self, issuer):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert blinded.subject == SubjectRef.absent()
        assert blinded.attributes == plain.attributes
        # Independent recomputation of the linkage digest.
        assert blinded.plain_digest == hashlib.sha256(canonical_bytes(plain)).digest()

    def test_handle_substitute(self, issuer):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        assert blinded.subject.value == "@sender"

    def test_identity_absent_from_blinded_bytes(self, issuer):
        plain = make_plain(issuer, identity="alice-legal-0001")
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert b"alice-legal-0001" not in canonical_bytes(blinded)

    def test_wrong_issuer_key(self, issuer):
        plain = make_plain(issuer)
        with pytest.raises(IssuerKeyMismatch):
            blind(plain, SubjectRef.absent(), crypto.keygen(b"other"))

    def test_legal_identity_substitute_rejected(self, issuer):
        plain = make_plain(issuer)
        with pytest.raises(SubjectModeMismatch):
            blind(plain, SubjectRef.legal("bob"), issuer)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_blinding_removes_identity(self, n):
        # Identities are >= 8 bytes so incidental substrings cannot occur.
        issuer = crypto.keygen(b"prop-issuer")
        identity = f"member-{n:08d}-{hashlib.sha256(str(n).encode()).hexdigest()[:8]}"
        plain = make_plain(issuer, identity=identity)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert identity.encode() not in canonical_bytes(blinded)


class TestVerifyPair:
    def test_matching_pair_passes_all(self, issuer):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        report = verify_pair(plain, blinded, issuer.public_key)
        assert report.passed and report.failing() == []

    def test_tampered_attribute_fails_signature(self, issuer):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        tampered = dataclasses.replace(
            blinded, attributes=(AttributeClaim("age-over-18", "false", "pds-rule:age-over-18"),)
        )
        report = verify_pair(plain, tampered, issuer.public_key)
        assert not report.blinded_signature
        assert not report.passed

    def test_wrong_plain_fails_digest_only(self, issuer):
        # Two independently built plains with identical claims and window:
        # every check but the hash linkage passes.
        a = make_plain(issuer, identity="alice-legal-0001", nonce=b"a" * 32)
        b = make_plain(issuer, identity="bobby-legal-0002", nonce=b"b" * 32)
        blinded_b = blind(b, SubjectRef.absent(), issuer)
        report = verify_pair(a, blinded_b, issuer.public_key)
        assert report.failing() == ["digest_match"]

    @pytest.mark.parametrize("which", ["plain", "blinded"])
    def test_a_wrong_id_fails_only_its_id_check(self, issuer, which):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        assert verify_pair(plain, blinded, issuer.public_key).passed
        other = crypto.digest(b"another attestation")
        if which == "plain":
            # The id is in the bytes plain_digest covers, so the blinded copy
            # is made from the forged plain: only the plain's id is wrong.
            plain = dataclasses.replace(plain, attestation_id=other)
            blinded = blind(plain, SubjectRef.absent(), issuer)
        else:
            blinded = dataclasses.replace(blinded, attestation_id=other)
        # The id is not signed, so both signatures still verify.
        report = verify_pair(plain, blinded, issuer.public_key)
        assert report.failing() == [f"{which}_id"]

    def test_diagonal_only(self, issuer):
        plains = [make_plain(issuer, identity=f"member-{i:08d}", nonce=bytes([i]) * 32)
                  for i in range(6)]
        blindeds = [blind(p, SubjectRef.absent(), issuer) for p in plains]
        for i, p in enumerate(plains):
            for j, b in enumerate(blindeds):
                assert verify_pair(p, b, issuer.public_key).passed == (i == j)


class TestCountersign:
    def test_roundtrip(self, issuer, notary_key):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        csa = countersign(blinded, notary_key, "notary-1", 12)
        report = verify_countersigned(csa, issuer.public_key, notary_key.public_key, 12)
        assert report.passed

    def test_embedded_tamper_breaks_notary_signature(self, issuer, notary_key):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        csa = countersign(blinded, notary_key, "notary-1", 12)
        tampered = dataclasses.replace(
            csa, blinded=dataclasses.replace(csa.blinded, legal_rep_id="evil")
        )
        report = verify_countersigned(tampered, issuer.public_key, notary_key.public_key, 12)
        assert not report.notary_signature

    def test_empty_notary_id_rejected(self, issuer, notary_key):
        blinded = blind(make_plain(issuer), SubjectRef.absent(), issuer)
        with pytest.raises(EmptyNotaryId):
            countersign(blinded, notary_key, "", 12)

    def test_envelope_fidelity(self, issuer, notary_key):
        blinded = blind(make_plain(issuer), SubjectRef.absent(), issuer)
        before = canonical_bytes(blinded)
        csa = countersign(blinded, notary_key, "notary-1", 12)
        assert canonical_bytes(csa.blinded) == before


class TestVerifyCountersigned:
    def _csa(self, issuer, notary_key, **kwargs):
        plain = make_plain(issuer, **kwargs)
        blinded = blind(plain, SubjectRef.absent(), issuer)
        return countersign(blinded, notary_key, "notary-1", plain.issued_at)

    def test_fresh_passes_at_issue_tick(self, issuer, notary_key):
        csa = self._csa(issuer, notary_key, issued_at=10, expires_at=100)
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 10).passed

    def test_expiry_boundary_is_exclusive(self, issuer, notary_key):
        csa = self._csa(issuer, notary_key, issued_at=10, expires_at=100)
        report = verify_countersigned(csa, issuer.public_key, notary_key.public_key, 100)
        assert report.failing() == ["not_expired"]
        assert report.signed and not report.passed

    def test_key_permutation_matrix(self, issuer, notary_key):
        csa = self._csa(issuer, notary_key)
        keys = {"issuer": issuer.public_key, "notary": notary_key.public_key,
                "other": crypto.keygen(b"stranger").public_key}
        for i_name, i_key in keys.items():
            for n_name, n_key in keys.items():
                report = verify_countersigned(csa, i_key, n_key, 12)
                assert report.issuer_signature == (i_name == "issuer")
                assert report.notary_signature == (n_name == "notary")

    def test_a_wrong_blinded_id_fails_only_the_id_check(self, issuer, notary_key):
        csa = self._csa(issuer, notary_key)
        assert verify_countersigned(csa, issuer.public_key, notary_key.public_key, 12).passed
        # The issuer signature does not cover the id, and the notary signs
        # the forged copy, wrong id and all: only the id check fails.
        forged = dataclasses.replace(csa.blinded, attestation_id=crypto.digest(b"another"))
        forged_csa = countersign(forged, notary_key, "notary-1", 12)
        report = verify_countersigned(forged_csa, issuer.public_key, notary_key.public_key, 12)
        assert report.failing() == ["blinded_id"]

    def test_swapped_keys_fail_both(self, issuer, notary_key):
        csa = self._csa(issuer, notary_key)
        report = verify_countersigned(csa, notary_key.public_key, issuer.public_key, 12)
        assert not report.issuer_signature and not report.notary_signature


class TestSerialization:
    def test_file_roundtrip(self, tmp_path, issuer, notary_key):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        csa = countersign(blinded, notary_key, "notary-1", 11)
        for artifact in (plain, blinded, csa):
            path = tmp_path / "artifact.att"
            write_attestation(path, artifact)
            assert read_attestation(path) == artifact

    def test_kind_discriminator_required(self):
        with pytest.raises(DecodeError):
            attestation_from_bytes(b'{"kind":"mystery"}')
        with pytest.raises(DecodeError):
            attestation_from_bytes(b'{"no_kind":1}')

    def test_parse_rejects_wrong_types(self, issuer):
        plain = make_plain(issuer)
        data = canonical_bytes(plain).replace(b'"issued_at":10', b'"issued_at":"10"')
        with pytest.raises(DecodeError):
            attestation_from_bytes(data)

    @pytest.mark.parametrize("path, value", [
        (("notary_signature", "bytes"), 7),
        (("notary_signature", "domain_tag"), b"coop-attest/counter/v1"),
        (("notary_signature", "signer_key_id"), "00" * 32),
        (("blinded", "issuer_signature", "bytes"), "sig"),
        (("blinded", "issuer_signature", "domain_tag"), ["coop-attest/blinded/v1"]),
        (("blinded", "subject", "mode"), 1),
        (("blinded", "subject", "value"), b"@sender"),
        (("blinded", "attributes", 0, "name"), 18),
        (("blinded", "attributes", 0, "value"), True),
        (("blinded", "attributes", 0, "method"), b"pds-rule"),
        (("blinded", "issued_at"), True),
        (("blinded", "expires_at"), True),
        (("countersigned_at",), False),
    ], ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else None)
    def test_parse_rejects_wrongly_typed_fields(self, issuer, notary_key, path, value):
        blinded = blind(make_plain(issuer), SubjectRef.handle("@sender"), issuer)
        raw = canonical_parse(canonical_bytes(countersign(blinded, notary_key, "notary-1", 0)))
        target = raw
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(DecodeError):
            attestation_from_bytes(canonical_serialize(raw))

    @pytest.mark.parametrize("kind", ["plain", "blinded", "countersigned"])
    def test_parse_rejects_unknown_keys(self, issuer, notary_key, kind):
        plain = make_plain(issuer)
        blinded = blind(plain, SubjectRef.handle("@sender"), issuer)
        artifact = {"plain": plain, "blinded": blinded,
                    "countersigned": countersign(blinded, notary_key, "notary-1", 11)}[kind]
        raw = canonical_parse(canonical_bytes(artifact))
        raw["extra"] = 0
        with pytest.raises(DecodeError, match="unknown field 'extra'"):
            attestation_from_map(raw)
        raw = canonical_parse(canonical_bytes(artifact))
        raw["issuer_signature" if kind != "countersigned" else "notary_signature"]["extra"] = 0
        with pytest.raises(DecodeError, match="unknown field 'extra'"):
            attestation_from_map(raw)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_wrongly_typed_maps_rejected(self, data):
        check_strict_decoding(data, ARTIFACT_MAPS, attestation_from_map,
                              lambda artifact: canonical_parse(canonical_serialize(artifact)))

    def test_mutation_suite(self, issuer, notary_key):
        """Single-byte mutations never yield a verifying countersigned artifact."""
        blinded = blind(make_plain(issuer), SubjectRef.absent(), issuer)
        csa = countersign(blinded, notary_key, "notary-1", 12)
        data = canonical_bytes(csa)
        rng = random.Random(0xC5A)
        false_accepts = 0
        for _ in range(300):
            mutated = bytearray(data)
            pos = rng.randrange(len(mutated))
            old = mutated[pos]
            new = rng.randrange(256)
            while new == old:
                new = rng.randrange(256)
            mutated[pos] = new
            try:
                parsed = attestation_from_bytes(bytes(mutated))
            except DecodeError:
                continue
            if not isinstance(parsed, CounterSignedAttestation):
                continue
            report = verify_countersigned(parsed, issuer.public_key, notary_key.public_key, 12)
            if report.passed:
                false_accepts += 1
        assert false_accepts == 0


SIGNED_RECORDS = (PlainAttestation, BlindedAttestation, CounterSignedAttestation, LedgerRecord)


class TestSignedRecords:
    """The four signed record classes are signed, memoised and checked by one
    base, and each names its signature the same way."""

    def test_each_derives_from_the_base(self):
        for cls in SIGNED_RECORDS:
            assert issubclass(cls, _Signed), cls.__name__

    def test_tags_are_distinct_domain_tags(self):
        tags = [cls._TAG for cls in SIGNED_RECORDS]
        assert len(set(tags)) == len(tags)
        assert set(tags) <= crypto.DOMAIN_TAGS

    @pytest.mark.parametrize("cls", SIGNED_RECORDS, ids=lambda cls: cls.__name__)
    def test_the_named_signature_is_an_unsigned_signature_field(self, cls):
        (field,) = [f for f in dataclasses.fields(cls) if f.name == cls._SIGNATURE]
        assert typing.get_type_hints(cls)[field.name] is Signature
        assert field.metadata.get("key", field.name) in cls._UNSIGNED
