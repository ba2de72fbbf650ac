"""Witnessing, archiving, revalidation, and disclosure at the notary."""

import dataclasses
import os
import stat

import pytest

from coopattest import crypto
from coopattest.attestation import SubjectRef, blind, canonical_bytes
from coopattest.canonical import canonical_parse, canonical_serialize, record_bytes, record_from_map
from coopattest.cooperative import (
    STATUS_EXPIRED,
    STATUS_REVOKED,
    STATUS_UNKNOWN,
    STATUS_VALID,
    Cooperative,
    MemberRecord,
)
from coopattest.errors import (
    DecodeError,
    ExpiredAtWitnessing,
    InvalidAttestation,
    NoRevocationSource,
    PairMismatch,
)
from coopattest.notary import (
    OUTCOME_DENIED,
    OUTCOME_DISCLOSED,
    OUTCOME_UNKNOWN,
    AuditEntry,
    DisclosureResponse,
    Notary,
    NotaryState,
)

from conftest import countersign_bytes, make_claims, make_plain, notary_archive

def make_notary(*issuers):
    """A notary in "US", disclosing to "US" and "EU", that witnesses for each
    of *issuers* (key pairs or cooperatives)."""
    notary = Notary("notary-1", b"test-notary", "US", frozenset({"US", "EU"}))
    for issuer in issuers:
        notary.issuers.add(issuer.public_key)
    return notary


def issued_pair(issuer, **kwargs):
    plain = make_plain(issuer, **kwargs)
    return plain, blind(plain, SubjectRef.absent(), issuer)


class TestWitnessing:
    def test_valid_pair_archived(self, issuer):
        notary = make_notary(issuer)
        plain, blinded = issued_pair(issuer)
        csa = notary.witness_and_countersign(plain, blinded, now=10)
        assert len(notary_archive(notary)) == 1
        assert csa.notary_id == "notary-1"
        assert notary_archive(notary)[0].countersigned == csa

    def test_mismatch_rejected_without_archiving(self, issuer):
        notary = make_notary(issuer)
        plain_a, _ = issued_pair(issuer, nonce=b"a" * 32)
        _, blinded_b = issued_pair(issuer, nonce=b"b" * 32)
        with pytest.raises(PairMismatch) as excinfo:
            notary.witness_and_countersign(plain_a, blinded_b, now=10)
        assert "digest_match" in excinfo.value.report.failing()
        assert len(notary_archive(notary)) == 0
        assert len(notary.rejection_log) == 1

    @pytest.mark.parametrize("forge, check", [
        (lambda blinded: dataclasses.replace(blinded, legal_rep_id="evil"), "blinded_signature"),
        (lambda blinded: dataclasses.replace(blinded, attestation_id=crypto.digest(b"another")),
         "blinded_id"),
    ], ids=["signature", "id"])
    def test_a_forged_blinded_copy_is_rejected_without_archiving(self, issuer, forge, check):
        """The pair check is the one check of the blinded copy: a forged
        copy fails it, by name, and is never countersigned."""
        notary = make_notary(issuer)
        plain, blinded = issued_pair(issuer)
        with pytest.raises(PairMismatch) as excinfo:
            notary.witness_and_countersign(plain, forge(blinded), now=10)
        assert check in excinfo.value.report.failing()
        assert len(notary_archive(notary)) == 0
        assert len(notary.rejection_log) == 1

    def test_expired_at_witnessing_boundary(self, issuer):
        notary = make_notary(issuer)
        plain, blinded = issued_pair(issuer, issued_at=10, expires_at=100)
        with pytest.raises(ExpiredAtWitnessing):
            notary.witness_and_countersign(plain, blinded, now=100)
        assert len(notary.rejection_log) == 1

    def test_an_issuer_it_does_not_represent_is_refused(self, issuer):
        """A pair from a cooperative outside the notary's directory raises
        before anything is archived or logged as a rejection."""
        notary = make_notary(crypto.keygen(b"another-coop"))
        plain, blinded = issued_pair(issuer)
        with pytest.raises(InvalidAttestation, match=blinded.issuer_key_id.hex()):
            notary.witness_and_countersign(plain, blinded, now=10)
        assert len(notary_archive(notary)) == 0
        assert notary.rejection_log == []

    def test_witness_neutrality(self, issuer):
        """The countersignature depends on attribute values only through the
        embedded blinded bytes."""
        notary = make_notary(issuer)
        pairs = [
            issued_pair(issuer, claims=make_claims(("age-over-18", value)))
            for value in ("true", "false")
        ]
        csas = [
            notary.witness_and_countersign(p, b, now=10)
            for p, b in pairs
        ]
        messages = [
            countersign_bytes(c.blinded, c.notary_id, c.notary_key_id, c.countersigned_at)
            for c in csas
        ]
        assert csas[0].notary_signature != csas[1].notary_signature
        assert messages[0] != messages[1]
        # Re-signing the same message reproduces the same signature bytes:
        # nothing besides the embedded bytes and envelope metadata went in.
        resigned = crypto.sign(notary.keypair, crypto.TAG_COUNTER, messages[0])
        assert resigned == csas[0].notary_signature


class TestRevalidation:
    def _witnessed(self):
        """A notary that forwards to its cooperative, and the id of a
        blinded attestation it witnessed, valid over ticks [10, 100)."""
        coop = Cooperative("coop1", b"coop1", "notary-1")
        notary = make_notary()
        notary.represent(coop.public_key, coop.revalidation_status)
        coop.register_member(MemberRecord("alice", "alice-legal-0001",
                                          {"date-of-birth": -9000}))
        plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        notary.witness_and_countersign(plain, blinded, now=10)
        return notary, coop, blinded.attestation_id

    def test_archived_valid(self):
        notary, _, att_id = self._witnessed()
        assert notary.respond_revalidation(att_id, 50) == STATUS_VALID

    def test_never_witnessed_unknown(self):
        notary = make_notary()
        assert notary.respond_revalidation(crypto.digest(b"x"), 0) == STATUS_UNKNOWN

    def test_expired_via_forwarded_query(self):
        notary, _, att_id = self._witnessed()
        assert notary.respond_revalidation(att_id, 100) == STATUS_EXPIRED

    @pytest.mark.parametrize(
        "status", [STATUS_VALID, STATUS_REVOKED, STATUS_EXPIRED, STATUS_UNKNOWN])
    def test_an_archived_attestation_gets_the_source_s_answer(self, status):
        """Every revalidation of an archived attestation is one query to the
        source, whose answer the notary returns unchanged."""
        notary, coop, att_id = self._witnessed()
        asked = []
        notary.represent(coop.public_key, lambda *query: asked.append(query) or status)
        assert notary.respond_revalidation(att_id, 50) is status
        assert asked == [(att_id, 50)]

    def test_a_revalidation_goes_to_the_source_of_its_issuer(self):
        """A notary witnessing for two cooperatives forwards each revalidation
        to the source its issuer key id names; for an issuer with none, it
        raises."""
        notary, _, att_id = self._witnessed()
        other = Cooperative("coop2", b"coop2", "notary-1")
        other.register_member(MemberRecord("bob", "bob-legal-0002", {"date-of-birth": -9000}))
        plain, blinded = other.issue_blinded("bob", ["age-over-18"], "absent", 10, 90)
        notary.issuers.add(other.public_key)
        notary.witness_and_countersign(plain, blinded, now=10)
        with pytest.raises(NoRevocationSource):
            notary.respond_revalidation(blinded.attestation_id, 50)
        notary.represent(other.public_key, lambda attestation_id, now: STATUS_REVOKED)
        assert notary.respond_revalidation(blinded.attestation_id, 50) == STATUS_REVOKED
        assert notary.respond_revalidation(att_id, 50) == STATUS_VALID

    def test_never_witnessed_is_not_forwarded(self):
        def source(attestation_id, now):
            raise AssertionError("the source was asked")
        notary = make_notary()
        notary.represent(crypto.keygen(b"coop1").public_key, source)
        assert notary.respond_revalidation(crypto.digest(b"x"), 0) == STATUS_UNKNOWN

    def test_a_notary_with_no_source_names_the_attestation(self, tmp_path):
        """A notary loaded from its state file has no source to forward to:
        revalidating an attestation it witnessed raises a CoopAttestError
        naming it, and one it never witnessed is still unknown."""
        notary, _, att_id = self._witnessed()
        notary.save_state(tmp_path / "notary.state")
        loaded = Notary.load_state(tmp_path / "notary.state")
        with pytest.raises(NoRevocationSource, match=f"attestation {att_id.hex()}$"):
            loaded.respond_revalidation(att_id, 50)
        assert loaded.respond_revalidation(crypto.digest(b"x"), 50) == STATUS_UNKNOWN

    def test_revoked_via_forwarded_query(self):
        """A revocation made after witnessing reaches the notary's answer,
        from its tick on."""
        notary, coop, att_id = self._witnessed()
        coop.revoke(att_id, 40)
        assert notary.respond_revalidation(att_id, 50) == STATUS_REVOKED
        assert notary.respond_revalidation(att_id, 39) == STATUS_VALID


class TestDisclosure:
    def _ready(self, issuer, identity="alice-legal-0001"):
        notary = make_notary(issuer)
        plain, blinded = issued_pair(issuer, identity=identity)
        notary.witness_and_countersign(plain, blinded, now=10)
        return notary, blinded.attestation_id

    def test_compatible_jurisdiction_disclosed(self, issuer):
        notary, att_id = self._ready(issuer)
        response = notary.respond_disclosure(att_id, "US", "travel-rule", 20)
        assert response.outcome == OUTCOME_DISCLOSED
        assert response.subject == "alice-legal-0001"
        assert response.attributes is not None

    def test_incompatible_jurisdiction_denied(self, issuer):
        notary, att_id = self._ready(issuer)
        response = notary.respond_disclosure(att_id, "XX", "travel-rule", 20)
        assert response.outcome == OUTCOME_DENIED
        assert response.subject is None

    def test_unknown_attestation(self, issuer):
        notary = make_notary()
        response = notary.respond_disclosure(crypto.digest(b"?"), "US", "dsn-dispute", 20)
        assert response.outcome == OUTCOME_UNKNOWN

    def test_every_request_audited(self, issuer):
        notary, att_id = self._ready(issuer)
        notary.respond_disclosure(att_id, "US", "travel-rule", 20)
        notary.respond_disclosure(att_id, "XX", "dsn-dispute", 21)
        notary.respond_disclosure(crypto.digest(b"?"), "EU", "travel-rule", 22)
        assert [e.outcome for e in notary.audit_log] == [
            OUTCOME_DISCLOSED, OUTCOME_DENIED, OUTCOME_UNKNOWN,
        ]

    def test_bad_purpose_rejected(self, issuer):
        notary, att_id = self._ready(issuer)
        with pytest.raises(ValueError):
            notary.respond_disclosure(att_id, "US", "curiosity", 20)

    def test_denied_response_carries_no_identity(self, issuer):
        identity = "super-secret-legal-name-123"
        notary, att_id = self._ready(issuer, identity=identity)
        response = notary.respond_disclosure(att_id, "XX", "travel-rule", 20)
        serialized = canonical_serialize({
            "outcome": response.outcome,
            "subject": response.subject or "",
        })
        assert identity.encode() not in serialized
        # The audit trail never holds the identity either.
        for entry in notary.audit_log:
            assert identity.encode() not in record_bytes(AuditEntry, entry)

    def test_disclosure_soundness_matches_archive(self, issuer):
        notary, att_id = self._ready(issuer)
        response = notary.respond_disclosure(att_id, "EU", "travel-rule", 20)
        entry = notary_archive(notary)[0]
        assert response.subject == entry.plain.subject.value

    def test_subject_presence_invariant(self):
        with pytest.raises(ValueError):
            DisclosureResponse(outcome=OUTCOME_DENIED, subject="leak")
        with pytest.raises(ValueError):
            DisclosureResponse(outcome=OUTCOME_DISCLOSED)


class TestStatePersistence:
    def test_state_roundtrip(self, tmp_path, issuer):
        notary = make_notary(issuer)
        plain, blinded = issued_pair(issuer)
        notary.witness_and_countersign(plain, blinded, now=10)
        notary.respond_disclosure(blinded.attestation_id, "US", "travel-rule", 20)
        path = tmp_path / "notary.state"
        notary.save_state(path)
        loaded = Notary.load_state(path)
        assert notary_archive(loaded) == notary_archive(notary)
        assert loaded.audit_log == notary.audit_log
        assert loaded.keypair == notary.keypair

    def test_failed_replace_keeps_previous_file(self, tmp_path, issuer, monkeypatch):
        notary = make_notary(issuer)
        path = tmp_path / "notary.state"
        notary.save_state(path)
        before = path.read_bytes()
        plain, blinded = issued_pair(issuer)
        notary.witness_and_countersign(plain, blinded, now=10)

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            notary.save_state(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["notary.state"]

    def test_save_keeps_owner_only_mode(self, tmp_path):
        path = tmp_path / "notary.state"
        path.write_bytes(b"{}")
        path.chmod(0o600)
        make_notary().save_state(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert Notary.load_state(path).keypair == make_notary().keypair

    def test_issuers_keep_their_order_and_a_repeated_key_is_saved_once(self, tmp_path):
        keys = [crypto.keygen(seed).public_key for seed in (b"coop-2", b"coop-1", b"coop-3")]
        path = tmp_path / "notary.state"
        make_notary().save_state(path)
        raw = canonical_parse(path.read_bytes())
        raw["issuers"] = [keys[0], keys[1], keys[0], keys[2]]
        path.write_bytes(canonical_serialize(raw))
        Notary.load_state(path).save_state(path)
        assert canonical_parse(path.read_bytes())["issuers"] == keys

    def test_wrongly_typed_issuers_rejected(self, tmp_path):
        path = tmp_path / "notary.state"
        make_notary().save_state(path)
        raw = canonical_parse(path.read_bytes())
        for issuers in (["not-a-key"], b"key", [7]):
            raw["issuers"] = issuers
            with pytest.raises(DecodeError, match="issuers"):
                record_from_map(NotaryState, raw)


def test_envelope_fidelity_through_archive(issuer):
    notary = make_notary(issuer)
    plain, blinded = issued_pair(issuer)
    before = canonical_bytes(blinded)
    csa = notary.witness_and_countersign(plain, blinded, now=10)
    assert canonical_bytes(csa.blinded) == before
