"""Witnessing, archiving, revalidation, and disclosure at the notary."""

import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattest import crypto
from coopattest.attestation import SubjectRef, blind, canonical_bytes
from coopattest.canonical import canonical_parse, canonical_serialize, record_bytes, record_from_map
from coopattest.cooperative import Cooperative, MemberRecord, RevocationRegistry, Status
from coopattest.errors import DecodeError, ExpiredAtWitnessing, PairMismatch
from coopattest.notary import (
    OUTCOME_DENIED,
    OUTCOME_DISCLOSED,
    OUTCOME_UNKNOWN,
    AuditEntry,
    DisclosureResponse,
    JurisdictionPolicy,
    Notary,
    NotaryState,
)

from conftest import countersign_bytes, make_claims, make_plain, notary_archive

POLICY = JurisdictionPolicy("US", frozenset({"US", "EU"}))


def make_notary(**kwargs):
    return Notary("notary-1", b"test-notary", POLICY, **kwargs)


def issued_pair(issuer, **kwargs):
    plain = make_plain(issuer, **kwargs)
    return plain, blind(plain, SubjectRef.absent(), issuer)


class TestWitnessing:
    def test_valid_pair_archived(self, issuer):
        notary = make_notary()
        plain, blinded = issued_pair(issuer)
        csa = notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)
        assert len(notary_archive(notary)) == 1
        assert csa.notary_id == "notary-1"
        assert notary_archive(notary)[0].countersigned == csa

    def test_mismatch_rejected_without_archiving(self, issuer):
        notary = make_notary()
        plain_a, _ = issued_pair(issuer, nonce=b"a" * 32)
        _, blinded_b = issued_pair(issuer, nonce=b"b" * 32)
        with pytest.raises(PairMismatch) as excinfo:
            notary.witness_and_countersign(plain_a, blinded_b, issuer.public_key, now=10)
        assert "digest_match" in excinfo.value.report.failing()
        assert len(notary_archive(notary)) == 0
        assert len(notary.rejection_log) == 1

    def test_expired_at_witnessing_boundary(self, issuer):
        notary = make_notary()
        plain, blinded = issued_pair(issuer, issued_at=10, expires_at=100)
        with pytest.raises(ExpiredAtWitnessing):
            notary.witness_and_countersign(plain, blinded, issuer.public_key, now=100)
        assert len(notary.rejection_log) == 1

    def test_witness_neutrality(self, issuer):
        """The countersignature depends on attribute values only through the
        embedded blinded bytes."""
        notary = make_notary()
        pairs = [
            issued_pair(issuer, claims=make_claims(("age-over-18", value)))
            for value in ("true", "false")
        ]
        csas = [
            notary.witness_and_countersign(p, b, issuer.public_key, now=10)
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
    def _witnessed(self, issuer, coop=None):
        notary = make_notary(
            revocation_source=coop.revalidation_status if coop else None
        )
        if coop:
            coop.register_member(MemberRecord("alice", "alice-legal-0001",
                                              {"date-of-birth": -9000}))
            plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
            notary.sync_revocations(coop.revocations.since(0))
            notary.witness_and_countersign(plain, blinded, coop.public_key, now=10)
        else:
            plain, blinded = issued_pair(issuer, issued_at=10, expires_at=100)
            notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)
        return notary, blinded.attestation_id

    def test_archived_valid(self, issuer):
        notary, att_id = self._witnessed(issuer)
        assert notary.respond_revalidation(att_id, 50) is Status.VALID

    def test_never_witnessed_unknown(self, issuer):
        notary = make_notary()
        assert notary.respond_revalidation(crypto.digest(b"x"), 0) is Status.UNKNOWN

    def test_expired_from_local_archive(self, issuer):
        notary, att_id = self._witnessed(issuer)
        assert notary.respond_revalidation(att_id, 100) is Status.EXPIRED

    def test_revoked_via_forwarded_query(self, issuer):
        """Mirror is stale; the forwarded query reaches the cooperative."""
        coop = Cooperative("coop1", b"coop1", "notary-1")
        notary, att_id = self._witnessed(issuer, coop=coop)
        coop.revoke(att_id, 40)  # after the last mirror sync
        assert att_id not in notary.mirror
        assert notary.respond_revalidation(att_id, 50) is Status.REVOKED

    def test_revoked_via_mirror_without_source(self, issuer):
        coop = Cooperative("coop1", b"coop1", "notary-1")
        coop.register_member(MemberRecord("alice", "alice-legal-0001",
                                          {"date-of-birth": -9000}))
        plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        coop.revoke(blinded.attestation_id, 20)
        notary = make_notary()
        notary.witness_and_countersign(plain, blinded, coop.public_key, now=15)
        notary.sync_revocations(coop.revocations.since(0))
        assert notary.respond_revalidation(blinded.attestation_id, 30) is Status.REVOKED
        # Revocation ticks in the future of the query are not yet effective.
        assert notary.respond_revalidation(blinded.attestation_id, 19) is Status.VALID

    # A sync (None) between marks of ids 0-5 at ticks 0-50, re-marks included.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 50))),
                    max_size=30))
    def test_syncing_only_new_entries_keeps_the_mirror_equal_to_the_registry(self, steps):
        registry, notary, synced = RevocationRegistry(), make_notary(), 0
        for step in steps:
            if step is None:
                notary.sync_revocations(registry.since(synced))
                synced = len(registry.entries)
                assert list(notary.mirror.items()) == list(registry.entries.items())
            else:
                registry.mark(crypto.digest(bytes([step[0]])), step[1])


class TestDisclosure:
    def _ready(self, issuer, identity="alice-legal-0001"):
        notary = make_notary()
        plain, blinded = issued_pair(issuer, identity=identity)
        notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)
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
        notary = make_notary()
        plain, blinded = issued_pair(issuer)
        notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)
        notary.respond_disclosure(blinded.attestation_id, "US", "travel-rule", 20)
        path = tmp_path / "notary.state"
        notary.save_state(path)
        loaded = Notary.load_state(path)
        assert loaded.respond_revalidation(blinded.attestation_id, 50) is Status.VALID
        assert len(loaded.audit_log) == 1
        assert loaded.keypair == notary.keypair

    def test_failed_replace_keeps_previous_file(self, tmp_path, issuer, monkeypatch):
        notary = make_notary()
        path = tmp_path / "notary.state"
        notary.save_state(path)
        before = path.read_bytes()
        plain, blinded = issued_pair(issuer)
        notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)

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

    def test_wrongly_typed_issuers_rejected(self, tmp_path):
        path = tmp_path / "notary.state"
        make_notary().save_state(path)
        raw = canonical_parse(path.read_bytes())
        for issuers in (["not-a-key"], b"key", [7]):
            raw["issuers"] = issuers
            with pytest.raises(DecodeError, match="issuers"):
                record_from_map(NotaryState, raw)


def test_envelope_fidelity_through_archive(issuer):
    notary = make_notary()
    plain, blinded = issued_pair(issuer)
    before = canonical_bytes(blinded)
    csa = notary.witness_and_countersign(plain, blinded, issuer.public_key, now=10)
    assert canonical_bytes(csa.blinded) == before
