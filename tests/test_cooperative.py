"""Member registry, attribute derivation, issuance, revocation."""

import os
import signal
import stat
import subprocess
import sys

import pytest

from coopattest import crypto
from coopattest.attestation import verify_pair
from coopattest.canonical import canonical_parse, record_bytes, record_from_map
from coopattest.cooperative import DEFAULT_QUERIES, Cooperative, MemberRecord, Status
from coopattest.errors import (
    DecodeError,
    DuplicateMember,
    InsufficientData,
    MissingHandle,
    UnknownAttestation,
    UnknownMember,
    UnknownQuery,
)


def make_coop(name="coop1", year_ticks=365):
    return Cooperative(
        name, name.encode(), "notary-1", year_ticks=year_ticks
    )


def alice(handle=None):
    return MemberRecord(
        member_id="alice",
        legal_identity="alice-legal-0001",
        personal_data={"date-of-birth": -7000, "residence": "NL", "income": 50_000,
                       "standing": "good"},
        handle=handle,
    )


class TestRegistry:
    def test_register_and_lookup(self):
        coop = make_coop()
        coop.register_member(alice())
        assert coop.member("alice").legal_identity == "alice-legal-0001"

    def test_duplicate_rejected(self):
        coop = make_coop()
        coop.register_member(alice())
        with pytest.raises(DuplicateMember):
            coop.register_member(alice())

    def test_bulk_roundtrip(self):
        coop = make_coop()
        for i in range(1000):
            coop.register_member(MemberRecord(f"m{i}", f"legal-{i:08d}", {"residence": "NL"}))
        for i in range(1000):
            assert coop.member(f"m{i}").legal_identity == f"legal-{i:08d}"

    def test_unknown_member(self):
        with pytest.raises(UnknownMember):
            make_coop().member("ghost")

    @pytest.mark.parametrize("field, value", [
        ("member_id", 7), ("legal_identity", 5), ("legal_identity", b"alice"),
        ("personal_data", ["residence", "NL"]), ("handle", True),
    ])
    def test_wrongly_typed_field_rejected(self, field, value):
        raw = canonical_parse(record_bytes(MemberRecord, alice(handle="@alice")))
        raw[field] = value
        with pytest.raises(DecodeError, match=field):
            record_from_map(MemberRecord, raw)


class TestDerivation:
    def test_age_over_18_true(self):
        # 7000 ticks of age on a 365-tick year is past the 18-year line.
        coop = make_coop(year_ticks=365)
        coop.register_member(alice())
        claim = coop.derive_attribute("alice", "age-over-18", now=0)
        assert (0 - (-7000)) >= 18 * 365  # the arithmetic oracle for this fixture
        assert claim.value == "true"
        assert claim.method == "pds-rule:age-over-18"

    def test_age_over_18_false_below_line(self):
        coop = make_coop(year_ticks=365)
        coop.register_member(MemberRecord("kid", "kid-legal-0003", {"date-of-birth": -6569}))
        # 6569 < 6570 = 18 * 365
        assert coop.derive_attribute("kid", "age-over-18", now=0).value == "false"
        coop.register_member(MemberRecord("adult", "adult-legal-04", {"date-of-birth": -6570}))
        assert coop.derive_attribute("adult", "age-over-18", now=0).value == "true"

    def test_residence_projection(self):
        coop = make_coop()
        coop.register_member(alice())
        assert coop.derive_attribute("alice", "residence-country", 0).value == "NL"

    def test_income_brackets(self):
        coop = make_coop()
        for member_id, income, expected in (
            ("poor", 29_999, "low"), ("mid", 30_000, "middle"),
            ("upper", 99_999, "middle"), ("rich", 100_000, "high"),
        ):
            coop.register_member(MemberRecord(member_id, f"{member_id}-legal-01", {"income": income}))
            assert coop.derive_attribute(member_id, "income-bracket", 0).value == expected

    def test_good_standing(self):
        coop = make_coop()
        coop.register_member(alice())
        assert coop.derive_attribute("alice", "membership-in-good-standing", 0).value == "true"

    def test_missing_field(self):
        coop = make_coop()
        coop.register_member(MemberRecord("bob", "bob-legal-0002", {"residence": "DE"}))
        with pytest.raises(InsufficientData):
            coop.derive_attribute("bob", "age-over-18", 0)
        # An empty text field is as unusable as a missing one.
        coop.register_member(MemberRecord("carol", "carol-legal-0003", {"residence": ""}))
        with pytest.raises(InsufficientData):
            coop.derive_attribute("carol", "residence-country", 0)

    def test_unknown_query(self):
        coop = make_coop()
        coop.register_member(alice())
        with pytest.raises(UnknownQuery):
            coop.derive_attribute("alice", "shoe-size", 0)


    def test_the_default_queries_are_exactly_the_rules_it_derives(self):
        coop = Cooperative("coop1", b"coop1", "notary-1", queries=(*DEFAULT_QUERIES, "shoe-size"))
        coop.register_member(alice())
        for rule in DEFAULT_QUERIES:
            assert coop.derive_attribute("alice", rule, 0).name == rule
        with pytest.raises(UnknownQuery):
            coop.derive_attribute("alice", "shoe-size", 0)

class TestIssuance:
    def test_pair_verifies(self):
        coop = make_coop()
        coop.register_member(alice())
        plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        assert verify_pair(plain, blinded, coop.public_key).passed
        assert blinded.subject.mode == "absent"
        assert plain.subject.value == "alice-legal-0001"

    def test_handle_substitution(self):
        coop = make_coop()
        coop.register_member(alice(handle="@sender"))
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "handle", 10, 90)
        assert blinded.subject.value == "@sender"

    def test_handle_mode_requires_handle(self):
        coop = make_coop()
        coop.register_member(alice())
        with pytest.raises(MissingHandle):
            coop.issue_blinded("alice", ["age-over-18"], "handle", 10, 90)

    def test_repeat_issuance_gets_fresh_nonce(self):
        coop = make_coop()
        coop.register_member(alice())
        ids = set()
        for _ in range(100):
            plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
            ids.add(plain.attestation_id)
            ids.add(blinded.attestation_id)
        assert len(ids) == 200


class TestRevocation:
    def _issued(self):
        coop = make_coop()
        coop.register_member(alice())
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        return coop, blinded.attestation_id

    def test_revoke_then_status(self):
        coop, att_id = self._issued()
        coop.revoke(att_id, 40)
        assert coop.revalidation_status(att_id, 50) is Status.REVOKED

    def test_revoke_unknown(self):
        coop, _ = self._issued()
        with pytest.raises(UnknownAttestation):
            coop.revoke(crypto.digest(b"nonexistent"), 40)

    def test_revoke_idempotent_keeps_first_tick(self):
        coop, att_id = self._issued()
        coop.revoke(att_id, 40)
        coop.revoke(att_id, 60)
        assert coop.revocations.revoked_at(att_id) == 40

    def test_revoking_either_id_marks_the_pair(self):
        coop = make_coop()
        coop.register_member(alice())
        plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        coop.revoke(plain.attestation_id, 30)
        assert coop.revalidation_status(blinded.attestation_id, 35) is Status.REVOKED


class TestRevalidationStatus:
    def test_valid_window(self):
        coop = make_coop()
        coop.register_member(alice())
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        assert coop.revalidation_status(blinded.attestation_id, 50) is Status.VALID

    def test_revocation_precedes_validity(self):
        coop = make_coop()
        coop.register_member(alice())
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        coop.revoke(blinded.attestation_id, 40)
        assert coop.revalidation_status(blinded.attestation_id, 50) is Status.REVOKED

    def test_expiry_boundary_half_open(self):
        coop = make_coop()
        coop.register_member(alice())
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 10, 90)
        assert coop.revalidation_status(blinded.attestation_id, 99) is Status.VALID
        assert coop.revalidation_status(blinded.attestation_id, 100) is Status.EXPIRED

    def test_unknown_id(self):
        coop = make_coop()
        assert coop.revalidation_status(crypto.digest(b"x"), 0) is Status.UNKNOWN

    def test_status_lattice_against_oracle(self):
        """Exhaustive (issue, revoke, query) grid against a brute-force oracle."""

        def oracle(issued, expires, revoked_at, query):
            if revoked_at is not None and revoked_at <= query:
                return Status.REVOKED
            if query >= expires:
                return Status.EXPIRED
            return Status.VALID

        ttl = 7
        for issue_tick in range(0, 15):
            for revoke_tick in [None, *range(0, 15)]:
                coop = make_coop()
                coop.register_member(alice())
                _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent",
                                                issue_tick, ttl)
                if revoke_tick is not None:
                    coop.revoke(blinded.attestation_id, revoke_tick)
                for query_tick in range(0, 25):
                    expected = oracle(issue_tick, issue_tick + ttl, revoke_tick, query_tick)
                    assert coop.revalidation_status(blinded.attestation_id, query_tick) is expected

    def test_revocation_monotone(self):
        coop = make_coop()
        coop.register_member(alice())
        _, blinded = coop.issue_blinded("alice", ["age-over-18"], "absent", 0, 90)
        coop.revoke(blinded.attestation_id, 30)
        seen_revoked = False
        for t in range(0, 120):
            status = coop.revalidation_status(blinded.attestation_id, t)
            if status is Status.REVOKED:
                seen_revoked = True
            elif seen_revoked:
                pytest.fail(f"status regressed from revoked at tick {t}")


class TestStatePersistence:
    def test_roundtrip(self, tmp_path):
        coop = make_coop()
        coop.register_member(alice(handle="@sender"))
        plain, blinded = coop.issue_blinded("alice", ["age-over-18"], "handle", 10, 90)
        coop.revoke(blinded.attestation_id, 40)
        path = tmp_path / "coop.state"
        coop.save_state(path)
        loaded = Cooperative.load_state(path)
        assert loaded.member("alice").handle == "@sender"
        assert loaded.revalidation_status(blinded.attestation_id, 45) is Status.REVOKED
        assert loaded.revalidation_status(plain.attestation_id, 45) is Status.REVOKED
        assert loaded.keypair == coop.keypair
        # nonce counter persists: the next issuance differs from a replay
        a = loaded.issue_blinded("alice", ["age-over-18"], "absent", 50, 10)
        fresh = Cooperative.load_state(path)
        b = fresh.issue_blinded("alice", ["age-over-18"], "absent", 50, 10)
        assert a[0].attestation_id == b[0].attestation_id  # same counter, same result

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        coop = make_coop()
        path = tmp_path / "coop.state"
        coop.save_state(path)
        before = path.read_bytes()
        coop.register_member(alice())

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            coop.save_state(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["coop.state"]

    def test_killed_before_replace_keeps_previous_file(self, tmp_path):
        path = tmp_path / "coop.state"
        make_coop().save_state(path)
        before = path.read_bytes()
        # The process dies where a crash would hurt most: the new state is
        # written and synced beside the file, and the rename has not run.
        child = (
            "import os, signal, sys\n"
            "from coopattest.cooperative import Cooperative, MemberRecord\n"
            "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
            "coop = Cooperative.load_state(sys.argv[1])\n"
            "coop.register_member(MemberRecord('bob', 'bob-legal-0002', {}))\n"
            "coop.save_state(sys.argv[1])\n"
        )
        result = subprocess.run([sys.executable, "-c", child, str(path)],
                                capture_output=True, timeout=60)
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert path.read_bytes() == before
        assert Cooperative.load_state(path).keypair == make_coop().keypair

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0600", "0640"])
    def test_save_keeps_file_mode(self, tmp_path, mode):
        path = tmp_path / "coop.state"
        make_coop().save_state(path)
        path.chmod(mode)
        make_coop().save_state(path)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_new_state_file_is_owner_only(self, tmp_path):
        path = tmp_path / "coop.state"
        make_coop().save_state(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_save_through_symlink_rewrites_target(self, tmp_path):
        target = tmp_path / "real.state"
        make_coop().save_state(target)
        link = tmp_path / "coop.state"
        link.symlink_to(target)
        coop = make_coop()
        coop.register_member(alice())
        coop.save_state(link)
        assert link.is_symlink()
        assert Cooperative.load_state(target).member("alice").handle == alice().handle

    def test_save_leaves_other_files_alone(self, tmp_path):
        path = tmp_path / "coop.state"
        neighbour = tmp_path / "coop.state.tmp"
        neighbour.write_bytes(b"operator's file")
        make_coop().save_state(path)
        assert neighbour.read_bytes() == b"operator's file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coop.state", "coop.state.tmp"]
