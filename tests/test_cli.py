"""End-to-end CLI flows: issue, countersign, verify, revoke, disclose, simulate."""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from coopattest import crypto
from coopattest.attestation import read_attestation
from coopattest.canonical import MAX_DEPTH, canonical_parse, canonical_serialize
from coopattest.cli import main
from coopattest.harness import bundled_scenario_path

COOP_SEED = b"cli-coop"
NOTARY_SEED = b"cli-notary"
GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture
def workdir(tmp_path):
    coop_key = crypto.keygen(COOP_SEED)
    coop_state = {
        "name": "coop1",
        "key_seed": COOP_SEED,
        "legal_rep": "notary-1",
        "members": [{
            "member_id": "alice",
            "legal_identity": "alice-legal-0001",
            "personal_data": {"date-of-birth": -9000, "residence": "NL"},
            "handle": "@alice",
        }],
    }
    notary_state = {
        "notary_id": "notary-1",
        "key_seed": NOTARY_SEED,
        "jurisdiction": "US",
        "compatible": ["US", "EU"],
        "issuers": [coop_key.public_key],
    }
    (tmp_path / "coop.state").write_bytes(canonical_serialize(coop_state))
    (tmp_path / "notary.state").write_bytes(canonical_serialize(notary_state))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def issue_and_countersign(workdir, now=10, ttl=90):
    assert run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                "--attrs", "age-over-18,residence-country", "--mode", "absent",
                "--now", now, "--ttl", ttl,
                "--out-plain", workdir / "a.plain.att",
                "--out-blinded", workdir / "a.blinded.att"]) == 0
    assert run(["countersign", "--notary", workdir / "notary.state",
                "--plain", workdir / "a.plain.att",
                "--blinded", workdir / "a.blinded.att",
                "--now", now, "--out", workdir / "a.csa.att"]) == 0


def write_keys(workdir):
    assert run(["keygen", "--seed", COOP_SEED.hex(), "--out", workdir / "coop.key"]) == 0
    assert run(["keygen", "--seed", NOTARY_SEED.hex(), "--out", workdir / "notary.key"]) == 0


class TestKeygen:
    def test_writes_key_file(self, tmp_path, capsys):
        assert run(["keygen", "--seed", "00ff", "--out", tmp_path / "k.key"]) == 0
        raw = canonical_parse((tmp_path / "k.key").read_bytes())
        assert raw["key_id"] == crypto.digest(raw["public_key"]).value
        assert "key_id" in capsys.readouterr().out

    def test_key_file_is_created_private_and_keeps_its_mode(self, tmp_path):
        path = tmp_path / "k.key"
        umask = os.umask(0o022)
        try:
            assert run(["keygen", "--seed", "00ff", "--out", path]) == 0
        finally:
            os.umask(umask)
        # It holds the secret key.
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        path.chmod(0o640)
        assert run(["keygen", "--seed", "01ff", "--out", path]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert canonical_parse(path.read_bytes())["secret_key"] == crypto.keygen(b"\x01\xff").secret_key
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_hex_is_usage_error(self, tmp_path):
        assert run(["keygen", "--seed", "zz", "--out", tmp_path / "k.key"]) == 2

    def test_empty_seed_rejected(self, tmp_path, capsys):
        assert run(["keygen", "--seed", "", "--out", tmp_path / "k.key"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestIssueCountersignVerify:
    def test_full_pipeline_passes(self, workdir, capsys):
        issue_and_countersign(workdir)
        write_keys(workdir)
        code = run(["verify", "--csa", workdir / "a.csa.att",
                    "--issuer-key", workdir / "coop.key",
                    "--notary-key", workdir / "notary.key", "--now", 50])
        out = capsys.readouterr().out
        assert code == 0
        # One line per check, in the report's field order.
        assert out.splitlines()[-5:] == [
            "issuer_signature: pass", "notary_signature: pass", "blinded_id: pass",
            "not_expired: pass", "overall: pass",
        ]

    def test_pipeline_from_the_golden_state_writes_the_golden_attestations(self, tmp_path):
        # scripts/gen_goldens.py writes tests/goldens/pipeline/ the same way.
        for name in ("coop.state", "notary.state"):
            shutil.copyfile(GOLDEN_DIR / name, tmp_path / name)
        assert run(["issue", "--coop", tmp_path / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18,residence-country", "--mode", "handle",
                    "--now", 20, "--ttl", 50, "--out-plain", tmp_path / "plain.att",
                    "--out-blinded", tmp_path / "blinded.att"]) == 0
        assert run(["countersign", "--notary", tmp_path / "notary.state",
                    "--plain", tmp_path / "plain.att", "--blinded", tmp_path / "blinded.att",
                    "--now", 21, "--out", tmp_path / "countersigned.att"]) == 0
        for name in ("plain.att", "blinded.att", "countersigned.att"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / "pipeline" / name).read_bytes()

    def test_verify_fails_after_expiry(self, workdir, capsys):
        issue_and_countersign(workdir, now=10, ttl=90)
        write_keys(workdir)
        code = run(["verify", "--csa", workdir / "a.csa.att",
                    "--issuer-key", workdir / "coop.key",
                    "--notary-key", workdir / "notary.key", "--now", 100])
        out = capsys.readouterr().out
        assert code == 1
        assert "not_expired: fail" in out

    def test_verify_fails_on_tampered_file(self, workdir, capsys):
        issue_and_countersign(workdir)
        write_keys(workdir)
        data = (workdir / "a.csa.att").read_bytes()
        (workdir / "a.csa.att").write_bytes(
            data.replace(b'"legal_rep_id":"notary-1"', b'"legal_rep_id":"notary-2"')
        )
        code = run(["verify", "--csa", workdir / "a.csa.att",
                    "--issuer-key", workdir / "coop.key",
                    "--notary-key", workdir / "notary.key", "--now", 50])
        assert code == 1
        assert "fail" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [
        ("bytes", 7),
        ("signer_key_id", "not-bytes"),
        ("domain_tag", b"coop-attest/counter/v1"),
    ])
    def test_verify_wrongly_typed_signature_exit_2(self, workdir, capsys, field, value):
        issue_and_countersign(workdir)
        write_keys(workdir)
        raw = canonical_parse((workdir / "a.csa.att").read_bytes())
        raw["notary_signature"][field] = value
        (workdir / "a.csa.att").write_bytes(canonical_serialize(raw))
        code = run(["verify", "--csa", workdir / "a.csa.att",
                    "--issuer-key", workdir / "coop.key",
                    "--notary-key", workdir / "notary.key", "--now", 50])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("ttl", [0, -5])
    def test_issue_non_positive_ttl_exit_2(self, workdir, capsys, ttl):
        code = run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", ttl,
                    "--out-plain", workdir / "x.plain.att",
                    "--out-blinded", workdir / "x.blinded.att"])
        assert code == 2
        assert capsys.readouterr().err == "error: --ttl must be positive\n"
        assert not (workdir / "x.plain.att").exists()

    def test_countersign_rejects_mismatched_pair(self, workdir, capsys):
        issue_and_countersign(workdir)
        # Issue a second pair and cross the files.
        assert run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "b.plain.att",
                    "--out-blinded", workdir / "b.blinded.att"]) == 0
        code = run(["countersign", "--notary", workdir / "notary.state",
                    "--plain", workdir / "a.plain.att",
                    "--blinded", workdir / "b.blinded.att",
                    "--now", 10, "--out", workdir / "bad.att"])
        assert code == 1
        assert "PairMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, now, failing", [
        (("a.plain.att", "b.blinded.att"), 10, ["attributes_match", "digest_match"]),
        (("a.plain.att", "a.blinded.att"), 100, ["expired-at-witnessing"]),
    ])
    def test_countersign_refusal_is_saved(self, workdir, capsys, pair, now, failing):
        issue_and_countersign(workdir)
        assert run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent", "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "b.plain.att",
                    "--out-blinded", workdir / "b.blinded.att"]) == 0
        plain, blinded = (workdir / name for name in pair)
        code = run(["countersign", "--notary", workdir / "notary.state", "--plain", plain,
                    "--blinded", blinded, "--now", now, "--out", workdir / "bad.att"])
        assert code == 1
        rejections = canonical_parse((workdir / "notary.state").read_bytes())["rejections"]
        assert [(r["at"], r["failing"]) for r in rejections] == [(now, failing)]
        assert rejections[0]["attestation_id"] == read_attestation(blinded).attestation_id.value
        assert not (workdir / "bad.att").exists()

    def test_countersign_rejects_a_blinded_with_a_rewritten_id(self, workdir, capsys):
        issue_and_countersign(workdir)
        raw = canonical_parse((workdir / "a.blinded.att").read_bytes())
        raw["attestation_id"] = crypto.digest(b"another attestation").value
        (workdir / "a.blinded.att").write_bytes(canonical_serialize(raw))
        code = run(["countersign", "--notary", workdir / "notary.state",
                    "--plain", workdir / "a.plain.att", "--blinded", workdir / "a.blinded.att",
                    "--now", 12, "--out", workdir / "bad.att"])
        assert code == 1
        assert "PairMismatch" in capsys.readouterr().err
        rejections = canonical_parse((workdir / "notary.state").read_bytes())["rejections"]
        assert [(r["at"], r["failing"], r["attestation_id"]) for r in rejections] == [
            (12, ["blinded_id"], raw["attestation_id"])]
        assert not (workdir / "bad.att").exists()

    def test_issue_wrongly_typed_member_exit_2(self, workdir, capsys):
        raw = canonical_parse((workdir / "coop.state").read_bytes())
        raw["members"][0]["legal_identity"] = 5
        (workdir / "coop.state").write_bytes(canonical_serialize(raw))
        code = run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "x.plain.att",
                    "--out-blinded", workdir / "x.blinded.att"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "x.plain.att").exists()

    @pytest.mark.parametrize("field, value", [
        ("nonce_counter", "1"),
        ("nonce_counter", True),
        ("year_ticks", "365"),
        ("queries", "age-over-18"),
        ("income_bands", [["30000", "low"]]),
        ("income_bands", [[30000, 5]]),
        ("revoked", {"ab" * 32: "5"}),
    ])
    def test_issue_wrongly_typed_state_field_exit_2(self, workdir, capsys, field, value):
        raw = canonical_parse((workdir / "coop.state").read_bytes())
        raw[field] = value
        (workdir / "coop.state").write_bytes(canonical_serialize(raw))
        code = run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "x.plain.att",
                    "--out-blinded", workdir / "x.blinded.att"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "x.plain.att").exists()

    def test_issue_keeps_nonce_seed(self, workdir):
        raw = canonical_parse((workdir / "coop.state").read_bytes())
        raw["nonce_seed"] = b"operator-nonce-seed"
        (workdir / "coop.state").write_bytes(canonical_serialize(raw))
        for _ in range(2):
            assert run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                        "--attrs", "age-over-18", "--mode", "absent",
                        "--now", 10, "--ttl", 90,
                        "--out-plain", workdir / "x.plain.att",
                        "--out-blinded", workdir / "x.blinded.att"]) == 0
        state = canonical_parse((workdir / "coop.state").read_bytes())
        assert state["nonce_seed"] == b"operator-nonce-seed"
        # The second nonce, issued after a rewrite, still comes from nonce_seed.
        nonce = canonical_parse((workdir / "x.plain.att").read_bytes())["nonce"]
        expected = b"coop-attest/nonce/v1:operator-nonce-seed" + (1).to_bytes(8, "big")
        assert nonce == crypto.digest(expected).value

    @pytest.mark.parametrize("field, value", [
        ("nonce_counter", -1),
        ("nonce_counter", 2**64),
        ("key_seed", b""),
        ("members", "duplicate"),
        ("year_tick", 365),
    ], ids=["negative-counter", "counter-2**64", "empty-key-seed", "duplicate-member",
            "unknown-key"])
    def test_issue_invalid_state_exit_2(self, workdir, capsys, field, value):
        raw = canonical_parse((workdir / "coop.state").read_bytes())
        raw[field] = raw["members"] * 2 if value == "duplicate" else value
        (workdir / "coop.state").write_bytes(canonical_serialize(raw))
        before = (workdir / "coop.state").read_bytes()
        code = run(["issue", "--coop", workdir / "coop.state", "--member", "alice",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "x.plain.att",
                    "--out-blinded", workdir / "x.blinded.att"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (workdir / "coop.state").read_bytes() == before
        assert not (workdir / "x.plain.att").exists()

    def test_countersign_wrongly_typed_issuers_exit_2(self, workdir, capsys):
        issue_and_countersign(workdir)
        raw = canonical_parse((workdir / "notary.state").read_bytes())
        raw["issuers"] = ["not-a-key"]
        (workdir / "notary.state").write_bytes(canonical_serialize(raw))
        code = run(["countersign", "--notary", workdir / "notary.state",
                    "--plain", workdir / "a.plain.att",
                    "--blinded", workdir / "a.blinded.att",
                    "--now", 10, "--out", workdir / "b.csa.att"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "b.csa.att").exists()

    AUDIT_ENTRY = {"at": 20, "attestation_id": b"\x01" * 32, "jurisdiction": "US",
                   "purpose": "travel-rule", "outcome": "disclosed"}
    REJECTION_ENTRY = {"at": 20, "attestation_id": b"\x01" * 32, "failing": ["plain_id"]}

    @pytest.mark.parametrize("field, value", [
        ("notary_id", 7),
        ("jurisdiction", 5),
        ("compatible", "EU"),
        ("compatible", ["EU", 7]),
        ("mirror", ["ab" * 32]),
        ("mirror", {"not-hex": 5}),
        ("mirror", {"ab" * 32: "5"}),
        ("mirror", {"ab" * 32: True}),
        ("audit", AUDIT_ENTRY),
        ("audit", [{**AUDIT_ENTRY, "at": "20"}]),
        ("audit", [{**AUDIT_ENTRY, "extra": 1}]),
        ("rejections", ["plain_id"]),
        ("rejections", [{**REJECTION_ENTRY, "failing": "plain_id"}]),
        ("rejections", [{**REJECTION_ENTRY, "failing": [5]}]),
    ])
    def test_disclose_wrongly_typed_notary_state_exit_2(self, workdir, capsys, field, value):
        issue_and_countersign(workdir)
        att_id = capsys.readouterr().out.split("issued ", 1)[1].split()[0]
        raw = canonical_parse((workdir / "notary.state").read_bytes())
        raw[field] = value
        (workdir / "notary.state").write_bytes(canonical_serialize(raw))
        before = (workdir / "notary.state").read_bytes()
        code = run(["disclose", "--notary", workdir / "notary.state", "--id", att_id,
                    "--jurisdiction", "EU", "--purpose", "travel-rule", "--now", 20])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (workdir / "notary.state").read_bytes() == before

    @pytest.mark.parametrize("field, value", [("key_seed", b""), ("jurisdictions", ["EU"])],
                             ids=["empty-key-seed", "unknown-key"])
    def test_disclose_invalid_notary_state_exit_2(self, workdir, capsys, field, value):
        issue_and_countersign(workdir)
        att_id = capsys.readouterr().out.split("issued ", 1)[1].split()[0]
        raw = canonical_parse((workdir / "notary.state").read_bytes())
        raw[field] = value
        (workdir / "notary.state").write_bytes(canonical_serialize(raw))
        before = (workdir / "notary.state").read_bytes()
        code = run(["disclose", "--notary", workdir / "notary.state", "--id", att_id,
                    "--jurisdiction", "EU", "--purpose", "travel-rule", "--now", 20])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (workdir / "notary.state").read_bytes() == before

    def test_issue_unknown_member(self, workdir, capsys):
        code = run(["issue", "--coop", workdir / "coop.state", "--member", "ghost",
                    "--attrs", "age-over-18", "--mode", "absent",
                    "--now", 10, "--ttl", 90,
                    "--out-plain", workdir / "x.plain.att",
                    "--out-blinded", workdir / "x.blinded.att"])
        assert code == 1
        assert "UnknownMember" in capsys.readouterr().err


class TestLifecycle:
    def _issued_id(self, workdir, capsys):
        issue_and_countersign(workdir)
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("issued "):
                return line.split()[1]
        pytest.fail("no issued id in output")

    def test_status_valid_then_revoked(self, workdir, capsys):
        att_id = self._issued_id(workdir, capsys)
        assert run(["status", "--coop", workdir / "coop.state",
                    "--id", att_id, "--now", 50]) == 0
        assert capsys.readouterr().out.strip() == "valid"
        assert run(["revoke", "--coop", workdir / "coop.state",
                    "--id", att_id, "--now", 60]) == 0
        capsys.readouterr()
        assert run(["status", "--coop", workdir / "coop.state",
                    "--id", att_id, "--now", 70]) == 1
        assert capsys.readouterr().out.strip() == "revoked"

    def test_status_expired_and_unknown(self, workdir, capsys):
        att_id = self._issued_id(workdir, capsys)
        assert run(["status", "--coop", workdir / "coop.state",
                    "--id", att_id, "--now", 100]) == 1
        assert capsys.readouterr().out.strip() == "expired"
        assert run(["status", "--coop", workdir / "coop.state",
                    "--id", "00" * 32, "--now", 10]) == 1
        assert capsys.readouterr().out.strip() == "unknown"

    def test_revoke_unknown_id(self, workdir, capsys):
        assert run(["revoke", "--coop", workdir / "coop.state",
                    "--id", "00" * 32, "--now", 5]) == 1

    @pytest.mark.parametrize("att_id", ["", "00", "00" * 33], ids=["empty", "1-byte", "33-bytes"])
    @pytest.mark.parametrize("command", ["revoke", "status", "disclose"])
    def test_an_id_that_is_not_32_bytes_is_usage_error(self, workdir, capsys, command, att_id):
        issue_and_countersign(workdir)
        args = file_commands(workdir)[command]
        args[args.index("--id") + 1] = att_id
        before = {path: path.read_bytes() for path in workdir.iterdir()}
        capsys.readouterr()
        assert run([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --id ") and err.count("\n") == 1
        assert {path: path.read_bytes() for path in workdir.iterdir()} == before

    def test_disclose_compatible_and_not(self, workdir, capsys):
        att_id = self._issued_id(workdir, capsys)
        assert run(["disclose", "--notary", workdir / "notary.state", "--id", att_id,
                    "--jurisdiction", "US", "--purpose", "travel-rule", "--now", 20]) == 0
        out = capsys.readouterr().out
        assert "outcome: disclosed" in out
        assert "subject: alice-legal-0001" in out
        assert run(["disclose", "--notary", workdir / "notary.state", "--id", att_id,
                    "--jurisdiction", "XX", "--purpose", "dsn-dispute", "--now", 21]) == 1
        out = capsys.readouterr().out
        assert "outcome: denied-jurisdiction" in out
        assert "subject" not in out
        # Both requests were persisted into the audit log.
        state = canonical_parse((workdir / "notary.state").read_bytes())
        assert len(state["audit"]) == 2

    def test_disclose_requires_now(self, workdir, capsys):
        att_id = self._issued_id(workdir, capsys)
        before = (workdir / "notary.state").read_bytes()
        assert run(["disclose", "--notary", workdir / "notary.state", "--id", att_id,
                    "--jurisdiction", "US", "--purpose", "travel-rule"]) == 2
        assert "--now" in capsys.readouterr().err
        assert (workdir / "notary.state").read_bytes() == before


class TestSimulateValidate:
    def test_simulate_bundled_scenario(self, tmp_path, capsys):
        config = bundled_scenario_path("travel_rule_basic")
        out = tmp_path / "run.log"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        assert out.exists() and out.read_bytes()

    def test_validate_ok(self, capsys):
        assert run(["validate", "--config", bundled_scenario_path("dsn_bot_flood")]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_problems(self, tmp_path, capsys):
        raw = canonical_parse(bundled_scenario_path("travel_rule_basic").read_bytes())
        raw["script"][0]["member"] = "ghost"
        bad = tmp_path / "bad.scn"
        bad.write_bytes(canonical_serialize(raw))
        assert run(["validate", "--config", bad]) == 2
        assert "script[0].member" in capsys.readouterr().out

    def test_simulate_invalid_config_exit_2(self, tmp_path, capsys):
        raw = canonical_parse(bundled_scenario_path("travel_rule_basic").read_bytes())
        raw["seed"] = b""
        bad = tmp_path / "bad.scn"
        bad.write_bytes(canonical_serialize(raw))
        assert run(["simulate", "--config", bad, "--out", tmp_path / "x.log"]) == 2

    def test_non_list_script_exit_2(self, tmp_path, capsys):
        raw = canonical_parse(bundled_scenario_path("travel_rule_basic").read_bytes())
        raw["script"] = {"at": 1}
        bad = tmp_path / "bad.scn"
        bad.write_bytes(canonical_serialize(raw))
        assert run(["validate", "--config", bad]) == 2
        assert "'script' must be a list" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.scn",
                    "--out", tmp_path / "x.log"]) == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2


def file_commands(w):
    """Each command that reads or writes a file, with arguments it runs on."""
    return {
        "keygen": ["--seed", "00ff", "--out", w / "k.key"],
        "issue": ["--coop", w / "coop.state", "--member", "alice", "--attrs", "age-over-18",
                  "--mode", "absent", "--now", 10, "--ttl", 90,
                  "--out-plain", w / "x.plain.att", "--out-blinded", w / "x.blinded.att"],
        "countersign": ["--notary", w / "notary.state", "--plain", w / "a.plain.att",
                        "--blinded", w / "a.blinded.att", "--now", 10, "--out", w / "x.csa.att"],
        "verify": ["--csa", w / "a.csa.att", "--issuer-key", w / "coop.key",
                   "--notary-key", w / "notary.key", "--now", 50],
        "revoke": ["--coop", w / "coop.state", "--id", "00" * 32, "--now", 60],
        "status": ["--coop", w / "coop.state", "--id", "00" * 32, "--now", 60],
        "disclose": ["--notary", w / "notary.state", "--id", "00" * 32, "--jurisdiction", "US",
                     "--purpose", "travel-rule", "--now", 60],
        "simulate": ["--config", bundled_scenario_path("travel_rule_basic"), "--out", w / "x.log"],
        "validate": ["--config", bundled_scenario_path("travel_rule_basic")],
    }


@pytest.mark.parametrize("command, option", [
    ("keygen", "--out"), ("issue", "--coop"), ("issue", "--out-plain"),
    ("issue", "--out-blinded"), ("countersign", "--notary"), ("countersign", "--plain"),
    ("countersign", "--blinded"), ("countersign", "--out"), ("verify", "--csa"),
    ("verify", "--issuer-key"), ("verify", "--notary-key"), ("revoke", "--coop"),
    ("status", "--coop"), ("disclose", "--notary"), ("simulate", "--config"),
    ("simulate", "--out"), ("validate", "--config"),
])
def test_a_directory_path_exits_2_with_one_error_line(workdir, capsys, command, option):
    issue_and_countersign(workdir)
    write_keys(workdir)
    directory = workdir / "a-directory"
    directory.mkdir()
    args = file_commands(workdir)[command]
    assert option in args
    args[args.index(option) + 1] = directory
    before = {path: path.read_bytes() for path in workdir.iterdir() if path.is_file()}
    capsys.readouterr()
    assert run([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(directory) in err
    # A state file is written last, so no file that was there has changed,
    # and no output is left behind.
    assert {path: path.read_bytes() for path in before} == before
    assert set(workdir.iterdir()) == {*before, directory}
    assert list(directory.iterdir()) == []


def test_issue_keeps_an_existing_plain_output_when_the_blinded_one_fails(workdir, capsys):
    """The plain output is written first; a failed blinded write puts back
    the bytes and mode it replaced."""
    args = file_commands(workdir)["issue"]
    plain = args[args.index("--out-plain") + 1]
    plain.write_bytes(b"an earlier plain attestation")
    plain.chmod(0o640)
    directory = workdir / "a-directory"
    directory.mkdir()
    args[args.index("--out-blinded") + 1] = directory
    state = (workdir / "coop.state").read_bytes()
    assert run(["issue", *args]) == 2
    assert str(directory) in capsys.readouterr().err
    assert plain.read_bytes() == b"an earlier plain attestation"
    assert stat.S_IMODE(plain.stat().st_mode) == 0o640
    assert (workdir / "coop.state").read_bytes() == state
    assert sorted(p.name for p in workdir.iterdir()) == [
        "a-directory", "coop.state", "notary.state", "x.plain.att"]


@pytest.mark.parametrize("command, option", [
    ("issue", "--out-plain"), ("issue", "--out-blinded"), ("countersign", "--out"),
    ("simulate", "--out"),
])
def test_an_output_is_created_private_and_keeps_its_mode(workdir, command, option):
    """A plain attestation and a log's disclosed travel record hold legal
    identities: a new output is created 0600, and an existing one keeps its
    mode but gets the new bytes."""
    issue_and_countersign(workdir)
    args = file_commands(workdir)[command]
    path = args[args.index(option) + 1]
    umask = os.umask(0o022)
    try:
        assert run([command, *args]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        path.chmod(0o644)
        path.write_bytes(b"stale")
        assert run([command, *args]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert path.read_bytes().startswith(b'{"')
    assert not [p for p in workdir.iterdir() if p.name.startswith(".")]


# Python's limit on the decimal digits int() converts, or 0 where it has none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("data, error", [
    (b"[" * 100_000, f"nesting too deep at byte {MAX_DEPTH}"),
    pytest.param(b"[" + b"9" * (INT_DIGIT_LIMIT + 1) + b"]", "integer too long at byte 1",
                 marks=pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                          reason="this interpreter converts any number of digits")),
])
@pytest.mark.parametrize("command", [
    ["simulate", "--config", "{path}", "--out", "{out}"],
    ["status", "--coop", "{path}", "--id", "00" * 32, "--now", "1"],
])
def test_hostile_file_exits_2_without_a_traceback(tmp_path, command, data, error):
    path = tmp_path / "hostile"
    path.write_bytes(data)
    args = [arg.format(path=path, out=tmp_path / "x.log") for arg in command]
    result = subprocess.run([sys.executable, "-m", "coopattest.cli", *args],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == f"error: {error}\n"


def test_console_entry_point(tmp_path):
    """The module is runnable as a script."""
    result = subprocess.run(
        [sys.executable, "-m", "coopattest.cli", "keygen", "--seed", "aa",
         "--out", str(tmp_path / "k.key")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "key_id" in result.stdout
