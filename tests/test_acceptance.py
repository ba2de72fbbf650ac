"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in
captured output).  Expected values come from independent oracles: a
brute-force status checker, substring scans over serialized bytes, and
committed golden logs.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from coopattest import crypto
from coopattest.attestation import (
    AttributeClaim,
    CounterSignedAttestation,
    SubjectRef,
    attestation_from_bytes,
    blind,
    build_plain,
    canonical_bytes,
    countersign,
    verify_countersigned,
    verify_pair,
)
from coopattest.cooperative import (
    STATUS_REVOKED,
    STATUS_UNKNOWN,
    STATUS_VALID,
    Cooperative,
    MemberRecord,
)
from coopattest.errors import DecodeError
from coopattest.harness import (
    EventLog,
    Scenario,
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
)
from coopattest.ledger import AttestationRecord

from conftest import events_of, ledger_record_bytes, ledger_records

GOLDEN_DIR = Path(__file__).parent / "goldens"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}", flush=True)
        raise
    print(f"PASS  criterion {number}: {description}", flush=True)


def load(name):
    return ScenarioConfig.load(bundled_scenario_path(name))


# --- 1: blinding soundness ------------------------------------------------------

def test_criterion_1_blinding_soundness():
    with criterion(1, "blinding soundness over 1000 fixtures, 30x30 diagonal, <30s"):
        started = time.perf_counter()
        issuer = crypto.keygen(b"acceptance-issuer")
        rng = random.Random(0xB11D)
        attribute_pool = [
            ("age-over-18", ["true", "false"]),
            ("residence-country", ["NL", "US", "DE", "JP"]),
            ("income-bracket", ["low", "middle", "high"]),
            ("membership-in-good-standing", ["true", "false"]),
        ]
        fixtures = []
        for i in range(1000):
            identity = f"member-{i:05d}-{rng.getrandbits(64):016x}"
            assert len(identity) >= 8
            count = rng.randint(1, len(attribute_pool))
            claims = [
                AttributeClaim(name, rng.choice(values), f"pds-rule:{name}")
                for name, values in rng.sample(attribute_pool, count)
            ]
            nonce = rng.randbytes(32)
            plain = build_plain(SubjectRef.legal(identity), claims, issuer,
                                "notary-1", 10, 1000, nonce)
            mode = SubjectRef.absent() if rng.random() < 0.5 else SubjectRef.handle(f"@u{i}")
            blinded = blind(plain, mode, issuer)
            fixtures.append((identity, plain, blinded))

        for identity, plain, blinded in fixtures:
            assert identity.encode() not in canonical_bytes(blinded)

        head = fixtures[:30]
        for i, (_, plain, _) in enumerate(head):
            for j, (_, _, blinded) in enumerate(head):
                passed = verify_pair(plain, blinded, issuer.public_key).passed
                assert passed == (i == j), f"off-diagonal pass at ({i},{j})"

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# --- 2: tamper suite -------------------------------------------------------------

def test_criterion_2_tamper_suite():
    with criterion(2, "1000+ single-byte mutations, zero false accepts"):
        issuer = crypto.keygen(b"acceptance-issuer")
        notary = crypto.keygen(b"acceptance-notary")
        rng = random.Random(0x7A3B)
        targets = []
        for i in range(5):
            claims = [AttributeClaim("age-over-18", "true", "pds-rule:age-over-18"),
                      AttributeClaim("residence-country", "NL", "pds-rule:residence-country")]
            plain = build_plain(SubjectRef.legal(f"member-{i:05d}-acceptance"), claims,
                                issuer, "notary-1", 10, 1000, rng.randbytes(32))
            blinded = blind(plain, SubjectRef.handle(f"@member{i}"), issuer)
            targets.append(countersign(blinded, notary, "notary-1", 12))

        mutations = 0
        false_accepts = 0
        rejected_by_parse = 0
        rejected_by_verify = 0
        for csa in targets:
            data = canonical_bytes(csa)
            for _ in range(220):
                mutations += 1
                position = rng.randrange(len(data))
                replacement = rng.randrange(256)
                while replacement == data[position]:
                    replacement = rng.randrange(256)
                mutated = data[:position] + bytes([replacement]) + data[position + 1:]
                try:
                    parsed = attestation_from_bytes(mutated)
                except DecodeError:
                    rejected_by_parse += 1
                    continue
                if not isinstance(parsed, CounterSignedAttestation):
                    rejected_by_parse += 1
                    continue
                report = verify_countersigned(parsed, issuer.public_key,
                                              notary.public_key, 12)
                if report.passed:
                    false_accepts += 1
                else:
                    rejected_by_verify += 1

        assert mutations >= 1000
        assert false_accepts == 0, f"{false_accepts} false accepts"
        assert rejected_by_parse + rejected_by_verify == mutations


# --- 3: revocation/expiry lattice --------------------------------------------------

def status_oracle(issue_tick, ttl, revoke_tick, query_tick):
    """Independent brute-force status checker."""
    if revoke_tick is not None and revoke_tick <= query_tick:
        return "revoked"
    if query_tick >= issue_tick + ttl:
        return "expired"
    return "valid"


def test_criterion_3_revocation_expiry_lattice():
    with criterion(3, "exhaustive status lattice 0..20 matches brute-force oracle"):
        ttl = 7
        checked = 0
        for issue_tick in range(0, 21):
            for revoke_tick in [None, *range(0, 21)]:
                coop = Cooperative("latt", b"lattice", "notary-1")
                coop.register_member(MemberRecord(
                    "alice", "alice-legal-0001", {"date-of-birth": -9000}
                ))
                _, blinded = coop.issue_blinded(
                    "alice", ["age-over-18"], "absent", issue_tick, ttl
                )
                if revoke_tick is not None:
                    coop.revoke(blinded.attestation_id, revoke_tick)
                for query_tick in range(0, 21):
                    expected = status_oracle(issue_tick, ttl, revoke_tick, query_tick)
                    actual = coop.revalidation_status(blinded.attestation_id, query_tick)
                    assert actual == expected, (
                        f"issue={issue_tick} revoke={revoke_tick} query={query_tick}"
                    )
                    checked += 1
                assert coop.revalidation_status(crypto.digest(b"never"), 0) == STATUS_UNKNOWN
        assert checked == 21 * 22 * 21


# --- 4: travel rule end-to-end ------------------------------------------------------

def _decision(log):
    events = events_of(log, "transfer-decision")
    assert len(events) == 1
    return events[0].payload


def test_criterion_4_travel_rule_end_to_end():
    with criterion(4, "travel-rule golden scenarios: accept/disclose/reject/hold"):
        basic = run_scenario(load("travel_rule_basic"))
        decision = _decision(basic)
        assert decision["outcome"] == "accepted" and decision["reason"] == "below-threshold"
        # An unset optional is None in memory and left out of the log.
        assert decision["travel_record"] is None
        assert b"travel_record" not in basic.to_bytes()
        disclosure_kinds = [e for e in basic.events
                            if e.kind == "send"
                            and e.payload.get("channel") == "disclosure-request"]
        assert disclosure_kinds == []

        disclosed = _decision(run_scenario(load("travel_rule_disclosure")))
        assert disclosed["outcome"] == "accepted"
        record = vars(disclosed["travel_record"])
        assert record == {
            "originator_name": "alice-legal-0001",
            "originator_account": "acct-alice",
            "originator_address_or_id": "NL",
            "beneficiary_name": "bob-legal-0002",
            "beneficiary_account": "acct-bob",
        }
        assert all(record.values())

        revoked = _decision(run_scenario(load("travel_rule_revoked")))
        assert revoked == {"transfer_id": "t1", "outcome": "rejected", "reason": "revoked",
                           "travel_record": None}

        held = _decision(run_scenario(load("travel_rule_jurisdiction")))
        assert held["outcome"] == "held-pending-disclosure"
        assert held["reason"] == "denied-jurisdiction"

        for name in ("travel_rule_basic", "travel_rule_disclosure",
                     "travel_rule_revoked", "travel_rule_jurisdiction"):
            config = load(name)
            assert run_scenario(config).to_bytes() == run_scenario(config).to_bytes()


def test_a_tampered_attestation_is_rejected_before_any_notary_round_trip():
    scenario = Scenario(load("travel_rule_tampered"))
    log = scenario.run()
    kinds = [e.kind for e in log.events]
    assert kinds.index("tampered") < kinds.index("transfer-decision")
    assert _decision(log) == {"transfer_id": "t1", "outcome": "rejected",
                              "reason": "verification-failed", "travel_record": None}
    # The origin exchange hands over what its storage now holds: neither the
    # issuer's nor the notary's signature covers it, so the beneficiary asks
    # the notary nothing.
    delivered = [e.payload["body"]["attestation"] for e in events_of(log, "send")
                 if e.payload["channel"] == "attestation-delivery"]
    assert len(delivered) == 1 and delivered[0] != scenario.artifacts["att-alice"]
    report = verify_countersigned(delivered[0], scenario.coops["coop1"].public_key,
                                  scenario.notaries["notary1"].public_key, 5)
    assert report.failing() == ["issuer_signature", "notary_signature", "blinded_id"]
    assert {e.payload["channel"] for e in events_of(log, "send")}.isdisjoint(
        {"revalidation", "disclosure-request"})


# --- 5: DSN end-to-end ----------------------------------------------------------------

def _identity_free_lines(scenario, log, identities):
    """Every event, cooperative/notary traffic included, and every ledger
    record must be free of member legal identities."""
    for event in log.events:
        line = EventLog([event]).to_bytes()
        for identity in identities:
            assert identity.encode() not in line, f"{identity} leaked in {event.kind}"
    for provider in scenario.providers.values():
        for record in ledger_records(provider.ledger):
            line = ledger_record_bytes(record)
            for identity in identities:
                assert identity.encode() not in line, f"{identity} leaked on ledger"


def test_criterion_5_dsn_end_to_end():
    with criterion(5, "bot flood: 100% bot drop, 100% attested delivery, no identity bytes"):
        config = load("dsn_bot_flood")
        scenario = Scenario(config)
        log = scenario.run()
        decisions = [e.payload for e in events_of(log, "filter-decision")]
        bots = [d for d in decisions if d["author_handle"].startswith("@bot")]
        attested = [d for d in decisions if not d["author_handle"].startswith("@bot")]
        assert len(bots) == 100
        assert all(d["outcome"] == "drop" and d["reason"] == "no-ledger-match" for d in bots)
        assert len(attested) == 20  # 10 senders x 2 follower providers
        assert all(d["outcome"] == "deliver" and d["reason"] == "attested" for d in attested)

        identities = [m["legal_identity"]
                      for m in config.cooperatives[0]["members"]]
        assert len(identities) == 10 and all(len(i) >= 8 for i in identities)
        _identity_free_lines(scenario, log, identities)


# --- 6: duplicate-digest disambiguation ---------------------------------------------

def test_criterion_6_duplicate_digest():
    with criterion(6, "identical body: attested delivery unaffected, imposter origin-mismatch"):
        log = run_scenario(load("dsn_duplicate_digest"))
        decisions = [e.payload for e in events_of(log, "filter-decision")]
        imposter = [d for d in decisions if d["author_handle"] == "@imposter"]
        genuine = [d for d in decisions if d["author_handle"] == "@s0"]
        assert imposter == [{
            "author_handle": "@imposter", "origin_provider": "P1",
            "post_digest": imposter[0]["post_digest"],
            "outcome": "drop", "reason": "origin-mismatch",
        }]
        assert len(genuine) == 2  # P2 and P3
        assert all(d["outcome"] == "deliver" and d["reason"] == "attested" for d in genuine)
        # Same body, same digest: disambiguation worked purely via the
        # attestation pointer behind each ledger match.
        assert imposter[0]["post_digest"] == genuine[0]["post_digest"]


# --- 7: recovery flow -------------------------------------------------------------------

def test_criterion_7_recovery_flow():
    with criterion(7, "recovery: old posts drop revoked, new deliver, append-only ledger"):
        scenario = Scenario(load("dsn_recovery"))
        log = scenario.run()
        decisions = [e.payload for e in events_of(log, "filter-decision")]
        old_replays = [d for d in decisions
                       if d["outcome"] == "drop" and d["reason"] == "attestation-revoked"]
        assert len(old_replays) == 1
        deliveries = [d for d in decisions if d["outcome"] == "deliver"]
        assert len(deliveries) == 4  # pre-recovery post x2 + post-recovery post x2

        p1 = scenario.providers["P1"]
        attestation_records = [r for r in ledger_records(p1.ledger)
                               if isinstance(r.payload, AttestationRecord)]
        assert len(attestation_records) == 2  # old and fresh, both retained
        old_id = attestation_records[0].payload.csa.blinded.attestation_id
        new_id = attestation_records[1].payload.csa.blinded.attestation_id
        coop = scenario.coops["coop1"]
        assert coop.revalidation_status(old_id, 40) == STATUS_REVOKED
        assert coop.revalidation_status(new_id, 40) == STATUS_VALID


# --- 8: determinism ------------------------------------------------------------------------

def test_criterion_8_determinism():
    with criterion(8, "byte-identical replays and verified chains for every bundled scenario"):
        for name in bundled_scenario_names():
            config = load(name)
            first = run_scenario(config)
            second = run_scenario(config)
            assert first.to_bytes() == second.to_bytes(), name
            golden = (GOLDEN_DIR / f"{name}.log").read_bytes()
            assert first.to_bytes() == golden, f"{name} diverged from committed golden"
            chains = events_of(first, "chain-verified")
            assert all(e.payload["ok"] for e in chains), name
