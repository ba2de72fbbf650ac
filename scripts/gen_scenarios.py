#!/usr/bin/env python3
"""Regenerate the bundled scenario fixtures under src/coopattest/scenarios/.

Run from the repository root after changing a scenario definition:

    python scripts/gen_scenarios.py
"""

from pathlib import Path

from coopattest.canonical import canonical_serialize

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "coopattest" / "scenarios"

THRESHOLD = 1_000_000


def member(member_id, identity, handle=None, income=50_000):
    record = {
        "member_id": member_id,
        "legal_identity": identity,
        "personal_data": {
            "date-of-birth": -9000,
            "residence": "NL",
            "income": income,
            "standing": "good",
        },
    }
    if handle:
        record["handle"] = handle
    return record


def travel_base(beneficiary_jurisdiction="US"):
    return {
        "seed": b"travel-rule-scenarios",
        "tick_limit": 50,
        "cooperatives": [{
            "name": "coop1",
            "legal_rep": "notary1",
            "members": [member("alice", "alice-legal-0001")],
        }],
        "notaries": [{
            "name": "notary1",
            "jurisdiction": "US",
            "compatible": ["US", "EU"],
        }],
        "exchanges": [
            {"name": "E1", "jurisdiction": "US", "threshold": THRESHOLD},
            {"name": "E2", "jurisdiction": beneficiary_jurisdiction, "threshold": THRESHOLD},
        ],
        "providers": [],
    }


# Every rule a cooperative derives an attribute by.
ALL_QUERIES = ["age-over-18", "residence-country", "income-bracket",
               "membership-in-good-standing"]


def travel_script(amount, revoke_between=False, tamper_between=False,
                  queries=("age-over-18", "residence-country"), ttl=40,
                  beneficiary_account="acct-bob"):
    script = [
        {"at": 1, "action": "issue", "coop": "coop1", "member": "alice",
         "queries": list(queries), "mode": "absent",
         "ttl": ttl, "label": "att-alice"},
        {"at": 2, "action": "register", "exchange": "E1", "account": "acct-alice",
         "attestation": "att-alice"},
        {"at": 2, "action": "register", "exchange": "E2", "account": "acct-bob",
         "name": "bob-legal-0002"},
    ]
    if revoke_between:
        script.append({"at": 3, "action": "revoke", "coop": "coop1",
                       "attestation": "att-alice"})
    if tamper_between:
        script.append({"at": 4, "action": "tamper", "exchange": "E1",
                       "account": "acct-alice"})
    script.append({"at": 5, "action": "transfer", "origin": "E1",
                   "transfer_id": "t1", "originator_account": "acct-alice",
                   "beneficiary_account": beneficiary_account, "beneficiary_exchange": "E2",
                   "asset": "coin", "amount": amount})
    return script


def scenario_travel_rule_basic():
    config = travel_base()
    config["script"] = travel_script(amount=500)
    return config


def scenario_travel_rule_disclosure():
    config = travel_base()
    config["script"] = travel_script(amount=2_000_000)
    return config


def scenario_travel_rule_revoked():
    config = travel_base()
    config["script"] = travel_script(amount=500, revoke_between=True)
    return config


def scenario_travel_rule_tampered():
    config = travel_base()
    config["script"] = travel_script(amount=500, tamper_between=True)
    return config


def scenario_travel_rule_jurisdiction():
    config = travel_base(beneficiary_jurisdiction="XX")
    config["script"] = travel_script(amount=2_000_000)
    return config


def scenario_travel_rule_all_rules():
    config = travel_base()
    config["script"] = travel_script(amount=2_000_000, queries=ALL_QUERIES)
    return config


def scenario_travel_rule_expired():
    """A member in the top income band, whose attestation expires at tick 4,
    before the transfer at tick 5 is judged."""
    config = travel_base()
    config["cooperatives"][0]["members"] = [member("alice", "alice-legal-0001", income=150_000)]
    config["script"] = travel_script(amount=500, queries=["income-bracket"], ttl=3)
    return config


def scenario_travel_rule_unknown_beneficiary():
    """A transfer above the threshold to an account E2 never registered.  The
    account's text holds a quote, a backslash and a tab, so the scenario and
    its log carry escapes."""
    config = travel_base()
    config["script"] = travel_script(amount=2_000_000,
                                     beneficiary_account='acct-"ghost"\\\t')
    return config


def scenario_travel_rule_missing_residence():
    """A transfer above the threshold by a member whose attestation carries
    no residence-country, so no travel record could be assembled."""
    config = travel_base()
    config["script"] = travel_script(amount=2_000_000, queries=["age-over-18"])
    return config


def dsn_base(senders, followers=None):
    if followers is None:
        followers = {f"@s{i}": ["P2", "P3"] for i in range(senders)}
    return {
        "seed": b"dsn-scenarios",
        "tick_limit": 400,
        "cooperatives": [{
            "name": "coop1",
            "legal_rep": "notary1",
            "members": [
                member(f"m{i}", f"member-legal-{i:04d}-xq7", handle=f"@s{i}")
                for i in range(senders)
            ],
        }],
        "notaries": [{
            "name": "notary1",
            "jurisdiction": "US",
            "compatible": ["US", "EU"],
        }],
        "exchanges": [],
        "providers": [
            {"name": "P1", "jurisdiction": "US", "followers": followers},
            {"name": "P2", "jurisdiction": "US"},
            {"name": "P3", "jurisdiction": "US"},
        ],
    }


def dsn_onboard_script(senders, ttl=300):
    script = []
    for i in range(senders):
        script.append({"at": 1, "action": "issue", "coop": "coop1", "member": f"m{i}",
                       "queries": ["age-over-18"], "mode": "handle", "ttl": ttl,
                       "label": f"att-s{i}"})
    for i in range(senders):
        script.append({"at": 2, "action": "register", "provider": "P1",
                       "handle": f"@s{i}", "attestation": f"att-s{i}"})
    return script


def scenario_dsn_bot_flood():
    config = dsn_base(senders=10)
    script = dsn_onboard_script(10)
    for i in range(10):
        script.append({"at": 10, "action": "post", "provider": "P1",
                       "handle": f"@s{i}", "body": f"greetings number {i} from @s{i}"})
    for i in range(100):
        script.append({"at": 20, "action": "inject-bot-post", "provider": "P2",
                       "author": f"@bot{i}", "origin": "P1",
                       "body": f"synthetic engagement {i}"})
    config["script"] = script
    return config


def scenario_dsn_duplicate_digest():
    config = dsn_base(senders=1)
    script = dsn_onboard_script(1)
    script.append({"at": 10, "action": "post", "provider": "P1", "handle": "@s0",
                   "body": "the very same words"})
    script.append({"at": 12, "action": "inject-bot-post", "provider": "P3",
                   "author": "@imposter", "origin": "P1",
                   "body": "the very same words"})
    config["script"] = script
    return config


def scenario_dsn_recovery():
    config = dsn_base(senders=1)
    script = dsn_onboard_script(1, ttl=300)
    script.extend([
        {"at": 10, "action": "post", "provider": "P1", "handle": "@s0",
         "body": "written before the key was lost"},
        {"at": 20, "action": "issue", "coop": "coop1", "member": "m0",
         "queries": ["age-over-18"], "mode": "handle", "ttl": 300,
         "label": "att-s0-fresh"},
        {"at": 20, "action": "recover", "provider": "P1", "handle": "@s0",
         "attestation": "att-s0-fresh"},
        {"at": 25, "action": "inject-bot-post", "provider": "P2", "author": "@s0",
         "origin": "P1", "body": "written before the key was lost"},
        {"at": 30, "action": "post", "provider": "P1", "handle": "@s0",
         "body": "written with the recovered key"},
    ])
    config["script"] = script
    return config


def scenario_dsn_expired():
    """A post published at tick 10 by a sender whose attestation expired at tick 6."""
    config = dsn_base(senders=1)
    script = dsn_onboard_script(1, ttl=5)
    script.append({"at": 10, "action": "post", "provider": "P1", "handle": "@s0",
                   "body": "written after the attestation ran out"})
    config["script"] = script
    return config


def scenario_dsn_port():
    config = dsn_base(senders=1)
    script = dsn_onboard_script(1)
    script.extend([
        {"at": 5, "action": "port", "provider": "P3", "origin": "P1", "handle": "@s0"},
        {"at": 10, "action": "post", "provider": "P1", "handle": "@s0",
         "body": "resolved from the local copy"},
    ])
    config["script"] = script
    return config


SCENARIOS = {
    "travel_rule_basic": scenario_travel_rule_basic,
    "travel_rule_disclosure": scenario_travel_rule_disclosure,
    "travel_rule_revoked": scenario_travel_rule_revoked,
    "travel_rule_jurisdiction": scenario_travel_rule_jurisdiction,
    "travel_rule_tampered": scenario_travel_rule_tampered,
    "travel_rule_all_rules": scenario_travel_rule_all_rules,
    "travel_rule_expired": scenario_travel_rule_expired,
    "travel_rule_unknown_beneficiary": scenario_travel_rule_unknown_beneficiary,
    "travel_rule_missing_residence": scenario_travel_rule_missing_residence,
    "dsn_bot_flood": scenario_dsn_bot_flood,
    "dsn_duplicate_digest": scenario_dsn_duplicate_digest,
    "dsn_recovery": scenario_dsn_recovery,
    "dsn_port": scenario_dsn_port,
    "dsn_expired": scenario_dsn_expired,
}


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in SCENARIOS.items():
        path = OUT_DIR / f"{name}.scn"
        path.write_bytes(canonical_serialize(build()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
