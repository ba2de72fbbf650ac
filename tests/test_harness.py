"""Scenario validation, execution, determinism, and golden-log regression."""

import copy
import dataclasses
import functools
import gc
import importlib.util
import os
import re
import tempfile
import traceback
import tracemalloc
import types
import typing
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from coopattest import cli
from coopattest.attestation import (
    BlindedAttestation,
    CounterSignedAttestation,
    PlainAttestation,
)
from coopattest.canonical import canonical_parse, canonical_serialize
from coopattest.errors import (
    ConfigInvalid,
    DecodeError,
    ScriptActionFailed,
    UnsupportedValue,
)
from coopattest.harness import (
    CHANNELS,
    KINDS,
    SCHEMA,
    Event,
    EventLog,
    Scenario,
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
    validate_config,
)
from coopattest.cooperative import QUERIES
from coopattest.travel_rule import TravelRuleRecord

from conftest import (
    benchmark_workloads,
    events_of,
    mutated,
    reference_log_bytes,
    tiny_benchmark_workload,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
README = Path(__file__).parent.parent / "README.md"
GEN_SCENARIOS = Path(__file__).parent.parent / "scripts" / "gen_scenarios.py"

TRANSFER = {"at": 3, "action": "transfer", "origin": "E1", "beneficiary_exchange": "E2",
            "transfer_id": "t1", "originator_account": "acct-a",
            "beneficiary_account": "acct-b", "asset": "BTC", "amount": 5}


class Text(str):
    pass


class Texts(list):
    pass


class Bytes(bytes):
    pass


def minimal_config(**overrides):
    raw = {
        "seed": b"harness-test",
        "tick_limit": 20,
        "cooperatives": [{
            "name": "coop1", "legal_rep": "notary1",
            "members": [{
                "member_id": "alice", "legal_identity": "alice-legal-0001",
                "personal_data": {"date-of-birth": -9000, "residence": "NL"},
                "handle": "@alice",
            }],
        }],
        "notaries": [{"name": "notary1", "jurisdiction": "US", "compatible": ["US"]}],
        "exchanges": [
            {"name": "E1", "jurisdiction": "US", "threshold": 1000},
            {"name": "E2", "jurisdiction": "US", "threshold": 1000},
        ],
        "providers": [],
        "script": [
            {"at": 1, "action": "issue", "coop": "coop1", "member": "alice",
             "queries": ["age-over-18", "residence-country"], "mode": "absent",
             "ttl": 15, "label": "a1"},
            {"at": 2, "action": "register", "exchange": "E1", "account": "acct-a",
             "attestation": "a1"},
        ],
    }
    raw.update(overrides)
    return ScenarioConfig.from_map(raw)


def config_map(config):
    """The map of *config*, each entry copied."""
    sections = ("notaries", "cooperatives", "exchanges", "providers", "script")
    return {"seed": config.seed, "tick_limit": config.tick_limit,
            **{key: [dict(entry) for entry in getattr(config, key)] for key in sections}}


def minimal_plus(*actions, **overrides):
    """minimal_config() with *actions* appended to its script."""
    script = config_map(minimal_config())["script"] + [dict(a) for a in actions]
    return minimal_config(script=script, **overrides)


class TestValidateConfig:
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_fixtures_clean(self, name):
        config = ScenarioConfig.load(bundled_scenario_path(name))
        assert validate_config(config) == []

    def test_minimal_clean(self):
        assert validate_config(minimal_config()) == []

    def test_unknown_member_named_with_path(self):
        config = minimal_config()
        config.script[0]["member"] = "bob"
        problems = validate_config(config)
        assert len(problems) == 1
        assert problems[0].startswith("script[0].member")

    def test_decreasing_ticks(self):
        config = minimal_config()
        config.script[1]["at"] = 0
        problems = validate_config(config)
        assert any("non-decreasing" in p for p in problems)

    def test_tick_beyond_limit(self):
        config = minimal_config(tick_limit=1)
        problems = validate_config(config)
        assert any("exceeds tick_limit" in p for p in problems)

    def test_empty_seed(self):
        config = minimal_config(seed=b"")
        assert any(p.startswith("seed") for p in validate_config(config))

    def test_unknown_action(self):
        config = minimal_config()
        config.script[0]["action"] = "teleport"
        assert any("unknown action" in p for p in validate_config(config))

    def test_a_rule_the_cooperative_cannot_derive_is_a_problem(self):
        config = config_map(minimal_config())
        config["cooperatives"][0]["queries"] = ["no-such-rule"]
        config["script"][0]["queries"] = ["no-such-rule"]
        problems = validate_config(minimal_config(**config))
        assert problems == ["cooperatives[0].queries: unknown field",
                            "script[0].queries: must be a non-empty list of rule names"]
        with pytest.raises(ConfigInvalid):
            run_scenario(minimal_config(**config))

    def test_label_used_before_issue(self):
        config = minimal_config()
        config.script[1]["attestation"] = "ghost"
        assert any("not issued earlier" in p for p in validate_config(config))

    def test_duplicate_label(self):
        config = minimal_config()
        config.script[0]["label"] = "a1"
        dup = dict(config.script[0])
        object.__setattr__(config, "script", config.script + (dup,))
        problems = validate_config(config)
        assert any("duplicate label" in p for p in problems)

    def test_handle_mode_without_handle(self):
        config = minimal_config()
        config.cooperatives[0]["members"][0].pop("handle")
        config.script[0]["mode"] = "handle"
        assert any("has no handle" in p for p in validate_config(config))

    def test_unknown_legal_rep(self):
        config = minimal_config()
        config.cooperatives[0]["legal_rep"] = "nobody"
        assert any("unknown notary" in p for p in validate_config(config))

    def test_follower_names_checked(self):
        config = minimal_config(providers=[
            {"name": "P1", "jurisdiction": "US", "followers": {"@alice": ["P9"]}},
        ])
        assert any("unknown provider 'P9'" in p for p in validate_config(config))

    @pytest.mark.parametrize("path, problem", [
        (("tick_limit",), "tick_limit: must be a non-negative integer"),
        (("script", 0, "at"), "script[0].at: must be a non-negative integer"),
        (("script", 0, "ttl"), "script[0].ttl: must be a positive integer"),
        (("script", 2, "amount"), "script[2].amount: must be a positive integer"),
        (("exchanges", 0, "threshold"), "exchanges[0].threshold: must be a positive integer"),
    ])
    def test_integer_field_rejects_bool(self, path, problem):
        raw = config_map(minimal_plus(TRANSFER))
        assert validate_config(ScenarioConfig.from_map(raw)) == []
        mutate(raw, path, True)
        assert problem in validate_config(ScenarioConfig.from_map(raw))

    @pytest.mark.parametrize("path, problem", [
        (("notaries", 0, "compatibles"), "notaries[0].compatibles: unknown field"),
        (("cooperatives", 0, "legal_representative"),
         "cooperatives[0].legal_representative: unknown field"),
        (("cooperatives", 0, "members", 0, "nickname"),
         "cooperatives[0].members[0].nickname: unknown field"),
        (("exchanges", 1, "threshhold"), "exchanges[1].threshhold: unknown field"),
        (("providers", 0, "prefer_local_prot"), "providers[0].prefer_local_prot: unknown field"),
        (("script", 0, "tll"), "script[0].tll: unknown field"),
        (("script", 2, "memo"), "script[2].memo: unknown field"),
    ])
    def test_undeclared_key_is_a_problem(self, path, problem):
        raw = config_map(minimal_plus(TRANSFER, providers=[{"name": "P1", "jurisdiction": "US"}]))
        assert validate_config(ScenarioConfig.from_map(raw)) == []
        mutate(raw, path, True)
        config = ScenarioConfig.from_map(raw)
        assert validate_config(config) == [problem]
        with pytest.raises(ConfigInvalid):
            run_scenario(config)

    @pytest.mark.parametrize("key", ["scripts", "notary", "tick-limit"])
    def test_undeclared_top_level_key_is_a_decode_error(self, key):
        raw = config_map(minimal_config())
        raw[key] = []
        with pytest.raises(DecodeError, match=f"scenario config has unknown field '{key}'"):
            ScenarioConfig.from_map(raw)

    @pytest.mark.parametrize("section", ["notaries", "cooperatives", "exchanges", "script"])
    def test_non_map_entry_is_a_problem(self, section):
        raw = config_map(minimal_config())
        raw[section][0] = 7
        assert f"{section}[0]: must be a map" in validate_config(ScenarioConfig.from_map(raw))

    @pytest.mark.parametrize("section", ["cooperatives", "script"])
    @pytest.mark.parametrize("value", [7, {"a": 1}, "text"])
    def test_non_list_section_is_a_decode_error(self, section, value):
        raw = config_map(minimal_config())
        raw[section] = value
        with pytest.raises(DecodeError, match=section):
            ScenarioConfig.from_map(raw)

    def test_personal_data_required(self):
        config = minimal_config()
        config.cooperatives[0]["members"][0].pop("personal_data")
        assert validate_config(config) == [
            "cooperatives[0].members[0].personal_data: must be a map"]

    @pytest.mark.parametrize("path, value, problem", [
        (("script", 3, "body"), "x\ud800",
         "script[3].body: must be bytes or text that UTF-8 can encode"),
        (("cooperatives", 0, "members", 0, "legal_identity"), "a\ud800",
         "cooperatives[0].members[0].legal_identity: must be a string that UTF-8 can encode"),
        (("cooperatives", 0, "members", 0, "personal_data", "residence"), "N\ud800",
         "cooperatives[0].members[0].personal_data: must be a map whose text values UTF-8 "
         "can encode"),
        (("cooperatives", 0, "members", 0, "handle"), "@\ud800",
         "cooperatives[0].members[0].handle: must be a handle that UTF-8 can encode"),
    ], ids=["body", "legal_identity", "personal_data", "handle"])
    def test_text_that_utf8_cannot_encode_is_a_problem(self, path, value, problem):
        config = ScenarioConfig.from_map(probe(path, value, "dsn_port"))
        assert validate_config(config) == [problem]
        with pytest.raises(ConfigInvalid):
            run_scenario(config)

    @pytest.mark.parametrize("path, value, problem", [
        (("script", 0, "mode"), Text("handle"), "script[0].mode: must be 'absent' or 'handle'"),
        (("script", 0, "queries"), Texts(["age-over-18"]),
         "script[0].queries: must be a non-empty list of rule names"),
        (("script", 0, "queries"), [Text("age-over-18")],
         "script[0].queries: must be a non-empty list of rule names"),
        (("script", 3, "body"), Bytes(b"resolved"),
         "script[3].body: must be non-empty text or bytes"),
    ], ids=["mode", "queries", "query", "body"])
    def test_a_subclass_of_the_written_type_is_a_problem(self, path, value, problem):
        """The log writer takes a value of exactly its declared type, and so
        does the validator."""
        config = ScenarioConfig.from_map(probe(path, value, "dsn_port"))
        assert validate_config(config) == [problem]
        with pytest.raises(ConfigInvalid):
            run_scenario(config)

    def test_provider_forwarding_to_itself(self):
        config = minimal_config(providers=[
            {"name": "P1", "jurisdiction": "US", "followers": {"@alice": ["P2", "P1"]}},
            {"name": "P2", "jurisdiction": "US"},
        ])
        assert validate_config(config) == [
            "providers[0].followers: a provider cannot forward to itself"]

    def test_transfer_to_its_own_exchange(self):
        config = minimal_plus(dict(TRANSFER, beneficiary_exchange="E1"))
        assert validate_config(config) == [
            "script[2].beneficiary_exchange: transfer from an exchange to itself"]

    @pytest.mark.parametrize("register, missing", [
        ({"exchange": "E1", "account": "x"}, "attestation"),
        ({"exchange": "E1", "name": "Bob"}, "account"),
        ({"provider": "P1", "attestation": "a1"}, "handle"),
        ({"exchange": "E1", "provider": "P1", "account": "x", "attestation": "a1"}, None),
    ])
    def test_register_needs_its_target_fields(self, register, missing):
        config = minimal_plus({"at": 3, "action": "register", **register},
                              providers=[{"name": "P1", "jurisdiction": "US"}])
        expected = (f"script[2].{missing}: must be a non-empty string" if missing else
                    "script[2]: register needs exactly one of 'exchange' or 'provider'")
        assert validate_config(config) == [expected]

    @pytest.mark.parametrize("register, unread", [
        ({"provider": "P1", "handle": "@alice", "attestation": "a1", "account": "x"}, "account"),
        ({"provider": "P1", "handle": "@alice", "attestation": "a1", "name": "Bob"}, "name"),
        ({"exchange": "E1", "account": "x", "name": "Bob", "attestation": "a1"}, "attestation"),
        ({"exchange": "E1", "account": "x", "name": "Bob", "handle": "@alice"}, "handle"),
        ({"exchange": "E1", "account": "x", "attestation": "a1", "handle": "@alice"}, "handle"),
    ], ids=["onboarding-account", "onboarding-name", "beneficiary-attestation",
            "beneficiary-handle", "customer-handle"])
    def test_register_names_each_key_its_form_does_not_read(self, register, unread):
        """A key the chosen form ignores would still be logged on the
        action line, so the validator refuses it by name."""
        config = minimal_plus({"at": 3, "action": "register", **register},
                              providers=[{"name": "P1", "jurisdiction": "US"}])
        form = ", ".join(key for key in register if key != unread)
        assert validate_config(config) == [
            f"script[2].{unread}: not read by a register of {form}"]
        with pytest.raises(ConfigInvalid):
            run_scenario(config)


class TestSchemaReference:
    """The README's scenario reference names exactly the table's entries and
    fields, split the same way into required and optional."""

    @staticmethod
    def readme_rows() -> dict:
        text = README.read_text(encoding="utf-8")
        section = text.split("### Scenario reference", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            names = [re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", c)) for c in cells]
            rows[names[0][0]] = (set(names[1]), set(names[2]))
        return rows

    def test_readme_matches_table(self):
        entries = {**{k: v for k, v in SCHEMA.items() if k != "script"}, **SCHEMA["script"]}
        expected = {
            name: ({k for k, f in fields.items() if f.required},
                   {k for k, f in fields.items() if not f.required})
            for name, fields in entries.items()
        }
        assert self.readme_rows() == expected


# Optional fields that no bundled scenario and no benchmark workload sets to
# a value other than its default, each with the reason it stays optional.
UNVARIED_OPTIONS: dict[str, str] = {}
# Each actor section, "members" and each action, with its fields.
SCHEMA_ENTRIES = {**{k: v for k, v in SCHEMA.items() if k != "script"}, **SCHEMA["script"]}


def set_options(config):
    """``entry.key`` of each optional field that *config* sets to a value
    other than the field's default, a list counting as the tuple it is read as."""
    def plain(value):
        return tuple(value) if isinstance(value, list) else value

    found = set()
    entries = [(section, entry) for section in ("notaries", "cooperatives", "exchanges",
                                                "providers") for entry in getattr(config, section)]
    entries += [("members", m) for coop in config.cooperatives for m in coop.get("members", ())]
    entries += [(action["action"], action) for action in config.script]
    for name, entry in entries:
        found.update(f"{name}.{key}" for key, f in SCHEMA_ENTRIES[name].items()
                     if not f.required and key in entry and plain(entry[key]) != plain(f.default))
    return found


class TestOptionsAreVaried:
    """An optional field that nothing sets to another value than its default
    is a constant: some bundled scenario or benchmark workload, at its
    smoke-test size, must vary each one, or UNVARIED_OPTIONS says why not."""

    def test_every_optional_field_is_varied_or_declared(self):
        optional = {f"{name}.{key}" for name, fields in SCHEMA_ENTRIES.items()
                    for key, f in fields.items() if not f.required}
        configs = [ScenarioConfig.load(bundled_scenario_path(name))
                   for name in bundled_scenario_names()]
        configs += [tiny_benchmark_workload(name) for name in benchmark_workloads().TINY_SHAPES]
        unvaried = optional.difference(*map(set_options, configs))
        assert sorted(unvaried - UNVARIED_OPTIONS.keys()) == []   # declare it, or vary it
        assert sorted(UNVARIED_OPTIONS.keys() - unvaried) == []   # a stale declaration


class TestEventReference:
    """The README's tables of event payloads and message bodies list exactly
    the keys KINDS and CHANNELS declare, in order, with their types."""

    TYPES = {str: "text", int: "integer", bool: "boolean", bytes: "bytes", dict: "map",
             BlindedAttestation: "blinded",
             CounterSignedAttestation: "countersigned",
             TravelRuleRecord | None: "travel record (optional, written when set)"}

    def declared_rows(self, heading, table) -> list:
        rows = []
        for name, layout in table.items():
            if layout is dict:   # a plain map, which the README describes in words
                continue
            hints = typing.get_type_hints(layout)
            rows += [(heading, name, f.metadata.get("key", f.name), self.TYPES[hints[f.name]])
                     for f in dataclasses.fields(layout)]
        return rows

    @staticmethod
    def readme_rows() -> list:
        text = README.read_text(encoding="utf-8")
        section = text.split("### Event log", 1)[1].split("\n### ", 1)[0]
        rows, heading = [], None
        for line in section.splitlines():
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or cells[0].startswith("-"):
                continue
            if cells[1:] == ["key", "type"]:
                heading = cells[0]
            else:
                rows.append((heading, *cells))
        return rows

    def test_readme_matches_declarations(self):
        assert [kind for kind, layout in KINDS.items() if layout is dict] == ["action"]
        assert self.readme_rows() == (self.declared_rows("kind", KINDS)
                                      + self.declared_rows("channel", CHANNELS))


class TestRunScenario:
    def test_invalid_config_raises(self):
        config = minimal_config(seed=b"")
        with pytest.raises(ConfigInvalid) as excinfo:
            run_scenario(config)
        assert excinfo.value.problems

    def test_runtime_failure_carries_tick_and_action(self):
        config = minimal_config()
        dup = dict(config.script[1])
        dup["at"] = 3
        object.__setattr__(config, "script", config.script + (dup,))
        assert validate_config(config) == []  # statically fine, fails at runtime
        with pytest.raises(ScriptActionFailed) as excinfo:
            run_scenario(config)
        assert excinfo.value.tick == 3
        assert excinfo.value.action["action"] == "register"

    @pytest.mark.parametrize("amount", [2_000_000, 5], ids=["above-threshold", "below-threshold"])
    def test_an_unknown_beneficiary_is_found_before_the_notary_is_asked(self, amount):
        raw = canonical_parse(bundled_scenario_path("travel_rule_disclosure").read_bytes())
        mutate(raw, ("script", 3, "beneficiary_account"), "nobody")
        mutate(raw, ("script", 3, "amount"), amount)
        scenario = Scenario(ScenarioConfig.from_map(raw))
        scenario.run()
        assert [(e.payload["outcome"], e.payload["reason"])
                for e in events_of(scenario.log, "transfer-decision")] == [
            ("rejected", "unknown-beneficiary")]
        assert [e for e in events_of(scenario.log, "send")
                if e.payload["to"] in scenario.notaries and e.tick >= 5] == []
        assert all(notary.audit_log == [] for notary in scenario.notaries.values())

    def test_a_transfer_whose_attestation_holds_no_residence_asks_for_no_identity(self):
        """Above the threshold, an attestation with no residence claim cannot
        fill a travel record: the transfer is rejected, and the notary is
        never asked to disclose."""
        raw = config_map(minimal_config())
        raw["script"][0]["queries"] = ["age-over-18"]
        raw["script"] += [{"at": 2, "action": "register", "exchange": "E2",
                           "account": "acct-b", "name": "bob-legal-0002"},
                          {**TRANSFER, "amount": 1000}]
        config = ScenarioConfig.from_map(raw)
        assert validate_config(config) == []
        scenario = Scenario(config)
        log = scenario.run()
        assert [(e.payload["outcome"], e.payload["reason"])
                for e in events_of(log, "transfer-decision")] == [("rejected", "missing-residence")]
        assert [e for e in events_of(log, "send")
                if e.payload["channel"] in ("disclosure-request", "disclosure-response")] == []
        assert scenario.notaries["notary1"].audit_log == []

    @pytest.mark.parametrize("name", [*bundled_scenario_names(), "travel_churn"])
    def test_each_transfer_is_judged_on_the_one_attestation_delivered_for_it(self, name):
        """In every golden log and the travel benchmark workload, each
        transfer has exactly one attestation-delivery before its decision,
        and the revalidation and disclosure-request its beneficiary sends
        name that delivered attestation's blinded id."""
        if name in bundled_scenario_names():
            log = EventLog.from_bytes((GOLDEN_DIR / f"{name}.log").read_bytes())
        else:
            log = run_scenario(tiny_benchmark_workload(name))
        transfer = beneficiary = delivered = None
        judged = 0
        for event in log.events:
            if event.kind == "transfer-decision":
                assert (event.actor, event.payload["transfer_id"]) == (beneficiary, transfer)
                assert delivered is not None
                transfer, judged = None, judged + 1
            if event.kind != "send":
                continue
            channel, body = event.payload["channel"], event.payload["body"]
            if channel == "transfer":
                assert transfer is None
                transfer, beneficiary, delivered = body["transfer_id"], event.payload["to"], None
            elif channel == "attestation-delivery":
                assert (body["transfer_id"], delivered) == (transfer, None)
                delivered = body["attestation"].blinded.attestation_id
            elif channel in ("revalidation", "disclosure-request") and transfer is not None:
                assert (event.actor, body["attestation_id"]) == (beneficiary, delivered)
        assert transfer is None
        assert judged == len([e for e in events_of(log, "action")
                              if e.payload["action"] == "transfer"])

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_replay_is_byte_identical(self, name):
        config = ScenarioConfig.load(bundled_scenario_path(name))
        assert run_scenario(config).to_bytes() == run_scenario(config).to_bytes()

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_matches_committed_golden(self, name):
        config = ScenarioConfig.load(bundled_scenario_path(name))
        golden = (GOLDEN_DIR / f"{name}.log").read_bytes()
        assert run_scenario(config).to_bytes() == golden

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_chains_verify_at_end(self, name):
        config = ScenarioConfig.load(bundled_scenario_path(name))
        log = run_scenario(config)
        assert all(e.payload["ok"] for e in events_of(log, "chain-verified"))

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_message_log_completeness(self, name):
        """Every cross-actor message is exactly one send, to an actor of
        the scenario."""
        scenario = Scenario(ScenarioConfig.load(bundled_scenario_path(name)))
        log = scenario.run()
        actors = {*scenario.coops, *scenario.notaries, *scenario.exchanges, *scenario.providers}
        sends = events_of(log, "send")
        assert sends and not events_of(log, "deliver")
        assert all(e.payload["to"] in actors for e in sends)
        assert all(set(e.payload) == {"to", "channel", "body"} for e in sends)

    def test_basic_scenario_ends_with_accepted_decision(self):
        config = ScenarioConfig.load(bundled_scenario_path("travel_rule_basic"))
        log = run_scenario(config)
        assert log.events[-1].kind == "transfer-decision"
        assert log.events[-1].payload["outcome"] == "accepted"

    def test_a_notary_representing_two_cooperatives_asks_the_issuing_one(self):
        """One notary represents two cooperatives and witnesses for both.
        A revalidation reaches the cooperative that issued the attestation,
        the second one included: its revocation rejects a transfer, while
        the first one's attestation stays valid."""
        raw = config_map(minimal_config())
        raw["cooperatives"].append({"name": "coop2", "legal_rep": "notary1", "members": [{
            "member_id": "bob", "legal_identity": "bob-legal-0002",
            "personal_data": {"date-of-birth": -9000, "residence": "NL"}}]})
        transfer = {"action": "transfer", "origin": "E1", "beneficiary_exchange": "E2",
                    "beneficiary_account": "acct-z", "asset": "coin", "amount": 10}
        raw["script"] += [
            {"at": 2, "action": "issue", "coop": "coop2", "member": "bob",
             "queries": ["age-over-18"], "mode": "absent", "ttl": 15, "label": "b1"},
            {"at": 2, "action": "register", "exchange": "E1", "account": "acct-b",
             "attestation": "b1"},
            {"at": 2, "action": "register", "exchange": "E2", "account": "acct-z",
             "name": "zed-legal-0003"},
            {"at": 3, "action": "revoke", "coop": "coop2", "attestation": "b1"},
            {"at": 4, **transfer, "transfer_id": "t-a", "originator_account": "acct-a"},
            {"at": 4, **transfer, "transfer_id": "t-b", "originator_account": "acct-b"},
        ]
        scenario = Scenario(ScenarioConfig.from_map(raw))
        log = scenario.run()
        assert list(scenario.notaries["notary1"].issuers) == [
            scenario.coops["coop1"].public_key, scenario.coops["coop2"].public_key]
        decisions = {e.payload["transfer_id"]: (e.payload["outcome"], e.payload["reason"])
                     for e in events_of(log, "transfer-decision")}
        assert decisions == {"t-a": ("accepted", "below-threshold"), "t-b": ("rejected", "revoked")}

    def test_bot_flood_counts(self):
        config = ScenarioConfig.load(bundled_scenario_path("dsn_bot_flood"))
        log = run_scenario(config)
        drops = [e for e in events_of(log, "filter-decision")
                 if e.payload["outcome"] == "drop"]
        assert len(drops) == 100
        assert all(e.payload["reason"] == "no-ledger-match" for e in drops)

    def test_port_scenario_reads_nothing_remote_while_filtering(self):
        config = ScenarioConfig.load(bundled_scenario_path("dsn_port"))
        log = run_scenario(config)
        port_events = [i for i, e in enumerate(log.events) if e.kind == "ported"]
        assert port_events, "scenario must exercise porting"
        after_port = log.events[port_events[-1] + 1:]
        p3_reads = [e for e in after_port
                    if e.kind == "ledger-read" and e.actor == "P3"
                    and e.payload["ledger"] == "P1"]
        assert p3_reads == []


def mutate(raw, path, value):
    """Set the value at *path* in a config map; None drops it instead."""
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value


def children(node):
    """(key, child) pairs of a map or list; none for a scalar."""
    if isinstance(node, dict):
        return node.items()
    if isinstance(node, list):
        return enumerate(node)
    return ()


def positions(node, prefix=()):
    """Every path into a config map: its fields and list entries, nested."""
    for key, child in children(node):
        yield prefix + (key,)
        yield from positions(child, prefix + (key,))


def texts(node):
    """Every text value in a config map, so mutations can reuse real names."""
    if isinstance(node, str):
        yield node
    for _, child in children(node):
        yield from texts(child)


BASES = {"minimal": canonical_serialize(config_map(minimal_config()))}
BASES.update((name, bundled_scenario_path(name).read_bytes()) for name in bundled_scenario_names())

OTHER_VALUES = st.one_of(
    st.integers(-2, 3), st.booleans(), st.text(max_size=3), st.binary(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """A bundled or minimal config with one or two fields dropped or
    replaced by a value of any kind, a whole entry included.  Names and
    small integers taken from the config keep many mutants valid, so the
    run is reached too."""
    raw = canonical_parse(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(positions(raw))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        names = st.sampled_from(sorted(set(texts(raw))) or [""])
        mutate(raw, path, draw(st.none() | names | st.integers(0, 3) | OTHER_VALUES))
    return raw


def probe(path, value, base="minimal"):
    raw = canonical_parse(BASES[base])
    mutate(raw, path, value)
    return raw


class TestValidateRunContract:
    """A config that validates clean never fails to run because of its
    shape, and the run's scenario and actors are freed as soon as the last
    reference to them goes, the run ended by a failed action included.  The
    CLI answers every config with an exit code."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=mutated_configs())
    @example(raw=probe(("notaries", 0), 5))
    @example(raw=probe(("cooperatives", 0), "coop1"))
    @example(raw=probe(("exchanges", 0), ["E1"]))
    @example(raw=probe(("script",), 3))
    @example(raw=probe(("cooperatives",), {"name": "coop1"}))
    @example(raw=probe(("cooperatives", 0, "members", 0, "personal_data"), None))
    @example(raw=probe(("script", 0, "ttl"), True))
    @example(raw=probe(("providers", 0, "followers", "@s0", 0), "P1", "dsn_bot_flood"))
    @example(raw=probe(("script", 3, "beneficiary_exchange"), "E1", "travel_rule_basic"))
    @example(raw=probe(("cooperatives", 0, "members", 0, "personal_data", "residence"), "",
                       "travel_rule_disclosure"))
    def test_contract(self, raw):
        try:
            config = ScenarioConfig.from_map(copy.deepcopy(raw))
            problems = validate_config(config)
        except DecodeError:
            problems = None
        if problems == []:
            scenario = Scenario(config)
            refs = [weakref.ref(obj) for obj in (
                scenario, scenario.adversary, *scenario.notaries.values(),
                *scenario.coops.values(), *scenario.exchanges.values(),
                *scenario.providers.values())]
            try:
                scenario.run().to_bytes()
            except ScriptActionFailed:
                pass
            del scenario
            # Freed by reference counting alone, with no call of gc.collect.
            assert [ref for ref in refs if ref() is not None] == []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.scn"
            path.write_bytes(canonical_serialize(raw))
            assert cli.main(["validate", "--config", str(path)]) == (0 if problems == [] else 2)
            code = cli.main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "log")])
            assert code in ((0, 1) if problems == [] else (2,))


ARTIFACTS = (PlainAttestation, BlindedAttestation, CounterSignedAttestation)


def check_reread(log, data):
    """*data*, the bytes of *log*, reads back as *log*: the bytes round trip
    and every event is equal, the attestations and records in it included.
    Returns how many attestations the re-read message bodies hold."""
    reread = EventLog.from_bytes(data)
    assert reread.to_bytes() == data
    assert reread.events == log.events
    return sum(isinstance(value, ARTIFACTS)
               for event in events_of(reread, "send") for value in event.payload["body"].values())


# Every bundled scenario, then both benchmark workloads at their smoke-test size.
SCENARIOS = [*bundled_scenario_names(), "dsn_attested", "travel_churn"]


def scenario_config(name):
    if name in bundled_scenario_names():
        return ScenarioConfig.load(bundled_scenario_path(name))
    return tiny_benchmark_workload(name)


GOLDEN_LINES = [line for path in sorted(GOLDEN_DIR.glob("*.log"))
                for line in path.read_bytes().splitlines()]

# A tampered event: a declared kind with the smallest payload.
GOOD_LINE = b'{"actor":"A","kind":"tampered","payload":{"account":"a"},"tick":1}\n'


def send_line(channel, body, payload_extra=b""):
    return (b'{"actor":"A","kind":"send","payload":{"body":' + body + b',"channel":"' + channel
            + b'"' + payload_extra + b',"to":"B"},"tick":1}')


class TestEventLog:
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_to_bytes_matches_reference_on_bundled(self, name):
        log = run_scenario(ScenarioConfig.load(bundled_scenario_path(name)))
        assert log.to_bytes() == reference_log_bytes(log)

    @pytest.mark.parametrize("name", ["dsn_attested", "travel_churn"])
    def test_to_bytes_matches_reference_on_benchmark_workloads(self, name):
        log = run_scenario(tiny_benchmark_workload(name))
        assert log.to_bytes() == reference_log_bytes(log)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_reads_back_as_written(self, name):
        log = run_scenario(scenario_config(name))
        check_reread(log, log.to_bytes())

    def test_attestation_bodies_hold_the_artifacts(self):
        scenario = Scenario(minimal_plus(TRANSFER))
        log = scenario.run()
        csa = scenario.artifacts["a1"]
        carried = {e.payload["channel"]: e.payload["body"] for e in events_of(log, "send")
                   if any(isinstance(v, ARTIFACTS) for v in e.payload["body"].values())}
        assert set(carried) == {"witness-request", "countersigned", "attestation-delivery"}
        assert carried["witness-request"]["blinded"] is csa.blinded
        assert carried["countersigned"]["attestation"] is csa
        assert carried["attestation-delivery"]["attestation"] is csa
        assert check_reread(log, log.to_bytes()) == 3

    def test_to_bytes_matches_reference_on_hand_built(self):
        shared = {"handle": 'quote " slash \\ nul \x00 bell \x07 us \x1f'}
        twin = {"handle": "@b"}
        log = EventLog([
            Event(0, "B", "tampered", {"account": "a"}),
            Event(1, "A", "send", {"to": "B", "channel": "recovery-notice", "body": shared}),
            Event(1, "B", "send", {"to": "A", "channel": "recovery-notice", "body": shared}),
            Event(2, "A", "send", {"to": "B", "channel": "recovery-notice", "body": twin}),
            Event(2, "B", "send", {"to": "A", "channel": "recovery-notice", "body": dict(twin)}),
            Event(3, "A", "send", {"to": "B", "channel": "recovery-notice",
                                   "body": {"handle": "@c"}}),
            Event(4, "scheduler", "action", {"index": 0, "at": 4, "action": "issue", "coop": "c",
                                             "member": "m", "queries": ["age-over-18"],
                                             "mode": "absent", "ttl": 5, "label": "between"}),
            Event(5, "A", "send", {"to": "B", "channel": "recovery-notice", "body": shared}),
            Event(5, "A", "send", {"to": "C", "channel": "recovery-notice", "body": shared}),
            Event(6, "P", "chain-verified", {"ok": False}),
            Event(7, "E", "transfer-decision", {"transfer_id": "t", "outcome": "rejected",
                                                "reason": "revoked", "travel_record": None}),
        ])
        data = log.to_bytes()
        assert data == reference_log_bytes(log)
        assert check_reread(log, data) == 0
        for event, problem in [
            (Event(0, "B", "deliver", {"from": "A", "channel": "c", "body": {"n": 0}}),
             "undeclared event 'deliver'"),
            (Event(1, "A", "send", {"to": "B", "channel": "c", "body": {"n": 0}}),
             "undeclared event ('send', 'c')"),
            # The writer takes only a script action, as the reader does.
            (Event(4, "scheduler", "action", {"label": "between", "list": [b"\x01", -7, True]}),
             "action payload missing key 'action'"),
        ]:
            with pytest.raises(UnsupportedValue, match=f"^{re.escape(problem)}$"):
                EventLog([*log.events, event]).to_bytes()

    def test_to_bytes_of_empty_log(self):
        assert EventLog().to_bytes() == b""

    def test_bytes_roundtrip(self):
        config = minimal_config()
        log = run_scenario(config)
        assert check_reread(log, log.to_bytes()) == 2

    def test_write_and_load(self, tmp_path):
        log = run_scenario(minimal_config())
        path = tmp_path / "run.log"
        log.write(path)
        assert check_reread(log, path.read_bytes()) == 2

    @pytest.mark.parametrize("event, problem", [
        (Event(0, "P1", "onboard", {"handle": "@a", "ledger_index": 1, "extra": 5}),
         "onboard payload has undeclared key 'extra'"),
        (Event(0, "P1", "onboard", {"handle": "@a"}), "onboard payload missing key 'ledger_index'"),
        (Event(0, "P1", "onboard", {"handle": "@a", "index": 1}),
         "onboard payload missing key 'ledger_index'"),
        # An unset optional is there as None.
        (Event(0, "E", "transfer-decision", {"transfer_id": "t", "outcome": "rejected",
                                             "reason": "revoked"}),
         "transfer-decision payload missing key 'travel_record'"),
        (Event(1, "A", "send", {"to": "B", "body": {"handle": "@a"}}),
         "send payload missing key 'channel'"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice", "handle": "@a"}),
         "send payload missing key 'body'"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice",
                                "body": {"handle": "@a"}, "x": 1}),
         "send payload has undeclared key 'x'"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice", "body": {}}),
         "recovery-notice body missing key 'handle'"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice",
                                "body": {"handle": "@a", "n": 0}}),
         "recovery-notice body has undeclared key 'n'"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice",
                                "body": {"name": "@a"}}),
         "recovery-notice body missing key 'handle'"),
        # An action has the keys of its script action; an unset optional is there as None.
        (Event(0, "scheduler", "action", {"action": "tamper", "at": 0, "index": 0,
                                          "exchange": "E", "account": "a", "extra": 5}),
         "tamper action has undeclared key 'extra'"),
        (Event(0, "scheduler", "action", {"action": "tamper", "at": 0, "exchange": "E",
                                          "account": "a"}),
         "tamper action missing key 'index'"),
        (Event(0, "scheduler", "action", {"action": "register", "at": 0, "index": 0,
                                          "exchange": "E", "account": "a", "name": None}),
         "register action missing key 'attestation'"),
        (Event(0, "scheduler", "action", {"at": 0, "index": 0}),
         "action payload missing key 'action'"),
        # Each value has exactly its declared type.
        (Event(0, "B", "tampered", {"account": 5}), "tampered payload key 'account' must be str, not int"),
        (Event(0, "P1", "onboard", {"handle": "@a", "ledger_index": True}),
         "onboard payload key 'ledger_index' must be int, not bool"),
        (Event(0, "C", "revoked", {"attestation_id": "ab"}),
         "revoked payload key 'attestation_id' must be bytes, not str"),
        (Event(0, "C", "revoked", {"attestation_id": bytearray(32)}),
         "revoked payload key 'attestation_id' must be bytes, not bytearray"),
        (Event(0, "E", "transfer-decision", {"transfer_id": "t", "outcome": "rejected",
                                             "reason": "revoked", "travel_record": {}}),
         "transfer-decision payload key 'travel_record' must be TravelRuleRecord or None, not dict"),
        # The channel of the v2 format's mirror, which v3 no longer declares.
        (Event(1, "C", "send", {"to": "N", "channel": "revocation-sync",
                                "body": {"entries": {"ab": 1}}}),
         "undeclared event ('send', 'revocation-sync')"),
        (Event(1, "A", "send", {"to": "B", "channel": "recovery-notice", "body": ["@a"]}),
         "recovery-notice body must be a dict, not list"),
        (Event(1, "A", "send", {"to": "B", "channel": 5, "body": {"handle": "@a"}}),
         "send payload key 'channel' must be str, not int"),
        (Event(True, "B", "tampered", {"account": "a"}), "tampered event key 'tick' must be int, not bool"),
        (Event(0, "B", "tampered", {"account": "a\ud800"}),
         "tampered event holds text that UTF-8 cannot encode"),
        # An action's unset optionals are there as None; a set one has its type.
        (Event(0, "scheduler", "action", {"action": "register", "at": 0, "index": 0,
                                          "exchange": "E", "account": "a", "name": 5,
                                          "provider": None, "handle": None, "attestation": None}),
         "register action key 'name' must be str or None, not int"),
    ])
    def test_the_writer_takes_exactly_the_declared_keys(self, tmp_path, event, problem):
        good = EventLog([Event(0, "B", "tampered", {"account": "a"})])
        path = tmp_path / "run.log"
        good.write(path)
        log = EventLog([*good.events, event])
        with pytest.raises(UnsupportedValue, match=f"^{re.escape(problem)}$"):
            log.to_bytes()
        # The write stops at that line, after the first went to the temporary
        # file, and leaves the file it would have replaced as it was.
        with pytest.raises(UnsupportedValue, match=f"^{re.escape(problem)}$"):
            log.write(path)
        assert path.read_bytes() == good.to_bytes()
        assert os.listdir(tmp_path) == ["run.log"]

    def test_an_unset_optional_of_an_action_is_left_out_of_its_line(self):
        payload = {"action": "register", "at": 2, "index": 1, "exchange": "E", "account": "a",
                   "name": None, "provider": None, "handle": None, "attestation": "a1"}
        log = EventLog([Event(2, "scheduler", "action", payload)])
        line = (b'{"actor":"scheduler","kind":"action","payload":{"account":"a",'
                b'"action":"register","at":2,"attestation":"a1","exchange":"E","index":1},'
                b'"tick":2}\n')
        assert log.to_bytes() == line
        assert EventLog.from_bytes(line).events == log.events

    @pytest.mark.parametrize("line, problem", [
        (b"5", "Event must be a map"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":"a"}}', "missing field 'tick'"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":"a"},"tick":"x"}',
         "field 'tick' has wrong type"),
        (b'{"actor":1,"kind":2,"payload":3,"tick":"x"}', "field 'tick' has wrong type"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":"a"},"tick":true}',
         "field 'tick' has wrong type"),
        (b'{"actor":"A","kind":2,"payload":{},"tick":1}', "field 'kind' has wrong type"),
        (b'{"actor":"A","kind":"tampered","payload":[],"tick":1}',
         "field 'payload' has wrong type"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":"a"},"tick":1,"wire":0}',
         "unknown field 'wire'"),
        (b'{"actor":"A",', "expected a map key at byte 13"),
        (b"\x0c", "unexpected b'\\x0c' at byte 0"),
        # The kind and the channel must be declared ...
        (b'{"actor":"A","kind":"k","payload":{},"tick":1}', "unknown event kind 'k'"),
        (b'{"actor":"A","kind":"deliver","payload":{},"tick":1}', "unknown event kind 'deliver'"),
        (send_line(b"c", b"{}"), "unknown send channel 'c'"),
        # ... and the payload and the body have exactly their declared keys and types.
        (b'{"actor":"A","kind":"tampered","payload":{},"tick":1}',
         "tampered payload missing field 'account'"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":"a","extra":1},"tick":1}',
         "tampered payload has unknown field 'extra'"),
        (b'{"actor":"A","kind":"tampered","payload":{"account":5},"tick":1}',
         "tampered payload field 'account' has wrong type"),
        (b'{"actor":"A","kind":"chain-verified","payload":{"ok":1},"tick":1}',
         "chain-verified payload field 'ok' has wrong type"),
        (b'{"actor":"A","kind":"issued","payload":{"attestation_id":"x","label":"a1",'
         b'"member":"m"},"tick":1}', "issued payload field 'attestation_id' has wrong type"),
        (send_line(b"recovery-notice", b"{}"), "recovery-notice body missing field 'handle'"),
        (send_line(b"recovery-notice", b'{"handle":"@a","x":1}'),
         "recovery-notice body has unknown field 'x'"),
        (send_line(b"recovery-notice", b'{"handle":"@a"}', b',"extra":1'),
         "send payload has unknown field 'extra'"),
        (send_line(b"post", b'{"author_handle":"@a","body":0x,"origin_provider":"P","sent_at":1}'),
         "post body must be non-empty"),
        (send_line(b"countersigned", b'{"attestation":{}}'),
         "CounterSignedAttestation missing field 'kind'"),
    ])
    def test_a_line_that_is_not_an_event_is_a_decode_error(self, line, problem):
        good = [Event(1, "A", "tampered", {"account": "a"})]
        assert EventLog.from_bytes(GOOD_LINE).events == good
        with pytest.raises(DecodeError, match=rf"^event-log line 3: .*{re.escape(problem)}"):
            EventLog.from_bytes(GOOD_LINE + b"\n" + line + b"\n" + GOOD_LINE)

    @pytest.mark.parametrize("payload, problem", [
        (b'{"junk":1}', "unknown action None"),
        (b'{"action":"post","at":-3,"body":5,"index":true}',
         "script[True].provider: must be a non-empty string; script[True].handle: must"),
        (b'{"action":"post","at":-3,"body":"hi","handle":"@a","index":-1,"provider":"P"}',
         "script[-1].at: must be a non-negative integer; script[-1].index: must be a non-neg"),
        (b'{"action":"fly","at":3,"index":0}', "unknown action 'fly'"),
        (b'{"action":"post","at":3,"body":5,"handle":"@a","index":2,"provider":"P"}',
         "script[2].body: must be non-empty text or bytes"),
        (b'{"action":"post","at":3,"body":"hi","handle":"@a","index":2}',
         "script[2].provider: must be a non-empty string"),
        (b'{"action":"post","at":3,"body":"hi","handle":"@a","index":2,"provider":"P","x":1}',
         "script[2].x: unknown field"),
        (b'{"action":"issue","at":3,"coop":"c","index":2,"label":"a","member":"m",'
         b'"mode":"absent","queries":["no-such-rule"],"ttl":5}',
         "script[2].queries: must be a non-empty list of rule names"),
    ])
    def test_an_action_line_holds_a_script_action(self, payload, problem):
        line = b'{"actor":"scheduler","kind":"action","payload":' + payload + b',"tick":3}'
        with pytest.raises(DecodeError, match=rf"^event-log line 2: {re.escape(problem)}"):
            EventLog.from_bytes(GOOD_LINE + line)

    def test_an_action_line_may_name_what_the_log_does_not_hold(self):
        line = (b'{"actor":"scheduler","kind":"action","payload":{"action":"post","at":3,'
                b'"body":"hi","handle":"@a","index":2,"provider":"nowhere"},"tick":3}\n')
        assert EventLog.from_bytes(line).to_bytes() == line

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_mutated_golden_line_decodes_to_itself_or_is_a_decode_error(self, data):
        """A golden line changed once either decodes to an event that writes
        the same bytes back, or raises DecodeError, never another exception.
        A value of another type or an added key is a DecodeError, except
        inside an action payload, which is a plain map."""
        original = canonical_parse(data.draw(st.sampled_from(GOLDEN_LINES)))
        how, path, raw = data.draw(mutated(original))
        line = canonical_serialize(raw)
        try:
            log = EventLog.from_bytes(line)
        except DecodeError:
            return
        plain_map = original["kind"] == "action" and path[:1] == ("payload",)
        assert how == "same type" or plain_map, f"{how} at {path} was accepted"
        assert log.to_bytes() == line + b"\n"

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.log")) + sorted(GOLDEN_DIR.glob("v1/*.log")),
                             ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_every_golden_loads(self, path):
        data = path.read_bytes()
        if path.parent.name != "v1":
            assert EventLog.from_bytes(data).to_bytes() == data
            return
        # A v1 log is canonical, but the v3 reader names its first line
        # that v3 no longer declares: a deliver, a revocation-sync, or a
        # witness-request that carries the plain attestation.
        lines = data.splitlines()
        assert all(canonical_serialize(canonical_parse(line)) == line for line in lines)
        first = next(number for number, line in enumerate(lines, 1)
                     if v1_only(canonical_parse(line)))
        with pytest.raises(DecodeError, match=rf"^event-log line {first}: "):
            EventLog.from_bytes(data)


# Every line layout: each kind, each send channel and each script action.
LAYOUTS = [*((kind, None) for kind, layout in KINDS.items() if layout is not dict and kind != "send"),
           *(("send", channel) for channel in CHANNELS),
           *(("action", action) for action in SCHEMA["script"])]
# Text with what must be escaped, and what must not.
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x07\x1f\x7f\u00e9\u20ac\U0001f600'),
                         st.characters(blacklist_categories=("Cs",))), max_size=8)
INTEGER = st.one_of(st.integers(), st.integers(min_value=-2 ** 80, max_value=2 ** 80))
# What a script action's value may be, by its field's kind, for the reader to take it.
ACTION_VALUES = {
    "must be a non-empty string": TEXT.filter(bool),
    "must be a positive integer": st.one_of(st.integers(min_value=1),
                                            st.integers(min_value=2 ** 64, max_value=2 ** 80)),
    "must be a non-negative integer": st.integers(min_value=0),
    "must be non-empty text or bytes": st.one_of(TEXT.filter(bool), st.binary(min_size=1)),
    "must be 'absent' or 'handle'": st.sampled_from(["absent", "handle"]),
    "must be a non-empty list of rule names": st.lists(st.sampled_from(QUERIES),
                                                       min_size=1, max_size=3),
}
# Values of every type, to draw one of another type than a key's.
ANY_TYPE = [0, True, "t", b"b", None, 1.5, [], {}, ("t",), bytearray(b"b")]


@functools.cache
def minimal_attestation():
    """The countersigned attestation a run of the minimal scenario issues."""
    scenario = Scenario(minimal_config())
    scenario.run()
    return scenario.artifacts["a1"]


def values_of(tp):
    """Values of the declared type *tp*."""
    if tp is CounterSignedAttestation:
        return st.just(minimal_attestation())
    if tp is BlindedAttestation:
        return st.just(minimal_attestation().blinded)
    return {str: TEXT, int: INTEGER, bool: st.booleans(), bytes: st.binary(max_size=40),
            TravelRuleRecord: st.builds(TravelRuleRecord, *[TEXT.filter(bool)] * 5)}[tp]


def declared(cls):
    """The fields of a payload or body class: key -> (type, optional); an
    unset optional is there as None."""
    hints = typing.get_type_hints(cls)
    return {f.name: ((typing.get_args(hints[f.name])[0], True)
                     if type(None) in typing.get_args(hints[f.name]) else (hints[f.name], False))
            for f in dataclasses.fields(cls)}


@st.composite
def lines(draw, layout):
    """An event of *layout* whose values are drawn by their declared types
    and which the reader takes, with its slots: (map, key, type, optional),
    the event itself standing for the map of "tick" and "actor", and the
    declared keys of each map."""
    kind, picked = layout
    slots, keys = [], {}

    def fill(fields, strategies, fixed=None):
        values = dict(fixed or {})
        keys[id(values)] = {*fields, *values}
        for key, (tp, optional) in fields.items():
            values[key] = draw(st.one_of(st.none(), strategies(tp, key)) if optional
                               else strategies(tp, key))
            slots.append((values, key, tp, optional))
        return values

    if kind == "action":
        fields = SCHEMA["script"][picked]
        problems = {**{key: f.problem for key, f in fields.items()},
                    "at": "must be a non-negative integer", "index": "must be a non-negative integer"}
        payload = fill({**{key: (f.tp, not f.required) for key, f in fields.items()},
                        "at": (int, False), "index": (int, False)},
                       lambda tp, key: ACTION_VALUES[problems[key]], {"action": picked})
    elif kind == "send":
        body = fill(declared(CHANNELS[picked]), lambda tp, key: values_of(tp))
        try:   # a body its record refuses (an empty post, say) could not be read back
            CHANNELS[picked](**body)
        except ValueError:
            assume(False)
        payload = fill({"to": (str, None)}, lambda tp, key: values_of(tp),
                       {"channel": picked, "body": body})
    else:
        payload = fill(declared(KINDS[kind]), lambda tp, key: values_of(tp))
    event = Event(draw(INTEGER), draw(TEXT), kind, payload)
    slots += [(event, "tick", int, False), (event, "actor", str, False)]
    return event, slots, keys


class TestLineWriters:
    """Every line layout is written by its own generated writer, which
    writes the bytes of the event's map and refuses what the reader would."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_every_layout_writes_the_reference_bytes_and_reads_back(self, data):
        event, _, _ = data.draw(lines(data.draw(st.sampled_from(LAYOUTS))))
        log = EventLog([event])
        written = log.to_bytes()
        assert written == reference_log_bytes(log)
        assert EventLog.from_bytes(written).events == [event]

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_a_line_not_as_declared_is_refused(self, data):
        event, slots, keys = data.draw(lines(data.draw(st.sampled_from(LAYOUTS))))
        how = data.draw(st.sampled_from(["wrong type", "missing key", "extra key",
                                         "lone surrogate"]))
        if how == "extra key":
            values = data.draw(st.sampled_from([event.payload, *(
                value for value in event.payload.values() if id(value) in keys)]))
            values[data.draw(TEXT.filter(lambda key: key not in keys[id(values)]))] = 0
        elif how == "missing key":
            values, key = data.draw(st.sampled_from([
                (values, key) for values, key, _, _ in slots if values is not event
            ] + [(event.payload, key) for key in ("channel", "body", "action")
                 if key in event.payload]))
            del values[key]
        else:
            values, key, tp, optional = data.draw(st.sampled_from(
                [slot for slot in slots if slot[2] is str] if how == "lone surrogate" else slots))
            members = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
            allowed = {typing.get_origin(t) or t for t in members}
            value = "a\ud800" if how == "lone surrogate" else data.draw(st.sampled_from(
                [v for v in ANY_TYPE if type(v) not in allowed and (v is not None or not optional)]))
            if values is event:
                setattr(event, key, value)
            else:
                values[key] = value
        with pytest.raises(UnsupportedValue):
            EventLog([event]).to_bytes()

    def test_a_traceback_shows_the_generated_line(self):
        with pytest.raises(UnsupportedValue) as info:
            EventLog([Event(0, "B", "tampered", {"account": 5})]).to_bytes()
        frame = traceback.extract_tb(info.tb)[-1]
        assert frame.filename == "<coopattest line tampered>"
        assert frame.line.startswith("raise _Refused(\"tampered payload key 'account' must be str")


class TestEventLogMemory:
    """Writing a log holds it once.  Python's own allocations are traced, and
    each bound is a ratio to the log's size, which holds on every supported
    Python version: ``to_bytes`` fills one buffer, reads each event's fields
    without building a dict of them, and leaves the log's bytes behind;
    ``write`` holds about a line at a time."""

    @pytest.mark.parametrize("name", ["travel_churn", "dsn_bot_flood"])
    def test_a_written_log_is_held_once(self, name, tmp_path):
        config = scenario_config(name)
        run_scenario(config).to_bytes()  # fills the caches a first write fills
        log = run_scenario(config)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = log.to_bytes()
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            log.write(tmp_path / "run.log")
            write_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        size = len(data)
        assert (tmp_path / "run.log").read_bytes() == data
        assert peak - before <= 1.25 * size, f"to_bytes peaked at {(peak - before) / size:.2f}x"
        assert held - before <= 1.05 * size, f"to_bytes left {(held - before) / size:.2f}x held"
        assert write_peak < 0.25 * size, f"write peaked at {write_peak / size:.2f}x"


class TestCollectorPause:
    """``Scenario.run`` pauses Python's cyclic collector and gives the caller
    back the collector state it had.  The pause is safe because a run makes
    no reference cycle, so a collection inside it would free nothing, and
    a dropped scenario needs none (``TestScenarioLifetime``)."""

    @pytest.mark.parametrize("name", ["travel_rule_all_rules", "dsn_attested"])
    def test_no_collection_starts_inside_a_run(self, name):
        scenario = Scenario(scenario_config(name))
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        threshold, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(1)   # collect at nearly every allocation, were it not paused
        gc.callbacks.append(count)
        gc.enable()
        try:
            scenario.run()
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
        assert not started, f"{len(started)} collections started inside the run"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["clean", "failing"])
    def test_the_callers_collector_state_is_restored(self, enabled, fails):
        # Failing: the same account registered a second time.
        config = minimal_plus({**minimal_config().script[1], "at": 3}) if fails else minimal_config()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(ScriptActionFailed):
                    run_scenario(config)
            else:
                run_scenario(config)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("name", [*bundled_scenario_names(),
                                      *benchmark_workloads().TINY_SHAPES])
    def test_a_run_leaves_no_cyclic_garbage_while_its_scenario_is_held(self, name):
        config = scenario_config(name)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            scenario = Scenario(config)
            scenario.run()
            unreachable = gc.collect()   # the scenario, and so its log, still held
        finally:
            if enabled:
                gc.enable()
        assert unreachable == 0


class TestScenarioLifetime:
    """A dropped scenario is freed by reference counting: an actor's emit
    holds the log's list and the tick, not the scenario, and a consumer is
    handed the peer it sends to, so no actor refers back to the scenario or
    to another actor of its kind."""

    @pytest.mark.parametrize("name", [*bundled_scenario_names(),
                                      *benchmark_workloads().TINY_SHAPES])
    def test_a_dropped_scenario_leaves_no_cyclic_garbage(self, name):
        config = scenario_config(name)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            scenario = Scenario(config)
            log = scenario.run()
            del scenario, log
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert unreachable == 0


def v1_only(event: dict) -> bool:
    """True iff *event*, the map of a line, is of a form the current format
    does not declare: a deliver, a revocation-sync, or a witness-request
    that carries the plain attestation."""
    payload = event["payload"]
    return event["kind"] == "deliver" or event["kind"] == "send" and (
        payload["channel"] == "revocation-sync"
        or payload["channel"] == "witness-request" and "plain" in payload["body"])


def v1_to_v3(data: bytes) -> bytes:
    """An event log of the first format in the current one: no deliver or
    revocation-sync events, and a witness-request names the plain
    attestation by its id.  Every other line is kept as it is."""
    lines = []
    for line in data.splitlines(keepends=True):
        event = canonical_parse(line.rstrip(b"\n"))
        payload = event["payload"]
        if event["kind"] == "deliver" or event["kind"] == "send" and (
                payload["channel"] == "revocation-sync"):
            continue
        if event["kind"] == "send" and payload["channel"] == "witness-request":
            payload["body"]["plain_id"] = payload["body"].pop("plain")["attestation_id"]
            line = canonical_serialize(event) + b"\n"
        lines.append(line)
    return b"".join(lines)


class TestLogFormat:
    # Over the v1 logs, not the scenarios: a scenario added since has none.
    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("v1/*.log")), ids=lambda p: p.stem)
    def test_v1_golden_maps_to_the_current_golden(self, path):
        assert path.stem in bundled_scenario_names()
        assert v1_to_v3(path.read_bytes()) == (GOLDEN_DIR / path.name).read_bytes()

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("v1/*.log")), ids=lambda p: p.stem)
    def test_a_revocation_sync_line_is_refused(self, path):
        """Each revocation-sync send of a v1 log, read after a line of the
        current format, is a DecodeError naming the channel."""
        lines = [line for line in path.read_bytes().splitlines()
                 if canonical_parse(line)["kind"] == "send"
                 and canonical_parse(line)["payload"]["channel"] == "revocation-sync"]
        assert lines
        for line in lines:
            with pytest.raises(DecodeError,
                               match=r"^event-log line 2: unknown send channel 'revocation-sync'$"):
                EventLog.from_bytes(GOOD_LINE + line + b"\n")

    def test_each_golden_log_is_a_bundled_scenario(self):
        """Exactly one golden log per bundled scenario: none missing, none orphaned."""
        assert sorted(path.stem for path in GOLDEN_DIR.glob("*.log")) == \
            sorted(bundled_scenario_names())

    def test_each_bundled_scenario_is_its_generator_s(self):
        """Exactly the scenarios ``scripts/gen_scenarios.py`` writes are
        committed, each byte for byte: one it has dropped would never be
        regenerated."""
        spec = importlib.util.spec_from_file_location("gen_scenarios", GEN_SCENARIOS)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert sorted(generator.SCENARIOS) == bundled_scenario_names()
        for name, build in generator.SCENARIOS.items():
            assert canonical_serialize(build()) == bundled_scenario_path(name).read_bytes(), name

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_no_legal_identity_outside_a_disclosed_travel_record(self, name):
        config = scenario_config(name)
        identities = [m["legal_identity"].encode()
                      for coop in config.cooperatives for m in coop["members"]]
        assert identities
        disclosed = 0
        for line in run_scenario(config).to_bytes().splitlines():
            event = canonical_parse(line)
            payload = event["payload"]
            if event["kind"] == "transfer-decision" and payload["reason"] == "disclosed":
                disclosed += 1
                assert any(identity in line for identity in identities)
                line = canonical_serialize({**event, "payload": {
                    k: v for k, v in payload.items() if k != "travel_record"}})
            assert not any(identity in line for identity in identities), line
        if name in ("travel_rule_disclosure", "travel_churn"):
            assert disclosed
