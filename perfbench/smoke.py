"""Smoke test of the benchmark: every workload at a tiny size, in seconds.

    python3 -m pytest -q perfbench/smoke.py

It is not named ``test_*.py``, so the repository's own test run does not
collect it; name the file to run it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import coopattest  # noqa: E402
from coopattest import canonical, harness  # noqa: E402
from layers import Observations, layer_metrics, metric_units  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SHAPES, TINY_SHAPES, generate  # noqa: E402


def simulate(workload):
    """What ``coopattest simulate`` does after reading the config file."""
    raw = canonical.canonical_parse(canonical.canonical_serialize(workload.config))
    return harness.run_scenario(harness.ScenarioConfig.from_map(raw))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_oracle_passes_and_tracing_keeps_the_log(name):
    workload = generate(name, 7, TINY_SHAPES[name])
    log = simulate(workload)
    assert workload.check(log.events) == 0

    obs = Observations()
    tracer = Tracer(obs.observers())
    tracer.install(coopattest)
    try:
        # Names a module imported with ``from .x import y`` are wrapped there too.
        for module, attr in (("dsn", "verify_countersigned"), ("travel_rule", "verify_countersigned"),
                             ("harness", "canonical_serialize"), ("harness", "send_message")):
            assert hasattr(getattr(getattr(coopattest, module), attr), "__wrapped__")
        traced = simulate(workload)
        traced_bytes = traced.to_bytes()
        repeat = tracer.take_repeat()
    finally:
        tracer.uninstall()
    assert traced_bytes == log.to_bytes()
    assert not hasattr(harness.run_scenario, "__wrapped__")

    metrics = layer_metrics(repeat, obs, 1.0, workload.actions, len(traced))
    assert set(metrics) | {"trace.overhead_share", "trace.reference_s"} == set(metric_units())
    assert metrics["harness.events"] == len(log)
    assert metrics["harness.log_bytes"] == len(traced_bytes)
    assert metrics["harness.actions"] == len(workload.config["script"])
    verdicts = sum(v for k, v in metrics.items() if ".verdicts." in k)
    assert verdicts == workload.verdicts
    assert all(span is not None for span in repeat["spans"])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_oracle_counts_a_wrong_verdict(name):
    workload = generate(name, 3, TINY_SHAPES[name])
    log = simulate(workload)
    expected = workload.expected_posts or workload.expected_transfers
    expected[0] = expected[0][:-1] + ("no-such-reason",)
    assert workload.check(log.events) == 1


def test_tiny_shapes_reach_every_verdict_the_workload_was_chosen_for():
    reasons = {}
    for name in SHAPES:
        workload = generate(name, 5, TINY_SHAPES[name])
        reasons[name] = {e[-1] for e in workload.expected_posts + workload.expected_transfers}
    assert {"attested", "attestation-revoked", "no-ledger-match"} <= reasons["dsn_attested"]
    assert {"no-ledger-match", "origin-mismatch", "attested"} <= reasons["dsn_spam"]
    assert {"below-threshold", "disclosed", "denied-jurisdiction", "revoked",
            "expired"} <= reasons["travel_churn"]


def test_seed_decides_the_inputs():
    for name in SHAPES:
        shape = TINY_SHAPES[name]
        a, b = generate(name, 11, shape), generate(name, 11, shape)
        c = generate(name, 12, shape)
        assert canonical.canonical_serialize(a.config) == canonical.canonical_serialize(b.config)
        assert canonical.canonical_serialize(a.config) != canonical.canonical_serialize(c.config)


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # dsn_spam stays runnable by hand but is not a benchmark workload (see README).
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(set(SHAPES) - {"dsn_spam"})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
