"""Every committed benchmark record is whole, and claims what the benchmark measures.

A change that claims a speed-up commits ``BENCH_<n>.json`` at the root of
the repository: both sides' ``perfbench/run.py`` result lines, the machine
they ran on, and the claim.  Each record must parse, hold the keys below,
claim one workload and one end-to-end metric that ``BENCHMARK.json``
declares, and hold the runs of every benchmark workload.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.partition("_")[2]))
KEYS = {"change", "claim", "command", "machine", "protocol", "runs", "summary"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_is_whole_and_claims_what_the_benchmark_declares(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert KEYS <= set(record), f"missing {sorted(KEYS - set(record))}"
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END
    assert WORKLOADS <= set(record["runs"]), f"no runs of {sorted(WORKLOADS - set(record['runs']))}"
