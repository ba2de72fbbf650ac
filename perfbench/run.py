#!/usr/bin/env python3
"""The coopattest benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dsn_attested --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file).  The workload's scenario is generated from the seed (see
``workloads.py``), serialized to canonical config bytes, and driven
through ``coopattest`` in this one process, closed loop: the script is
the load and the next action starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the same work untraced and then traced, reports the per-layer metrics,
and writes the spans of the last traced run to ``perfbench/out/``.  Both
check every run against the workload's oracle and check that the event
log's SHA-256 is the same on every run.  The last line of standard
output is the JSON result; the lines before it are the environment
record and the metrics in readable form.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import Observations, layer_metrics, metric_units  # noqa: E402
from reference import NOMINAL_S, reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SHAPES, generate  # noqa: E402

# Every timing of a metric is CPU time of this thread, scaled (all but
# the verdict p99) by the reference computation timed just before it
# (see reference.py).
# coopattest is single-threaded and never waits, so CPU time is all the
# time it takes; the wall clock also counts other processes on the CPU.
MIN_REPEATS = 3         # measured runs, even when one run outlasts --seconds
UNTRACED_SHARE = 0.3    # of --seconds, in a traced invocation

END_TO_END_UNITS = {
    "actions_per_s": "actions/s", "verdict_p50_us": "us", "verdict_p99_us": "us",
    "setup_s": "s", "peak_rss_mb": "MiB", "ok_share": "ratio",
}


def import_program():
    """Import coopattest from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "coopattest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coopattest sources under {src}")
    sys.path.insert(0, str(src))
    import coopattest
    if Path(coopattest.__file__).resolve().parent != src / "coopattest":
        sys.exit(f"perfbench: imported coopattest from {coopattest.__file__}, not {src}")
    return coopattest


# --- environment record ------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's sources, which names the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coopattest").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        crypto_version = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto_version = "unknown"
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cryptography": crypto_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# --- one run of the workload ---------------------------------------------------------

class Bench:
    """One workload's config bytes, and the judged runs made from them."""

    def __init__(self, workload, coopattest) -> None:
        self.workload = workload
        # Calls go through the modules, so that tracing's wrappers are used.
        self.canonical = coopattest.canonical
        self.harness = coopattest.harness
        self.errors = coopattest.errors
        self.config_bytes = self.canonical.canonical_serialize(workload.config)
        self.attempted = 0
        self.failed = 0
        self.events = 0
        self.digests: set[str] = set()

    def parse(self):
        return self.harness.ScenarioConfig.from_map(self.canonical.canonical_parse(self.config_bytes))

    def setup_seconds(self) -> float:
        """Canonical config bytes to a runnable scenario, as ``simulate`` does it."""
        gc.collect()
        start = time.thread_time()
        scenario = self.harness.Scenario(self.parse())
        elapsed = time.thread_time() - start
        del scenario  # torn down outside the timed span
        return elapsed

    def run(self, config) -> float:
        """One scenario run plus its log bytes, judged against the oracle;
        returns the CPU seconds of ``run_scenario`` plus ``to_bytes``."""
        start = time.thread_time()
        try:
            log = self.harness.run_scenario(config)
            data = log.to_bytes()
        except self.errors.CoopAttestError as exc:
            elapsed = time.thread_time() - start
            self._count_failed_run(exc)
            return elapsed
        elapsed = time.thread_time() - start
        self.attempted += self.workload.attempted
        self.failed += self.workload.check(log.events)
        self.digests.add(hashlib.sha256(data).hexdigest())
        self.events = len(log)
        return elapsed

    def _count_failed_run(self, exc) -> None:
        """The raising action and every later one fail; with no log, so do
        all verdicts and chain checks."""
        script = self.workload.config["script"]
        action = getattr(exc, "action", None)
        first = next((i for i, a in enumerate(script) if a == action), 0)
        self.attempted += self.workload.attempted
        self.failed += len(script) - first + self.workload.verdicts + self.workload.chains
        self.digests.add(f"failed: {exc}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1


class VerdictTimer:
    """Times each consumer verdict: ``Provider.receive_post`` and
    ``Exchange.evaluate_transfer``, the only calls the untraced run wraps."""

    def __init__(self, coopattest) -> None:
        self.runs: list[array] = []
        self._patched = []
        for cls, attr in ((coopattest.dsn.Provider, "receive_post"),
                          (coopattest.travel_rule.Exchange, "evaluate_transfer")):
            original = vars(cls)[attr]
            setattr(cls, attr, self._timed(original))
            self._patched.append((cls, attr, original))

    def next_run(self) -> None:
        self.runs.append(array("d"))

    def _timed(self, fn):
        runs = self.runs
        clock = time.thread_time_ns

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            runs[-1].append((clock() - start) / 1e3)
            return result
        return timed

    def restore(self) -> None:
        for cls, attr, original in self._patched:
            setattr(cls, attr, original)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_runs(bench: Bench, config, seconds: float, timer=None, setups=None):
    """Timed runs until *seconds* have passed, at least MIN_REPEATS of them.

    Before each run the reference computation is timed, which says how
    fast the machine was.  With a *timer*, each run's verdict latencies
    are kept apart, in ``timer.runs``.  With a *setups* list, a timed
    set-up precedes each run too.  Returns run and reference seconds."""
    times, references = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPEATS or time.perf_counter() < deadline:
        references.append(reference_seconds())
        if setups is not None:
            setups.append(bench.setup_seconds())
        gc.collect()
        if timer is not None:
            timer.next_run()
        times.append(bench.run(config))
    return times, references


def end_to_end(bench: Bench, coopattest, seconds: float) -> dict:
    config = bench.parse()
    bench.run(config)  # warm-up: fills caches and lazy imports, judged but not timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timer = VerdictTimer(coopattest)
    setups: list[float] = []
    try:
        times, references = measure_runs(bench, config, seconds, timer, setups)
    finally:
        timer.restore()
    runs = [sorted(samples) for samples in timer.runs]
    # Each timing scaled to the nominal machine, by the reference taken
    # just before it.
    scale = [NOMINAL_S / r for r in references]
    actions = bench.workload.actions
    print(f"runs: {len(times)} measured, {len(setups)} set-ups, "
          f"{sum(map(len, runs))} verdict samples ({len(runs[0])} a run)")
    print("run seconds: " + " ".join(f"{t:.3f}" for t in times))
    print("reference seconds: " + " ".join(f"{r:.3f}" for r in references))
    print(f"unscaled medians: {median(actions / t for t in times):.1f} actions/s, "
          f"verdict p50 {median(percentile(r, 50) for r in runs):.1f} us, "
          f"set-up {median(setups):.4f} s")
    return {
        "actions_per_s": median(actions / (t * f) for t, f in zip(times, scale)),
        # Percentiles of each run's verdicts, then the median over runs.
        # The p99 is not scaled: measured here, the verdict tail does not
        # follow the machine's speed, and scaling it widened its spread.
        "verdict_p50_us": median(percentile(r, 50) * f for r, f in zip(runs, scale)),
        "verdict_p99_us": median(percentile(r, 99) for r in runs),
        "setup_s": median(t * f for t, f in zip(setups, scale)),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer(bench: Bench, coopattest, seconds: float, out_path: Path, env: dict) -> dict:
    config = bench.parse()
    bench.run(config)  # warm-up
    untraced, untraced_refs = measure_runs(bench, config, seconds * UNTRACED_SHARE)
    untraced_digest = set(bench.digests)

    obs = Observations()
    tracer = Tracer(obs.observers())
    tracer.install(coopattest)
    per_run, traced_times, traced_refs, last = [], [], [], None
    try:
        deadline = time.perf_counter() + seconds * (1 - UNTRACED_SHARE)
        while len(per_run) < MIN_REPEATS or time.perf_counter() < deadline:
            traced_refs.append(reference_seconds())
            gc.collect()
            tracer.reset()
            obs.reset()
            # What `coopattest simulate` does: parse, run, serialize the log.
            start = time.perf_counter()
            traced_config = bench.parse()
            run_s = bench.run(traced_config)
            host_s = time.perf_counter() - start
            last = tracer.take_repeat()
            traced_times.append(run_s)
            per_run.append(layer_metrics(last, obs, host_s, bench.workload.actions, bench.events))
    finally:
        tracer.uninstall()
    bench.attempted += 1  # the traced log must be the untraced log, byte for byte
    if bench.digests != untraced_digest:
        print("traced log differs from the untraced log")
        bench.failed += 1

    actions = bench.workload.actions
    metrics = {name: median(run[name] for run in per_run) for name in per_run[0]}
    # Both sides in units of the reference, as the machine's speed drifts
    # between the untraced and the traced runs.
    metrics["trace.overhead_share"] = (median(t / r for t, r in zip(traced_times, traced_refs))
                                       / median(t / r for t, r in zip(untraced, untraced_refs)) - 1)
    metrics["trace.reference_s"] = median(traced_refs)
    print(f"runs: {len(untraced)} untraced, {len(per_run)} traced; "
          f"untraced {median(actions / t for t in untraced):.1f} actions/s")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(out_path, "wt", encoding="utf-8", compresslevel=1) as f:
        json.dump({"env": env, "workload": bench.workload.name, "per_layer": metrics,
                   "span_fields": ["name", "start_ns", "end_ns", "parent"],
                   "names": tracer.names, "spans": last["spans"]}, f)
    print(f"spans written to {out_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    coopattest = import_program()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = generate(args.workload, args.seed)
    bench = Bench(workload, coopattest)
    print(f"workload {workload.name} seed {args.seed}: {workload.actions} actions, "
          f"{workload.verdicts} verdicts, {len(bench.config_bytes)} config bytes")

    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        values = per_layer(bench, coopattest, args.seconds, out, env)
        units = metric_units()
    else:
        values = end_to_end(bench, coopattest, args.seconds)
        units = END_TO_END_UNITS

    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_share = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
