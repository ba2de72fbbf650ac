"""Every function under ``src/`` is reached by a product path, or declared.

The product paths are what a user of the package runs: every bundled
scenario (run, written, read back), the benchmark's three workloads at
their smoke-test size, and a CLI session on copies of the golden state
files that takes every command, its documented refusals included.  They
run in a fresh interpreter with a profiler on before ``coopattest`` is
imported, so the builders that run at import and the memoised ones that
earlier tests in this process have filled count as they would for a user.

A function that none of them calls must be in ``DECLARED``, with the
reason it stays; a declared function that is called, or no longer
defined, fails the test too.  Run the measurement on its own with

    python tests/test_reach.py

which prints the functions never called, one ``module.Qualname`` a line.

Beside it, a second gate reads each module's source: every name it
imports is used, or is in ``UNUSED_IMPORTS`` with the reason it stays.
"""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coopattest"
GOLDEN_DIR = ROOT / "tests" / "goldens"

DECLARED = {
    "canonical._escape":
        "writes a control character, quote or backslash in text; no product text holds one",
    "canonical._text":
        "reads text with an escape in it; no product text holds one",
    "events.no_emit":
        "the emit of an actor used as a library; the harness binds every actor's emit",
    "dsn.Provider.request_sender_disclosure":
        "the provider side of the paper's legal point of contact for inquiries about a "
        "sender; no script action reaches it yet, tests/test_dsn.py::TestDisclosure pins it",
    "dsn.Provider._trace_attestation":
        "traces a post to its attestation for request_sender_disclosure",
}

# Names a module imports but never uses, each with the reason it stays.
UNUSED_IMPORTS = {
    "harness.canonical_serialize":
        "perfbench/smoke.py checks that its tracing wraps the name in harness",
    "dsn.verify_countersigned":
        "perfbench/smoke.py checks that its tracing wraps the name in dsn; notary.vouch calls it",
    "travel_rule.verify_countersigned":
        "perfbench/smoke.py checks that its tracing wraps the name in travel_rule; "
        "notary.vouch calls it",
}


# --- the functions defined under src/ -------------------------------------------------

def defined_functions() -> dict[tuple[str, int, str], str]:
    """Each function ``def``ined in the package, keyed by its file, the line
    its code object starts at (its first decorator's, if it has any) and its
    name, mapped to its ``module.Qualname``."""
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[path, line, child.name] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_bytes(), str(path)), str(path), module + ".")
    return found


def unused_imports() -> list[str]:
    """The ``module.name`` of each name a package module imports (from
    ``__future__`` aside) and neither uses nor lists in its ``__all__``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_bytes(), str(path))
        imported, used = [], set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        found += [f"{module}.{name}" for name in imported if name not in used]
    return sorted(found)


# --- the product paths -----------------------------------------------------------------

def run_scenarios() -> None:
    """Every bundled scenario and the benchmark's workloads at their
    smoke-test size, each run, written and read back."""
    import importlib.util

    from coopattest.canonical import canonical_parse, canonical_serialize
    from coopattest.harness import (
        EventLog, ScenarioConfig, bundled_scenario_names, bundled_scenario_path, run_scenario)

    configs = [ScenarioConfig.load(bundled_scenario_path(name))
               for name in bundled_scenario_names()]
    spec = importlib.util.spec_from_file_location("reach_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for name, shape in sorted(workloads.TINY_SHAPES.items()):
        config = workloads.generate(name, 3, shape).config
        configs.append(ScenarioConfig.from_map(canonical_parse(canonical_serialize(config))))
    for config in configs:
        data = run_scenario(config).to_bytes()
        assert EventLog.from_bytes(data).to_bytes() == data


def run_cli(work: Path) -> None:
    """Every command, from copies of the golden state files, and the
    documented refusals: a crossed pair (1), a config with a problem (2)
    and a config whose run fails (1)."""
    import contextlib
    import io
    import shutil

    from coopattest.canonical import canonical_parse, canonical_serialize
    from coopattest.cli import main
    from coopattest.harness import bundled_scenario_path

    def cli(expected: int, *args) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(arg) for arg in args])
        assert code == expected, (args, code)

    coop, notary = work / "coop.state", work / "notary.state"
    shutil.copyfile(GOLDEN_DIR / "coop.state", coop)
    shutil.copyfile(GOLDEN_DIR / "notary.state", notary)
    for pair, mode in (("a", "handle"), ("b", "absent")):
        cli(0, "issue", "--coop", coop, "--member", "alice", "--attrs",
            "age-over-18,residence-country", "--mode", mode, "--now", 20, "--ttl", 50,
            "--out-plain", work / f"{pair}.plain.att", "--out-blinded", work / f"{pair}.att")
    cli(0, "countersign", "--notary", notary, "--plain", work / "a.plain.att",
        "--blinded", work / "a.att", "--now", 21, "--out", work / "a.csa.att")
    cli(1, "countersign", "--notary", notary, "--plain", work / "a.plain.att",
        "--blinded", work / "b.att", "--now", 21, "--out", work / "b.csa.att")
    for name, state in (("coop", coop), ("notary", notary)):
        seed = canonical_parse(state.read_bytes())["key_seed"].hex()
        cli(0, "keygen", "--seed", seed, "--out", work / f"{name}.key")
    cli(0, "verify", "--csa", work / "a.csa.att", "--issuer-key", work / "coop.key",
        "--notary-key", work / "notary.key", "--now", 30)
    attestation_id = canonical_parse((work / "a.att").read_bytes())["attestation_id"].hex()
    cli(0, "status", "--coop", coop, "--id", attestation_id, "--now", 30)
    cli(0, "disclose", "--notary", notary, "--id", attestation_id, "--jurisdiction", "EU",
        "--purpose", "travel-rule", "--now", 30)
    cli(0, "revoke", "--coop", coop, "--id", attestation_id, "--now", 31)
    cli(1, "status", "--coop", coop, "--id", attestation_id, "--now", 32)

    scenario = bundled_scenario_path("travel_rule_basic")
    cli(0, "validate", "--config", scenario)
    cli(0, "simulate", "--config", scenario, "--out", work / "run.log")
    config = canonical_parse(scenario.read_bytes())
    bad, failing = work / "bad.scn", work / "failing.scn"
    bad.write_bytes(canonical_serialize({**config, "tick_limit": -1}))
    cli(2, "validate", "--config", bad)
    cli(2, "simulate", "--config", bad, "--out", work / "bad.log")
    # Valid as a config, but the transfer is from an account never registered.
    *script, transfer = config["script"]
    script.append({**transfer, "originator_account": "acct-nobody"})
    failing.write_bytes(canonical_serialize({**config, "script": script}))
    cli(1, "simulate", "--config", failing, "--out", work / "failing.log")


def unreached() -> list[str]:
    """The ``module.Qualname`` of every package function the product paths
    never call, measured in this process, which must not have imported
    ``coopattest`` yet."""
    import tempfile

    assert "coopattest" not in sys.modules, "measure in a fresh interpreter"
    sys.path.insert(0, str(PACKAGE.parent))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_scenarios()
        with tempfile.TemporaryDirectory() as work:
            run_cli(Path(work))
    finally:
        sys.setprofile(None)
    assert Path(sys.modules["coopattest"].__file__).parent == PACKAGE
    functions = defined_functions()
    for code in called:
        functions.pop((code.co_filename, code.co_firstlineno, code.co_name), None)
    return sorted(functions.values())


def test_every_function_is_reached_or_declared():
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    found = set(result.stdout.split())
    new = sorted(found - DECLARED.keys())
    stale = sorted(DECLARED.keys() - found)
    assert not new, f"no product path calls these, and they are not declared: {new}"
    assert not stale, f"declared as unreached, but called or no longer defined: {stale}"


def test_every_import_is_used_or_declared():
    found = set(unused_imports())
    new = sorted(found - UNUSED_IMPORTS.keys())
    stale = sorted(UNUSED_IMPORTS.keys() - found)
    assert not new, f"imported but never used, and not declared: {new}"
    assert not stale, f"declared as unused, but used or no longer imported: {stale}"


def test_the_table_has_one_entry_per_function_the_compiler_makes():
    """The table and this Python's compiler agree on where each function's
    code starts; a class body, a lambda or a comprehension is no entry."""
    made = set()

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    made.add((const.co_filename, const.co_firstlineno, const.co_name))
                walk(const)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(compile(path.read_bytes(), str(path), "exec"))
    assert made == defined_functions().keys()


if __name__ == "__main__":
    print("\n".join(unreached()))
