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

which prints the functions never called, one ``module.Qualname`` a line,
or with

    python tests/test_reach.py --lines

which runs the same product paths under ``sys.settrace`` and prints each
statement they never execute, one ``file:line`` a line (a ``raise`` and a
docstring aside).  The line listing is evidence for simplifying, not a
gate: no test reads it.

A verdict gate does the same for values: the (consumer, outcome, reason)
triples that the bundled scenarios and the benchmark's workloads log are
exactly the ones ``dsn.VERDICTS`` and ``travel_rule.VERDICTS`` declare,
less those in ``UNREACHED_VERDICTS``, each with the reason no script
reaches it.  A declared-unreached verdict that is logged, or no longer
declared, fails it too.

Beside them, a source gate reads each module's source: every name it
imports is used, or is in ``UNUSED_IMPORTS`` with the reason it stays,
and every module it imports by absolute name is in the standard library
or is ``cryptography``, the one runtime dependency.  Since that gate
counts a name in ``__all__`` as used, an export gate holds the package's
``__all__`` to exactly the names its ``__init__.py`` imports, each of
which the package has.
"""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coopattest"
GOLDEN_DIR = ROOT / "tests" / "goldens"

DECLARED = {
    "events.no_emit":
        "the emit of an actor used as a library; the harness binds every actor's emit",
    "dsn.Provider.request_sender_disclosure":
        "the provider side of the paper's legal point of contact for inquiries about a "
        "sender; no script action reaches it yet, tests/test_dsn.py::TestDisclosure pins it",
    "dsn.Provider._trace_attestation":
        "traces a post to its attestation for request_sender_disclosure",
}

# Each (consumer, outcome, reason) that a consumer declares and no product
# path logs, with the reason.  Every one needs what the harness never wires:
# it hands each consumer every notary and key, and asks a notary only about
# what it witnessed.
UNREACHED_VERDICTS = {
    ("dsn", "drop", "attestation-invalid"):
        "a post record points only at an attestation record its own ledger holds, checked "
        "at onboarding against keys and notaries every provider has; no action alters one",
    ("travel_rule", "rejected", "unknown-notary"):
        "every attestation names a notary of the config, and every exchange holds them all",
    ("travel_rule", "rejected", "unknown"):
        "the revalidation status of an attestation its notary never witnessed; every "
        "delivered attestation that passes its signatures was witnessed by the notary it names",
    ("travel_rule", "rejected", "unknown-attestation"):
        "the disclosure answer for an attestation its notary never witnessed; one asked "
        "about was first revalidated as witnessed",
}

# The consumer whose verdicts each kind of event logs.
VERDICT_KINDS = {"filter-decision": "dsn", "transfer-decision": "travel_rule"}

# Names a module imports but never uses, each with the reason it stays.
UNUSED_IMPORTS = {
    "harness.canonical_serialize":
        "perfbench/smoke.py checks that its tracing wraps the name in harness",
    "dsn.verify_countersigned":
        "perfbench/smoke.py checks that its tracing wraps the name in dsn; notary.vouch "
        "reaches it on a key pair's first check",
    "travel_rule.verify_countersigned":
        "perfbench/smoke.py checks that its tracing wraps the name in travel_rule; "
        "notary.vouch reaches it on a key pair's first check",
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


def foreign_imports() -> list[str]:
    """``module: name`` for each absolute import in a package module of a
    top-level module that is neither the standard library's nor
    ``cryptography``."""
    allowed, found = sys.stdlib_module_names | {"cryptography"}, []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    return sorted(found)


# --- the product paths -----------------------------------------------------------------

def scenario_configs() -> list:
    """The config of every bundled scenario and of each of the benchmark's
    workloads at its smoke-test size."""
    import importlib.util

    from coopattest.canonical import canonical_parse, canonical_serialize
    from coopattest.harness import ScenarioConfig, bundled_scenario_names, bundled_scenario_path

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
    return configs


def run_scenarios() -> None:
    """Every scenario config, run, written and read back."""
    from coopattest.harness import EventLog, run_scenario

    for config in scenario_configs():
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


def run_product_paths(set_hook: Callable, hook: Callable) -> None:
    """Run every product path in this process, which must not have imported
    ``coopattest`` yet, with *hook* set by *set_hook* (``sys.setprofile``
    or ``sys.settrace``) from before the import on."""
    import tempfile

    assert "coopattest" not in sys.modules, "measure in a fresh interpreter"
    sys.path.insert(0, str(PACKAGE.parent))
    set_hook(hook)
    try:
        run_scenarios()
        with tempfile.TemporaryDirectory() as work:
            run_cli(Path(work))
    finally:
        set_hook(None)
    assert Path(sys.modules["coopattest"].__file__).parent == PACKAGE


def unreached() -> list[str]:
    """The ``module.Qualname`` of every package function the product paths
    never call."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    run_product_paths(sys.setprofile, profile)
    functions = defined_functions()
    for code in called:
        functions.pop((code.co_filename, code.co_firstlineno, code.co_name), None)
    return sorted(functions.values())


def statements() -> list[tuple[str, int, range]]:
    """Each statement in the package that compiles to code, as (its file,
    its first line, the lines where running it is traced): all of a simple
    statement's, a compound one's up to its body.  A docstring or other
    bare constant, ``global`` and ``nonlocal`` compile to nothing; a
    ``raise`` is left out, since a refusal is what a product path is not
    meant to reach."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if not isinstance(node, ast.stmt) or isinstance(node, (
                    ast.Raise, ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue
            decorators = getattr(node, "decorator_list", None)
            first = decorators[0].lineno if decorators else node.lineno
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            found.append((str(path), first, range(first, last + 1)))
    return found


def unexecuted_lines() -> list[str]:
    """``file:line`` of each statement of ``statements()`` that the product
    paths never execute, the file relative to the repository."""
    package, ran = str(PACKAGE), set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(package) else None

    run_product_paths(sys.settrace, trace)
    return [f"{Path(path).relative_to(ROOT)}:{first}" for path, first, lines in sorted(
                statements(), key=lambda found: found[:2])
            if not any((path, line) in ran for line in lines)]


def test_every_function_is_reached_or_declared():
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    found = set(result.stdout.split())
    new = sorted(found - DECLARED.keys())
    stale = sorted(DECLARED.keys() - found)
    assert not new, f"no product path calls these, and they are not declared: {new}"
    assert not stale, f"declared as unreached, but called or no longer defined: {stale}"


def logged_verdicts() -> set[tuple[str, str, str]]:
    """The (consumer, outcome, reason) of every verdict the scenario configs log."""
    from coopattest.harness import run_scenario

    return {(VERDICT_KINDS[event.kind], event.payload["outcome"], event.payload["reason"])
            for config in scenario_configs() for event in run_scenario(config).events
            if event.kind in VERDICT_KINDS}


def declared_verdicts() -> set[tuple[str, str, str]]:
    from coopattest import dsn, travel_rule

    return {(name, outcome, reason)
            for name, consumer in (("dsn", dsn), ("travel_rule", travel_rule))
            for reason, outcome in consumer.VERDICTS.items()}


def test_every_verdict_is_reached_or_declared():
    found, declared = logged_verdicts(), declared_verdicts()
    new = sorted(declared - found - UNREACHED_VERDICTS.keys())
    stale = sorted(UNREACHED_VERDICTS.keys() - (declared - found))
    assert not new, f"no product path logs these verdicts, and they are not declared: {new}"
    assert not stale, f"declared as unreached, but logged or no longer declared: {stale}"
    assert found == declared - UNREACHED_VERDICTS.keys()


def test_every_import_is_used_or_declared():
    found = set(unused_imports())
    new = sorted(found - UNUSED_IMPORTS.keys())
    stale = sorted(UNUSED_IMPORTS.keys() - found)
    assert not new, f"imported but never used, and not declared: {new}"
    assert not stale, f"declared as unused, but used or no longer imported: {stale}"


def test_the_package_exports_exactly_what_it_imports():
    import coopattest

    tree = ast.parse((PACKAGE / "__init__.py").read_bytes())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(coopattest.__all__) == sorted(imported)
    missing = [name for name in coopattest.__all__ if not hasattr(coopattest, name)]
    assert not missing, f"exported but not on the package: {missing}"


def test_every_absolute_import_is_the_standard_library_or_cryptography():
    found = foreign_imports()
    assert not found, f"imported from outside the standard library and cryptography: {found}"


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
    print("\n".join(unexecuted_lines() if sys.argv[1:] == ["--lines"] else unreached()))
