#!/usr/bin/env python3
"""Regenerate the golden event logs under tests/goldens/.

Run from the repository root after a deliberate change to the event-log
format, and declare the change in CHANGES.md:

    PYTHONPATH=src python scripts/gen_goldens.py

Each bundled scenario is run and its log written as ``<name>.log``.  The
logs of the first format stay under tests/goldens/v1/; a test maps each
of them to the current format and compares it with these files.

The attestation files under tests/goldens/pipeline/ come from ``issue``
and then ``countersign``, run on copies of the golden state files, which
stay as they are; a test reruns the two commands and compares the bytes.
"""

import shutil
import tempfile
from pathlib import Path

from coopattest.cli import main as cli_main
from coopattest.harness import (
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
)

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"


def write_pipeline(out: Path) -> None:
    with tempfile.TemporaryDirectory() as work:
        coop, notary = Path(work) / "coop.state", Path(work) / "notary.state"
        shutil.copyfile(OUT_DIR / "coop.state", coop)
        shutil.copyfile(OUT_DIR / "notary.state", notary)
        plain, blinded = out / "plain.att", out / "blinded.att"
        for args in (["issue", "--coop", coop, "--member", "alice",
                      "--attrs", "age-over-18,residence-country", "--mode", "handle",
                      "--now", "20", "--ttl", "50", "--out-plain", plain, "--out-blinded", blinded],
                     ["countersign", "--notary", notary, "--plain", plain, "--blinded", blinded,
                      "--now", "21", "--out", out / "countersigned.att"]):
            if cli_main([str(arg) for arg in args]) != 0:
                raise SystemExit(f"coopattest {args[0]} failed")


def main():
    for name in bundled_scenario_names():
        path = OUT_DIR / f"{name}.log"
        run_scenario(ScenarioConfig.load(bundled_scenario_path(name))).write(path)
        print(f"wrote {path}")
    pipeline = OUT_DIR / "pipeline"
    pipeline.mkdir(exist_ok=True)
    write_pipeline(pipeline)
    print(f"wrote {pipeline}/{{plain,blinded,countersigned}}.att")


if __name__ == "__main__":
    main()
