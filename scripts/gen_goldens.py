#!/usr/bin/env python3
"""Regenerate the golden event logs under tests/goldens/.

Run from the repository root after a deliberate change to the event-log
format, and declare the change in CHANGES.md:

    PYTHONPATH=src python scripts/gen_goldens.py

Each bundled scenario is run and its log written as ``<name>.log``.  The
logs of the first format stay under tests/goldens/v1/; a test maps each
of them to the current format and compares it with these files.
"""

from pathlib import Path

from coopattest.harness import (
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
)

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"


def main():
    for name in bundled_scenario_names():
        path = OUT_DIR / f"{name}.log"
        run_scenario(ScenarioConfig.load(bundled_scenario_path(name))).write(path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
