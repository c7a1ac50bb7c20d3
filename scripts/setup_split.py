#!/usr/bin/env python3
"""Time each setup phase of a ``coexsim`` run, in fresh processes.

For one config (a path or a preset name) and optional ``--set`` values,
starts a new interpreter per repetition, one at a time, and times in
it, in order: ``import numpy`` (with ``numpy.random``, which numpy
loads on first use and the simulator needs), ``import yaml``,
``import coexsim.cli`` (coexsim's own share, since numpy and yaml are
loaded by then), ``load_with_overrides``, then ``build_scenario`` and
``Simulator()`` for a config with ``nodes``, or ``build_coverage_spec``
for one without (a ``coverage`` config such as ``table1_inh``).  Prints
the best and the median of each phase over the repetitions, in ms.  The
imports run in the child as they do in the CLI, so when the environment
turns bytecode caching off (``PYTHONDONTWRITEBYTECODE``), the coexsim
import includes compiling its source.

Uses only the standard library; run by hand from the repository root,
not part of the test suite:

    python scripts/setup_split.py --config figure4_coexistence
    python scripts/setup_split.py --config table1_inh
    python scripts/setup_split.py --config dense_144.json --repeat 9
    python scripts/setup_split.py --config figure4_coexistence \\
        --set traffic.model=full_buffer --set simulate.duration_s=1.5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child; argv[1] is the JSON list of (config, overrides).  Prints
# the JSON list of (phase, seconds) pairs.
CHILD = """
import json, sys, time
config, overrides = json.loads(sys.argv[1])
marks = [time.perf_counter()]
import numpy.random
marks.append(time.perf_counter())
import yaml
marks.append(time.perf_counter())
import argparse
from coexsim import cli
marks.append(time.perf_counter())
cfg = cli.load_with_overrides(argparse.Namespace(config=config, set=overrides, seed=None))
marks.append(time.perf_counter())
phases = ["import numpy", "import yaml", "import coexsim.cli", "load_with_overrides"]
if cfg.get("nodes"):
    scenario = cli.cfgmod.build_scenario(cfg)
    marks.append(time.perf_counter())
    cli.Simulator(scenario)
    marks.append(time.perf_counter())
    phases += ["build_scenario", "Simulator()"]
else:
    cli.cfgmod.build_coverage_spec(cfg)
    marks.append(time.perf_counter())
    phases.append("build_coverage_spec")
print(json.dumps(list(zip(phases, [b - a for a, b in zip(marks, marks[1:])]))))
"""


def run_child(config: str, overrides: list[str]) -> list:
    """One fresh interpreter's (phase, seconds) pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps([config, overrides])],
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"setup run failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--config", required=True, help="config file path or preset name")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config override, repeatable")
    parser.add_argument("--repeat", type=int, default=5, help="fresh processes (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    runs = [run_child(args.config, args.set) for _ in range(args.repeat)]
    phases = [phase for phase, _ in runs[0]] + ["total"]
    print(f"{'phase':<22}{'best ms':>10}{'median ms':>11}")
    for i, phase in enumerate(phases):
        times = [sum(t for _, t in r) if phase == "total" else r[i][1] for r in runs]
        print(f"{phase:<22}{min(times) * 1e3:>10.2f}{statistics.median(times) * 1e3:>11.2f}")


if __name__ == "__main__":
    main()
