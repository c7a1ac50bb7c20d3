"""Record the reference output digests of every workload input set.

Usage (from the repository root): ``python3 perfbench/record.py [WORKLOAD ...]``

Runs each input set of the named workloads (all by default) once and
writes the sha256 of every output file to ``perfbench/reference.json``,
keeping the entries of workloads not named.  Re-record only for a change
that is meant to alter coexsim's output bytes, and say so in its notes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from run import HERE, WORK, BenchError, load_spec, run_child, warm_up
from workloads import POOL, WORKLOADS, build_job

# Table-1 fractions asserted by tests/test_acceptance.py criteria 3 and 4.
TABLE1 = {
    "inh": {"wifi_ed_-62": 0.51, "ulte_ed_-62": 0.45, "wifi_ed_-72": 0.58,
            "ulte_ed_-72": 0.52, "wifi_cell_fraction": 0.87},
    "diffusion": {"wifi_cell_fraction": 0.62, "wifi_ed_-62": 0.32, "ulte_ed_-62": 0.26},
}


def main(argv) -> int:
    names = argv[1:] or list(WORKLOADS)
    try:
        _, refs = load_spec()
    except (BenchError, OSError, ValueError):
        refs = {}
    warm_up()
    digests = refs.get("digests", {})
    for workload in names:
        digests[workload] = {}
        for idx in range(POOL):
            job = build_job(workload, idx, WORK, WORK / "out")
            digests[workload][str(idx)] = {}
            # one child per command line, as the benchmark runs them
            for command in job.runs:
                rep = run_child(replace(job, runs=[command]), traced=False, refs=None)
                if rep.get("crashed") or not all(rep["ok"]):
                    print(f"{workload} input set {idx} failed", file=sys.stderr)
                    for run in rep.get("runs", []):
                        if run["error"]:
                            print(run["error"], file=sys.stderr)
                    return 1
                digests[workload][str(idx)].update(rep["digests"])
            print(f"{workload} {idx}: done", flush=True)
    refs = {"pool": POOL, "table1": TABLE1, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
