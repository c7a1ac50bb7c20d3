#!/usr/bin/env python3
"""Adaptive-threshold coexistence experiment.

Runs the hidden-base scenario over a seed sweep with adaptation off and
on as one ``coexsim simulate --compare-adaptive`` batch, writes the
per-run CSV under ./results/, and prints the pooled median downlink
file throughput per technology from the CSV's pooled rows.

    python scripts/run_coexistence_experiment.py [--runs 10] [--seed 1]
"""

import argparse
import csv
from pathlib import Path

from coexsim.cli import main as cli_main
from coexsim.simulator import jain_index


def pooled_rows(seed: int, runs: int, out: Path) -> dict:
    """Run figure4_coexistence on ``runs`` seeds from ``seed`` with adaptation
    off and on, write the CSV to ``out`` and return its pooled rows keyed
    by (adaptive, node), adaptive being "false" or "true"."""
    rc = cli_main([
        "simulate", "--config", "figure4_coexistence",
        "--seed", str(seed), "--runs", str(runs),
        "--compare-adaptive", "--out", str(out),
    ])
    if rc != 0:
        raise SystemExit(rc)
    with open(out, newline="", encoding="utf-8") as fh:
        return {(row["adaptive"], row["node"]): row
                for row in csv.DictReader(fh) if row["seed"] == "pooled"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "coexistence_comparison.csv"
    pooled = pooled_rows(args.seed, args.runs, out)

    def median(adaptive, node):
        row = pooled[(adaptive, node)]
        return float(row["median_mbps"]), int(row["files"])

    wifi_off, n_wo = median("false", "sta1")
    lte_off, n_lo = median("false", "ue1")
    wifi_on, n_wn = median("true", "sta1")
    lte_on, n_ln = median("true", "ue1")

    print(f"adaptive off: wifi median {wifi_off:5.1f} Mbps ({n_wo} files), "
          f"lte median {lte_off:5.1f} Mbps ({n_lo} files)")
    print(f"adaptive on : wifi median {wifi_on:5.1f} Mbps ({n_wn} files), "
          f"lte median {lte_on:5.1f} Mbps ({n_ln} files)")
    print(f"wifi gain x{wifi_on / wifi_off:.2f}, lte change "
          f"{(lte_on - lte_off) / lte_off * 100:+.0f}%, "
          f"sum {wifi_off + lte_off:.1f} -> {wifi_on + lte_on:.1f} Mbps, "
          f"fairness {jain_index([wifi_off, lte_off]):.3f} -> "
          f"{jain_index([wifi_on, lte_on]):.3f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
