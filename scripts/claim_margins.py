#!/usr/bin/env python3
"""Acceptance 7's claim margin across five disjoint 10-seed blocks.

For seeds 1-50 in blocks of ten, runs figure4_coexistence with adaptive
ED off and on (one ``coexsim simulate --compare-adaptive`` batch per
block) and prints each block's pooled median on/off throughput ratio for
Wi-Fi (sta1; acceptance 7 asks for at least 2.0) and LTE (ue1; at least
0.4) as a markdown table.  Takes under a minute on one core.

    python scripts/claim_margins.py
"""

import tempfile
from pathlib import Path

from run_coexistence_experiment import pooled_rows


def main() -> None:
    print("| seeds | Wi-Fi on/off | LTE on/off |")
    print("| --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for first in range(1, 51, 10):
            pooled = pooled_rows(first, 10, Path(tmp) / f"seeds_{first}.csv")
            wifi, lte = (float(pooled[("true", node)]["median_mbps"])
                         / float(pooled[("false", node)]["median_mbps"])
                         for node in ("sta1", "ue1"))
            print(f"| {first}-{first + 9} | {wifi:.2f} | {lte:.2f} |")


if __name__ == "__main__":
    main()
