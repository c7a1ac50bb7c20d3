"""Workload inputs for the coexsim benchmark.

A workload turns the benchmark seed into a list of ``coexsim`` command
lines (plus any generated config files) and the output files they
write.  Each command line is short (about a second of host time) and
is run on its own in a fresh process, so the host speed the child
measures around it applies to the whole command.  The seed is folded
into a pool of ``POOL`` input sets, one reference digest set per pool
entry (``reference.json``), so any ``--seed`` maps to inputs whose
correct output bytes are known.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL = 16
WORKLOADS = ("hidden_base", "dense_cells", "coverage_table", "ack_window_trace")

# hidden_base: figure4 seeds (one command line each) and their simulated length.
HIDDEN_SEEDS = 3
HIDDEN_DURATION_S = 1.5
HIDDEN_WARMUP_S = 0.5
# dense_cells: (columns, rows) of the base grid and simulated seconds per rung.
DENSE_LADDER = (((2, 2), 0.2), ((4, 4), 0.1), ((6, 6), 0.05))
DENSE_CLIENTS_PER_BASE = 3
DENSE_SIM_SEED = 1
DENSE_BUILDING = (50.0, 120.0)
# coverage_table: Monte-Carlo points per preset.
COVERAGE_SAMPLES = 1_000_000
COVERAGE_PRESETS = ("table1_inh", "table1_diffusion")
# ack_window_trace: traced figure3 seeds (one command line each) and their length.
ACK_SEEDS = 3
ACK_DURATION_S = 4.0


@dataclass
class Job:
    """The command lines of one repetition and the files they write."""

    workload: str
    index: int
    # (argv for coexsim.cli.main, names of the files it writes in the out dir)
    runs: list = field(default_factory=list)
    # the calibration kernel that tracks the host's speed at this job's work
    # (see child.py): "python" for the event simulator, "numpy" for the
    # vectorised coverage analytics, which a busy host slows differently
    calibration: str = "python"


def pool_index(seed: int) -> int:
    return seed % POOL


def dense_config(grid: tuple, layout_seed: int, duration_s: float) -> dict:
    """A multi-cell building: bases on a grid, clients inside their own cell.

    Each base sits at the centre of its grid rectangle and its clients
    are drawn uniformly inside that rectangle, so every client is closer
    to its own base than to any other and its link clears the lowest
    rate threshold by tens of dB.  (``clients:``/``generate_topology``
    scatters clients over the whole building instead, and those
    multi-cell scenarios stop with a below-threshold link.)  Bases
    alternate Wi-Fi AP / LTE eNB in a checkerboard; even rows use
    channel 36 and odd rows channel 40.

    ``layout_seed`` draws the client positions.  The simulator seed stays
    ``DENSE_SIM_SEED``: with it the shadowing and backoff streams are the
    same for every layout, so the work per rung follows the geometry
    (about 4% apart between layouts at 144 nodes, against 14% when the
    simulator seed varies too).
    """
    cols, rows = grid
    width, depth = DENSE_BUILDING
    cell_w, cell_d = width / cols, depth / rows
    rng = random.Random(f"dense_cells/{cols}x{rows}/{layout_seed}")
    nodes = []
    for r in range(rows):
        for c in range(cols):
            wifi = (r + c) % 2 == 0
            channel = 36 if r % 2 == 0 else 40
            base_id = f"{'ap' if wifi else 'enb'}{r:02d}{c:02d}"
            x0, y0 = c * cell_w, r * cell_d
            nodes.append({"id": base_id, "kind": "wifi_ap" if wifi else "lte_enb",
                          "position": [x0 + cell_w / 2, y0 + cell_d / 2],
                          "channel": channel})
            for k in range(DENSE_CLIENTS_PER_BASE):
                nodes.append({"id": f"{base_id}c{k}",
                              "kind": "wifi_sta" if wifi else "lte_ue",
                              "position": [x0 + rng.uniform(0.0, cell_w),
                                           y0 + rng.uniform(0.0, cell_d)],
                              "channel": channel, "attach_to": base_id})
    # Short beacon, relay and adaptation periods so that relaying and
    # threshold adaptation run several rounds inside the short horizon.
    return {
        "seed": DENSE_SIM_SEED,
        "building": {"width_m": width, "depth_m": depth},
        "channels": [36, 40],
        "simulate": {"duration_s": duration_s, "warmup_s": 0.0, "adaptive_ed": True},
        "nodes": nodes,
        "traffic": {"model": "full_buffer"},
        "wifi_mac": {"rts_cts": True, "beacon_interval_ms": 20.0},
        "lte_mac": {"burst_ms": 2.0},
        "coordination": {"wifi": {"update_period_s": 0.02, "safety_margin_db": 1.0},
                         "lte": {"update_period_s": 0.02, "safety_margin_db": 1.0}},
        "relay": {"enabled": True, "latency_ms": 2.0},
    }


def build_job(workload: str, seed: int, work_dir: Path, out_dir: Path) -> Job:
    """The repetition inputs for ``workload`` at ``seed``.

    Generated config files are written into ``work_dir``.  Every output
    goes to ``out_dir`` under the file name listed beside its command
    line, so the caller can hash and remove them after each repetition.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    idx = pool_index(seed)
    job = Job(workload, idx)
    out = str(out_dir)
    if workload == "hidden_base":
        for k in range(HIDDEN_SEEDS):
            s = 1 + HIDDEN_SEEDS * idx + k
            job.runs.append(([
                "simulate", "--config", "figure4_coexistence", "--compare-adaptive",
                "--runs", "1", "--seed", str(s),
                "--set", "traffic.model=full_buffer",
                "--set", f"simulate.duration_s={HIDDEN_DURATION_S}",
                "--set", f"simulate.warmup_s={HIDDEN_WARMUP_S}",
                "--out", f"{out}/hidden_{s}.csv",
            ], [f"hidden_{s}.csv"]))
    elif workload == "dense_cells":
        for (cols, rows), duration_s in DENSE_LADDER:
            name = f"dense_{cols * rows * (1 + DENSE_CLIENTS_PER_BASE)}"
            path = work_dir / f"{name}.json"
            # JSON is valid YAML, and exact for the float positions.
            path.write_text(json.dumps(dense_config((cols, rows), 1 + idx, duration_s)))
            job.runs.append((["simulate", "--config", str(path),
                               "--out", f"{out}/{name}.csv"], [f"{name}.csv"]))
    elif workload == "coverage_table":
        job.calibration = "numpy"
        for preset in COVERAGE_PRESETS:
            job.runs.append(([
                "coverage", "--config", preset, "--seed", str(1 + idx),
                "--set", f"coverage.samples={COVERAGE_SAMPLES}",
                "--out", f"{out}/{preset}.csv",
            ], [f"{preset}.csv", f"{preset}_cdf.csv"]))
    else:
        for k in range(ACK_SEEDS):
            s = 1 + ACK_SEEDS * idx + k
            job.runs.append(([
                "simulate", "--config", "figure3_collision", "--seed", str(s),
                "--set", f"simulate.duration_s={ACK_DURATION_S}",
                "--out", f"{out}/ack_{s}.csv", "--trace", f"{out}/ack_{s}_trace.csv",
            ], [f"ack_{s}.csv", f"ack_{s}_trace.csv"]))
    return job
