"""Command-line front end.

Subcommands expose the analytics and the simulator as reproducible
experiments with CSV output:

    coexsim coverage --config table1_inh --out table.csv
    coexsim edprob --rssi -52,-52 --threshold -62
    coexsim select --config scan.yaml
    coexsim adapt --config scan.yaml
    coexsim beacon encode --config cell.yaml
    coexsim beacon decode --hex 000a...
    coexsim simulate --config figure4_coexistence --compare-adaptive --runs 10
    coexsim sweep --config figure4_coexistence --runs 10

Exit codes: 0 success, 2 configuration error, 3 runtime error.  Output
is deterministic for a fixed (config, seed): floats are printed with
six significant digits and rows are fully ordered.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, Node
from .coordination import adapt_ed_threshold, channel_metric, filter_scan, select_channel
from .relay import (
    BeaconDecodeError,
    decode_pseudo_beacon,
    encode_pseudo_beacon,
    hex_to_ies,
    ies_to_hex,
)
from .sensing import EdConfig, coverage_of, ed_success_factors, ed_success_prob, sample_rssi_dbm
from .simulator import AIRTIME_KEYS, Simulator, median

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def fmt(value) -> str:
    """Six-significant-digit float formatting for byte-stable CSV."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_rows(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def load_with_overrides(args) -> dict:
    cfg = cfgmod.load_config(args.config)
    cfgmod.apply_overrides(cfg, args.set or [])
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


# -- coverage -----------------------------------------------------------------

def cmd_coverage(args) -> int:
    cfg = load_with_overrides(args)
    spec = cfgmod.build_coverage_spec(cfg)
    base = Node(id="base", kind="wifi_ap", position=spec.base_position,
                tx_power_dbm=spec.tx_power_dbm)
    header = ["model"]
    for threshold in spec.thresholds_dbm:
        for cell_name, _ in spec.cells:
            header.append(f"{cell_name}_ed_{fmt(threshold)}")
    header += [f"{name}_cell_fraction" for name, _ in spec.cells]
    rows = []
    cdf_rows = []
    for model in spec.models:
        # each helper draws its own sample, so the table sample is freed
        # before the CDF sample is drawn
        rows.append(_coverage_row(spec, base, model, spec.seed))
        cdf_rows.extend(_rssi_cdf_rows(spec, base, model, spec.seed))
    write_rows(args.out, header, rows)
    cdf_path = args.cdf_out
    if cdf_path is None and args.out not in (None, "-"):
        cdf_path = str(args.out).rsplit(".", 1)[0] + "_cdf.csv"
    if cdf_path:
        write_rows(cdf_path, ["model", "rssi_dbm", "cum_fraction"], cdf_rows)
    return EXIT_OK


def _sample(spec, base, model, stream):
    return sample_rssi_dbm(spec.building, base, model, spec.samples,
                           np.random.default_rng(stream), spec.include_shadow,
                           spec.margin_db)


def _coverage_row(spec, base, model, seed):
    """One model's table row, every fraction counted from one draw."""
    rssis = _sample(spec, base, model, [seed, 7])
    row = [model.variant]
    for threshold in spec.thresholds_dbm:
        for _, sensitivity in spec.cells:
            ed = EdConfig(threshold_dbm=threshold, min_sensitivity_dbm=sensitivity)
            row.append(coverage_of(rssis, ed).ed_fraction)
    for _, sensitivity in spec.cells:
        ed = EdConfig(threshold_dbm=-np.inf, min_sensitivity_dbm=sensitivity)
        row.append(coverage_of(rssis, ed).cell_fraction)
    return row


def _rssi_cdf_rows(spec, base, model, seed):
    rssis = _sample(spec, base, model, [seed, 8])
    rssis.sort()
    lo = np.floor(rssis[0] / spec.cdf_bin_db) * spec.cdf_bin_db
    hi = np.ceil(rssis[-1] / spec.cdf_bin_db) * spec.cdf_bin_db
    levels = np.arange(lo, hi + spec.cdf_bin_db, spec.cdf_bin_db)
    fractions = np.searchsorted(rssis, levels, side="right") / rssis.size
    return [(model.variant, float(level), float(fraction))
            for level, fraction in zip(levels, fractions)]


# -- edprob ---------------------------------------------------------------------

def cmd_edprob(args) -> int:
    try:
        rssis = [float(tok) for tok in args.rssi.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse rssi list: {exc}") from exc
    if not rssis:
        raise ConfigError("rssi list is empty")
    prob = ed_success_prob(rssis, args.threshold)
    factors = ed_success_factors(rssis, args.threshold)
    for level, factor in zip(rssis, factors):
        print(f"link rssi={fmt(level)} dBm factor={fmt(factor)}")
    print(f"ed_success_prob={fmt(prob)}")
    return EXIT_OK


# -- select / adapt ---------------------------------------------------------------

def cmd_select(args) -> int:
    scan, channels, running_on, select_cfg = cfgmod.build_select(load_with_overrides(args))
    kept = filter_scan(scan, select_cfg)
    metrics = []
    for channel in channels:
        entries = [e for e in kept if e.cell.channel == channel]
        metric = channel_metric(entries, select_cfg, running_on)
        metric.channel = channel
        metrics.append(metric)
    chosen = select_channel(metrics)
    rows = [(m.channel, m.metric, len(m.contributors)) for m in metrics]
    write_rows(args.out, ["channel", "metric", "contributors"], rows)
    print(f"selected_channel={chosen}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    scan, adapt_cfg, own_channel = cfgmod.build_adapt(load_with_overrides(args))
    threshold = adapt_ed_threshold(scan, adapt_cfg, own_channel=own_channel)
    print(f"ed_threshold_dbm={fmt(threshold)}")
    return EXIT_OK


# -- beacon -------------------------------------------------------------------------

def cmd_beacon(args) -> int:
    if args.beacon_cmd == "encode":
        cfg = cfgmod.load_config(args.config) if args.config else {}
        flags = {"operator_cell_id": args.cell_id, "channel": args.channel}
        cell = cfgmod.build_cell(cfg, {k: v for k, v in flags.items() if v is not None})
        print(ies_to_hex(encode_pseudo_beacon(cell)))
        return EXIT_OK
    # decode
    cell = decode_pseudo_beacon(hex_to_ies(args.hex))
    for name, value in asdict(cell).items():
        print(f"{name}={value.name.lower() if isinstance(value, Enum) else fmt(value)}")
    return EXIT_OK


# -- simulate / sweep ------------------------------------------------------------------

SIM_HEADER = [
    "seed", "adaptive", "node", "tech", "role", "files",
    "median_mbps", "mean_mbps", "collisions", "ack_window_collisions",
    "retransmissions", *(f"airtime_{key}" for key in AIRTIME_KEYS),
]


def _client_row(seed, adaptive: bool, node: Node, runs: list) -> tuple:
    """``node``'s row over the Metrics of ``runs``, one per seed row or many pooled.

    The file throughputs are pooled, the counters summed and the airtime
    fractions averaged over the runs.
    """
    tputs = [t for m in runs for t in m.file_throughputs_mbps.get(node.id, [])]
    return (
        seed, adaptive, node.id, node.technology, "client", len(tputs),
        median(tputs) if tputs else 0.0,
        sum(tputs) / len(tputs) if tputs else 0.0,
        sum(m.collision_count for m in runs),
        sum(m.ack_window_collisions for m in runs),
        sum(m.retransmissions for m in runs),
        *(sum(m.airtime[key] for m in runs) / len(runs) for key in AIRTIME_KEYS),
    )


def _seeded(cfg: dict, first, runs: int):
    """The batch's scenario per seed: ``first``, then one build for each later seed."""
    yield first
    for i in range(1, runs):
        cfg["seed"] = first.seed + i
        yield cfgmod.build_scenario(cfg)


def _run_batch(scenarios, adaptive_values, pooled=False, trace_path=None):
    """A row per (seed, adaptive, client), then with ``pooled`` one per (adaptive, client)."""
    rows = []
    runs: dict = {}  # (adaptive, client id) -> (node, Metrics of each run it is in)
    trace_lines = None
    for seeded in scenarios:
        clients = sorted((n for n in seeded.nodes if n.attach_to is not None),
                         key=lambda n: n.id)
        for adaptive in adaptive_values:
            want_trace = trace_path is not None and trace_lines is None
            sim = Simulator(replace(seeded, adaptive_ed=adaptive), collect_trace=want_trace)
            metrics = sim.run()
            if want_trace:
                trace_lines = sim.trace_lines
            for node in clients:
                rows.append(_client_row(seeded.seed, adaptive, node, [metrics]))
                runs.setdefault((adaptive, node.id), (node, []))[1].append(metrics)
    if trace_path and trace_lines is not None:
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time_us,node,tech,record,detail\n")
            fh.writelines(line + "\n" for line in trace_lines)
    if pooled:
        rows += [_client_row("pooled", adaptive, node, node_runs)
                 for (adaptive, _), (node, node_runs) in sorted(runs.items())]
    return rows


def cmd_simulate(args, pooled: bool = True) -> int:
    if args.runs < 1:
        raise ConfigError("--runs must be at least 1")
    cfg = load_with_overrides(args)
    first = cfgmod.build_scenario(cfg)
    adaptive_values = [False, True] if args.compare_adaptive else [first.adaptive_ed]
    rows = _run_batch(_seeded(cfg, first, args.runs), adaptive_values,
                      pooled=pooled and (args.runs > 1 or args.compare_adaptive),
                      trace_path=args.trace)
    write_rows(args.out, SIM_HEADER, rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """``simulate --runs N`` without the pooled rows: one row per (seed, node)."""
    args.compare_adaptive, args.trace = False, None
    return cmd_simulate(args, pooled=False)


# -- argument parsing -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexsim",
        description="Wi-Fi / unlicensed-LTE coexistence analytics and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="config file path or preset name")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable")

    p_cov = sub.add_parser("coverage", help="fractional ED coverage table + RSSI CDF")
    add_common(p_cov)
    p_cov.add_argument("--cdf-out", default=None, help="CDF output path")
    p_cov.set_defaults(func=cmd_coverage)

    p_ed = sub.add_parser("edprob", help="closed-form ED success probability")
    p_ed.add_argument("--rssi", required=True,
                      help="comma-separated mean RSSI list in dBm")
    p_ed.add_argument("--threshold", type=float, required=True)
    p_ed.set_defaults(func=cmd_edprob)

    p_sel = sub.add_parser("select", help="run channel selection on a scan file")
    add_common(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_adapt = sub.add_parser("adapt", help="run adaptive ED thresholding on a scan file")
    add_common(p_adapt)
    p_adapt.set_defaults(func=cmd_adapt)

    p_beacon = sub.add_parser("beacon", help="pseudo-beacon codec")
    beacon_sub = p_beacon.add_subparsers(dest="beacon_cmd", required=True)
    p_enc = beacon_sub.add_parser("encode")
    p_enc.add_argument("--config", default=None, help="YAML with a cell: section")
    p_enc.add_argument("--cell-id", default=None)
    p_enc.add_argument("--channel", type=int, default=None)
    p_enc.set_defaults(func=cmd_beacon)
    p_dec = beacon_sub.add_parser("decode")
    p_dec.add_argument("--hex", required=True, help="lowercase hex IE string")
    p_dec.set_defaults(func=cmd_beacon)

    p_sim = sub.add_parser("simulate", help="run a scenario, emit per-node metrics")
    add_common(p_sim)
    p_sim.add_argument("--runs", type=int, default=1, help="number of seeds")
    p_sim.add_argument("--compare-adaptive", action="store_true",
                       help="run each seed with adaptation off and on")
    p_sim.add_argument("--trace", default=None, help="per-event trace output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="multi-seed scenario sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--runs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def check_output_dirs(args) -> None:
    """Reject an output path that is a directory or lies in a missing one, before any run."""
    for flag in ("out", "trace", "cdf_out"):
        path = getattr(args, flag, None)
        if path not in (None, "-") and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ConfigError(f"--{flag.replace('_', '-')} {path}: "
                              "not a file in an existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_output_dirs(args)
        return args.func(args)
    except (ConfigError, BeaconDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
