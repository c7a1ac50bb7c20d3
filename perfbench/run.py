"""coexsim benchmark: end-to-end host time per workload, or the per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload hidden_base --seed 3 --seconds 30 --trace 0

Workloads, metrics and their bounds are defined in ``BENCHMARK.json``;
``perfbench/predictions.json`` says which layer each workload stresses
and which numbers a change to that layer should move.

A workload is a batch of short ``coexsim`` command lines.  Each
repetition runs one of them in a fresh child Python process
(``child.py``), one child at a time, taking the command lines in turn
until ``--seconds`` have passed.  Every output file is checked against
the sha256 recorded for this input in ``reference.json``; a command
that raises, exits non-zero or writes other bytes is a failed run.
``--trace 0`` reports the batch's end-to-end metrics: the median of
each command line's repetitions, summed over the batch, with host
times scaled to a reference host speed by a calibration loop timed in
every child (see ``speed_factor``); the times as measured are printed
beside them.  ``--trace 1`` runs each command line untraced
then traced and reports the per-layer metrics from the traced
repetitions, plus the tracing overhead (traced over untraced wall
time).  Human-readable rows go first; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import totals
from workloads import WORKLOADS, Job, build_job

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120.0  # a repetition takes a few seconds; keeps a run under 180 s
SETUP_SPANS = ("cli.load_with_overrides", "config.build_scenario",
               "config.build_coverage_spec", "sim.init")
CONFIG_SPANS = ("config.load_config", "config.apply_overrides",
                "config.build_scenario", "config.build_coverage_spec")
# Each calibration kernel's time at the reference speed the end-to-end times
# are scaled to: about its time on an uncontended 2.1 GHz Xeon vCPU.
CALIBRATION_REF_NS = {"python": 1_000_000, "numpy": 150_000}
# Per-layer metrics taken over the whole run rather than one traced repetition.
RUN_LEVEL_LAYER_METRICS = ("engine.us_per_event", "tracing.overhead", "sensing.ref_abs_err")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed coexsim run)."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wait_child(proc: subprocess.Popen, timeout_s: float):
    """Reap ``proc`` with its rusage, killing it after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(job, traced: bool, refs: dict | None) -> dict:
    """One repetition: run the job's commands in a fresh process.

    Returns the child's report plus ``wall_s``, ``peak_rss_mb``, the
    per-command ``ok`` flags and ``digests`` of every output file.  With
    ``refs`` (file name -> sha256), an output that differs fails its run.
    """
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job_path, result_path = WORK / "job.json", WORK / "result.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps({
        "invocations": [argv for argv, _ in job.runs],
        "calibration": job.calibration,
        "traced": traced,
        "result": str(result_path),
    }))
    with open(WORK / "child.log", "w") as log:
        t_spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        rc, usage = wait_child(proc, CHILD_TIMEOUT_S)
    if rc != 0 or not result_path.exists():
        tail = (WORK / "child.log").read_text()[-2000:]
        return {"ok": [False] * len(job.runs), "crashed": True, "log": tail}
    rep = json.loads(result_path.read_text())
    rep["wall_s"] = (rep["t_done_ns"] - t_spawn_ns) / 1e9
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    rep["digests"] = {}
    rep["ok"] = []
    for (argv, outputs), run in zip(job.runs, rep["runs"]):
        ok = run["rc"] == 0
        for name in outputs:
            path = out_dir / name
            rep["digests"][name] = sha256(path) if path.exists() else None
            if refs is not None and rep["digests"][name] != refs.get(name):
                ok = False
        if run["rc"] == 0 and job.workload == "coverage_table":
            rep.setdefault("coverage_rows", []).extend(read_rows(out_dir / outputs[0]))
        rep["ok"].append(ok)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def read_rows(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ref_abs_err(rows: list, table1: dict) -> float:
    """Largest gap between computed coverage fractions and Table 1."""
    gaps = [abs(float(row[col]) - value)
            for row in rows for col, value in table1.get(row["model"], {}).items()]
    return max(gaps) if gaps else 0.0


# -- metrics ----------------------------------------------------------------------

def span_s(rep: dict, name: str, parent: str | None = None, self_time: bool = False) -> float:
    calls, total, own = totals(rep["spans"], name, parent)
    return (own if self_time else total) / 1e9


def calls(rep: dict, name: str) -> int:
    return totals(rep["spans"], name)[0]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def speed_factor(rep: dict) -> float:
    """Reference calibration time over the repetition's own (1 = reference speed).

    The host's speed drifts by up to 40% within seconds and between
    minutes, because it shares its cores.  The child times a fixed
    calibration kernel every 50 ms while it runs; scaling the
    repetition's host times by this factor gives the seconds it would
    have taken at the reference speed.  The samples themselves take
    at most 2% of every time, on every commit alike.
    """
    return (CALIBRATION_REF_NS[rep["calibration_kernel"]]
            / statistics.mean(rep["calibration_ns"]))


def parts(rep: dict, scale: bool = True) -> dict:
    """Host-time parts of one untraced repetition of one command line.

    ``work`` is simulated seconds for the simulator workloads, and
    coverage points for ``coverage_table``; ``core_s`` is the host time
    that did that work: ``Simulator.run``, or the coverage computation.
    Times are at the reference speed unless ``scale`` is false.
    """
    setup = rep["import_ns"] / 1e9 + sum(span_s(rep, n) for n in SETUP_SPANS)
    counters = rep["counters"]
    if counters.get("coverage_points"):
        core = (span_s(rep, "cli.cmd_coverage")
                - span_s(rep, "cli.load_with_overrides", parent="cli.cmd_coverage")
                - span_s(rep, "config.build_coverage_spec", parent="cli.cmd_coverage"))
        work = counters["coverage_points"]
    else:
        core = span_s(rep, "sim.run")
        work = counters.get("sim_s", 0.0)
    f = speed_factor(rep) if scale else 1.0
    return {"wall_s": rep["wall_s"] * f, "setup_s": setup * f, "core_s": core * f,
            "work": work, "peak_rss_mb": rep["peak_rss_mb"]}


def typical(reps: list, scale: bool = True) -> dict:
    """Each part at its median over the repetitions of one command line."""
    ps = [parts(r, scale) for r in reps]
    return {k: statistics.median(p[k] for p in ps) for k in ps[0]}


def end_to_end(per_command: list) -> dict:
    """End-to-end metrics of the batch, from the parts of each command line.

    Times add up over the batch's command lines, ``work_per_s`` is the
    batch's work over its core host time (simulated seconds per host
    second, or coverage points per host second), and ``peak_rss_mb`` is
    the largest child's.
    """
    core = sum(p["core_s"] for p in per_command)
    return {"wall_s": sum(p["wall_s"] for p in per_command),
            "setup_s": sum(p["setup_s"] for p in per_command),
            "work_per_s": ratio(sum(p["work"] for p in per_command), core),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in per_command)}


def merge(reps: list) -> dict:
    """One traced repetition of each command line, added up into one for the batch."""
    agg, counters = {}, {}
    for rep in reps:
        for p, n, c, t, own in rep["spans"]:
            rec = agg.setdefault((p, n), [0, 0, 0])
            rec[0] += c
            rec[1] += t
            rec[2] += own
        for key, value in rep["counters"].items():
            counters[key] = (max(counters.get(key, 0), value) if key == "heap_max"
                             else counters.get(key, 0) + value)
    return {"spans": [[p, n, *rec] for (p, n), rec in sorted(agg.items())],
            "counters": counters, "wall_s": sum(r["wall_s"] for r in reps)}


def per_layer(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    c = rep["counters"].get
    events = c("events.slot_tick", 0) + c("events.other", 0)
    attempts = (calls(rep, "mac_wifi.start_data") + calls(rep, "mac_wifi.start_rts")
                + calls(rep, "mac_lte.start_burst"))
    m = {
        "engine.events": events,
        "engine.slot_tick_share": ratio(c("events.slot_tick", 0), events),
        "engine.heap_pushes": calls(rep, "engine.push"),
        "engine.heap_max": c("heap_max", 0),
        "engine.loop_self_s": span_s(rep, "sim.run", self_time=True),
        "mac.retx_ratio": ratio(c("retransmissions", 0), attempts),
        "phy.fade_draws": c("fade_draws", 0),
        "phy.sensed_power.calls": calls(rep, "phy.sensed_power"),
        "phy.rx_ok_ratio": ratio(c("rx_ok", 0), c("rx_ok", 0) + c("rx_fail", 0)),
        "sim.init_s": span_s(rep, "sim.init"),
        "propagation.sample_link_gains.links": c("links", 0),
        "sensing.points_drawn": c("points_drawn", 0),
        "sensing.redraw_ratio": ratio(c("points_drawn", 0), c("points_distinct", 0)),
        "config.build_s": sum(span_s(rep, n) for n in CONFIG_SPANS),
        "output.write_s": span_s(rep, "cli.write_rows"),
        "output.bytes": c("bytes.cli.write_rows", 0),
        "trace.records": c("trace.records", 0),
        "trace.self_s": span_s(rep, "sim.trace", self_time=True),
        "trace.write_s": span_s(rep, "cli.open", parent="cli.run_batch"),
        "trace.bytes": c("bytes.cli.run_batch", 0),
    }
    for span in ("mac_wifi.dcf_step", "mac_lte.lbt_step", "phy.start_tx",
                 "phy.recompute_busy", "phy.reception", "propagation.sample_link_gains",
                 "sensing.coverage", "relay.encode", "relay.decode", "relay.merge",
                 "coordination.adapt"):
        m[span + ".calls"] = calls(rep, span)
        m[span + ".self_s"] = span_s(rep, span, self_time=True)
    return m


def simulated_counts(rep: dict) -> tuple:
    """Everything a traced repetition counts, which must repeat exactly."""
    return (sorted(rep["counters"].items()),
            sorted((p, n, c) for p, n, c, _, _ in rep["spans"]))


def medians(dicts: list) -> dict:
    """Per-key medians; a value every repetition agrees on (a count) is kept as is."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


# -- command line -----------------------------------------------------------------

def load_spec() -> tuple:
    if not (ROOT / "src" / "coexsim" / "cli.py").is_file():
        raise BenchError(f"no coexsim sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "reference.json").read_text())
    return spec, refs


def warm_up() -> None:
    """Import coexsim once, untimed, so bytecode and file caches are warm."""
    WORK.mkdir(exist_ok=True)
    rep = run_child(Job("", 0), traced=False, refs=None)
    if rep.get("crashed"):
        raise BenchError("coexsim does not import:\n" + rep["log"])


def measure(job, refs: dict, seconds: float, traced: bool) -> dict:
    """Repetitions for ``seconds``, one command line per child, in turn.

    With ``traced``, each command line runs untraced then traced.  Stops
    once ``seconds`` have passed and every command line has run at least
    once each way.  Returns the repetitions per command line and the
    counts of command lines attempted and failed.
    """
    n = len(job.runs)
    per_round = 2 if traced else 1
    untraced = [[] for _ in range(n)]
    traced_reps = [[] for _ in range(n)]
    attempted = failed = 0
    errors = []
    start = time.monotonic()
    i = 0
    while True:
        k = (i // per_round) % n
        trace_this = traced and i % 2 == 1
        rep = run_child(replace(job, runs=[job.runs[k]]), trace_this, refs)
        attempted += len(rep["ok"])
        failed += rep["ok"].count(False)
        if rep.get("crashed"):
            errors.append(rep["log"])
        else:
            errors += [r["error"] for r in rep["runs"] if r["error"]]
            (traced_reps if trace_this else untraced)[k].append(rep)
        i += 1
        if time.monotonic() - start >= seconds and i >= per_round * n:
            break
    return {"untraced": untraced, "traced": traced_reps, "attempted": attempted,
            "failed": failed, "error_rate": failed / attempted, "errors": errors}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec, refs = load_spec()
        warm_up()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    job = build_job(args.workload, args.seed, WORK, WORK / "out")
    expected = refs["digests"][args.workload][str(job.index)]
    res = measure(job, expected, args.seconds, bool(args.trace))
    for err in res["errors"][:3]:
        print(f"perfbench: failed run:\n{err}", file=sys.stderr)
    if not all(res["untraced"]) or (args.trace and not all(res["traced"])):
        print("perfbench: a command line never completed", file=sys.stderr)
        return 3

    scaled = end_to_end([typical(reps) for reps in res["untraced"]])
    raw = end_to_end([typical(reps, scale=False) for reps in res["untraced"]])
    speed = statistics.median(speed_factor(r) for reps in res["untraced"] for r in reps)
    cov_rows = [row for reps in res["untraced"] for row in reps[0].get("coverage_rows", [])]
    correct = res["failed"] == 0
    reps = sorted(len(r) for r in res["untraced"])
    work_name = "samples_per_s" if args.workload == "coverage_table" else "sim_s_per_host_s"
    print(f"workload={args.workload} seed={args.seed} input_set={job.index} "
          f"commands={len(job.runs)} reps_each={reps[0]}-{reps[-1]} "
          f"runs={res['attempted']} failed={res['failed']} "
          f"error_rate={fmt(res['error_rate'])} speed_factor={fmt(speed)}")
    for label, values in (("at reference speed", scaled), ("as measured", raw)):
        row = {(work_name if k == "work_per_s" else k): v for k, v in values.items()}
        if cov_rows:
            row["ref_abs_err"] = ref_abs_err(cov_rows, refs["table1"])
        print(f"  {label}, medians: " + "  ".join(f"{k}={fmt(v)}" for k, v in row.items()))

    if args.trace:
        rounds = [merge(list(group)) for group in zip(*res["traced"])]
        layers = [per_layer(r) for r in rounds]
        counts = {repr(simulated_counts(r)) for r in rounds}
        if len(counts) > 1:
            print("perfbench: simulated counts differ between repetitions", file=sys.stderr)
            correct = False
        values = medians(layers)
        run_s = sum(typical(reps)["core_s"] for reps in res["untraced"])
        values["engine.us_per_event"] = ratio(run_s, values["engine.events"]) * 1e6
        traced_wall = sum(typical(reps)["wall_s"] for reps in res["traced"])
        values["tracing.overhead"] = ratio(traced_wall, scaled["wall_s"])
        values["sensing.ref_abs_err"] = ref_abs_err(cov_rows, refs["table1"])
        missing = sorted({t for reps in res["traced"] for r in reps for t in r["missing"]})
        if missing:
            print(f"perfbench: span targets not found: {', '.join(missing)}",
                  file=sys.stderr)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in names:
            print(f"  {name} = {fmt(values[name])} {units[name]}")
        print_hot_spans(rounds[-1])
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = scaled

    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


def print_hot_spans(rep: dict, top: int = 12) -> None:
    rows = sorted(rep["spans"], key=lambda r: -r[4])[:top]
    print("  hottest spans by self time (parent > span: calls, self s):")
    for parent, name, n, _, own in rows:
        print(f"    {parent or '-'} > {name}: {n}, {own / 1e9:.4f}")


if __name__ == "__main__":
    sys.exit(main())
