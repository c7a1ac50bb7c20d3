"""The benchmark's span targets must exist in the program.

``perfbench/child.py`` wraps program functions by ``module:Class.attr``
name and only records a target it cannot find, so a renamed engine
method would leave ``sim.run`` or ``sim.init`` unmeasured and skew
``work_per_s`` and ``setup_s`` without any error.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import yaml

from coexsim import cli, mac_lte, mac_wifi
from coexsim.config import apply_overrides, build_scenario, load_config
from coexsim.propagation import BLOCK
from coexsim.simulator import SimEvent, Simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TWO_CHANNEL_CELLS = Path(__file__).resolve().parent / "two_channel_cells.yaml"


def load_child(monkeypatch):
    # child.py imports its sibling ``spans`` and puts src/ on sys.path;
    # monkeypatch restores sys.path afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def resolve(target):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_target_resolves(monkeypatch):
    child = load_child(monkeypatch)
    targets = [target for target, _ in child.BOUNDARY + child.LAYERS]
    assert "coexsim.simulator:Simulator.run" in targets
    assert [t for t in targets if resolve(t) is None] == []


def test_no_span_target_runs_on_a_helper_thread(tmp_path, monkeypatch):
    # the span tracer keeps one stack and is not thread-safe; a coverage draw
    # of several blocks starts a helper thread, which must call no target
    child = load_child(monkeypatch)
    calls = Counter()
    for target, name in child.BOUNDARY + child.LAYERS:
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)

        def recording(*args, _name=name, _fn=original, **kwargs):
            calls[_name, threading.current_thread() is threading.main_thread()] += 1
            return _fn(*args, **kwargs)

        # as the tracer does: a function in every coexsim module that imported it
        owners = [owner] if owner_path else [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "coexsim" and getattr(mod, attr, None) is original]
        for mod in owners:
            monkeypatch.setattr(mod, attr, recording)
    rc = cli.main(["coverage", "--config", "table1_inh",
                   "--set", f"coverage.samples={3 * BLOCK + 7}", "--out", str(tmp_path / "cov.csv")])
    assert rc == 0
    assert calls["propagation.sample_link_gains", True] == 2
    assert [key for key in calls if not key[1]] == []


def test_dispatch_probe_reads_event_kind():
    # the traced run counts slot ticks by ``event.kind`` in Simulator._dispatch
    assert "kind" in SimEvent._fields


def test_state_machine_steps_called_through_their_modules(monkeypatch):
    # the spans wrap ``mac_wifi.dcf_step`` and ``mac_lte.lbt_step`` in their
    # modules; a controller holding its own reference would go unmeasured
    calls = Counter()
    for module, name in ((mac_wifi, "dcf_step"), (mac_lte, "lbt_step")):
        def counting(*args, _name=name, _step=getattr(module, name)):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(module, name, counting)
    cfg = apply_overrides(load_config("figure4_coexistence"),
                          ["traffic.model=full_buffer", "simulate.duration_s=0.2"])
    Simulator(build_scenario(cfg)).run()
    assert calls["dcf_step"] > 0 and calls["lbt_step"] > 0


def run_traced_child(tmp_path, argv):
    """The result of ``perfbench/child.py`` running one traced command line."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "invocations": [argv],
        "calibration": "python",
        "traced": True,
        "result": str(tmp_path / "result.json"),
    }))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(job)],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["runs"] == [{"rc": 0, "error": None}]
    assert result["missing"] == []
    return result


def test_traced_child_run_reads_every_probe(tmp_path):
    # the probes read engine internals (``trace_lines``, ``_sorted_ids``,
    # ``_heap``, ``SimEvent.kind``); a rename would fail every benchmark run
    result = run_traced_child(tmp_path, [
        "simulate", "--config", "figure3_collision", "--set", "simulate.duration_s=0.05",
        "--out", str(tmp_path / "out.csv"), "--trace", str(tmp_path / "trace.csv")])
    for counter in ("sim_s", "fade_draws", "heap_max", "events.slot_tick", "trace.records"):
        assert result["counters"].get(counter, 0) > 0, counter


def test_relay_and_coordination_spans_are_called(tmp_path):
    # the spans wrap the relay codec, the scan merge and the ED adaptation
    # by name; a function the engine stopped calling would read 0 calls
    result = run_traced_child(tmp_path, [
        "simulate", "--config", str(TWO_CHANNEL_CELLS), "--out", str(tmp_path / "out.csv")])
    calls = Counter()
    for row in result["spans"]:
        calls[row[1]] += row[2]
    for span in ("relay.encode", "relay.decode", "relay.merge", "coordination.adapt"):
        assert calls[span] > 0, span


def test_link_gain_probe_counts_one_array_draw_per_scenario(tmp_path):
    # the probe reads ``dists.size``: a per-pair scalar or list call would
    # still run but skew the calls and links metrics
    nodes = [{"id": f"ap{i}", "kind": "wifi_ap", "position": [10.0 + 7 * i, 20.0 + 15 * i]}
             for i in range(5)]
    cfg = tmp_path / "five.yaml"
    cfg.write_text(yaml.safe_dump({
        "nodes": nodes, "links": {"ap0": {"ap1": -60.0}},
        "simulate": {"duration_s": 0.01}}))
    result = run_traced_child(tmp_path, [
        "simulate", "--config", str(cfg), "--runs", "2", "--out", str(tmp_path / "out.csv")])
    calls = sum(row[2] for row in result["spans"]
                if row[1] == "propagation.sample_link_gains")
    assert calls == 2
    # 10 pairs, one pinned by ``links``, drawn once per seed
    assert result["counters"]["links"] == 2 * 9


@pytest.mark.parametrize("argv", [
    ["simulate"], ["simulate", "--compare-adaptive", "--runs", "2"], ["sweep", "--runs", "2"],
], ids=["simulate", "simulate_compare", "sweep"])
def test_every_batch_runs_through_run_batch(tmp_path, monkeypatch, argv):
    # the ``cli.run_batch`` span wraps ``cli._run_batch``; a command that
    # routed around it would leave that span reading 0
    calls = []
    run_batch = cli._run_batch

    def counting(*args, **kwargs):
        calls.append(argv[0])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(cli, "_run_batch", counting)
    rc = cli.main(argv + ["--config", "figure3_collision", "--set", "simulate.duration_s=0.05",
                          "--out", str(tmp_path / "out.csv")])
    assert rc == 0
    assert calls == [argv[0]]
