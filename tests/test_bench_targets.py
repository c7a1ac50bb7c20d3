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
from collections import Counter
from pathlib import Path

from coexsim import mac_lte, mac_wifi
from coexsim.config import apply_overrides, build_scenario, load_config
from coexsim.simulator import SimEvent, Simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_traced_child_run_reads_every_probe(tmp_path):
    # the probes read engine internals (``trace_lines``, ``_sorted_ids``,
    # ``_heap``, ``SimEvent.kind``); a rename would fail every benchmark run
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "invocations": [["simulate", "--config", "figure3_collision",
                         "--set", "simulate.duration_s=0.05",
                         "--out", str(tmp_path / "out.csv"),
                         "--trace", str(tmp_path / "trace.csv")]],
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
    for counter in ("sim_s", "fade_draws", "heap_max", "events.slot_tick", "trace.records"):
        assert result["counters"].get(counter, 0) > 0, counter
