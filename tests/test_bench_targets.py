"""The benchmark's span targets must exist in the program.

``perfbench/child.py`` wraps program functions by ``module:Class.attr``
name and only records a target it cannot find, so a renamed engine
method would leave ``sim.run`` or ``sim.init`` unmeasured and skew
``work_per_s`` and ``setup_s`` without any error.
"""

import importlib
import importlib.util
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
