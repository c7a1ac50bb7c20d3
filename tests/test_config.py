import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path

import pytest
import yaml

import coexsim
import coexsim.cli
from coexsim import config
from coexsim.config import (
    ClientGenConfig,
    ConfigError,
    CoverageSpec,
    LteMacConfig,
    Node,
    PhyConfig,
    RelayConfig,
    TrafficConfig,
    WifiMacConfig,
    apply_overrides,
    build_cell,
    build_coverage_spec,
    build_scenario,
    load_config,
)
from coexsim.coordination import AdaptiveEdConfig, ChannelSelectConfig
from coexsim.propagation import Building, PropagationModel
from coexsim.relay import CellInfo


class TestLoadConfig:
    def test_preset_by_name(self):
        cfg = load_config("figure4_coexistence")
        assert cfg["nodes"][0]["id"] == "ap1"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/no/such/file.yaml")

    def test_path_load(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 3\nnodes: []\n")
        assert load_config(str(p))["seed"] == 3


REPO = Path(__file__).resolve().parent.parent
YAML_FILES = sorted([*(REPO / "src" / "coexsim" / "presets").glob("*.yaml"),
                     *(REPO / "tests").glob("*.yaml")])


def dense_configs() -> dict:
    """One generated ``dense_cells`` config per benchmark rung, as the JSON text it writes."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return {f"dense_{cols * rows * (1 + workloads.DENSE_CLIENTS_PER_BASE)}":
            json.dumps(workloads.dense_config((cols, rows), 1, duration_s))
            for (cols, rows), duration_s in workloads.DENSE_LADDER}


CONFIG_TEXTS = {**{p.name: p.read_text(encoding="utf-8") for p in YAML_FILES},
                **dense_configs()}


class TestLoader:
    """libyaml, where PyYAML has it, parses configs to the values of the Python parser."""

    def test_uses_libyaml_when_pyyaml_has_it(self):
        assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("name", CONFIG_TEXTS)
    def test_files_parse_to_equal_values(self, name, tmp_path):
        path = tmp_path / name
        path.write_text(CONFIG_TEXTS[name], encoding="utf-8")
        assert repr(load_config(str(path))) == repr(
            yaml.load(CONFIG_TEXTS[name], Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("raw", [
        "1e5", "1.0e5", ".inf", "-.inf", ".nan", "0x1f", "0o17", "yes", "off", "~", "1_000",
        "'36'", "[36, 40]", "{a: 1}",
    ])
    def test_override_scalars_parse_to_equal_values(self, raw, monkeypatch):
        fast = apply_overrides({}, [f"k={raw}"])["k"]
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
        slow = apply_overrides({}, [f"k={raw}"])["k"]
        if raw == ".nan":
            assert math.isnan(fast) and math.isnan(slow)
        else:
            assert (type(fast), repr(fast)) == (type(slow), repr(slow))


class TestOverrides:
    def test_nested_override(self):
        cfg = {"simulate": {"duration_s": 1.0}}
        apply_overrides(cfg, ["simulate.duration_s=5.5"])
        assert cfg["simulate"]["duration_s"] == 5.5

    def test_values_parse_as_yaml(self):
        cfg = {}
        apply_overrides(cfg, ["a.flag=true", "a.items=[1,2]"])
        assert cfg["a"]["flag"] is True
        assert cfg["a"]["items"] == [1, 2]

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["oops"])


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        cfg = load_config("figure3_collision")
        cfg["simulatr"] = {}
        with pytest.raises(ConfigError, match="simulatr"):
            build_scenario(cfg)

    def test_unknown_section_key_named_exactly(self):
        cfg = load_config("figure3_collision")
        cfg["lte_mac"]["burst_msec"] = 4
        with pytest.raises(ConfigError, match="lte_mac.burst_msec"):
            build_scenario(cfg)

    def test_unknown_coverage_key(self):
        cfg = load_config("table1_inh")
        cfg["coverage"]["sample_count"] = 10
        with pytest.raises(ConfigError, match="coverage.sample_count"):
            build_coverage_spec(cfg)


class TestScenarioAssembly:
    def test_presets_build(self):
        for preset in ("figure3_collision", "figure4_coexistence"):
            scenario = build_scenario(load_config(preset))
            assert scenario.nodes
            assert scenario.link_gains

    def test_generated_clients(self, tmp_path):
        cfg = {
            "seed": 5,
            "nodes": [
                {"id": "ap1", "kind": "wifi_ap", "position": [10.0, 10.0]},
                {"id": "enb1", "kind": "lte_enb", "position": [40.0, 100.0]},
            ],
            "clients": {"mode": "fixed", "per_base": 1},
        }
        scenario = build_scenario(cfg)
        assert len(scenario.nodes) == 4
        generated = [n for n in scenario.nodes if n.attach_to]
        assert {n.attach_to for n in generated} == {"ap1", "enb1"}

    def test_per_node_maps_may_name_generated_clients(self):
        cfg = {
            "nodes": [{"id": "ap1", "kind": "wifi_ap", "position": [10.0, 10.0]}],
            "clients": {"mode": "fixed", "per_base": 1},
            "links": {"ap1": {"ap1_c0": -60.0}},
            "traffic": {"file_size_overrides": {"ap1_c0": 1000}},
        }
        scenario = build_scenario(cfg)
        assert scenario.link_gains[("ap1", "ap1_c0")] == -60.0

    def test_symmetric_link_gains(self):
        scenario = build_scenario(load_config("figure4_coexistence"))
        assert scenario.link_gains[("ap1", "enb1")] == -101.8

    def test_adaptation_defaults_to_the_configured_mac_threshold(self):
        # an adapt tick must not raise a configured -78 dBm to the class default
        cfg = apply_overrides(load_config("figure3_collision"), [
            "lte_mac.ed_threshold_dbm=-78", "wifi_mac.ed_threshold_dbm=-65"])
        scenario = build_scenario(cfg)
        assert scenario.adapt_lte.t_default_dbm == -78.0
        assert scenario.adapt_wifi.t_default_dbm == -65.0


# every dataclass a config section is read into, and that section
SECTIONS = [(Building, "building"), (PropagationModel, "propagation"), (TrafficConfig, "traffic"),
            (WifiMacConfig, "wifi_mac"), (LteMacConfig, "lte_mac"), (PhyConfig, "phy"),
            (ClientGenConfig, "clients"), (RelayConfig, "relay"),
            (AdaptiveEdConfig, "coordination.wifi"), (AdaptiveEdConfig, "coordination.lte"),
            (ChannelSelectConfig, "coordination.select"), (CellInfo, "cell"),
            (CoverageSpec, "coverage"), (Node, "nodes")]


def bad_value(default):
    """YAML text no key with this default takes; None where the default's type reads anything."""
    if isinstance(default, Enum):
        return "bogus"
    return {int: "2.5", float: ".nan", bool: '"off"'}.get(type(default))


TYPED_KEYS = [(section, f.name, bad_value(f.default)) for cls, section in SECTIONS
              for f in fields(cls) if bad_value(f.default) is not None]


class TestTypedKeys:
    """Every key reads as its default's type; a value of another type fails naming the key."""

    def test_every_kind_of_default_is_covered(self):
        assert {value for _, _, value in TYPED_KEYS} == {"2.5", ".nan", '"off"', "bogus"}

    @pytest.mark.parametrize("section, key, value", TYPED_KEYS,
                             ids=[f"{section}.{key}" for section, key, _ in TYPED_KEYS])
    def test_wrong_type_is_named(self, section, key, value):
        node = {"id": "ap1", "kind": "wifi_ap", "position": [10.0, 10.0]}
        cfg = {"nodes": [node]}
        if section == "nodes":
            cfg["nodes"] = [{**node, key: yaml.safe_load(value)}]
        else:
            apply_overrides(cfg, [f"{section}.{key}={value}"])
        build = {"cell": lambda c: build_cell(c, {}), "coverage": build_coverage_spec}.get(
            section, build_scenario)
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            build(cfg)


class TestDependencyDirection:
    def test_config_does_not_import_the_engine(self):
        src = Path(coexsim.__file__).resolve().parent.parent
        code = "import coexsim.config, sys; sys.exit('coexsim.simulator' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == 0, result.stderr or "coexsim.config imported the engine"

    def test_cli_calls_no_private_config_name(self):
        # config.py is the one input boundary; cli.py goes through its public builders
        tree = ast.parse(Path(coexsim.cli.__file__).read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module is None
                   for alias in node.names if alias.name == "config"}
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "config"
                    for alias in node.names]
        used = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases]
        assert aliases and used
        assert [name for name in imported + used if name.startswith("_")] == []
