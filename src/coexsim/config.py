"""Scenario/experiment configuration: YAML schema, presets, overrides.

Config files are nested YAML mirroring the dataclass tree.  Every
section is checked against its dataclass fields, so a misspelled key
fails loudly with the exact key name.  ``--set a.b.c=value`` overrides
walk the raw dictionary before construction; values parse as YAML.
"""

from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .coordination import AdaptiveEdConfig, ChannelSelectConfig
from .mac_wifi import MacTiming
from .propagation import Building, Position, PropagationModel
from .simulator import (
    ClientGenConfig,
    LteMacConfig,
    Node,
    PhyConfig,
    RelayConfig,
    Scenario,
    TrafficConfig,
    WifiMacConfig,
    generate_topology,
)

PRESET_NAMES = ("table1_inh", "table1_diffusion", "figure3_collision",
                "figure4_coexistence")


class ConfigError(ValueError):
    """Bad configuration input: unknown key, missing file, invalid value."""


def preset_path(name: str) -> Path:
    candidate = resources.files("coexsim").joinpath("presets", f"{name}.yaml")
    return Path(str(candidate))


def load_config(path_or_preset: str) -> dict:
    """Load YAML config from a path, or a shipped preset by bare name."""
    path = Path(path_or_preset)
    if not path.exists() and path_or_preset in PRESET_NAMES:
        path = preset_path(path_or_preset)
    if not path.exists():
        raise ConfigError(f"config not found: {path_or_preset}")
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    return data


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``key.path=value`` overrides onto the raw dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key_path, raw_value = item.split("=", 1)
        value = yaml.safe_load(raw_value)
        parts = key_path.split(".")
        cursor = cfg
        for part in parts[:-1]:
            if not isinstance(cursor, dict):
                raise ConfigError(f"unknown config key: {key_path}")
            cursor = cursor.setdefault(part, {})
        if not isinstance(cursor, dict):
            raise ConfigError(f"unknown config key: {key_path}")
        cursor[parts[-1]] = value
    return cfg


def _build(cls, data: dict, section: str):
    """Construct a dataclass from a dict, rejecting unknown keys."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(
            f"unknown config key: {section}.{sorted(unknown)[0]}"
        )
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


def _build_propagation(data: dict | None) -> PropagationModel:
    data = dict(data or {})
    if "model" in data:
        data["variant"] = data.pop("model")
    return _build(PropagationModel, data, "propagation")


def _build_wifi_mac(data: dict | None) -> WifiMacConfig:
    data = dict(data or {})
    timing_keys = {"slot_us", "sifs_us", "ack_duration_us", "beacon_interval_ms"}
    timing_data = {k: data.pop(k) for k in list(data) if k in timing_keys}
    cfg = _build(WifiMacConfig, data, "wifi_mac")
    if timing_data:
        cfg.timing = _build(MacTiming, timing_data, "wifi_mac")
    return cfg


def _build_node(data: dict) -> Node:
    data = dict(data)
    pos = data.pop("position", None)
    if pos is None or len(pos) != 2:
        raise ConfigError(f"node {data.get('id', '?')} needs position: [x, y]")
    data["position"] = Position(float(pos[0]), float(pos[1]))
    return _build(Node, data, "nodes")


def _build_links(data: dict | None) -> dict:
    gains = {}
    for a, peers in (data or {}).items():
        if not isinstance(peers, dict):
            raise ConfigError(f"links.{a} must map peer ids to gains in dB")
        for b, gain in peers.items():
            gains[(a, b)] = float(gain)
    return gains


def _build_coordination(data: dict | None):
    data = data or {}
    unknown = set(data) - {"wifi", "lte", "select"}
    if unknown:
        raise ConfigError(f"unknown config key: coordination.{sorted(unknown)[0]}")
    wifi = _build(AdaptiveEdConfig,
                  {"t_default_dbm": -62.0, **(data.get("wifi") or {})},
                  "coordination.wifi")
    lte = _build(AdaptiveEdConfig,
                 {"t_default_dbm": -72.0, **(data.get("lte") or {})},
                 "coordination.lte")
    select = _build(ChannelSelectConfig, data.get("select"), "coordination.select")
    return wifi, lte, select


TOP_LEVEL_KEYS = {
    "seed", "building", "propagation", "coverage", "simulate", "nodes",
    "links", "traffic", "wifi_mac", "lte_mac", "phy", "coordination",
    "relay", "channels", "clients", "scan", "select", "adapt",
}


def check_top_level(cfg: dict) -> None:
    unknown = set(cfg) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")


def build_scenario(cfg: dict) -> Scenario:
    """Assemble a simulator Scenario from a raw config dict."""
    check_top_level(cfg)
    sim = cfg.get("simulate") or {}
    unknown = set(sim) - {"duration_s", "warmup_s", "adaptive_ed"}
    if unknown:
        raise ConfigError(f"unknown config key: simulate.{sorted(unknown)[0]}")
    nodes = [_build_node(n) for n in cfg.get("nodes") or []]
    adapt_wifi, adapt_lte, _ = _build_coordination(cfg.get("coordination"))
    scenario = Scenario(
        building=_build(Building, cfg.get("building"), "building"),
        nodes=nodes,
        propagation=_build_propagation(cfg.get("propagation")),
        traffic=_build(TrafficConfig, cfg.get("traffic"), "traffic"),
        channels=list(cfg.get("channels") or [36]),
        seed=int(cfg.get("seed", 1)),
        duration_s=float(sim.get("duration_s", 1.0)),
        warmup_s=float(sim.get("warmup_s", 0.0)),
        adaptive_ed=bool(sim.get("adaptive_ed", False)),
        wifi_mac=_build_wifi_mac(cfg.get("wifi_mac")),
        lte_mac=_build(LteMacConfig, cfg.get("lte_mac"), "lte_mac"),
        phy=_build_phy(cfg.get("phy")),
        adapt_wifi=adapt_wifi,
        adapt_lte=adapt_lte,
        relay=_build(RelayConfig, cfg.get("relay"), "relay"),
        link_gains=_build_links(cfg.get("links")),
    )
    clients = build_clients(cfg) if cfg.get("clients") else None
    try:
        if clients is not None:
            scenario = generate_topology(
                scenario, clients, np.random.default_rng([scenario.seed, 42]),
            )
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


def _build_phy(data: dict | None) -> PhyConfig:
    data = dict(data or {})
    for key in ("wifi_rates", "lte_rates"):
        if key in data:
            data[key] = [(float(t), float(r)) for t, r in data[key]]
    return _build(PhyConfig, data, "phy")


def build_clients(cfg: dict) -> ClientGenConfig:
    return _build(ClientGenConfig, cfg.get("clients"), "clients")


@dataclasses.dataclass
class CoverageSpec:
    """Inputs for the coverage analytics command."""

    building: Building
    models: list
    base_position: Position
    tx_power_dbm: float
    cells: list  # (name, min_sensitivity_dbm)
    thresholds_dbm: list
    samples: int
    include_shadow: bool
    margin_db: float
    cdf_bin_db: float


def build_coverage_spec(cfg: dict) -> CoverageSpec:
    check_top_level(cfg)
    cov = cfg.get("coverage") or {}
    allowed = {"samples", "include_shadow", "margin_db", "base", "cells",
               "thresholds_dbm", "cdf_bin_db", "models"}
    unknown = set(cov) - allowed
    if unknown:
        raise ConfigError(f"unknown config key: coverage.{sorted(unknown)[0]}")
    base = cov.get("base") or {"position": [25.0, 30.0], "tx_power_dbm": 20.0}
    if "models" in cov:
        models = [_build_propagation(m) for m in cov["models"]]
    else:
        models = [_build_propagation(cfg.get("propagation"))]
    cells = [(c["name"], float(c["min_sensitivity_dbm"]))
             for c in cov.get("cells")
             or [{"name": "wifi", "min_sensitivity_dbm": -87.5},
                 {"name": "ulte", "min_sensitivity_dbm": -100.0}]]
    pos = base.get("position", [25.0, 30.0])
    return CoverageSpec(
        building=_build(Building, cfg.get("building"), "building"),
        models=models,
        base_position=Position(float(pos[0]), float(pos[1])),
        tx_power_dbm=float(base.get("tx_power_dbm", 20.0)),
        cells=cells,
        thresholds_dbm=[float(t) for t in cov.get("thresholds_dbm", [-62.0, -72.0])],
        samples=int(cov.get("samples", 100_000)),
        include_shadow=bool(cov.get("include_shadow", True)),
        margin_db=float(cov.get("margin_db", 0.0)),
        cdf_bin_db=float(cov.get("cdf_bin_db", 1.0)),
    )


def parse_scan_entries(cfg: dict) -> list:
    """Read ScanEntry records from the config's ``scan`` section."""
    from .relay import CellInfo, MacSpec, NodeType, ScanEntry

    entries = []
    for rec in cfg.get("scan") or []:
        rec = dict(rec)
        try:
            cell = CellInfo(
                operator_cell_id=str(rec.pop("cell_id")),
                channel=int(rec.pop("channel")),
                station_count=int(rec.get("n_attached", 0)),
                channel_utilization=float(rec.get("utilization") or 0.0),
                node_type=NodeType[str(rec.pop("node_type", "WIFI")).upper()],
                mac_spec=MacSpec[str(rec.pop("mac_spec", "DCF")).upper()],
                tx_power_offset_db=int(rec.pop("tx_power_offset_db", 0)),
            )
            entries.append(ScanEntry(
                source=rec.pop("source", "over_the_air"),
                cell=cell,
                rssi_dbm=float(rec.pop("rssi_dbm")),
                n_attached=rec.pop("n_attached", None),
                utilization=rec.pop("utilization", None),
            ))
        except KeyError as exc:
            raise ConfigError(f"scan entry missing field: {exc}") from exc
    return entries
