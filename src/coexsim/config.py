"""Scenario schema and its YAML configuration: dataclasses, presets, overrides.

The dataclasses below define and check every scenario the simulator
runs.  Config files are nested YAML mirroring the dataclass tree.
Every section is checked against its dataclass fields, so a misspelled
key fails loudly with the exact key name, and each dataclass checks its
own values.  ``--set a.b.c=value`` overrides walk the raw dictionary
before construction; values parse as YAML.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .coordination import AdaptiveEdConfig, ChannelSelectConfig
from .mac_wifi import MacTiming
from .propagation import Building, Position, PropagationModel

PRESET_NAMES = ("table1_inh", "table1_diffusion", "figure3_collision",
                "figure4_coexistence")


class ConfigError(ValueError):
    """Bad configuration input: unknown key, missing file, invalid value."""


WIFI_RATE_TABLE = [
    (5.0, 6.0), (6.0, 9.0), (7.0, 12.0), (9.0, 18.0),
    (12.0, 24.0), (16.0, 36.0), (20.0, 48.0), (22.0, 54.0),
]
LTE_RATE_TABLE = [
    (-5.0, 2.0), (0.0, 7.0), (5.0, 14.0), (9.0, 21.0),
    (13.0, 28.0), (17.0, 36.0), (21.0, 43.0), (25.0, 50.0),
]


def _check_cw(cw_min: int, cw_max: int) -> None:
    for cw in (cw_min, cw_max):
        if cw < 0 or (cw + 1) & cw:
            raise ValueError(f"cw {cw} must have the 2^k - 1 form")
    if cw_min > cw_max:
        raise ValueError(f"cw_min {cw_min} exceeds cw_max {cw_max}")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # wifi_ap | wifi_sta | lte_enb | lte_ue
    position: Position
    tx_power_dbm: float = 20.0
    ed_threshold_dbm: float | None = None  # None -> technology default
    channel: int = 36
    attach_to: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("wifi_ap", "wifi_sta", "lte_enb", "lte_ue"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.ed_threshold_dbm is not None and not self.is_base:
            raise ValueError(f"{self.kind} {self.id}: only bases sense, so only bases "
                             "take ed_threshold_dbm")

    @property
    def technology(self) -> str:
        return "wifi" if self.kind.startswith("wifi") else "lte"

    @property
    def is_base(self) -> bool:
        return self.kind in ("wifi_ap", "lte_enb")


@dataclass
class TrafficConfig:
    model: str = "file_transfer"  # file_transfer | full_buffer
    file_size_bytes: int = 2_000_000
    arrival_rate_per_client: float = 1.0  # files per second
    arrival_rate_overrides: dict = field(default_factory=dict)  # client id -> rate
    file_size_overrides: dict = field(default_factory=dict)  # client id -> bytes

    def __post_init__(self) -> None:
        if self.model not in ("file_transfer", "full_buffer"):
            raise ValueError(f"unknown traffic model {self.model!r}")
        if self.model == "file_transfer":
            if self.file_size_bytes <= 0 or self.arrival_rate_per_client <= 0:
                raise ValueError("file size and arrival rate must be positive")

    def rate_for(self, client_id: str) -> float:
        return float(self.arrival_rate_overrides.get(client_id,
                                                     self.arrival_rate_per_client))

    def size_bits_for(self, client_id: str) -> float:
        return 8.0 * float(self.file_size_overrides.get(client_id,
                                                        self.file_size_bytes))


@dataclass
class WifiMacConfig:
    timing: MacTiming = field(default_factory=MacTiming)
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    rts_cts: bool = True
    frame_payload_bytes: int = 1500
    preamble_us: float = 20.0
    rts_duration_us: float = 47.0
    cts_duration_us: float = 39.0
    beacon_duration_us: float = 180.0
    ed_threshold_dbm: float = -62.0
    decode_floor_dbm: float = -87.5

    def __post_init__(self) -> None:
        _check_cw(self.cw_min, self.cw_max)


@dataclass
class LteMacConfig:
    ed_threshold_dbm: float = -72.0
    cw_min: int = 15
    cw_max: int = 63
    burst_ms: float = 8.0
    max_burst_ms: float = 8.0
    defer_us: float = 25.0
    slot_us: float = 9.0
    decode_floor_dbm: float = -100.0

    def __post_init__(self) -> None:
        _check_cw(self.cw_min, self.cw_max)
        if not 0 < self.burst_ms <= self.max_burst_ms:
            raise ValueError("burst_ms must lie in (0, max_burst_ms]")
        if self.slot_us <= 0:
            raise ValueError("slot_us must be positive")


@dataclass
class PhyConfig:
    noise_floor_dbm: float = -94.0
    rate_margin_db: float = 3.0
    capture_threshold_db: float = 10.0
    control_sinr_db: float = 5.0
    fading_branches: int = 4
    measurement_floor_dbm: float = -100.0
    wifi_rates: list = field(default_factory=lambda: list(WIFI_RATE_TABLE))
    lte_rates: list = field(default_factory=lambda: list(LTE_RATE_TABLE))

    def __post_init__(self) -> None:
        if self.fading_branches < 1:
            raise ValueError("fading_branches must be at least 1")


@dataclass
class ClientGenConfig:
    mode: str = "fixed"  # fixed | poisson
    per_base: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown client generation mode {self.mode!r}")
        if self.per_base < 0 or (self.mode == "fixed"
                                 and not float(self.per_base).is_integer()):
            raise ValueError("per_base must be >= 0, and a whole number under mode: fixed")


@dataclass
class RelayConfig:
    enabled: bool = True
    latency_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency_ms must not be negative")


@dataclass
class Scenario:
    building: Building = field(default_factory=Building)
    nodes: list = field(default_factory=list)
    propagation: PropagationModel = field(default_factory=PropagationModel)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    seed: int = 1
    duration_s: float = 1.0
    warmup_s: float = 0.0
    adaptive_ed: bool = False
    wifi_mac: WifiMacConfig = field(default_factory=WifiMacConfig)
    lte_mac: LteMacConfig = field(default_factory=LteMacConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    adapt_wifi: AdaptiveEdConfig = field(
        default_factory=lambda: AdaptiveEdConfig(t_default_dbm=WifiMacConfig.ed_threshold_dbm)
    )
    adapt_lte: AdaptiveEdConfig = field(
        default_factory=lambda: AdaptiveEdConfig(t_default_dbm=LteMacConfig.ed_threshold_dbm)
    )
    relay: RelayConfig = field(default_factory=RelayConfig)
    link_gains: dict = field(default_factory=dict)  # {(a, b): gain_db}, symmetric

    def validate(self) -> None:
        if not any(n.is_base for n in self.nodes):
            raise ValueError("scenario needs at least one base")
        for node in self.nodes:
            if not self.building.contains(node.position):
                raise ValueError(f"node {node.id} lies outside the building")
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("node ids must be unique")
        for node in self.nodes:
            if node.attach_to is None:
                continue
            base = by_id.get(node.attach_to)
            if (node.is_base or base is None or not base.is_base
                    or base.technology != node.technology or base.channel != node.channel):
                raise ValueError(f"{node.kind} {node.id} cannot attach to "
                                 f"{node.attach_to!r}: clients attach to an existing "
                                 f"{node.technology} base on their channel {node.channel}")
        if self.lte_mac.defer_us < self.wifi_mac.timing.sifs_us + self.lte_mac.slot_us:
            raise ValueError("lte_mac.defer_us must be at least wifi_mac.sifs_us "
                             "+ lte_mac.slot_us")


def generate_topology(scenario: Scenario, clients: ClientGenConfig,
                      rng: np.random.Generator) -> Scenario:
    """Place generated clients around the configured bases.

    Bases keep their configured positions; each base receives a fixed
    or Poisson-distributed number of clients placed uniformly over the
    building and attached to it.
    """
    scenario.validate()
    out = list(scenario.nodes)
    for base in (n for n in scenario.nodes if n.is_base):
        if clients.mode == "fixed":
            count = int(clients.per_base)
        else:
            count = int(rng.poisson(clients.per_base))
        kind = "wifi_sta" if base.kind == "wifi_ap" else "lte_ue"
        for i in range(count):
            pos = Position(
                float(rng.uniform(0.0, scenario.building.width_m)),
                float(rng.uniform(0.0, scenario.building.depth_m)),
            )
            out.append(
                Node(
                    id=f"{base.id}_c{i}",
                    kind=kind,
                    position=pos,
                    tx_power_dbm=base.tx_power_dbm,
                    channel=base.channel,
                    attach_to=base.id,
                )
            )
    return replace(scenario, nodes=out)


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
    names = {f.name for f in fields(cls)}
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
                  {"t_default_dbm": WifiMacConfig.ed_threshold_dbm, **(data.get("wifi") or {})},
                  "coordination.wifi")
    lte = _build(AdaptiveEdConfig,
                 {"t_default_dbm": LteMacConfig.ed_threshold_dbm, **(data.get("lte") or {})},
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
    clients = (_build(ClientGenConfig, cfg["clients"], "clients")
               if cfg.get("clients") else None)
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


@dataclass
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
        thresholds_dbm=[float(t) for t in cov.get(
            "thresholds_dbm", [WifiMacConfig.ed_threshold_dbm, LteMacConfig.ed_threshold_dbm])],
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
