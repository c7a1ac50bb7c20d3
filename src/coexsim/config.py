"""Scenario schema and its YAML configuration: dataclasses, presets, overrides.

The dataclasses below define and check every scenario the simulator
runs.  Config files are nested YAML mirroring the dataclass tree.  Only
this module reads a raw config dict: every section passes one key check
(a misspelled key fails with its exact name) and one error mapping (a
wrong type or shape raises ``ConfigError`` naming the section), and each
dataclass checks its own values.  ``--set a.b.c=value`` overrides walk
the raw dictionary before construction; values parse as YAML.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .coordination import AdaptiveEdConfig, ChannelSelectConfig
from .propagation import Building, Position, PropagationModel
from .relay import CellInfo, MacSpec, NodeType, ScanEntry

PRESET_NAMES = ("table1_inh", "table1_diffusion", "figure3_collision",
                "figure4_coexistence")

# libyaml's scanner and parser where PyYAML was built with them; the
# Python SafeConstructor and Resolver still turn scalars into values, so
# both loaders give the same config
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
            values = [self.file_size_bytes, self.arrival_rate_per_client,
                      *dict(self.file_size_overrides).values(),
                      *dict(self.arrival_rate_overrides).values()]
            if not all(0 < float(v) < math.inf for v in values):
                raise ValueError("file sizes and arrival rates must be positive and finite")

    def rate_for(self, client_id: str) -> float:
        return float(self.arrival_rate_overrides.get(client_id,
                                                     self.arrival_rate_per_client))

    def size_bits_for(self, client_id: str) -> float:
        return 8.0 * float(self.file_size_overrides.get(client_id,
                                                        self.file_size_bytes))


@dataclass
class WifiMacConfig:
    # 802.11 OFDM interframe timing; DIFS is SIFS + 2 slots
    slot_us: float = 9.0
    sifs_us: float = 16.0
    ack_duration_us: float = 44.0
    beacon_interval_ms: float = 100.0
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
        if min(self.slot_us, self.sifs_us, self.ack_duration_us, self.beacon_interval_ms) <= 0:
            raise ValueError("all timing parameters must be positive")

    @property
    def difs_us(self) -> float:
        return self.sifs_us + 2.0 * self.slot_us


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
        self.wifi_rates = [(_finite(t, "phy.wifi_rates"), _finite(r, "phy.wifi_rates"))
                           for t, r in self.wifi_rates]
        self.lte_rates = [(_finite(t, "phy.lte_rates"), _finite(r, "phy.lte_rates"))
                          for t, r in self.lte_rates]


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

    def adapt_for(self, technology: str) -> AdaptiveEdConfig:
        """The technology-wide adaptation settings (a base's own threshold caps them)."""
        return self.adapt_wifi if technology == "wifi" else self.adapt_lte

    def validate(self) -> None:
        if self.duration_s < 0 or self.warmup_s < 0:
            raise ValueError("duration_s and warmup_s must not be negative")
        if not any(n.is_base for n in self.nodes):
            raise ValueError("scenario needs at least one base")
        for node in self.nodes:
            if not self.building.contains(node.position):
                raise ValueError(f"node {node.id} lies outside the building")
            # a base's own threshold is its adaptation ceiling
            t_min = self.adapt_for(node.technology).t_min_dbm
            if node.ed_threshold_dbm is not None and node.ed_threshold_dbm < t_min:
                raise ValueError(f"node {node.id}: ed_threshold_dbm {node.ed_threshold_dbm} "
                                 f"lies below {node.technology} t_min_dbm {t_min}")
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
        clients = {n.id for n in self.nodes if n.attach_to is not None}
        for name, named, known, kind in (
                ("links", {nid for pair in self.link_gains for nid in pair}, by_id, "node"),
                ("traffic.arrival_rate_overrides", self.traffic.arrival_rate_overrides,
                 clients, "client"),
                ("traffic.file_size_overrides", self.traffic.file_size_overrides,
                 clients, "client")):
            unknown = sorted(map(str, set(named) - set(known)))
            if unknown:
                raise ValueError(f"{name} names {unknown[0]!r}, which is no {kind}")
        for (a, b), gain in self.link_gains.items():
            if not math.isfinite(gain):
                raise ValueError(f"links.{a}.{b} must be a finite gain, not {gain}")
            if a == b:
                raise ValueError(f"links.{a}.{b} links a node to itself")
            if self.link_gains.get((b, a), gain) != gain:
                raise ValueError(f"links.{a}.{b} and links.{b}.{a} give different gains")
        if self.lte_mac.defer_us < self.wifi_mac.sifs_us + self.lte_mac.slot_us:
            raise ValueError("lte_mac.defer_us must be at least wifi_mac.sifs_us "
                             "+ lte_mac.slot_us")


def generate_topology(scenario: Scenario, clients: ClientGenConfig,
                      rng: np.random.Generator) -> Scenario:
    """Place generated clients around the configured bases.

    Bases keep their configured positions; each base receives a fixed
    or Poisson-distributed number of clients placed uniformly over the
    building and attached to it.  The result is validated with its
    generated clients, so per-node maps (``links``, the traffic
    overrides) may name them.
    """
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
    scenario = replace(scenario, nodes=out)
    scenario.validate()
    return scenario


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    return data


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``key.path=value`` overrides onto the raw dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key_path, raw_value = item.split("=", 1)
        try:
            value = yaml.load(raw_value, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {key_path}: {exc}") from exc
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


def _section(data, keys, name: str) -> dict:
    """``data`` as a mapping with no key outside ``keys`` (None: any key); None reads as {}."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{name or 'config root'} must be a mapping")
    unknown = sorted(map(str, set(data) - set(keys))) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown config key: {name + '.' if name else ''}{unknown[0]}")
    return data


def _entries(data, name: str) -> list:
    """``data`` as a list section; a mapping or scalar is rejected by name."""
    if not isinstance(data, list):
        raise ConfigError(f"{name} must be a list of entries")
    return data


@contextmanager
def _reading(name: str):
    """Report a wrong type or shape met while reading ``name`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        detail = f"missing or unknown {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name}: {detail}") from exc


def _finite(value, key: str) -> float:
    """``value`` (a number, or text float() reads) as a finite float, else fail naming ``key``."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, not {value!r}")
    return number


def _whole(value, key: str) -> int:
    """``value`` as an int when it is a whole number, else fail naming ``key``."""
    number = value if isinstance(value, int) else _finite(value, key)
    if number != int(number):
        raise ConfigError(f"{key} must be a whole number, not {value!r}")
    return int(number)


def _build(cls, data, section: str, **defaults):
    """Construct a dataclass from a mapping, rejecting unknown keys and non-finite numbers.

    A field whose default is a number is read as one: an int default takes
    only a whole number, read as an int, and a float default a float.
    """
    data = dict(_section(data, [f.name for f in fields(cls)], section))
    kinds = {f.name: type(f.default) for f in fields(cls)}
    for key, value in data.items():
        if kinds[key] is int:
            data[key] = _whole(value, f"{section}.{key}")
        elif kinds[key] is float or isinstance(value, float):
            data[key] = _finite(value, f"{section}.{key}")
    with _reading(section):
        return cls(**{**defaults, **data})


def _build_propagation(data, section: str = "propagation") -> PropagationModel:
    data = dict(_section(data, None, section))
    if "model" in data:
        data["variant"] = data.pop("model")
    return _build(PropagationModel, data, section)


def _build_macs(cfg: dict) -> tuple:
    return (_build(WifiMacConfig, cfg.get("wifi_mac"), "wifi_mac"),
            _build(LteMacConfig, cfg.get("lte_mac"), "lte_mac"))


def _position(pos, owner: str) -> Position:
    if pos is None or len(pos) != 2:
        raise ConfigError(f"{owner} needs position: [x, y]")
    return Position(_finite(pos[0], f"{owner} position"), _finite(pos[1], f"{owner} position"))


@_reading("nodes")
def _build_nodes(data) -> list:
    nodes = []
    for node in _entries(data or [], "nodes"):
        node = dict(_section(node, None, "nodes"))
        node["position"] = _position(node.get("position"), f"node {node.get('id', '?')}")
        nodes.append(_build(Node, node, "nodes"))
    return nodes


@_reading("links")
def _build_links(data) -> dict:
    return {(a, b): float(gain) for a, peers in _section(data, None, "links").items()
            for b, gain in _section(peers, None, f"links.{a}").items()}


@_reading("simulate")
def _build_run(data) -> dict:
    sim = _section(data, ("duration_s", "warmup_s", "adaptive_ed"), "simulate")
    return {"duration_s": _finite(sim.get("duration_s", 1.0), "simulate.duration_s"),
            "warmup_s": _finite(sim.get("warmup_s", 0.0), "simulate.warmup_s"),
            "adaptive_ed": bool(sim.get("adaptive_ed", False))}


def _build_coordination(cfg: dict, wifi_mac: WifiMacConfig, lte_mac: LteMacConfig) -> tuple:
    """The Wi-Fi and LTE AdaptiveEdConfig and the ChannelSelectConfig.

    An unset ``t_default_dbm`` is the MAC's configured ED threshold.
    """
    data = _section(cfg.get("coordination"), ("wifi", "lte", "select"), "coordination")
    return (_build(AdaptiveEdConfig, data.get("wifi"), "coordination.wifi",
                   t_default_dbm=wifi_mac.ed_threshold_dbm),
            _build(AdaptiveEdConfig, data.get("lte"), "coordination.lte",
                   t_default_dbm=lte_mac.ed_threshold_dbm),
            _build(ChannelSelectConfig, data.get("select"), "coordination.select"))


@_reading("seed")
def _seed(cfg: dict) -> int:
    return _whole(cfg.get("seed", 1), "seed")


TOP_LEVEL_KEYS = {
    "seed", "building", "propagation", "coverage", "simulate", "nodes",
    "links", "traffic", "wifi_mac", "lte_mac", "phy", "coordination",
    "relay", "channels", "clients", "scan", "select", "adapt", "cell",
}


@_reading("scenario")
def build_scenario(cfg: dict) -> Scenario:
    """Assemble a simulator Scenario from a raw config dict."""
    _section(cfg, TOP_LEVEL_KEYS, "")
    wifi_mac, lte_mac = _build_macs(cfg)
    adapt_wifi, adapt_lte, _ = _build_coordination(cfg, wifi_mac, lte_mac)
    scenario = Scenario(
        building=_build(Building, cfg.get("building"), "building"),
        nodes=_build_nodes(cfg.get("nodes")),
        propagation=_build_propagation(cfg.get("propagation")),
        traffic=_build(TrafficConfig, cfg.get("traffic"), "traffic"),
        seed=_seed(cfg),
        wifi_mac=wifi_mac,
        lte_mac=lte_mac,
        phy=_build(PhyConfig, cfg.get("phy"), "phy"),
        adapt_wifi=adapt_wifi,
        adapt_lte=adapt_lte,
        relay=_build(RelayConfig, cfg.get("relay"), "relay"),
        link_gains=_build_links(cfg.get("links")),
        **_build_run(cfg.get("simulate")),
    )
    if cfg.get("clients"):
        return generate_topology(scenario, _build(ClientGenConfig, cfg["clients"], "clients"),
                                 np.random.default_rng([scenario.seed, 42]))
    scenario.validate()
    return scenario


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
    seed: int


@_reading("coverage")
def build_coverage_spec(cfg: dict) -> CoverageSpec:
    _section(cfg, TOP_LEVEL_KEYS, "")
    cov = _section(cfg.get("coverage"), ("samples", "include_shadow", "margin_db", "base", "cells",
                                         "thresholds_dbm", "cdf_bin_db", "models"), "coverage")
    base = _section(cov.get("base"), ("position", "tx_power_dbm"), "coverage.base")
    if "models" in cov:
        models = [_build_propagation(m, "coverage.models")
                  for m in _entries(cov["models"], "coverage.models")]
        if not models:
            raise ConfigError("coverage.models must list at least one model")
    else:
        models = [_build_propagation(cfg.get("propagation"))]
    cells = [_section(c, ("name", "min_sensitivity_dbm"), "coverage.cells")
             for c in _entries(cov.get("cells") or [
                 {"name": "wifi", "min_sensitivity_dbm": -87.5},
                 {"name": "ulte", "min_sensitivity_dbm": -100.0}], "coverage.cells")]
    spec = CoverageSpec(
        building=_build(Building, cfg.get("building"), "building"),
        models=models,
        base_position=_position(base.get("position", [25.0, 30.0]), "coverage.base"),
        tx_power_dbm=_finite(base.get("tx_power_dbm", 20.0), "coverage.base.tx_power_dbm"),
        cells=[(c["name"], _finite(c["min_sensitivity_dbm"],
                                   "coverage.cells.min_sensitivity_dbm")) for c in cells],
        thresholds_dbm=[_finite(t, "coverage.thresholds_dbm") for t in cov.get(
            "thresholds_dbm", [WifiMacConfig.ed_threshold_dbm, LteMacConfig.ed_threshold_dbm])],
        samples=_whole(cov.get("samples", 100_000), "coverage.samples"),
        include_shadow=bool(cov.get("include_shadow", True)),
        margin_db=_finite(cov.get("margin_db", 0.0), "coverage.margin_db"),
        cdf_bin_db=_finite(cov.get("cdf_bin_db", 1.0), "coverage.cdf_bin_db"),
        seed=_seed(cfg),
    )
    if spec.samples < 1000:
        raise ConfigError("coverage.samples must be at least 1000")
    if not spec.cdf_bin_db > 0:
        raise ConfigError("coverage.cdf_bin_db must be positive")
    if not spec.building.contains(spec.base_position):
        raise ConfigError("coverage.base.position lies outside the building")
    return spec


def _cell_info(data: dict, section: str) -> CellInfo:
    """A CellInfo from the keys named as its fields; ``node_type``/``mac_spec`` go by name.

    A count that is no whole number fails naming ``section.key``.
    """
    counts = {key: _whole(data[key], f"{section}.{key}") for key in
              ("station_count", "available_admission_capacity", "tx_power_offset_db")
              if key in data}
    return CellInfo(
        operator_cell_id=str(data["operator_cell_id"]),
        channel=_whole(data["channel"], f"{section}.channel"),
        channel_utilization=float(data.get("channel_utilization", 0.0)),
        node_type=NodeType[str(data.get("node_type", "wifi")).upper()],
        mac_spec=MacSpec[str(data.get("mac_spec", "dcf")).upper()],
        **counts,
    )


@_reading("scan")
def _build_scan(cfg: dict, missing_utilization: float) -> list:
    """The scan entries; an omitted ``n_attached`` is 0, an omitted ``utilization`` the default."""
    entries = []
    for rec in _entries(cfg.get("scan") or [], "scan"):
        rec = _section(rec, ("cell_id", "channel", "source", "rssi_dbm", "n_attached",
                             "utilization", "node_type", "mac_spec", "tx_power_offset_db"), "scan")
        stations = _whole(rec.get("n_attached") or 0, "scan.n_attached")
        utilization = rec.get("utilization")
        entries.append(ScanEntry(
            source=rec.get("source", "over_the_air"),
            cell=_cell_info({**rec, "operator_cell_id": rec["cell_id"], "station_count": stations,
                             "channel_utilization": missing_utilization if utilization is None
                             else utilization}, "scan"),
            rssi_dbm=float(rec["rssi_dbm"]),
        ))
    return entries


@_reading("select")
def build_select(cfg: dict) -> tuple:
    """The ``select`` inputs: (scan entries, channels, running_on, ChannelSelectConfig)."""
    _section(cfg, TOP_LEVEL_KEYS, "")
    running_on = _section(cfg.get("select"), ("running_on",), "select").get(
        "running_on", "wifi_ap")
    if running_on not in ("wifi_ap", "lte_enb"):
        raise ConfigError(f"select.running_on must be wifi_ap or lte_enb, not {running_on!r}")
    channels = [_whole(c, "channels") for c in cfg.get("channels") or []]
    if not channels:
        raise ConfigError("select needs a candidate channels list")
    _, _, select = _build_coordination(cfg, *_build_macs(cfg))
    return _build_scan(cfg, select.missing_utilization_default), channels, running_on, select


@_reading("adapt")
def build_adapt(cfg: dict) -> tuple:
    """The ``adapt`` inputs: (scan entries, AdaptiveEdConfig, own channel or None)."""
    _section(cfg, TOP_LEVEL_KEYS, "")
    adapt = _section(cfg.get("adapt"), ("technology", "own_channel"), "adapt")
    wifi, lte, select = _build_coordination(cfg, *_build_macs(cfg))
    own_channel = adapt.get("own_channel")
    return (_build_scan(cfg, select.missing_utilization_default),
            {"wifi": wifi, "lte": lte}[adapt.get("technology", "wifi")],
            None if own_channel is None else _whole(own_channel, "adapt.own_channel"))


@_reading("cell")
def build_cell(cfg: dict, overrides: dict) -> CellInfo:
    """The ``cell`` section as a CellInfo; ``overrides`` (the CLI flags) replace its keys."""
    _section(cfg, TOP_LEVEL_KEYS, "")
    cell = _section(cfg.get("cell"), [f.name for f in fields(CellInfo)], "cell")
    return _cell_info({"operator_cell_id": "", "channel": 36, "node_type": "rel13_laa",
                       "mac_spec": "lbt_cat4", **cell, **overrides}, "cell")
