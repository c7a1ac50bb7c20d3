"""Scenario schema and its YAML configuration: dataclasses, presets, overrides.

The dataclasses below define and check every scenario the simulator
runs.  Config files are nested YAML mirroring the dataclass tree.  Only
this module reads a raw config dict, and ``_typed`` reads every key as
the type of its default: an int default takes a whole number, a float
default a finite one (neither takes a bool), a bool default only ``true``
or ``false``, a str default text and an Enum default a member name in
any case; any other default passes the value through, a float only if
finite.  Every section passes one key check (a misspelled key fails
with its exact name) and one error mapping (a wrong type or shape raises
``ConfigError`` naming the section), and each dataclass checks its own
values.  ``--set a.b.c=value`` overrides walk the raw dictionary before
construction; values parse as YAML.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .coordination import AdaptiveEdConfig, ChannelSelectConfig
from .propagation import Building, Position, PropagationModel
from .relay import SSID_MAX_BYTES, VALID_CHANNELS, CellInfo, MacSpec, NodeType, ScanEntry

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


def _check_channels(channels: list, name: str) -> None:
    for channel in channels:
        if not isinstance(channel, (int, float)) or channel not in VALID_CHANNELS:
            raise ConfigError(f"{name}: channel {channel!r} is not in the unlicensed channel set")
    if len(set(channels)) < len(channels):
        raise ConfigError(f"{name} must not repeat a channel: {channels}")


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
        threshold = self.ed_threshold_dbm
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float, type(None))):
            raise ValueError(f"node {self.id}: ed_threshold_dbm is no number: {threshold!r}")
        if threshold is not None and not self.is_base:
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
        self.wifi_rates = [(_typed(t, float, "phy.wifi_rates"), _typed(r, float, "phy.wifi_rates"))
                           for t, r in self.wifi_rates]
        self.lte_rates = [(_typed(t, float, "phy.lte_rates"), _typed(r, float, "phy.lte_rates"))
                          for t, r in self.lte_rates]


@dataclass
class ClientGenConfig:
    mode: str = "fixed"  # fixed | poisson
    per_base: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown client generation mode {self.mode!r}")
        if self.per_base < 0 or (self.mode == "fixed" and self.per_base % 1):
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
            _check_channels([node.channel], f"node {node.id}")
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


def _typed(value, default, key: str):
    """``value`` read as the type of ``default`` (or as ``default``, a type), else fail
    naming ``key``: the one place a config value gets its type."""
    kind = default if isinstance(default, type) else type(default)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, not {value!r}")
        return value
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    if kind is int and isinstance(value, int):
        return int(value)
    if kind is str:
        return str(value)
    if issubclass(kind, Enum):
        try:
            return kind[str(value).upper()]
        except KeyError:
            raise ConfigError(f"{key} must be one of {', '.join(m.name.lower() for m in kind)}, "
                              f"not {value!r}") from None
    if kind not in (int, float) and not isinstance(value, float):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, not {value!r}")
    if kind is int and number != int(number):
        raise ConfigError(f"{key} must be a whole number, not {value!r}")
    return int(number) if kind is int else number


def _read(data, section: str, defaults: dict) -> dict:
    """``defaults`` with each key ``data`` gives (no other) read over it by ``_typed``; a
    type as default marks a key ``data`` must give, a ``MISSING`` one is left out if not."""
    data = _section(data, defaults, section)
    out = {}
    for key, default in defaults.items():
        name = f"{section}.{key}" if section else key
        if key in data:
            out[key] = _typed(data[key], default, name)
        elif isinstance(default, type):
            raise ConfigError(f"missing config key: {name}")
        elif default is not MISSING:
            out[key] = default
    return out


def _build(cls, data, section: str, **defaults):
    """A ``cls`` from the mapping ``data``, each field read as its default's type."""
    with _reading(section):
        return cls(**_read(data, section, {**{f.name: f.default for f in fields(cls)},
                                           **defaults}))


def _build_propagation(data, section: str = "propagation") -> PropagationModel:
    data = dict(_section(data, None, section))
    if "model" in data:
        data["variant"] = data.pop("model")
    return _build(PropagationModel, data, section)


def _position(pos, owner: str) -> Position:
    if pos is None or len(pos) != 2:
        raise ConfigError(f"{owner} needs position: [x, y]")
    return Position(*(_typed(v, float, f"{owner} position") for v in pos))


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


def _build_coordination(cfg: dict) -> tuple:
    """The Wi-Fi and LTE MAC and AdaptiveEdConfig, and the ChannelSelectConfig.

    An unset ``t_default_dbm`` is the MAC's configured ED threshold.
    """
    wifi_mac = _build(WifiMacConfig, cfg["wifi_mac"], "wifi_mac")
    lte_mac = _build(LteMacConfig, cfg["lte_mac"], "lte_mac")
    data = _section(cfg["coordination"], ("wifi", "lte", "select"), "coordination")
    return (wifi_mac, lte_mac,
            _build(AdaptiveEdConfig, data.get("wifi"), "coordination.wifi",
                   t_default_dbm=wifi_mac.ed_threshold_dbm),
            _build(AdaptiveEdConfig, data.get("lte"), "coordination.lte",
                   t_default_dbm=lte_mac.ed_threshold_dbm),
            _build(ChannelSelectConfig, data.get("select"), "coordination.select"))


# every top-level key and its default: the sections read on as their own
TOP_LEVEL = {**dict.fromkeys(("building", "propagation", "coverage", "simulate", "nodes", "links",
                              "traffic", "wifi_mac", "lte_mac", "phy", "coordination", "relay",
                              "channels", "clients", "scan", "select", "adapt", "cell")),
             "seed": Scenario.seed}


@_reading("scenario")
def build_scenario(cfg: dict) -> Scenario:
    """Assemble a simulator Scenario from a raw config dict."""
    cfg = _read(cfg, "", TOP_LEVEL)
    wifi_mac, lte_mac, adapt_wifi, adapt_lte, _ = _build_coordination(cfg)
    scenario = Scenario(
        building=_build(Building, cfg["building"], "building"),
        nodes=_build_nodes(cfg["nodes"]),
        propagation=_build_propagation(cfg["propagation"]),
        traffic=_build(TrafficConfig, cfg["traffic"], "traffic"),
        seed=cfg["seed"],
        wifi_mac=wifi_mac,
        lte_mac=lte_mac,
        phy=_build(PhyConfig, cfg["phy"], "phy"),
        adapt_wifi=adapt_wifi,
        adapt_lte=adapt_lte,
        relay=_build(RelayConfig, cfg["relay"], "relay"),
        link_gains=_build_links(cfg["links"]),
        **_read(cfg["simulate"], "simulate",
                {k: getattr(Scenario, k) for k in ("duration_s", "warmup_s", "adaptive_ed")}),
    )
    if cfg["clients"]:
        return generate_topology(scenario, _build(ClientGenConfig, cfg["clients"], "clients"),
                                 np.random.default_rng([scenario.seed, 42]))
    scenario.validate()
    return scenario


@dataclass
class CoverageSpec:
    """Inputs for the coverage command: the ``coverage`` section with the building and seed."""

    building: Building
    models: list  # one PropagationModel per table row
    seed: int
    base_position: Position
    tx_power_dbm: float
    cells: list = field(default_factory=lambda: [("wifi", -87.5), ("ulte", -100.0)])
    thresholds_dbm: list = field(default_factory=lambda: [WifiMacConfig.ed_threshold_dbm,
                                                          LteMacConfig.ed_threshold_dbm])
    samples: int = 100_000
    include_shadow: bool = True
    margin_db: float = 0.0
    cdf_bin_db: float = 1.0

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("coverage.models must list at least one model")
        self.thresholds_dbm = [_typed(t, float, "coverage.thresholds_dbm")
                               for t in self.thresholds_dbm]
        if self.samples < 1000:
            raise ConfigError("coverage.samples must be at least 1000")
        if not self.cdf_bin_db > 0:
            raise ConfigError("coverage.cdf_bin_db must be positive")
        if not self.building.contains(self.base_position):
            raise ConfigError("coverage.base.position lies outside the building")


@_reading("coverage")
def build_coverage_spec(cfg: dict) -> CoverageSpec:
    cfg = _read(cfg, "", TOP_LEVEL)
    cov = dict(_section(cfg["coverage"], ("samples", "include_shadow", "margin_db", "base",
                                          "cells", "thresholds_dbm", "cdf_bin_db", "models"),
                        "coverage"))
    base = _read(cov.pop("base", None), "coverage.base",
                 {"position": [25.0, 30.0], "tx_power_dbm": 20.0})
    if "models" in cov:
        models = [_build_propagation(m, "coverage.models")
                  for m in _entries(cov.pop("models"), "coverage.models")]
    else:
        models = [_build_propagation(cfg["propagation"])]
    cells = cov.pop("cells", None)
    if cells:  # an empty or null list reads as omitted
        cov["cells"] = [tuple(_read(c, "coverage.cells",
                                    {"name": str, "min_sensitivity_dbm": float}).values())
                        for c in _entries(cells, "coverage.cells")]
    return _build(CoverageSpec, cov, "coverage",
                  building=_build(Building, cfg["building"], "building"), models=models,
                  seed=cfg["seed"], base_position=_position(base["position"], "coverage.base"),
                  tx_power_dbm=base["tx_power_dbm"])


# a scan record's keys and defaults (CellInfo's; a type marks a key every record gives)
SCAN_RECORD = {"cell_id": str, "channel": int, "source": "over_the_air", "rssi_dbm": float,
               "n_attached": 0, "utilization": 0.0, "node_type": NodeType.WIFI,
               "mac_spec": MacSpec.DCF, "tx_power_offset_db": 0}
# the scan keys that CellInfo names otherwise
SCAN_NAMES = {"cell_id": "operator_cell_id", "n_attached": "station_count",
              "utilization": "channel_utilization"}


@_reading("scan")
def _build_scan(cfg: dict, missing_utilization: float) -> list:
    """The scan entries; a null ``n_attached`` or ``utilization`` reads as omitted."""
    defaults = {**SCAN_RECORD, "utilization": missing_utilization}
    entries = []
    for rec in _entries(cfg["scan"] or [], "scan"):
        rec = _read({key: value for key, value in _section(rec, None, "scan").items()
                     if value is not None or key not in ("n_attached", "utilization")},
                    "scan", defaults)
        source, rssi_dbm = rec.pop("source"), rec.pop("rssi_dbm")
        cell = CellInfo(**{SCAN_NAMES.get(key, key): value for key, value in rec.items()})
        entries.append(ScanEntry(source, cell, rssi_dbm))
    return entries


@_reading("select")
def build_select(cfg: dict) -> tuple:
    """The ``select`` inputs: (scan entries, channels, running_on, ChannelSelectConfig)."""
    cfg = _read(cfg, "", TOP_LEVEL)
    running_on = _read(cfg["select"], "select", {"running_on": "wifi_ap"})["running_on"]
    if running_on not in ("wifi_ap", "lte_enb"):
        raise ConfigError(f"select.running_on must be wifi_ap or lte_enb, not {running_on!r}")
    channels = [_typed(c, int, "channels") for c in cfg["channels"] or []]
    if not channels:
        raise ConfigError("select needs a candidate channels list")
    _check_channels(channels, "channels")
    *_, select = _build_coordination(cfg)
    return _build_scan(cfg, select.missing_utilization_default), channels, running_on, select


@_reading("adapt")
def build_adapt(cfg: dict) -> tuple:
    """The ``adapt`` inputs: (scan entries, AdaptiveEdConfig, own channel or None)."""
    cfg = _read(cfg, "", TOP_LEVEL)
    adapt = _read(cfg["adapt"], "adapt", {"technology": "wifi", "own_channel": None})
    if adapt["own_channel"] is not None:
        _check_channels([adapt["own_channel"]], "adapt.own_channel")
    _, _, wifi, lte, select = _build_coordination(cfg)
    return (_build_scan(cfg, select.missing_utilization_default),
            {"wifi": wifi, "lte": lte}[adapt["technology"]], adapt["own_channel"])


@_reading("cell")
def build_cell(cfg: dict, overrides: dict) -> CellInfo:
    """The ``cell`` section as a CellInfo; ``overrides`` (the CLI flags) replace its keys."""
    cfg = _read(cfg, "", TOP_LEVEL)
    cell = _build(CellInfo, {**_section(cfg["cell"], None, "cell"), **overrides}, "cell",
                  operator_cell_id="", channel=36, node_type=NodeType.REL13_LAA,
                  mac_spec=MacSpec.LBT_CAT4)
    if len(cell.operator_cell_id.encode("utf-8")) > SSID_MAX_BYTES:
        raise ConfigError(f"cell.operator_cell_id exceeds the {SSID_MAX_BYTES}-byte SSID limit")
    return cell
