"""Pseudo-beacon codec and scan fusion.

An unlicensed-LTE cell's identity and load are packed into standard
802.11 beacon information elements so that the cell appears as another
Wi-Fi AP to unmodified receivers, while upgraded receivers recover the
full cross-technology payload from vendor-specific elements.

Wire contract (frozen; the byte layouts are this project's own):

===== ======================= =========================================
IE id field                   payload
===== ======================= =========================================
0     SSID                    UTF-8 operator/cell id, <= 32 bytes
3     DS Parameter Set        1 byte: channel number
61    HT Operation            22 bytes: primary channel + 21 zero bytes
11    BSS Load                u16le station count, u8 utilization
                              scaled 0..255 (round half up), u16le
                              available admission capacity
221   Vendor Specific (x3)    3-byte OUI 00:00:00, 1 subtype byte
                              (1=node type, 2=mac spec, 3=tx offset),
                              1 value byte; the tx offset is a signed
                              two's-complement dB value
===== ======================= =========================================

Utilization is quantized to the 1/255 grid on encode, so round-trip
identity holds exactly for utilizations on that grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum

IE_SSID = 0
SSID_MAX_BYTES = 32
IE_DS_PARAMS = 3
IE_BSS_LOAD = 11
IE_HT_OPERATION = 61
IE_VENDOR = 221

VENDOR_OUI = b"\x00\x00\x00"
SUBTYPE_NODE_TYPE = 1
SUBTYPE_MAC_SPEC = 2
SUBTYPE_TX_OFFSET = 3

# 5 GHz unlicensed 20 MHz channel numbers
VALID_CHANNELS = frozenset(
    list(range(36, 65, 4)) + list(range(100, 145, 4)) + list(range(149, 166, 4))
)


class NodeType(IntEnum):
    REL13_LAA = 1
    REL14_ELAA = 2
    MULTEFIRE = 3
    LTE_U = 4
    WIFI = 5


class MacSpec(IntEnum):
    LBT_CAT4 = 1
    LBT_CATX = 2
    OTHER = 3
    DCF = 4


# vendor subtype -> (CellInfo field, its name in errors, value byte -> field value)
VENDOR_FIELDS = {
    SUBTYPE_NODE_TYPE: ("node_type", "node type", NodeType),
    SUBTYPE_MAC_SPEC: ("mac_spec", "mac spec", MacSpec),
    SUBTYPE_TX_OFFSET: ("tx_power_offset_db", "tx offset", lambda b: b - 256 if b > 127 else b),
}


class BeaconDecodeError(ValueError):
    """Malformed information element; carries the offending element id."""

    def __init__(self, message: str, element_id: int | None = None):
        super().__init__(message)
        self.element_id = element_id


@dataclass(frozen=True)
class InformationElement:
    element_id: int
    payload: bytes

    def __post_init__(self) -> None:
        if not (0 <= self.element_id <= 255):
            raise ValueError("element id must fit in one byte")
        if len(self.payload) > 255:
            raise ValueError("IE payload may not exceed 255 bytes")

    @property
    def length(self) -> int:
        return len(self.payload)

    def to_bytes(self) -> bytes:
        return bytes([self.element_id, self.length]) + self.payload


@dataclass(frozen=True)
class CellInfo:
    """The cross-technology payload carried by a pseudo beacon."""

    operator_cell_id: str
    channel: int
    station_count: int = 0
    channel_utilization: float = 0.0
    available_admission_capacity: int = 0
    node_type: NodeType = NodeType.WIFI
    mac_spec: MacSpec = MacSpec.DCF
    tx_power_offset_db: int = 0

    def __post_init__(self) -> None:
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel {self.channel} is not in the unlicensed channel set")
        if not (0.0 <= self.channel_utilization <= 1.0):
            raise ValueError("utilization must lie in [0, 1]")
        if not (0 <= self.station_count <= 0xFFFF):
            raise ValueError("station count must fit in 16 bits")
        if not (0 <= self.available_admission_capacity <= 0xFFFF):
            raise ValueError("admission capacity must fit in 16 bits")
        if not (-128 <= self.tx_power_offset_db <= 127):
            raise ValueError("tx power offset must fit in a signed byte")


@dataclass(frozen=True)
class ScanEntry:
    """One neighbor base as seen in a (possibly fused) scan."""

    source: str  # "over_the_air" | "relayed"
    cell: CellInfo
    rssi_dbm: float

    def __post_init__(self) -> None:
        if self.source not in ("over_the_air", "relayed"):
            raise ValueError(f"unknown scan source {self.source!r}")
        if not isinstance(self.rssi_dbm, (int, float)) or not math.isfinite(self.rssi_dbm):
            raise ValueError("rssi must be a finite number")


def _scale_utilization(utilization: float) -> int:
    # round half up onto the 0..255 grid
    return min(255, int(utilization * 255.0 + 0.5))


def encode_pseudo_beacon(cell: CellInfo) -> list[InformationElement]:
    """Encode a CellInfo into the pseudo-beacon IE list."""
    ssid = cell.operator_cell_id.encode("utf-8")
    if len(ssid) > SSID_MAX_BYTES:
        raise ValueError(f"operator/cell id exceeds the {SSID_MAX_BYTES}-byte SSID limit")
    bss_load = struct.pack(
        "<HBH",
        cell.station_count,
        _scale_utilization(cell.channel_utilization),
        cell.available_admission_capacity,
    )
    ht_operation = bytes([cell.channel]) + b"\x00" * 21
    offset_byte = struct.pack("b", cell.tx_power_offset_db)
    return [
        InformationElement(IE_SSID, ssid),
        InformationElement(IE_DS_PARAMS, bytes([cell.channel])),
        InformationElement(IE_HT_OPERATION, ht_operation),
        InformationElement(IE_BSS_LOAD, bss_load),
        InformationElement(IE_VENDOR, VENDOR_OUI + bytes([SUBTYPE_NODE_TYPE, cell.node_type])),
        InformationElement(IE_VENDOR, VENDOR_OUI + bytes([SUBTYPE_MAC_SPEC, cell.mac_spec])),
        InformationElement(IE_VENDOR, VENDOR_OUI + bytes([SUBTYPE_TX_OFFSET]) + offset_byte),
    ]


def _require_length(ie: InformationElement, expected: int) -> None:
    if ie.length != expected:
        raise BeaconDecodeError(
            f"element {ie.element_id}: expected {expected} payload bytes, got {ie.length}",
            element_id=ie.element_id,
        )


def decode_pseudo_beacon(ies: list[InformationElement]) -> CellInfo:
    """Decode an IE list into a CellInfo.

    Beacons without the designated vendor elements decode through the
    backward-compatible path: SSID/channel/load only, with node type
    WIFI, DCF mac spec and zero TX offset.  Malformed elements raise
    ``BeaconDecodeError`` naming the offending element id.
    """
    ssid = None
    ds_channel = None
    ht_channel = None
    station_count = 0
    utilization = 0.0
    admission = 0
    vendor: dict[int, bytes] = {}

    for ie in ies:
        if ie.element_id == IE_SSID:
            try:
                ssid = ie.payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BeaconDecodeError(f"element 0: invalid UTF-8 SSID: {exc}", 0) from exc
        elif ie.element_id == IE_DS_PARAMS:
            _require_length(ie, 1)
            ds_channel = ie.payload[0]
        elif ie.element_id == IE_HT_OPERATION:
            if ie.length < 1:
                raise BeaconDecodeError("element 61: empty HT operation", 61)
            ht_channel = ie.payload[0]
        elif ie.element_id == IE_BSS_LOAD:
            _require_length(ie, 5)
            station_count, util_byte, admission = struct.unpack("<HBH", ie.payload)
            utilization = util_byte / 255.0
        elif ie.element_id == IE_VENDOR:
            if ie.length >= 4 and ie.payload[:3] == VENDOR_OUI and ie.payload[3] in VENDOR_FIELDS:
                vendor[ie.payload[3]] = ie.payload[4:]

    if ssid is None or ds_channel is None:
        raise BeaconDecodeError("beacon lacks SSID (0) or DS Parameter Set (3)", IE_SSID)
    if ht_channel is not None and ht_channel != ds_channel:
        raise BeaconDecodeError(
            f"element 61: HT primary channel {ht_channel} disagrees with "
            f"DS Parameter Set channel {ds_channel}",
            61,
        )
    if ds_channel not in VALID_CHANNELS:
        raise BeaconDecodeError(f"element 3: channel {ds_channel} not in unlicensed set", 3)

    extras = {}
    if vendor.keys() >= VENDOR_FIELDS.keys():
        for subtype, value in vendor.items():
            name, what, convert = VENDOR_FIELDS[subtype]
            if len(value) != 1:
                raise BeaconDecodeError(f"element 221: bad {what.replace(' ', '-')} value", 221)
            try:
                extras[name] = convert(value[0])
            except ValueError as exc:
                raise BeaconDecodeError(f"element 221: unknown {what} {value[0]}", 221) from exc

    return CellInfo(
        operator_cell_id=ssid,
        channel=ds_channel,
        station_count=station_count,
        channel_utilization=utilization,
        available_admission_capacity=admission,
        **extras,
    )


def serialize_ies(ies: list[InformationElement]) -> bytes:
    return b"".join(ie.to_bytes() for ie in ies)


def parse_ies(data: bytes) -> list[InformationElement]:
    """Parse a raw (id, length, payload)* byte string into elements."""
    out = []
    i = 0
    while i < len(data):
        if i + 2 > len(data):
            raise BeaconDecodeError(
                f"element {data[i]}: truncated header at byte {i}", element_id=data[i]
            )
        element_id, length = data[i], data[i + 1]
        if i + 2 + length > len(data):
            raise BeaconDecodeError(
                f"element {element_id}: payload truncated ({length} bytes declared, "
                f"{len(data) - i - 2} available)",
                element_id=element_id,
            )
        out.append(InformationElement(element_id, data[i + 2 : i + 2 + length]))
        i += 2 + length
    return out


def ies_to_hex(ies: list[InformationElement]) -> str:
    return serialize_ies(ies).hex()


def hex_to_ies(hex_string: str) -> list[InformationElement]:
    try:
        raw = bytes.fromhex(hex_string.strip())
    except ValueError as exc:
        raise BeaconDecodeError(f"invalid hex: {exc}") from exc
    return parse_ies(raw)


def merge_scans(ota: list[ScanEntry], relayed: list[ScanEntry]) -> list[ScanEntry]:
    """Fuse over-the-air and relayed scan entries.

    Entries are keyed by operator/cell id.  When both sources report the
    same cell the over-the-air RSSI wins, and the relayed cell, counts
    and load included, replaces a plain Wi-Fi air cell; an air cell that
    already carries a cross-technology payload is kept.  Output is
    sorted by descending RSSI, cell id as tiebreak, and the merge is
    idempotent.
    """
    merged = {entry.cell.operator_cell_id: entry for entry in ota}
    for entry in relayed:
        key = entry.cell.operator_cell_id
        base = merged.get(key)
        if base is None:
            merged[key] = entry
        elif base.cell.node_type == NodeType.WIFI:
            merged[key] = replace(base, cell=entry.cell)
    return sorted(merged.values(), key=lambda e: (-e.rssi_dbm, e.cell.operator_cell_id))
