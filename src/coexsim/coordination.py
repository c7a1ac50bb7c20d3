"""Decision algorithms run on fused scan results.

Two algorithms live here:

* enhanced channel selection -- filter weak neighbors (after applying
  the relayed TX power offset), score each candidate channel by
  w1 * average(utilization) + w2 * sum(attached clients) with an
  upward adjustment for hard-to-timeshare cross-technology neighbors,
  then pick the argmin with a deterministic tiebreak;
* adaptive ED thresholding -- lower the energy-detection threshold just
  far enough to hear the weakest active co-channel neighbor, clamped to
  [t_min, t_default] so noise can never masquerade as a neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .relay import NodeType, ScanEntry


@dataclass
class ChannelSelectConfig:
    rssi_filter_threshold_dbm: float = -82.0
    w1: float = 10.0
    w2: float = 1.0
    lte_timeshare_penalty: float = 1.5
    # apply the cross-technology penalty on both node kinds, not only
    # when running on the LTE base (directional in the source material)
    symmetric_penalty: bool = True
    # the load of a scan-file entry that gives none: legacy APs ship no
    # load element, so score them pessimistically
    missing_utilization_default: float = 0.5

    def __post_init__(self) -> None:
        if self.w1 < 0 or self.w2 < 0 or (self.w1 == 0 and self.w2 == 0):
            raise ValueError("weights must be >= 0 and not both zero")
        if self.lte_timeshare_penalty < 1.0:
            raise ValueError("timeshare penalty must be >= 1")
        if not 0.0 <= self.missing_utilization_default <= 1.0:
            raise ValueError("missing_utilization_default must lie in [0, 1]")


@dataclass
class AdaptiveEdConfig:
    t_default_dbm: float = -62.0
    t_min_dbm: float = -82.0
    update_period_s: float = 1.0
    # subtracted from the weakest neighbor RSSI to ride out fading
    safety_margin_db: float = 0.0

    def __post_init__(self) -> None:
        if self.t_min_dbm > self.t_default_dbm:
            raise ValueError("t_min must not exceed t_default")
        if self.update_period_s <= 0:
            raise ValueError("update period must be positive")


def _is_cross_technology(entry: ScanEntry, running_on: str) -> bool:
    is_wifi_neighbor = entry.cell.node_type == NodeType.WIFI
    if running_on == "lte_enb":
        return is_wifi_neighbor
    return not is_wifi_neighbor


def filter_scan(scan: list[ScanEntry], cfg: ChannelSelectConfig) -> list[ScanEntry]:
    """Drop weak neighbors; relayed LTE entries get the TX power offset.

    The offset corrects the helper beacon's RSSI to the advertised
    cell's own transmit level, so the comparison (and everything
    downstream) sees the adjusted value.
    """
    kept = []
    for entry in scan:
        effective = entry.rssi_dbm
        if entry.source == "relayed" and entry.cell.node_type != NodeType.WIFI:
            effective = entry.rssi_dbm + entry.cell.tx_power_offset_db
        if effective >= cfg.rssi_filter_threshold_dbm:
            kept.append(replace(entry, rssi_dbm=effective))
    return kept


def channel_metric(
    entries_on_channel: list[ScanEntry],
    cfg: ChannelSelectConfig,
    running_on: str = "wifi_ap",
) -> float:
    """Combined predicted/actual airtime score for one channel's entries.

    metric = w1 * average(U) + w2 * sum(N_attached), with U and
    N_attached each entry's cell utilization and station count.  Each
    cross-technology entry's contribution to both terms is multiplied by
    the timeshare penalty (always when running on the LTE base;
    symmetric on the Wi-Fi side when configured).  A channel with no
    entries scores 0.
    """
    if not entries_on_channel:
        return 0.0
    util_sum = 0.0
    attached_sum = 0.0
    for entry in entries_on_channel:
        penalty = 1.0
        if _is_cross_technology(entry, running_on) and (
            running_on == "lte_enb" or cfg.symmetric_penalty
        ):
            penalty = cfg.lte_timeshare_penalty
        util_sum += penalty * entry.cell.channel_utilization
        attached_sum += penalty * entry.cell.station_count
    return cfg.w1 * (util_sum / len(entries_on_channel)) + cfg.w2 * attached_sum


def select_channel(metrics: dict[int, float]) -> int:
    """Argmin over ``{channel: metric}``; ties break to the lowest channel."""
    if not metrics:
        raise ValueError("cannot select from no channel metrics")
    return min(metrics, key=lambda channel: (metrics[channel], channel))


def adapt_ed_threshold(
    scan: list[ScanEntry],
    cfg: AdaptiveEdConfig,
    own_channel: int | None = None,
) -> float:
    """New ED threshold from the active co-channel neighborhood.

    Filters the scan to co-channel entries with at least one attached
    client; with no such neighbor the default applies.  Otherwise the
    threshold drops to the weakest active neighbor's RSSI (minus the
    safety margin), clamped into [t_min, t_default]: low enough to hear
    every reachable active neighbor, never low enough to trip on noise.
    """
    active = []
    for entry in scan:
        if own_channel is not None and entry.cell.channel != own_channel:
            continue
        if entry.cell.station_count > 0:
            active.append(entry)
    if not active:
        return cfg.t_default_dbm
    weakest = min(e.rssi_dbm for e in active)
    target = weakest - cfg.safety_margin_db
    return min(max(target, cfg.t_min_dbm), cfg.t_default_dbm)
