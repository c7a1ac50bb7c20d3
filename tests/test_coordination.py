import pytest
from hypothesis import given, settings, strategies as st

from coexsim.config import build_select
from coexsim.coordination import (
    AdaptiveEdConfig,
    ChannelSelectConfig,
    adapt_ed_threshold,
    channel_metric,
    filter_scan,
    select_channel,
)
from coexsim.relay import CellInfo, MacSpec, NodeType, ScanEntry


def entry(rssi, channel=36, node_type=NodeType.WIFI, source="over_the_air",
          n_attached=0, utilization=0.0, offset=0, cell_id="cell"):
    cell = CellInfo(
        operator_cell_id=cell_id, channel=channel, station_count=n_attached,
        channel_utilization=utilization,
        node_type=node_type,
        mac_spec=MacSpec.DCF if node_type == NodeType.WIFI else MacSpec.LBT_CAT4,
        tx_power_offset_db=offset,
    )
    return ScanEntry(source, cell, rssi)


class TestFilterScan:
    def test_weak_entry_dropped(self):
        cfg = ChannelSelectConfig(rssi_filter_threshold_dbm=-75.0)
        assert filter_scan([entry(-80.0)], cfg) == []

    def test_offset_applied_before_filter(self):
        cfg = ChannelSelectConfig(rssi_filter_threshold_dbm=-75.0)
        scan = [entry(-78.0, node_type=NodeType.REL13_LAA, source="relayed", offset=6)]
        kept = filter_scan(scan, cfg)
        assert len(kept) == 1
        assert kept[0].rssi_dbm == -72.0

    def test_empty_scan(self):
        assert filter_scan([], ChannelSelectConfig()) == []

    def test_wifi_entries_not_offset(self):
        cfg = ChannelSelectConfig(rssi_filter_threshold_dbm=-75.0)
        scan = [entry(-74.0, node_type=NodeType.WIFI, offset=6)]
        assert filter_scan(scan, cfg)[0].rssi_dbm == -74.0

    @given(st.floats(min_value=-100, max_value=-60))
    @settings(derandomize=True, max_examples=50)
    def test_subfilter_entries_never_change_result(self, weak_rssi):
        # adding an entry below the filter never changes any metric
        cfg = ChannelSelectConfig(rssi_filter_threshold_dbm=-75.0)
        base = [entry(-60.0, utilization=0.4, n_attached=2)]
        kept = filter_scan(base, cfg)
        if weak_rssi < -75.0:
            with_weak = filter_scan(base + [entry(weak_rssi, cell_id="weak")], cfg)
            assert channel_metric(kept, cfg) == channel_metric(with_weak, cfg)


class TestChannelMetric:
    def test_empty_channel_zero(self):
        assert channel_metric([], ChannelSelectConfig()) == 0.0

    def test_hand_computed(self):
        cfg = ChannelSelectConfig(w1=10.0, w2=1.0, lte_timeshare_penalty=1.0)
        entries = [
            entry(-60.0, utilization=0.4, n_attached=2, cell_id="a"),
            entry(-65.0, utilization=0.6, n_attached=3, cell_id="b"),
        ]
        assert channel_metric(entries, cfg) == pytest.approx(10.0 * 0.5 + 5.0)

    def test_penalty_against_brute_force(self):
        cfg = ChannelSelectConfig(w1=10.0, w2=1.0, lte_timeshare_penalty=2.0,
                                  symmetric_penalty=True)
        entries = [
            entry(-60.0, utilization=0.4, n_attached=2, cell_id="wifi"),
            entry(-65.0, utilization=0.6, n_attached=3, cell_id="lte",
                  node_type=NodeType.REL13_LAA),
        ]
        metric = channel_metric(entries, cfg, running_on="wifi_ap")
        # brute force: penalized terms recomputed from scratch
        util_term = (1.0 * 0.4 + 2.0 * 0.6) / 2
        attached_term = 1.0 * 2 + 2.0 * 3
        assert metric == pytest.approx(10.0 * util_term + attached_term)

    def test_penalty_direction_on_enb(self):
        cfg = ChannelSelectConfig(w1=10.0, w2=1.0, lte_timeshare_penalty=2.0,
                                  symmetric_penalty=False)
        wifi_neighbor = [entry(-60.0, utilization=0.5, n_attached=1)]
        on_ap = channel_metric(wifi_neighbor, cfg, running_on="wifi_ap")
        on_enb = channel_metric(wifi_neighbor, cfg, running_on="lte_enb")
        assert on_enb == pytest.approx(2.0 * on_ap)

    def test_missing_utilization_pessimistic_default(self):
        # a scan-file entry with no utilization and no n_attached is read
        # as a cell at the default load with 0 stations
        scan, _, _, cfg = build_select({
            "channels": [36], "scan": [{"cell_id": "legacy", "channel": 36, "rssi_dbm": -60.0}],
            "coordination": {"select": {"w1": 10.0, "w2": 1.0}}})
        assert scan[0].cell.channel_utilization == cfg.missing_utilization_default == 0.5
        assert scan[0].cell.station_count == 0
        assert channel_metric(scan, cfg) == pytest.approx(10.0 * 0.5)

    @pytest.mark.parametrize("default", [-0.1, 1.5, float("nan")])
    def test_missing_utilization_default_lies_in_unit_interval(self, default):
        with pytest.raises(ValueError, match="missing_utilization_default"):
            ChannelSelectConfig(missing_utilization_default=default)


class TestSelectChannel:
    def test_empty_channel_wins(self):
        assert select_channel({36: 10.0, 40: 0.0}) == 40

    def test_tie_breaks_low(self):
        assert select_channel({40: 5.0, 36: 5.0}) == 36

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_channel({})

    @given(st.floats(min_value=0.01, max_value=1000.0))
    @settings(derandomize=True, max_examples=100)
    def test_argmin_invariant_under_scaling(self, scale):
        metrics = {36: 12.0, 40: 3.0, 44: 7.0}
        scaled = {channel: metric * scale for channel, metric in metrics.items()}
        assert select_channel(scaled) == select_channel(metrics)


class TestAdaptEdThreshold:
    def cfg(self, **kw):
        defaults = dict(t_default_dbm=-62.0, t_min_dbm=-82.0, update_period_s=1.0)
        defaults.update(kw)
        return AdaptiveEdConfig(**defaults)

    def test_empty_scan_default(self):
        assert adapt_ed_threshold([], self.cfg()) == -62.0

    def test_weakest_active_neighbor(self):
        scan = [entry(-68.0, n_attached=1, cell_id="a"),
                entry(-75.0, n_attached=2, cell_id="b")]
        assert adapt_ed_threshold(scan, self.cfg()) == -75.0

    def test_floor_at_t_min(self):
        scan = [entry(-90.0, n_attached=1)]
        assert adapt_ed_threshold(scan, self.cfg()) == -82.0

    def test_ceiling_at_t_default(self):
        scan = [entry(-50.0, n_attached=1)]
        assert adapt_ed_threshold(scan, self.cfg()) == -62.0

    def test_idle_neighbors_ignored(self):
        scan = [entry(-75.0, n_attached=0)]
        assert adapt_ed_threshold(scan, self.cfg()) == -62.0

    def test_co_channel_filter(self):
        scan = [entry(-75.0, n_attached=1, channel=40)]
        assert adapt_ed_threshold(scan, self.cfg(), own_channel=36) == -62.0

    def test_safety_margin(self):
        scan = [entry(-70.0, n_attached=1)]
        assert adapt_ed_threshold(scan, self.cfg(safety_margin_db=3.0)) == -73.0

    @given(st.lists(st.floats(min_value=-100, max_value=-40), min_size=0, max_size=6))
    @settings(derandomize=True, max_examples=200)
    def test_range_and_detection_guarantee(self, rssis):
        cfg = self.cfg()
        scan = [entry(r, n_attached=1, cell_id=f"c{i}") for i, r in enumerate(rssis)]
        t = adapt_ed_threshold(scan, cfg)
        assert cfg.t_min_dbm <= t <= cfg.t_default_dbm
        # detection guarantee for every active neighbor at or above t_min
        for e in scan:
            if e.rssi_dbm >= cfg.t_min_dbm:
                assert e.rssi_dbm >= t

    @given(
        st.lists(st.floats(min_value=-100, max_value=-40), min_size=1, max_size=5),
        st.floats(min_value=-100, max_value=-40),
    )
    @settings(derandomize=True, max_examples=200)
    def test_adding_neighbor_never_raises_threshold(self, rssis, extra):
        cfg = self.cfg()
        scan = [entry(r, n_attached=1, cell_id=f"c{i}") for i, r in enumerate(rssis)]
        t_before = adapt_ed_threshold(scan, cfg)
        t_after = adapt_ed_threshold(scan + [entry(extra, n_attached=1, cell_id="x")], cfg)
        assert t_after <= t_before

    def test_idempotent_over_update_period(self):
        scan = [entry(-71.0, n_attached=1)]
        cfg = self.cfg()
        t1 = adapt_ed_threshold(scan, cfg)
        t2 = adapt_ed_threshold(scan, cfg)
        assert t1 == t2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveEdConfig(t_default_dbm=-80.0, t_min_dbm=-62.0)
