"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is written into the assertion; no criterion depends on
post-hoc calibration.
"""

import contextlib
import filecmp
import math
import time

import numpy as np
import pytest

from coexsim.cli import main
from coexsim.config import Node, apply_overrides, build_scenario, load_config
from coexsim.coordination import (
    AdaptiveEdConfig,
    ChannelMetric,
    adapt_ed_threshold,
    select_channel,
)
from coexsim.mac_lte import LbtPhase, LbtState, lbt_step
from coexsim.mac_wifi import DcfPhase, DcfState, dcf_step, start_access
from coexsim.propagation import Building, Position, PropagationModel, sample_fast_fade
from coexsim.relay import (
    BeaconDecodeError,
    CellInfo,
    MacSpec,
    NodeType,
    ScanEntry,
    decode_pseudo_beacon,
    encode_pseudo_beacon,
    parse_ies,
)
from coexsim.sensing import EdConfig, ed_success_prob, fractional_ed_coverage, uplink_ed_failure
from coexsim.simulator import Simulator, jain_index, summarize


@contextlib.contextmanager
def criterion(number, name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"[{time.monotonic() - started:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.monotonic() - started:.1f}s]")


def reference_base():
    return Node(id="base", kind="wifi_ap", position=Position(25.0, 30.0),
                tx_power_dbm=20.0)


def coverage_for(model, threshold, sensitivity, seed):
    return fractional_ed_coverage(
        Building(), reference_base(), model,
        EdConfig(threshold_dbm=threshold, min_sensitivity_dbm=sensitivity),
        n_samples=100_000, rng=np.random.default_rng(seed),
    )


def test_criterion_1_fast_fade_tail():
    with criterion(1, "fast-fade deep-fade tail"):
        start = time.monotonic()
        draws = sample_fast_fade(np.random.default_rng(101), size=1_000_000)
        frac = float(np.mean(draws < 0.1))
        expected = 1.0 - math.exp(-0.1)
        assert abs(frac - expected) <= 0.002, (frac, expected)
        assert time.monotonic() - start < 5.0


def test_criterion_2_ed_success_product(capsys):
    with criterion(2, "ED success closed form vs Monte Carlo"):
        start = time.monotonic()
        closed = ed_success_prob([-52.0] * 10, -62.0)
        assert closed == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(closed - 0.34) <= 0.03
        # the CLI command prints the same closed form
        rc = main(["edprob", "--rssi=" + ",".join(["-52"] * 10),
                   "--threshold", "-62"])
        out = capsys.readouterr().out
        assert rc == 0 and "ed_success_prob=0.367879" in out
        # Monte Carlo cross-check with the fading sampler
        rng = np.random.default_rng(202)
        fades = sample_fast_fade(rng, size=(1_000_000, 10))
        inst = -52.0 + 10.0 * np.log10(fades)
        mc = float(np.mean(np.all(inst >= -62.0, axis=1)))
        assert abs(mc - closed) <= 0.01, (mc, closed)
        assert time.monotonic() - start < 10.0


def test_criterion_3_table1_inh_row():
    with criterion(3, "coverage table, indoor-hotspot row"):
        start = time.monotonic()
        model = PropagationModel()
        wifi_62 = coverage_for(model, -62.0, -87.5, 31)
        ulte_62 = coverage_for(model, -62.0, -100.0, 32)
        wifi_72 = coverage_for(model, -72.0, -87.5, 33)
        ulte_72 = coverage_for(model, -72.0, -100.0, 34)
        assert wifi_62.ed_fraction == pytest.approx(0.51, abs=0.05)
        assert ulte_62.ed_fraction == pytest.approx(0.45, abs=0.05)
        assert wifi_72.ed_fraction == pytest.approx(0.58, abs=0.05)
        assert ulte_72.ed_fraction == pytest.approx(0.52, abs=0.05)
        assert wifi_62.cell_fraction == pytest.approx(0.87, abs=0.05)
        assert time.monotonic() - start < 30.0
        test_criterion_3_table1_inh_row.results = {
            "ulte_62": ulte_62, "wifi_72": wifi_72,
        }


def test_criterion_4_table1_diffusion_row():
    with criterion(4, "coverage table, diffusion row (calibrated)"):
        model = PropagationModel(variant="diffusion")
        wifi_62 = coverage_for(model, -62.0, -87.5, 41)
        ulte_62 = coverage_for(model, -62.0, -100.0, 42)
        wifi_72 = coverage_for(model, -72.0, -87.5, 43)
        ulte_72 = coverage_for(model, -72.0, -100.0, 44)
        # documented calibration pins Wi-Fi cell coverage near 62%
        assert wifi_62.cell_fraction == pytest.approx(0.62, abs=0.05)
        assert wifi_62.ed_fraction == pytest.approx(0.32, abs=0.07)
        assert ulte_62.ed_fraction == pytest.approx(0.26, abs=0.07)
        # the -72 dBm diffusion cells are calibration-gated: threshold
        # monotonicity only
        assert wifi_72.ed_fraction >= wifi_62.ed_fraction
        assert ulte_72.ed_fraction >= ulte_62.ed_fraction
        test_criterion_4_table1_diffusion_row.results = {
            "ulte_62": ulte_62, "wifi_72": wifi_72,
        }


def test_criterion_5_uplink_failure_identities():
    with criterion(5, "uplink ED failure identities"):
        inh = getattr(test_criterion_3_table1_inh_row, "results", None)
        diff = getattr(test_criterion_4_table1_diffusion_row, "results", None)
        if inh is None or diff is None:
            pytest.skip("criteria 3/4 must run first")
        # exact arithmetic complement of the measured fractions
        for cov in list(inh.values()) + list(diff.values()):
            assert uplink_ed_failure(cov) + cov.ed_fraction == 1.0
        # P{ED failure at Wi-Fi}: 55% inh / 74% diffusion (from the -62
        # column of the uLTE cell); P{ED failure at uLTE}: 42% inh (from
        # the -72 Wi-Fi column); 33% diffusion is calibration-gated
        assert uplink_ed_failure(inh["ulte_62"]) == pytest.approx(0.55, abs=0.05)
        assert uplink_ed_failure(diff["ulte_62"]) == pytest.approx(0.74, abs=0.07)
        assert uplink_ed_failure(inh["wifi_72"]) == pytest.approx(0.42, abs=0.05)
        assert 0.0 <= uplink_ed_failure(diff["wifi_72"]) <= 1.0


def test_criterion_6_ack_window_determinism():
    with criterion(6, "ACK-window collision scenario"):
        start = time.monotonic()
        base = build_scenario(load_config("figure3_collision"))
        m_low = Simulator(base).run()
        assert m_low.ack_window_collisions > 0

        raised = apply_overrides(load_config("figure3_collision"),
                                 ["links.sta1.enb1=-79.8"])
        m_high = Simulator(build_scenario(raised)).run()
        assert m_high.ack_window_collisions == 0
        assert time.monotonic() - start < 5.0


def test_criterion_7_adaptive_ed_throughput():
    with criterion(7, "adaptive thresholds, directional throughput"):
        start = time.monotonic()
        seeds = range(1, 11)

        def pooled(adaptive):
            wifi, lte = [], []
            for seed in seeds:
                cfg = load_config("figure4_coexistence")
                cfg["seed"] = seed
                cfg["simulate"]["adaptive_ed"] = adaptive
                m = Simulator(build_scenario(cfg)).run()
                wifi += m.file_throughputs_mbps.get("sta1", [])
                lte += m.file_throughputs_mbps.get("ue1", [])
            return summarize(wifi), summarize(lte)

        wifi_off, lte_off = pooled(False)
        wifi_on, lte_on = pooled(True)
        print(f"  medians: off=({wifi_off:.1f}, {lte_off:.1f}) "
              f"on=({wifi_on:.1f}, {lte_on:.1f})")
        assert wifi_on >= 2.0 * wifi_off, (wifi_on, wifi_off)
        assert lte_on >= 0.4 * lte_off, (lte_on, lte_off)
        assert wifi_on + lte_on > wifi_off + lte_off
        assert jain_index([wifi_on, lte_on]) > jain_index([wifi_off, lte_off])
        assert time.monotonic() - start < 120.0


def test_criterion_8_property_suites():
    with criterion(8, "protocol property suites"):
        rng = np.random.default_rng(808)
        # pseudo-beacon round trip over 10^4 randomized cells
        channels = sorted(__import__("coexsim.relay", fromlist=["VALID_CHANNELS"])
                          .VALID_CHANNELS)
        for _ in range(10_000):
            cell = CellInfo(
                operator_cell_id="c" + str(int(rng.integers(0, 10**9))),
                channel=channels[int(rng.integers(0, len(channels)))],
                station_count=int(rng.integers(0, 0x10000)),
                channel_utilization=int(rng.integers(0, 256)) / 255.0,
                available_admission_capacity=int(rng.integers(0, 0x10000)),
                node_type=NodeType(int(rng.integers(1, 6))),
                mac_spec=MacSpec(int(rng.integers(1, 5))),
                tx_power_offset_db=int(rng.integers(-128, 128)),
            )
            assert decode_pseudo_beacon(encode_pseudo_beacon(cell)) == cell
        # decoder fuzz safety
        for _ in range(2_000):
            blob = rng.bytes(int(rng.integers(0, 120)))
            try:
                decode_pseudo_beacon(parse_ies(blob))
            except BeaconDecodeError:
                pass
        # DCF/LBT legal-event fuzz with cw bounds
        for _ in range(300):
            s = DcfState(retry_limit=10_000)
            for _ in range(40):
                if s.phase == DcfPhase.IDLE:
                    s = start_access(s, rng)
                legal = {
                    "backoff": ["medium_idle_slot"],
                    "tx_data": ["tx_done", "rts_cts_fail"],
                    "await_ack": ["ack_received", "ack_timeout"],
                }[s.phase.value]
                event = legal[int(rng.integers(0, len(legal)))]
                s = dcf_step(s, event, rng)
                assert s.cw_min <= s.cw <= s.cw_max and (s.cw + 1) & s.cw == 0
            l = LbtState()
            for _ in range(40):
                if l.phase == LbtPhase.IDLE:
                    l = start_access(l, rng)
                legal = {
                    LbtPhase.BACKOFF: ["energy_below_slot"],
                    LbtPhase.TX_BURST: ["collision_feedback", "success_feedback"],
                }[l.phase]
                event = legal[int(rng.integers(0, len(legal)))]
                l = lbt_step(l, event, rng)
                assert l.cw_min <= l.cw <= l.cw_max and (l.cw + 1) & l.cw == 0
        # ED politeness inside a full simulator run (engine asserts live)
        cfg = load_config("figure3_collision")
        cfg["simulate"]["duration_s"] = 0.3
        Simulator(build_scenario(cfg)).run()
        # select argmin invariance under positive scaling
        metrics = [ChannelMetric(36, 9.0), ChannelMetric(40, 2.0),
                   ChannelMetric(44, 5.0)]
        for scale in (0.2, 1.0, 3.7, 80.0):
            scaled = [ChannelMetric(m.channel, m.metric * scale) for m in metrics]
            assert select_channel(scaled) == select_channel(metrics)
        # adaptive threshold range / detection guarantee / monotonicity
        cfg_at = AdaptiveEdConfig(t_default_dbm=-62.0, t_min_dbm=-82.0)
        def mk(rssi, i):
            cell = CellInfo(operator_cell_id=f"n{i}", channel=36,
                            station_count=1, node_type=NodeType.REL13_LAA,
                            mac_spec=MacSpec.LBT_CAT4)
            return ScanEntry("relayed", cell, rssi, n_attached=1)
        for _ in range(300):
            levels = rng.uniform(-100, -40, size=int(rng.integers(0, 6)))
            scan = [mk(r, i) for i, r in enumerate(levels)]
            t = adapt_ed_threshold(scan, cfg_at)
            assert -82.0 <= t <= -62.0
            for e in scan:
                if e.rssi_dbm >= cfg_at.t_min_dbm:
                    assert e.rssi_dbm >= t
            t_more = adapt_ed_threshold(scan + [mk(float(rng.uniform(-100, -40)),
                                                  99)], cfg_at)
            assert t_more <= t


def test_criterion_9_byte_identical_outputs(tmp_path):
    with criterion(9, "byte-identical repeated runs"):
        cases = [
            (["coverage", "--config", "table1_inh",
              "--set", "coverage.samples=5000"], "cov"),
            (["simulate", "--config", "figure3_collision",
              "--set", "simulate.duration_s=0.2"], "sim"),
            (["sweep", "--config", "figure4_coexistence",
              "--set", "simulate.duration_s=0.5", "--runs", "2"], "sweep"),
        ]
        for argv, tag in cases:
            a = tmp_path / f"{tag}_a.csv"
            b = tmp_path / f"{tag}_b.csv"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert filecmp.cmp(a, b, shallow=False), tag
