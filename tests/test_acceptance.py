"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is written into the assertion; no criterion depends on
post-hoc calibration.
"""

import contextlib
import csv
import filecmp
import math
import time

import numpy as np
import pytest

from coexsim.cli import main
from coexsim.config import PhyConfig, apply_overrides, build_scenario, load_config
from coexsim.coordination import (
    AdaptiveEdConfig,
    adapt_ed_threshold,
    select_channel,
)
from coexsim.mac_lte import LbtPhase, LbtState, lbt_step
from coexsim.mac_wifi import DcfPhase, DcfState, dcf_step, start_access
from coexsim.propagation import fast_fades
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
from coexsim.sensing import ed_success_prob
from coexsim.simulator import Simulator, jain_index, median


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


def test_criterion_1_fast_fade_tail():
    with criterion(1, "fast-fade deep-fade tail"):
        start = time.monotonic()
        n = 1_000_000
        # a plain Rayleigh fade and the engine's default diversity
        for branches in (1, PhyConfig().fading_branches):
            draws = fast_fades(np.random.default_rng(101), n, 1, branches)
            frac = float(np.mean(draws < 0.1))
            # Gamma(k, 1/k) CDF of the mean of k unit exponentials at 0.1
            kx = branches * 0.1
            expected = 1.0 - math.exp(-kx) * sum(kx**i / math.factorial(i)
                                                 for i in range(branches))
            # one branch: 1 - e^-0.1 within 0.002; more: 5 binomial standard errors
            tol = 0.002 if branches == 1 else 5.0 * math.sqrt(expected * (1.0 - expected) / n)
            assert abs(frac - expected) <= tol, (branches, frac, expected)
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
        # Monte Carlo cross-check with the engine's fade draw, one branch
        rng = np.random.default_rng(202)
        fades = fast_fades(rng, 1_000_000, 10, 1)
        inst = -52.0 + 10.0 * np.log10(fades)
        mc = float(np.mean(np.all(inst >= -62.0, axis=1)))
        assert abs(mc - closed) <= 0.01, (mc, closed)
        assert time.monotonic() - start < 10.0


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    """Each Table-1 preset's ``coexsim coverage`` row, read back from its CSV.

    Keyed by model, then by column (``wifi_ed_-62``, ``wifi_cell_fraction``, ...).
    """
    out_dir = tmp_path_factory.mktemp("table1")
    rows = {}
    for preset in ("table1_inh", "table1_diffusion"):
        start = time.monotonic()
        out = out_dir / f"{preset}.csv"
        assert main(["coverage", "--config", preset, "--out", str(out)]) == 0
        assert time.monotonic() - start < 30.0
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        model = row.pop("model")
        rows[model] = {column: float(v) for column, v in row.items()}
    return rows


def test_criterion_3_table1_inh_row(table1):
    with criterion(3, "coverage table, indoor-hotspot row"):
        inh = table1["inh"]
        assert inh["wifi_ed_-62"] == pytest.approx(0.51, abs=0.05)
        assert inh["ulte_ed_-62"] == pytest.approx(0.45, abs=0.05)
        assert inh["wifi_ed_-72"] == pytest.approx(0.58, abs=0.05)
        assert inh["ulte_ed_-72"] == pytest.approx(0.52, abs=0.05)
        assert inh["wifi_cell_fraction"] == pytest.approx(0.87, abs=0.05)


def test_criterion_4_table1_diffusion_row(table1):
    with criterion(4, "coverage table, diffusion row (calibrated)"):
        diff = table1["diffusion"]
        # documented calibration pins Wi-Fi cell coverage near 62%
        assert diff["wifi_cell_fraction"] == pytest.approx(0.62, abs=0.05)
        assert diff["wifi_ed_-62"] == pytest.approx(0.32, abs=0.07)
        assert diff["ulte_ed_-62"] == pytest.approx(0.26, abs=0.07)
        # the -72 dBm diffusion cells are calibration-gated: threshold
        # monotonicity only
        assert diff["wifi_ed_-72"] >= diff["wifi_ed_-62"]
        assert diff["ulte_ed_-72"] >= diff["ulte_ed_-62"]


def test_criterion_5_uplink_failure_identities(table1):
    with criterion(5, "uplink ED failure identities"):
        inh, diff = table1["inh"], table1["diffusion"]
        for row in (inh, diff):
            assert all(0.0 <= v <= 1.0 for v in row.values()), row
        # with client EIRP equal to the downlink's, uplink coverage mirrors
        # the downlink fractions, so P{uplink not sensed} = 1 - ed_fraction.
        # P{ED failure at Wi-Fi}: 55% inh / 74% diffusion (from the -62
        # column of the uLTE cell); P{ED failure at uLTE}: 42% inh (from
        # the -72 Wi-Fi column); 33% diffusion is calibration-gated
        assert 1.0 - inh["ulte_ed_-62"] == pytest.approx(0.55, abs=0.05)
        assert 1.0 - diff["ulte_ed_-62"] == pytest.approx(0.74, abs=0.07)
        assert 1.0 - inh["wifi_ed_-72"] == pytest.approx(0.42, abs=0.05)
        assert 0.0 <= 1.0 - diff["wifi_ed_-72"] <= 1.0


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
            return median(wifi), median(lte)

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
        metrics = {36: 9.0, 40: 2.0, 44: 5.0}
        for scale in (0.2, 1.0, 3.7, 80.0):
            scaled = {channel: metric * scale for channel, metric in metrics.items()}
            assert select_channel(scaled) == select_channel(metrics)
        # adaptive threshold range / detection guarantee / monotonicity
        cfg_at = AdaptiveEdConfig(t_default_dbm=-62.0, t_min_dbm=-82.0)
        def mk(rssi, i):
            cell = CellInfo(operator_cell_id=f"n{i}", channel=36,
                            station_count=1, node_type=NodeType.REL13_LAA,
                            mac_spec=MacSpec.LBT_CAT4)
            return ScanEntry("relayed", cell, rssi)
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
