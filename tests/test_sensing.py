import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.cli import main
from coexsim.config import Node, apply_overrides, build_coverage_spec, load_config
from coexsim.propagation import (
    BLOCK,
    LOS_MODES,
    Building,
    Position,
    PropagationModel,
    fast_fades,
    los_probability_inh,
    path_gain_diffusion,
    path_gain_inh,
    sample_link_gains,
)
from coexsim.sensing import (
    CoverageResult,
    EdConfig,
    coverage_of,
    ed_success_factors,
    ed_success_prob,
    fractional_ed_coverage,
    sample_rssi_dbm,
)


def reference_base():
    return Node(id="base", kind="wifi_ap", position=Position(25.0, 30.0), tx_power_dbm=20.0)


class TestDetect:
    """Energy detection as ``coverage_of`` counts it: inclusive at the threshold."""

    @staticmethod
    def detected(rssi_dbm, threshold_dbm):
        ed = EdConfig(threshold_dbm=threshold_dbm, min_sensitivity_dbm=-100.0)
        return coverage_of(np.array([rssi_dbm]), ed).ed_fraction == 1.0

    def test_above(self):
        assert self.detected(-52.0, -62.0)

    def test_boundary_inclusive(self):
        assert self.detected(-62.0, -62.0)
        # the decode floor is inclusive too
        ed = EdConfig(threshold_dbm=-62.0, min_sensitivity_dbm=-87.5)
        assert coverage_of(np.array([-87.5, -90.0]), ed).cell_fraction == 0.5

    def test_below(self):
        assert not self.detected(-73.0, -72.0)

    @pytest.mark.parametrize("threshold", [-np.inf, -95.0, -87.5, -80.0, -62.0])
    def test_ed_count_equals_two_mask_form(self, threshold):
        # the ED count compares once against the higher level, which counts
        # the cell points that also reach the threshold; the sample has
        # points on both levels
        rssis = np.concatenate([np.random.default_rng(3).uniform(-110.0, -40.0, 5_000),
                                [-95.0, -87.5, -80.0, -62.0]])
        ed = EdConfig(threshold_dbm=threshold, min_sensitivity_dbm=-87.5)
        in_cell = rssis >= ed.min_sensitivity_dbm
        above = np.count_nonzero(in_cell & (rssis >= threshold))
        assert coverage_of(rssis, ed).ed_fraction == above / np.count_nonzero(in_cell)


@pytest.mark.parametrize("make, message", [
    (lambda: EdConfig(threshold_dbm=math.nan), "threshold"),
    (lambda: EdConfig(threshold_dbm=math.inf), "threshold"),
    (lambda: EdConfig(min_sensitivity_dbm=math.nan), "min_sensitivity"),
    (lambda: EdConfig(min_sensitivity_dbm=-math.inf), "min_sensitivity"),
    (lambda: CoverageResult(1.2, 0.5, 1000), "fractions"),
    (lambda: CoverageResult(0.9, -0.1, 1000), "fractions"),
    (lambda: ed_success_factors([], -62.0), "nonempty"),
], ids=["threshold_nan", "threshold_plus_inf", "sensitivity_nan", "sensitivity_minus_inf",
        "cell_fraction_above_1", "ed_fraction_below_0", "factors_of_no_links"])
def test_invalid_input_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestEdSuccessProb:
    def test_ten_links_closed_form(self):
        p = ed_success_prob([-52.0] * 10, -62.0)
        assert p == pytest.approx(math.exp(-1.0), rel=1e-12)
        # the coarse per-link rounding (0.90)^10 = 34% stays within 3 points
        assert abs(p - 0.90**10) < 0.03

    def test_single_link(self):
        assert ed_success_prob([-52.0], -62.0) == pytest.approx(math.exp(-0.1), rel=1e-12)

    def test_huge_margin(self):
        assert ed_success_prob([-62.0 + 100.0], -62.0) == pytest.approx(1.0, abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ed_success_prob([], -62.0)

    def test_factors_multiply_to_product(self):
        rssis = [-52.0, -60.0, -71.0]
        factors = ed_success_factors(rssis, -62.0)
        assert np.prod(factors) == pytest.approx(ed_success_prob(rssis, -62.0), rel=1e-12)

    @given(st.lists(st.floats(min_value=-90, max_value=-40), min_size=2, max_size=8))
    @settings(derandomize=True, max_examples=100)
    def test_product_below_each_factor(self, rssis):
        p = ed_success_prob(rssis, -62.0)
        for r in rssis:
            assert p <= ed_success_prob([r], -62.0) + 1e-12

    def test_monte_carlo_oracle(self):
        # independent check: the engine's fade draw with one branch, a
        # unit-mean exponential per link
        rssis = np.array([-52.0, -58.0, -65.0, -70.0])
        threshold = -62.0
        rng = np.random.default_rng(42)
        n = 1_000_000
        fades = fast_fades(rng, n, rssis.size, 1)
        inst = rssis + 10.0 * np.log10(fades)
        mc = np.mean(np.all(inst >= threshold, axis=1))
        assert ed_success_prob(rssis, threshold) == pytest.approx(mc, abs=0.01)


class TestFractionalEdCoverage:
    def test_wifi_cell_minus62(self):
        cov = fractional_ed_coverage(
            Building(), reference_base(), PropagationModel(),
            EdConfig(threshold_dbm=-62.0, min_sensitivity_dbm=-87.5),
            n_samples=100_000, rng=np.random.default_rng(1),
        )
        assert cov.ed_fraction == pytest.approx(0.51, abs=0.05)
        assert cov.cell_fraction == pytest.approx(0.87, abs=0.05)

    def test_ulte_cell_minus72(self):
        cov = fractional_ed_coverage(
            Building(), reference_base(), PropagationModel(),
            EdConfig(threshold_dbm=-72.0, min_sensitivity_dbm=-100.0),
            n_samples=100_000, rng=np.random.default_rng(2),
        )
        assert cov.ed_fraction == pytest.approx(0.52, abs=0.05)

    def test_no_threshold_sentinel(self):
        cov = fractional_ed_coverage(
            Building(), reference_base(), PropagationModel(),
            EdConfig(threshold_dbm=-math.inf, min_sensitivity_dbm=-87.5),
            n_samples=5_000, rng=np.random.default_rng(3),
        )
        assert cov.ed_fraction == 1.0

    def test_threshold_monotonicity(self):
        fractions = []
        for thr in (-80.0, -72.0, -66.0, -62.0, -56.0):
            cov = fractional_ed_coverage(
                Building(), reference_base(), PropagationModel(),
                EdConfig(threshold_dbm=thr, min_sensitivity_dbm=-87.5),
                n_samples=40_000, rng=np.random.default_rng(4),
            )
            fractions.append(cov.ed_fraction)
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            fractional_ed_coverage(
                Building(), reference_base(), PropagationModel(),
                EdConfig(), n_samples=10,
            )

    def test_degenerate_cell_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            fractional_ed_coverage(
                Building(), reference_base(), PropagationModel(),
                EdConfig(threshold_dbm=-62.0, min_sensitivity_dbm=100.0),
                n_samples=2_000, rng=np.random.default_rng(5),
            )

    def test_base_outside_building_rejected(self):
        base = Node(id="b", kind="wifi_ap", position=Position(60.0, 30.0), tx_power_dbm=20.0)
        with pytest.raises(ValueError, match="outside"):
            fractional_ed_coverage(Building(), base, PropagationModel(), EdConfig())

    def test_deterministic_given_seed(self):
        kw = dict(n_samples=5_000)
        a = fractional_ed_coverage(Building(), reference_base(), PropagationModel(),
                                   EdConfig(), rng=np.random.default_rng(6), **kw)
        b = fractional_ed_coverage(Building(), reference_base(), PropagationModel(),
                                   EdConfig(), rng=np.random.default_rng(6), **kw)
        assert (a.cell_fraction, a.ed_fraction) == (b.cell_fraction, b.ed_fraction)


RSSI_MODELS = [PropagationModel(los_mode=mode) for mode in LOS_MODES] + [
    PropagationModel(variant="diffusion")]
RSSI_MODEL_IDS = ["inh" if mode == "range" else f"inh_{mode}" for mode in LOS_MODES] + ["diffusion"]
# every model with shadowing on and off, at 20,001 and 1,000 samples, and at
# three blocks and a ragged tail, which crosses block edges and starts the
# helper thread; an id names only what differs from shadowing on at 20,001
# samples
RSSI_CASES = [pytest.param(model, shadow, n, id=name + ("" if n == 20_001 else f"-{n}")
                           + ("" if shadow else "-no_shadow"))
              for model, name in zip(RSSI_MODELS, RSSI_MODEL_IDS)
              for shadow in (True, False) for n in (20_001, 1_000, 3 * BLOCK + 7)]


class TestSampleRssi:
    @pytest.mark.parametrize("model, include_shadow, n", RSSI_CASES)
    def test_equals_tx_plus_gains_minus_margin(self, model, include_shadow, n):
        base = Node(id="b", kind="wifi_ap", position=Position(13.0, 71.0), tx_power_dbm=17.0)
        rng_got = np.random.default_rng(9)
        got = sample_rssi_dbm(Building(), base, model, n, rng_got, include_shadow, margin_db=2.3)
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 50.0, n)
        ys = rng.uniform(0.0, 120.0, n)
        dists = np.maximum(np.hypot(xs - 13.0, ys - 71.0), 1.0)
        want = 17.0 + sample_link_gains(dists, model, rng, include_shadow) - 2.3
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the same draws were taken, in the same order
        assert rng_got.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("model, arrays", [
        (PropagationModel(), 3.0),
        (PropagationModel(variant="diffusion"), 3.0),
        (PropagationModel(los_mode="bernoulli"), 3.5),
    ], ids=["inh", "diffusion", "inh_bernoulli"])
    def test_peak_memory_is_a_few_sample_arrays(self, model, arrays):
        # the gains are built in the distance array itself, in blocks, so the
        # traced peak is about two float arrays of the sample size plus a few
        # blocks (2.2-2.5, bernoulli too, as its LOS flags are set before the
        # normal draw); building the gains in a copy of the distances takes
        # one array more
        n = 200_000
        # the generator is made before tracing: its first construction in a
        # process imports modules worth about 0.4 arrays, which no draw holds
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            sample_rssi_dbm(Building(), reference_base(), model, n, rng, margin_db=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * 8 * n


_Q_TAIL = np.frompyfunc(lambda z: 0.5 * math.erfc(z / math.sqrt(2.0)), 1, 1)


def ring_nodes(building, base_xy, breaks, order=32):
    """Gauss-Legendre nodes r and weights for integrals over the building.

    In polar coordinates around the base, the angle is integrated in closed
    form: the circle of radius r keeps 2 pi less the arcs beyond each wall
    it crosses, plus back the overlap of two such arcs past a corner.  The
    r panels split at ``breaks`` and at the wall and corner distances, where
    the integrand or that angle has a kink.  Past a wall distance h the
    angle goes as sqrt(r - h), so each panel is mapped as r = lo + span t^2,
    which leaves the integrand smooth in t.
    """
    x0, y0 = base_xy
    walls = np.array([x0, building.width_m - x0, y0, building.depth_m - y0])
    corners = [(walls[i], walls[j]) for i in (0, 1) for j in (2, 3)]
    far = max(math.hypot(a, b) for a, b in corners)
    edges = np.unique([0.0, *breaks, *walls, *(math.hypot(a, b) for a, b in corners)])
    edges = edges[edges <= far]
    x, w = np.polynomial.legendre.leggauss(order)
    t, wt = (x + 1.0) / 2.0, w / 2.0
    lo, span = edges[:-1, None], np.diff(edges)[:, None]
    r = (lo + span * t * t).ravel()

    def beyond(h):
        return np.arccos(np.minimum(1.0, h / r))

    angle = 2.0 * math.pi - 2.0 * sum(beyond(h) for h in walls)
    for a, b in corners:
        angle += np.maximum(0.0, beyond(a) + beyond(b) - math.pi / 2.0)
    return r, (span * 2.0 * t * wt).ravel() * r * angle


def quadrature_above(levels, building, base_xy, model, tx_dbm, margin_db):
    """Building share of points whose mean RSSI reaches each level.

    P(RSSI >= L | d) = Q((L - tx + margin - g(d)) / sigma(d)) per LOS
    branch, weighted by the branch's LOS probability at d (0 or 1 except
    under ``bernoulli``), integrated over the building and divided by its area.
    """
    r, w = ring_nodes(building, base_xy, [1.0, 18.0, 37.0, model.los_range_m])
    w /= building.width_m * building.depth_m
    d = np.maximum(r, 1.0)
    if model.variant == "diffusion":
        branches = [(1.0, path_gain_diffusion(d, model), model.shadow_sigma_nlos_db)]
    else:
        p_los = {"range": (d <= model.los_range_m).astype(float), "bernoulli": los_probability_inh(d),
                 "los": np.ones_like(d), "nlos": np.zeros_like(d)}[model.los_mode]
        fc = model.carrier_freq_ghz
        branches = [(p_los, path_gain_inh(d, fc, los=True), model.shadow_sigma_los_db),
                    (1.0 - p_los, path_gain_inh(d, fc, los=False), model.shadow_sigma_nlos_db)]
    return np.array([sum(np.sum(w * p * _Q_TAIL((level - tx_dbm + margin_db - g) / sigma).astype(float))
                         for p, g, sigma in branches) for level in levels])


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTable1Quadrature:
    """``coexsim coverage`` against an exact Table-1 oracle.

    Each CSV figure is a binomial share of the sample, so it must lie within
    a fixed number of binomial standard errors, sqrt(p (1 - p) / n) with p
    from the quadrature, plus one count for the sample's lattice.
    """

    SAMPLES = 200_000
    STANDARD_ERRORS = 5.0

    def tolerance(self, p, n):
        return self.STANDARD_ERRORS * np.sqrt(p * (1.0 - p) / n) + 1.0 / n

    @pytest.mark.parametrize("preset, los_mode", [
        ("table1_inh", "range"), ("table1_inh", "los"), ("table1_inh", "nlos"),
        ("table1_inh", "bernoulli"), ("table1_diffusion", "range")],
        ids=["inh_range", "inh_los", "inh_nlos", "inh_bernoulli", "diffusion"])
    def test_coverage_csv_matches_quadrature(self, tmp_path, preset, los_mode):
        overrides = [f"coverage.samples={self.SAMPLES}", f"propagation.los_mode={los_mode}"]
        spec = build_coverage_spec(apply_overrides(load_config(preset), overrides))
        out = tmp_path / "table.csv"
        argv = ["coverage", "--config", preset, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        (row,) = read_csv_rows(out)
        cdf = read_csv_rows(tmp_path / "table_cdf.csv")
        (model,) = spec.models

        def above(levels):
            return quadrature_above(levels, spec.building, (spec.base_position.x, spec.base_position.y),
                                    model, spec.tx_power_dbm, spec.margin_db)

        n = self.SAMPLES
        for name, sensitivity in spec.cells:
            (cell,) = above([sensitivity])
            assert abs(float(row[f"{name}_cell_fraction"]) - cell) <= self.tolerance(cell, n)
            for threshold in spec.thresholds_dbm:
                (hit,) = above([max(threshold, sensitivity)])
                ed = hit / cell
                got = float(row[f"{name}_ed_{threshold:g}"])
                assert abs(got - ed) <= self.tolerance(ed, n * cell), (name, threshold)
        levels = np.array([float(r["rssi_dbm"]) for r in cdf])
        got = np.array([float(r["cum_fraction"]) for r in cdf])
        want = 1.0 - above(levels)
        assert len(levels) > 50
        assert np.all(np.abs(got - want) <= self.tolerance(want, n))

    def test_ring_weights_sum_to_building_area(self):
        building = Building()
        for base_xy in [(25.0, 30.0), (13.0, 71.0), (0.5, 119.0)]:
            _, w = ring_nodes(building, base_xy, [1.0, 30.5])
            assert w.sum() == pytest.approx(building.width_m * building.depth_m, rel=1e-9)
