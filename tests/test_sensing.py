import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.config import Node
from coexsim.propagation import (
    Building,
    Position,
    PropagationModel,
    sample_fast_fade,
    sample_link_gains,
)
from coexsim.sensing import (
    CoverageResult,
    EdConfig,
    detect,
    ed_success_factors,
    ed_success_prob,
    fractional_ed_coverage,
    sample_rssi_dbm,
    uplink_ed_failure,
)


def reference_base():
    return Node(id="base", kind="wifi_ap", position=Position(25.0, 30.0), tx_power_dbm=20.0)


class TestDetect:
    def test_above(self):
        assert detect(-52.0, -62.0)

    def test_boundary_inclusive(self):
        assert detect(-62.0, -62.0)

    def test_below(self):
        assert not detect(-73.0, -72.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            detect(float("nan"), -62.0)


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
        # independent check: sample unit-mean exponential fades per link
        rssis = np.array([-52.0, -58.0, -65.0, -70.0])
        threshold = -62.0
        rng = np.random.default_rng(42)
        n = 1_000_000
        fades = sample_fast_fade(rng, size=(n, rssis.size))
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


COVERAGE_MODELS = [PropagationModel(), PropagationModel(variant="diffusion")]


class TestSampleRssi:
    @pytest.mark.parametrize("model", COVERAGE_MODELS, ids=["inh", "diffusion"])
    def test_equals_tx_plus_gains_minus_margin(self, model):
        base = Node(id="b", kind="wifi_ap", position=Position(13.0, 71.0), tx_power_dbm=17.0)
        got = sample_rssi_dbm(Building(), base, model, 20_001, np.random.default_rng(9),
                              margin_db=2.3)
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 50.0, 20_001)
        ys = rng.uniform(0.0, 120.0, 20_001)
        dists = np.maximum(np.hypot(xs - 13.0, ys - 71.0), 1.0)
        want = 17.0 + sample_link_gains(dists, model, rng) - 2.3
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("model", COVERAGE_MODELS, ids=["inh", "diffusion"])
    def test_peak_memory_is_a_few_sample_arrays(self, model):
        # the sampler works in place, so its traced peak stays within five
        # float arrays of the sample size; evaluating both inh laws and a
        # sigma array out of place takes about ten
        n = 200_000
        tracemalloc.start()
        try:
            sample_rssi_dbm(Building(), reference_base(), model, n, np.random.default_rng(1),
                            margin_db=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * n


class TestUplinkEdFailure:
    def test_paper_column(self):
        assert uplink_ed_failure(CoverageResult(0.9, 0.45, 1000)) == pytest.approx(0.55)

    def test_inh_wifi_column(self):
        assert uplink_ed_failure(CoverageResult(0.9, 0.58, 1000)) == pytest.approx(0.42)

    def test_full_coverage(self):
        assert uplink_ed_failure(CoverageResult(1.0, 1.0, 1000)) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(derandomize=True, max_examples=50)
    def test_exact_complement(self, frac):
        cov = CoverageResult(1.0, frac, 1000)
        assert uplink_ed_failure(cov) + cov.ed_fraction == 1.0
