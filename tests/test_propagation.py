import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.propagation import (
    Building,
    LinkBudget,
    Position,
    PropagationModel,
    los_probability_inh,
    path_gain_diffusion,
    path_gain_inh,
    rssi,
    sample_fast_fade,
    sample_link_gains,
    sample_shadow,
)


class TestPathGainInh:
    def test_los_at_one_meter(self):
        # 32.8 + 20*log10(5) = 46.78
        assert path_gain_inh(1.0, 5.0, los=True) == pytest.approx(-46.78, abs=0.01)

    def test_los_at_ten_meters(self):
        assert path_gain_inh(10.0, 5.0, los=True) == pytest.approx(-63.68, abs=0.01)

    def test_below_one_meter_clamps(self):
        assert path_gain_inh(0.5, 5.0, los=True) == path_gain_inh(1.0, 5.0, los=True)

    def test_nlos_formula(self):
        expected = -(43.3 * 1.0 + 11.5 + 20 * math.log10(5.0))
        assert path_gain_inh(10.0, 5.0, los=False) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
    def test_invalid_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            path_gain_inh(bad, 5.0, los=True)

    def test_array_input(self):
        gains = path_gain_inh(np.array([1.0, 10.0]), 5.0, los=True)
        assert gains[0] == pytest.approx(-46.78, abs=0.01)
        assert gains[1] == pytest.approx(-63.68, abs=0.01)


class TestLosProbability:
    def test_certain_region(self):
        assert los_probability_inh(5.0) == 1.0

    def test_plateau(self):
        assert los_probability_inh(45.0) == 0.5

    def test_transition(self):
        assert los_probability_inh(27.0) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            los_probability_inh(-1.0)


class TestPathGainDiffusion:
    def test_reference_distance(self):
        model = PropagationModel(variant="diffusion", diffusion_ref_gain_db=-40.0,
                                 diffusion_length_m=30.0)
        # at 1 m only the exponential term remains: (10/ln10)/30 = 0.14 dB
        assert path_gain_diffusion(1.0, model) == pytest.approx(-40.0, abs=0.15)
        expected = -40.0 - (10.0 / math.log(10.0)) / 30.0
        assert path_gain_diffusion(1.0, model) == pytest.approx(expected, abs=1e-12)

    def test_at_diffusion_length(self):
        model = PropagationModel(variant="diffusion", diffusion_ref_gain_db=-40.0,
                                 diffusion_length_m=30.0)
        # -40 - 10*log10(30) - 10/ln(10) = -59.11
        assert path_gain_diffusion(30.0, model) == pytest.approx(-59.11, abs=0.01)

    def test_monotone_example(self):
        model = PropagationModel(variant="diffusion")
        assert path_gain_diffusion(20.0, model) > path_gain_diffusion(40.0, model)


@given(
    d1=st.floats(min_value=1.0, max_value=500.0),
    d2=st.floats(min_value=1.0, max_value=500.0),
)
@settings(derandomize=True, max_examples=200)
def test_gain_laws_strictly_decreasing(d1, d2):
    if abs(d1 - d2) < 1e-9:
        return
    lo, hi = min(d1, d2), max(d1, d2)
    model = PropagationModel(variant="diffusion")
    assert path_gain_inh(lo, 5.0, True) > path_gain_inh(hi, 5.0, True)
    assert path_gain_inh(lo, 5.0, False) > path_gain_inh(hi, 5.0, False)
    assert path_gain_diffusion(lo, model) > path_gain_diffusion(hi, model)


class TestSampleShadow:
    def test_zero_sigma(self):
        rng = np.random.default_rng(0)
        assert sample_shadow(0.0, rng) == 0.0

    def test_moments(self):
        rng = np.random.default_rng(7)
        draws = sample_shadow(4.0, rng, size=100_000)
        assert abs(np.mean(draws)) < 0.1
        assert abs(np.std(draws) - 4.0) < 0.1

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_shadow(-1.0, np.random.default_rng(0))


class TestSampleFastFade:
    def test_deep_fade_tail(self):
        rng = np.random.default_rng(11)
        draws = sample_fast_fade(rng, size=1_000_000)
        # P(factor < 0.1), i.e. a 10 dB or deeper fade
        frac = np.mean(draws < 0.1)
        assert frac == pytest.approx(1 - math.exp(-0.1), abs=0.002)

    def test_unit_mean(self):
        rng = np.random.default_rng(12)
        draws = sample_fast_fade(rng, size=1_000_000)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)

    def test_all_positive(self):
        rng = np.random.default_rng(13)
        assert np.all(sample_fast_fade(rng, size=10_000) > 0)

    def test_cdf_matches_exponential(self):
        # Kolmogorov-Smirnov distance against 1 - e^(-x)
        rng = np.random.default_rng(14)
        draws = np.sort(sample_fast_fade(rng, size=1_000_000))
        n = draws.size
        cdf = 1.0 - np.exp(-draws)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks < 0.005

    def test_identical_seed_identical_stream(self):
        a = sample_fast_fade(np.random.default_rng(99), size=1000)
        b = sample_fast_fade(np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)


class TestRssi:
    def test_basic_sum(self):
        link = LinkBudget(path_gain_db=-72.0, shadow_db=0.0)
        assert rssi(20.0, link) == pytest.approx(-52.0)

    def test_fade_factor(self):
        link = LinkBudget(path_gain_db=-72.0, shadow_db=0.0, fast_fade=0.1)
        assert rssi(20.0, link, include_fast_fade=True) == pytest.approx(-62.0)

    def test_zero_gain_identity(self):
        link = LinkBudget(path_gain_db=0.0)
        assert rssi(17.0, link) == 17.0

    @given(
        p=st.floats(min_value=-30, max_value=30),
        delta=st.floats(min_value=-20, max_value=20),
    )
    @settings(derandomize=True, max_examples=100)
    def test_linear_in_tx_power(self, p, delta):
        link = LinkBudget(path_gain_db=-60.0, shadow_db=2.5, fast_fade=0.7)
        assert rssi(p + delta, link, True) == pytest.approx(rssi(p, link, True) + delta, abs=1e-9)

    def test_nonpositive_fade_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(fast_fade=0.0)


class TestSampleLinkGains:
    def test_reproducible(self):
        model = PropagationModel()
        d = np.linspace(1, 90, 500)
        a = sample_link_gains(d, model, np.random.default_rng(5))
        b = sample_link_gains(d, model, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_range_mode_is_shadow_only_randomness(self):
        model = PropagationModel(shadow_sigma_los_db=0.0, shadow_sigma_nlos_db=0.0)
        d = np.array([10.0, 30.0, 31.0, 80.0])
        g = sample_link_gains(d, model, np.random.default_rng(0))
        assert g[0] == pytest.approx(path_gain_inh(10.0, 5.0, True))
        assert g[1] == pytest.approx(path_gain_inh(30.0, 5.0, True))
        # beyond the LOS range the NLOS branch applies
        assert g[2] == pytest.approx(path_gain_inh(31.0, 5.0, False))
        assert g[3] == pytest.approx(path_gain_inh(80.0, 5.0, False))

    def test_scalar_input(self):
        model = PropagationModel()
        g = sample_link_gains(12.0, model, np.random.default_rng(3))
        assert isinstance(g, float)


def where_link_gains(dists, model, rng, include_shadow=True):
    """The two-law ``np.where`` form of ``sample_link_gains``, written out.

    Both inh laws are evaluated over every link and joined per link, and
    the shadow term is the unit normal draw times a per-link sigma array.
    """
    arr = np.atleast_1d(np.maximum(np.asarray(dists, dtype=float), 1.0))
    if model.variant == "diffusion":
        gain = (model.diffusion_ref_gain_db - 10.0 * np.log10(arr)
                - 10.0 / math.log(10.0) * arr / model.diffusion_length_m)
        sigma = np.full(arr.shape, model.shadow_sigma_nlos_db)
    else:
        if model.los_mode == "range":
            los = arr <= model.los_range_m
        elif model.los_mode == "bernoulli":
            los = rng.random(arr.shape) < los_probability_inh(arr)
        else:
            los = np.full(arr.shape, model.los_mode == "los")
        logd = np.log10(arr)
        logf = math.log10(model.carrier_freq_ghz)
        gain = np.where(los, -(16.9 * logd + 32.8 + 20.0 * logf),
                        -(43.3 * logd + 11.5 + 20.0 * logf))
        sigma = np.where(los, model.shadow_sigma_los_db, model.shadow_sigma_nlos_db)
    if include_shadow:
        gain = gain + rng.normal(0.0, 1.0, size=arr.shape) * sigma
    return float(gain[0]) if np.ndim(dists) == 0 else gain


def bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


MODELS = [PropagationModel(los_mode=mode) for mode in ("range", "bernoulli", "nlos", "los")] + [
    PropagationModel(variant="diffusion")]
MODEL_IDS = ["inh_range", "inh_bernoulli", "inh_nlos", "inh_los", "diffusion"]
# links of 0.3 m to 130 m: clamped, LOS, around los_range_m and NLOS; 1,001
# links so the vector loops run a ragged tail
LINKS = np.random.default_rng(21).uniform(0.3, 130.0, 1001)


class TestSampleLinkGainsBitwise:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("include_shadow", [True, False], ids=["shadow", "no_shadow"])
    @pytest.mark.parametrize("dists", [float(LINKS[7]), np.float64(0.5), np.array(31.0), LINKS,
                                       LINKS[:9].reshape(3, 3)],
                             ids=["scalar", "np_scalar", "0d", "1d", "2d"])
    def test_equals_where_form(self, model, include_shadow, dists):
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_link_gains(dists, model, rng_a, include_shadow)
        want = where_link_gains(dists, model, rng_b, include_shadow)
        assert type(got) is type(want)
        assert np.array_equal(bits(got), bits(want))
        # the same draws were taken, in the same order
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_leaves_dists_unchanged(self, model):
        dists = LINKS.copy()
        sample_link_gains(dists, model, np.random.default_rng(2))
        assert np.array_equal(dists.view(np.int64), LINKS.view(np.int64))

    @pytest.mark.parametrize("d", [LINKS, 0.4, 17.0])
    def test_gain_laws_equal_written_out(self, d):
        dd = np.maximum(np.asarray(d, dtype=float), 1.0)
        logf = math.log10(2.4)
        assert np.array_equal(bits(path_gain_inh(d, 2.4, los=True)),
                              bits(-(16.9 * np.log10(dd) + 32.8 + 20.0 * logf)))
        assert np.array_equal(bits(path_gain_inh(d, 2.4, los=False)),
                              bits(-(43.3 * np.log10(dd) + 11.5 + 20.0 * logf)))
        model = PropagationModel(variant="diffusion")
        assert np.array_equal(bits(path_gain_diffusion(d, model)), bits(
            model.diffusion_ref_gain_db - 10.0 * np.log10(dd)
            - 10.0 / math.log(10.0) * dd / model.diffusion_length_m))


class TestGeometry:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_building_contains(self):
        b = Building(50, 120)
        assert b.contains(Position(25, 30))
        assert not b.contains(Position(51, 30))

    def test_invalid_model_variant(self):
        with pytest.raises(ValueError):
            PropagationModel(variant="raytrace")
