import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.propagation import (
    BLOCK,
    Building,
    Position,
    PropagationModel,
    blockwise,
    fast_fades,
    los_probability_inh,
    path_gain_diffusion,
    path_gain_inh,
    sample_link_gains,
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

    def test_equals_where_form(self):
        # 0 to 60 m in 0.1 m steps, 18 m and 37 m exactly among them
        d = np.arange(601) / 10.0
        assert 18.0 in d and 37.0 in d
        want = np.where(d <= 18.0, 1.0, np.where(d >= 37.0, 0.5, np.exp(-(d - 18.0) / 27.0)))
        assert np.array_equal(bits(los_probability_inh(d)), bits(want))

    @pytest.mark.parametrize("d", [27.0, np.float64(40.0), np.array(10.0)],
                             ids=["scalar", "np_scalar", "0d"])
    def test_scalar_input_returns_float(self, d):
        p = los_probability_inh(d)
        assert type(p) is float
        assert p == los_probability_inh(np.array([float(d)]))[0]


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
    """The shadowing term of ``sample_link_gains``: zero-mean normal in dB."""

    def test_zero_sigma(self):
        model = PropagationModel(los_mode="los", shadow_sigma_los_db=0.0)
        assert sample_link_gains(10.0, model, np.random.default_rng(0)) == path_gain_inh(10.0)

    def test_moments(self):
        # the LOS branch takes the LOS sigma, the NLOS branch the NLOS one
        for los, sigma in ((True, 3.0), (False, 4.0)):
            model = PropagationModel(los_mode="los" if los else "nlos",
                                     shadow_sigma_los_db=3.0, shadow_sigma_nlos_db=4.0)
            gains = sample_link_gains(np.full(100_000, 10.0), model, np.random.default_rng(7))
            draws = gains - path_gain_inh(10.0, 5.0, los)
            assert abs(np.mean(draws)) < 0.1
            assert abs(np.std(draws) - sigma) < 0.1

    def test_negative_sigma_rejected(self):
        for field in ("shadow_sigma_los_db", "shadow_sigma_nlos_db"):
            with pytest.raises(ValueError, match="sigma"):
                PropagationModel(**{field: -1.0})


def fade_cdf(x, branches):
    """CDF of the mean of ``branches`` unit-mean exponentials, Gamma(k, 1/k).

    For integer k: 1 - e^(-kx) * sum_{i<k} (kx)^i / i!.
    """
    kx = branches * np.asarray(x, dtype=float)
    return 1.0 - np.exp(-kx) * sum(kx**i / math.factorial(i) for i in range(branches))


# the engine's default (phy.fading_branches: 4) and a plain Rayleigh fade
FADE_BRANCHES = (1, 4)


class TestSampleFastFade:
    """``fast_fades``, the draw the simulator makes per block of frames."""

    def test_deep_fade_tail(self):
        n = 1_000_000
        for branches in FADE_BRANCHES:
            draws = fast_fades(np.random.default_rng(11), n, 1, branches)
            # P(factor < 0.1), i.e. a 10 dB or deeper fade: 1 - e^-0.1 for one
            # branch; 7.8e-4 for four, within 5 binomial standard errors
            p = float(fade_cdf(0.1, branches))
            tol = 0.002 if branches == 1 else 5.0 * math.sqrt(p * (1.0 - p) / n)
            assert np.mean(draws < 0.1) == pytest.approx(p, abs=tol), branches

    def test_unit_mean(self):
        for branches in FADE_BRANCHES:
            draws = fast_fades(np.random.default_rng(12), 1_000_000, 1, branches)
            assert np.mean(draws) == pytest.approx(1.0, abs=0.01), branches

    def test_all_positive(self):
        for branches in FADE_BRANCHES:
            assert np.all(fast_fades(np.random.default_rng(13), 10_000, 1, branches) > 0)

    def test_cdf_matches_exponential(self):
        # Kolmogorov-Smirnov distance against the Gamma(k, 1/k) CDF, which
        # is 1 - e^(-x) for one branch
        for branches in FADE_BRANCHES:
            draws = np.sort(fast_fades(np.random.default_rng(14), 1_000_000, 1, branches),
                            axis=None)
            n = draws.size
            cdf = fade_cdf(draws, branches)
            ecdf_hi = np.arange(1, n + 1) / n
            ecdf_lo = np.arange(0, n) / n
            ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
            assert ks < 0.005, branches

    def test_identical_seed_identical_stream(self):
        for branches in FADE_BRANCHES:
            a = fast_fades(np.random.default_rng(99), 100, 10, branches)
            b = fast_fades(np.random.default_rng(99), 100, 10, branches)
            assert a.shape == (100, 10)
            assert np.array_equal(a, b)



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
# three blocks and a ragged tail, so the work crosses block edges and a
# helper thread takes part
MANY_LINKS = np.random.default_rng(22).uniform(0.3, 130.0, 3 * BLOCK + 7)


class TestSampleLinkGainsBitwise:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("include_shadow", [True, False], ids=["shadow", "no_shadow"])
    @pytest.mark.parametrize("dists", [float(LINKS[7]), np.float64(0.5), np.array(31.0), LINKS,
                                       LINKS[:9].reshape(3, 3), MANY_LINKS,
                                       MANY_LINKS[:3 * BLOCK + 6].reshape(-1, 2)],
                             ids=["scalar", "np_scalar", "0d", "1d", "2d", "blocks_1d", "blocks_2d"])
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

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("include_shadow", [True, False], ids=["shadow", "no_shadow"])
    def test_out_dists_builds_gains_in_place(self, model, include_shadow):
        dists = LINKS.copy()
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        got = sample_link_gains(dists, model, rng_a, include_shadow, out=dists)
        assert got is dists
        want = sample_link_gains(LINKS, model, rng_b, include_shadow)
        assert np.array_equal(bits(got), bits(want))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_separate_out_leaves_dists_unwritten(self, model):
        dists, out = LINKS.copy(), np.empty_like(LINKS)
        got = sample_link_gains(dists, model, np.random.default_rng(6), out=out)
        assert got is out
        assert np.array_equal(dists.view(np.int64), LINKS.view(np.int64))
        want = sample_link_gains(LINKS, model, np.random.default_rng(6))
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("out", [np.empty(1000), np.empty((1001, 1)),
                                     np.empty(1001, dtype=np.float32), [0.0] * 1001,
                                     np.empty((1001, 2))[:, 0]],
                             ids=["short", "2d", "float32", "list", "strided"])
    def test_bad_out_rejected(self, out):
        with pytest.raises(ValueError, match="out must be"):
            sample_link_gains(LINKS, MODELS[0], np.random.default_rng(0), out=out)

    def test_bad_distance_leaves_out_unwritten(self):
        dists = LINKS.copy()
        dists[5] = -1.0
        before = dists.copy()
        with pytest.raises(ValueError, match="distance"):
            sample_link_gains(dists, MODELS[0], np.random.default_rng(0), out=dists)
        assert np.array_equal(dists.view(np.int64), before.view(np.int64))

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


class TestBlockwise:
    """The helper thread of ``blockwise``: when it starts, and how it ends."""

    @staticmethod
    def on_main():
        return threading.current_thread() is threading.main_thread()

    def test_under_two_blocks_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        seen = []
        assert blockwise(lambda s: seen.append((s.start, s.stop, self.on_main())), 2 * BLOCK - 1,
                         beside=lambda: "drawn") == "drawn"
        assert seen == [(0, BLOCK, True), (BLOCK, 2 * BLOCK, True)]

    def test_helper_takes_blocks_beside_the_draw(self):
        before = threading.active_count()
        seen, helper_ran = [], threading.Event()

        def step(s):
            seen.append(s.start)
            if not self.on_main():
                helper_ran.set()

        def beside():
            # the draw runs on the calling thread while the helper takes blocks
            assert self.on_main()
            assert helper_ran.wait(10.0)
            return "drawn"

        assert blockwise(step, 3 * BLOCK + 7, beside) == "drawn"
        assert sorted(seen) == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]
        assert threading.active_count() == before

    def test_helper_error_reaches_the_caller(self):
        before = threading.active_count()
        helper_failed = threading.Event()

        def step(s):
            if not self.on_main():
                helper_failed.set()
                raise ZeroDivisionError("block failed")

        with pytest.raises(ZeroDivisionError, match="block failed"):
            blockwise(step, 3 * BLOCK + 7, beside=lambda: helper_failed.wait(10.0))
        assert helper_failed.is_set()
        assert threading.active_count() == before

    def test_every_block_taken_once_under_fast_switching(self):
        # four concurrent calls, eight threads on two cores, switching every
        # microsecond: a block handed out twice or lost breaks the count
        blocks = 500
        seen = [[] for _ in range(4)]

        def call(k):
            blockwise(lambda s: seen[k].append(s.start), blocks * BLOCK)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for starts in seen:
            assert sorted(starts) == list(range(0, blocks * BLOCK, BLOCK))

    def test_caller_error_joins_the_helper(self):
        before = threading.active_count()

        def beside():
            raise KeyError("draw failed")

        with pytest.raises(KeyError, match="draw failed"):
            blockwise(lambda s: None, 3 * BLOCK + 7, beside)
        assert threading.active_count() == before


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
