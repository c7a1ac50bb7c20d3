"""Indoor radio propagation: path gain laws, shadowing, fast fading.

Two path-gain models are supported:

* ``inh`` -- the 3GPP indoor-hotspot law (LOS/NLOS pair plus a
  distance-dependent LOS probability).
* ``diffusion`` -- exponential-in-distance attenuation times geometric
  spreading, G(d) = G0 * e^(-d/L) / d in linear terms.

``sample_link_gains`` draws a link's mean gain (path gain plus
lognormal shadowing), once per link; ``fast_fades`` draws the linear
fast-fade factors the simulator applies per frame and receiver.  The
random functions take an injected ``numpy.random.Generator``, so
identical seeds reproduce identical sample streams.  The gain laws
accept scalars or numpy arrays.  A large draw does its elementwise work
in cache-sized blocks, shared with a helper thread (``blockwise``),
while its random numbers are drawn whole, in order, on the calling
thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

DB_PER_NEPER = 10.0 / math.log(10.0)

# LOS-assignment modes for the inh model (how the LOS probability curve
# is turned into a per-link LOS/NLOS decision).
LOS_MODES = ("range", "bernoulli", "nlos", "los")

# Elementwise work on a sample runs in blocks of this many floats (256 KiB),
# so that every pass over a block finds it in the core's cache.
BLOCK = 1 << 15


@dataclass(frozen=True)
class Position:
    """A 2-D point in meters."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Building:
    """Rectangular floor plan with one corner at the origin."""

    width_m: float = 50.0
    depth_m: float = 120.0

    def contains(self, pos: Position) -> bool:
        return 0.0 <= pos.x <= self.width_m and 0.0 <= pos.y <= self.depth_m


@dataclass
class PropagationModel:
    """Path-gain law plus shadowing / LOS parameters.

    ``los_mode`` controls how the inh LOS probability becomes a LOS
    decision for a sampled link:

    * ``range``     -- deterministic: LOS iff distance <= los_range_m.
                       los_range_m defaults to the radius whose disc area
                       matches the expected LOS area of the probability
                       curve over its transition zone (calibrated against
                       the reference coverage data, see README).
    * ``bernoulli`` -- independent draw per link with p = los_probability.
    * ``nlos`` / ``los`` -- force one branch.
    """

    variant: str = "inh"  # "inh" | "diffusion"
    carrier_freq_ghz: float = 5.0
    shadow_sigma_los_db: float = 3.0
    shadow_sigma_nlos_db: float = 4.0
    diffusion_ref_gain_db: float = -54.5
    diffusion_length_m: float = 5.6
    los_mode: str = "range"
    los_range_m: float = 30.5

    def __post_init__(self) -> None:
        if self.variant not in ("inh", "diffusion"):
            raise ValueError(f"unknown propagation variant: {self.variant!r}")
        if self.carrier_freq_ghz <= 0:
            raise ValueError("carrier_freq_ghz must be > 0")
        if self.shadow_sigma_los_db < 0 or self.shadow_sigma_nlos_db < 0:
            raise ValueError("shadow sigmas must be >= 0")
        if self.diffusion_length_m <= 0:
            raise ValueError("diffusion_length_m must be > 0")
        if self.los_mode not in LOS_MODES:
            raise ValueError(f"unknown los_mode: {self.los_mode!r}")


def _check_distance(d, out: np.ndarray | None = None) -> np.ndarray:
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"distance must be finite and positive, got {d!r}")
    # ``out`` is cut into blocks through a flat view, which only a contiguous
    # array has: ``reshape`` of any other would copy and drop the writes
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == arr.shape and out.flags.c_contiguous):
        raise ValueError("out must be a contiguous float array of the distances' shape")
    # below-1m distances clamp to the 1 m value to avoid gain divergence; the
    # clamped array (a copy, or ``out``) is at least 1-d and the caller's to overwrite
    return np.atleast_1d(np.maximum(arr, 1.0, out=out))


def blockwise(step, n: int, beside=None):
    """Call ``step(s)`` once for each ``BLOCK``-long slice ``s`` of ``range(n)``.

    ``beside()`` (a random draw) runs first on the calling thread, and its
    value is returned.  From two full blocks on, a helper thread takes
    blocks from the start while it runs, and the calling thread then takes
    what is left, so the draws keep their order on one thread; a shorter
    run would not repay the thread's start.  Each slice is written by one
    thread only, and elementwise work gives the same bits on either, so
    the result does not depend on which thread took a block.

    The helper is joined before this returns, also when the calling
    thread raises, and an exception raised on it is raised here: a bare
    thread would swallow it and leave a sample half built.  ``step`` must
    call no function the benchmark's span tracer wraps, as the tracer is
    not thread-safe.
    """
    starts = iter(range(0, n, BLOCK))
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                i = next(starts, None)
            if i is None:
                return
            step(slice(i, i + BLOCK))

    def work():
        result = beside() if beside is not None else None
        take()
        return result

    if n < 2 * BLOCK:
        return work()
    failed = []

    def helper():
        try:
            take()
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    thread = threading.Thread(target=helper, name="coexsim-blocks")
    thread.start()
    try:
        result = work()
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return result


def _inh_loss(logd: np.ndarray, fc_ghz: float, los: bool, out: np.ndarray) -> np.ndarray:
    """Indoor-hotspot path loss (dB) of ``logd`` = log10(d), written into ``out``."""
    slope, intercept = (16.9, 32.8) if los else (43.3, 11.5)
    np.multiply(logd, slope, out=out)
    out += intercept
    out += 20.0 * math.log10(fc_ghz)
    return out


def _diffusion_gain(dd: np.ndarray, model: PropagationModel) -> np.ndarray:
    """Diffusion-law gain (dB) of the distances ``dd``, written over them."""
    term = np.log10(dd)
    term *= 10.0
    np.subtract(model.diffusion_ref_gain_db, term, out=term)
    dd *= DB_PER_NEPER
    dd /= model.diffusion_length_m
    return np.subtract(term, dd, out=dd)


def path_gain_inh(d, fc_ghz: float = 5.0, los: bool = True):
    """Indoor-hotspot path gain in dB (negative of the path loss).

    LOS:  PL = 16.9 log10(d) + 32.8 + 20 log10(fc)
    NLOS: PL = 43.3 log10(d) + 11.5 + 20 log10(fc)
    """
    dd = _check_distance(d)
    logd = np.log10(dd, out=dd)
    out = np.negative(_inh_loss(logd, fc_ghz, los, out=logd), out=logd)
    return float(out[0]) if np.ndim(d) == 0 else out


def los_probability_inh(d):
    """LOS probability for the indoor-hotspot model.

    1 for d <= 18 m, exp(-(d-18)/27) for 18 < d < 37, 0.5 beyond.
    """
    arr = np.asarray(d, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"distance must be finite and >= 0, got {d!r}")
    # built in one array (0-d for a scalar, as ufuncs given ``out`` keep it),
    # in the order of exp(-(d - 18) / 27), then the two flat zones
    p = np.subtract(arr, 18.0, out=np.empty_like(arr))
    np.negative(p, out=p)
    np.divide(p, 27.0, out=p)
    np.exp(p, out=p)
    np.copyto(p, 0.5, where=arr >= 37.0)
    np.copyto(p, 1.0, where=arr <= 18.0)
    return float(p) if np.ndim(d) == 0 else p


def path_gain_diffusion(d, model: PropagationModel):
    """Diffusion-law path gain in dB.

    dB form of G = G0 * e^(-d/L) / d:
    gain = ref_gain - 10 log10(d) - (10/ln 10) * d / L
    """
    out = _diffusion_gain(_check_distance(d), model)
    return float(out[0]) if np.ndim(d) == 0 else out


def fast_fades(rng: np.random.Generator, frames: int, nodes: int, branches: int) -> np.ndarray:
    """Linear fast-fade power factors, one row of ``nodes`` per frame.

    Each factor is the mean of ``branches`` unit-mean exponential draws
    (frequency diversity); one branch is a plain Rayleigh fade.  The
    (frames x nodes x branches) draw gives the same stream as ``frames``
    draws of (nodes x branches) each.
    """
    return rng.exponential(1.0, size=(frames, nodes, branches)).mean(axis=2)


def _inh_gain(d: np.ndarray, fc_ghz: float, los) -> np.ndarray:
    """Indoor-hotspot gain (dB) of the clamped distances ``d``, written over them.

    ``los`` is one bool for every link, or a bool array that picks the
    law per link; ``np.where`` picks the same doubles as a masked copy.
    """
    logd = np.log10(d, out=d)
    if isinstance(los, bool):
        return np.negative(_inh_loss(logd, fc_ghz, los, out=logd), out=d)
    los_loss = _inh_loss(logd, fc_ghz, True, out=np.empty_like(logd))
    nlos_loss = _inh_loss(logd, fc_ghz, False, out=logd)
    return np.negative(np.where(los, los_loss, nlos_loss), out=d)


def sample_link_gains(
    dists,
    model: PropagationModel,
    rng: np.random.Generator,
    include_shadow: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Path gain + shadowing (dB) for an array of link distances.

    For the inh variant the LOS branch is chosen per ``model.los_mode``
    and the matching shadow sigma applies; the diffusion variant is a
    single law and uses the NLOS sigma.  Fast fading is never included
    here -- callers add it per transmission attempt.

    The gains are built in place: in the clamped copy of ``dists``, or in
    ``out`` when given.  ``out`` is a contiguous float64 array of
    ``dists``' shape, and may be ``dists`` itself; it is returned, holding
    the same floats as the copying call.  Without ``out``, ``dists`` is
    never written.

    The random draws are taken whole, in a fixed order, on the calling
    thread: the LOS uniforms (``bernoulli``), then the unit normals of the
    shadowing.  Everything else is elementwise and runs in cache-sized
    blocks (``blockwise``); the gain laws run beside the normal draw.
    """
    gain = _check_distance(dists, out)
    flat = gain.reshape(-1)  # a view: ``gain`` is contiguous
    n = flat.size
    sigma_los, sigma_nlos = model.shadow_sigma_los_db, model.shadow_sigma_nlos_db
    if model.variant == "diffusion":
        def law(s):
            _diffusion_gain(flat[s], model)

        def sigma(s):
            return sigma_nlos
    elif model.los_mode in ("los", "nlos"):
        los = model.los_mode == "los"

        def law(s):
            _inh_gain(flat[s], model.carrier_freq_ghz, los)

        def sigma(s):
            return sigma_los if los else sigma_nlos
    else:
        # the flags are kept for the shadow sigmas; under ``range`` the law
        # sets them, under ``bernoulli`` they are drawn first
        los = np.empty(n, dtype=bool)
        if model.los_mode == "bernoulli":
            draws = rng.random(n)
            blockwise(lambda s: np.less(draws[s], los_probability_inh(flat[s]), out=los[s]), n)
            del draws

        def law(s):
            if model.los_mode == "range":
                np.less_equal(flat[s], model.los_range_m, out=los[s])
            _inh_gain(flat[s], model.carrier_freq_ghz, los[s])

        def sigma(s):
            return np.where(los[s], sigma_los, sigma_nlos)
    if include_shadow:
        shadow = blockwise(law, n, beside=lambda: rng.standard_normal(n))

        def add_shadow(s):
            draws = shadow[s]
            draws *= sigma(s)
            flat[s] += draws

        blockwise(add_shadow, n)
    else:
        blockwise(law, n)
    if out is not None:
        return out
    return float(gain[0]) if np.ndim(dists) == 0 else gain
