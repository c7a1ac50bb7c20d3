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
accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DB_PER_NEPER = 10.0 / math.log(10.0)

# LOS-assignment modes for the inh model (how the LOS probability curve
# is turned into a per-link LOS/NLOS decision).
LOS_MODES = ("range", "bernoulli", "nlos", "los")


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


def _check_distance(d) -> np.ndarray:
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"distance must be finite and positive, got {d!r}")
    # below-1m distances clamp to the 1 m value to avoid gain divergence; the
    # clamped copy is at least 1-d and the caller's to overwrite
    return np.atleast_1d(np.maximum(arr, 1.0))


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
    p = np.where(arr <= 18.0, 1.0, np.where(arr >= 37.0, 0.5, np.exp(-(arr - 18.0) / 27.0)))
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


def _los_flags(dists: np.ndarray, model: PropagationModel, rng: np.random.Generator) -> np.ndarray:
    if model.los_mode == "range":
        return dists <= model.los_range_m
    if model.los_mode == "bernoulli":
        return rng.random(dists.shape) < los_probability_inh(dists)
    if model.los_mode == "los":
        return np.ones(dists.shape, dtype=bool)
    return np.zeros(dists.shape, dtype=bool)


def sample_link_gains(
    dists,
    model: PropagationModel,
    rng: np.random.Generator,
    include_shadow: bool = True,
) -> np.ndarray:
    """Path gain + shadowing (dB) for an array of link distances.

    For the inh variant the LOS branch is chosen per ``model.los_mode``
    and the matching shadow sigma applies; the diffusion variant is a
    single law and uses the NLOS sigma.  Fast fading is never included
    here -- callers add it per transmission attempt.

    The gains are built in place in the clamped copy of ``dists``, with
    one ``log10`` over the whole array; ``dists`` itself is never written.
    """
    gain = _check_distance(dists)
    if model.variant == "diffusion":
        _diffusion_gain(gain, model)
    else:
        los = _los_flags(gain, model, rng)
        logd = np.log10(gain, out=gain)
        los_loss = _inh_loss(logd, model.carrier_freq_ghz, True, out=np.empty_like(logd))
        _inh_loss(logd, model.carrier_freq_ghz, False, out=gain)
        np.copyto(gain, los_loss, where=los)
        del los_loss
        np.negative(gain, out=gain)
    if include_shadow:
        shadow = rng.normal(0.0, 1.0, size=gain.shape)
        if model.variant == "diffusion":
            shadow *= model.shadow_sigma_nlos_db
        else:
            np.multiply(shadow, model.shadow_sigma_los_db, out=shadow, where=los)
            np.logical_not(los, out=los)
            np.multiply(shadow, model.shadow_sigma_nlos_db, out=shadow, where=los)
        gain += shadow
    return float(gain[0]) if np.ndim(dists) == 0 else gain
