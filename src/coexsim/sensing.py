"""Energy-detection analytics: ED success probabilities and ED coverage.

``ed_success_prob`` is the closed-form probability that every link in a
set is sensed above an ED threshold under unit-mean exponential fading.
``sample_rssi_dbm`` draws mean RSSIs at points spread uniformly over a
building, and ``coverage_of`` counts the cell and ED coverage fractions
of such a draw, as ``coexsim coverage`` does for Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagation import Building, PropagationModel, sample_link_gains


@dataclass
class EdConfig:
    """Detection threshold and decode floor, independent axes in dBm."""

    threshold_dbm: float = -62.0
    min_sensitivity_dbm: float = -87.5

    def __post_init__(self) -> None:
        # -inf is a legal "no threshold" sentinel; NaN and +/-inf sensitivity are not
        if math.isnan(self.threshold_dbm) or self.threshold_dbm == math.inf:
            raise ValueError("threshold must be finite or -inf")
        if not math.isfinite(self.min_sensitivity_dbm):
            raise ValueError("min_sensitivity must be finite")


@dataclass
class CoverageResult:
    cell_fraction: float
    ed_fraction: float
    samples: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.cell_fraction <= 1.0 and 0.0 <= self.ed_fraction <= 1.0):
            raise ValueError("fractions must lie in [0, 1]")


def ed_success_prob(mean_rssi_dbm, threshold_dbm: float) -> float:
    """P{every link sensed above threshold} under exponential fading.

    With unit-mean exponential fade power X, a link whose mean received
    power is r dBm exceeds the threshold t iff X > 10^((t - r)/10), so

        P = prod_i exp(-10^((t - r_i)/10))

    Exact closed form, no sampling.
    """
    rssis = np.asarray(mean_rssi_dbm, dtype=float)
    if rssis.size == 0:
        raise ValueError("mean_rssi list must be nonempty")
    margins = 10.0 ** ((threshold_dbm - rssis) / 10.0)
    return float(np.exp(-np.sum(margins)))


def ed_success_factors(mean_rssi_dbm, threshold_dbm: float) -> list[float]:
    """Per-link factors of ed_success_prob (same fading model)."""
    rssis = np.asarray(mean_rssi_dbm, dtype=float)
    if rssis.size == 0:
        raise ValueError("mean_rssi list must be nonempty")
    return [float(math.exp(-(10.0 ** ((threshold_dbm - r) / 10.0)))) for r in rssis]


def sample_rssi_dbm(
    building: Building,
    base,
    model: PropagationModel,
    n_samples: int,
    rng: np.random.Generator,
    include_shadow: bool = True,
    margin_db: float = 0.0,
) -> np.ndarray:
    """Mean RSSI (dBm) at client points drawn uniformly over a building.

    The RSSI is the base's transmit power plus path gain and shadowing
    (no fast fading), less ``margin_db``, an optional multipath
    allowance.  ``base`` needs ``.position`` (a ``Position``) and
    ``.tx_power_dbm`` attributes.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    pos = base.position
    if not building.contains(pos):
        raise ValueError("base position lies outside the building")
    # the distances are formed in the x draw, the y draw is freed before the
    # gains are drawn, and the gains are built over the distances, so about
    # two sample arrays are alive at once
    dists = rng.uniform(0.0, building.width_m, n_samples)
    ys = rng.uniform(0.0, building.depth_m, n_samples)
    dists -= pos.x
    ys -= pos.y
    np.hypot(dists, ys, out=dists)
    del ys
    np.maximum(dists, 1.0, out=dists)
    rssis = sample_link_gains(dists, model, rng, include_shadow=include_shadow, out=dists)
    rssis += base.tx_power_dbm
    rssis -= margin_db
    return rssis


def coverage_of(rssis: np.ndarray, ed: EdConfig) -> CoverageResult:
    """Cell and ED coverage fractions of an RSSI sample.

    A point belongs to the cell when its RSSI reaches
    ``ed.min_sensitivity_dbm``; the ED fraction is the share of cell
    points whose RSSI also reaches the threshold.
    """
    in_cell = rssis >= ed.min_sensitivity_dbm
    n_cell = int(np.count_nonzero(in_cell))
    if n_cell == 0:
        raise ValueError("degenerate cell: no sampled point reaches the decode floor")
    above = np.count_nonzero(in_cell & (rssis >= ed.threshold_dbm))
    return CoverageResult(
        cell_fraction=n_cell / rssis.size,
        ed_fraction=above / n_cell,
        samples=rssis.size,
    )


def fractional_ed_coverage(
    building: Building,
    base,
    model: PropagationModel,
    ed: EdConfig,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
    include_shadow: bool = True,
    margin_db: float = 0.0,
) -> CoverageResult:
    """Monte-Carlo cell and ED coverage fractions of one ``sample_rssi_dbm`` draw.

    No command calls this; it is kept as the target of the benchmark's
    ``sensing.coverage`` span (``perfbench/child.py``).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rssis = sample_rssi_dbm(building, base, model, n_samples, rng,
                            include_shadow, margin_db)
    return coverage_of(rssis, ed)
