"""Outage probability and coverage versus distance for hybrid path loss models."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .los_probability import MAX_GRID_POINTS, radius_grid
from .pathloss import HybridModel, _hybrid, _scalar_or_array, _shadowed


@dataclass(frozen=True)
class OutageSpec:
    """Link budget: the maximum tolerable path loss in dB.

    May be +inf, meaning the link never drops.
    """

    max_path_loss_db: float

    def __post_init__(self):
        if math.isnan(self.max_path_loss_db):
            raise ValueError("max_path_loss_db must not be NaN")


def outage_probability(model: HybridModel, d_m, spec: OutageSpec):
    """Probability that shadowed path loss exceeds the budget at distance(s) d_m.

    Path loss in dB is normal with the hybrid mean and spread, so this is the
    Gaussian upper tail.  A zero spread degenerates to a deterministic
    comparison of the mean against the budget.  Scalar in, float out; array
    in, array out.
    """
    _, mean, sigma = _hybrid(model, d_m)
    threshold = spec.max_path_loss_db
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (threshold - mean) / sigma
    # numpy has no erfc; erfc(+inf) = 0 and erfc(-inf) = 2 cover infinite budgets
    tail = 0.5 * np.vectorize(math.erfc, otypes=[float])(z / math.sqrt(2.0))
    return _scalar_or_array(np.where(sigma == 0.0, mean > threshold, tail), d_m)


def outage_monte_carlo(model: HybridModel, d_m, spec: OutageSpec, rng: np.random.Generator, draws: int):
    """Monte Carlo outage: the share of ``draws`` shadowed samples above the budget.

    Distances are sampled in grid order on the one generator, each exactly as
    ``sample_pl(model, d, rng, size=draws)`` samples it, so the result equals
    ``np.mean(sample_pl(...) > spec.max_path_loss_db)`` distance by distance.
    Two float buffers of ``draws`` values (and one boolean mask) serve every
    distance, so memory does not grow with the grid.  Scalar in, float out;
    array in, array out.

    Raises:
        ValueError: when ``draws`` is outside 1..MAX_GRID_POINTS (checked
            before anything is allocated) or a distance is below 1 m.
    """
    if not 1 <= draws <= MAX_GRID_POINTS:
        raise ValueError(f"draws must be between 1 and {MAX_GRID_POINTS}, got {draws}")
    p, mean, _ = _hybrid(model, d_m)
    z_los, z_nlos = np.empty(draws), np.empty(draws)
    above = np.empty(draws, dtype=bool)
    share = np.empty(p.shape)
    for i in np.ndindex(p.shape):
        rng.standard_normal(out=z_los)
        rng.standard_normal(out=z_nlos)
        np.greater(_shadowed(model, p[i], mean[i], z_los, z_nlos), spec.max_path_loss_db, out=above)
        share[i] = np.count_nonzero(above) / draws
    return _scalar_or_array(share, d_m)


def coverage_curve(
    model: HybridModel,
    spec: OutageSpec,
    r_min: float = 10.0,
    r_max: float = 200.0,
    step: float = 1.0,
) -> "list[tuple[float, float]]":
    """Coverage probability (1 - outage) over a distance grid.

    Returns (distance, coverage) pairs in grid order.  A single-point grid is
    allowed.
    """
    d = radius_grid(r_min, r_max, step)
    return list(zip(d.tolist(), (1.0 - outage_probability(model, d, spec)).tolist()))
