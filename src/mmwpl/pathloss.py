"""Omnidirectional path loss models, their regressions, their probability-weighted hybrid and its outage.

Two model families: a close-in free-space-reference model anchored 1 m from
the transmitter, and a floating-intercept line fitted over a stated distance
range.  Each is fitted to measured scatter by least squares, with shadowing
the root mean square residual about the fitted line (divisor N).  The hybrid
weighs a LOS and an NLOS model by the analytic LOS probability, giving a
single mean path loss and a distance-dependent lognormal shadowing spread.
Link outage against a path loss budget follows from both, analytically or by
seeded Monte Carlo, as does coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _finite
from .los_probability import (NYC_SITE_LOS_PARAMS, LosProbParams, _count, _distances, _rows, _table, p_los_model,
                              radius_grid)

__all__ = [
    "CloseInModel",
    "FloatingInterceptModel",
    "HybridModel",
    "OutageSpec",
    "PRESETS",
    "ParameterPreset",
    "PathLossSample",
    "coverage_curve",
    "fit_close_in",
    "fit_floating",
    "fspl_at_reference",
    "get_preset",
    "hybrid_from_preset",
    "mean_pl_close_in",
    "mean_pl_floating",
    "mean_pl_hybrid",
    "outage_monte_carlo",
    "outage_probability",
    "sample_pl",
    "samples_from_csv",
    "samples_to_csv",
    "shadow_sigma_hybrid",
]

SPEED_OF_LIGHT_M_S = 299792458.0

# The close-in model is anchored at this fixed free-space reference distance.
REFERENCE_DISTANCE_M = 1.0

DEFAULT_P_LOS_PARAMS = NYC_SITE_LOS_PARAMS["all"]


def fspl_at_reference(frequency_hz: float) -> float:
    """Free-space path loss in dB at the 1 m reference distance.

    Raises:
        ValueError: when the frequency is not positive and finite, or so large
            (above about 1.4e307 Hz) that 4 pi f / c overflows.
    """
    if not (_finite(frequency_hz) and frequency_hz > 0):
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz!r}")
    ratio = 4.0 * math.pi * REFERENCE_DISTANCE_M * frequency_hz / SPEED_OF_LIGHT_M_S
    if not math.isfinite(ratio):
        raise ValueError(f"frequency_hz is too large for a finite free-space path loss, got {frequency_hz!r}")
    return 20.0 * math.log10(ratio)


@dataclass(frozen=True)
class CloseInModel:
    """Close-in reference path loss model: FSPL at 1 m plus a fitted exponent."""

    frequency_hz: float
    exponent: float
    shadow_std_db: float

    def __post_init__(self):
        fspl_at_reference(self.frequency_hz)  # rejects a frequency with no finite 1 m FSPL
        if not (_finite(self.exponent) and self.exponent > 0):
            raise ValueError(f"exponent must be positive, got {self.exponent!r}")
        if not (_finite(self.shadow_std_db) and self.shadow_std_db >= 0):
            raise ValueError(f"shadow_std_db must be >= 0, got {self.shadow_std_db!r}")


@dataclass(frozen=True)
class FloatingInterceptModel:
    """Least-squares line in log-distance with a free intercept.

    ``valid_range_m`` records the distance span the fit covered; evaluations
    outside it are flagged as extrapolated.
    """

    intercept_db: float
    slope: float
    shadow_std_db: float
    valid_range_m: tuple[float, float] = (30.0, 200.0)

    def __post_init__(self):
        try:
            lo, hi = self.valid_range_m
        except (TypeError, ValueError):  # not a pair
            lo = hi = None
        if not (_finite(lo) and _finite(hi) and 0 < lo < hi):
            raise ValueError(f"valid_range_m must satisfy 0 < min < max, got {self.valid_range_m!r}")
        if not (_finite(self.shadow_std_db) and self.shadow_std_db >= 0):
            raise ValueError(f"shadow_std_db must be >= 0, got {self.shadow_std_db!r}")
        if not (_finite(self.intercept_db) and _finite(self.slope)):
            raise ValueError("intercept_db and slope must be finite")


@dataclass(frozen=True)
class HybridModel:
    """A LOS close-in model and an NLOS model weighted by LOS probability."""

    los: CloseInModel
    nlos: CloseInModel | FloatingInterceptModel
    p_los: LosProbParams


@dataclass(frozen=True)
class ParameterPreset:
    """Published parameters for one carrier frequency and environment."""

    label: str
    frequency_hz: float
    los: CloseInModel
    nlos_close_in: CloseInModel
    nlos_floating: FloatingInterceptModel


PRESETS = {
    "28GHz-NYC": ParameterPreset(
        label="28GHz-NYC",
        frequency_hz=28e9,
        los=CloseInModel(28e9, 2.1, 3.6),
        nlos_close_in=CloseInModel(28e9, 3.4, 9.7),
        nlos_floating=FloatingInterceptModel(79.2, 2.6, 9.6, (30.0, 200.0)),
    ),
    "73GHz-NYC": ParameterPreset(
        label="73GHz-NYC",
        frequency_hz=73e9,
        los=CloseInModel(73e9, 2.0, 4.8),
        nlos_close_in=CloseInModel(73e9, 3.4, 7.9),
        nlos_floating=FloatingInterceptModel(80.6, 2.9, 7.8, (30.0, 200.0)),
    ),
}


def get_preset(label: str) -> ParameterPreset:
    try:
        return PRESETS[label]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {label!r}; available: {known}") from None


def hybrid_from_preset(
    label: str,
    nlos: str = "close-in",
    p_los: LosProbParams | None = None,
) -> HybridModel:
    """Assemble a hybrid model from a preset, choosing the NLOS family.

    ``nlos`` is "close-in" or "floating".  The LOS probability defaults to the
    pooled NYC parameters (breakpoint 27 m, decay 71 m).
    """
    preset = get_preset(label)
    if nlos == "close-in":
        nlos_model = preset.nlos_close_in
    elif nlos == "floating":
        nlos_model = preset.nlos_floating
    else:
        raise ValueError(f"nlos must be 'close-in' or 'floating', got {nlos!r}")
    return HybridModel(preset.los, nlos_model, p_los or DEFAULT_P_LOS_PARAMS)


def _scalar_or_array(values, d_m):
    return float(values) if np.ndim(d_m) == 0 else values


def _log_distance_mean(model, d: np.ndarray, p=None) -> np.ndarray:
    """Mean path loss at distances already checked, dB, of a close-in or floating-intercept model, or of a hybrid one
    whose LOS probabilities at ``d`` are ``p``; a ValueError names the first distance where it is not finite."""
    def branch(m):
        if isinstance(m, CloseInModel):
            return fspl_at_reference(m.frequency_hz) + 10.0 * m.exponent * np.log10(d)
        return m.intercept_db + 10.0 * m.slope * np.log10(d)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite branch mean makes the mean non-finite
        mean = branch(model) if p is None else p * branch(model.los) + (1.0 - p) * branch(model.nlos)
    if not np.isfinite(mean).all():
        raise ValueError(f"mean path loss is not finite at {d[~np.isfinite(mean)][0]:g} m")
    return mean


def mean_pl_close_in(model: CloseInModel, d_m):
    """Mean path loss of a close-in model, dB.  Accepts scalars or arrays.

    Raises:
        ValueError: when any distance is below the 1 m reference or the mean is not finite.
    """
    d = _distances(d_m, REFERENCE_DISTANCE_M)
    return _scalar_or_array(_log_distance_mean(model, d), d_m)


def mean_pl_floating(model: FloatingInterceptModel, d_m):
    """Mean path loss of a floating-intercept model, dB.

    Returns (value, extrapolated); the flag is set for distances outside the
    model's valid range (endpoints count as in range).
    """
    d = _distances(d_m)
    lo, hi = model.valid_range_m
    out = _log_distance_mean(model, d)
    extrapolated = (d < lo) | (d > hi)
    if d.ndim == 0:
        return float(out), bool(extrapolated)
    return out, extrapolated


CONDITIONS = ("LOS", "NLOS")

SAMPLES_CSV_HEADER = "d_m,pl_db,condition"


@dataclass(frozen=True)
class PathLossSample:
    """One measured path loss value at a T-R separation, labeled LOS or NLOS."""

    distance_m: float
    path_loss_db: float
    condition: str

    def __post_init__(self):
        if not (_finite(self.distance_m) and self.distance_m >= REFERENCE_DISTANCE_M):
            raise ValueError(f"distance_m must be >= {REFERENCE_DISTANCE_M:g} m, got {self.distance_m!r}")
        if not _finite(self.path_loss_db):
            raise ValueError(f"path_loss_db must be finite, got {self.path_loss_db!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")


def _columns(samples):
    if len(samples) < 2:
        raise ValueError("fit requires at least 2 samples")
    d = np.array([s.distance_m for s in samples], dtype=float)
    pl = np.array([s.path_loss_db for s in samples], dtype=float)
    return d, pl


def fit_close_in(samples: "list[PathLossSample]", frequency_hz: float) -> CloseInModel:
    """Fit the close-in exponent and shadowing spread.

    With a = 10 log10(d) and b = PL - FSPL(1 m), the least-squares exponent is
    sum(a*b) / sum(a*a), the unique zero of the squared-error gradient.

    Raises:
        ValueError: with fewer than 2 samples, when every distance equals
            1 m (zero design variance) or when the sums overflow.
    """
    d, pl = _columns(samples)
    a = 10.0 * np.log10(d)
    b = pl - fspl_at_reference(frequency_hz)
    denom = float(np.sum(a * a))
    if denom == 0.0:
        raise ValueError("all distances equal the 1 m reference; exponent is undetermined")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        exponent = float(np.sum(a * b)) / denom
        residuals = b - exponent * a
        sigma = float(np.sqrt(np.mean(residuals**2)))
    if not (math.isfinite(exponent) and math.isfinite(sigma)):
        raise ValueError("fitted parameters are not finite; the path loss values are too large to fit")
    return CloseInModel(frequency_hz, exponent, sigma)


def fit_floating(samples: "list[PathLossSample]") -> FloatingInterceptModel:
    """Ordinary least squares of path loss on 10 log10(d).

    The returned model's valid range is the span of the sample distances.

    Raises:
        ValueError: with fewer than 2 samples, when all distances coincide
            (rank-deficient design) or when the sums overflow.
    """
    d, pl = _columns(samples)
    x = 10.0 * np.log10(d)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("all sample distances coincide; the design matrix is rank deficient")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        slope = float(np.sum(xc * (pl - pl.mean()))) / sxx
        intercept = float(pl.mean() - slope * x.mean())
        residuals = pl - (intercept + slope * x)
        sigma = float(np.sqrt(np.mean(residuals**2)))
    if not (math.isfinite(intercept) and math.isfinite(slope) and math.isfinite(sigma)):
        raise ValueError("fitted parameters are not finite; the path loss values are too large to fit")
    return FloatingInterceptModel(intercept, slope, sigma, (float(d.min()), float(d.max())))


def samples_from_csv(text: str) -> "list[PathLossSample]":
    """Parse measurement scatter from CSV with header d_m,pl_db,condition.

    Rows whose path loss field is empty or NaN (-nan and +nan too) mark
    locations where no signal could be measured; they are skipped, not read
    as values.  At most MAX_GRID_POINTS rows are accepted, counted before any
    is parsed.

    Raises:
        ValueError: on a wrong header, too many rows or malformed rows.
    """
    out = []
    for fields in _rows(text, SAMPLES_CSV_HEADER, "samples"):
        distance, path_loss, condition = (f.strip() for f in fields)
        if path_loss.lower() in ("", "nan", "+nan", "-nan"):
            continue
        try:
            sample = PathLossSample(float(distance), float(path_loss), condition)
        except ValueError as exc:
            raise ValueError(f"malformed samples CSV row {','.join(fields)!r}: {exc}") from None
        out.append(sample)
    return out


def samples_to_csv(samples: "list[PathLossSample]") -> str:
    return _table(SAMPLES_CSV_HEADER, [s.distance_m for s in samples], [s.path_loss_db for s in samples],
                  [s.condition for s in samples])


def _hybrid(model: HybridModel, d_m):
    """(P_LOS, mean, spread) of the hybrid model: one distance check, one p_los_model, finite or a ValueError."""
    d = _distances(d_m, REFERENCE_DISTANCE_M)
    p = np.asarray(p_los_model(d, model.p_los))
    # hypot never squares: the spread is at most the larger branch spread, and positive when either weighted one is
    sigma = np.hypot(p * model.los.shadow_std_db, (1.0 - p) * model.nlos.shadow_std_db)
    return p, _log_distance_mean(model, d, p), sigma


def mean_pl_hybrid(model: HybridModel, d_m):
    """Probability-weighted mean path loss, dB.  Accepts scalars or arrays.

    The LOS and NLOS means are combined with weights P and 1-P from the LOS
    probability model, so the result always lies between the two branches.
    """
    return _scalar_or_array(_hybrid(model, d_m)[1], d_m)


def shadow_sigma_hybrid(model: HybridModel, d_m):
    """Distance-dependent shadowing spread of the hybrid model, dB.

    The shadowing term is a probability-weighted sum of two independent
    zero-mean normal components, so the variances combine with squared
    weights.  Accepts scalars or arrays.
    """
    return _scalar_or_array(_hybrid(model, d_m)[2], d_m)


def _shadowed(model: HybridModel, p, mean, z_los: np.ndarray, z_nlos: np.ndarray) -> np.ndarray:
    """Weight standard normal LOS and NLOS draws into shadowed path loss, in place.

    Returns ``z_los``, now ``s_los * z_los * p + mean + s_nlos * z_nlos * (1 - p)``
    summed in that order; ``z_nlos`` is overwritten too.  ``s * z`` is what
    ``rng.normal(0, s)`` returns for the same draw ``z``, bit for bit.
    """
    z_los *= model.los.shadow_std_db
    z_los *= p
    z_los += mean
    z_nlos *= model.nlos.shadow_std_db
    z_nlos *= 1.0 - p
    z_los += z_nlos
    return z_los


def sample_pl(model: HybridModel, d_m, rng: np.random.Generator, size: int | None = None):
    """Draw shadowed path loss samples at one distance, dB.

    Two independent zero-mean normal draws (LOS and NLOS spreads, all LOS
    draws first) are weighted by P and 1-P and added to the hybrid mean.
    ``size=None`` returns a float; an integer returns that many samples.
    Identical generators give identical output.

    Raises:
        ValueError: when ``size`` is neither None nor a draw count as
            outage_monte_carlo's ``draws``, or ``d_m`` is not one distance of at least 1 m.
    """
    shape = () if size is None else (_count(size, "size"),)
    if np.ndim(d_m):
        raise ValueError(f"sample_pl takes one distance, got shape {np.shape(d_m)}; outage_monte_carlo takes a grid")
    p, mean, _ = _hybrid(model, d_m)
    z_los = rng.standard_normal(shape)
    z_nlos = rng.standard_normal(shape)
    out = _shadowed(model, p, mean, z_los, z_nlos)
    return float(out) if size is None else out


@dataclass(frozen=True)
class OutageSpec:
    """Link budget: the maximum tolerable path loss in dB.

    May be +inf, meaning the link never drops.
    """

    max_path_loss_db: float

    def __post_init__(self):
        budget = self.max_path_loss_db
        if not (_finite(budget) or budget in (math.inf, -math.inf)):
            raise ValueError("max_path_loss_db must not be NaN" if budget != budget else
                             f"max_path_loss_db must be a number within float range, got {budget!r}")


def outage_probability(model: HybridModel, d_m, spec: OutageSpec):
    """Probability that shadowed path loss exceeds the budget at distance(s) d_m.

    Path loss in dB is normal with the hybrid mean and spread, so this is the
    Gaussian upper tail.  A zero spread degenerates to a deterministic
    comparison of the mean against the budget.  Scalar in, float out; array
    in, array out.
    """
    _, mean, sigma = _hybrid(model, d_m)
    threshold = spec.max_path_loss_db
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # |z| = inf is a certain outcome
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
        ValueError: when ``draws`` is not an integer from 1 to MAX_GRID_POINTS
            (checked before anything is allocated) or a distance is below 1 m.
    """
    draws = _count(draws, "draws")
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
