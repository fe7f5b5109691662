"""Line-of-sight probability: ray-traced circle sampling and an analytic model.

The site-specific estimate classifies evenly spaced receiver positions on
circles around a transmitter as LOS or NLOS against a building database.  The
analytic side is a breakpoint plus exponential-decay model fitted to such
curves by exhaustive mean-squared-error search.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .geometry import _MAX_COORDINATE_M, _RAYS_PER_BLOCK, BuildingDB, Point3, _finite, _sector_tracer

__all__ = [
    "LosProbParams",
    "LosProbabilityCurve",
    "NYC_SITE_LOS_PARAMS",
    "curve_from_csv",
    "curve_to_csv",
    "fit_p_los",
    "los_probability_curve",
    "mean_curve",
    "p_los_model",
    "radius_grid",
]

DEFAULT_N_POINTS = 100
DEFAULT_RX_HEIGHT_M = 1.5

CURVE_CSV_HEADER = "radius_m,p_los,valid"

# Largest radius grid, circle point count and CSV row count accepted, checked
# before anything is allocated.
MAX_GRID_POINTS = 1_000_000

# _RAYS_PER_BLOCK, the rays traced together per block, is also the values per
# array in a block of a fit's exact cells; it bounds a fit's working memory
# whatever the grid size.  A screen that builds its own tables holds a quarter
# of it per series, which keeps its series and their sums in cache.

# Integer search grid for the MMSE fit, meters.
_COARSE_GRID = np.arange(1.0, 201.0)


@dataclass(frozen=True)
class LosProbParams:
    """Parameters of the breakpoint/exponential-decay LOS probability model.

    ``d_bp_m`` is the breakpoint distance below which LOS probability is 1,
    ``alpha_m`` the exponential decay constant.  ``squared`` selects the
    squared form; the WINNER-style variant omits the outer square.
    """

    d_bp_m: float
    alpha_m: float
    squared: bool = True

    def __post_init__(self):
        if not (_finite(self.d_bp_m) and self.d_bp_m > 0):
            raise ValueError(f"d_bp_m must be positive, got {self.d_bp_m!r}")
        if not (_finite(self.alpha_m) and self.alpha_m > 0):
            raise ValueError(f"alpha_m must be positive, got {self.alpha_m!r}")


@dataclass(frozen=True)
class LosProbabilityCurve:
    """LOS probability per radius, with a validity mask.

    A radius is invalid when the probability was undefined there (every
    sampled circle position fell inside a building); ``p_los`` holds NaN at
    invalid radii.  A curve holds at most MAX_GRID_POINTS radii.
    """

    radii_m: np.ndarray
    p_los: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        try:
            radii = np.asarray(self.radii_m, dtype=float)
        except OverflowError:  # an integer beyond float range
            raise ValueError("radii must be positive and finite") from None
        try:
            p = np.asarray(self.p_los, dtype=float)
        except OverflowError:  # an integer beyond float range
            raise ValueError("valid p_los values must lie in [0, 1]") from None
        valid = np.asarray(self.valid, dtype=bool)
        if radii.ndim != 1 or p.shape != radii.shape or valid.shape != radii.shape:
            raise ValueError("radii_m, p_los and valid must be 1-D arrays of equal length")
        if not 0 < radii.size <= MAX_GRID_POINTS:
            raise ValueError(f"curve must contain between 1 and {MAX_GRID_POINTS} radii, "
                             f"got {radii.size}")
        if not np.all((radii > 0) & np.isfinite(radii)):
            raise ValueError("radii must be positive and finite")
        if not np.all(np.diff(radii) > 0):
            raise ValueError("radii must be strictly increasing")
        good = p[valid]
        if good.size and (np.any(good < 0) or np.any(good > 1) or np.any(~np.isfinite(good))):
            raise ValueError("valid p_los values must lie in [0, 1]")
        object.__setattr__(self, "radii_m", radii)
        object.__setattr__(self, "p_los", p)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return self.radii_m.size


def _bound(value, name: str):
    """``value``, or the infinity of its sign for an integer beyond float range; no number is a ValueError."""
    if _finite(value) or value != value or value in (math.inf, -math.inf):
        return value
    if isinstance(value, int):
        return math.inf if value > 0 else -math.inf
    raise ValueError(f"{name} must be a number, got {value!r}")


def radius_grid(r_min: float, r_max: float, step: float) -> np.ndarray:
    """Radii r_min, r_min+step, ... up to and including r_max when it lands on the grid.

    Raises ValueError on bad or non-finite bounds or step, or a grid of more than
    MAX_GRID_POINTS radii.  An integer beyond float range fails as the infinity
    of its sign does, and a value that is no real number fails first.
    """
    r_min, r_max, step = (_bound(v, name) for v, name in ((r_min, "r_min"), (r_max, "r_max"), (step, "step")))
    if not r_min > 0:
        raise ValueError(f"r_min must be positive, got {r_min:g}")
    if not r_max >= r_min:
        raise ValueError(f"r_max must be >= r_min, got r_min={r_min:g} r_max={r_max:g}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step:g}")
    # an infinite r_max alone is an over-cap grid, reported below
    if not (np.isfinite(r_min) and np.isfinite(step)):
        raise ValueError(f"r_min and step must be finite, got r_min={r_min:g} step={step:g}")
    count = np.floor((r_max - r_min) / step + 1e-9) + 1
    if not count <= MAX_GRID_POINTS:
        raise ValueError(f"grid of {r_min:g} to {r_max:g} m in {step:g} m steps "
                         f"has more than {MAX_GRID_POINTS} points")
    return r_min + step * np.arange(int(count), dtype=float)


def _count(value, name: str, low: int = 1) -> int:
    """``value`` as a count: an integer from ``low`` to MAX_GRID_POINTS, else ValueError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not low <= count <= MAX_GRID_POINTS:
        raise ValueError(f"{name} must be between {low} and {MAX_GRID_POINTS}, got {count}")
    return count


def los_probability_curve(
    db: BuildingDB,
    tx: Point3,
    r_min: float = 10.0,
    r_max: float = 200.0,
    step: float = 1.0,
    n_points: int = DEFAULT_N_POINTS,
    rx_height_m: float = DEFAULT_RX_HEIGHT_M,
    interior_counts_as_nlos: bool = False,
) -> LosProbabilityCurve:
    """Sweep circle radii and collect the LOS probability at each.

    At each radius, ``n_points`` receiver positions are spread evenly around a
    circle centered on the transmitter's ground position, at height
    ``rx_height_m``, starting on the +x axis.  Positions strictly inside a
    building are dropped from both counts, or counted as NLOS with
    ``interior_counts_as_nlos=True``; a radius with none outside is invalid.  One
    radius ``r`` alone is ``los_probability_curve(db, tx, r, r, 1.0)``.  The
    receivers go to the sector tracer of ``tx`` in angle-major blocks of at
    most _RAYS_PER_BLOCK rays, with their nominal angles ``2 pi k / n_points``.

    Raises:
        PointInsideBuildingError: when the transmitter is inside a building.
        ValueError: on a bad grid (see radius_grid), point count or receiver height, a radius or height past
            _MAX_COORDINATE_M, or a transmitter below ground or past _MAX_COORDINATE_M on some axis.
    """
    radii = radius_grid(r_min, r_max, step)
    if radii[-1] > _MAX_COORDINATE_M:
        raise ValueError(f"radii must be at most {_MAX_COORDINATE_M:g} m, got {radii[-1]:g}")
    n_points = _count(n_points, "n_points", low=4)
    if not _finite(rx_height_m):
        raise ValueError(f"rx_height_m must be finite, got {rx_height_m!r}")
    if rx_height_m < 0:
        raise ValueError(f"rx_height_m must be >= 0 (ground level), got {rx_height_m:g}")
    if rx_height_m > _MAX_COORDINATE_M:
        raise ValueError(f"rx_height_m must be at most {_MAX_COORDINATE_M:g} m, got {rx_height_m:g}")
    trace = _sector_tracer(db, tx, radii[-1])
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    cos, sin = np.cos(angles), np.sin(angles)
    n_exterior, n_los = np.zeros((2, radii.size), dtype=np.int64)
    width = min(radii.size, _RAYS_PER_BLOCK)
    height = _RAYS_PER_BLOCK // width  # a block is up to `width` radii at up to `height` angles
    for i in range(0, radii.size, width):
        r = radii[i:i + width]
        for k in range(0, n_points, height):
            cut = slice(k, k + height)
            # built in the call, the rows are the tracer's alone: it frees them once compressed, which saves page faults
            exterior, los = trace(np.stack((tx.x + cos[cut, None] * r, tx.y + sin[cut, None] * r,
                                            np.full((cos[cut].size, r.size), float(rx_height_m)))).reshape(3, -1),
                                  np.repeat(angles[cut], r.size))
            which = np.tile(np.arange(r.size), cos[cut].size)[exterior]
            n_exterior[i:i + r.size] += np.bincount(which, minlength=r.size)
            n_los[i:i + r.size] += np.bincount(which[los], minlength=r.size)
    denominator = n_points if interior_counts_as_nlos else n_exterior
    with np.errstate(invalid="ignore"):
        p = np.where(n_exterior > 0, n_los / denominator, np.nan)
    return LosProbabilityCurve(radii, p, ~np.isnan(p))


def mean_curve(curves: "list[LosProbabilityCurve]") -> LosProbabilityCurve:
    """Average curves sharing one radius grid, per radius over the valid ones.

    Raises:
        ValueError: when no curves are given, grids differ, or some radius has
            no valid curve at all.
    """
    if not curves:
        raise ValueError("mean_curve requires at least one curve")
    base = curves[0].radii_m
    for i, c in enumerate(curves[1:], start=1):
        if not np.array_equal(c.radii_m, base):
            raise ValueError(f"curve {i} has a mismatched radius grid")
    values = np.stack([c.p_los for c in curves])
    masks = np.stack([c.valid for c in curves])
    counts = masks.sum(axis=0)
    if np.any(counts == 0):
        r = base[np.nonzero(counts == 0)[0][0]]
        raise ValueError(f"no valid curve at radius {r:g} m")
    total = np.where(masks, values, 0.0).sum(axis=0)
    return LosProbabilityCurve(base.copy(), total / counts, np.ones_like(base, dtype=bool))


def _bracket(d, bp, alpha):
    """The unsquared model at distances ``d``, breakpoints ``bp`` and decay constants ``alpha``, broadcast."""
    # A tiny d overflows the ratio (then inf * 0 is NaN in the unused branch)
    # and a tiny alpha overflows d / alpha (then decay is 0): the values are
    # still right, since np.where takes the saturated branch for the first.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = bp / d
        decay = np.exp(-d / alpha)
        # explicit saturation keeps the value exactly 1.0 below the breakpoint
        # instead of trusting (1 - decay) + decay to round back to 1
        return np.where(ratio >= 1.0, 1.0, ratio * (1.0 - decay) + decay)


def _distances(d_m, low=None) -> np.ndarray:
    """``d_m`` as float distances, all > 0 or, given ``low``, all >= ``low`` m; NaN, strings and objects fail."""
    d = np.asarray(d_m)
    need = "positive" if low is None else f">= {low:g} m"
    if d.dtype.kind not in "biuf":
        raise ValueError(f"distances must be {need}, given as ints or floats; got dtype {d.dtype}, "
                         "which numpy gives a non-number or an integer past int64")
    if np.all(d > 0 if low is None else d >= low):
        return d.astype(float, copy=False)
    raise ValueError(f"distances must be {need}")


def p_los_model(d_m, params: LosProbParams):
    """Evaluate the analytic LOS probability model at distance(s) d_m.

    Below the breakpoint the probability is exactly 1; beyond it the
    breakpoint ratio and exponential decay take over.  Scalar in, scalar out;
    array in, array out.
    """
    d = _distances(d_m)
    bracket = _bracket(d, params.d_bp_m, params.alpha_m)
    out = bracket * bracket if params.squared else bracket
    return float(out) if out.ndim == 0 else out


# Screened cells within this MSE of the screen's minimum are re-evaluated
# exactly.  Beyond the breakpoint the quartic's coefficients are K_j - H_j
# (see _tables), and the constant adds t^2.  Every monomial (bp*u)^i * e^j of
# K is at most 1 there and t is in [0, 1], so a cell's per-radius terms sum
# to at most 1+4+6+4+1 in magnitude for K, plus 2+4+2 for H and 1 for t^2: 25.
# The screen sums only such terms, each at a radius past its own breakpoint:
# one sum of those past the table's largest breakpoint, then a cumulative sum
# of the rest; in any order, a sum of n_r terms is within n_r * eps of their
# magnitude.  With the subtraction of H and Horner's rule that puts the
# screened MSE within about n_r * eps * 25 of the true one (1e-12 for the
# 191-radius default curve); the exact MSE, pairwise-summed, is closer still.
# With both errors below TOL / 2, the exact winner and every cell tied with
# it are candidates.  Past about 90,000 radii the bound reaches TOL / 2 and
# the tolerance grows with it.
#
# A search keeps only the breakpoints whose saturated error, the mean of
# (1 - t)^2 over the radii at or below them, is at most U + 2 * TOL, where U
# is at least the exact MSE of some cell c of the grid searched.  The winner
# w keeps its breakpoint.  At those radii its squared errors are (1 - t)^2
# bit for bit and the others are >= 0, and its exact MSE is at most c's, so
# at most U.  So its saturated error exceeds U by no more than the rounding
# of a cumulative sum and of a mean of n_r values in [0, 1], each within
# n_r * eps relative: delta <= 3 * n_r * eps in all.  That is below TOL / 16,
# so delta < TOL / 2 and a margin of 2 * TOL is safe.
_SCREEN_TOL = 1e-9

# Bytes the curve-free tables of the whole _COARSE_GRID may take to be kept
# between fits (see _coarse_tables): 8 * 200 * (5 * 200 + 3 * n_r), 1.6 MB
# plus 4.8 KB a valid radius, so grids of up to 540 radii.  The default
# 191-radius grid takes 2.5 MB.  Past it each fit builds them a block of
# alphas at a time and keeps nothing.
_MEMO_BYTES = 4 << 20

# The last valid radii a fit asked for, as bytes, and their _COARSE_GRID
# tables once a second fit on them has built them, else None.
_memo = (b"", None)


def _leading_sums(a, b, past):
    """The sums of a * b over the first p values of the last axis, for each count p in ``past``.

    ``a`` and ``b`` broadcast together; the result has their shape but for
    the last axis, which has one entry per count.  The products before the
    least count are summed at once (einsum), the rest accumulated onto that
    sum one at a time.
    """
    low, high = past.min(), past.max()
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    sums = np.empty(shape + (high - low + 1,))
    np.einsum("...r,...r->...", a[..., :low], b[..., :low], out=sums[..., 0])
    np.multiply(a[..., low:high], b[..., low:high], out=sums[..., 1:])
    return np.cumsum(sums, axis=-1, out=sums)[..., past - low]


def _tables(descending, past, alpha_values):
    """The curve-free part of the screen of cells (alpha, d_bp): the sums K and the weights.

    For a fixed alpha, with e = exp(-r / alpha) and u = (1 - e) / r, the
    bracket beyond the breakpoint is bp * u + e, so the squared error
    ((bp * u + e)^2 - t)^2 is a quartic in bp.  Summed over the radii beyond
    bp, its coefficients are K_j - H_j, and the constant adds the sum of t^2:
    K sums u^4, 4u^3e, 6u^2e^2, 4ue^3 and e^4, H (for bp^2, bp and 1) the
    weights 2u^2, 4ue and 2e^2 times t.  ``descending`` holds the radii in
    descending order, so those beyond a breakpoint come first, and ``past``
    each breakpoint's count of them.  Returns K at each breakpoint, shape
    (5, n_alpha, n_bp), and the weights without their factors, u^2, ue and
    e^2, shape (3, n_alpha, n_r), radii descending.  The factors 4, 6 and 4
    of K are applied after the sums: the 4s are exact.
    """
    weights = np.empty((3, alpha_values.size, descending.size))
    uu, ue, ee = weights
    e = np.divide(descending, -alpha_values[:, None], out=ue)
    np.exp(e, out=e)
    u = np.subtract(1.0, e, out=uu)
    u /= descending
    np.multiply(e, e, out=ee)
    np.multiply(u, e, out=ue)
    np.multiply(u, u, out=uu)
    squares = _leading_sums(weights, weights, past)
    crosses = _leading_sums(weights[:2], weights[1:], past)
    sums = np.stack((squares[0], crosses[0], squares[1], crosses[1], squares[2]))
    sums[1:4] *= np.array([4.0, 6.0, 4.0])[:, None, None]
    return sums, weights


def _coarse_tables(radii):
    """The _tables of _COARSE_GRID in both d_bp and alpha, read-only, or None.

    The first fit on some valid radii gets None and screens as it would past
    _MEMO_BYTES, building its tables a block at a time: a single fit keeps
    nothing it will not reuse.  The next fit on the same radii builds the
    tables and keeps them for the fits after it.  _memo is read once, so a
    fit on other radii in another thread cannot hand this one its tables.
    """
    global _memo
    n = _COARSE_GRID.size
    if 8 * n * (5 * n + 3 * radii.size) > _MEMO_BYTES:
        return None
    key = radii.tobytes()
    seen, tables = _memo
    if seen != key:
        _memo = key, None  # also frees the tables of the radii before
        return None
    if tables is None:
        sums, weights = np.empty((5, n, n)), np.empty((3, n, radii.size))
        descending, past = radii[::-1].copy(), radii.size - np.searchsorted(radii, _COARSE_GRID, side="right")
        step = max(1, _RAYS_PER_BLOCK // (4 * radii.size))
        for start in range(0, n, step):
            rows = slice(start, start + step)
            sums[:, rows], weights[:, rows] = _tables(descending, past, _COARSE_GRID[rows])
        sums.flags.writeable = weights.flags.writeable = False
        tables = sums, weights
        _memo = key, tables
    return tables


def _screened_mse(radii, target, bp_values, alpha_values, sums, tables=None):
    """MSE of every (alpha, d_bp) cell in closed form, shape (n_alpha, n_bp).

    ``sums`` are the curve's _search_sums, and ``tables`` the _tables of the
    cells, else they are built here a block of alphas at a time.  Per block,
    the weights times the target give H (see _tables), and Horner's rule folds
    K - H in place.  ``sums`` then add each breakpoint's constant: the error
    of the saturated model at or below it and the sum of t^2 past it.
    """
    n_r = radii.size
    # the radii at or below each breakpoint, where the model saturates: fl(bp / r) >= 1 exactly when r <= bp
    split = np.searchsorted(radii, bp_values, side="right")
    past = n_r - split
    # the target, radii descending, times the factors 2, 4 and 2 of the weights: exact, as powers of two
    scaled = np.array([2.0, 4.0, 2.0])[:, None, None] * target[::-1]
    descending = radii[::-1].copy()
    out = np.empty((alpha_values.size, bp_values.size))
    # kept tables bound the radius count, and with it the working memory of one block of every alpha
    step = max(1, _RAYS_PER_BLOCK // (4 * n_r)) if tables is None else alpha_values.size
    for start in range(0, alpha_values.size, step):
        rows = slice(start, start + step)
        k, weights = _tables(descending, past, alpha_values[rows]) if tables is None else (t[:, rows] for t in tables)
        h = _leading_sums(weights, scaled, past)
        np.subtract(k[2:], h, out=h)
        quartic = np.multiply(k[0], bp_values, out=out[rows])
        for coefficient in (k[1], h[0], h[1]):
            quartic += coefficient
            quartic *= bp_values
        quartic += h[2]
    out += sums[2][split]
    out /= n_r
    return out


def _search_sums(radii, target):
    """A curve's screen tolerance, then for m = 0 .. n_r the sums of (1 - t)^2 over its first m radii.

    Last come those sums plus the sums of t^2 over the other radii: the
    constant a breakpoint with m radii at or below it adds to its cells.
    """
    tol = max(_SCREEN_TOL, 50 * radii.size * np.finfo(float).eps)
    prefix = np.concatenate(([0.0], np.cumsum((1.0 - target) ** 2)))
    return tol, prefix, prefix + np.concatenate((np.cumsum((target * target)[::-1])[::-1], [0.0]))


def _least(radii, target, bp, alpha):
    """(d_bp, alpha, mse) of the least (mse, d_bp, alpha) of cells (bp[k], alpha[k]), evaluated as rows of blocks."""
    step = max(1, _RAYS_PER_BLOCK // radii.size)
    mse = np.empty(bp.size)
    for start in range(0, bp.size, step):
        bracket = _bracket(radii, bp[start:start + step, None], alpha[start:start + step, None])
        err = bracket * bracket - target
        mse[start:start + step] = np.mean(err * err, axis=1)
    best = np.lexsort((alpha, bp, mse))[0]
    return float(bp[best]), float(alpha[best]), float(mse[best])


def _winner(radii, target, screened, bp_values, alpha_values, tol):
    """The winning (d_bp, alpha, mse) of a table screened by _screened_mse; mse is None if not evaluated.

    A breakpoint at or past the last radius gives the model 1 at every
    radius, whatever alpha: only the first, at its first alpha, is kept.
    The candidates, the cells within tol of the least screened value, hold
    the exact winner and every cell tied with it (see _SCREEN_TOL).  They
    are evaluated exactly only when there are several, or when that value
    is at most tol; else the one candidate wins, with an MSE above tol / 2.
    """
    screened = screened[:, :np.searchsorted(bp_values, radii[-1]) + 1]
    least = screened.min()
    ia, ib = np.nonzero(screened <= least + tol)
    keep = (ia == 0) | (bp_values[ib] < radii[-1])
    bp, alpha = bp_values[ib[keep]], alpha_values[ia[keep]]
    if bp.size > 1 or least <= tol:
        return _least(radii, target, bp, alpha)
    return float(bp[0]), float(alpha[0]), None


def _mse_grid(radii: np.ndarray, target: np.ndarray, sums):
    """The winner of the integer grid _COARSE_GRID in d_bp and alpha, as _winner returns it.

    ``radii`` must be positive and strictly increasing, and ``sums`` the
    curve's _search_sums.  Only the breakpoints that can win are screened
    (see _SCREEN_TOL), with U the least screened MSE of the sub-grid of
    every 8th breakpoint and 16th alpha plus TOL: at least the exact MSE of
    the cell that attains it.
    """
    tol, prefix, _ = sums
    n_r = radii.size
    tables = _coarse_tables(radii)  # if None, each screen builds its own
    sub = tables and (tables[0][:, ::16, ::8], tables[1][:, ::16])
    upper = _screened_mse(radii, target, _COARSE_GRID[::8], _COARSE_GRID[::16], sums, sub).min() + tol
    # a breakpoint with m radii at or below it has the saturated error prefix[m] / n_r, growing with m: keep
    # those below radii[m] for the largest m within the bound, and of those past the last radius the first
    m = np.searchsorted(prefix / n_r, upper + 2 * tol, side="right") - 1
    bp_values = _COARSE_GRID[:np.searchsorted(_COARSE_GRID, radii[min(m, n_r - 1)]) + (m == n_r)]
    screened = _screened_mse(radii, target, bp_values, _COARSE_GRID, sums,
                             tables and (tables[0][:, :, :bp_values.size], tables[1]))
    return _winner(radii, target, screened, bp_values, _COARSE_GRID, tol)


# How much further in alpha than its window, in tenths of a meter, a strip
# from the walk's third window on reaches the way alpha last moved (see fit_p_los).
_STRIP_ALPHA = 40


def fit_p_los(curve: LosProbabilityCurve) -> tuple[LosProbParams, float]:
    """MMSE fit of the squared model to a curve's valid points.

    Exhaustive search over integer (d_bp, alpha) pairs from 1 to 200 m,
    followed by a 0.1 m local refinement around the winning cell.  Each
    search is exhaustive in result: its winner is the least (mse, d_bp,
    alpha) a cell-by-cell evaluation would pick, so ties resolve to the
    smallest d_bp, then alpha, and its memory does not grow with the
    curve's length.  The refinement window, the 0.1 m lattice within 1 m of
    its center, recenters while its winner lands on a window edge, so optima
    up to a few meters off the coarse winner are still resolved.  Windows
    are clipped at 0.1 m, so d_bp_m or alpha_m can come back as 0.1 m,
    below the integer grid's 1 m, without saying so; a winner at its
    window's own center, which only a clipped window allows, ends the walk.
    The walk evaluates at most 16 windows, and a winner still on an edge of
    the 16th is returned without saying so: a curve whose best alpha lies
    past 200 m comes back with alpha_m = 216.0, which is 200 m plus 16 steps
    of 1 m.  The refinement is skipped when the coarse fit is already exact.
    Returns the parameters and the mean squared error they achieve.

    Raises:
        ValueError: with fewer than 2 valid curve points.
    """
    radii = curve.radii_m[curve.valid]
    target = curve.p_los[curve.valid]
    if radii.size < 2:
        raise ValueError("fit requires at least 2 valid curve points")

    sums = tol, _, _ = _search_sums(radii, target)
    bp, alpha, mse = _mse_grid(radii, target, sums)
    # The walk runs on integer tenths of a meter: the center and the last move in alpha.  It reads each
    # window i off the last screened table, and screens a strip for it when the window lies off it: the
    # window alone for i = 0, 1 m wider in d_bp from i = 1 on, and from i = 2 on also _STRIP_ALPHA further
    # in alpha the way it last moved.  A fit past the grid walks its 16 windows on 5 screens.  No bound
    # cuts a strip: none cut a window of the benchmark's curves.
    center, moved = (round(10 * bp), round(10 * alpha)), 0
    for i in range(16):
        if mse == 0.0:
            break
        # the tenths within 1 m of the center, from 0.1 m up
        (b0, b1), (a0, a1) = ((max(t - 10, 1), t + 10) for t in center)
        if i == 0 or not (lo_b <= b0 and b1 <= hi_b and lo_a <= a0 and a1 <= hi_a):
            wider, ahead = 10 * (i > 0), _STRIP_ALPHA * (i > 1)
            lo_b, hi_b = max(b0 - wider, 1), b1 + wider
            lo_a, hi_a = max(a0 - ahead, 1) if moved < 0 else a0, a1 + ahead if moved > 0 else a1
            strip_bp, strip_alpha = np.arange(lo_b, hi_b + 1) / 10, np.arange(lo_a, hi_a + 1) / 10
            strip = _screened_mse(radii, target, strip_bp, strip_alpha, sums)
        rows, cols = slice(a0 - lo_a, a1 - lo_a + 1), slice(b0 - lo_b, b1 - lo_b + 1)
        bp, alpha, mse = _winner(radii, target, strip[rows, cols], strip_bp[cols], strip_alpha[rows], tol)
        winner = round(10 * bp), round(10 * alpha)
        if not (winner[0] in (b0, b1) or winner[1] in (a0, a1)) or winner == center:
            break
        moved, center = winner[1] - center[1], winner
    if mse is None:
        mse = _least(radii, target, np.array([bp]), np.array([alpha]))[2]
    return LosProbParams(bp, alpha, squared=True), mse


# Published breakpoint/decay parameters (squared form) for four dense-urban
# Manhattan transmitter sites and for the pooled fit across all of them,
# derived from 28 and 73 GHz measurement-campaign ray tracing.
NYC_SITE_LOS_PARAMS = {
    "COL1": LosProbParams(36.0, 71.0),
    "COL2": LosProbParams(39.0, 68.0),
    "KAU": LosProbParams(30.0, 21.0),
    "KIM2": LosProbParams(15.0, 95.0),
    "all": LosProbParams(27.0, 71.0),
}


def _cells(column) -> "list[str]":
    """CSV cells of ``column``: numbers to 6 significant digits, strings as given."""
    # Python floats from tolist() format about twice as fast as numpy scalars
    return [v if isinstance(v, str) else format(v, ".6g") for v in np.asarray(column).tolist()]


def _table(header: str, *columns) -> str:
    """CSV text: ``header``, then one row of cells per index of ``columns``."""
    return "\n".join([header, *map(",".join, zip(*map(_cells, columns)))]) + "\n"


# the line boundaries of str.splitlines
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# one match per line that is not empty, as str.splitlines splits them
_LINE = re.compile(f"[^{_LINE_BREAKS}]+")


def _lines(text: str):
    """The lines of ``text`` that are not blank, copied out one at a time."""
    return filter(str.strip, (m.group() for m in _LINE.finditer(text)))


def _rows(text: str, header: str, what: str) -> "list[list[str]]":
    """The fields of each row under ``header``, blank lines skipped; ``what`` names the table in errors.

    Rows are counted against MAX_GRID_POINTS before they are kept: the line
    breaks bound the row count from above, and only a text whose bound
    passes the cap has its rows counted in one lazy pass.

    Raises:
        ValueError: on a wrong header, too many rows or a row whose field count differs from the header's.
    """
    lines = _lines(text)
    if next(lines, "").strip() != header:
        raise ValueError(f"{what} CSV must start with header '{header}'")
    if sum(map(text.count, _LINE_BREAKS)) > MAX_GRID_POINTS:
        n_rows = sum(1 for _ in _lines(text)) - 1
        if n_rows > MAX_GRID_POINTS:
            raise ValueError(f"{what} CSV must hold at most {MAX_GRID_POINTS} rows, got {n_rows}")
    width = header.count(",") + 1
    rows = [ln.split(",") for ln in lines]
    for fields in rows:
        if len(fields) != width:
            raise ValueError(f"malformed {what} CSV row: {','.join(fields)!r}")
    return rows


def curve_to_csv(curve: LosProbabilityCurve) -> str:
    """Serialize a curve; invalid radii carry NaN and a 0 in the valid column.

    Raises:
        ValueError: when two radii print the same at 6 significant digits,
            which curve_from_csv would reject as not strictly increasing.
    """
    radii = _cells(curve.radii_m)
    for r, after in zip(radii, radii[1:]):
        if r == after:
            raise ValueError(f"radius {r} m repeats at 6 significant digits; the curve CSV needs distinct radii")
    return _table(CURVE_CSV_HEADER, radii, curve.p_los, np.where(curve.valid, "1", "0"))


def curve_from_csv(text: str) -> LosProbabilityCurve:
    """Parse a curve CSV produced by curve_to_csv.

    Raises:
        ValueError: on a wrong header, more than MAX_GRID_POINTS rows,
            malformed rows or invariant violations.
    """
    radii, p, valid = [], [], []
    for fields in _rows(text, CURVE_CSV_HEADER, "curve"):
        try:
            radii.append(float(fields[0]))
            p.append(float(fields[1]))
            flag = int(fields[2])
        except ValueError:
            raise ValueError(f"malformed curve CSV row: {','.join(fields)!r}") from None
        if flag not in (0, 1):
            raise ValueError(f"valid flag must be 0 or 1 in row: {','.join(fields)!r}")
        valid.append(bool(flag))
    return LosProbabilityCurve(np.array(radii), np.array(p), np.array(valid))
