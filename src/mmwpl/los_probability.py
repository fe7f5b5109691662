"""Line-of-sight probability: ray-traced circle sampling and an analytic model.

The site-specific estimate classifies evenly spaced receiver positions on
circles around a transmitter as LOS or NLOS against a building database.  The
analytic side is a breakpoint plus exponential-decay model fitted to such
curves by exhaustive mean-squared-error search.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .geometry import BuildingDB, Point3, _sector_tracer

DEFAULT_N_POINTS = 100
DEFAULT_RX_HEIGHT_M = 1.5

CURVE_CSV_HEADER = "radius_m,p_los,valid"

# Largest radius grid, circle point count and CSV row count accepted, checked
# before anything is allocated.
MAX_GRID_POINTS = 1_000_000

# Rays traced together per block, and values per array in a block of a fit's
# exact cells; bounds a curve's and a fit's working memory whatever the grid size.
# A fit's screen holds a quarter of it per series, which keeps its five series
# and their sums in cache.  The default 191-radius, 100-point curve is one block.
_RAYS_PER_BLOCK = 32768

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
        if not (self.d_bp_m > 0 and np.isfinite(self.d_bp_m)):
            raise ValueError(f"d_bp_m must be positive, got {self.d_bp_m!r}")
        if not (self.alpha_m > 0 and np.isfinite(self.alpha_m)):
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
        radii = np.asarray(self.radii_m, dtype=float)
        p = np.asarray(self.p_los, dtype=float)
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


def radius_grid(r_min: float, r_max: float, step: float) -> np.ndarray:
    """Radii r_min, r_min+step, ... up to and including r_max when it lands on the grid.

    Raises ValueError on bad or non-finite bounds or step, or a grid of more than
    MAX_GRID_POINTS radii.
    """
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
    return r_min + step * np.arange(int(count))


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
        ValueError: on a bad grid (see radius_grid), receiver height or point count, or a transmitter below ground.
    """
    radii = radius_grid(r_min, r_max, step)
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer, got {n_points!r}") from None
    if not 4 <= n_points <= MAX_GRID_POINTS:
        raise ValueError(f"n_points must be between 4 and {MAX_GRID_POINTS}, got {n_points}")
    if not np.isfinite(rx_height_m):
        raise ValueError(f"rx_height_m must be finite, got {rx_height_m!r}")
    if rx_height_m < 0:
        raise ValueError(f"rx_height_m must be >= 0 (ground level), got {rx_height_m:g}")
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


def p_los_model(d_m, params: LosProbParams):
    """Evaluate the analytic LOS probability model at distance(s) d_m.

    Below the breakpoint the probability is exactly 1; beyond it the
    breakpoint ratio and exponential decay take over.  Scalar in, scalar out;
    array in, array out.
    """
    d = np.asarray(d_m, dtype=float)
    if not np.all(d > 0):  # NaN fails too
        raise ValueError("distances must be positive")
    bracket = _bracket(d, params.d_bp_m, params.alpha_m)
    out = bracket * bracket if params.squared else bracket
    return float(out) if out.ndim == 0 else out


# Screened cells within this MSE of the screen's minimum are re-evaluated
# exactly.  Beyond the breakpoint every monomial (bp*u)^i * e^j of the quartic
# is at most 1 and t is in [0, 1], so a cell's per-radius terms sum to at most
# 1+4+6+4+1 in magnitude, plus 2+4+2+1 for the t terms: 25.  The screen sums
# only such terms, each at a radius past its own breakpoint: a pairwise sum
# of those past the largest breakpoint, then a cumulative sum of the rest.
# With Horner's rule that puts the screened MSE within about n_r * eps * 25
# of the true one (1e-12 for the 191-radius default curve); the exact MSE,
# pairwise-summed, is closer still.  With both errors below TOL / 2, the
# exact winner and every cell tied with it are candidates.  Past about 90,000
# radii the bound reaches TOL / 2 and the tolerance grows with it.
#
# A search keeps only the breakpoints whose saturated error, the mean of
# (1 - t)^2 over the radii at or below them, is at most U + 2 * TOL, where U
# is the exact MSE of any cell of the grid searched.  The winner w keeps its
# breakpoint.  At those radii its squared errors are (1 - t)^2 bit for bit
# and the others are >= 0, and its exact MSE is at most U.  So its saturated
# error exceeds U by no more than the rounding of a cumulative sum and of a
# mean of n_r values in [0, 1], each within n_r * eps relative: delta <=
# 3 * n_r * eps in all.  That is below TOL / 16, so delta < TOL / 2 and a
# margin of 2 * TOL is safe.
_SCREEN_TOL = 1e-9


def _screened_mse(radii, target, bp_values, alpha_values, split, saturated):
    """MSE of every (alpha, d_bp) cell in closed form, shape (n_alpha, n_bp).

    For a fixed alpha, with e = exp(-r / alpha) and u = (1 - e) / r, the
    bracket beyond the breakpoint is bp * u + e, so the squared error summed
    over the radii beyond bp is a quartic in bp whose coefficients are
    suffix sums over the radii.  ``split[j]`` counts the radii at or below
    ``bp_values[j]``, and ``saturated[j]`` is the sum of (1 - t)^2 over them.
    The five series of terms share one buffer: the radii past the largest
    breakpoint are summed once per alpha, those at or below it accumulated
    in reverse onto that sum, and the suffix sums gathered at every
    breakpoint, each step once for all five.  The factors 4, 2 and 4 of the
    middle coefficients are applied after the sums: scaling by a power of two
    is exact, so that changes no bit unless a term underflows.  Horner's rule
    then folds them in place, for blocks of alphas that hold about a quarter
    of _RAYS_PER_BLOCK values per series.
    """
    n_r = radii.size
    cut = split.max()
    index = cut - split
    out = np.empty((alpha_values.size, bp_values.size))
    step = min(alpha_values.size, max(1, _RAYS_PER_BLOCK // (4 * n_r)))
    # one buffer each for the five series and their sums, reused by every block
    series_buffer, sums_buffer = np.empty((5, step, n_r)), np.empty((5, step, cut + 1))
    for start in range(0, alpha_values.size, step):
        e = -radii / alpha_values[start:start + step, None]
        np.exp(e, out=e)
        u = 1.0 - e
        u /= radii
        k = e.shape[0]
        series, sums = series_buffer[:, :k], sums_buffer[:, :k]
        ue = np.multiply(u, e, out=series[1])
        uu = np.square(u, out=u)
        q = np.square(e, out=e)
        q -= target
        np.square(uu, out=series[0])
        np.multiply(ue, 2.0, out=series[2])
        series[2] *= ue
        np.multiply(ue, q, out=series[3])
        np.square(q, out=series[4])
        ue *= uu
        uu *= q
        series[2] += uu
        # sums[..., m] is the sum of the terms past radius cut plus the last m at or below it
        np.sum(series[:, :, cut:], axis=2, out=sums[:, :, 0])
        sums[:, :, 1:] = series[:, :, :cut][:, :, ::-1]
        table = np.cumsum(sums, axis=2, out=sums)[:, :, index]
        table[1:4] *= np.array([4.0, 2.0, 4.0])[:, None, None]
        quartic = table[0]
        for coefficient in table[1:]:
            quartic *= bp_values
            quartic += coefficient
        out[start:start + step] = quartic
    out += saturated
    out /= n_r
    return out


def _search_sums(radii, target):
    """A curve's screen tolerance and the sums of (1 - t)^2 over its first m radii, m = 0 .. n_r."""
    tol = max(_SCREEN_TOL, 50 * radii.size * np.finfo(float).eps)
    return tol, np.concatenate(([0.0], np.cumsum((1.0 - target) ** 2)))


def _candidates(screened, split, n_r, tol):
    """Row and column indices of the screened cells within tol of the least (see _mse_grid)."""
    ia, ib = np.nonzero(screened <= screened.min() + tol)
    # past the last radius, a later alpha gives the same model as the first, a candidate there too
    keep = (ia == 0) | (split[ib] < n_r)
    return ia[keep], ib[keep]


def _least(radii, target, bp, alpha):
    """The least (mse, d_bp, alpha) of the cells (bp[k], alpha[k]), evaluated exactly as the rows of blocks."""
    step = max(1, _RAYS_PER_BLOCK // radii.size)
    mse = np.empty(bp.size)
    for start in range(0, bp.size, step):
        bracket = _bracket(radii, bp[start:start + step, None], alpha[start:start + step, None])
        err = bracket * bracket - target
        mse[start:start + step] = np.mean(err * err, axis=1)
    best = np.lexsort((alpha, bp, mse))[0]
    return float(bp[best]), float(alpha[best]), float(mse[best])


def _mse_grid(radii: np.ndarray, target: np.ndarray, bp_values: np.ndarray, alpha_values: np.ndarray,
              upper: float, sums=None):
    """Best (d_bp, alpha, mse) over the cross product of candidate values.

    ``radii`` must be positive and strictly increasing, both candidate
    arrays sorted ascending, and ``upper`` the exact MSE of any cell of the
    grid, or inf.  Only the breakpoints that can win are screened (see
    _SCREEN_TOL), and of those at or past the last radius only the first.
    The cells within TOL of the screen's least MSE (_screened_mse) are then
    evaluated exactly, together, in blocks of rows.  The winner is the least
    (mse, d_bp, alpha): ties resolve to the smallest d_bp, then alpha.
    ``sums`` is the curve's _search_sums, computed here when not given.
    """
    n_r = radii.size
    tol, prefix = sums or _search_sums(radii, target)
    # every breakpoint at or past the last radius gives the model 1 at every radius: keep the first
    bp_values = bp_values[:np.searchsorted(bp_values, radii[-1]) + 1]
    # the radii at or below each breakpoint, where the model saturates: for
    # positive radii, fl(bp / r) >= 1 exactly when r <= bp
    split = np.searchsorted(radii, bp_values, side="right")
    saturated = prefix[split]
    kept = np.count_nonzero(saturated / n_r <= upper + 2 * tol)
    screened = _screened_mse(radii, target, bp_values[:kept], alpha_values, split[:kept], saturated[:kept])
    ia, ib = _candidates(screened, split, n_r, tol)
    return _least(radii, target, bp_values[ib], alpha_values[ia])


# How much further in alpha than a window, in tenths of a meter, a strip
# after the first reaches in the direction the walk last moved (see fit_p_los).
_STRIP_ALPHA = 40


def fit_p_los(curve: LosProbabilityCurve) -> tuple[LosProbParams, float]:
    """MMSE fit of the squared model to a curve's valid points.

    Exhaustive search over integer (d_bp, alpha) pairs from 1 to 200 m,
    followed by a 0.1 m local refinement around the winning cell.  The
    search is exhaustive in result: a closed-form screen decides which few
    cells are evaluated exactly, and the winner is the one a cell-by-cell
    evaluation would pick (see _mse_grid); the screen's memory does not grow
    with the curve's length.  The integer grid's search skips the
    breakpoints that cannot beat the winner of every 8th breakpoint and 16th
    alpha.  The refinement window, the 0.1 m lattice within 1 m of its
    center, recenters while its winner lands on a window edge, so optima up
    to a few meters off the coarse winner are still resolved.  Windows are
    clipped at 0.1 m, so d_bp_m or alpha_m can come back as 0.1 m, below
    the integer grid's 1 m, without saying so.  A winner at its window's own
    center, which only such a clipped window allows, ends the walk, since
    the next window would repeat the same search.  The walk evaluates at
    most 16 windows, and a winner still on an edge of the 16th is returned
    without saying so: a curve whose best alpha lies past 200 m comes back
    with alpha_m = 216.0, which is 200 m plus 16 steps of 1 m.  The
    refinement is skipped when the coarse fit is already exact.

    The walk screens strips, not single windows.  The first window is
    screened alone.  Once the walk has moved, a window outside the last
    screened table screens a strip 1 m wider than it on each side in d_bp;
    from the second strip on, a strip also reaches 4 m further in alpha in
    the direction of the last move.  The windows that follow are read off
    that table.  A strip is searched whole: a bound by the center's MSE cut
    no window's breakpoint on the benchmark's curves.  A window's candidates are the cells within the tolerance
    of its own least screened value.  They are evaluated exactly only when
    there are several, or when that value is small enough that the fit
    could be exact; otherwise the one candidate wins, and the final
    winner's MSE is evaluated once, at the end.  So a fit past the grid
    walks its 16 windows on 5 screens, not 16.  Returns the parameters and
    the mean squared error they achieve.

    Raises:
        ValueError: with fewer than 2 valid curve points.
    """
    radii = curve.radii_m[curve.valid]
    target = curve.p_los[curve.valid]
    if radii.size < 2:
        raise ValueError("fit requires at least 2 valid curve points")

    sums = tol, prefix = _search_sums(radii, target)
    _, _, upper = _mse_grid(radii, target, _COARSE_GRID[::8], _COARSE_GRID[::16], np.inf, sums)
    bp, alpha, mse = _mse_grid(radii, target, _COARSE_GRID, _COARSE_GRID, upper, sums)
    # the walk runs on integer tenths of a meter: the center, the last move in alpha, the next strip's reach
    center, moved, ahead, strip = (round(10 * bp), round(10 * alpha)), None, 0, None
    for _ in range(16):
        if mse == 0.0:
            break
        # the tenths within 1 m of the center, from 0.1 m up
        (b0, b1), (a0, a1) = ((max(t - 10, 1), t + 10) for t in center)
        if strip is None or not (lo_b <= b0 and b1 <= hi_b and lo_a <= a0 and a1 <= hi_a):
            lo_b, hi_b, lo_a, hi_a = b0, b1, a0, a1
            if moved is not None:
                lo_b, hi_b = max(b0 - 10, 1), b1 + 10
                lo_a, hi_a = max(a0 - ahead, 1) if moved < 0 else a0, a1 + ahead if moved > 0 else a1
                ahead = _STRIP_ALPHA
            strip_bp, strip_alpha = np.arange(lo_b, hi_b + 1) / 10, np.arange(lo_a, hi_a + 1) / 10
            split = np.searchsorted(radii, strip_bp, side="right")
            strip = _screened_mse(radii, target, strip_bp, strip_alpha, split, prefix[split])
        # the window's breakpoints up to the first at or past the last radius, as _mse_grid keeps them
        window_bp = strip_bp[b0 - lo_b:b1 - lo_b + 1]
        cols = slice(b0 - lo_b, b0 - lo_b + min(window_bp.size, np.searchsorted(window_bp, radii[-1]) + 1))
        rows = slice(a0 - lo_a, a1 - lo_a + 1)
        ia, ib = _candidates(strip[rows, cols], split[cols], radii.size, tol)
        bp, alpha = strip_bp[cols][ib], strip_alpha[rows][ia]
        if ia.size > 1 or strip[rows, cols].min() <= tol:
            bp, alpha, mse = _least(radii, target, bp, alpha)
        else:
            # the one candidate wins, and its MSE exceeds tol / 2 > 0
            bp, alpha, mse = float(bp[0]), float(alpha[0]), None
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
