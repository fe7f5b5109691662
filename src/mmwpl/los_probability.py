"""Line-of-sight probability: ray-traced circle sampling and an analytic model.

The site-specific estimate classifies evenly spaced receiver positions on
circles around a transmitter as LOS or NLOS against a building database.  The
analytic side is a breakpoint plus exponential-decay model fitted to such
curves by exhaustive mean-squared-error search.
"""

from __future__ import annotations

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

# Rays traced together per block, and values per array in a block of the fit
# screen; bounds a curve's and a fit's working memory whatever the grid size.
# The default 191-radius, 100-point curve is one block.
_RAYS_PER_BLOCK = 32768

# Integer search grid for the MMSE fit, meters.
_COARSE_GRID = np.arange(1.0, 201.0)
# Offsets of the local refinement window: -1 to 1 m in 0.1 m steps.
_WINDOW_M = np.round(np.arange(-1.0, 1.05, 0.1), 6)


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


def _circle_los(db: BuildingDB, tx: Point3, radii: np.ndarray, n_points: int,
                rx_height_m: float, interior_counts_as_nlos: bool) -> np.ndarray:
    """LOS fraction on the circle of each radius; NaN where every position is interior.

    The grid's receivers, at or above ground like the transmitter, go to the sector tracer of ``tx``
    in angle-major blocks of at most _RAYS_PER_BLOCK rays, with their nominal angles ``2 pi k / n_points``.
    """
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
        return np.where(n_exterior > 0, n_los / denominator, np.nan)


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
    radius ``r`` alone is ``los_probability_curve(db, tx, r, r, 1.0)``.

    Raises:
        PointInsideBuildingError: when the transmitter is inside a building.
        ValueError: on a bad grid (see radius_grid), receiver height or point count, or a transmitter below ground.
    """
    radii = radius_grid(r_min, r_max, step)
    p = _circle_los(db, tx, radii, n_points, rx_height_m, interior_counts_as_nlos)
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


def p_los_model(d_m, params: LosProbParams):
    """Evaluate the analytic LOS probability model at distance(s) d_m.

    Below the breakpoint the probability is exactly 1; beyond it the
    breakpoint ratio and exponential decay take over.  Scalar in, scalar out;
    array in, array out.
    """
    d = np.asarray(d_m, dtype=float)
    if not np.all(d > 0):  # NaN fails too
        raise ValueError("distances must be positive")
    # A tiny d overflows the ratio (then inf * 0 is NaN in the unused branch)
    # and a tiny alpha overflows d / alpha (then decay is 0): the values are
    # still right, since np.where takes the saturated branch for the first.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = params.d_bp_m / d
        decay = np.exp(-d / params.alpha_m)
        # explicit saturation keeps the value exactly 1.0 below the breakpoint
        # instead of trusting (1 - decay) + decay to round back to 1
        bracket = np.where(ratio >= 1.0, 1.0, ratio * (1.0 - decay) + decay)
    out = bracket * bracket if params.squared else bracket
    if out.ndim == 0:
        return float(out)
    return out


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
# The coarse pass keeps only the breakpoints whose saturated error, the mean
# of (1 - t)^2 over the radii at or below them, is at most U + 2 * TOL, where
# U is the exact MSE of a sub-grid's winner.  The coarse winner w keeps its
# breakpoint.  At those radii its squared errors are (1 - t)^2 bit for bit
# and the others are >= 0, and its exact MSE is at most U, the exact MSE of
# a coarse cell.  So its saturated error exceeds U by no more than the
# rounding of a cumulative sum and of a mean of n_r values in [0, 1], each
# within n_r * eps relative: delta <= 3 * n_r * eps in all.  That is below
# TOL / 16, so delta < TOL / 2 and a margin of 2 * TOL is safe.
_SCREEN_TOL = 1e-9


def _screen_tol(n_r: int) -> float:
    """TOL for a curve of ``n_r`` valid radii (see _SCREEN_TOL)."""
    return max(_SCREEN_TOL, 50 * n_r * np.finfo(float).eps)


def _saturated_sse(target, split):
    """Sum of (1 - t)^2 over the first ``split[j]`` radii, for each j."""
    return np.concatenate(([0.0], np.cumsum((1.0 - target) ** 2)))[split]


def _screened_mse(radii, target, bp_values, alpha_values, split):
    """MSE of every (alpha, d_bp) cell in closed form, shape (n_alpha, n_bp).

    For a fixed alpha, with e = exp(-r / alpha) and u = (1 - e) / r, the
    bracket beyond the breakpoint is bp * u + e, so the squared error summed
    over the radii beyond bp is a quartic in bp whose coefficients are
    suffix sums over the radii.  ``split[j]`` counts the radii at or below
    ``bp_values[j]``, which add the prefix sum of (1 - t)^2.  The radii past
    the largest breakpoint are summed once per alpha; only those at or below
    it are accumulated, in reverse, onto that sum.  The suffix sums are built
    one coefficient at a time and folded in by Horner's rule, for blocks of
    alphas that hold about _RAYS_PER_BLOCK values per array.
    """
    n_r = radii.size
    cut = split.max()
    below = _saturated_sse(target, split)

    def suffix_sums(term):
        # sums[:, m] is the sum of the terms past radius cut plus the last m at or below it
        sums = np.empty((term.shape[0], cut + 1))
        sums[:, 0] = term[:, cut:].sum(axis=1)
        sums[:, 1:] = term[:, :cut][:, ::-1]
        return np.cumsum(sums, axis=1, out=sums)[:, cut - split]

    step = max(1, _RAYS_PER_BLOCK // n_r)
    blocks = []
    for start in range(0, alpha_values.size, step):
        # e, u * e, u^2 and q = e^2 - t, computed in place where a value is last used
        e = -radii / alpha_values[start:start + step, None]
        np.exp(e, out=e)
        u = 1.0 - e
        u /= radii
        ue = u * e
        uu = np.square(u, out=u)
        q = np.square(e, out=e)
        q -= target
        table = suffix_sums(uu * uu)
        table = table * bp_values + suffix_sums(4.0 * uu * ue)
        table = table * bp_values + suffix_sums(4.0 * ue * ue + 2.0 * uu * q)
        table = table * bp_values + suffix_sums(4.0 * ue * q)
        blocks.append(table * bp_values + suffix_sums(q * q))
    return (np.vstack(blocks) + below) / n_r


def _mse_grid(radii: np.ndarray, target: np.ndarray, bp_values: np.ndarray, alpha_values: np.ndarray):
    """Best (d_bp, alpha, mse) over the cross product of candidate values.

    ``radii`` must be positive and strictly increasing, and both candidate
    arrays sorted ascending.  Every cell is first screened in closed form
    in blocks of alphas (_screened_mse); the cells whose screened MSE lies
    within _SCREEN_TOL of the smallest are then evaluated exactly with
    p_los_model.  The winner is the least (mse, d_bp, alpha): ties resolve
    to the smallest d_bp, then the smallest alpha.
    """
    # the radii at or below each breakpoint, where p_los_model saturates: for
    # positive radii, fl(bp / r) >= 1 exactly when r <= bp
    split = np.searchsorted(radii, bp_values, side="right")
    screened = _screened_mse(radii, target, bp_values, alpha_values, split)
    tol = _screen_tol(radii.size)
    cells = []
    for ia, ib in zip(*np.nonzero(screened <= screened.min() + tol)):
        bp, alpha = bp_values[ib], alpha_values[ia]
        err = p_los_model(radii, LosProbParams(bp, alpha)) - target
        cells.append((np.mean(err * err), bp, alpha))
    mse, bp, alpha = min(cells)
    return float(bp), float(alpha), float(mse)


def _coarse_fit(radii: np.ndarray, target: np.ndarray):
    """``_mse_grid`` over the coarse grid, screening only the breakpoints that can win.

    The sub-grid is every 8th breakpoint and every 16th alpha; the cut and
    why it keeps the whole grid's result bit for bit are stated beside
    _SCREEN_TOL.  The saturated error grows with the breakpoint, so the kept
    breakpoints are a prefix of the grid.
    """
    _, _, upper = _mse_grid(radii, target, _COARSE_GRID[::8], _COARSE_GRID[::16])
    split = np.searchsorted(radii, _COARSE_GRID, side="right")
    saturated = _saturated_sse(target, split) / radii.size
    kept = np.count_nonzero(saturated <= upper + 2 * _screen_tol(radii.size))
    return _mse_grid(radii, target, _COARSE_GRID[:kept], _COARSE_GRID)


def fit_p_los(curve: LosProbabilityCurve) -> tuple[LosProbParams, float]:
    """MMSE fit of the squared model to a curve's valid points.

    Exhaustive search over integer (d_bp, alpha) pairs from 1 to 200 m,
    followed by a 0.1 m local refinement around the winning cell.  The
    search is exhaustive in result: a closed-form screen decides which few
    cells are evaluated exactly, and the winner is the one a cell-by-cell
    evaluation would pick (see _mse_grid); the screen's memory does not
    grow with the curve's length.  The coarse screen skips the breakpoints
    whose radii at or below them alone already err more than a sampled
    cell's exact MSE (see _coarse_fit), which cannot change the winner.  The
    refinement window, 1 m either side, recenters while its winner lands on
    a window edge, so optima up to a few meters off the coarse winner are
    still resolved.  It evaluates at most 16 windows, and a winner still on
    an edge of the 16th is returned without saying so: a curve whose best
    alpha lies past 200 m comes back with alpha_m = 216.0, which is 200 m
    plus 16 steps of 1 m.  The refinement is skipped when the coarse fit is
    already exact.  Returns the parameters and the mean squared error they
    achieve.

    Raises:
        ValueError: with fewer than 2 valid curve points.
    """
    radii = curve.radii_m[curve.valid]
    target = curve.p_los[curve.valid]
    if radii.size < 2:
        raise ValueError("fit requires at least 2 valid curve points")

    bp, alpha, mse = _coarse_fit(radii, target)
    for _ in range(16):
        if mse == 0.0:
            break
        fine_bp = np.round(bp + _WINDOW_M, 6)
        fine_alpha = np.round(alpha + _WINDOW_M, 6)
        fine_bp = fine_bp[fine_bp > 0]
        fine_alpha = fine_alpha[fine_alpha > 0]
        # the window contains its own center, so the mse never degrades here
        bp, alpha, mse = _mse_grid(radii, target, fine_bp, fine_alpha)
        on_edge = bp in (fine_bp[0], fine_bp[-1]) or alpha in (fine_alpha[0], fine_alpha[-1])
        if not on_edge:
            break
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
# one match per non-blank line: \S is not str.isspace
_NON_BLANK_LINE = re.compile(f"\\S[^{_LINE_BREAKS}]*")


def _rows(text: str, header: str, what: str) -> "list[list[str]]":
    """The fields of each row under ``header``, blank lines skipped; ``what`` names the table in errors.

    Rows are counted against MAX_GRID_POINTS before any line is copied out of
    ``text``: the line breaks bound the row count from above, and only a text
    whose bound passes the cap has its rows counted in one lazy pass.

    Raises:
        ValueError: on a wrong header, too many rows or a row whose field count differs from the header's.
    """
    lines = _NON_BLANK_LINE.finditer(text)
    first = next(lines, None)
    if first is None or first.group().strip() != header:
        raise ValueError(f"{what} CSV must start with header '{header}'")
    if sum(map(text.count, _LINE_BREAKS)) > MAX_GRID_POINTS:
        n_rows = sum(1 for _ in lines)
        if n_rows > MAX_GRID_POINTS:
            raise ValueError(f"{what} CSV must hold at most {MAX_GRID_POINTS} rows, got {n_rows}")
    width = header.count(",") + 1
    rows = [ln.split(",") for ln in text.splitlines() if ln.strip()][1:]
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
