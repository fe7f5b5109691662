"""Independent brute-force oracles used to pin expected values.

Nothing here shares logic with the library: occlusion is decided by sampling
many points along a segment and testing closed-box membership directly, and
circle classification builds on that.  Slow but unarguable.  The reference
kernels and the reference building-DB parser at the end are the library's
former straightforward implementations, kept to check its faster ones for
exact equality; the parser keeps using the library's Point3 and Box3 checks,
which are what word its messages.  The Poisson-box scenes and their
closed-form LOS probability come from random shape theory (Bai, Vaze and
Heath, "Analysis of Blockage Effects on Urban Cellular Networks", 2014).
"""

import json
import math

import numpy as np

from mmwpl.geometry import Box3, BuildingDB, BuildingDBError, Point3

ORACLE_EPS = 1e-9
ORACLE_SAMPLES = 10_000

# Poisson-box scenes: box centres per square meter, the uniform range of
# each footprint side, and the half-width of the square they are dropped in,
# which reaches past every box that can block a 200 m ray.
POISSON_BOX_DENSITY = 8.9e-4
POISSON_BOX_SIDES_M = (10.0, 30.0)
POISSON_BOX_HALF_WIDTH_M = 240.0


def sampled_segment_hits_box(a, b, box_min, box_max, n=ORACLE_SAMPLES, eps=ORACLE_EPS):
    """True when any of n evenly spaced points on [a, b] lies in the closed box."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = a[None, :] * (1.0 - t) + b[None, :] * t
    lo = np.asarray(box_min, dtype=float) - eps
    hi = np.asarray(box_max, dtype=float) + eps
    return bool(((pts >= lo).all(axis=1) & (pts <= hi).all(axis=1)).any())


def sampled_segment_blocked(a, b, mins, maxs, n=ORACLE_SAMPLES):
    return any(sampled_segment_hits_box(a, b, lo, hi, n=n) for lo, hi in zip(mins, maxs))


def crossing_length(a, b, box_min, box_max):
    """Length in meters of the segment's overlap with the closed box.

    Plain interval intersection per axis; used only to classify grazing
    contacts, not as the occlusion oracle itself.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    t_lo, t_hi = 0.0, 1.0
    for k in range(3):
        if d[k] == 0.0:
            if a[k] < box_min[k] or a[k] > box_max[k]:
                return 0.0
            continue
        t1 = (box_min[k] - a[k]) / d[k]
        t2 = (box_max[k] - a[k]) / d[k]
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
    if t_hi <= t_lo:
        return 0.0
    return (t_hi - t_lo) * float(np.linalg.norm(d))


def point_strictly_inside(p, box_min, box_max, eps=ORACLE_EPS):
    p = np.asarray(p, dtype=float)
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    return bool((p > lo + eps).all() and (p < hi - eps).all())


def circle_los_fraction(tx, radius, mins, maxs, n_points=100, rx_height=1.5,
                        segment_samples=ORACLE_SAMPLES):
    """LOS fraction over exterior circle positions, by brute force.

    Returns (fraction or None, n_exterior, n_los).
    """
    tx = np.asarray(tx, dtype=float)
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    n_exterior = 0
    n_los = 0
    for theta in angles:
        p = np.array([tx[0] + radius * np.cos(theta), tx[1] + radius * np.sin(theta), rx_height])
        if any(point_strictly_inside(p, lo, hi) for lo, hi in zip(mins, maxs)):
            continue
        n_exterior += 1
        if not sampled_segment_blocked(tx, p, mins, maxs, n=segment_samples):
            n_los += 1
    if n_exterior == 0:
        return None, 0, 0
    return n_los / n_exterior, n_exterior, n_los


def poisson_box_scene(seed, tx):
    """Boxes with Poisson centres around ``tx``'s ground point, all taller than ``tx``.

    Sides ``a`` (along x) and ``b`` (along y) are independent and uniform on
    POISSON_BOX_SIDES_M; the boxes whose closed footprint holds the ground
    point are dropped, which conditions the scene on an exterior transmitter.
    """
    rng = np.random.default_rng(seed)
    half = POISSON_BOX_HALF_WIDTH_M
    n = rng.poisson(POISSON_BOX_DENSITY * (2.0 * half) ** 2)
    centres = np.array([tx.x, tx.y]) + rng.uniform(-half, half, (n, 2))
    half_sides = rng.uniform(*POISSON_BOX_SIDES_M, (n, 2)) / 2.0
    keep = ~np.all(np.abs(centres - [tx.x, tx.y]) <= half_sides, axis=1)
    roof = tx.z + 20.0
    return BuildingDB("poisson", tuple(
        Box3(Point3(x - hx, y - hy, 0.0), Point3(x + hx, y + hy, roof))
        for (x, y), (hx, hy) in zip(centres[keep], half_sides[keep])
    ))


def poisson_box_p_los(radii, n_points=100):
    """Expected LOS fraction of a Poisson-box scene's circles, interior positions counted as NLOS.

    A box blocks the ray of length r at angle theta when its centre lies in
    the segment's Minkowski sum with its footprint, less the footprint
    around the transmitter: area r * (b |cos theta| + a |sin theta|).  So the
    ray is clear with probability exp(-density * r * (E[b] |cos| + E[a] |sin|)),
    averaged here over the curve's own angles 2 pi k / n_points: the exact
    expectation of the sampled curve.
    """
    mean_side = sum(POISSON_BOX_SIDES_M) / 2.0
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    width = mean_side * np.abs(np.cos(angles)) + mean_side * np.abs(np.sin(angles))
    return np.exp(-POISSON_BOX_DENSITY * np.outer(radii, width)).mean(axis=1)


def mse_table_reference(radii, target, bp_values, alpha_values):
    """Exact MSE of the squared LOS model at every (alpha, d_bp) cell, shape (n_alpha, n_bp).

    One alpha at a time on a 2-D (n_bp, n_r) slice, with the arithmetic of
    the model's evaluation: saturate at 1 where d_bp / r >= 1, otherwise
    ratio * (1 - decay) + decay, squared.
    """
    ratio = bp_values[:, None] / radii
    rows = []
    for alpha in alpha_values:
        decay = np.exp(-radii / alpha)
        bracket = np.where(ratio >= 1.0, 1.0, ratio * (1.0 - decay) + decay)
        err = bracket * bracket - target
        rows.append(np.mean(err * err, axis=1))
    return np.array(rows)


def mse_grid_reference(radii, target, bp_values, alpha_values):
    """Best (d_bp, alpha, mse) by evaluating every cell exactly, slice by slice.

    Ties resolve to the smallest d_bp, then the smallest alpha.
    """
    best_mse, best_bp, best_alpha = np.inf, bp_values[0], alpha_values[0]
    for alpha, mse in zip(alpha_values, mse_table_reference(radii, target, bp_values, alpha_values)):
        i = int(np.argmin(mse))
        # on equal mse a smaller d_bp wins; an equal d_bp keeps the earlier, smaller alpha
        if (mse[i], bp_values[i]) < (best_mse, best_bp):
            best_mse, best_bp, best_alpha = mse[i], bp_values[i], alpha
    return float(best_bp), float(best_alpha), float(best_mse)


def fit_reference(radii, target):
    """The LOS fit by exhaustive search: every cell of every search evaluated exactly.

    The integer grid of 1 to 200 m first, then the refinement walk with its
    stop rules: at most 16 windows, none once a fit is exact, and none after
    a window whose winner is off its edges or at its own center.  A window is
    the 0.1 m lattice within 1 m of its center, from integer tenths, clipped
    at 0.1 m.  Each search is mse_grid_reference over its whole grid, with no
    screen and no bound.  Returns (d_bp, alpha, mse).
    """
    grid = np.arange(1.0, 201.0)
    bp, alpha, mse = mse_grid_reference(radii, target, grid, grid)
    for _ in range(16):
        if mse == 0.0:
            break
        center = bp, alpha
        fine_bp, fine_alpha = (np.arange(max(round(10 * c) - 10, 1), round(10 * c) + 11) / 10 for c in center)
        bp, alpha, mse = mse_grid_reference(radii, target, fine_bp, fine_alpha)
        on_edge = bp in (fine_bp[0], fine_bp[-1]) or alpha in (fine_alpha[0], fine_alpha[-1])
        if not on_edge or (bp, alpha) == center:
            break
    return bp, alpha, mse


def _canonical_order_reference(starts, ends):
    swap = ends[:, 0] < starts[:, 0]
    eq = ends[:, 0] == starts[:, 0]
    swap |= eq & (ends[:, 1] < starts[:, 1])
    eq &= ends[:, 1] == starts[:, 1]
    swap |= eq & (ends[:, 2] < starts[:, 2])
    return np.where(swap[:, None], ends, starts), np.where(swap[:, None], starts, ends)


def segments_blocked_reference(starts, ends, mins, maxs, eps=ORACLE_EPS):
    """Slab test of (n, 3) segments against each box padded by eps, one axis at a time.

    Closed-set convention, endpoints in lexicographic order first, exactly
    as the library's kernel must decide it.
    """
    starts, ends = _canonical_order_reference(starts, ends)
    deltas = ends - starts
    blocked = np.zeros(starts.shape[0], dtype=bool)
    for box_min, box_max in zip(mins, maxs):
        t_lo = np.zeros(starts.shape[0])
        t_hi = np.ones(starts.shape[0])
        ok = np.ones(starts.shape[0], dtype=bool)
        for k in range(3):
            p, d = starts[:, k], deltas[:, k]
            lo, hi = box_min[k] - eps, box_max[k] + eps
            parallel = d == 0.0
            ok &= ~parallel | ((p >= lo) & (p <= hi))
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo - p) / d
                t2 = (hi - p) / d
            t_lo = np.where(parallel, t_lo, np.maximum(t_lo, np.minimum(t1, t2)))
            t_hi = np.where(parallel, t_hi, np.minimum(t_hi, np.maximum(t1, t2)))
        blocked |= ok & (t_lo <= t_hi)
    return blocked


def points_strictly_inside_reference(points, mins, maxs, eps=ORACLE_EPS):
    """Mask over (n, 3) points strictly inside some box, by the per-point rule."""
    inside = np.zeros(points.shape[0], dtype=bool)
    for box_min, box_max in zip(mins, maxs):
        inside |= ((points > box_min + eps) & (points < box_max - eps)).all(axis=1)
    return inside


def parse_building_db_reference(text):
    """The former building-DB parser: one entry at a time, each box checked as a Box3.

    Returns (name, boxes, origin_latlon, min_array, max_array), the arrays
    stacked from the boxes as the former BuildingDB did.  An integer beyond
    float range escapes as OverflowError.
    """

    def reject_constant(name):
        raise BuildingDBError(f"non-finite numeric literal {name!r} in building DB")

    def coerce_corner(value, what):
        if (
            not isinstance(value, list)
            or len(value) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            raise BuildingDBError(f"{what} must be a list of three numbers, got {value!r}")
        try:
            return Point3(float(value[0]), float(value[1]), float(value[2]))
        except ValueError as exc:
            raise BuildingDBError(f"{what}: {exc}") from None

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise BuildingDBError(f"invalid building DB document: {exc}") from None
    if not isinstance(doc, dict):
        raise BuildingDBError("building DB document must be a JSON object")
    if "name" not in doc or not isinstance(doc["name"], str):
        raise BuildingDBError("building DB document requires a text 'name' field")
    if "buildings" not in doc or not isinstance(doc["buildings"], list):
        raise BuildingDBError("building DB document requires a 'buildings' list")

    origin = None
    if "origin" in doc and doc["origin"] is not None:
        raw = doc["origin"]
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("lat"), (int, float))
            or not isinstance(raw.get("lon"), (int, float))
        ):
            raise BuildingDBError("'origin' must be an object with numeric lat/lon")
        origin = (float(raw["lat"]), float(raw["lon"]))
        if not (math.isfinite(origin[0]) and math.isfinite(origin[1])):
            raise BuildingDBError("'origin' lat/lon must be finite")

    boxes = []
    for i, entry in enumerate(doc["buildings"]):
        if not isinstance(entry, dict) or "min" not in entry or "max" not in entry:
            raise BuildingDBError(f"building {i}: expected an object with 'min' and 'max'")
        lo = coerce_corner(entry["min"], f"building {i} 'min'")
        hi = coerce_corner(entry["max"], f"building {i} 'max'")
        try:
            boxes.append(Box3(lo, hi))
        except ValueError as exc:
            raise BuildingDBError(f"building {i}: {exc}") from None
    min_array = np.array([b.min_corner.to_array() for b in boxes]).reshape(-1, 3)
    max_array = np.array([b.max_corner.to_array() for b in boxes]).reshape(-1, 3)
    return doc["name"], tuple(boxes), origin, min_array, max_array
