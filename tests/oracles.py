"""Independent brute-force oracles used to pin expected values.

Nothing here shares logic with the library: occlusion is decided by sampling
many points along a segment and testing closed-box membership directly, and
circle classification builds on that.  Slow but unarguable.
"""

import numpy as np

ORACLE_EPS = 1e-9
ORACLE_SAMPLES = 10_000


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
