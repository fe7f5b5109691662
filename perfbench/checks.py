"""Output checks: every operation a workload runs is judged here.

The references are independent of the code under test where that is
possible: the brute-force oracle in ``tests/oracles.py`` for occlusion,
closed-form formulas written below for path loss and outage, numpy
least-squares for the regressions, and digests recorded from a known-good
commit for bit-identical curves and fit errors.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mmwpl import (
    PRESETS,
    LosProbParams,
    OutageSpec,
    Point3,
    curve_from_csv,
    curve_to_csv,
    fit_close_in,
    fit_floating,
    fit_p_los,
    hybrid_from_preset,
    is_los,
    los_probability_curve,
    mean_pl_hybrid,
    outage_probability,
    p_los_model,
    point_in_any_building,
    sample_pl,
    samples_from_csv,
    segment_intersects_box,
    shadow_sigma_hybrid,
)

import gen

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SPEED_OF_LIGHT_M_S = 299792458.0
# Monte Carlo outage must sit within this many binomial standard errors (plus
# one draw) of the analytic value.
MC_SIGMAS = 6.0
CSV_REL_TOL = 1e-5  # curve CSV keeps six significant digits


def curve_digest(curve) -> str:
    h = hashlib.sha256()
    for a in (curve.radii_m, curve.p_los, curve.valid):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def recorded(golden: dict, inp) -> dict | None:
    """The recorded results for this seed, when it was recorded at these sizes."""
    if golden.get("sizes") != repr(inp.sizes):
        return None
    return golden.get("seeds", {}).get(str(inp.seed))


# ---------------------------------------------------------------- raytrace

def circle_points(tx: Point3, radii: np.ndarray, n_points: int = gen.CURVE_POSITIONS) -> np.ndarray:
    """Receiver positions of a LOS curve, (len(radii) * n_points, 3), radius-major."""
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    x = tx.x + radii[:, None] * np.cos(angles)[None, :]
    y = tx.y + radii[:, None] * np.sin(angles)[None, :]
    z = np.full(x.shape, gen.RX_HEIGHT_M)
    return np.stack((x, y, z), axis=-1).reshape(-1, 3)


def oracle_los(oracles, db, a: Point3, b: Point3) -> bool | None:
    """Brute-force LOS verdict, or None for a grazing ray the sampler cannot resolve.

    A crossing shorter than two sample spacings, or a zero-length touch that
    either side counts as a hit, is grazing (the rule of acceptance test C6,
    scaled to the ray length).
    """
    pa, pb = a.to_array(), b.to_array()
    spacing = float(np.linalg.norm(pb - pa)) / (oracles.ORACLE_SAMPLES - 1)
    blocked = False
    for box, lo, hi in zip(db.buildings, db.min_array, db.max_array):
        c = oracles.crossing_length(pa, pb, lo, hi)
        hit = oracles.sampled_segment_hits_box(pa, pb, lo, hi)
        if 0.0 < c < 2.0 * spacing:
            return None
        if c == 0.0 and (hit or segment_intersects_box(a, b, box)):
            return None
        blocked |= hit
    return not blocked


def _check_circle(sc, curve, radii, n_rays, oracles) -> str | None:
    """Re-derive one radius of the curve ray by ray and spot-check rays against the oracle."""
    i = sc.check_radius
    pts = circle_points(sc.tx, radii[i : i + 1])
    verdicts = {}
    for k, p in enumerate(pts):
        rx = Point3(float(p[0]), float(p[1]), float(p[2]))
        if not point_in_any_building(sc.db, rx):
            verdicts[k] = (rx, is_los(sc.db, sc.tx, rx))
    if verdicts:
        want = sum(v for _, v in verdicts.values()) / len(verdicts)
        if not (curve.valid[i] and curve.p_los[i] == want):
            return f"p_los at {radii[i]:g} m is {curve.p_los[i]!r}, rays give {want!r}"
    elif curve.valid[i]:
        return f"radius {radii[i]:g} m has no exterior position but is marked valid"
    checked = 0
    for k in sc.ray_order:
        if checked == n_rays:
            break
        if k not in verdicts:
            continue
        rx, lib = verdicts[k]
        want = oracle_los(oracles, sc.db, sc.tx, rx)
        if want is None:
            continue
        checked += 1
        if want != lib:
            return f"ray to {rx} at {radii[i]:g} m: is_los {lib}, oracle {want}"
    return None


def _csv_round_trip_ok(curve, back) -> bool:
    return (
        np.array_equal(back.valid, curve.valid)
        and np.allclose(back.radii_m, curve.radii_m, rtol=CSV_REL_TOL, atol=0.0)
        and np.allclose(back.p_los[curve.valid], curve.p_los[curve.valid], rtol=CSV_REL_TOL, atol=0.0)
    )


def check_raytrace(inp, ctx, payload: dict) -> dict:
    """Map of failed operation id to reason."""
    bad = {}
    oracles = ctx["oracles"]
    want = recorded(ctx["golden"], inp)
    radii = inp.grid
    for sc in inp.scenes:
        op = f"curve:{sc.name}"
        if op in payload:
            curve, back = payload[op]
            reason = None
            if want is not None and curve_digest(curve) != want["curves"][sc.name]:
                reason = "curve is not bit-identical to the recorded digest"
            elif not _csv_round_trip_ok(curve, back):
                reason = "curve CSV does not parse back to the curve"
            else:
                reason = _check_circle(sc, curve, radii, inp.sizes.oracle_rays, oracles)
            if reason:
                bad[op] = reason
        for j, (a, b) in enumerate(sc.queries):
            op = f"los:{sc.name}:{j}"
            if op not in payload:
                continue
            if is_los(sc.db, b, a) != payload[op]:
                bad[op] = "is_los is not symmetric"
            elif j in sc.oracle_queries:
                truth = oracle_los(oracles, sc.db, a, b)
                if truth is not None and truth != payload[op]:
                    bad[op] = f"is_los {payload[op]}, oracle {truth}"
    return bad


# ------------------------------------------------------------------- model

def _fspl_1m(frequency_hz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_S)


def _p_los_ref(d: np.ndarray, bp: float, alpha: float) -> np.ndarray:
    decay = np.exp(-d / alpha)
    bracket = np.where(d <= bp, 1.0, (bp / d) * (1.0 - decay) + decay)
    return bracket**2


def link_reference(sw, d: np.ndarray):
    """Hybrid mean, spread and outage written out from the model equations."""
    preset = PRESETS[sw.preset]
    fspl = _fspl_1m(preset.frequency_hz)
    log_d = np.log10(d)
    pl_los = fspl + 10.0 * preset.los.exponent * log_d
    if sw.nlos == "close-in":
        pl_nlos = fspl + 10.0 * preset.nlos_close_in.exponent * log_d
        sigma_nlos = preset.nlos_close_in.shadow_std_db
    else:
        fl = preset.nlos_floating
        pl_nlos = fl.intercept_db + 10.0 * fl.slope * log_d
        sigma_nlos = fl.shadow_std_db
    p = _p_los_ref(d, sw.p_los.d_bp_m, sw.p_los.alpha_m)
    mean = p * pl_los + (1.0 - p) * pl_nlos
    sigma = np.sqrt((p * preset.los.shadow_std_db) ** 2 + ((1.0 - p) * sigma_nlos) ** 2)
    outage = np.array([
        0.5 * math.erfc((sw.threshold_db - m) / (s * math.sqrt(2.0))) for m, s in zip(mean, sigma)
    ])
    return mean, sigma, outage


def _fit_mse(syn, bp: float, alpha: float) -> float:
    return float(np.mean((p_los_model(syn.curve.radii_m, LosProbParams(bp, alpha)) - syn.curve.p_los) ** 2))


def _close(a, b, rel=1e-9, abs_=1e-9) -> bool:
    return bool(np.allclose(a, b, rtol=rel, atol=abs_))


def check_model(inp, ctx, payload: dict) -> dict:
    bad = {}
    want = recorded(ctx["golden"], inp)
    for i, syn in enumerate(inp.synthetic):
        op = f"fit:{i}"
        if op not in payload:
            continue
        bp, alpha, mse = payload[op]
        # the coarse pass is exhaustive over integer pairs, so the result is no
        # worse than the integer pair nearest the generating parameters
        near = _fit_mse(
            syn, min(max(round(syn.truth.d_bp_m), 1), 200), min(max(round(syn.truth.alpha_m), 1), 200)
        )
        if not math.isclose(mse, _fit_mse(syn, bp, alpha), rel_tol=1e-9, abs_tol=1e-15):
            bad[op] = "reported mse does not match the returned parameters"
        elif mse > near * (1.0 + 1e-9) + 1e-15:
            bad[op] = f"mse {mse!r} is worse than the grid point near the truth ({near!r})"
        elif syn.kind == "exact" and (bp, alpha, mse) != (syn.truth.d_bp_m, syn.truth.alpha_m, 0.0):
            bad[op] = f"noise-free curve {syn.truth} came back as ({bp}, {alpha}, {mse})"
        elif want is not None and mse > want["fit_mse"][i]:
            bad[op] = f"mse {mse!r} is worse than the recorded {want['fit_mse'][i]!r}"

    samples = payload.get("scatter:parse")
    if samples is not None and len(samples) != inp.scatter_rows:
        bad["scatter:parse"] = f"parsed {len(samples)} rows, wrote {inp.scatter_rows}"
    for op, condition in (("scatter:close-in:LOS", "LOS"), ("scatter:close-in:NLOS", "NLOS")):
        if op in payload and samples is not None:
            d, pl = _subset(samples, condition)
            a = 10.0 * np.log10(d)
            b = pl - _fspl_1m(28e9)
            n = np.linalg.lstsq(a[:, None], b, rcond=None)[0][0]
            sigma = np.sqrt(np.mean((b - n * a) ** 2))
            if not _close(payload[op], (n, sigma)):
                bad[op] = f"close-in fit {payload[op]} differs from least squares {(n, sigma)}"
    op = "scatter:floating:NLOS"
    if op in payload and samples is not None:
        d, pl = _subset(samples, "NLOS")
        x = 10.0 * np.log10(d)
        slope, intercept = np.polyfit(x, pl, 1)
        sigma = np.sqrt(np.mean((pl - intercept - slope * x) ** 2))
        got = payload[op]
        if not (_close(got[:3], (intercept, slope, sigma)) and got[3] == (d.min(), d.max())):
            bad[op] = f"floating fit {got} differs from least squares {(intercept, slope, sigma)}"

    d = inp.grid
    for k, sw in enumerate(inp.sweeps):
        op = f"sweep:{k}"
        if op not in payload:
            continue
        mean, sigma, outage, coverage, mc = payload[op]
        ref_mean, ref_sigma, ref_outage = link_reference(sw, d)
        n = inp.sizes.mc_draws
        mc_ok = all(
            abs(m - ref_outage[i]) <= MC_SIGMAS * math.sqrt(ref_outage[i] * (1 - ref_outage[i]) / n) + 1.0 / n
            for i, m in enumerate(mc)
        )
        if not (_close(mean, ref_mean) and _close(sigma, ref_sigma)):
            bad[op] = "hybrid mean or spread differs from the model equations"
        elif not _close(outage, ref_outage, abs_=1e-12):
            bad[op] = "outage differs from the erfc formula"
        elif not (np.array_equal([c[0] for c in coverage], d)
                  and _close([c[1] for c in coverage], 1.0 - ref_outage, abs_=1e-12)):
            bad[op] = "coverage is not one minus outage on the grid"
        elif not mc_ok:
            bad[op] = "Monte Carlo outage is outside binomial bounds of the analytic value"
    return bad


def _subset(samples, condition):
    rows = [(s.distance_m, s.path_loss_db) for s in samples if s.condition == condition]
    d, pl = np.array(rows).T
    return d, pl


# --------------------------------------------------------------------- cli

def _fmt(v) -> str:
    return format(float(v), ".6g")


def _csv(header: str, rows) -> bytes:
    return ("\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n").encode()


def _json(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def expected_cli_outputs(inp, plan) -> dict:
    """What each planned CLI invocation must write, produced by the library in-process.

    The text layout follows the file formats documented in the README.
    """
    radii = inp.grid
    curves = {sc.name: los_probability_curve(sc.db, sc.tx, *inp.sizes.grid) for sc in inp.scenes}
    samples = samples_from_csv(inp.scatter_csv)
    out = {}
    for step in plan:
        kind, arg = step.op.split(":", 1) if ":" in step.op else (step.op, None)
        if kind == "los-prob":
            out[step.op] = curve_to_csv(curves[arg]).encode()
        elif kind == "fit-plos":
            docs = []
            for sc in inp.scenes:
                # fit-plos reads the curves back from the six-digit CSV
                params, mse = fit_p_los(curve_from_csv(curve_to_csv(curves[sc.name])))
                docs.append({"d_bp_m": params.d_bp_m, "alpha_m": params.alpha_m,
                             "squared": params.squared, "mse": mse})
            out[step.op] = _json(docs)
        elif kind == "fit":
            subset = [s for s in samples if s.condition == step.condition]
            if arg == "close-in":
                m = fit_close_in(subset, 28e9)
                doc = {"model": "close-in", "frequency_hz": m.frequency_hz,
                       "exponent": m.exponent, "shadow_std_db": m.shadow_std_db}
            else:
                m = fit_floating(subset)
                doc = {"model": "floating-intercept", "intercept_db": m.intercept_db, "slope": m.slope,
                       "shadow_std_db": m.shadow_std_db, "valid_range_m": list(m.valid_range_m)}
            out[step.op] = _json(doc)
        else:
            sw = step.sweep
            model = hybrid_from_preset(sw.preset, nlos=sw.nlos, p_los=sw.p_los)
            if kind == "pathloss":
                rows = zip(radii, p_los_model(radii, sw.p_los), mean_pl_hybrid(model, radii),
                           shadow_sigma_hybrid(model, radii))
                out[step.op] = _csv("d_m,p_los,mean_pl_db,sigma_db", rows)
            else:
                rng = np.random.default_rng(sw.mc_seed)
                spec = OutageSpec(sw.threshold_db)
                rows = []
                for d in radii:
                    o = outage_probability(model, float(d), spec)
                    draws = sample_pl(model, float(d), rng, size=inp.sizes.mc_draws)
                    rows.append([d, 1.0 - o, o, float(np.mean(draws > sw.threshold_db))])
                out[step.op] = _csv("d_m,coverage,outage,outage_mc", rows)
    return out


def check_cli(inp, ctx, payload: dict) -> dict:
    expected = expected_cli_outputs(inp, ctx["plan"])
    return {
        op: "output differs from the in-process library result"
        for op, data in payload.items()
        if data != expected.get(op)
    }

