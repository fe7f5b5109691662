"""Command line front-end.

Subcommands cover the full pipeline: ray-traced LOS probability curves
(los-prob), fitting the analytic LOS model to curves (fit-plos), hybrid path
loss sweeps (pathloss), regression on measured scatter (fit) and link outage
analysis (outage).

Exit codes: 0 on success, 1 on numerical failure, 2 on input or parse errors.
Subcommands raise OSError or ValueError on bad input or a failed write, and
``main`` alone turns that into exit 2.  Exit 1 is decided around the fit calls
of fit-plos and fit: input that parsed can still leave a fit undetermined.

Output files are written atomically and identical invocations (including the
seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import los_probability, pathloss
from .geometry import Point3, PointInsideBuildingError, _read_text, load_building_db

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(out: str | None, text: str) -> int:
    """Print ``text``, or write it atomically to ``out``; failing to write raises OSError."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    path = Path(out)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"  # unique per writer
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)  # already gone after a successful replace
    return EXIT_OK


def _load(path: str, parse):
    """``parse`` applied to the text of the file at ``path`` (at most MAX_INPUT_BYTES); errors name the file."""
    try:
        return parse(_read_text(path))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_xyz(text: str) -> Point3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected x,y,z with three components, got {text!r}")
    return Point3(float(parts[0]), float(parts[1]), float(parts[2]))


def _grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rmin", type=float, default=10.0, help="first distance, m")
    parser.add_argument("--rmax", type=float, default=200.0, help="last distance, m")
    parser.add_argument("--step", type=float, default=1.0, help="grid step, m")


def _distance_grid(args) -> np.ndarray:
    """Path loss distance grid; the models start at the close-in reference distance."""
    if not args.rmin >= pathloss.REFERENCE_DISTANCE_M:
        raise ValueError(f"--rmin must be >= {pathloss.REFERENCE_DISTANCE_M:g} m, got {args.rmin:g}")
    return los_probability.radius_grid(args.rmin, args.rmax, args.step)


def _model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(pathloss.PRESETS), help="published parameter set")
    parser.add_argument("--nlos", choices=["close-in", "floating"], default="close-in",
                        help="NLOS model family")
    parser.add_argument("--dbp", type=float, default=pathloss.DEFAULT_P_LOS_PARAMS.d_bp_m, help="LOS probability breakpoint, m")
    parser.add_argument("--alpha", type=float, default=pathloss.DEFAULT_P_LOS_PARAMS.alpha_m, help="LOS probability decay, m")
    parser.add_argument("--frequency", type=float, help="carrier frequency in Hz (explicit models)")
    parser.add_argument("--los-exponent", type=float, help="LOS close-in exponent")
    parser.add_argument("--los-sigma", type=float, help="LOS shadowing spread, dB")
    parser.add_argument("--nlos-exponent", type=float, help="NLOS close-in exponent")
    parser.add_argument("--nlos-intercept", type=float, help="NLOS floating intercept, dB")
    parser.add_argument("--nlos-slope", type=float, help="NLOS floating slope")
    parser.add_argument("--nlos-sigma", type=float, help="NLOS shadowing spread, dB")


def _build_hybrid(args) -> pathloss.HybridModel:
    p_los = los_probability.LosProbParams(args.dbp, args.alpha)
    explicit = [args.frequency, args.los_exponent, args.los_sigma, args.nlos_sigma]
    if args.preset is not None:
        if any(v is not None for v in explicit + [args.nlos_exponent, args.nlos_intercept, args.nlos_slope]):
            raise ValueError("give either --preset or explicit model parameters, not both")
        return pathloss.hybrid_from_preset(args.preset, nlos=args.nlos, p_los=p_los)
    if any(v is None for v in explicit):
        raise ValueError(
            "explicit models need --frequency, --los-exponent, --los-sigma and --nlos-sigma "
            "(or use --preset)"
        )
    los = pathloss.CloseInModel(args.frequency, args.los_exponent, args.los_sigma)
    if args.nlos == "close-in":
        if args.nlos_exponent is None:
            raise ValueError("--nlos close-in needs --nlos-exponent")
        nlos = pathloss.CloseInModel(args.frequency, args.nlos_exponent, args.nlos_sigma)
    else:
        if args.nlos_intercept is None or args.nlos_slope is None:
            raise ValueError("--nlos floating needs --nlos-intercept and --nlos-slope")
        nlos = pathloss.FloatingInterceptModel(args.nlos_intercept, args.nlos_slope, args.nlos_sigma)
    return pathloss.HybridModel(los, nlos, p_los)


def cmd_los_prob(args) -> int:
    db = load_building_db(args.db)
    tx = _parse_xyz(args.tx)
    try:
        curve = los_probability.los_probability_curve(
            db, tx, r_min=args.rmin, r_max=args.rmax, step=args.step,
            n_points=args.n_points, rx_height_m=args.rx_height,
            interior_counts_as_nlos=args.interior_nlos,
        )
    except PointInsideBuildingError as exc:
        raise ValueError(f"tx position invalid: {exc}") from exc
    return _emit(args.out, los_probability.curve_to_csv(curve))


def cmd_fit_plos(args) -> int:
    curves = [_load(path, los_probability.curve_from_csv) for path in args.curves]
    if args.mean:
        curves = [los_probability.mean_curve(curves)]
    try:
        fits = [los_probability.fit_p_los(c) for c in curves]
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    docs = [{**asdict(params), "mse": mse} for params, mse in fits]
    payload = docs[0] if len(docs) == 1 else docs
    return _emit(args.out, json.dumps(payload, indent=2) + "\n")


def cmd_pathloss(args) -> int:
    model = _build_hybrid(args)
    distances = _distance_grid(args)
    p, mean, sigma = pathloss._hybrid(model, distances)
    return _emit(args.out, los_probability._table("d_m,p_los,mean_pl_db,sigma_db", distances, p, mean, sigma))


def cmd_fit(args) -> int:
    samples = _load(args.samples, pathloss.samples_from_csv)
    if args.model == "floating" and args.frequency is not None:
        raise ValueError("--frequency applies to --model close-in only")
    if args.model == "close-in":
        if args.frequency is None:
            raise ValueError("--model close-in needs --frequency")
        if not 0 < args.frequency < np.inf:
            raise ValueError(f"--frequency must be positive and finite, got {args.frequency:g}")
        pathloss.fspl_at_reference(args.frequency)  # raises when the 1 m FSPL overflows
    subset = [s for s in samples if s.condition == args.condition]
    try:
        if args.model == "close-in":
            name, fitted = "close-in", pathloss.fit_close_in(subset, args.frequency)
        else:
            name, fitted = "floating-intercept", pathloss.fit_floating(subset)
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    doc = {"model": name, **asdict(fitted)}
    return _emit(args.out, json.dumps(doc, indent=2) + "\n")


def cmd_outage(args) -> int:
    model = _build_hybrid(args)
    spec = pathloss.OutageSpec(args.threshold)
    distances = _distance_grid(args)
    if args.monte_carlo is not None:
        los_probability._count(args.monte_carlo, "--monte-carlo draw count")
        if args.seed is None:
            raise ValueError("--monte-carlo requires --seed for reproducibility")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    outage = pathloss.outage_probability(model, distances, spec)
    columns = [distances, 1.0 - outage, outage]
    if args.monte_carlo is None:
        return _emit(args.out, los_probability._table("d_m,coverage,outage", *columns))
    # distances in grid order on one generator, through two reused buffers of
    # N draws: the bytes of one sample_pl call per distance, without its allocations
    rng = np.random.default_rng(args.seed)
    columns.append(pathloss.outage_monte_carlo(model, distances, spec, rng, args.monte_carlo))
    return _emit(args.out, los_probability._table("d_m,coverage,outage,outage_mc", *columns))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwpl",
        description="Probabilistic omnidirectional millimeter-wave path loss toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("los-prob", help="ray-traced LOS probability curve for a scene")
    p.add_argument("--db", required=True, help="building DB JSON document")
    p.add_argument("--tx", required=True, help="transmitter position as x,y,z in meters")
    _grid_args(p)
    p.add_argument("--n-points", type=int, default=los_probability.DEFAULT_N_POINTS, help="circle positions per radius")
    p.add_argument("--rx-height", type=float, default=los_probability.DEFAULT_RX_HEIGHT_M, help="receiver height, m")
    p.add_argument("--interior-nlos", action="store_true",
                   help="count in-building circle positions as NLOS instead of dropping them")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_los_prob)

    p = sub.add_parser("fit-plos", help="fit the analytic LOS probability model to curves")
    p.add_argument("curves", nargs="+", help="curve CSV files")
    p.add_argument("--mean", action="store_true", help="average the curves before fitting")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_fit_plos)

    p = sub.add_parser("pathloss", help="hybrid mean path loss and shadowing sweep")
    _model_args(p)
    _grid_args(p)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_pathloss)

    p = sub.add_parser("fit", help="fit a path loss model to measured scatter")
    p.add_argument("samples", help="samples CSV file")
    p.add_argument("--model", choices=["close-in", "floating"], required=True)
    p.add_argument("--condition", choices=list(pathloss.CONDITIONS), required=True,
                   help="which labeled subset to fit")
    p.add_argument("--frequency", type=float, help="carrier frequency in Hz (close-in only)")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("outage", help="coverage and outage versus distance")
    _model_args(p)
    _grid_args(p)
    p.add_argument("--threshold", type=float, required=True, help="maximum tolerable path loss, dB")
    p.add_argument("--monte-carlo", type=int, metavar="N",
                   help="add an outage_mc column from N shadowing draws per distance "
                        f"(1 to {los_probability.MAX_GRID_POINTS}; holds two buffers of N draws)")
    p.add_argument("--seed", type=int, help="non-negative RNG seed (required with --monte-carlo)")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_outage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
