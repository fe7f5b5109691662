"""The three workloads: one round of each, its checks and its layer counts.

Every workload is a closed loop: one process, one caller, no threads.  A
round does the fixed work generated from the seed; a run repeats whole rounds
until its time is up, so every round does the same work and produces the
same outputs.  Short operations run several times in a round, spread between
the long ones.  Every timed run of an operation is kept as a sample, and the
workload's host-speed probe runs before operations now and then.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mmwpl import (
    OutageSpec,
    coverage_curve,
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
    sample_pl,
    samples_from_csv,
    shadow_sigma_hybrid,
)
from mmwpl import cli as mmwpl_cli
from mmwpl.geometry import points_strictly_inside

import checks
import env
from spans import Tracer

CLI_TIMEOUT_S = 120


@dataclass
class Round:
    """What one round did: timings, per-operation outputs and failures."""

    probe: object = None  # the run's probe.Probe, ticked before timed operations
    wall_s: float = 0.0
    # op id -> [(start, seconds)] of each run in the round: throughput, latency
    # and other operations
    op_s: dict = field(default_factory=dict)
    latency_s: dict = field(default_factory=dict)
    other_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # op id -> value compared across rounds
    payload: dict = field(default_factory=dict)  # op id -> value handed to the checker
    errors: dict = field(default_factory=dict)  # op id -> exception or exit status
    layers: dict = field(default_factory=dict)  # span name -> self time, s (traced rounds)
    traced: bool = False


def _record(rnd: Round, op: str, call, timings=None):
    """Run one operation; add its (start, seconds) to ``timings`` and return its result."""
    if timings is not None:
        rnd.probe.tick()
    t0 = perf_counter()
    try:
        value = call()
    except Exception as exc:  # a failed operation is counted, the run goes on
        rnd.errors[op] = repr(exc)
        return None
    if timings is not None:
        timings.setdefault(op, []).append((t0, perf_counter() - t0))
    return value


def _keep(rnd: Round, op: str, value) -> None:
    """Store a repeated operation's result; a different answer in the same round fails it."""
    if rnd.outputs.setdefault(op, value) != value:
        rnd.errors[op] = "answered differently within one round"
    rnd.payload.setdefault(op, value)


def _after(n_long: int, passes: int) -> set:
    """Indices of the long operations after which a pass of the short ones runs,
    ``passes`` of them spread evenly over ``n_long``."""
    return {k for k in range(n_long) if (k + 1) * passes // n_long > k * passes // n_long}


# ---------------------------------------------------------------- raytrace

def raytrace_round(inp, ctx, tr) -> Round:
    rnd = Round(probe=ctx["probe"])
    query_after = _after(len(inp.scenes), inp.sizes.query_passes)
    for k, sc in enumerate(inp.scenes):
        op = f"curve:{sc.name}"

        def curve(sc=sc):
            with tr.span("los_probability.curve"):
                return los_probability_curve(sc.db, sc.tx, *inp.sizes.grid)

        c = _record(rnd, op, curve, rnd.op_s)
        if c is not None:

            def csv(c=c):
                with tr.span("los_probability.csv"):
                    text = curve_to_csv(c)
                    return text, curve_from_csv(text)

            result = _record(rnd, f"csv:{sc.name}", csv, rnd.other_s)
            if result is not None:
                rnd.outputs[op] = (checks.curve_digest(c), result[0])
                rnd.payload[op] = (c, result[1])
        if k in query_after:
            _queries(inp, rnd, tr)
    return rnd


def _queries(inp, rnd: Round, tr) -> None:
    """One pass of every scene's is_los queries."""
    for sc in inp.scenes:
        for j, (a, b) in enumerate(sc.queries):
            op = f"los:{sc.name}:{j}"

            def query(db=sc.db, a=a, b=b):
                with tr.span("geometry.is_los"):
                    return is_los(db, a, b)

            v = _record(rnd, op, query, rnd.latency_s)
            if v is not None:
                _keep(rnd, op, v)


def raytrace_counts(inp, payload) -> dict:
    positions = interior = pairs = 0
    for sc in inp.scenes:
        inside = points_strictly_inside(sc.db, checks.circle_points(sc.tx, inp.grid))
        n_inside = int(inside.sum())
        positions += inside.size
        interior += n_inside
        pairs += (inside.size - n_inside) * len(sc.db)
    return {
        "geometry.is_los_calls": sum(len(sc.queries) for sc in inp.scenes) * inp.sizes.query_passes,
        "los_probability.rays": positions - interior,
        "los_probability.interior_dropped": interior,
        "los_probability.useful_ray_share": (positions - interior) / positions,
        "los_probability.ray_box_pairs": pairs,
    }


# ------------------------------------------------------------------- model

def _fits(inp, rnd: Round, tr) -> None:
    """One pass of every LOS-model fit."""
    for i, syn in enumerate(inp.synthetic):
        op = f"fit:{i}"

        def fit(syn=syn):
            with tr.span("los_probability.fit"):
                params, mse = fit_p_los(syn.curve)
            return params.d_bp_m, params.alpha_m, mse

        v = _record(rnd, op, fit, rnd.latency_s)
        if v is not None:
            _keep(rnd, op, v)


def model_round(inp, ctx, tr) -> Round:
    rnd = Round(probe=ctx["probe"])

    def parse():
        with tr.span("fitting.csv_parse"):
            return samples_from_csv(inp.scatter_csv)

    samples = _record(rnd, "scatter:parse", parse, rnd.other_s)
    if samples is not None:
        rnd.payload["scatter:parse"] = samples
        rnd.outputs["scatter:parse"] = tuple((s.distance_m, s.path_loss_db, s.condition) for s in samples)
        for op, model, condition in (
            ("scatter:close-in:LOS", "close-in", "LOS"),
            ("scatter:close-in:NLOS", "close-in", "NLOS"),
            ("scatter:floating:NLOS", "floating", "NLOS"),
        ):
            subset = [s for s in samples if s.condition == condition]

            def regress(model=model, subset=subset):
                with tr.span("fitting.fit"):
                    if model == "close-in":
                        m = fit_close_in(subset, 28e9)
                        return m.exponent, m.shadow_std_db
                    m = fit_floating(subset)
                    return m.intercept_db, m.slope, m.shadow_std_db, m.valid_range_m

            v = _record(rnd, op, regress, rnd.other_s)
            if v is not None:
                rnd.outputs[op] = rnd.payload[op] = v

    d = inp.grid
    fit_after = _after(len(inp.sweeps), inp.sizes.fit_passes)
    for k, sw in enumerate(inp.sweeps):

        def sweep(sw=sw):
            model = hybrid_from_preset(sw.preset, nlos=sw.nlos, p_los=sw.p_los)
            spec = OutageSpec(sw.threshold_db)
            with tr.span("pathloss.hybrid"):
                mean = mean_pl_hybrid(model, d)
                sigma = shadow_sigma_hybrid(model, d)
            with tr.span("link_analysis.outage"):
                outage = [outage_probability(model, float(x), spec) for x in d]
            with tr.span("link_analysis.coverage"):
                coverage = coverage_curve(model, spec, *inp.sizes.grid)
            rng = np.random.default_rng(sw.mc_seed)
            mc = []
            for x in d:
                with tr.span("pathloss.sample"):
                    draws = sample_pl(model, float(x), rng, size=inp.sizes.mc_draws)
                mc.append(float(np.mean(draws > sw.threshold_db)))
            return mean, sigma, outage, coverage, mc

        v = _record(rnd, f"sweep:{k}", sweep, rnd.op_s)
        if v is not None:
            rnd.payload[f"sweep:{k}"] = v
            mean, sigma, outage, coverage, mc = v
            rnd.outputs[f"sweep:{k}"] = (mean.tobytes(), sigma.tobytes(), tuple(outage), tuple(coverage), tuple(mc))
        if k in fit_after:
            _fits(inp, rnd, tr)
    return rnd


def model_counts(inp, payload) -> dict:
    fits = [payload[op] for op in payload if op.startswith("fit:")]
    outside = sum(1 for bp, alpha, _ in fits if not (1.0 <= bp <= 200.0 and 1.0 <= alpha <= 200.0))
    return {
        "los_probability.fit_calls": len(inp.synthetic) * inp.sizes.fit_passes,
        "los_probability.fit_boundary_share": outside / max(len(fits), 1),
        "fitting.rows": len(payload.get("scatter:parse", ())),
        "pathloss.draws": len(inp.sweeps) * inp.grid.size * inp.sizes.mc_draws,
        "link_analysis.outage_calls": len(inp.sweeps) * inp.grid.size,
    }


# --------------------------------------------------------------------- cli

@dataclass(frozen=True)
class CliStep:
    op: str
    command: str
    argv: tuple
    out: Path
    sweep: object = None
    condition: str | None = None


def cli_plan(inp, outdir: Path, samples: Path) -> list:
    """The five subcommands in pipeline order, each writing with --out into outdir."""
    r_min, r_max, step = inp.sizes.grid
    grid = ("--rmin", repr(r_min), "--rmax", repr(r_max), "--step", repr(step))
    plan = [
        CliStep(f"los-prob:{sc.name}", "los-prob",
                ("los-prob", "--db", str(sc.path), f"--tx={sc.tx.x!r},{sc.tx.y!r},{sc.tx.z!r}") + grid,
                outdir / f"curve_{sc.name}.csv")
        for sc in inp.scenes
    ]
    plan.append(CliStep("fit-plos", "fit-plos",
                        ("fit-plos",) + tuple(str(outdir / f"curve_{sc.name}.csv") for sc in inp.scenes),
                        outdir / "fits.json"))
    # one 28 GHz close-in and one 73 GHz floating-intercept model
    sweeps = {"a": inp.sweeps[0], "b": inp.sweeps[-1]}

    def model_args(sw):
        return ("--preset", sw.preset, "--nlos", sw.nlos,
                "--dbp", repr(sw.p_los.d_bp_m), "--alpha", repr(sw.p_los.alpha_m))

    for tag, sw in sweeps.items():
        plan.append(CliStep(f"pathloss:{tag}", "pathloss", ("pathloss",) + model_args(sw) + grid,
                            outdir / f"pathloss_{tag}.csv", sweep=sw))
    plan.append(CliStep("fit:close-in", "fit",
                        ("fit", str(samples), "--model", "close-in", "--condition", "NLOS",
                         "--frequency", "28e9"),
                        outdir / "fit_close_in.json", condition="NLOS"))
    plan.append(CliStep("fit:floating", "fit",
                        ("fit", str(samples), "--model", "floating", "--condition", "LOS"),
                        outdir / "fit_floating.json", condition="LOS"))
    for tag, sw in sweeps.items():
        plan.append(CliStep(f"outage:{tag}", "outage",
                            ("outage",) + model_args(sw) + grid
                            + ("--threshold", repr(sw.threshold_db),
                               "--monte-carlo", str(inp.sizes.mc_draws), "--seed", str(sw.mc_seed)),
                            outdir / f"outage_{tag}.csv", sweep=sw))
    return plan


def cli_round(inp, ctx, tr) -> Round:
    rnd = Round(probe=ctx["probe"])
    for step in ctx["plan"]:
        argv = [sys.executable, "-m", "mmwpl", *step.argv, "--out", str(step.out)]
        rnd.probe.tick()
        t0 = perf_counter()
        try:
            with tr.span(f"cli.exec.{step.command}"):
                proc = subprocess.run(argv, cwd=env.ROOT, env=ctx["env"], capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rnd.errors[step.op] = f"no exit within {CLI_TIMEOUT_S} s"
            continue
        dt = perf_counter() - t0
        if proc.returncode != 0 or proc.stderr:
            rnd.errors[step.op] = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
            continue
        rnd.op_s[step.op] = rnd.latency_s[step.op] = [(t0, dt)]
        rnd.outputs[step.op] = rnd.payload[step.op] = step.out.read_bytes()
    return rnd


def cli_counts(inp, payload) -> dict:
    return {"cli.bytes_written": sum(len(v) for v in payload.values())}


def cli_probes(ctx, repeats: int = 5) -> tuple[dict, Round]:
    """Interpreter and import floors, and each subcommand run in-process through cli.main.

    The in-process outputs must equal what the subprocesses wrote.
    """
    times = {"pass": [], "import mmwpl": []}
    for _ in range(repeats):
        for code in times:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=env.ROOT, env=ctx["env"], check=True,
                           timeout=CLI_TIMEOUT_S)
            times[code].append(perf_counter() - t0)
    interpreter = float(np.median(times["pass"]))
    layers = {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (float(np.median(times["import mmwpl"])) - interpreter) * 1e3,
    }
    rnd = Round(traced=True)
    tr = Tracer()
    for step in ctx["inproc_plan"]:
        with tr.span(f"cli.{step.command.replace('-', '_')}"):
            code = _record(rnd, f"inproc:{step.op}", lambda: mmwpl_cli.main([*step.argv, "--out", str(step.out)]))
        if code == 0:
            rnd.outputs[f"inproc:{step.op}"] = rnd.payload[f"inproc:{step.op}"] = step.out.read_bytes()
        elif code is not None:
            rnd.errors[f"inproc:{step.op}"] = f"exit {code}"
    for name, seconds in tr.drain().items():
        layers[f"{name}_ms"] = seconds * 1e3
    return layers, rnd


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    run_round: object
    check: object  # (inputs, context, first round's payload) -> {op id: reason}
    counts: object
    tail: float  # percentile of the latency operation reported as *_tail
    min_rounds: int  # enough rounds that the tail has ten samples beyond it
    op: str  # what ops_per_s counts
    latency_op: str  # what latency_us_* times
    rss: int = resource.RUSAGE_SELF


WORKLOADS = {
    "raytrace": Workload("raytrace", raytrace_round, checks.check_raytrace, raytrace_counts,
                         tail=99.0, min_rounds=2,
                         op="LOS curve", latency_op="is_los query"),
    "model": Workload("model", model_round, checks.check_model, model_counts, tail=87.5, min_rounds=5,
                      op="link sweep", latency_op="LOS-model fit"),
    "cli": Workload("cli", cli_round, checks.check_cli, cli_counts, tail=72.0, min_rounds=3,
                    op="CLI invocation", latency_op="CLI invocation", rss=resource.RUSAGE_CHILDREN),
}


def peak_rss_mb(w: Workload) -> float:
    return resource.getrusage(w.rss).ru_maxrss / 1024.0
