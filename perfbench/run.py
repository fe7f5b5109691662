"""mmwpl benchmark: one command for the raytrace, model and cli workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload raytrace --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of the workload, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the checkout
lacks the sources to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import env
import probe

# Per-layer metrics: name -> (unit, span whose self time gives it, or None for
# counts and probes).  Times are per round of the workload that owns the layer.
PER_LAYER = {
    "geometry.parse_ms": ("ms", None),
    "geometry.is_los_calls": ("count", None),
    "geometry.is_los_self_ms": ("ms", "geometry.is_los"),
    "los_probability.curve_self_ms": ("ms", "los_probability.curve"),
    "los_probability.rays": ("count", None),
    "los_probability.interior_dropped": ("count", None),
    "los_probability.useful_ray_share": ("ratio", None),
    "los_probability.ray_box_pairs": ("count", None),
    "los_probability.fit_self_ms": ("ms", "los_probability.fit"),
    "los_probability.fit_calls": ("count", None),
    "los_probability.fit_boundary_share": ("ratio", None),
    "los_probability.csv_ms": ("ms", "los_probability.csv"),
    "fitting.csv_parse_ms": ("ms", "fitting.csv_parse"),
    "fitting.rows": ("count", None),
    "fitting.fit_ms": ("ms", "fitting.fit"),
    "pathloss.hybrid_ms": ("ms", "pathloss.hybrid"),
    "pathloss.sample_ms": ("ms", "pathloss.sample"),
    "pathloss.draws": ("count", None),
    "link_analysis.outage_ms": ("ms", "link_analysis.outage"),
    "link_analysis.outage_calls": ("count", None),
    "link_analysis.coverage_ms": ("ms", "link_analysis.coverage"),
    "cli.interpreter_ms": ("ms", None),
    "cli.import_ms": ("ms", None),
    "cli.los_prob_ms": ("ms", None),
    "cli.fit_plos_ms": ("ms", None),
    "cli.pathloss_ms": ("ms", None),
    "cli.fit_ms": ("ms", None),
    "cli.outage_ms": ("ms", None),
    "cli.bytes_written": ("B", None),
    "trace.overhead_s": ("s", None),
}
# Set-ups before each round; setup_s is the median of them all.
SETUPS_PER_ROUND = 5
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_us_p50": "us",
    "latency_us_tail": "us",
}


def prepare(seed, sizes, workdir):
    """Generate the inputs and write the scatter CSV; not timed."""
    import gen

    inp = gen.generate(seed, sizes)
    (workdir / "samples.csv").write_text(inp.scatter_csv)
    return inp


def set_up() -> tuple[float, float]:
    """What mmwpl does before any workload: load the five bundled scenes.

    Returns when it started and the seconds it took.
    """
    import gen
    from mmwpl import demo, load_building_db

    t0 = perf_counter()
    for name in gen.SCENES:
        load_building_db(demo.scene_path(name))
    return t0, perf_counter() - t0


def context(inp, workdir, host_probe):
    import checks
    import workloads

    for sub in ("cli", "inproc"):
        (workdir / sub).mkdir(exist_ok=True)
    samples = workdir / "samples.csv"
    return {
        "probe": host_probe,
        "oracles": env.load_oracles(),
        "golden": checks.load_golden(),
        "env": env.child_env(),
        "plan": workloads.cli_plan(inp, workdir / "cli", samples),
        "inproc_plan": workloads.cli_plan(inp, workdir / "inproc", samples),
    }


def run_rounds(w, inp, ctx, seconds, min_rounds, tracer_for, between=None):
    """At least ``min_rounds`` whole rounds, then more while one as long as the
    longest so far still ends within ``seconds``; ``between`` runs outside the
    round before each."""
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < min_rounds or perf_counter() + max(r.wall_s for r in rounds) <= deadline:
        if between is not None:
            between()
        tr = tracer_for(len(rounds))
        t0 = perf_counter()
        with tr.span(f"round.{w.name}"):
            rnd = w.run_round(inp, ctx, tr)
        rnd.wall_s = perf_counter() - t0
        rnd.layers = tr.drain()
        rnd.traced = tr.enabled
        if rounds:
            rnd.payload = {}
        rounds.append(rnd)
    return rounds


def score(w, inp, ctx, rounds, reasons):
    """(attempted, failed) over all rounds; a failure's reason goes into ``reasons``."""
    first = rounds[0]
    bad = w.check(inp, ctx, first.payload)
    attempted = failed = 0
    for rnd in rounds:
        for op in set(rnd.outputs) | set(rnd.errors):
            attempted += 1
            reason = rnd.errors.get(op) or bad.get(op)
            if reason is None and rnd.outputs[op] != first.outputs.get(op):
                reason = "output differs from the first round"
            if reason is not None:
                failed += 1
                reasons.setdefault(f"{w.name} {op}", reason)
    return attempted, failed


def per_op(rounds, *timings: str) -> dict:
    """Each operation's median time over all its runs, scaled by the host-speed probe."""
    runs = {}
    for r in rounds:
        merged = {}
        for name in timings:
            merged.update(getattr(r, name))
        for op, samples in merged.items():
            runs.setdefault(op, []).extend(r.probe.scaled(op, t0, dt) for t0, dt in samples)
    return {op: median(times) for op, times in runs.items()}


def pass_s(rounds) -> float:
    """Seconds of one pass over the seeded work: every operation once, at its median time."""
    return sum(per_op(rounds, "op_s", "latency_s", "other_s").values())


def scaled_setup_s(host_probe, setups) -> float:
    """Median set-up time, scaled by the host-speed probe."""
    return median(host_probe.scaled("setup", t0, dt) for t0, dt in setups)


def end_to_end(w, rounds, setup_s, rss_mb):
    """Every round does the same work, so each operation's time is the median
    over all its runs, each run scaled by the host-speed probe; wall time is
    the sum of those over one pass of the work.  Throughput is operations over
    the sum of their times; p50 is the median over operations.  The tail is the
    percentile over operations when at least ten lie beyond it, else over every
    scaled run of the latency operations."""
    import numpy as np

    per_latency_op = np.array(list(per_op(rounds, "latency_s").values()))
    if per_latency_op.size * (1.0 - w.tail / 100.0) >= 10:
        tail_from, what = per_latency_op, "operations (median of their runs)"
    else:
        tail_from = np.array([r.probe.scaled(op, t0, dt) for r in rounds
                              for op, samples in r.latency_s.items() for t0, dt in samples])
        what = "runs"
    op_s = per_op(rounds, "op_s")
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_s(rounds),
        "peak_rss_mb": rss_mb,
        "ops_per_s": len(op_s) / sum(op_s.values()),
        "latency_us_p50": float(np.median(per_latency_op)) * 1e6,
        "latency_us_tail": float(np.percentile(tail_from, w.tail)) * 1e6,
    }
    return metrics, f"tail = p{w.tail:g} of {tail_from.size} {what}"


def raw_note(rounds, host_probe, setups) -> str:
    """The unscaled figures behind the scaled ones."""
    raw = {}
    for r in rounds:
        for name in ("op_s", "latency_s", "other_s"):
            for op, samples in getattr(r, name).items():
                raw.setdefault(op, []).extend(dt for _t0, dt in samples)
    probes = "; ".join(f"'{prefix}' ops: {host_probe.summary(prefix)}" for prefix in host_probe.groups)
    return (f"unscaled: one pass {sum(median(v) for v in raw.values()):.4f} s, "
            f"set-up {median(dt for _t0, dt in setups) * 1e3:.4f} ms; {probes}")


def untraced(name, inp, ctx, seconds, between, setups):
    import workloads
    from spans import NULL

    w = workloads.WORKLOADS[name]
    rounds = run_rounds(w, inp, ctx, seconds, w.min_rounds, lambda i: NULL, between=between)
    rss = workloads.peak_rss_mb(w)
    reasons = {}
    attempted, failed = score(w, inp, ctx, rounds, reasons)
    metrics, tail_note = end_to_end(w, rounds, scaled_setup_s(ctx["probe"], setups), rss)
    notes = [
        f"{len(rounds)} rounds, {len(setups)} set-ups; ops_per_s counts {w.op}s; "
        f"latency is per {w.latency_op}, {tail_note}",
        raw_note(rounds, ctx["probe"], setups),
    ]
    return metrics, END_TO_END, attempted, failed, reasons, notes


def traced(name, inp, ctx, seconds, between, setups):
    """Per-layer metrics: the named workload alternates untraced and traced rounds
    for the whole window; every other workload runs one traced round, so every
    layer is measured in every traced run."""
    import workloads
    from spans import NULL, Tracer

    layers = {}
    attempted = failed = 0
    reasons = {}
    notes = []
    for wname, w in workloads.WORKLOADS.items():
        if wname == name:
            rounds = run_rounds(w, inp, ctx, seconds, max(w.min_rounds, 2),
                                lambda i: Tracer() if i % 2 else NULL, between=between)
        else:
            rounds = run_rounds(w, inp, ctx, 0, 1, lambda i: Tracer())
        a, f = score(w, inp, ctx, rounds, reasons)
        attempted += a
        failed += f
        traced_rounds = [r for r in rounds if r.traced]
        for metric, (_unit, span) in PER_LAYER.items():
            if span is not None and span in traced_rounds[0].layers:
                layers[metric] = median(r.layers[span] for r in traced_rounds) * 1e3
        layers.update(w.counts(inp, rounds[0].payload))
        if wname == name:
            plain = pass_s([r for r in rounds if not r.traced])
            layers["trace.overhead_s"] = pass_s(traced_rounds) - plain
            notes.append(f"{len(rounds)} rounds of {name}, half traced; untraced wall_s {plain:.4f}")
        if wname == "cli":
            probes, inproc = workloads.cli_probes(ctx)
            layers.update(probes)
            for op in inproc.outputs.keys() | inproc.errors.keys():
                attempted += 1
                reason = inproc.errors.get(op)
                if reason is None and inproc.outputs[op] != rounds[0].outputs.get(op.split(":", 1)[1]):
                    reason = "in-process cli.main output differs from the subprocess output"
                if reason is not None:
                    failed += 1
                    reasons.setdefault(f"cli {op}", reason)
    layers["geometry.parse_ms"] = median(dt for _t0, dt in setups) * 1e3
    units = {metric: unit for metric, (unit, _span) in PER_LAYER.items()}
    return layers, units, attempted, failed, reasons, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["raytrace", "model", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_checkout_sources()
    except env.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import gen

    env.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=env.SCRATCH))
    host_probe = probe.Probe(args.workload)
    setups = []  # (start, seconds) of each set-up: some at the start, then some before each round

    def between():
        for _ in range(SETUPS_PER_ROUND):
            host_probe.tick()
            setups.append(set_up())

    try:
        between()
        inp = prepare(args.seed, gen.DEFAULT, workdir)
        ctx = context(inp, workdir, host_probe)
        measure = traced if args.trace else untraced
        result = measure(args.workload, inp, ctx, args.seconds, between, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            env.SCRATCH.rmdir()
        except OSError:
            pass
    metrics, units, attempted, failed, reasons, notes = result
    for reason in list(reasons.items())[:20]:
        print("failed: %s: %s" % reason, file=sys.stderr)
    for note in notes:
        print(f"# {args.workload}: {note}")
    for metric, value in metrics.items():
        print(f"{args.workload} {metric} {value:.6g} {units[metric]}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
