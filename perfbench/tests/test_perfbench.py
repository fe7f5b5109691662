"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import env
import gen
import probe
import run
import workloads
from mmwpl import LosProbabilityCurve, curve_from_csv, curve_to_csv
from spans import NULL

SEED = 3


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    inp = run.prepare(SEED, gen.TINY, workdir)
    return inp, run.context(inp, workdir, probe.Probe("model"))


def one_round(name, inp, ctx):
    return run.run_rounds(workloads.WORKLOADS[name], inp, ctx, 0, 1, lambda i: NULL)[0]


def fingerprint(inp):
    return (
        [(sc.tx, sc.queries, sc.check_radius, sc.ray_order, sc.oracle_queries) for sc in inp.scenes],
        [(s.truth, s.kind, s.curve.p_los.tobytes()) for s in inp.synthetic],
        inp.scatter_csv,
        inp.sweeps,
    )


def test_generator_is_deterministic_per_seed():
    a, b, c = (gen.generate(s, gen.TINY) for s in (SEED, SEED, SEED + 1))
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


def test_transmitters_and_receivers_lie_outside_buildings():
    inp = gen.generate(SEED, gen.TINY)
    for sc in inp.scenes:
        points = [sc.tx] + [p for pair in sc.queries for p in pair]
        assert all(gen._clear(sc.db, p.to_array()) for p in points)


def test_set_up_loads_the_scenes():
    t0, seconds = run.set_up()
    assert t0 > 0 and seconds > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_clean_at_tiny_size(tiny, name):
    inp, ctx = tiny
    w = workloads.WORKLOADS[name]
    rounds = run.run_rounds(w, inp, ctx, 0, 2, lambda i: NULL)
    reasons = {}
    attempted, failed = run.score(w, inp, ctx, rounds, reasons)
    assert attempted > 0
    assert failed == 0, reasons
    metrics, _ = run.end_to_end(w, rounds, 0.01, workloads.peak_rss_mb(w))
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric(tiny):
    inp, ctx = tiny
    layers, units, attempted, failed, reasons, _ = run.traced("model", inp, ctx, 0, None, [(0.0, 0.001)])
    assert failed == 0, reasons
    assert set(layers) == set(run.PER_LAYER) == set(units)


def test_checker_flags_corrupted_curve(tiny):
    inp, ctx = tiny
    payload = one_round("raytrace", inp, ctx).payload
    sc = inp.scenes[-1]
    op = f"curve:{sc.name}"
    curve, back = payload[op]
    golden = {"sizes": repr(inp.sizes),
              "seeds": {str(SEED): {"curves": {s.name: checks.curve_digest(payload[f"curve:{s.name}"][0])
                                               for s in inp.scenes}}}}
    assert checks.check_raytrace(inp, {**ctx, "golden": golden}, payload) == {}

    p, valid = curve.p_los.copy(), curve.valid.copy()
    p[sc.check_radius], valid[sc.check_radius] = 0.123, True
    corrupted = LosProbabilityCurve(curve.radii_m, p, valid)
    corrupted_back = curve_from_csv(curve_to_csv(corrupted))
    bad = checks.check_raytrace(inp, {**ctx, "golden": golden}, {**payload, op: (corrupted, corrupted_back)})
    assert set(bad) == {op}
    # without a recorded digest the ray-by-ray check of that radius still catches it
    bad = checks.check_raytrace(inp, ctx, {**payload, op: (corrupted, corrupted_back)})
    assert set(bad) == {op}
    # and a CSV that does not parse back to the curve is caught on its own
    bad = checks.check_raytrace(inp, ctx, {**payload, op: (curve, corrupted_back)})
    assert set(bad) == {op}


def test_probe_scales_samples_by_the_probe_time_near_them():
    p = probe.Probe("model")
    small = p.groups[""][0]
    block = [k for k in p.groups["fit:"][0] if k not in small]
    p.at = [10.0, 10.5, 11.0, 20.0]
    # the small kernels take 1 s in all; the fit's block 1 s, then 5 s at t = 20
    p.seconds = [{**dict.fromkeys(small, 1.0 / len(small)), **dict.fromkeys(block, b)} for b in (1, 1, 1, 5)]
    n = p.groups["fit:"][1]
    assert p.scaled("fit:3", 10.4, 0.2) == pytest.approx(0.2 * n / 2)  # three probes within the window
    assert p.scaled("fit:3", 19.9, 0.2) == pytest.approx(0.2 * n / 6)  # host slower there
    assert p.scaled("fit:3", 15.0, 0.2) == pytest.approx(0.2 * n / 2)  # none within: the closest
    assert p.scaled("fit:3", 17.0, 0.2) == pytest.approx(0.2 * n / 6)
    n = p.groups[""][1]  # other operations use the small kernels alone
    assert p.scaled("sweep:0", 19.9, 0.2) == pytest.approx(0.2 * n)
    p.tick()
    p.tick()  # within every_s of the last: does not run
    assert len(p.seconds) == 5 and all(t > 0 for t in p.seconds[-1].values())


def test_short_operations_repeat_between_the_long_ones():
    assert workloads._after(5, 2) == {2, 4}
    assert workloads._after(4, 2) == {1, 3}
    assert workloads._after(5, 1) == {4}


def test_repeated_operation_answering_differently_fails():
    rnd = workloads.Round()
    workloads._keep(rnd, "los:a:0", True)
    workloads._keep(rnd, "los:a:0", True)
    assert rnd.errors == {}
    workloads._keep(rnd, "los:a:0", False)
    assert set(rnd.errors) == {"los:a:0"}


def test_checker_flags_wrong_los_query(tiny):
    inp, ctx = tiny
    payload = one_round("raytrace", inp, ctx).payload
    op = f"los:{inp.scenes[1].name}:0"
    bad = checks.check_raytrace(inp, ctx, {**payload, op: not payload[op]})
    assert set(bad) == {op}


def test_checker_flags_corrupted_fit(tiny):
    inp, ctx = tiny
    payload = one_round("model", inp, ctx).payload
    assert checks.check_model(inp, ctx, payload) == {}
    bp, alpha, mse = payload["fit:0"]
    assert set(checks.check_model(inp, ctx, {**payload, "fit:0": (bp + 1.0, alpha, mse)})) == {"fit:0"}
    golden = {"sizes": repr(inp.sizes),
              "seeds": {str(SEED): {"fit_mse": [payload[f"fit:{i}"][2] for i in range(len(inp.synthetic))]}}}
    golden["seeds"][str(SEED)]["fit_mse"][1] /= 2.0
    assert set(checks.check_model(inp, {**ctx, "golden": golden}, payload)) == {"fit:1"}
    mean, sigma, outage, coverage, mc = payload["sweep:0"]
    wrong = [o * 1.001 for o in outage]
    assert set(checks.check_model(inp, ctx, {**payload, "sweep:0": (mean, sigma, wrong, coverage, mc)})) \
        == {"sweep:0"}


def test_checker_flags_corrupted_cli_output(tiny):
    inp, ctx = tiny
    expected = checks.expected_cli_outputs(inp, ctx["plan"])
    assert checks.check_cli(inp, ctx, expected) == {}
    for op in ("los-prob:tower", "fit-plos", "outage:a"):
        data = bytearray(expected[op])
        data[-2] ^= 1
        assert set(checks.check_cli(inp, ctx, {**expected, op: bytes(data)})) == {op}


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raytrace", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

