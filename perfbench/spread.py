"""Run-to-run spread of the benchmark, written to ``perfbench/baseline.json``.

    python3 perfbench/spread.py

Runs ``run.py`` one run at a time with the ``run_seconds`` of BENCHMARK.json:
every workload once per seed for ten seeds, then five more runs of the first
seed, then one traced run per workload.  Workloads alternate within each
pass, so a slow spell of the host falls on all of them alike.  For every
end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
against the metric's bound, over the ten seeds and over the same-seed
repeats, with machine information before and after.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import env

BENCHMARK = env.ROOT / "BENCHMARK.json"
OUT = env.ROOT / "perfbench" / "baseline.json"
SEEDS = list(range(20, 30))
REPEATS = 5  # runs of SEEDS[0]: the host's share of the spread


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(runs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2,
            "bound": metric["bound"],
            "values": values,
        }
    return out


def machine() -> dict:
    info = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_average": os.getloadavg(),
    }
    import numpy

    info["numpy"] = numpy.__version__
    try:
        with open("/proc/cpuinfo") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        info["cpu"] = names[0] if names else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    return info


def report_spread(title: str, summary: dict) -> None:
    print(title)
    for metric, m in summary.items():
        flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
        print(f"  {metric:16s} median {m['median']:<12.6g} spread {m['spread']:.3f} (bound {m['bound']}) {flag}")


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"machine_before": machine(), "run_seconds": seconds, "seeds": SEEDS,
              "same_seed_repeats": REPEATS, "workloads": {}}
    seeded = {name: [] for name in names}
    repeated = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            seeded[name].append(run_once(name, seed, seconds, 0))
    for _ in range(REPEATS):
        for name in names:
            repeated[name].append(run_once(name, SEEDS[0], seconds, 0))
    for name in names:
        runs = seeded[name] + repeated[name]
        traced = run_once(name, SEEDS[0], seconds, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs),
            "metrics": summarize(seeded[name], spec),
            "same_seed": summarize(repeated[name], spec),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_failed": traced["failed"],
        }
        report["workloads"][name] = entry
        print(f"{name}: {len(runs)} runs, {entry['failed']} failed operations, "
              f"longest run {entry['run_s_max']:.1f} s")
        report_spread(f"  ten seeds {SEEDS[0]}-{SEEDS[-1]}:", entry["metrics"])
        report_spread(f"  seed {SEEDS[0]} {REPEATS} times:", entry["same_seed"])
    report["machine_after"] = machine()
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
