"""Host-speed probe: scales every timed sample to one fixed host speed.

The benchmark was built on a shared 2-core host that switches, for seconds to
minutes at a time, between a fast and a slow state.  The same code took up to
1.8 times as long in the slow state, and a 30 s run could fall wholly in
either, so raw timings of one commit spread by a third from run to run.

So each run also times a fixed probe: the benchmark's own small kernels, no
mmwpl code, run before a timed operation when none ran in the last
``every_s`` seconds.  A timed sample is reported as the time it would have
taken at the host speed at which its probe takes ``nominal_s``: its raw time
times ``nominal_s`` over the median probe time within ``WINDOW_S`` of the
sample's midpoint.  Since the probe never runs mmwpl code, a change to mmwpl
moves the scaled times as much as the raw ones.

Kinds of work slow down by different amounts in the slow state: tiny-array
numpy calls in a Python loop (the per-box slab test) about 1.8 times, plain
Python about 1.4 times.  So each kind of operation is scaled by kernels that
do the same kind of work: ``is_los`` queries and LOS curves by tiny-array
kernels, everything else by the sum of small kernels of every kind, and
LOS-model fits by that sum plus half a block of the fit's own grid search,
whose 5 MB arrays exceed the 4 MB L2 cache as the fit's do (either alone
tracked the fits less well).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

WINDOW_S = 1.0  # probe times within this distance of a sample's midpoint scale it

_rng = np.random.default_rng(20240611)
_STREAM = _rng.random(20000)
_SMALL = _rng.random(100)
_STARTS = _rng.uniform(-50.0, 50.0, (100, 3))
_DELTAS = _rng.uniform(-100.0, 100.0, (100, 3))
_BOX_MIN = _rng.uniform(-60.0, 40.0, (16, 3))
_BOX_MAX = _BOX_MIN + _rng.uniform(5.0, 30.0, (16, 3))
_GRID = np.linspace(1.0, 200.0, 200)
_RADII = np.sort(_rng.uniform(10.0, 200.0, 191))
_TARGET = _rng.random(191)
_DRAWS = np.random.default_rng(7)


def _interpreter():
    total = 0
    for i in range(10000):
        total += i * i
    return total


def _stream():
    x = _STREAM
    for _ in range(10):
        x = np.sqrt(x * x + 1.0)
    return x


def _small_arrays():
    hits = 0
    for _ in range(60):
        z = np.sqrt(_SMALL * _SMALL + 1.0)
        hits += bool((z > 1.2).any())
    return hits


def _slab_test():
    hit = np.zeros(len(_STARTS), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(_BOX_MIN)):
            t1 = (_BOX_MIN[k] - _STARTS) / _DELTAS
            t2 = (_BOX_MAX[k] - _STARTS) / _DELTAS
            near = np.minimum(t1, t2).max(axis=1)
            far = np.maximum(t1, t2).min(axis=1)
            hit |= (near <= far) & (far >= 0.0) & (near <= 1.0)
    return hit


def _text():
    rows = [f"{i * 0.5!r},{i * 1.25 + 0.1:.6f},{'LOS' if i % 3 else 'NLOS'}" for i in range(400)]
    return [line.split(",") for line in "\n".join(rows).splitlines()]


def _draws():
    return _DRAWS.normal(0.0, 8.0, 100000).mean()


def _broadcast():
    d = _GRID[:, None]
    scale = _GRID[None, :50]
    best = []
    for bp in (20.0, 60.0):
        p = np.minimum(bp / d, 1.0) * (1.0 - np.exp(-d / scale)) + np.exp(-d / scale)
        best.append(((p - 0.5) ** 2).mean(axis=0).argmin())
    return best


def _fit_block():
    """Half a block of the LOS-model fit's grid search: 16 breakpoints x 200 decays x 191 radii."""
    bp = _GRID[:16, None, None]
    decay = np.exp(-_RADII[None, None, :] / _GRID[None, :, None])
    ratio = np.minimum(bp / _RADII[None, None, :], 1.0)
    bracket = np.where(ratio >= 1.0, 1.0, ratio * (1.0 - decay) + decay)
    err = bracket * bracket - _TARGET
    return np.mean(err * err, axis=2).argmin()


_SMALL_KERNELS = (_interpreter, _stream, _small_arrays, _slab_test, _text, _draws, _broadcast)
_TINY_ARRAYS = (_small_arrays, _slab_test)

# workload -> (seconds between probes, {op id prefix: (kernels, nominal_s)}).
# The longest prefix an op id starts with picks its kernels; "" matches every
# op and the set-ups.  nominal_s is about the kernels' time in the fast state
# of the host the benchmark was built on and only sets the reported scale.
PROBES = {
    "raytrace": (0.1, {"": (_TINY_ARRAYS, 0.00066)}),
    "model": (0.25, {"": (_SMALL_KERNELS, 0.0045), "fit:": (_SMALL_KERNELS + (_fit_block,), 0.0095)}),
    "cli": (0.1, {"": (_SMALL_KERNELS, 0.0045)}),
}


class Probe:
    """Times one workload's probe kernels now and then, and scales samples by them."""

    def __init__(self, workload: str):
        self.every_s, self.groups = PROBES[workload]
        self.kernels = tuple(dict.fromkeys(k for kernels, _ in self.groups.values() for k in kernels))
        self.at: list[float] = []  # midpoint of each probe, perf_counter seconds
        self.seconds: list[dict] = []  # kernel -> its seconds, per probe
        self._due = 0.0

    def tick(self) -> None:
        """Run the probe if none ran in the last ``every_s`` seconds."""
        t0 = perf_counter()
        if t0 < self._due:
            return
        times = {}
        for kernel in self.kernels:
            start = perf_counter()
            kernel()
            times[kernel] = perf_counter() - start
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(times)
        self._due = t1 + self.every_s

    def group(self, op: str) -> tuple:
        """(kernels, nominal_s) that scale ``op``."""
        return self.groups[max((p for p in self.groups if op.startswith(p)), key=len)]

    def scaled(self, op: str, t0: float, dt: float) -> float:
        """``dt`` seconds of ``op`` that started at ``t0``, at the nominal host speed."""
        kernels, nominal_s = self.group(op)
        mid = t0 + dt / 2
        lo = bisect_left(self.at, mid - WINDOW_S)
        hi = bisect_right(self.at, mid + WINDOW_S)
        if lo == hi:  # none near: the closest probe
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            if lo + 1 < len(self.at) and abs(self.at[lo + 1] - mid) < abs(self.at[lo] - mid):
                lo += 1
            hi = lo + 1
        return dt * nominal_s / median(sum(t[k] for k in kernels) for t in self.seconds[lo:hi])

    def summary(self, op: str = "") -> str:
        """Probe times for ``op``'s kernels: count, min, median, max and nominal, in ms."""
        kernels, nominal_s = self.group(op)
        ms = sorted(sum(t[k] for k in kernels) * 1e3 for t in self.seconds)
        return (f"{len(ms)} probes, min {ms[0]:.3f} median {median(ms):.3f} max {ms[-1]:.3f} ms, "
                f"nominal {nominal_s * 1e3:g} ms")
