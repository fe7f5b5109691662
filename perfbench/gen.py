"""Seeded inputs for the benchmark workloads.

Each part of the input (transmitters, queries, synthetic curves, scatter,
link sweeps) draws from its own stream spawned from the one seed, so the same
seed always gives the same inputs and resizing one part leaves the others as
they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mmwpl import (
    PRESETS,
    BuildingDB,
    LosProbabilityCurve,
    LosProbParams,
    Point3,
    fspl_at_reference,
    load_building_db,
    p_los_model,
    radius_grid,
)
from mmwpl import demo

SCENES = ("slab", "avenue", "crosstown", "plaza", "tower")
# Transmitters and receivers stay this far from every wall and roof, so no
# generated ray starts or ends on a face.
CLEARANCE_M = 0.1
# Transmitters are drawn over the central square of this half-width; each
# scene's buildings reach past it, so every circle up to 200 m meets some.
AREA_HALF_WIDTH_M = 150.0
STREET_TX_HEIGHT_M = (2.0, 10.0)
RX_HEIGHT_M = 1.5
QUERY_DISTANCE_M = (10.0, 200.0)
# Binomial quantisation of the synthetic LOS curves: n receivers per radius.
CURVE_POSITIONS = 100
# Share of scatter rows written with an empty path loss field, which
# samples_from_csv must skip.
EMPTY_ROW_SHARE = 0.02


@dataclass(frozen=True)
class Sizes:
    """How much work one round of each workload does."""

    grid: tuple = (10.0, 200.0, 1.0)  # r_min, r_max, step: the package default
    queries_per_scene: int = 200
    # Each round runs every query this many times, spread between the curves,
    # and every fit this many times, spread between the link sweeps, so the
    # median of each short operation rests on many samples.
    query_passes: int = 2
    fit_passes: int = 2
    oracle_rays: int = 4  # per scene, on the checked circle and among the queries
    fits: int = 16
    exact_fits: int = 2  # noise-free, integer parameters: must come back exactly
    boundary_fits: int = 4  # optimum beyond the 1-200 m search grid
    scatter_rows: int = 2000
    # Monte Carlo draws per grid distance, in the library sweeps and in the CLI
    # outage runs: the README's documented `outage --monte-carlo 100000`.
    mc_draws: int = 100000


DEFAULT = Sizes()
TINY = Sizes(
    grid=(10.0, 200.0, 10.0), queries_per_scene=3, oracle_rays=1, fits=3, exact_fits=1,
    boundary_fits=1, scatter_rows=40, mc_draws=500,
)


@dataclass(frozen=True)
class SceneInputs:
    name: str
    path: Path
    db: BuildingDB
    tx: Point3
    check_radius: int  # index into the radius grid of the circle checked ray by ray
    ray_order: tuple  # circle positions in the order the oracle checks them
    queries: tuple  # (tx, rx) Point3 pairs
    oracle_queries: tuple  # indices of queries checked against the oracle


@dataclass(frozen=True)
class SyntheticCurve:
    curve: LosProbabilityCurve
    truth: LosProbParams
    kind: str  # "exact", "boundary" or "noisy"


@dataclass(frozen=True)
class LinkSweep:
    preset: str
    nlos: str
    p_los: LosProbParams
    threshold_db: float
    mc_seed: int


@dataclass(frozen=True)
class Inputs:
    seed: int
    sizes: Sizes
    scenes: tuple
    synthetic: tuple
    scatter_csv: str
    scatter_rows: int  # rows with a path loss value
    sweeps: tuple

    @property
    def grid(self) -> np.ndarray:
        return radius_grid(*self.sizes.grid)


def _clear(db: BuildingDB, p: np.ndarray) -> bool:
    if len(db) == 0:
        return True
    inside = (p > db.min_array - CLEARANCE_M) & (p < db.max_array + CLEARANCE_M)
    return not inside.all(axis=1).any()


def _point(v) -> Point3:
    # millimetre coordinates print and parse back exactly on the CLI
    return Point3(*(round(float(c), 3) for c in v))


def _street_tx(db: BuildingDB, rng: np.random.Generator) -> Point3:
    while True:
        x, y = rng.uniform(-AREA_HALF_WIDTH_M, AREA_HALF_WIDTH_M, 2)
        p = _point((x, y, rng.uniform(*STREET_TX_HEIGHT_M)))
        if _clear(db, p.to_array()):
            return p


def _street_rx(db: BuildingDB, tx: Point3, rng: np.random.Generator) -> Point3:
    while True:
        d = rng.uniform(*QUERY_DISTANCE_M)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = _point((tx.x + d * np.cos(theta), tx.y + d * np.sin(theta), RX_HEIGHT_M))
        if _clear(db, p.to_array()):
            return p


def _scene(name: str, sizes: Sizes, n_radii: int, rng: np.random.Generator) -> SceneInputs:
    path = demo.scene_path(name)
    db = load_building_db(path)
    db.min_array, db.max_array  # fill the cached corner arrays before timing
    tx = _street_tx(db, rng)
    queries = []
    for _ in range(sizes.queries_per_scene):
        a = _street_tx(db, rng)
        queries.append((a, _street_rx(db, a, rng)))
    n_oracle = min(sizes.oracle_rays, len(queries))
    return SceneInputs(
        name=name, path=path, db=db, tx=tx,
        check_radius=int(rng.integers(n_radii)),
        ray_order=tuple(int(i) for i in rng.permutation(CURVE_POSITIONS)),
        queries=tuple(queries),
        oracle_queries=tuple(int(i) for i in rng.choice(len(queries), n_oracle, replace=False)),
    )


def _synthetic(sizes: Sizes, radii: np.ndarray, rng: np.random.Generator) -> tuple:
    out = []
    for i in range(sizes.fits):
        if i < sizes.exact_fits:
            truth = LosProbParams(float(rng.integers(12, 61)), float(rng.integers(20, 151)))
            p = p_los_model(radii, truth)
            kind = "exact"
        else:
            if i < sizes.exact_fits + sizes.boundary_fits:
                # decay far past 200 m: the fit's refinement walks to its last round
                truth = LosProbParams(rng.uniform(10.0, 40.0), rng.uniform(300.0, 600.0))
                kind = "boundary"
            else:
                truth = LosProbParams(rng.uniform(10.0, 60.0), rng.uniform(20.0, 150.0))
                kind = "noisy"
            p = rng.binomial(CURVE_POSITIONS, p_los_model(radii, truth)) / CURVE_POSITIONS
        curve = LosProbabilityCurve(radii, p, np.ones(radii.size, dtype=bool))
        out.append(SyntheticCurve(curve, truth, kind))
    return tuple(out)


def _scatter(sizes: Sizes, rng: np.random.Generator) -> tuple[str, int]:
    preset = PRESETS["28GHz-NYC"]
    fspl = fspl_at_reference(preset.frequency_hz)
    rows = ["d_m,pl_db,condition"]
    kept = 0
    for i in range(sizes.scatter_rows):
        d = round(float(10.0 ** rng.uniform(1.0, np.log10(500.0))), 2)
        # the first rows fix both subsets at two or more distinct distances
        los = i < 2 or (i >= 4 and rng.uniform() < 0.3)
        model = preset.los if los else preset.nlos_close_in
        pl = fspl + 10.0 * model.exponent * np.log10(d) + rng.normal(0.0, model.shadow_std_db)
        condition = "LOS" if los else "NLOS"
        if i >= 4 and rng.uniform() < EMPTY_ROW_SHARE:
            rows.append(f"{d!r},,{condition}")
            continue
        rows.append(f"{d!r},{round(float(pl), 3)!r},{condition}")
        kept += 1
    return "\n".join(rows) + "\n", kept


def _sweeps(rng: np.random.Generator) -> tuple:
    """One seeded link model per preset and NLOS family."""
    return tuple(
        LinkSweep(
            preset=preset,
            nlos=nlos,
            p_los=LosProbParams(round(rng.uniform(15.0, 40.0), 1), round(rng.uniform(30.0, 100.0), 1)),
            threshold_db=round(rng.uniform(115.0, 140.0), 1),
            mc_seed=int(rng.integers(2**31)),
        )
        for preset in sorted(PRESETS)
        for nlos in ("close-in", "floating")
    )


def generate(seed: int, sizes: Sizes = DEFAULT) -> Inputs:
    """All inputs of every workload for one seed."""
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(SCENES) + 3)]
    radii = radius_grid(*sizes.grid)
    scenes = tuple(
        _scene(name, sizes, radii.size, rng) for name, rng in zip(SCENES, streams)
    )
    scatter_csv, scatter_rows = _scatter(sizes, streams[-2])
    return Inputs(
        seed=seed,
        sizes=sizes,
        scenes=scenes,
        synthetic=_synthetic(sizes, radii, streams[-3]),
        scatter_csv=scatter_csv,
        scatter_rows=scatter_rows,
        sweeps=_sweeps(streams[-1]),
    )
