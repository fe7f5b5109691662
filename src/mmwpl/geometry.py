"""3-D urban scene geometry: axis-aligned building boxes and line-of-sight tests.

All coordinates are local Cartesian meters with the ground plane at z = 0.
Building databases loaded from geographic coordinates are projected onto a
local tangent plane around a caller-supplied origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Tolerance for boundary classification, in meters.  A point within EPSILON of
# a face counts as outside; a segment within EPSILON of a face counts as
# blocked.  The two conventions together keep occlusion conservative.
EPSILON = 1e-9

EARTH_RADIUS_M = 6371000.0


class BuildingDBError(ValueError):
    """A building database document failed to parse or validate."""


class PointInsideBuildingError(ValueError):
    """A transmitter or receiver position lies strictly inside a building."""

    def __init__(self, point: "Point3", building_index: int):
        super().__init__(
            f"point ({point.x:g}, {point.y:g}, {point.z:g}) is strictly inside "
            f"building {building_index}"
        )
        self.point = point
        self.building_index = building_index


@dataclass(frozen=True)
class Point3:
    """A position in local Cartesian coordinates, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"coordinates must be finite numbers, got {v!r}")

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class Box3:
    """An axis-aligned building footprint extruded in z.

    Corners must satisfy min < max on every axis and the base may not sit
    below ground level.
    """

    min_corner: Point3
    max_corner: Point3

    def __post_init__(self):
        lo, hi = self.min_corner, self.max_corner
        if not (lo.x < hi.x and lo.y < hi.y and lo.z < hi.z):
            raise ValueError(
                "degenerate box: min corner must be strictly below max corner "
                f"on every axis, got min=({lo.x:g}, {lo.y:g}, {lo.z:g}) "
                f"max=({hi.x:g}, {hi.y:g}, {hi.z:g})"
            )
        if lo.z < 0:
            raise ValueError(f"box base height must be >= 0, got {lo.z:g}")


@dataclass(frozen=True)
class TxSite:
    """A transmitter location.

    Latitude and longitude are descriptive metadata; all geometry runs on the
    local Cartesian position.
    """

    site_id: str
    position: Point3
    latitude: float | None = None
    longitude: float | None = None


@dataclass(frozen=True)
class BuildingDB:
    """An immutable, ordered collection of building boxes."""

    name: str
    buildings: tuple[Box3, ...]
    origin_latlon: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "buildings", tuple(self.buildings))

    def __len__(self) -> int:
        return len(self.buildings)

    @cached_property
    def min_array(self) -> np.ndarray:
        """Stacked min corners, shape (n_buildings, 3)."""
        return np.array([b.min_corner.to_array() for b in self.buildings]).reshape(-1, 3)

    @cached_property
    def max_array(self) -> np.ndarray:
        """Stacked max corners, shape (n_buildings, 3)."""
        return np.array([b.max_corner.to_array() for b in self.buildings]).reshape(-1, 3)


def latlon_to_local(
    lat_deg: float, lon_deg: float, origin_lat_deg: float, origin_lon_deg: float
) -> tuple[float, float]:
    """Project geographic coordinates onto the local tangent plane.

    Equirectangular projection anchored at the origin: adequate over the few
    hundred meters a scene spans.  Returns (x, y) in meters, x pointing east
    and y pointing north.
    """
    x = EARTH_RADIUS_M * math.radians(lon_deg - origin_lon_deg) * math.cos(
        math.radians(origin_lat_deg)
    )
    y = EARTH_RADIUS_M * math.radians(lat_deg - origin_lat_deg)
    return x, y


def _reject_constant(name: str):
    raise BuildingDBError(f"non-finite numeric literal {name!r} in building DB")


def _coerce_corner(value, what: str) -> Point3:
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


def parse_building_db(text: str) -> BuildingDB:
    """Parse a building database document.

    The document is JSON with fields ``name``, optional ``origin`` (a
    ``{"lat": ..., "lon": ...}`` anchor for geographic ingest) and
    ``buildings``, a list of ``{"min": [x, y, z], "max": [x, y, z]}`` boxes in
    meters.  Non-finite numbers are rejected.

    Raises:
        BuildingDBError: on malformed JSON, missing fields, degenerate boxes
            or boxes below ground level.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
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
        lo = _coerce_corner(entry["min"], f"building {i} 'min'")
        hi = _coerce_corner(entry["max"], f"building {i} 'max'")
        try:
            boxes.append(Box3(lo, hi))
        except ValueError as exc:
            raise BuildingDBError(f"building {i}: {exc}") from None
    return BuildingDB(name=doc["name"], buildings=tuple(boxes), origin_latlon=origin)


def load_building_db(path) -> BuildingDB:
    """Read and parse a building database file."""
    return parse_building_db(Path(path).read_text())


def _canonical_order(starts: np.ndarray, ends: np.ndarray):
    # Order each endpoint pair lexicographically so that swapping a and b
    # follows the exact same float path.  Makes the intersection test
    # symmetric by construction.
    swap = ends[:, 0] < starts[:, 0]
    eq = ends[:, 0] == starts[:, 0]
    swap |= eq & (ends[:, 1] < starts[:, 1])
    eq &= ends[:, 1] == starts[:, 1]
    swap |= eq & (ends[:, 2] < starts[:, 2])
    s = np.where(swap[:, None], ends, starts)
    e = np.where(swap[:, None], starts, ends)
    return s, e


def _segments_hit_box(
    starts: np.ndarray, deltas: np.ndarray, box_min: np.ndarray, box_max: np.ndarray
) -> np.ndarray:
    """Slab test of many segments against one box padded by EPSILON.

    Closed-set convention: touching a face or edge counts as a hit.
    """
    n = starts.shape[0]
    t_lo = np.zeros(n)
    t_hi = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for k in range(3):
        p = starts[:, k]
        d = deltas[:, k]
        lo = box_min[k] - EPSILON
        hi = box_max[k] + EPSILON
        parallel = d == 0.0
        ok &= ~parallel | ((p >= lo) & (p <= hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - p) / d
            t2 = (hi - p) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        t_lo = np.where(parallel, t_lo, np.maximum(t_lo, near))
        t_hi = np.where(parallel, t_hi, np.minimum(t_hi, far))
    return ok & (t_lo <= t_hi)


def _segments_blocked(
    starts: np.ndarray, ends: np.ndarray, min_array: np.ndarray, max_array: np.ndarray
) -> np.ndarray:
    """True per segment when any box occludes it.  Arrays are (n, 3)."""
    starts, ends = _canonical_order(starts, ends)
    deltas = ends - starts
    blocked = np.zeros(starts.shape[0], dtype=bool)
    for b in range(min_array.shape[0]):
        open_idx = ~blocked
        if not open_idx.any():
            break
        blocked[open_idx] = _segments_hit_box(
            starts[open_idx], deltas[open_idx], min_array[b], max_array[b]
        )
    return blocked


def segment_intersects_box(a: Point3, b: Point3, box: Box3) -> bool:
    """Test whether the closed segment from a to b meets the closed box.

    Tangency counts as an intersection.  Symmetric in a and b.

    Raises:
        ValueError: when the endpoints coincide.
    """
    if (a.x, a.y, a.z) == (b.x, b.y, b.z):
        raise ValueError("segment endpoints coincide")
    rows = (v.to_array()[None, :] for v in (a, b, box.min_corner, box.max_corner))
    return bool(_segments_blocked(*rows)[0])


def _strictly_inside(points: np.ndarray, box_min: np.ndarray, box_max: np.ndarray) -> np.ndarray:
    """Strict containment with an EPSILON margin, reduced over the last axis."""
    return ((points > box_min + EPSILON) & (points < box_max - EPSILON)).all(axis=-1)


def points_strictly_inside(db: BuildingDB, points: np.ndarray) -> np.ndarray:
    """Boolean mask over points (n, 3) that lie strictly inside some building."""
    inside = np.zeros(points.shape[0], dtype=bool)
    for box_min, box_max in zip(db.min_array, db.max_array):
        inside |= _strictly_inside(points, box_min, box_max)
    return inside


def find_containing_building(db: BuildingDB, p: Point3) -> int | None:
    """Index of the first building strictly containing p, or None."""
    hits = np.nonzero(_strictly_inside(p.to_array(), db.min_array, db.max_array))[0]
    return int(hits[0]) if hits.size else None


def point_in_any_building(db: BuildingDB, p: Point3) -> bool:
    """True when p lies strictly inside some building; boundary is outside."""
    return find_containing_building(db, p) is not None


def is_los(db: BuildingDB, tx: Point3, rx: Point3) -> bool:
    """True when no building occludes the straight tx-rx segment.

    Raises:
        PointInsideBuildingError: when either endpoint is strictly inside a
            building.
        ValueError: when tx and rx coincide.
    """
    for endpoint in (tx, rx):
        idx = find_containing_building(db, endpoint)
        if idx is not None:
            raise PointInsideBuildingError(endpoint, idx)
    if (tx.x, tx.y, tx.z) == (rx.x, rx.y, rx.z):
        raise ValueError("tx and rx positions coincide")
    blocked = _segments_blocked(
        tx.to_array()[None, :], rx.to_array()[None, :], db.min_array, db.max_array
    )
    return not bool(blocked[0])
