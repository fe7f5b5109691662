"""3-D urban scene geometry: axis-aligned building boxes and line-of-sight tests.

All coordinates are local Cartesian meters with the ground plane at z = 0.
A database may carry a geographic origin, which parsing only stores;
latlon_to_local projects coordinates onto the tangent plane around it.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

__all__ = [
    "Box3",
    "BuildingDB",
    "BuildingDBError",
    "Point3",
    "PointInsideBuildingError",
    "TxSite",
    "is_los",
    "latlon_to_local",
    "load_building_db",
    "parse_building_db",
    "point_in_any_building",
    "segment_intersects_box",
]

# Tolerance for boundary classification, in meters.  A point within EPSILON of
# a face counts as outside; a segment within EPSILON of a face counts as
# blocked.  The two conventions together keep occlusion conservative.
EPSILON = 1e-9

# Largest magnitude of a transmitter coordinate, and largest curve radius and
# receiver height, in meters: every receiver of a curve then lies within
# _MAX_REACH_M of the origin on each axis, and is_los takes endpoints that far.
_MAX_COORDINATE_M = 1e7
_MAX_REACH_M = 2 * _MAX_COORDINATE_M

# Margin by which the sector tracer grows and shrinks footprints, in meters:
# far above the EPSILON padding and the rounding of coordinates within 2e7 m.
_MARGIN = 1e-6

# Grid cells (receivers) traced together per block, which bounds a curve's
# working memory whatever the grid size, and (box, ray) pairs per chunk of
# the sector tracer's crossings, which bounds it whatever the box count.  The
# default 191-radius, 100-point curve is one block.
_RAYS_PER_BLOCK = 32768

EARTH_RADIUS_M = 6371000.0

# Largest building database parsed, in boxes, and largest input file read, in
# bytes: a 100,000-box city database is about 7 MB.
MAX_BUILDINGS = 500_000
MAX_INPUT_BYTES = 32 * 2**20

# Most JSON objects and arrays, keys and scalars (numbers, strings, true, false
# and null) a building database document may hold.  One of MAX_BUILDINGS
# buildings holds 1.5 million objects and arrays (one object and two arrays
# each), 1 million keys (each box's "min" and "max") and 3 million scalars
# (its corners); each cap is a third over that, which leaves room for one more
# field per box (1.5 million keys, 3.5 million scalars).  At a cap json.loads
# builds about 145 MB of empty objects, 230 MB of distinct keys or 250 MB of
# short strings, under the 316 MB peak of such a document whose coordinates
# have one decimal.
_MAX_CONTAINERS = 2_000_000
_MAX_KEYS = 2_000_000
_MAX_SCALARS = 4_000_000


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


def _finite(value) -> bool:
    """math.isfinite of ``value``, False where it raises: not a real number, or an integer beyond float range."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Point3:
    """A position in local Cartesian coordinates, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not isinstance(v, numbers.Real) or not _finite(v):
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


class BuildingDB:
    """An immutable, ordered collection of building boxes.

    The boxes are two read-only, C-contiguous float64 arrays of shape
    (n_buildings, 3): ``min_array`` and ``max_array`` hold their min and max
    corners, and every geometry function reads them.  ``buildings`` presents
    the same boxes as ``Box3`` objects, built on first access.
    """

    def __init__(self, name: str, buildings: Iterable[Box3], origin_latlon: tuple[float, float] | None = None):
        boxes = tuple(buildings)
        corners = np.array([[b.min_corner.to_array() for b in boxes], [b.max_corner.to_array() for b in boxes]])
        self._assign(name, corners, origin_latlon)
        vars(self)["buildings"] = boxes

    @classmethod
    def _from_corners(cls, name: str, corners: np.ndarray, origin_latlon) -> "BuildingDB":
        db = cls.__new__(cls)
        db._assign(name, corners, origin_latlon)
        return db

    def _assign(self, name: str, corners: np.ndarray, origin_latlon) -> None:
        """Keep ``corners``, a new float64 array of all min corners then all max corners, read-only."""
        corners.flags.writeable = False  # on the array that owns the data, so no view can undo it
        min_array, max_array = corners.reshape(2, -1, 3)
        vars(self).update(name=name, min_array=min_array, max_array=max_array, origin_latlon=origin_latlon)

    def _read_only(self, name, *value):
        raise AttributeError(f"BuildingDB is immutable: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __len__(self) -> int:
        return len(self.min_array)

    # equality, hash and repr as the frozen dataclass this class was: on name, buildings and origin
    def _fields(self) -> tuple:
        return self.name, self.buildings, self.origin_latlon

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "BuildingDB(name={!r}, buildings={!r}, origin_latlon={!r})".format(*self._fields())

    @cached_property
    def buildings(self) -> tuple[Box3, ...]:
        """The boxes as ``Box3`` objects, in document order."""
        return tuple(
            Box3(Point3(*lo), Point3(*hi)) for lo, hi in zip(self.min_array.tolist(), self.max_array.tolist())
        )


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
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise BuildingDBError(f"{what}: {exc}") from None


def _check_entry(i: int, entry) -> None:
    """Raise the BuildingDBError of building entry ``i`` when it breaks a rule."""
    if not isinstance(entry, dict) or "min" not in entry or "max" not in entry:
        raise BuildingDBError(f"building {i}: expected an object with 'min' and 'max'")
    lo = _coerce_corner(entry["min"], f"building {i} 'min'")
    hi = _coerce_corner(entry["max"], f"building {i} 'max'")
    try:
        Box3(lo, hi)
    except ValueError as exc:
        raise BuildingDBError(f"building {i}: {exc}") from None


# exact types, as JSON makes them: true and false are bool, a subclass of int
_NUMBER_TYPES = frozenset((int, float))


def _corner_array(entries: list) -> np.ndarray | None:
    """All min corners, then all max corners of the building entries, as one float64 array.

    None when some entry breaks a rule of ``_check_entry``.  Python checks
    the structure of all entries at once, as sets of types and lengths; the
    numeric rules run once over the array.
    """
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        corners = list(map(itemgetter("min"), entries)) + list(map(itemgetter("max"), entries))
    except KeyError:
        return None
    if not (set(map(type, corners)) <= {list} and set(map(len, corners)) <= {3}):
        return None
    values = list(chain.from_iterable(corners))
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond float range
        return None
    lo, hi = array.reshape(2, -1, 3)
    if not (np.isfinite(array).all() and (lo < hi).all() and (lo[:, 2] >= 0).all()):
        return None
    return array


# a JSON string, escapes and all, matched from its opening quote, its text captured, and the colon after it if it is
# a key; compiled on first use, by re's cache
_STRING = r'"([^"\\]*(?:\\.[^"\\]*)*)"([ \t\n\r]*:)?'


def _census(text: str) -> tuple[int, int, int]:
    """The objects and arrays, keys and scalars ``json.loads`` can build from ``text``.

    Objects and arrays are its ``{`` and ``[`` outside strings, and keys its
    strings followed by a colon.  Every value but the first of an object or
    array follows a comma, so the scalars are at most its commas outside
    strings, plus one: the count runs high by the empty objects and arrays.
    Strings are read from their opening quote, one at a time, as JSON reads
    them, so nothing but the string at hand is built.  On text that is not
    JSON a count may run high, never low: ``json.loads`` stops at the first
    place where it and this reading part.
    """
    keys = quoted_brackets = quoted_commas = 0
    for m in re.finditer(_STRING, text, re.DOTALL):
        string, colon = m.groups()
        keys += colon is not None
        quoted_brackets += string.count("{") + string.count("[")
        quoted_commas += string.count(",")
    return text.count("{") + text.count("[") - quoted_brackets, keys, text.count(",") - quoted_commas + 1


def parse_building_db(text: str) -> BuildingDB:
    """Parse a building database document.

    The document is JSON with fields ``name``, optional ``origin`` (a
    ``{"lat": ..., "lon": ...}`` anchor for geographic ingest) and
    ``buildings``, a list of at most MAX_BUILDINGS ``{"min": [x, y, z],
    "max": [x, y, z]}`` boxes in meters.  Every number must be finite as a
    float: a non-finite literal, ``1e999`` or an integer beyond float range
    is rejected.  The corners go straight into the database's corner arrays;
    a rejection names the first bad building in document order.  A document
    that holds more than 2 million JSON objects and arrays, 2 million keys or
    4 million scalars (numbers, strings, true, false and null), in any field,
    is rejected before it is parsed: one of MAX_BUILDINGS boxes has room for
    one field per box besides "min" and "max".

    Raises:
        BuildingDBError: on malformed or too deeply nested JSON, too many
            objects and arrays, keys or scalars, missing fields, too
            many boxes, out-of-range numbers, degenerate boxes or boxes
            below ground level.
    """
    # json.loads builds every object, array and scalar before a rule can look at them, wherever they stand, so
    # they are counted first, in text long enough to hold more than a cap: an object or array takes two characters
    # ("[]"), a key two quotes and a scalar a character and, past the first, a comma
    if len(text) > 2 * min(_MAX_CONTAINERS, _MAX_KEYS, _MAX_SCALARS) and (
            text.count("{") + text.count("[") > _MAX_CONTAINERS or text.count('"') > 2 * _MAX_KEYS
            or text.count(",") >= _MAX_SCALARS):
        for n, cap, kind in zip(_census(text), (_MAX_CONTAINERS, _MAX_KEYS, _MAX_SCALARS),
                                ("JSON objects and arrays", "JSON keys", "JSON scalars")):
            if n > cap:
                raise BuildingDBError(f"building DB document must hold at most {cap} {kind}, got {n}")
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deep
        raise BuildingDBError(f"invalid building DB document: {exc}") from None
    if not isinstance(doc, dict):
        raise BuildingDBError("building DB document must be a JSON object")
    if "name" not in doc or not isinstance(doc["name"], str):
        raise BuildingDBError("building DB document requires a text 'name' field")
    if "buildings" not in doc or not isinstance(doc["buildings"], list):
        raise BuildingDBError("building DB document requires a 'buildings' list")
    if len(doc["buildings"]) > MAX_BUILDINGS:
        raise BuildingDBError(f"building DB must hold at most {MAX_BUILDINGS} buildings, got {len(doc['buildings'])}")

    origin = None
    if "origin" in doc and doc["origin"] is not None:
        raw = doc["origin"]
        if not isinstance(raw, dict) or not {type(raw.get("lat")), type(raw.get("lon"))} <= _NUMBER_TYPES:
            raise BuildingDBError("'origin' must be an object with numeric lat/lon")
        try:
            origin = (float(raw["lat"]), float(raw["lon"]))
        except OverflowError as exc:
            raise BuildingDBError(f"'origin': {exc}") from None
        if not (math.isfinite(origin[0]) and math.isfinite(origin[1])):
            raise BuildingDBError("'origin' lat/lon must be finite")

    entries = doc["buildings"]
    corners = _corner_array(entries)
    if corners is None:  # some entry breaks a rule: raise the message of the first
        for i, entry in enumerate(entries):
            _check_entry(i, entry)
    return BuildingDB._from_corners(doc["name"], corners, origin)


def _read_text(path) -> str:
    """The text of the file at ``path``, refused before it is read when it holds more than MAX_INPUT_BYTES."""
    with open(path) as f:
        size = os.fstat(f.fileno()).st_size
        if size > MAX_INPUT_BYTES:
            raise ValueError(f"{path} holds {size} bytes; an input file may hold at most {MAX_INPUT_BYTES}")
        return f.read()


def load_building_db(path) -> BuildingDB:
    """Read and parse a building database file.

    Raises:
        OSError: when the file cannot be read.
        ValueError: when it holds more than MAX_INPUT_BYTES, checked before
            it is read, or its document is rejected (BuildingDBError).
    """
    return parse_building_db(_read_text(path))


def _canonical_order(starts: np.ndarray, ends: np.ndarray):
    # Order each endpoint pair lexicographically so that swapping a and b
    # follows the exact same float path.  Makes the intersection test
    # symmetric by construction.
    swap = ends[0] < starts[0]
    eq = ends[0] == starts[0]
    swap |= eq & (ends[1] < starts[1])
    eq &= ends[1] == starts[1]
    swap |= eq & (ends[2] < starts[2])
    return np.where(swap, ends, starts), np.where(swap, starts, ends)


def _padded(box_min: np.ndarray, box_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box corners padded by EPSILON: the one padding of the slab test and of the sector tracer."""
    return box_min - EPSILON, box_max + EPSILON


def _segments_blocked(
    starts: np.ndarray, ends: np.ndarray, min_array: np.ndarray, max_array: np.ndarray,
    ranges: np.ndarray | None = None,
) -> np.ndarray:
    """True per segment when any box, padded by EPSILON, occludes it; touching counts.

    Endpoints are C-contiguous ``(3, n)`` rows of x, y and z, or a ``(3, 1)``
    column shared by every segment; boxes are ``(n_boxes, 3)`` corners.  Each
    box is one slab test over its view of the rows and of the result: the
    whole of them, or with ``ranges``, one ``[start, stop)`` pair of segment
    indices per box, shape ``(n_boxes, 2)``, only the segments it can block.
    """
    starts, ends = _canonical_order(starts, ends)
    deltas = ends - starts
    parallel = deltas == 0.0
    blocked = np.zeros(starts.shape[1], dtype=bool)
    views = repeat((starts, deltas, parallel, blocked)) if ranges is None else (
        (starts[:, a:b], deltas[:, a:b], parallel[:, a:b], blocked[a:b]) for a, b in ranges.tolist())
    # a parallel axis divides by zero; its t values are masked out below.  The
    # loop body stays inline: a function per box frees every temporary at once,
    # and the allocator's page faults then cost about half again on long rows
    with np.errstate(divide="ignore", invalid="ignore"):
        for (s, d, p, out), lo, hi in zip(views, *_padded(min_array[:, :, None], max_array[:, :, None])):
            t1 = (lo - s) / d
            t2 = (hi - s) / d
            near = np.where(p, 0.0, np.minimum(t1, t2)).max(axis=0, initial=0.0)
            far = np.where(p, 1.0, np.maximum(t1, t2)).min(axis=0, initial=1.0)
            within = (~p | ((s >= lo) & (s <= hi))).all(axis=0)
            out |= within & (near <= far)
    return blocked


def segment_intersects_box(a: Point3, b: Point3, box: Box3) -> bool:
    """Test whether the closed segment from a to b meets the closed box.

    Tangency counts as an intersection.  Symmetric in a and b.

    Raises:
        ValueError: when the endpoints coincide.
    """
    if (a.x, a.y, a.z) == (b.x, b.y, b.z):
        raise ValueError("segment endpoints coincide")
    a, b = a.to_array()[:, None], b.to_array()[:, None]
    return bool(_segments_blocked(a, b, box.min_corner.to_array()[None], box.max_corner.to_array()[None])[0])


def _strictly_inside(points: np.ndarray, box_min: np.ndarray, box_max: np.ndarray) -> np.ndarray:
    """Strict containment with an EPSILON margin, reduced over the x, y, z rows (axis 0)."""
    return ((points > box_min + EPSILON) & (points < box_max - EPSILON)).all(axis=0)


def points_strictly_inside(db: BuildingDB, points: np.ndarray) -> np.ndarray:
    """Boolean mask over points (n, 3) that lie strictly inside some building.

    The test runs on C-contiguous (3, n) rows, so C-contiguous points are copied, transposed.
    """
    rows = np.ascontiguousarray(points.T)
    inside = np.zeros(rows.shape[1], dtype=bool)
    for box_min, box_max in zip(db.min_array[:, :, None], db.max_array[:, :, None]):
        inside |= _strictly_inside(rows, box_min, box_max)
    return inside


def find_containing_building(db: BuildingDB, p: Point3) -> int | None:
    """Index of the first building strictly containing p, or None."""
    hits = np.nonzero(_strictly_inside(p.to_array()[:, None], db.min_array.T, db.max_array.T))[0]
    return int(hits[0]) if hits.size else None


def point_in_any_building(db: BuildingDB, p: Point3) -> bool:
    """True when p lies strictly inside some building; boundary is outside."""
    return find_containing_building(db, p) is not None


def _check_endpoint(db: BuildingDB, p: Point3, name: str, bound: float) -> None:
    """Raise unless ``p`` is on or above ground, within ``bound`` m on each axis, in no building; ``name`` opens messages."""
    if p.z < 0:
        raise ValueError(f"{name} z must be >= 0 (ground level), got {p.z:g}")
    if max(abs(p.x), abs(p.y), p.z) > bound:
        raise ValueError(f"{name} coordinates must lie within {bound:g} m of the origin on each axis, "
                         f"got ({p.x:g}, {p.y:g}, {p.z:g})")
    idx = find_containing_building(db, p)
    if idx is not None:
        raise PointInsideBuildingError(p, idx)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of each interval ``[start, stop)`` in turn; an interval with ``stop <= start`` gives none."""
    n = np.maximum(stops - starts, 0)
    return np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _paint(mask: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> None:
    """Set ``mask[start:stop]`` for each interval, in one pass over the cells from the least start to the furthest stop.

    In order of ``starts``, the running maximum of the bounds ``start, stop, start, stop, ...`` cuts those cells into
    runs to set and to leave, in turn.
    """
    order = np.argsort(starts)
    bounds = np.empty(2 * starts.size, dtype=starts.dtype)
    bounds[::2], bounds[1::2] = starts[order], stops[order]
    np.maximum.accumulate(bounds, out=bounds)
    setting = np.zeros(bounds.size - 1, dtype=bool)
    setting[::2] = True
    mask[bounds[0]:bounds[-1]] |= np.repeat(setting, np.diff(bounds))


def _sector_tracer(db: BuildingDB, tx: Point3, r_max: float, height: float):
    """``trace(angles, radii) -> (exterior, los)`` for a grid of receivers around ``tx``, testing each box only where it can matter.

    The grid's receiver at ``angles[k]`` and ``radii[i]`` is
    ``(tx.x + cos * r, tx.y + sin * r, height)``, with the cosine and sine of
    its angle: ``angles`` ascend in [0, 2 pi) and ``radii`` ascend to at most
    ``r_max``.  ``exterior`` and ``los`` are ``(n_angles, n_radii)`` masks of
    the receivers outside every box, and of the exterior ones whose segment
    no box blocks.

    A receiver and its segment lie on the ray at the receiver's angle, within
    ``r_max`` of the ground point, so a box acts on them only where that ray
    meets its footprint grown by _MARGIN: a margin far above the EPSILON
    padding (under 1.5e-9 m) and the rounding of coordinates within 2e7 m,
    where _MAX_COORDINATE_M keeps every receiver.  Boxes whose grown
    footprint lies beyond ``r_max`` are cropped.  Each other box is tested
    only on the run of ``angles`` in its sector: the interval of its grown
    footprint's corner angles, split where it wraps past 0, or every angle
    when that footprint holds the ground point.  arctan2 and the nominal
    angles round by a few 1e-16 rad; a slack of 1e-12 rad on each side of a
    sector covers that.

    A *piece* is a box's sector, or one half of a sector that wraps past 0.
    Each piece has two footprints: the *outer* one, its box padded by
    _padded's EPSILON and grown by _MARGIN, and the *inner* one, its box
    shrunk by EPSILON, as _strictly_inside shrinks it, and then by _MARGIN.
    One pass over the (piece, ray) pairs of the runs gets the ray parameters
    at which each ray crosses both, and decides the interior and occlusion
    together.  On each axis a face's float ray parameter is off by far less
    than the margin's own, _MARGIN over the ray's direction cosine, and a
    receiver lies within far less than _MARGIN of the point at its radius
    along its ray, so a cell the pair decides is one its receiver's exact
    test decides the same way:

    - *Interior.* A box whose z range strictly holds ``height``, by
      _strictly_inside's own comparison, *holds* the grid: it holds the
      receivers of a ray just where the ray is inside its footprint shrunk
      by EPSILON, so radii in the inner interval are inside, and radii out
      of the outer one are not.  A piece that does not hold gets an empty
      interval.
    - *Occlusion.* A box whose z range padded by _padded holds the
      transmitter's height and ``height`` *spans* the grid: its z slab
      passes each segment whole, so it blocks a segment just when the
      segment meets its padded footprint.  Radii short of each spanning
      piece's outer entry on a ray are clear of them, and radii at or past
      some inner entry are blocked.  A piece that does not span enters no
      ray and marks its rays *crossed*.

    np.searchsorted on ``radii`` turns the interior intervals into runs of
    cells per ray.  Only the cells the pair leaves undecided, within about
    _MARGIN of a face, get receivers, and those take the exact tests:
    _strictly_inside where the outer and the inner interior intervals
    differ, and _segments_blocked for the exterior cells between the entries
    or on a crossed ray.  A pair with a parameter 0/0 (NaN), which only the
    ray at angle 0 can give, runs along a face plane through the ground
    point: on an outer face the ray passes _MARGIN outside the padded box,
    and on an inner one it passes inside the shrunk box, so counting the
    pair as missed decides no cell wrongly and leaves the cells of the inner
    case to the exact tests.
    """
    _check_endpoint(db, tx, "tx", _MAX_COORDINATE_M)  # on every box, so an error names the box's index in the document
    ground = np.array([tx.x, tx.y])
    gap = np.maximum(np.maximum(db.min_array[:, :2] - ground, ground - db.max_array[:, :2]), 0.0)
    kept = np.hypot(gap[:, 0], gap[:, 1]) - _MARGIN <= r_max
    box_min, box_max = db.min_array[kept], db.max_array[kept]

    # the low and high x and y of each grown footprint from the ground point, and the axes it straddles
    grown = np.stack((box_min[:, :2] - _MARGIN, box_max[:, :2] + _MARGIN)) - ground
    straddles = (grown[0] <= 0.0) & (grown[1] >= 0.0)
    dx, dy = grown.T
    # corner angles in [-pi, pi], or in [0, 2 pi) for a footprint across the -x axis: no sector is cut
    corners = np.arctan2(dy[:, :, None], dx[:, None, :])
    corners[straddles[:, 1] & (dx[:, 1] < 0.0)] %= 2.0 * np.pi
    sectors = np.stack((corners.min(axis=(1, 2)) - 1e-12, corners.max(axis=(1, 2)) + 1e-12), axis=-1)
    sectors[straddles.all(axis=1)] = 0.0, 2.0 * np.pi
    # each sector shifted by -2 pi, 0 and 2 pi and clipped to the circle: two pieces where it wraps past 0
    pieces = np.clip(sectors + 2.0 * np.pi * np.arange(-1, 2)[:, None, None], 0.0, 2.0 * np.pi).reshape(-1, 2)
    nonempty = pieces[:, 0] < pieces[:, 1]
    box = np.flatnonzero(nonempty) % len(box_min)
    pieces, box_min, box_max = pieces[nonempty], box_min[box], box_max[box]
    low, high = _padded(box_min, box_max)
    spanning = (low[:, 2] <= min(tx.z, height)) & (high[:, 2] >= max(tx.z, height))
    holding = (height > box_min[:, 2] + EPSILON) & (height < box_max[:, 2] - EPSILON)

    def footprint(lows, highs, margin):
        # the low x and y, then the high x and y, from the ground point of the footprint grown by `margin`
        return np.concatenate((lows[:, :2].T - ground[:, None] - margin, highs[:, :2].T - ground[:, None] + margin))

    # each piece's outer footprint, its padded box grown by _MARGIN, then its inner one, its box shrunk by EPSILON and
    # by _MARGIN: NaN where that shrinks to nothing, which no ray enters
    faces = np.stack((footprint(low, high, _MARGIN), footprint(box_min + EPSILON, box_max - EPSILON, -_MARGIN)))
    faces[1][:, (faces[1, :2] > faces[1, 2:]).any(axis=0)] = np.nan

    def crossings(runs, directions):
        # the (piece, ray) pairs of every piece over its run of rays, in chunks of at most _RAYS_PER_BLOCK (no run is
        # longer than a block): per chunk, the piece and the ray of each pair and the parameters at which the ray
        # first enters and last leaves the outer and the inner footprints, each (2, n_pairs).  A parameter 0/0 on a
        # face plane is NaN and one past float range inf: the caller runs it under np.errstate
        index = np.flatnonzero(runs[:, 0] < runs[:, 1])
        lengths = runs[index, 1] - runs[index, 0]
        step = max(1, _RAYS_PER_BLOCK // int(lengths.max(initial=1)))
        for a in range(0, index.size, step):
            chunk = index[a:a + step]
            piece = np.repeat(chunk, lengths[a:a + step])
            ray = _ranges(*runs[chunk].T)
            t = faces.take(piece, axis=2).reshape(2, 2, 2, -1)
            t /= directions.take(ray, axis=1)
            near, far = np.minimum(t[:, 0], t[:, 1]), np.maximum(t[:, 0], t[:, 1])
            yield piece, ray, np.maximum(near[:, 0], near[:, 1]), np.minimum(far[:, 0], far[:, 1])

    column = tx.to_array()[:, None]

    def slab_test(rx, runs, which):
        # the slab test of each segment to `rx` against the pieces of `which` with a receiver in their runs of `rx`
        which = which & (runs[:, 0] < runs[:, 1])
        if not which.any():
            return np.zeros(rx.shape[1], dtype=bool)
        return _segments_blocked(column, rx, box_min[which], box_max[which], runs[which])

    def trace(angles, radii):
        directions = np.stack((np.cos(angles), np.sin(angles)))
        n_rays, n_r = angles.size, radii.size
        runs = np.searchsorted(angles, pieces)
        # per ray, the least outer and inner entries of spanning pieces (np.fmin drops a NaN), and if it is crossed
        entry = np.full((2, n_rays), np.inf)
        crossed = np.zeros(n_rays, dtype=bool)
        # the cells, ray by ray and painted flat, that some holding piece's inner footprint holds, and those its outer
        # one holds; a NaN interval holds none, as searchsorted puts NaN past every radius
        inside, maybe = np.zeros((2, n_rays, n_r), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for piece, ray, first, last in crossings(runs, directions):
                spans = spanning[piece]
                at = np.where(~spans | (first > last) | (last < 0.0), np.inf, np.maximum(first, 0.0))
                np.fmin.at(entry[0], ray, at[0])
                np.fmin.at(entry[1], ray, at[1])
                crossed[ray[~spans]] = True
                start = np.searchsorted(radii, first) + ray * n_r
                stop = np.where(holding[piece], np.searchsorted(radii, last, side="right") + ray * n_r, start)
                _paint(maybe.reshape(-1), start[0], stop[0])
                _paint(inside.reshape(-1), start[1], stop[1])
        # per ray, the cells short of the outer entry, clear of every spanning piece, and those short of the inner one
        clear, unblocked = radii < entry[:, :, None]
        band = unblocked & ~clear

        def receivers(undecided):
            # the rays and radii of the cells `undecided`, ray by ray, and their receivers as the grid's own floats
            ray, i = np.nonzero(undecided)
            r = radii[i]
            return ray, i, np.stack((tx.x + directions[0, ray] * r, tx.y + directions[1, ray] * r,
                                     np.full(r.size, height)))

        exterior = ~inside
        maybe &= exterior  # the cells between an outer and an inner interval, and in no inner one
        if maybe.any():
            ray, i, rx = receivers(maybe)
            held = np.zeros(ray.size, dtype=bool)
            cell_runs = np.searchsorted(ray, runs)
            which = holding & (cell_runs[:, 0] < cell_runs[:, 1])
            for (a, b), lo, hi in zip(cell_runs[which].tolist(), box_min[which, :, None], box_max[which, :, None]):
                held[a:b] |= _strictly_inside(rx[:, a:b], lo, hi)
            exterior[ray, i] = ~held
        los = exterior & unblocked
        tested = los & (band | crossed[:, None])
        if tested.any():
            ray, i, rx = receivers(tested)
            hit = slab_test(rx, np.searchsorted(ray, runs), ~spanning)
            in_band = band[ray, i]
            if in_band.any():
                hit[in_band] |= slab_test(np.compress(in_band, rx, axis=1), np.searchsorted(ray[in_band], runs),
                                          spanning)
            los[ray, i] = ~hit
        return exterior, los

    return trace


def is_los(db: BuildingDB, tx: Point3, rx: Point3) -> bool:
    """True when no building occludes the straight tx-rx segment.

    Either endpoint may lie up to _MAX_REACH_M (2e7 m) from the origin on
    each axis, as far as a curve's receivers reach, so every receiver of a
    curve can be checked here.

    Raises:
        PointInsideBuildingError: when either endpoint is strictly inside a
            building.
        ValueError: when tx and rx coincide, or either lies below ground
            (z < 0) or past _MAX_REACH_M on some axis.
    """
    for endpoint in (tx, rx):
        _check_endpoint(db, endpoint, "position", _MAX_REACH_M)
    if (tx.x, tx.y, tx.z) == (rx.x, rx.y, rx.z):
        raise ValueError("tx and rx positions coincide")
    blocked = _segments_blocked(tx.to_array()[:, None], rx.to_array()[:, None], db.min_array, db.max_array)
    return not bool(blocked[0])
