"""Scene geometry: parsing, box intersection and LOS classification."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmwpl import demo, geometry
from mmwpl.geometry import (
    EPSILON,
    MAX_BUILDINGS,
    Box3,
    BuildingDB,
    BuildingDBError,
    Point3,
    PointInsideBuildingError,
    TxSite,
    _sector_tracer,
    _segments_blocked,
    find_containing_building,
    is_los,
    latlon_to_local,
    load_building_db,
    parse_building_db,
    point_in_any_building,
    points_strictly_inside,
    segment_intersects_box,
)
from oracles import (
    crossing_length,
    parse_building_db_reference,
    points_strictly_inside_reference,
    sampled_segment_hits_box,
    segments_blocked_reference,
)

UNIT_BOX = Box3(Point3(0, 0, 0), Point3(10, 10, 10))

# Every way parse_building_db rejects a building entry: the `buildings` list
# as JSON text, and the exact message.  first-bad-entry-wins has a degenerate
# entry 1 and a malformed entry 3: the first bad entry in document order is reported.
OK = '{"min": [0, 0, 0], "max": [1, 1, 1]}'
DEGENERATE = "degenerate box: min corner must be strictly below max corner on every axis, got "
ENTRY_REJECTIONS = [
    ("non-object-entry", f"[{OK}, [0, 0, 0]]", "building 1: expected an object with 'min' and 'max'"),
    ("missing-max", '[{"min": [0, 0, 0]}]', "building 0: expected an object with 'min' and 'max'"),
    ("two-element-corner", '[{"min": [0, 0], "max": [1, 1, 1]}]',
     "building 0 'min' must be a list of three numbers, got [0, 0]"),
    ("string-coordinate", '[{"min": [0, "0", 0], "max": [1, 1, 1]}]',
     "building 0 'min' must be a list of three numbers, got [0, '0', 0]"),
    ("bool-coordinate", '[{"min": [0, 0, 0], "max": [1, true, 1]}]',
     "building 0 'max' must be a list of three numbers, got [1, True, 1]"),
    ("overflowing-float", '[{"min": [0, 0, 0], "max": [1e999, 1, 1]}]',  # 1e999 is inf without the constant hook
     "building 0 'max': coordinates must be finite numbers, got inf"),
    ("degenerate-x", '[{"min": [1, 0, 0], "max": [1, 1, 1]}]', f"building 0: {DEGENERATE}min=(1, 0, 0) max=(1, 1, 1)"),
    ("degenerate-y", '[{"min": [0, 2, 0], "max": [1, 1, 1]}]', f"building 0: {DEGENERATE}min=(0, 2, 0) max=(1, 1, 1)"),
    ("degenerate-z", '[{"min": [0, 0, 1], "max": [1, 1, 1]}]', f"building 0: {DEGENERATE}min=(0, 0, 1) max=(1, 1, 1)"),
    ("below-ground", '[{"min": [0, 0, -0.5], "max": [1, 1, 1]}]', "building 0: box base height must be >= 0, got -0.5"),
    ("first-bad-entry-wins", f'[{OK}, {{"min": [5, 5, 0], "max": [5, 6, 1]}}, {OK}, {{"min": [0, 0, 0]}}]',
     f"building 1: {DEGENERATE}min=(5, 5, 0) max=(5, 6, 1)"),
    ("degenerate-second-entry", f'[{OK}, {{"min": [5, 5, 0], "max": [5, 6, 1]}}]',
     f"building 1: {DEGENERATE}min=(5, 5, 0) max=(5, 6, 1)"),
]
# The rejections of a whole document, as JSON text, and the exact message.
LITERAL = '{"name": "x", "buildings": [{"min": [0, 0, %s], "max": [1, 1, 1]}]}'
DOCUMENT_REJECTIONS = [
    ("malformed-json", "{not json",
     "invalid building DB document: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("non-object", "[1, 2]", "building DB document must be a JSON object"),
    ("missing-name", '{"buildings": []}', "building DB document requires a text 'name' field"),
    ("missing-buildings", '{"name": "x"}', "building DB document requires a 'buildings' list"),
    ("NaN-literal", LITERAL % "NaN", "non-finite numeric literal 'NaN' in building DB"),
    ("Infinity-literal", LITERAL % "Infinity", "non-finite numeric literal 'Infinity' in building DB"),
    ("-Infinity-literal", LITERAL % "-Infinity", "non-finite numeric literal '-Infinity' in building DB"),
    ("bool-origin", '{"name": "x", "origin": {"lat": true, "lon": false}, "buildings": []}',
     "'origin' must be an object with numeric lat/lon"),
    ("origin-overflowing-float", '{"name": "x", "origin": {"lat": 1e999, "lon": 0}, "buildings": []}',
     "'origin' lat/lon must be finite"),
    # counted before any entry is looked at: these are not even objects
    ("too-many-buildings", '{"name": "x", "buildings": [%s]}' % ",".join(["0"] * (MAX_BUILDINGS + 1)),
     f"building DB must hold at most {MAX_BUILDINGS} buildings, got {MAX_BUILDINGS + 1}"),
]
# both tables by row name: the document and the message
REJECTIONS = {name: ('{"name": "x", "buildings": %s}' % buildings, message) for name, buildings, message in ENTRY_REJECTIONS}
REJECTIONS.update({name: (text, message) for name, text, message in DOCUMENT_REJECTIONS})


def rejected(name):
    """Check that parse_building_db rejects the document of REJECTIONS row ``name`` with its exact message."""
    text, message = REJECTIONS[name]
    with pytest.raises(BuildingDBError) as exc:
        parse_building_db(text)
    assert str(exc.value) == message


SMALL = st.one_of(st.integers(-1000, 1000), st.floats(-1000, 1000))
# integers and floats around 2**53 and 2**63, where neighbouring integers share one float
LARGE = st.one_of(st.integers(2**53 - 3, 2**53 + 3), st.integers(2**63 - 3, 2**64 + 3), st.floats(2.0**53 - 4, 2.0**64))
NOT_AN_OBJECT = st.sampled_from([None, 3, 2.5, True, "box", [], [0, 0, 0]])
NOT_A_NUMBER = st.sampled_from([None, True, False, "1", [1], {}])
# past float range as an integer or a literal (inf is written 1e999), and its edges
HUGE = st.sampled_from([10**400, -(10**400), 2**1024 - 2**970, 2**1024 - 2**970 - 1, math.inf, -math.inf])
FAULTS = ("entry", "key", "corner", "value", "huge", "degenerate", "below-ground", "origin")


@st.composite
def box_axis(draw, ground=False):
    """(min, max) of a box on one axis, large one time in eight; a size of 1 there can round to zero."""
    if draw(st.integers(0, 7)):
        lo, size = draw(SMALL), draw(st.integers(1, 100) | st.floats(0.001, 100))
    else:
        lo, size = draw(LARGE), draw(st.sampled_from([1, 2**12, 2**13, 2.0**14]))
    lo = abs(lo) if ground else lo
    return lo, lo + size


@st.composite
def building_documents(draw):
    """A building-DB document as JSON text: boxes of every size, with at most one injected fault."""
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        axes = [draw(box_axis()), draw(box_axis()), draw(box_axis(ground=True))]
        entries.append({"min": [lo for lo, _ in axes], "max": [hi for _, hi in axes]})
    doc = {"name": "x", "buildings": entries}
    if draw(st.booleans()):
        doc["origin"] = {"lat": draw(SMALL | LARGE), "lon": draw(SMALL | LARGE)}
    fault = draw(st.sampled_from(FAULTS)) if entries and draw(st.booleans()) else None
    if fault == "origin":
        doc["origin"] = {"lat": draw(HUGE), "lon": 0}
    elif fault is not None:
        i = draw(st.integers(0, len(entries) - 1))
        corner, k = draw(st.sampled_from(["min", "max"])), draw(st.integers(0, 2))
        entry = entries[i]
        if fault == "entry":
            entries[i] = draw(NOT_AN_OBJECT)
        elif fault == "key":
            del entry[corner]
        elif fault == "corner":
            entry[corner] = draw(st.sampled_from([None, 3, "box", {"x": 0}, entry[corner][:2], entry[corner] + [0]]))
        elif fault in ("value", "huge"):
            entry[corner][k] = draw(NOT_A_NUMBER if fault == "value" else HUGE)
        elif fault == "degenerate":
            entry["max"][k] = entry["min"][k] - draw(st.sampled_from([0, 1, 0.5]))
        else:  # below-ground
            entry["min"][2] = -draw(st.floats(1e-12, 1e3))
    return json.dumps(doc).replace("Infinity", "1e999")


# sha256 of min_array then max_array bytes of each bundled scene
SCENE_CORNER_DIGESTS = {
    "slab": "420002aec191486321dbe936e2406f9abcc0747eecffbfa72d446412e0fc168f",
    "avenue": "c2ab5b519fd672ed19e3492bbbaa9a12de60273a3a08fd34fcc7b3c0797ee987",
    "crosstown": "80a56505b0dfaed06d8182abc43a87945d85072b743942f48b76b67eba3357d0",
    "plaza": "895ca4b0b617e401b8838870111e0fe44b348d7656515b9805783b2119b5953d",
    "tower": "69a4975ea371eb239679a439a2406cd066bad9dd528d4c257df3830e1672a01a",
}


def make_db(*boxes):
    return BuildingDB("test", tuple(boxes))


class TestTypes:
    def test_point_rejects_non_finite(self):
        # an integer beyond float range is not finite as a float either
        for bad in (math.nan, math.inf, -math.inf, np.float32(math.inf), "1", 10**400, -10**400):
            with pytest.raises(ValueError, match="^coordinates must be finite numbers"):
                Point3(bad, 0.0, 0.0)

    def test_point_accepts_numpy_scalars(self):
        # a 10 m box between the ends: it blocks a receiver 1 m up, not one 30 m up
        db = make_db(Box3(Point3(10, -5, 0), Point3(20, 5, 10)))
        for x, z, seen in ((np.int64(30), np.int64(1), False), (np.float32(30.0), np.float32(30.0), True),
                           (np.int64(30), True, False)):
            assert is_los(db, Point3(np.float32(0.0), np.int64(0), 5), Point3(x, 0, z)) is seen
            assert is_los(db, Point3(0.0, 0.0, 5.0), Point3(float(x), 0.0, float(z))) is seen

    def test_box_requires_strict_ordering(self):
        with pytest.raises(ValueError):
            Box3(Point3(0, 0, 0), Point3(0, 10, 10))
        with pytest.raises(ValueError):
            Box3(Point3(0, 0, 5), Point3(10, 10, 5))
        with pytest.raises(ValueError):
            Box3(Point3(10, 0, 0), Point3(0, 10, 10))

    def test_box_rejects_below_ground(self):
        with pytest.raises(ValueError):
            Box3(Point3(0, 0, -1), Point3(10, 10, 10))

    def test_db_is_immutable_tuple(self):
        db = make_db(UNIT_BOX)
        assert isinstance(db.buildings, tuple)
        assert len(db) == 1
        with pytest.raises(AttributeError):
            db.name = "other"

    def test_db_corner_arrays_are_read_only(self):
        parsed = parse_building_db('{"name": "p", "buildings": [{"min": [0, 0, 0], "max": [10, 10, 10]}]}')
        for db in (make_db(UNIT_BOX), parsed):
            assert db.buildings == (UNIT_BOX,)
            for corners, expected in ((db.min_array, [[0, 0, 0]]), (db.max_array, [[10, 10, 10]])):
                assert corners.dtype == np.float64 and corners.flags.c_contiguous
                assert corners.tolist() == expected
                with pytest.raises(ValueError):
                    corners[0, 0] = 1.0
                with pytest.raises(ValueError):
                    corners.flags.writeable = True

    def test_db_equality_hash_and_repr_follow_the_boxes(self):
        parsed = parse_building_db('{"name": "test", "buildings": [{"min": [0, 0, 0], "max": [10, 10, 10]}]}')
        built = make_db(UNIT_BOX)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed != make_db() and parsed != BuildingDB("other", (UNIT_BOX,))
        assert repr(built) == f"BuildingDB(name='test', buildings=({UNIT_BOX!r},), origin_latlon=None)"

    def test_tx_site_metadata(self):
        site = TxSite("COL1", Point3(0, 0, 7), latitude=40.727, longitude=-73.997)
        assert site.position.z == 7
        assert site.latitude == pytest.approx(40.727)


class TestParsing:
    def test_empty_buildings(self):
        db = parse_building_db('{"name": "empty", "buildings": []}')
        assert db.name == "empty"
        assert len(db) == 0

    def test_single_box_round_trip(self):
        doc = {"name": "one", "buildings": [{"min": [0, 0, 0], "max": [10, 10, 10]}]}
        db = parse_building_db(json.dumps(doc))
        assert len(db) == 1
        assert db.buildings[0].min_corner == Point3(0.0, 0.0, 0.0)
        assert db.buildings[0].max_corner == Point3(10.0, 10.0, 10.0)

    def test_origin_parsed(self):
        doc = {"name": "o", "origin": {"lat": 40.73, "lon": -74.0}, "buildings": []}
        assert parse_building_db(json.dumps(doc)).origin_latlon == (40.73, -74.0)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"name": "f", "buildings": []}')
        assert load_building_db(path).name == "f"

    def test_file_size_capped(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        path.write_text('{"name": "f", "buildings": []}')
        cap = path.stat().st_size
        monkeypatch.setattr(geometry, "MAX_INPUT_BYTES", cap)
        assert load_building_db(path).name == "f"
        path.write_text('{"name": "f", "buildings": [] }')
        with pytest.raises(ValueError) as exc:
            load_building_db(path)
        assert str(exc.value) == f"{path} holds {cap + 1} bytes; an input file may hold at most {cap}"

    def test_box_count_capped(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_BUILDINGS", 2)
        assert len(parse_building_db('{"name": "x", "buildings": [%s, %s]}' % (OK, OK))) == 2
        with pytest.raises(BuildingDBError, match=r"^building DB must hold at most 2 buildings, got 3$"):
            parse_building_db('{"name": "x", "buildings": [%s, %s, %s]}' % (OK, OK, OK))

    @pytest.mark.parametrize("name", [case[0] for case in ENTRY_REJECTIONS])
    def test_entry_rejection_message(self, name):
        rejected(name)

    @pytest.mark.parametrize("name", [case[0] for case in DOCUMENT_REJECTIONS])
    def test_document_rejection_message(self, name):
        rejected(name)

    def test_rejects_overflowing_float(self):
        # a literal past float range is rejected wherever it stands: a corner, either sign, and the origin
        rejected("overflowing-float")
        rejected("origin-overflowing-float")
        with pytest.raises(BuildingDBError, match=r"^building 0 'min': coordinates must be finite numbers, got -inf$"):
            parse_building_db('{"name": "x", "buildings": [{"min": [0, 0, -1e999], "max": [1, 1, 1]}]}')

    def test_degenerate_box_names_index(self):
        # the message names the degenerate entry's own index, whatever follows it
        for index in range(3):
            entries = [OK] * index + ['{"min": [0, 0, 0], "max": [0, 1, 1]}', OK]
            with pytest.raises(BuildingDBError) as exc:
                parse_building_db('{"name": "x", "buildings": [%s]}' % ", ".join(entries))
            assert str(exc.value) == f"building {index}: {DEGENERATE}min=(0, 0, 0) max=(0, 1, 1)"

    def test_negative_base_height_rejected(self):
        # the ground is z = 0: any negative base is rejected, a base of -0.0 is the ground
        rejected("below-ground")
        with pytest.raises(BuildingDBError, match=r"^building 0: box base height must be >= 0, got -1e-300$"):
            parse_building_db('{"name": "x", "buildings": [{"min": [0, 0, -1e-300], "max": [1, 1, 1]}]}')
        assert len(parse_building_db('{"name": "x", "buildings": [{"min": [0, 0, -0.0], "max": [1, 1, 1]}]}')) == 1

    @settings(max_examples=300, deadline=None)
    @given(building_documents())
    def test_parser_matches_reference(self, text):
        try:
            name, boxes, origin, min_array, max_array = parse_building_db_reference(text)
        except BuildingDBError as exc:
            with pytest.raises(BuildingDBError) as got:
                parse_building_db(text)
            assert str(got.value) == str(exc)
            return
        except OverflowError:
            # the former parser let this escape; it is an input error now
            with pytest.raises(BuildingDBError, match="int too large to convert to float"):
                parse_building_db(text)
            return
        db = parse_building_db(text)
        assert (db.name, db.origin_latlon, db.buildings) == (name, origin, boxes)
        assert db.min_array.shape == db.max_array.shape == min_array.shape == (len(boxes), 3)
        assert db.min_array.tobytes() == min_array.tobytes()
        assert db.max_array.tobytes() == max_array.tobytes()

    @pytest.mark.parametrize("scene", sorted(SCENE_CORNER_DIGESTS))
    def test_scene_corner_arrays_pinned(self, scene):
        db = demo.load_scene(scene)
        assert db.min_array.dtype == db.max_array.dtype == np.float64
        assert db.min_array.shape == db.max_array.shape == (len(db), 3)
        digest = hashlib.sha256(db.min_array.tobytes() + db.max_array.tobytes()).hexdigest()
        assert digest == SCENE_CORNER_DIGESTS[scene]


class TestLatLon:
    def test_origin_maps_to_zero(self):
        assert latlon_to_local(40.73, -74.0, 40.73, -74.0) == (0.0, 0.0)

    def test_northward_degree(self):
        x, y = latlon_to_local(40.74, -74.0, 40.73, -74.0)
        assert x == 0.0
        assert np.isclose(y, 6371000.0 * math.radians(0.01)), f"y={y}"

    def test_eastward_shrinks_with_latitude(self):
        x, _ = latlon_to_local(40.73, -73.99, 40.73, -74.0)
        expected = 6371000.0 * math.radians(0.01) * math.cos(math.radians(40.73))
        assert np.isclose(x, expected), f"x={x} expected={expected}"


class TestSegmentBox:
    def test_face_grazing_counts_as_hit(self):
        # runs along the y=0 face of the box
        assert segment_intersects_box(Point3(-1, 0, 1), Point3(11, 0, 1), UNIT_BOX) is True

    def test_parallel_outside_misses(self):
        assert segment_intersects_box(Point3(-1, -1, 1), Point3(-1, 11, 1), UNIT_BOX) is False

    def test_through_center(self):
        assert segment_intersects_box(Point3(-5, 5, 5), Point3(15, 5, 5), UNIT_BOX) is True

    def test_short_of_box(self):
        assert segment_intersects_box(Point3(-5, 5, 5), Point3(-1, 5, 5), UNIT_BOX) is False

    def test_over_the_top(self):
        assert segment_intersects_box(Point3(-5, 5, 20), Point3(15, 5, 20), UNIT_BOX) is False

    def test_corner_touch(self):
        assert segment_intersects_box(Point3(-1, -1, 0), Point3(1, 1, 0), UNIT_BOX) is True

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            segment_intersects_box(Point3(1, 1, 1), Point3(1, 1, 1), UNIT_BOX)
        with pytest.raises(ValueError, match="^tx and rx positions coincide$"):
            is_los(make_db(UNIT_BOX), Point3(20, 20, 5), Point3(20, 20, 5))

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a = Point3(*rng.uniform(-5, 15, 3))
            b = Point3(*rng.uniform(-5, 15, 3))
            lo = rng.uniform(-2, 8, 3)
            lo[2] = abs(lo[2])
            hi = lo + rng.uniform(0.5, 6, 3)
            box = Box3(Point3(*lo), Point3(*hi))
            fwd = segment_intersects_box(a, b, box)
            rev = segment_intersects_box(b, a, box)
            assert fwd == rev, f"asymmetric for a={a} b={b} box={box}"

    def test_translation_invariance_on_grid(self):
        # quarter-meter grid keeps every coordinate and translation exact in
        # binary, so results must match bit for bit
        rng = np.random.default_rng(202)
        for _ in range(500):
            a = rng.integers(-40, 60, 3) * 0.25
            b = rng.integers(-40, 60, 3) * 0.25
            if tuple(a) == tuple(b):
                continue
            lo = rng.integers(-20, 30, 3) * 0.25
            lo[2] = abs(lo[2])
            hi = lo + rng.integers(2, 25, 3) * 0.25
            shift = rng.integers(-400, 400, 3) * 0.25
            shift[2] = abs(shift[2])
            box = Box3(Point3(*lo), Point3(*hi))
            moved = Box3(Point3(*(lo + shift)), Point3(*(hi + shift)))
            base = segment_intersects_box(Point3(*a), Point3(*b), box)
            shifted = segment_intersects_box(Point3(*(a + shift)), Point3(*(b + shift)), moved)
            assert base == shifted, f"translation changed result for a={a} b={b} shift={shift}"

    def test_agrees_with_sampling_oracle(self):
        # compact scenes keep the oracle's sample spacing below the grazing
        # cutoff, so every non-grazing case must agree exactly
        rng = np.random.default_rng(303)
        checked = 0
        for _ in range(40):
            lo = rng.uniform(0.0, 0.4, 3)
            hi = lo + rng.uniform(0.02, 0.25, 3)
            box = Box3(Point3(*lo), Point3(*hi))
            for _ in range(5):
                a = rng.uniform(-0.1, 0.6, 3)
                b = rng.uniform(-0.1, 0.6, 3)
                c = crossing_length(a, b, lo, hi)
                if 0.0 < c < 1e-4:
                    continue
                got = segment_intersects_box(Point3(*a), Point3(*b), box)
                want = sampled_segment_hits_box(a, b, lo, hi)
                if c == 0.0 and got != want:
                    continue  # tangent within epsilon of a face
                assert got == want, f"a={a} b={b} box=({lo},{hi}) crossing={c}"
                checked += 1
        assert checked > 150, f"too few informative comparisons: {checked}"


@st.composite
def kernel_scenes(draw):
    """Boxes and segments on a small integer grid, boxes in a drawn order.

    Endpoints on the grid or EPSILON off it land exactly on the faces, edges
    and corners of the boxes and of their EPSILON-padded and -shrunk copies,
    and run along them; copying some of a segment's start coordinates into
    its end makes it parallel to one or two axes.  The box list may be empty.
    """
    n_boxes, n = draw(st.integers(0, 6)), draw(st.integers(1, 30))
    mins = draw(arrays(np.int64, (n_boxes, 3), elements=st.integers(-6, 5))).astype(float)
    mins[:, 2] = np.abs(mins[:, 2])
    maxs = mins + draw(arrays(np.int64, (n_boxes, 3), elements=st.integers(1, 4)))

    def coords():
        grid = draw(arrays(np.int64, (n, 3), elements=st.integers(-8, 8))).astype(float)
        return grid + draw(arrays(np.int64, (n, 3), elements=st.integers(-1, 1))) * EPSILON

    starts = coords()
    ends = np.where(draw(arrays(np.bool_, (n, 3))), starts, coords())
    return mins, maxs, draw(st.permutations(range(n_boxes))), starts, ends


class TestKernelMatchesReference:
    """The row kernel decides every segment and point exactly as the per-axis reference."""

    @staticmethod
    def rows(a):
        return np.ascontiguousarray(a.T)

    @settings(max_examples=300, deadline=None)
    @given(kernel_scenes())
    def test_segments_blocked(self, scene):
        mins, maxs, order, starts, ends = scene
        for s, e in ((starts, ends), (ends, starts)):
            want = segments_blocked_reference(s, e, mins, maxs)
            got = _segments_blocked(self.rows(s), self.rows(e), mins[order], maxs[order])
            assert np.array_equal(got, want)
        # one shared start as a (3, 1) column, the layout curves use
        shared = np.broadcast_to(starts[:1], ends.shape)
        want = segments_blocked_reference(shared, ends, mins, maxs)
        got = _segments_blocked(self.rows(starts[:1]), self.rows(ends), mins, maxs)
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(kernel_scenes())
    def test_points_strictly_inside(self, scene):
        mins, maxs, order, starts, ends = scene
        db = BuildingDB("grid", tuple(Box3(Point3(*mins[i]), Point3(*maxs[i])) for i in order))
        points = np.concatenate((starts, ends, (starts + ends) / 2))
        assert np.array_equal(points_strictly_inside(db, points),
                              points_strictly_inside_reference(points, mins, maxs))
        # per box, in database order: which points it strictly contains
        inside = np.array([points_strictly_inside_reference(points, mins[i:i + 1], maxs[i:i + 1])
                           for i in order], dtype=bool).reshape(len(order), len(points))
        for p, hits in zip(points, inside.T):
            assert find_containing_building(db, Point3(*p)) == (int(hits.argmax()) if hits.any() else None)


def directions(tx, rx):
    """The directions of ``(3, n)`` receiver rows from the ground point of ``tx``, in [0, 2 pi)."""
    angles = np.arctan2(rx[1] - tx.y, rx[0] - tx.x) % (2.0 * np.pi)
    return np.where(angles < 2.0 * np.pi, angles, 0.0)  # a tiny negative angle rounds up to 2 pi


@st.composite
def tracer_scenes(draw):
    """Boxes, a transmitter clear of them and ``(3, n)`` receiver rows around it.

    Receivers lie in the directions of footprint corners, on the corners or
    0.5e-9 m beside them, where only the EPSILON padding reaches a segment;
    in the middle of a box; on the +x and -x axes from the ground point,
    where sectors wrap; at the ground point itself, above or below the
    transmitter; or anywhere.  A box may hold the ground point, with the
    transmitter on or above its roof.
    """
    tx = Point3(draw(st.integers(-10, 10)), draw(st.integers(-10, 10)), draw(st.sampled_from([0.0, 1.5, 7.0, 20.0])))
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            x0, y0 = draw(st.integers(-40, 39)), draw(st.integers(-40, 39))
            x1, y1 = draw(st.integers(x0 + 1, 40)), draw(st.integers(y0 + 1, 40))
            z0, z1 = draw(st.sampled_from([(0, 1.5), (0, 10), (0, 40), (1.5, 10), (5, 40)]))
        else:  # over the ground point, its roof at or below the transmitter
            x0, y0 = tx.x - draw(st.integers(0, 5)), tx.y - draw(st.integers(0, 5))
            x1, y1 = draw(st.integers(x0 + 1, tx.x + 5)), draw(st.integers(y0 + 1, tx.y + 5))
            z0, z1 = 0, draw(st.sampled_from([tx.z, tx.z / 2, 1.0]))
        assume(z1 > z0)
        boxes.append(Box3(Point3(x0, y0, z0), Point3(x1, y1, z1)))
    db = BuildingDB("tracer", boxes)
    assume(find_containing_building(db, tx) is None)
    receivers = []
    for _ in range(draw(st.integers(1, 20))):
        z = draw(st.sampled_from([0.0, 1.5, 10.0, 40.0]))
        kind = draw(st.sampled_from(["corner", "middle", "axis", "ground", "anywhere"][0 if boxes else 2:]))
        if kind == "corner":
            box = draw(st.sampled_from(boxes))
            offset = [draw(st.sampled_from([-0.5e-9, 0.0, 0.5e-9])) for _ in range(2)]
            corner = np.array([draw(st.sampled_from([box.min_corner.x, box.max_corner.x])),
                               draw(st.sampled_from([box.min_corner.y, box.max_corner.y]))]) + offset
            x, y = np.array([tx.x, tx.y]) + draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) * (corner - [tx.x, tx.y])
        elif kind == "middle":
            box = draw(st.sampled_from(boxes))
            x, y, z = (np.add(box.min_corner.to_array(), box.max_corner.to_array()) / 2).tolist()
        elif kind == "axis":
            x, y = tx.x + draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 60)), tx.y
        elif kind == "ground":
            x, y = tx.x, tx.y
            z = z if z != tx.z else tx.z + 1.0
        else:
            x, y = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
        assume((x, y, z) != (tx.x, tx.y, tx.z))
        receivers.append((float(x), float(y), z))
    return db, tx, np.array(receivers).T


def tracer_scene(tx, boxes, receivers):
    """A tracer scene of the given (min corner, max corner) boxes and receiver positions."""
    return BuildingDB("edge", tuple(Box3(Point3(*lo), Point3(*hi)) for lo, hi in boxes)), tx, np.array(receivers).T


class TestSectorTracer:
    @settings(max_examples=300, deadline=None)
    @given(tracer_scenes())
    # a sector that wraps past angle 0, a transmitter on the roof of a box
    # over its ground point, an interior receiver ahead of a blocked one in
    # another box's sector, and a receiver 0.5e-9 m beside a box's corner
    @example(tracer_scene(Point3(0, 0, 7), [((20, -5, 0), (30, 5, 40))], [(40, -10, 1.5)]))
    @example(tracer_scene(Point3(0, 0, 1.5), [((-5, -5, 0), (5, 5, 1.5))], [(-20, 0, 1.5)]))
    @example(tracer_scene(Point3(0, 0, 7), [((10, -5, 0), (20, 5, 40)), ((-5, 10, 0), (5, 20, 40))],
                          [(15, 0, 1.5), (0, 30, 1.5)]))
    @example(tracer_scene(Point3(0, 0, 7), [((-10, 10, 0), (-0.5e-9, 20, 40))], [(0, 30, 1.5)]))
    # a box spanning the heights with receivers 0.5e-6 m short of its face and 0.5e-6 m past it, on its
    # roof, and a wall 0.4e-6 m thick, which shrinks to nothing, with one 0.5e-6 m past its near face:
    # all in the band between the grown and the shrunk entries
    @example(tracer_scene(Point3(0, 0, 7), [((20, -5, 0), (30, 5, 40))], [(20 - 0.5e-6, 0, 1.5), (20 + 0.5e-6, 0, 40)]))
    @example(tracer_scene(Point3(0, 0, 7), [((20 - 0.5e-6, -5, 0), (20 - 0.1e-6, 5, 40))], [(20, 0, 1.5)]))
    # the ray at angle 0 running along a face, and a transmitter over a low box next to tall ones, so the
    # boxes that span the heights and the one that does not are tested in one block
    @example(tracer_scene(Point3(0, 0, 7), [((10, 0, 0), (20, 5, 40))], [(5, 0, 1.5), (30, 0, 1.5)]))
    @example(tracer_scene(Point3(0, 0, 7), [((-5, -5, 0), (5, 5, 1.5)), ((10, -5, 0), (20, 5, 40)),
                                            ((-5, 10, 0), (5, 20, 40))],
                          [(3, 3, 1.5), (-20, 0, 1.5), (30, 0, 1.5), (0, 30, 10)]))
    # every receiver inside a box, so none is tested; receivers in the sector of a low box alone, which does
    # not span, beside a tall box with none in its sector; a box over the transmitter's height but above the
    # receivers', which does not span
    @example(tracer_scene(Point3(0, 0, 7), [((10, -5, 0), (20, 5, 40))], [(15, 0, 1.5), (15, 1, 10)]))
    @example(tracer_scene(Point3(0, 0, 7), [((10, -5, 0), (20, 5, 1.5)), ((-5, 10, 0), (5, 20, 40))],
                          [(21, 0, 0), (40, 0, 1.5)]))
    @example(tracer_scene(Point3(0, 0, 7), [((10, -5, 5), (20, 5, 40))], [(30, 0, 1.5), (30, 0, 10)]))
    def test_trace_equals_per_receiver_tests(self, scene):
        db, tx, rx = scene
        angles = directions(tx, rx)
        order = np.argsort(angles, kind="stable")
        rx, angles = np.ascontiguousarray(rx[:, order]), angles[order]
        exterior, los = _sector_tracer(db, tx, np.hypot(rx[0] - tx.x, rx[1] - tx.y).max())(rx, angles)
        points = [Point3(*p) for p in rx.T.tolist()]
        assert exterior.tolist() == [find_containing_building(db, p) is None for p in points]
        assert los.tolist() == [is_los(db, tx, p) for p, out in zip(points, exterior) if out]


class TestPointInBuilding:
    def test_empty_db(self):
        assert point_in_any_building(BuildingDB("e", ()), Point3(3, 3, 3)) is False

    def test_centroid_inside(self):
        assert point_in_any_building(make_db(UNIT_BOX), Point3(5, 5, 1)) is True

    def test_boundary_is_outside(self):
        db = make_db(UNIT_BOX)
        assert point_in_any_building(db, Point3(0, 5, 1)) is False
        assert point_in_any_building(db, Point3(5, 5, 10)) is False

    def test_containing_index(self):
        db = make_db(
            Box3(Point3(0, 0, 0), Point3(10, 10, 10)),
            Box3(Point3(20, 0, 0), Point3(30, 10, 10)),
        )
        assert find_containing_building(db, Point3(25, 5, 5)) == 1
        assert find_containing_building(db, Point3(15, 5, 5)) is None


class TestIsLos:
    def test_empty_db_is_los(self):
        assert is_los(BuildingDB("e", ()), Point3(0, 0, 7), Point3(100, 0, 1.5)) is True

    def test_straddling_box_blocks(self):
        db = make_db(Box3(Point3(10, -5, 0), Point3(20, 5, 30)))
        assert is_los(db, Point3(0, 0, 7), Point3(30, 0, 1.5)) is False

    def test_parallel_face_clear(self):
        db = make_db(Box3(Point3(0, 0, 0), Point3(10, 10, 20)))
        assert is_los(db, Point3(-5, 5, 7), Point3(-5, 50, 1.5)) is True

    def test_endpoint_inside_raises_with_index(self):
        db = make_db(UNIT_BOX)
        with pytest.raises(PointInsideBuildingError) as info:
            is_los(db, Point3(5, 5, 5), Point3(50, 50, 1.5))
        assert info.value.building_index == 0

    def test_building_order_irrelevant(self):
        boxes = (
            Box3(Point3(10, -5, 0), Point3(20, 5, 30)),
            Box3(Point3(40, 40, 0), Point3(50, 50, 30)),
            Box3(Point3(-30, -30, 0), Point3(-20, -20, 30)),
        )
        rng = np.random.default_rng(404)
        for _ in range(50):
            order = rng.permutation(3)
            db = BuildingDB("p", tuple(boxes[i] for i in order))
            tx = Point3(*rng.uniform(-15, 15, 2), 7.0)
            rx = Point3(*rng.uniform(-60, 60, 2), 1.5)
            if point_in_any_building(db, tx) or point_in_any_building(db, rx):
                continue
            baseline = is_los(BuildingDB("b", boxes), tx, rx)
            assert is_los(db, tx, rx) == baseline

    @pytest.mark.parametrize("tx, rx", [((0, 0, -3), (30, 0, 1.5)), ((0, 0, 7), (30, 0, -0.5))])
    def test_endpoint_below_ground_rejected(self, tx, rx):
        with pytest.raises(ValueError, match="ground"):
            is_los(BuildingDB("e", ()), Point3(*tx), Point3(*rx))

    @pytest.mark.parametrize("tx, rx", [((1e7, -1e7, 1e7), (-1e7, 1e7, 0)), ((1e7 * (1 + 2**-52), 0, 7), (30, 0, 1.5)),
                                        ((0, 0, 7), (0, -2e7, 1.5)), ((0, 0, 7), (30, 0, 1e300))])
    def test_coordinate_bound(self, tx, rx):
        db = BuildingDB("e", ())
        if max(map(abs, tx + rx)) <= 1e7:
            assert is_los(db, Point3(*tx), Point3(*rx)) is True
        else:
            with pytest.raises(ValueError, match="within 1e\\+07 m of the origin on each axis"):
                is_los(db, Point3(*tx), Point3(*rx))

    def test_ground_level_endpoint_allowed(self):
        db = make_db(Box3(Point3(10, -5, 0), Point3(20, 5, 30)))
        assert is_los(db, Point3(0, 0, 0), Point3(5, 0, 0)) is True
        assert is_los(db, Point3(0, 0, 0), Point3(30, 0, 0)) is False

    def test_translation_invariance(self):
        db = make_db(Box3(Point3(10, -5, 0), Point3(20, 5, 30)))
        shifted = make_db(Box3(Point3(110, 195, 0), Point3(120, 205, 30)))
        assert is_los(db, Point3(0, 0, 7), Point3(30, 0, 1.5)) == is_los(
            shifted, Point3(100, 200, 7), Point3(130, 200, 1.5)
        )
