"""Scene geometry: parsing, box intersection and LOS classification."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmwpl.geometry import (
    EPSILON,
    Box3,
    BuildingDB,
    BuildingDBError,
    Point3,
    PointInsideBuildingError,
    TxSite,
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
    points_strictly_inside_reference,
    sampled_segment_hits_box,
    segments_blocked_reference,
)

UNIT_BOX = Box3(Point3(0, 0, 0), Point3(10, 10, 10))


def make_db(*boxes):
    return BuildingDB("test", tuple(boxes))


class TestTypes:
    def test_point_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Point3(bad, 0.0, 0.0)

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

    def test_rejects_malformed_json(self):
        with pytest.raises(BuildingDBError):
            parse_building_db("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(BuildingDBError):
            parse_building_db("[1, 2]")

    def test_rejects_missing_fields(self):
        with pytest.raises(BuildingDBError):
            parse_building_db('{"buildings": []}')
        with pytest.raises(BuildingDBError):
            parse_building_db('{"name": "x"}')

    def test_rejects_nan_and_infinity_literals(self):
        base = '{"name": "x", "buildings": [{"min": [0, 0, %s], "max": [1, 1, 1]}]}'
        for literal in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(BuildingDBError):
                parse_building_db(base % literal)

    def test_rejects_overflowing_float(self):
        # 1e999 parses to inf without touching the constant hook
        text = '{"name": "x", "buildings": [{"min": [0, 0, 0], "max": [1e999, 1, 1]}]}'
        with pytest.raises(BuildingDBError):
            parse_building_db(text)

    def test_degenerate_box_names_index(self):
        doc = {
            "name": "x",
            "buildings": [
                {"min": [0, 0, 0], "max": [1, 1, 1]},
                {"min": [5, 5, 0], "max": [5, 6, 1]},
            ],
        }
        with pytest.raises(BuildingDBError, match="building 1"):
            parse_building_db(json.dumps(doc))

    def test_negative_base_height_rejected(self):
        doc = {"name": "x", "buildings": [{"min": [0, 0, -0.5], "max": [1, 1, 1]}]}
        with pytest.raises(BuildingDBError):
            parse_building_db(json.dumps(doc))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"name": "f", "buildings": []}')
        assert load_building_db(path).name == "f"


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
