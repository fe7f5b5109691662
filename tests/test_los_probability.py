"""LOS probability: circle sampling, curves, the analytic model and its fit."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmwpl import demo
from mmwpl import los_probability
from mmwpl.geometry import (
    Box3,
    BuildingDB,
    Point3,
    PointInsideBuildingError,
    _segments_blocked,
    find_containing_building,
    points_strictly_inside,
)
from mmwpl.los_probability import (
    MAX_GRID_POINTS,
    NYC_SITE_LOS_PARAMS,
    LosProbParams,
    LosProbabilityCurve,
    curve_from_csv,
    curve_to_csv,
    fit_p_los,
    los_probability_curve,
    mean_curve,
    p_los_model,
    radius_grid,
)
from oracles import (
    circle_los_fraction,
    fit_reference,
    mse_grid_reference,
    mse_table_reference,
    poisson_box_p_los,
    poisson_box_scene,
)

POOLED = LosProbParams(27.0, 71.0)

SLAB_DB = BuildingDB("slab", (Box3(Point3(10, -1000, 0), Point3(20, 1000, 50)),))
SLAB_TX = Point3(0.0, 0.0, 7.0)

# Brute-force oracle results for the slab scene (exterior-point denominator),
# pinned from a 10^4-sample membership classifier per segment.
SLAB_EXPECTED = {
    15.0: (1.0, 73),
    20.0: (67 / 68, 68),
    25.0: (63 / 84, 84),
    50.0: (57 / 94, 94),
    100.0: (53 / 96, 96),
    150.0: (53 / 98, 98),
    200.0: (51 / 98, 98),
}


def circle_row(db, tx, radius, **kwargs):
    """(p_los, valid) at one radius: the only row of the curve on the grid radius, radius, 1.0."""
    curve = los_probability_curve(db, tx, radius, radius, 1.0, **kwargs)
    return curve.p_los[0], curve.valid[0]


def flat_curve(radii, value=1.0):
    radii = np.asarray(radii, dtype=float)
    return LosProbabilityCurve(radii, np.full(radii.size, value), np.ones(radii.size, bool))


class TestRadiusGrid:
    def test_default_grid_has_191_points(self):
        g = radius_grid(10.0, 200.0, 1.0)
        assert g.size == 191
        assert g[0] == 10.0 and g[-1] == 200.0

    def test_single_point(self):
        assert radius_grid(50.0, 50.0, 1.0).tolist() == [50.0]

    def test_rejects_bad_arguments(self):
        for args in ((0.0, 10.0, 1.0), (10.0, 5.0, 1.0), (10.0, 20.0, 0.0)):
            with pytest.raises(ValueError):
                radius_grid(*args)

    @pytest.mark.parametrize("args", [(10.0, 200.0, np.inf), (np.inf, np.inf, 1.0)])
    def test_rejects_non_finite_start_or_step(self, args):
        with pytest.raises(ValueError, match="r_min and step must be finite"):
            radius_grid(*args)

    def test_point_count_capped(self):
        assert radius_grid(1.0, float(MAX_GRID_POINTS), 1.0).size == MAX_GRID_POINTS
        for args in ((1.0, MAX_GRID_POINTS + 1.0, 1.0), (10.0, 200.0, 1e-9), (10.0, np.inf, 1.0)):
            with pytest.raises(ValueError, match="more than 1000000 points"):
                radius_grid(*args)


class TestCircleSampling:
    def test_empty_db_certain_los(self):
        assert circle_row(BuildingDB("e", ()), SLAB_TX, 50.0)[0] == 1.0

    def test_slab_scene_matches_oracle(self):
        for radius, (expected, n_ext) in SLAB_EXPECTED.items():
            got = circle_row(SLAB_DB, SLAB_TX, radius)[0]
            assert got == expected, f"radius {radius}: got {got}, oracle {expected}"
            # re-derive with the independent oracle as well
            frac, ext, _ = circle_los_fraction(
                (SLAB_TX.x, SLAB_TX.y, SLAB_TX.z), radius,
                [SLAB_DB.min_array[0]], [SLAB_DB.max_array[0]],
                segment_samples=2000,
            )
            assert ext == n_ext
            assert frac == expected

    def test_interior_denominator_toggle(self):
        # at 100 m, 4 of the 100 positions sit inside the slab
        default = circle_row(SLAB_DB, SLAB_TX, 100.0)[0]
        as_nlos = circle_row(SLAB_DB, SLAB_TX, 100.0, interior_counts_as_nlos=True)[0]
        assert default == 53 / 96
        assert as_nlos == 53 / 100

    def test_fully_walled_tx_has_zero(self):
        wall = BuildingDB("wall", (
            Box3(Point3(-6, -6, 0), Point3(-5, 6, 40)),
            Box3(Point3(5, -6, 0), Point3(6, 6, 40)),
            Box3(Point3(-5, -6, 0), Point3(5, -5, 40)),
            Box3(Point3(-5, 5, 0), Point3(5, 6, 40)),
        ))
        assert circle_row(wall, Point3(0, 0, 7), 50.0)[0] == 0.0

    def test_all_positions_interior_is_undefined(self):
        giant = BuildingDB("g", (Box3(Point3(-100, -100, 0), Point3(100, 100, 40)),))
        assert not circle_row(giant, Point3(0, 0, 50), 20.0)[1]

    def test_tx_inside_building_raises(self):
        db = BuildingDB("b", (Box3(Point3(-5, -5, 0), Point3(5, 5, 30)),))
        with pytest.raises(PointInsideBuildingError) as info:
            circle_row(db, Point3(0, 0, 7), 50.0)
        assert info.value.building_index == 0

    def test_rejects_bad_radius_and_points(self):
        with pytest.raises(ValueError):
            circle_row(SLAB_DB, SLAB_TX, 0.0)
        with pytest.raises(ValueError, match="r_min and step must be finite"):
            circle_row(SLAB_DB, SLAB_TX, np.inf)
        with pytest.raises(ValueError):
            circle_row(SLAB_DB, SLAB_TX, 50.0, n_points=3)
        for n_points in (100.0, 100.5):
            with pytest.raises(ValueError, match="n_points must be an integer"):
                circle_row(SLAB_DB, SLAB_TX, 50.0, n_points=n_points)

    @pytest.mark.parametrize("height", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rx_height(self, height):
        with pytest.raises(ValueError, match="rx_height_m"):
            circle_row(SLAB_DB, SLAB_TX, 50.0, rx_height_m=height)
        with pytest.raises(ValueError, match="rx_height_m"):
            los_probability_curve(SLAB_DB, SLAB_TX, rx_height_m=height)

    def test_rejects_below_ground_endpoints(self):
        with pytest.raises(ValueError, match="rx_height_m must be >= 0"):
            circle_row(SLAB_DB, SLAB_TX, 50.0, rx_height_m=-5.0)
        with pytest.raises(ValueError, match="rx_height_m must be >= 0"):
            los_probability_curve(SLAB_DB, SLAB_TX, rx_height_m=-1e-9)
        with pytest.raises(ValueError, match="tx z must be >= 0"):
            los_probability_curve(SLAB_DB, Point3(0.0, 0.0, -3.0))
        # ground level itself is valid
        assert circle_row(SLAB_DB, Point3(0.0, 0.0, 0.0), 50.0, rx_height_m=0.0)[1]

    def test_point_count_capped(self):
        with pytest.raises(ValueError, match="n_points"):
            circle_row(SLAB_DB, SLAB_TX, 50.0, n_points=MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match="n_points"):
            los_probability_curve(SLAB_DB, SLAB_TX, n_points=MAX_GRID_POINTS + 1)

    def test_quarter_turn_rotation_invariance(self):
        # 100 points step 3.6 degrees; a 90 degree turn maps the sample set
        # onto itself, and rotated boxes stay axis aligned
        def rot_p(p):
            return Point3(-p.y, p.x, p.z)

        def rot_box(b):
            return Box3(
                Point3(-b.max_corner.y, b.min_corner.x, b.min_corner.z),
                Point3(-b.min_corner.y, b.max_corner.x, b.max_corner.z),
            )

        rot_db = BuildingDB("rot", tuple(rot_box(b) for b in SLAB_DB.buildings))
        for radius in (25.0, 100.0, 180.0):
            assert circle_row(SLAB_DB, SLAB_TX, radius) == circle_row(rot_db, rot_p(SLAB_TX), radius)


@st.composite
def occlusion_scenes(draw):
    """A box database, one more box, a transmitter clear of both and a receiver height.

    Integer corners and positions put receivers on faces and rays along
    them, where an occlusion kernel's comparisons are easiest to get wrong.
    """
    def box():
        x0, y0 = draw(st.integers(-60, 59)), draw(st.integers(-60, 59))
        z0, z1 = draw(st.sampled_from([(0, 1.5), (0, 10), (0, 40), (1.5, 10), (5, 40)]))
        return Box3(Point3(x0, y0, z0),
                    Point3(draw(st.integers(x0 + 1, 60)), draw(st.integers(y0 + 1, 60)), z1))

    db = BuildingDB("boxes", tuple(box() for _ in range(draw(st.integers(0, 5)))))
    more = BuildingDB("more", db.buildings + (box(),))
    tx = Point3(draw(st.integers(-30, 30)), draw(st.integers(-30, 30)),
                draw(st.sampled_from([1.5, 7.0, 10.0, 50.0])))
    assume(find_containing_building(more, tx) is None)
    return db, more, tx, draw(st.sampled_from([0.0, 1.5, 10.0]))


def uncropped_curve(db, tx, radii, n_points, rx_height, interior_nlos):
    """p_los on the receiver positions of los_probability_curve, traced in one block against every box with no ranges."""
    which, k = np.divmod(np.arange(radii.size * n_points), n_points)
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    r = radii[which]
    rx = np.stack((tx.x + r * np.cos(angles)[k], tx.y + r * np.sin(angles)[k], np.full(which.size, rx_height)))
    exterior = ~points_strictly_inside(db, rx.T)
    rx, which = np.compress(exterior, rx, axis=1), which[exterior]
    los = ~_segments_blocked(tx.to_array()[:, None], rx, db.min_array, db.max_array)
    n_exterior = np.bincount(which, minlength=radii.size)
    n_los = np.bincount(which[los], minlength=radii.size)
    with np.errstate(invalid="ignore"):
        return np.where(n_exterior > 0, n_los / (n_points if interior_nlos else n_exterior), np.nan)


@st.composite
def cull_scenes(draw):
    """Boxes on both sides of each culled radius and sector edge, a transmitter clear of them and a receiver height.

    Beside random boxes, each edge box is one of these, its sides 1 to 20 m:

    - a box whose footprint's nearest point, to the transmitter's ground
      point, is exactly on the last radius (60 m), on another grid radius,
      2e-6 m either side of a grid radius (twice the crop's margin: a
      receiver just inside the box, or a segment just short of it), or
      0.5e-9 m beyond 60 m, where only the EPSILON padding reaches a
      segment; that point is a face's middle or a corner;
    - a box across the +x or -x axis from the ground point, one side
      possibly on the axis, so that its sector wraps past angle 0 or spans
      angle pi;
    - a box with a corner exactly in a direction that is a multiple of 45
      degrees from the ground point, which is a receiver's direction for 4
      and 16 points, or 0.5e-9 m across it, where only the EPSILON padding
      reaches the receiver's segment;
    - a box whose footprint holds the ground point: under the transmitter,
      or with the transmitter on one of its faces.
    """
    tx = Point3(draw(st.integers(-30, 30)), draw(st.integers(-30, 30)),
                draw(st.sampled_from([1.5, 7.0, 10.0, 50.0])))
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(st.integers(-80, 79)), draw(st.integers(-80, 79))
        boxes.append(((x0, y0, 0), (draw(st.integers(x0 + 1, 80)), draw(st.integers(y0 + 1, 80)),
                                    draw(st.sampled_from([1.5, 10, 40])))))
    for _ in range(draw(st.integers(1, 4))):
        sx, sy = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))
        w, h = draw(st.integers(1, 20)), draw(st.sampled_from([1.5, 10, 40]))
        kind = draw(st.sampled_from(["radius", "axis", "direction", "ground"]))
        if kind == "radius":
            d = draw(st.sampled_from([60.0, 60.0 + 0.5e-9, 5.0 * draw(st.integers(1, 11)) + draw(
                st.sampled_from([0.0, -2e-6, 2e-6]))]))
            if draw(st.booleans()):  # a corner at (0.6 d, 0.8 d) from the transmitter, up to signs
                cx, cy = tx.x + sx * 0.6 * d, tx.y + sy * 0.8 * d
                xs, ys = sorted((cx, cx + sx * w)), sorted((cy, cy + sy * w))
            elif draw(st.booleans()):  # a face at x = tx.x +- d, across the transmitter's y
                xs, ys = sorted((tx.x + sx * d, tx.x + sx * (d + w))), (tx.y - w, tx.y + w)
            else:  # a face at y = tx.y +- d, across the transmitter's x
                xs, ys = (tx.x - w, tx.x + w), sorted((tx.y + sy * d, tx.y + sy * (d + w)))
        elif kind == "axis":  # y from tx.y - b to tx.y + a, or mirrored, at x = tx.x +- d
            d, a, b = draw(st.integers(1, 65)), draw(st.integers(0, w)), draw(st.integers(1, w))
            xs, ys = sorted((tx.x + sx * d, tx.x + sx * (d + w))), sorted((tx.y + sy * a, tx.y - sy * b))
        elif kind == "direction":  # a corner at (d, d), (d, 0) or (0, d) from the transmitter, up to signs
            d, off = draw(st.integers(1, 60)), draw(st.sampled_from([0.0, 0.5e-9, -0.5e-9]))
            cx, cy = draw(st.sampled_from([(tx.x + sx * d + off, tx.y + sy * d), (tx.x + sx * d, tx.y + off),
                                           (tx.x + off, tx.y + sy * d)]))
            ax, ay = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))
            xs, ys = sorted((cx, cx + ax * w)), sorted((cy, cy + ay * draw(st.integers(1, 20))))
        else:  # x from tx.x - a to tx.x + b and y from tx.y - c to tx.y + e
            a, c = draw(st.integers(0, w)), draw(st.integers(0, w))
            b, e = draw(st.integers(0 if a else 1, w)), draw(st.integers(0 if c else 1, w))
            xs, ys = (tx.x - a, tx.x + b), (tx.y - c, tx.y + e)
            if 0 not in (a, b, c, e):  # the transmitter is on no side face: it is on or above the roof
                h = min(h, tx.z)
        boxes.append(((xs[0], ys[0], 0), (xs[1], ys[1], h)))
    order = draw(st.permutations(range(len(boxes))))
    db = BuildingDB("cull", tuple(Box3(Point3(*boxes[i][0]), Point3(*boxes[i][1])) for i in order))
    assume(find_containing_building(db, tx) is None)
    return db, tx, draw(st.sampled_from([0.0, 1.5, 10.0]))


def box_scene(tx, *boxes):
    """A cull scene of the given (min corner, max corner) boxes, with receivers at 1.5 m."""
    return BuildingDB("edge", tuple(Box3(Point3(*lo), Point3(*hi)) for lo, hi in boxes)), tx, 1.5


class TestOcclusionProperties:
    GRID = dict(r_min=5.0, r_max=60.0, step=5.0, n_points=16)

    @settings(max_examples=200, deadline=None)
    @given(cull_scenes(), st.sampled_from([4, 7, 16]))
    # a sector that wraps past angle 0, a corner on the 45 degree receiver
    # direction of 16 points and one 0.5e-9 m beside the 90 degree direction,
    # a transmitter above a low box over its ground point, and one on a box face
    @example(box_scene(Point3(0, 0, 7), ((20, -5, 0), (30, 5, 40))), 7)
    @example(box_scene(Point3(0, 0, 7), ((1, 10, 0), (10, 20, 40))), 16)
    @example(box_scene(Point3(0, 0, 7), ((-10, 10, 0), (-0.5e-9, 20, 40))), 16)
    @example(box_scene(Point3(0, 0, 7), ((-5, -5, 0), (5, 5, 1.5))), 4)
    @example(box_scene(Point3(0, 0, 7), ((0, -5, 0), (10, 5, 20)), ((-30, 0, 0), (-20, 10, 10))), 16)
    def test_culled_curve_equals_the_uncropped_trace(self, scene, n_points):
        db, tx, rx_height = scene
        grid = dict(self.GRID, n_points=n_points)
        radii = radius_grid(grid["r_min"], grid["r_max"], grid["step"])
        for interior_nlos in (False, True):
            curve = los_probability_curve(db, tx, rx_height_m=rx_height, interior_counts_as_nlos=interior_nlos, **grid)
            reference = uncropped_curve(db, tx, radii, n_points, rx_height, interior_nlos)
            assert curve.p_los.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(occlusion_scenes())
    def test_adding_a_box_never_raises_a_los_count(self, scene):
        db, more, tx, rx_height = scene

        def los_counts(boxes):
            # with interior positions counted as NLOS, p_los is count / n_points
            curve = los_probability_curve(boxes, tx, rx_height_m=rx_height,
                                          interior_counts_as_nlos=True, **self.GRID)
            return np.nan_to_num(curve.p_los) * self.GRID["n_points"]

        assert np.all(los_counts(more) <= los_counts(db))

    @settings(max_examples=100, deadline=None)
    @given(occlusion_scenes(), st.booleans())
    def test_valid_probabilities_lie_in_unit_interval(self, scene, interior_nlos):
        _, more, tx, rx_height = scene
        curve = los_probability_curve(more, tx, rx_height_m=rx_height,
                                      interior_counts_as_nlos=interior_nlos, **self.GRID)
        p = curve.p_los[curve.valid]
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.isnan(curve.p_los[~curve.valid]))

    @settings(max_examples=100, deadline=None)
    @given(occlusion_scenes(), st.integers(0, 11))
    def test_one_radius_curve_is_a_row_of_the_grid_curve(self, scene, i):
        _, more, tx, rx_height = scene
        for interior_nlos in (False, True):
            kwargs = dict(n_points=self.GRID["n_points"], rx_height_m=rx_height,
                          interior_counts_as_nlos=interior_nlos)
            grid = los_probability_curve(more, tx, self.GRID["r_min"], self.GRID["r_max"],
                                         self.GRID["step"], **kwargs)
            r = grid.radii_m[i]
            one = los_probability_curve(more, tx, r, r, 1.0, **kwargs)
            assert one.radii_m.tolist() == [r]
            assert one.p_los.tobytes() == grid.p_los[i:i + 1].tobytes()
            assert one.valid.tolist() == [grid.valid[i]]


class TestCurve:
    def test_empty_db_all_ones(self):
        curve = los_probability_curve(BuildingDB("e", ()), SLAB_TX)
        assert len(curve) == 191
        assert np.all(curve.p_los == 1.0)
        assert np.all(curve.valid)

    def test_slab_scene_grid_values(self):
        curve = los_probability_curve(SLAB_DB, SLAB_TX, r_min=10, r_max=200, step=5)
        by_radius = dict(zip(curve.radii_m, curve.p_los))
        for radius, (expected, _) in SLAB_EXPECTED.items():
            assert by_radius[radius] == expected

    def test_single_radius_curve(self):
        curve = los_probability_curve(SLAB_DB, SLAB_TX, r_min=100, r_max=100, step=1)
        assert len(curve) == 1
        assert curve.p_los[0] == 53 / 96

    def test_any_block_size_gives_identical_curves(self, monkeypatch):
        # on the roof of one big box every position out to 99 m is interior,
        # so NaN and valid=False runs cross block edges
        roof = BuildingDB("roof", (Box3(Point3(-100, -100, 0), Point3(100, 100, 40)),))
        cases = (
            (demo.load_scene("tower"), demo.tx_site("tower").position,
             dict(r_min=10, r_max=40, step=3, n_points=12)),
            (roof, Point3(0, 0, 50), dict(r_min=90, r_max=150, step=5, n_points=16)),
        )
        for db, tx, grid in cases:
            for interior_nlos in (False, True):
                whole = los_probability_curve(db, tx, interior_counts_as_nlos=interior_nlos, **grid)
                for block in (1, 7, 1000):
                    monkeypatch.setattr("mmwpl.los_probability._RAYS_PER_BLOCK", block)
                    split = los_probability_curve(db, tx, interior_counts_as_nlos=interior_nlos, **grid)
                    monkeypatch.undo()
                    assert split.p_los.tobytes() == whole.p_los.tobytes()
                    assert np.array_equal(split.valid, whole.valid)
        # the last case traced is the roof: its first two radii are undefined
        assert not whole.valid[:2].any() and whole.valid[2:].all()

    def test_memory_does_not_grow_with_grid(self, monkeypatch):
        monkeypatch.setattr("mmwpl.los_probability._RAYS_PER_BLOCK", 2000)
        SLAB_DB.min_array, SLAB_DB.max_array  # cache outside the measurement

        def peak(step):
            tracemalloc.start()
            try:
                los_probability_curve(SLAB_DB, SLAB_TX, step=step)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # ten times the rays, about the same working set
        assert peak(0.1) < 1.5 * peak(1.0)

    def test_tx_inside_names_its_box_whatever_the_crop_drops(self):
        # boxes 0 and 1 lie far beyond r_max and are cropped; box 2 holds the transmitter
        far = (Box3(Point3(500, 500, 0), Point3(510, 510, 30)), Box3(Point3(-900, 0, 0), Point3(-890, 10, 30)))
        db = BuildingDB("b", far + (Box3(Point3(-5, -5, 0), Point3(5, 5, 30)),))
        with pytest.raises(PointInsideBuildingError) as info:
            los_probability_curve(db, Point3(0, 0, 7), r_max=50.0)
        assert info.value.building_index == 2

    def test_tx_inside_raises_before_sweeping(self):
        db = BuildingDB("b", (Box3(Point3(-5, -5, 0), Point3(5, 5, 30)),))
        with pytest.raises(PointInsideBuildingError):
            los_probability_curve(db, Point3(0, 0, 7))

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError):
            LosProbabilityCurve(np.array([10.0, 10.0]), np.array([1.0, 1.0]), np.ones(2, bool))
        with pytest.raises(ValueError):
            LosProbabilityCurve(np.array([10.0, 20.0]), np.array([1.0, 1.5]), np.ones(2, bool))
        with pytest.raises(ValueError, match="^radii_m, p_los and valid must be 1-D arrays of equal length$"):
            LosProbabilityCurve(np.array([10.0, 20.0]), np.array([1.0]), np.ones(2, bool))
        # out-of-range value behind an invalid mask is tolerated
        LosProbabilityCurve(np.array([10.0, 20.0]), np.array([1.0, np.nan]), np.array([True, False]))

    @pytest.mark.parametrize("bad", [0.0, -5.0, np.inf, np.nan])
    def test_constructor_rejects_non_positive_or_non_finite_radii(self, bad):
        radii = np.sort(np.array([bad, 10.0, 20.0]))
        with pytest.raises(ValueError, match="positive and finite"):
            LosProbabilityCurve(radii, np.ones(3), np.ones(3, bool))


# sha256 of p_los bytes + valid bytes for each bundled scene's default curve
# (10-200 m step 1, 100 points, demo transmitter), per interior mode.  Any
# change to the tracing path must leave these bit-identical.
GOLDEN_CURVES = {
    ("avenue", False): "e8ae4ba658f7ed31ab348bab625bd66861c1483af8e383f3c0544f96f1687d72",
    ("avenue", True): "068655c394223add24dae45163d662d323bd62c6138cbb9b877ef8079060130c",
    ("crosstown", False): "f24e56494babc853107dd42097e6022721282b6d30d68ae066a4a942d1391c81",
    ("crosstown", True): "f0027217addec93d164203ca52d7d7713a80d22b8a2a1b6aee5176905d3ed3a5",
    ("plaza", False): "a5a0d5d89c56aee0e934e915db35aa8e10689208eeff748ab9de8f6d5071f627",
    ("plaza", True): "13c5a4f44a74bca5a27a3717b3bc0dc315721f971d9817c36c1c5e6793cf84d7",
    ("slab", False): "8424d31176b5b70a27700120ac133ca273a379773fd3bcedf863e791b8d10046",
    ("slab", True): "cd76c2fd982c4fa4939d13a31c98a8286675dd1777828dcd29b2cba6c29b975f",
    ("tower", False): "527304e262da66480ab6329b93737ee20f1fbb14bfba595b6128ab326eee4bcc",
    ("tower", True): "6a46aad61c72a264c397d175ad2bcc49406627c7756369d5d6e1079b97355450",
}


@pytest.mark.parametrize("scene,interior_nlos", sorted(GOLDEN_CURVES))
def test_golden_scene_curves(scene, interior_nlos):
    curve = los_probability_curve(
        demo.load_scene(scene), demo.tx_site(scene).position,
        interior_counts_as_nlos=interior_nlos,
    )
    digest = hashlib.sha256(curve.p_los.tobytes() + curve.valid.tobytes()).hexdigest()
    assert digest == GOLDEN_CURVES[(scene, interior_nlos)]


# float.hex of (d_bp_m, alpha_m, mse) fitted to each default curve above.  Any
# change to the fitter must leave these bit-identical.  The slab fits end on
# the 16-round refinement cap at alpha_m = 216.0.
GOLDEN_FITS = {
    ("avenue", False): ("0x1.c4ccccccccccdp+5", "0x1.3333333333333p+3", "0x1.57c384b136e91p-7"),
    ("avenue", True): ("0x1.a666666666666p+1", "0x1.e333333333333p+5", "0x1.bf0a6c78503f0p-9"),
    ("crosstown", False): ("0x1.06ccccccccccdp+6", "0x1.0666666666666p+3", "0x1.2c1168051654ap-7"),
    ("crosstown", True): ("0x1.6666666666666p+3", "0x1.62ccccccccccdp+6", "0x1.1c92f3b37ce77p-8"),
    ("plaza", False): ("0x1.8e66666666666p+6", "0x1.c000000000000p+4", "0x1.a185db9aebcf3p-6"),
    ("plaza", True): ("0x1.2666666666666p+6", "0x1.c000000000000p+4", "0x1.bf2e2e28ebb66p-7"),
    ("slab", False): ("0x1.6333333333333p+4", "0x1.b000000000000p+7", "0x1.07a3e68063e70p-5"),
    ("slab", True): ("0x1.7333333333333p+3", "0x1.b000000000000p+7", "0x1.4692f45c54468p-5"),
    ("tower", False): ("0x1.9733333333333p+5", "0x1.c666666666666p+2", "0x1.ac665ee72edc8p-7"),
    ("tower", True): ("0x1.d333333333333p+2", "0x1.0a66666666666p+6", "0x1.0ae6040e6cff5p-8"),
}


@pytest.mark.parametrize("scene,interior_nlos", sorted(GOLDEN_FITS))
def test_golden_scene_fits(scene, interior_nlos):
    curve = los_probability_curve(
        demo.load_scene(scene), demo.tx_site(scene).position,
        interior_counts_as_nlos=interior_nlos,
    )
    params, mse = fit_p_los(curve)
    got = (params.d_bp_m.hex(), params.alpha_m.hex(), mse.hex())
    assert got == GOLDEN_FITS[(scene, interior_nlos)]


# Poisson-box scenes traced against the closed form: fixed before the first
# run, never to be re-picked.  |z| <= 4 at every radius is a Bonferroni bound
# over the 191 radii, and a radius whose scenes all read alike fails, since
# the closed form lies strictly between 0 and 1 there.
POISSON_SEEDS = range(60)
POISSON_Z_BOUND = 4.0


def test_traced_poisson_scenes_meet_the_closed_form():
    tx = Point3(0.0, 0.0, 10.0)
    curves = np.array([
        los_probability_curve(poisson_box_scene(seed, tx), tx, interior_counts_as_nlos=True).p_los
        for seed in POISSON_SEEDS
    ])
    exact = poisson_box_p_los(radius_grid(10.0, 200.0, 1.0))
    spread = curves.std(axis=0, ddof=1)
    assert np.all(spread > 0)
    z = (curves.mean(axis=0) - exact) / (spread / np.sqrt(len(POISSON_SEEDS)))
    assert np.max(np.abs(z)) <= POISSON_Z_BOUND


@functools.lru_cache(maxsize=None)
def scene_curve(scene, interior_nlos):
    return los_probability_curve(
        demo.load_scene(scene), demo.tx_site(scene).position,
        interior_counts_as_nlos=interior_nlos,
    )


def test_unknown_demo_scene_rejected():
    for lookup in (demo.scene_path, demo.tx_site, demo.load_scene):
        with pytest.raises(ValueError, match="unknown demo scene"):
            lookup("nowhere")


class TestMeanCurve:
    def test_identity_for_single_curve(self):
        c = flat_curve([10.0, 20.0, 30.0], 0.5)
        m = mean_curve([c])
        assert np.array_equal(m.p_los, c.p_los)

    def test_elementwise_average(self):
        a = flat_curve([10.0, 20.0], 1.0)
        b = flat_curve([10.0, 20.0], 0.0)
        assert np.array_equal(mean_curve([a, b]).p_los, np.array([0.5, 0.5]))

    def test_masked_radius_falls_back_to_valid_curve(self):
        radii = np.array([10.0, 20.0])
        a = LosProbabilityCurve(radii, np.array([1.0, np.nan]), np.array([True, False]))
        b = flat_curve(radii, 0.25)
        m = mean_curve([a, b])
        assert m.p_los[0] == 0.625
        assert m.p_los[1] == 0.25
        assert np.all(m.valid)

    def test_mismatched_grids_rejected(self):
        a = flat_curve([10.0, 20.0])
        b = flat_curve([10.0, 21.0])
        with pytest.raises(ValueError, match="mismatched"):
            mean_curve([a, b])

    def test_all_masked_radius_rejected(self):
        radii = np.array([10.0, 20.0])
        a = LosProbabilityCurve(radii, np.array([1.0, np.nan]), np.array([True, False]))
        b = LosProbabilityCurve(radii, np.array([0.5, np.nan]), np.array([True, False]))
        with pytest.raises(ValueError, match="radius 20"):
            mean_curve([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mean_curve([])


class TestModel:
    def test_unity_below_breakpoint(self):
        d = np.arange(0.5, 27.0001, 0.5)
        assert np.all(p_los_model(d, POOLED) == 1.0)
        assert p_los_model(27.0, POOLED) == 1.0

    def test_decay_at_200(self):
        assert np.isclose(p_los_model(200.0, POOLED), 0.0348640406, atol=1e-9)
        unsq = p_los_model(200.0, LosProbParams(27.0, 71.0, squared=False))
        assert np.isclose(unsq, 0.1867191489, atol=1e-9)

    def test_known_midrange_value(self):
        assert np.isclose(p_los_model(100.0, POOLED), 0.2011530872, atol=1e-9)

    def test_strictly_decreasing_beyond_breakpoint(self):
        d = np.arange(27.0, 500.0001, 0.1)
        v = p_los_model(d, POOLED)
        assert np.all(np.diff(v) < 0)

    def test_squared_is_square_of_winner_form(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            params = LosProbParams(float(rng.uniform(1, 150)), float(rng.uniform(1, 150)))
            winner = LosProbParams(params.d_bp_m, params.alpha_m, squared=False)
            d = np.linspace(1.0, 400.0, 500)
            sq = p_los_model(d, params)
            w = p_los_model(d, winner)
            assert np.max(np.abs(sq - w * w)) <= 1e-12

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            params = LosProbParams(float(rng.uniform(0.5, 300)), float(rng.uniform(0.5, 300)))
            v = p_los_model(np.linspace(0.5, 1000, 800), params)
            assert np.all(v >= 0) and np.all(v <= 1)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            p_los_model(0.0, POOLED)

    def test_extreme_valid_inputs_do_not_warn(self):
        # the suite turns RuntimeWarning into an error: an overflowing ratio
        # (tiny d) or d / alpha (tiny alpha) must stay silent and exact
        assert p_los_model(5e-324, POOLED) == 1.0
        tiny_alpha = LosProbParams(27.0, 1e-320)
        assert np.array_equal(p_los_model(np.array([10.0, 27.0, 100.0]), tiny_alpha), [1.0, 1.0, 0.27 * 0.27])

    def test_params_validated(self):
        with pytest.raises(ValueError):
            LosProbParams(0.0, 71.0)
        with pytest.raises(ValueError):
            LosProbParams(27.0, -1.0)

    def test_published_site_table(self):
        assert NYC_SITE_LOS_PARAMS["all"] == POOLED
        assert NYC_SITE_LOS_PARAMS["KAU"].d_bp_m == 30.0
        assert NYC_SITE_LOS_PARAMS["KAU"].alpha_m == 21.0
        assert all(p.squared for p in NYC_SITE_LOS_PARAMS.values())


class TestFit:
    def test_round_trip_pooled_params(self):
        radii = np.arange(10.0, 201.0)
        curve = LosProbabilityCurve(
            radii, p_los_model(radii, POOLED), np.ones(radii.size, bool)
        )
        params, mse = fit_p_los(curve)
        assert params.d_bp_m == 27.0
        assert params.alpha_m == 71.0
        assert mse == 0.0
        assert params.squared is True

    def test_round_trip_sparse_grid(self):
        radii = np.arange(10.0, 201.0, 10.0)
        truth = LosProbParams(42.0, 33.0)
        curve = LosProbabilityCurve(radii, p_los_model(radii, truth), np.ones(radii.size, bool))
        params, mse = fit_p_los(curve)
        assert (params.d_bp_m, params.alpha_m, mse) == (42.0, 33.0, 0.0)

    def test_saturated_curve_hits_grid_edge(self):
        radii = np.arange(10.0, 201.0)
        params, mse = fit_p_los(flat_curve(radii))
        assert params.d_bp_m >= 200.0
        assert params.alpha_m == 1.0  # any alpha ties; smallest wins
        assert mse == 0.0

    def test_masked_points_ignored(self):
        radii = np.arange(10.0, 201.0)
        p = p_los_model(radii, POOLED)
        p = p.copy()
        p[50:60] = 0.77  # junk hidden behind the mask
        valid = np.ones(radii.size, bool)
        valid[50:60] = False
        params, mse = fit_p_los(LosProbabilityCurve(radii, p, valid))
        assert (params.d_bp_m, params.alpha_m, mse) == (27.0, 71.0, 0.0)

    def test_refinement_resolves_off_grid_params(self):
        radii = np.arange(10.0, 201.0)
        truth = LosProbParams(27.4, 70.8)
        curve = LosProbabilityCurve(radii, p_los_model(radii, truth), np.ones(radii.size, bool))
        params, mse = fit_p_los(curve)
        assert abs(params.d_bp_m - 27.4) < 1e-9
        assert abs(params.alpha_m - 70.8) < 1e-9
        assert mse < 1e-12

    def test_working_set_is_small(self):
        # curves off the integer grid, so the refinement runs too; the fit's
        # memory must not grow with the radius count
        for radii in (np.arange(10.0, 201.0), np.linspace(1.0, 5000.0, 20_000)):
            p = np.round(p_los_model(radii, LosProbParams(27.4, 70.8)), 2)
            curve = LosProbabilityCurve(radii, p, np.ones(radii.size, bool))
            tracemalloc.start()
            try:
                fit_p_los(curve)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, (radii.size, peak)

    def test_too_few_valid_points(self):
        radii = np.array([10.0, 20.0, 30.0])
        curve = LosProbabilityCurve(
            radii, np.array([1.0, np.nan, np.nan]), np.array([True, False, False])
        )
        with pytest.raises(ValueError):
            fit_p_los(curve)


COARSE = los_probability._COARSE_GRID


def window(center):
    """A 0.1 m refinement window around center, built as fit_p_los builds it."""
    t = round(10 * center)
    return np.arange(max(t - 10, 1), t + 11) / 10


def hex_triple(fit):
    return tuple(float(v).hex() for v in fit)


def cell_mse(radii, target, bp, alpha):
    """The exact MSE of one cell, evaluated on its own: the per-cell reference."""
    err = p_los_model(radii, LosProbParams(bp, alpha)) - target
    return np.mean(err * err)


def screen(radii, target, bp_values, alpha_values, split=None):
    """_screened_mse of every cell, with the split and saturated sums _mse_grid hands it."""
    if split is None:
        split = np.searchsorted(radii, bp_values, side="right")
    saturated = np.concatenate(([0.0], np.cumsum((1.0 - target) ** 2)))[split]
    return los_probability._screened_mse(radii, target, bp_values, alpha_values, split, saturated)


def exact_cells(monkeypatch):
    """A list that gains the (d_bp, alpha) of each cell the fit evaluates exactly from now on.

    _mse_grid hands the model one column each of breakpoints and decay constants, a cell per row.
    """
    cells = []
    bracket = los_probability._bracket

    def counting_bracket(d, bp, alpha):
        cells.extend(zip(np.ravel(bp), np.ravel(alpha)))
        return bracket(d, bp, alpha)

    monkeypatch.setattr(los_probability, "_bracket", counting_bracket)
    return cells


ONES_91 = (np.arange(10.0, 101.0), np.ones(91))
# past 100 m, exp(-r / alpha) vanishes next to the ratio for every alpha of the
# window around 1 m: at each breakpoint its 20 alphas give one model bit for bit
# and tie, and the best breakpoint's 20 are all evaluated exactly
TIED_RUN = (np.arange(100.0, 201.0), np.round((40.0 / np.arange(100.0, 201.0)) ** 2, 2),
            window(40.0), window(1.0))


@st.composite
def fit_problems(draw):
    """Radii, targets and candidate grids for _mse_grid, with many exact ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    radii = np.exp(rng.uniform(np.log(0.1), np.log(5000.0), n))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        radii = np.maximum(np.round(radii, decimals), 0.1)
    radii = np.unique(radii)
    assume(radii.size >= 2)
    kind = draw(st.sampled_from(["uniform", "quantised", "model", "constant"]))
    if kind == "constant":
        target = np.full(radii.size, draw(st.sampled_from([0.0, 0.5, 1.0])))
    elif kind == "model":
        bp, alpha = (draw(st.integers(10, 2000)) / 10 for _ in range(2))
        target = p_los_model(radii, LosProbParams(bp, alpha))
    else:
        target = rng.uniform(0.0, 1.0, radii.size)
        if kind == "quantised":
            target = np.round(target, 2)
    if draw(st.booleans()):
        bp_values = alpha_values = COARSE
    else:
        bp_values, alpha_values = (window(draw(st.integers(10, 2000)) / 10) for _ in range(2))
    return radii, target, bp_values, alpha_values


class TestMseGrid:
    @settings(max_examples=60, deadline=None)
    @given(fit_problems())
    # at d_bp = 1 the small alphas fit exactly (exp(-1000 / alpha) vanishes);
    # the screen's rounding ranks a slightly worse alpha first, and only the
    # tolerance keeps alpha = 1 a candidate
    @example((np.array([0.5, 1000.0]), np.array([1.0, 1e-6]), COARSE, COARSE))
    # every breakpoint from 100 m on fits exactly, at every alpha
    @example((*ONES_91, COARSE, COARSE))
    @example(TIED_RUN)
    def test_matches_exhaustive_reference(self, problem):
        got = los_probability._mse_grid(*problem, np.inf)
        assert hex_triple(got) == hex_triple(mse_grid_reference(*problem))

    @staticmethod
    def assert_screen_within_bound(radii, target, alpha_values=COARSE):
        split = np.count_nonzero(COARSE[:, None] / radii >= 1.0, axis=1)
        screened = screen(radii, target, COARSE, alpha_values, split)
        exact = mse_table_reference(radii, target, COARSE, alpha_values)
        # the bound stated beside _SCREEN_TOL, which must stay far below TOL / 2
        bound = 25 * radii.size * np.finfo(float).eps
        assert bound < los_probability._SCREEN_TOL / 4
        assert np.max(np.abs(screened - exact)) <= bound

    @pytest.mark.parametrize("scene,interior_nlos", sorted(GOLDEN_FITS))
    def test_screen_error_within_bound_on_scenes(self, scene, interior_nlos):
        curve = scene_curve(scene, interior_nlos)
        self.assert_screen_within_bound(curve.radii_m[curve.valid], curve.p_los[curve.valid])

    @pytest.mark.parametrize("radii", [
        np.linspace(0.01, 1.0, 100),
        np.geomspace(1.0, 5000.0, 500),
        np.linspace(1.0, 5000.0, 20_000),
    ], ids=["0.01-1m", "1-5000m", "20000-radii"])
    def test_screen_error_within_bound_on_wide_radii(self, radii):
        target = np.random.default_rng(7).binomial(100, p_los_model(radii, POOLED)) / 100
        # every 10th alpha keeps the exhaustive reference to seconds on the long curve
        alphas = COARSE[::10] if radii.size > 1000 else COARSE
        self.assert_screen_within_bound(radii, target, alphas)

    def test_any_block_size_gives_identical_screen(self, monkeypatch):
        radii = np.arange(10.0, 201.0)
        target = np.random.default_rng(3).binomial(100, p_los_model(radii, POOLED)) / 100
        whole = screen(radii, target, COARSE, COARSE)
        assert whole.shape == (COARSE.size, COARSE.size)
        problems = [(radii, target, COARSE, COARSE), TIED_RUN]
        fits = [hex_triple(los_probability._mse_grid(*problem, np.inf)) for problem in problems]
        for block in (1, 7 * radii.size, 10**9):
            monkeypatch.setattr(los_probability, "_RAYS_PER_BLOCK", block)
            got = screen(radii, target, COARSE, COARSE)
            assert got.tobytes() == whole.tobytes()
            assert [hex_triple(los_probability._mse_grid(*problem, np.inf)) for problem in problems] == fits

    @pytest.mark.parametrize("scene,interior_nlos", sorted(GOLDEN_FITS))
    def test_coarse_pass_evaluates_few_cells_exactly(self, scene, interior_nlos, monkeypatch):
        cells = exact_cells(monkeypatch)
        curve = scene_curve(scene, interior_nlos)
        radii, target = curve.radii_m[curve.valid], curve.p_los[curve.valid]
        los_probability._mse_grid(radii, target, COARSE, COARSE, np.inf)
        assert len(cells) <= 2


@st.composite
def coarse_curves(draw):
    """Valid radii and targets for a fit, on the default grid or from 0.01 m to 5000 m."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["noisy", "uniform", "quantised", "exact", "past-grid", "ones"]))
    if draw(st.booleans()):
        # up to 5000 m, past the largest breakpoint, so the screen sums a tail past its cut
        radii = np.unique(np.append(np.exp(rng.uniform(np.log(0.01), np.log(5000.0), n - 1)), 5000.0))
    else:
        radii = np.arange(10.0, 201.0)[np.sort(rng.choice(191, min(n, 191), replace=False))]
    assume(radii.size >= 2)
    if kind == "ones":
        return radii, np.ones(radii.size)
    if kind in ("uniform", "quantised"):
        target = rng.uniform(0.0, 1.0, radii.size)
        return radii, np.round(target, 2) if kind == "quantised" else target
    bp = draw(st.integers(10, 2000)) / 10
    alpha = draw(st.integers(3000, 6000) if kind == "past-grid" else st.integers(10, 2000)) / 10
    target = p_los_model(radii, LosProbParams(bp, alpha))
    return radii, target if kind == "exact" else rng.binomial(100, target) / 100


@st.composite
def bounded_searches(draw):
    """A curve, a grid and the cell of the grid whose exact MSE bounds the search.

    The cell is None for the winner of the sub-grid fit_p_los bounds the
    coarse pass with; a refinement window's own cell is its center.
    """
    radii, target = draw(coarse_curves())
    kind = draw(st.sampled_from(["sub-grid", "window", "any cell"]))
    if kind == "sub-grid":
        return radii, target, COARSE, COARSE, None
    center = tuple(draw(st.integers(10, 2000)) / 10 for _ in range(2))
    grid = tuple(map(window, center)) if kind == "window" or draw(st.booleans()) else (COARSE, COARSE)
    cell = center if kind == "window" else tuple(draw(st.sampled_from(values)) for values in grid)
    return radii, target, *grid, cell


def screened_breakpoints(monkeypatch, radii, target):
    """The breakpoint count of the full-alpha screen of fit_p_los's coarse pass."""
    sizes = []
    screened_mse = los_probability._screened_mse

    def recording(radii, target, bp_values, alpha_values, *sums):
        if alpha_values.size == COARSE.size:
            sizes.append(bp_values.size)
        return screened_mse(radii, target, bp_values, alpha_values, *sums)

    monkeypatch.setattr(los_probability, "_screened_mse", recording)
    fit_p_los(LosProbabilityCurve(radii, target, np.ones(radii.size, bool)))
    (size,) = sizes
    return size


class TestCoarsePrune:
    @settings(max_examples=50, deadline=None)
    @given(bounded_searches())
    @example((np.array([10.0, 20.0]), np.array([1.0, 0.5]), COARSE, COARSE, None))
    @example((np.array([0.01, 150.0, 5000.0]), np.array([1.0, 0.3, 0.0]), COARSE, COARSE, None))
    @example((np.geomspace(0.01, 5000.0, 300), np.ones(300), COARSE, COARSE, None))
    @example((*ONES_91, COARSE, COARSE, None))
    @example((*ONES_91, COARSE, COARSE, (37.0, 5.0)))
    @example((*ONES_91, window(100.0), window(1.0), (100.0, 1.0)))
    @example((np.array([51.0, 74.0]), np.ones(2), window(74.5), window(3.0), (74.5, 3.0)))
    def test_pruned_pass_equals_the_whole_grid(self, search):
        radii, target, bp_values, alpha_values, cell = search
        if cell is None:
            upper = los_probability._mse_grid(radii, target, COARSE[::8], COARSE[::16], np.inf)[2]
        else:
            assert cell[0] in bp_values and cell[1] in alpha_values
            upper = cell_mse(radii, target, *cell)
        got = los_probability._mse_grid(radii, target, bp_values, alpha_values, upper)
        assert hex_triple(got) == hex_triple(los_probability._mse_grid(radii, target, bp_values, alpha_values, np.inf))

    def test_saturated_curve_prunes_nothing(self, monkeypatch):
        radii = np.geomspace(0.01, 5000.0, 300)
        assert screened_breakpoints(monkeypatch, radii, np.ones(radii.size)) == COARSE.size

    @pytest.mark.parametrize("radii,last_bp", [(ONES_91[0], 100), (np.array([51.0, 74.0]), 74)])
    def test_breakpoints_past_the_last_radius_are_screened_once(self, radii, last_bp, monkeypatch):
        assert screened_breakpoints(monkeypatch, radii, np.ones(radii.size)) == last_bp

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_curve_screens_under_half_the_breakpoints(self, seed, monkeypatch):
        radii = np.arange(10.0, 201.0)
        target = np.random.default_rng(seed).binomial(100, p_los_model(radii, POOLED)) / 100
        assert screened_breakpoints(monkeypatch, radii, target) < COARSE.size // 2

    def test_saturated_fit_evaluates_at_most_two_cells_exactly(self, monkeypatch):
        cells = exact_cells(monkeypatch)
        params, mse = fit_p_los(flat_curve(ONES_91[0]))
        assert (params.d_bp_m, params.alpha_m, mse) == (100.0, 1.0, 0.0)
        assert len(cells) <= 2


# the closed-form Poisson-box curve is the d_bp -> 0 limit of the model: its
# fit ends at the 0.1 m lower edge, float.hex of (d_bp_m, alpha_m, mse)
LOWER_EDGE_FIT = ("0x1.999999999999ap-4", "0x1.62ccccccccccdp+6", "0x1.be1e129b0de6dp-20")
DEFAULT_RADII = radius_grid(10.0, 200.0, 1.0)
LOWER_EDGE_CURVE = (DEFAULT_RADII, poisson_box_p_los(DEFAULT_RADII))
# a decay far past the grid, as in the benchmark's boundary fits: the walk
# ends on the edge of its 16th window, at alpha_m = 216.0
PAST_GRID_CURVE = (DEFAULT_RADII, np.random.default_rng(0).binomial(
    100, p_los_model(DEFAULT_RADII, LosProbParams(25.0, 450.0))) / 100)


def screens(monkeypatch):
    """A list that gains the (d_bp, alpha) grid of each screen the fit makes from now on."""
    searched = []
    screened_mse = los_probability._screened_mse

    def recording(radii, target, bp_values, alpha_values, *sums):
        searched.append((bp_values.tobytes(), alpha_values.tobytes()))
        return screened_mse(radii, target, bp_values, alpha_values, *sums)

    monkeypatch.setattr(los_probability, "_screened_mse", recording)
    return searched


def fit_curve(radii, target):
    params, mse = fit_p_los(LosProbabilityCurve(radii, target, np.ones(radii.size, bool)))
    return params.d_bp_m, params.alpha_m, mse


class TestRefinementWalk:
    def test_window_equals_the_rounded_offsets(self):
        # the former construction: the center plus -1 to 1 m in 0.1 m steps, rounded, kept above 0
        offsets = np.round(np.arange(-1.0, 1.05, 0.1), 6)
        for center in np.arange(1, 2161) / 10:
            rounded = np.round(center + offsets, 6)
            assert window(center).tobytes() == rounded[rounded > 0].tobytes(), center

    # a reference fit takes up to about 80 ms: 50 curves keep the property near 2 s
    @settings(max_examples=50, deadline=None)
    @given(coarse_curves())
    @example(LOWER_EDGE_CURVE)
    @example(PAST_GRID_CURVE)
    def test_fit_matches_exhaustive_reference(self, curve):
        assert hex_triple(fit_curve(*curve)) == hex_triple(fit_reference(*curve))

    def test_lower_edge_fit_searches_no_window_twice(self, monkeypatch):
        searched = screens(monkeypatch)
        assert hex_triple(fit_curve(*LOWER_EDGE_CURVE)) == LOWER_EDGE_FIT
        assert len(set(searched)) == len(searched)
        assert len(searched) <= 6

    def test_past_grid_fit_screens_its_16_windows_in_strips(self, monkeypatch):
        searched = screens(monkeypatch)
        assert fit_curve(*PAST_GRID_CURVE)[1] == 216.0
        assert len(set(searched)) == len(searched)
        assert len(searched) <= 7


class TestCsv:
    def test_round_trip_preserves_values(self):
        radii = np.array([10.0, 20.0, 30.0])
        curve = LosProbabilityCurve(
            radii, np.array([1.0, np.nan, 0.25]), np.array([True, False, True])
        )
        back = curve_from_csv(curve_to_csv(curve))
        assert np.array_equal(back.radii_m, radii)
        assert back.p_los[0] == 1.0 and back.p_los[2] == 0.25
        assert np.isnan(back.p_los[1])
        assert back.valid.tolist() == [True, False, True]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(100, 999_999), st.integers(0, 1000), st.booleans()),
        min_size=1, max_size=40, unique_by=lambda row: row[0],
    ))
    def test_round_trip_exact_at_six_digits(self, rows):
        # radii n/100 and probabilities k/1000 print exactly in 6 significant digits
        rows = sorted(rows)
        radii = np.array([n / 100 for n, _, _ in rows])
        valid = np.array([ok for _, _, ok in rows])
        p = np.array([k / 1000 if ok else np.nan for _, k, ok in rows])
        back = curve_from_csv(curve_to_csv(LosProbabilityCurve(radii, p, valid)))
        assert np.array_equal(back.radii_m, radii)
        assert np.array_equal(back.p_los, p, equal_nan=True)
        assert np.array_equal(back.valid, valid)

    def test_header_and_format(self):
        text = curve_to_csv(flat_curve([10.0], 1 / 3))
        lines = text.strip().splitlines()
        assert lines[0] == "radius_m,p_los,valid"
        assert lines[1] == "10,0.333333,1"

    def test_radii_must_print_distinct(self):
        # a 1 mm step at 1 km collapses at 6 significant digits
        with pytest.raises(ValueError, match="radius 1000 m repeats at 6 significant digits"):
            curve_to_csv(flat_curve([999.0, 1000.0, 1000.001]))
        assert curve_to_csv(flat_curve([1000.0, 1000.01])).splitlines()[1:] == ["1000,1,1", "1000.01,1,1"]

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            curve_from_csv("r,p,v\n10,1,1\n")

    def test_radius_count_capped(self, monkeypatch):
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 3)
        flat_curve([10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match="between 1 and 3 radii"):
            flat_curve([10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError, match="curve CSV must hold at most 3 rows, got 4"):
            curve_from_csv("radius_m,p_los,valid\n10,1,1\n20,1,1\n30,1,1\n40,1,1\n")
        # rows are counted before any is parsed: the malformed row past the cap is never read
        with pytest.raises(ValueError, match="curve CSV must hold at most 3 rows, got 4"):
            curve_from_csv("radius_m,p_los,valid\n10,1,1\n20,1,1\n30,1,1\n\nten,bad\n")

    def test_blank_lines_past_the_cap_still_parse(self, monkeypatch):
        # more line breaks than the cap allows rows, but only 3 rows that are not blank
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 3)
        for text in ("radius_m,p_los,valid\n10,1,1\n\n \n\t\n20,1,1\n\n30,0.5,1\n",
                     "radius_m,p_los,valid\r\n10,1,1\r\n20,1,1\r\n30,0.5,1\r\n"):
            assert sum(map(text.count, los_probability._LINE_BREAKS)) > 3
            assert curve_from_csv(text).p_los.tolist() == [1.0, 1.0, 0.5]

    def test_over_cap_rows_are_counted_without_copying_them(self, monkeypatch):
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 1000)
        text = "radius_m,p_los,valid\n" + "10,0.5,1\n" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                curve_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "curve CSV must hold at most 1000 rows, got 200000"
        # a list of the lines alone takes several times the text
        assert peak < len(text)

    def test_blank_lines_are_skipped_without_listing_them(self, monkeypatch):
        # past the cap in line breaks, so the rows are counted too
        monkeypatch.setattr(los_probability, "MAX_GRID_POINTS", 1000)
        text = "radius_m,p_los,valid\n" + "\n \r\n\t\u2028\u3000\n" * 200_000 + "10,0.5,1\n"
        tracemalloc.start()
        try:
            curve = curve_from_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.p_los.tolist() == [0.5]
        assert peak < len(text)

    def test_rejects_malformed_rows(self):
        head = "radius_m,p_los,valid\n"
        for row in ("10,1", "10,one,1", "10,1,maybe", "10,1,2"):
            with pytest.raises(ValueError):
                curve_from_csv(head + row + "\n")
