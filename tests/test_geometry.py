"""Scene geometry: parsing, box intersection and LOS classification."""

import hashlib
import json
import math
import tracemalloc

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
    sampled_segment_blocked,
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
    # counted before the parse: 2 million empty lists in a list, 6 MB of text
    ("too-many-objects-and-arrays", "[%s]" % ",".join(["[]"] * 2_000_000),
     "building DB document must hold at most 2000000 JSON objects and arrays, got 2000001"),
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
# text rich in what a JSON string must escape or a count of the document's own brackets and commas must skip
JSON_TEXT = st.text(st.sampled_from('a"\\{[,:]} \n') | st.characters(), max_size=6)


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

    # 100,000 empty objects or arrays past a cap of 1,000, where json.loads would build them all (about 7 MB):
    # the root itself, in a field the parse ignores, inside one building entry and as the entries
    @pytest.mark.parametrize("template", [
        "[%s]",
        '{"name": "x", "more": [%s], "buildings": []}',
        '{"name": "x", "buildings": [{"min": [0, 0, 0], "max": [1, 1, 1], "tags": [%s]}]}',
        '{"name": "x", "buildings": [%s]}',
    ])
    @pytest.mark.parametrize("empty", ["{}", "[]"])
    def test_containers_counted_before_the_parse(self, template, empty, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_CONTAINERS", 1000)
        text = template % ", ".join([empty] * 100_000)
        n = text.count("{") + text.count("[")
        tracemalloc.start()
        try:
            with pytest.raises(BuildingDBError, match=f"^building DB document must hold at most 1000 JSON objects and arrays, got {n}$"):
                parse_building_db(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_container_count_skips_strings(self, monkeypatch):
        # 1,000 objects and arrays: the root, the origin, the buildings list, 331 entries of three and one of
        # four, with "{" and "[" in strings, escaped quotes among them, that a count of the text would add
        monkeypatch.setattr(geometry, "_MAX_CONTAINERS", 1000)
        name = json.dumps('\\"{[' * 2000 + '"')
        entries = [OK] * 331 + ['{"min": [0, 0, 0], "max": [1, 1, 1], "note": "\\\\", "tags": [%s]}' % name]
        text = '{"name": %s, "origin": {"lat": 1, "lon": 2}, "buildings": [%s]}' % (name, ", ".join(entries))
        assert len(text) > 2000 and text.count("{") + text.count("[") == 9000
        assert geometry._census(text)[0] == 1000
        assert len(parse_building_db(text)) == 332
        with pytest.raises(BuildingDBError, match="^building DB document must hold at most 1000 JSON objects and arrays, got 1003$"):
            parse_building_db(text.replace('"buildings": [', '"buildings": [%s, ' % OK))

    # lists at the 32 MiB input cap that json.loads would build at 398 MB (6.7 million two-letter strings) and
    # 272 MB (8.4 million floats), more than a document of MAX_BUILDINGS boxes needs: counted, nothing built.  The
    # strings are read one at a time, about 5 s for the full list (20 s under tracemalloc), so that list and the
    # scalar cap are cut to a sixteenth
    @pytest.mark.parametrize("item, scale", [('"ab"', 16), ("0.5", 1)])
    def test_scalars_at_the_input_cap_counted_before_the_parse(self, item, scale, monkeypatch):
        cap = geometry._MAX_SCALARS // scale
        monkeypatch.setattr(geometry, "_MAX_SCALARS", cap)
        n = (geometry.MAX_INPUT_BYTES // scale - 1) // (len(item) + 1)
        text = "[" + (item + ",") * (n - 1) + item + "]"
        assert len(text) <= geometry.MAX_INPUT_BYTES // scale < len(text) + len(item) + 1
        tracemalloc.start()
        try:
            with pytest.raises(BuildingDBError, match=f"^building DB document must hold at most {cap} JSON scalars, got {n}$"):
                parse_building_db(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    # at caps of 1,000 keys and 1,000 scalars, in text long enough to be counted, the last document within a cap
    # parses and one more item is refused: after the root's three keys, distinct keys with brackets, commas and
    # colons; after its name and the empty buildings list, which the count takes for a scalar, strings with
    # escapes, brackets, commas and colons, or numbers, literals and strings
    @pytest.mark.parametrize("kind, k, tags", [
        ("keys", 997, lambda k: "{%s}" % ", ".join('"k, {%d:" : true' % i for i in range(k))),
        ("scalars", 998, lambda k: "[%s]" % ", ".join(json.dumps('x, "{[\\:' + str(i)) for i in range(k))),
        ("scalars", 998, lambda k: "[%s]" % ", ".join(["-1.5e3", "null", '"a,b"', "7"][i % 4] for i in range(k))),
    ])
    def test_keys_and_scalars_capped(self, kind, k, tags, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_KEYS", 1000)
        monkeypatch.setattr(geometry, "_MAX_SCALARS", 1000)
        text = '{"name": "x", "buildings": [], "tags": %s}' + " " * 2000
        assert len(parse_building_db(text % tags(k))) == 0
        with pytest.raises(BuildingDBError, match=f"^building DB document must hold at most 1000 JSON {kind}, got 1001$"):
            parse_building_db(text % tags(k + 1))

    def test_box_cap_leaves_room_for_one_more_field_per_box(self, monkeypatch):
        # the caps cut by a thousand: MAX_BUILDINGS boxes with an "id" each parse; with a second field, one box
        # fewer does, and at MAX_BUILDINGS the keys pass their cap, the scalars theirs too
        for name, value in (("MAX_BUILDINGS", 500), ("_MAX_CONTAINERS", 2000), ("_MAX_KEYS", 2000), ("_MAX_SCALARS", 4000)):
            monkeypatch.setattr(geometry, name, value)
        box = '{"min": [%d, 0, 0], "max": [%d.5, 1, 8]%s}'

        def doc(n, fields):
            return '{"name": "x", "buildings": [%s]}' % ", ".join(box % (i, i, fields % i) for i in range(n))

        assert len(parse_building_db(doc(500, ', "id": %d'))) == 500
        assert len(parse_building_db(doc(499, ', "id": %d, "levels": 3'))) == 499
        with pytest.raises(BuildingDBError, match="^building DB document must hold at most 2000 JSON keys, got 2002$"):
            parse_building_db(doc(500, ', "id": %d, "levels": 3'))
        assert geometry._census(doc(500, ', "id": %d, "levels": 3')) == (1502, 2002, 4001)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | JSON_TEXT,
                        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
                        max_leaves=20),
           st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")}, {"ensure_ascii": False}]))
    def test_census_counts_what_json_builds(self, doc, style):
        # the objects and arrays and the keys exactly; the scalars as the commas between values, plus one
        text = json.dumps(doc, **style)
        containers = keys = commas = 0
        values = [doc]
        while values:
            value = values.pop()
            if isinstance(value, (list, dict)):
                containers += 1
                commas += max(len(value) - 1, 0)
                keys += len(value) if isinstance(value, dict) else 0
                values.extend(value.values() if isinstance(value, dict) else value)
        assert geometry._census(text) == (containers, keys, commas + 1)

    def test_deep_nesting_rejected(self):
        for text in ("[" * 100_000, '{"a": ' * 100_000):
            with pytest.raises(BuildingDBError, match="^invalid building DB document: "):
                parse_building_db(text)

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
    """Boxes, a transmitter clear of them and the tracer grid through receivers around it (see as_grid).

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
    for _ in range(draw(st.integers(1, 12))):
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
    return as_grid(db, tx, np.array(receivers).T)


def as_grid(db, tx, rx):
    """A tracer scene: ``db``, ``tx`` and the grid through ``(3, n)`` receiver rows around it.

    The grid is the rows' distinct directions from the ground point of
    ``tx``, their distinct distances from it and their distinct heights: its
    cell at each direction and distance, at each height, is a receiver.
    """
    return db, tx, np.unique(directions(tx, rx)), np.unique(np.hypot(rx[0] - tx.x, rx[1] - tx.y)), np.unique(rx[2])


def tracer_scene(tx, boxes, receivers):
    """The tracer scene of the given (min corner, max corner) boxes through the given receiver positions."""
    return as_grid(BuildingDB("edge", tuple(Box3(Point3(*lo), Point3(*hi)) for lo, hi in boxes)), tx,
                   np.array(receivers).T)


# a box side 1.001e-6 m from the ground point's axis puts a footprint face on that axis: padded by EPSILON and grown
# by the margin, the outer footprint's face where the box lies beyond the axis, and shrunk by EPSILON and by the
# margin, the inner footprint's face where the box lies across it.  The ray at angle 0 runs along such a face and
# crosses it at 0/0
FACE_TO_ZERO = 1.001e-6
# a wall this thick, between 2 (_MARGIN - EPSILON) and 2 (_MARGIN + EPSILON), has an empty inner footprint, where the
# padded box shrunk by the margin is not empty
THIN_WALL = 2e-6


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
    # the slab scene from its transmitter: the 10 m receiver at angle 0 lies on the face x = 10, in the band
    # between the slab's shrunk and grown interior intervals, and its 20 m one on the far face
    @example((demo.load_scene("slab"), demo.tx_site("slab").position, 2.0 * np.pi * np.arange(8) / 8,
              np.array([5.0, 10.0, 15.0, 20.0, 25.0]), np.array([1.5])))
    # receivers inside a box whose roof is below the transmitter, which holds them but does not span
    @example(tracer_scene(Point3(0, 0, 20), [((10, -5, 0), (20, 5, 10))], [(5, 0, 1.5), (15, 0, 1.5), (15, 3, 1.5),
                                                                         (30, 0, 1.5), (15, 0, 12)]))
    # the ray at angle 0 along the plane of a spanning and of a holding box's outer face, and of a holding and of a
    # spanning box's inner face, which it runs inside: each crossing is 0/0 there, counted as a miss
    @example(tracer_scene(Point3(0, 0, 7), [((10, FACE_TO_ZERO, 0), (20, 5, 40)), ((12, FACE_TO_ZERO, 0), (18, 4, 3)),
                                            ((10, -5, 0), (20, FACE_TO_ZERO, 3)), ((30, -FACE_TO_ZERO, 0), (40, 5, 40))],
                          [(5, 0, 1.5), (15, 0, 1.5), (25, 0, 1.5), (35, 0, 1.5), (45, 0, 1.5), (15, 1, 1.5),
                           (15, -1, 1.5)]))
    # a spanning wall and a holding one, each THIN_WALL thick, whose inner footprints are empty: receivers short of,
    # inside and past each, and on the far face of the spanning one
    @example(tracer_scene(Point3(0, 0, 7), [((20, -5, 0), (20 + THIN_WALL, 5, 40)), ((-20 - THIN_WALL, -5, 0), (-20, 5, 3))],
                          [(20 - 0.5e-6, 0, 1.5), (20 + 1e-6, 0, 1.5), (20 + THIN_WALL, 0, 1.5), (20 + 3e-6, 0, 1.5),
                           (25, 0, 1.5), (-20 + 0.5e-6, 0, 1.5), (-20 - 1e-6, 0, 1.5), (-25, 0, 1.5)]))
    def test_trace_equals_per_receiver_tests(self, scene):
        db, tx, angles, radii, heights = scene
        # the cells' receivers, as the tracer builds them
        xs, ys = (tx.x + np.cos(angles)[:, None] * radii).tolist(), (tx.y + np.sin(angles)[:, None] * radii).tolist()
        for height in heights.tolist():
            exterior, los = _sector_tracer(db, tx, radii[-1], height)(angles, radii)
            assert exterior.shape == los.shape == (angles.size, radii.size)
            for k, i in np.ndindex(exterior.shape):
                p = Point3(xs[k][i], ys[k][i], height)
                if p == tx:
                    continue
                assert exterior[k, i] == (find_containing_building(db, p) is None)
                assert los[k, i] == (exterior[k, i] and is_los(db, tx, p))

    def test_zero_over_zero_example_puts_faces_on_the_ray(self):
        # the faces of the 0/0 example as the tracer computes them from the ground point, a footprint's low side
        # less and its high side plus its margin: the outer low face of the first two boxes, padded by EPSILON and
        # grown by the margin, and the inner high face of the third and inner low face of the last, shrunk by EPSILON
        # and by the margin, each lie on y = 0, where the ray at angle 0 has direction (1, 0)
        margin = geometry._MARGIN
        assert ((FACE_TO_ZERO - EPSILON) - 0.0) - margin == 0.0
        assert ((FACE_TO_ZERO - EPSILON) - 0.0) + -margin == 0.0
        assert ((-FACE_TO_ZERO + EPSILON) - 0.0) - -margin == 0.0
        assert np.sin(0.0) == 0.0

    def test_thin_wall_example_empties_only_the_inner_footprint(self):
        # the spanning wall of the thin-wall example, on x from the ground point: shrunk by EPSILON and by the margin
        # its footprint is empty, padded by EPSILON and shrunk by the margin it is not
        low, high, margin = 20.0, 20.0 + THIN_WALL, geometry._MARGIN
        assert 2 * (margin - EPSILON) <= THIN_WALL <= 2 * (margin + EPSILON)
        assert (low + EPSILON) + margin > (high - EPSILON) - margin
        assert (low - EPSILON) + margin <= (high + EPSILON) - margin


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

    # endpoints as far as a curve's receivers reach, 2e7 m on each axis, and just past it
    @pytest.mark.parametrize("tx, rx", [((2e7, -2e7, 2e7), (-2e7, 2e7, 0)), ((2e7 * (1 + 2**-52), 0, 7), (30, 0, 1.5)),
                                        ((0, 0, 7), (0, -4e7, 1.5)), ((0, 0, 7), (30, 0, 1e300))])
    def test_coordinate_bound(self, tx, rx):
        db = BuildingDB("e", ())
        if max(map(abs, tx + rx)) <= 2e7:
            assert is_los(db, Point3(*tx), Point3(*rx)) is True
        else:
            with pytest.raises(ValueError, match="within 2e\\+07 m of the origin on each axis"):
                is_los(db, Point3(*tx), Point3(*rx))

    @settings(max_examples=300, deadline=None)
    @given(kernel_scenes())
    def test_symmetric_on_multi_box_scenes(self, scene):
        # segments on and EPSILON off the faces, edges and corners of up to six boxes, both ways round
        mins, maxs, order, starts, ends = scene
        db = BuildingDB("grid", tuple(Box3(Point3(*mins[i]), Point3(*maxs[i])) for i in order))
        for a, b in zip(starts.tolist(), ends.tolist()):
            a, b = Point3(*a), Point3(*b)
            if a == b or min(a.z, b.z) < 0 or point_in_any_building(db, a) or point_in_any_building(db, b):
                continue
            assert is_los(db, a, b) == is_los(db, b, a), f"asymmetric for a={a} b={b}"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: arrays(np.int64, (n, 2, 3), elements=st.integers(0, 2**20))),
           arrays(np.int64, (2, 3), elements=st.integers(-2**17, 2**20)))
    def test_blocked_agrees_with_sampling_oracle(self, boxes, ends):
        # up to four boxes in a compact scene on a 2**-20 grid: a segment is under 0.98 m long, so the oracle's
        # samples lie under 1e-4 m apart and find every crossing that long; a scene where some box is grazed, crossed
        # for less or touched within EPSILON, is skipped
        mins = boxes[:, 0] * (0.3 / 2**20)
        maxs = mins + 0.02 + boxes[:, 1] * (0.18 / 2**20)
        a, b = ends * (0.5 / 2**20)
        for lo, hi in zip(mins, maxs):
            c = crossing_length(a, b, lo, hi)
            touched = _segments_blocked(a[:, None], b[:, None], lo[None], hi[None])[0]
            assume(c >= 1e-4 or (c == 0.0 and not touched))
        got = _segments_blocked(a[:, None], b[:, None], mins, maxs)[0]
        assert got == sampled_segment_blocked(a, b, mins, maxs)

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
