"""Property tests: no input file makes a reader fail outside the error contract.

For any bytes and any JSON value, ``read_semantic_map``, ``read_block_map``
and ``read_trace`` either return or raise ParseError/ValidationError. The
near-valid strategies draw ids and coordinates from small pools, and in half
the examples put any JSON value in any field, so that many examples get past
the shape checks to the document invariants. A document that reads back
writes and re-reads to the same bytes, and the streamed block-map writer
writes the bytes of the plain json.dumps encoding in ``oracles``.
``read_block_map`` agrees with the row-by-row ``oracles.read_block_rows`` on
near-valid block maps: the same rows, or the same error message.
``LocationIndex.locate`` agrees with the ``oracles.scan_locate`` scan on
random location forests, on wide maps of side-by-side roots, crossing strips
and boxes that reach the lattice's ends, and on a map with more distinct
bounds than the index keeps as bucket boundaries.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voxgen.errors import ParseError, ValidationError
from voxgen.geometry import COORD_MAX, COORD_MIN, EQUIPMENT_SLOTS, Position
from voxgen.query import LocationIndex, read_trace
from voxgen.serialization import (
    BlockEntityRecord,
    BlockMapDocument,
    LocationRecord,
    SemanticMap,
    read_block_map,
    read_semantic_map,
    write_block_map,
    write_semantic_map,
)

from oracles import block_map_text, read_block_rows, scan_locate

READERS = [read_semantic_map, read_block_map, read_trace]
WRITERS = {read_semantic_map: write_semantic_map, read_block_map: write_block_map}

# Small example counts keep the whole module within a few seconds.
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
ids = st.sampled_from(["a", "b", "c", "d"])
coords = st.integers(-3, 3)
positions = st.lists(coords, min_size=3, max_size=3)
bounds = st.tuples(positions, positions).map(
    lambda corners: {"top_left": list(map(min, *corners)), "bottom_right": list(map(max, *corners))}
)


def records(wild, **fields):
    """Lists of records with these fields; when wild, any field may hold any JSON value."""
    return st.lists(
        st.fixed_dictionaries({k: v | json_values if wild else v for k, v in fields.items()}), max_size=4
    )


def semantic_map(wild):
    return st.fixed_dictionaries(
        {"schema_version": st.just("1"), "id": ids},
        optional={
            "locations": records(
                wild, id=ids, type=st.just("room"), material=st.just("log"), bounds=bounds,
                child_ids=st.lists(ids, max_size=3),
            ),
            "connections": records(
                wild, id=ids, type=st.just("door"), bounds=bounds, connected_ids=st.lists(ids, max_size=3),
            ),
            "entities": records(
                wild, id=ids, type=st.just("zombie"), position=positions, location_id=st.none() | ids,
                equipment=st.dictionaries(st.sampled_from(["helmet", "weapon"]), st.just("iron"), max_size=2),
            ),
            "objects": records(
                wild, id=ids, type=st.just("chest"), material=st.just("log"), position=positions,
                location_id=st.none() | ids,
            ),
        },
    )


def block_map(wild):
    return st.fixed_dictionaries(
        {"schema_version": st.just("1")},
        optional={
            "blocks": records(wild, material=st.sampled_from(["log", "stone"]), x=coords, y=coords, z=coords),
            "entities": records(wild, type=st.just("zombie"), x=coords, y=coords, z=coords),
        },
    )


semantic_maps = st.booleans().flatmap(semantic_map)
block_maps = st.booleans().flatmap(block_map)
traces = st.lists(
    json_values | st.fixed_dictionaries({
        "timestamp": st.integers(-1, 3), "player_id": st.sampled_from(["", "p"]), "x": coords, "y": coords, "z": coords,
    }),
    max_size=4,
)


def read_within_contract(reader, path):
    """The reader's result, or None when it rejected the file with ParseError/ValidationError."""
    try:
        return reader(path)
    except (ParseError, ValidationError):
        return None


@pytest.mark.parametrize("reader", READERS)
@SETTINGS
@given(data=st.binary(max_size=64))
def test_any_bytes(tmp_path, reader, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    read_within_contract(reader, path)


@pytest.mark.parametrize("reader", READERS)
@SETTINGS
@given(value=json_values)
def test_any_json_value(tmp_path, reader, value):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    read_within_contract(reader, path)


@pytest.mark.parametrize("reader, documents", [(read_semantic_map, semantic_maps), (read_block_map, block_maps)])
@SETTINGS
@given(data=st.data())
def test_near_valid_documents_read_within_contract_and_rewrite_to_a_fixed_point(tmp_path, reader, documents, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(documents)))
    doc = read_within_contract(reader, path)
    if doc is not None:
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        WRITERS[reader](doc, first)
        assert reader(first) == doc
        WRITERS[reader](reader(first), second)
        assert first.read_bytes() == second.read_bytes()


@SETTINGS
@given(lines=traces)
def test_near_valid_traces_read_within_contract(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    read_within_contract(read_trace, path)


# Quotes, backslashes, control characters, non-ASCII (astral too) and the
# characters a format template would trip on, plus any name at all: a
# nonempty text UTF-8 can encode, as the documents require.
awkward = st.sampled_from('a"\\\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600%{}')
names = st.text(awkward, min_size=1, max_size=5) | st.text(st.characters(codec="utf-8"), min_size=1, max_size=4)
lattice = st.integers(-2, 2) | st.integers(COORD_MIN, COORD_MAX)
cells = st.tuples(lattice, lattice, lattice)
# Each slot at most once, as the record requires, in any order.
equipment = st.lists(
    st.tuples(st.sampled_from(EQUIPMENT_SLOTS), names), max_size=3, unique_by=lambda item: item[0]
).map(tuple)
documents = st.builds(
    BlockMapDocument,
    rows=st.dictionaries(cells, names, max_size=6).map(
        lambda by_cell: [(*cell, material) for cell, material in by_cell.items()]
    ),
    entities=st.lists(st.builds(BlockEntityRecord, names, lattice, lattice, lattice, equipment), max_size=4),
)


@SETTINGS
@given(doc=documents)
def test_block_map_writer_matches_the_plain_json_encoding(tmp_path, doc):
    path = tmp_path / "block_map.json"
    write_block_map(doc, path)
    assert path.read_bytes() == block_map_text(doc).encode("ascii")


MISSING = object()


def mostly(valid, near_misses):
    """valid, or one time in eight one of near_misses (MISSING drops the key)."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(near_misses) if i == 0 else valid)


block_fields = st.fixed_dictionaries({
    "material": mostly(st.sampled_from(["log", "stone"]), ["", "a\ud800b", 5, None, ["log"], MISSING]),
    **{axis: mostly(coords, [True, False, 1.5, 2**63, -(2**63) - 1, COORD_MIN, COORD_MAX, None, "1", MISSING])
       for axis in "xyz"},
}).map(lambda row: {key: value for key, value in row.items() if value is not MISSING}).flatmap(
    # The writer's key order, or sometimes another one.
    lambda row: st.just(row) | st.permutations(list(row.items())).map(dict)
)
near_valid_blocks = mostly(st.lists(mostly(block_fields, [[1, 2, 3], "row", None, 7]), max_size=5), [{}, "blocks", 5])


@SETTINGS
@given(blocks=near_valid_blocks)
def test_block_map_reader_agrees_with_the_row_by_row_oracle(tmp_path, blocks):
    path = tmp_path / "block_map.json"
    path.write_text(json.dumps({"schema_version": "1", "blocks": blocks}))
    try:
        expected = read_block_rows(path)
    except ValidationError as err:
        with pytest.raises(ValidationError) as got:
            read_block_map(path)
        assert str(got.value) == str(err)
    else:
        assert list(read_block_map(path).rows) == expected


@st.composite
def location_forests(draw):
    """A semantic map of up to 8 locations. A child's box lies inside its
    parent's; siblings may overlap, and a box may be one cell or repeat its
    parent's (or, at the root, the whole space's) box exactly, so depth, volume
    and id each decide some ties."""
    count = draw(st.integers(1, 8))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=count, max_size=count, unique=True))
    boxes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    children: list[list[str]] = []
    for i in range(count):
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        lo, hi = boxes[parent] if parent is not None else ((-3, -3, -3), (3, 3, 3))
        shape = draw(st.sampled_from(["box", "cell", "same"]))
        if shape == "same":
            tl, br = lo, hi
        elif shape == "cell":
            tl = br = tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi))
        else:
            spans = [sorted(draw(st.lists(st.integers(a, b), min_size=2, max_size=2))) for a, b in zip(lo, hi)]
            tl, br = tuple(s[0] for s in spans), tuple(s[1] for s in spans)
        boxes.append((tl, br))
        children.append([])
        if parent is not None:
            children[parent].append(ids[i])
    return SemanticMap("w", tuple(
        LocationRecord(ids[i], "room", "stone", Position(*tl), Position(*br), tuple(children[i]))
        for i, (tl, br) in enumerate(boxes)
    ))


def probes(tl, br):
    """Corners, plus along each axis through the box's middle: one voxel
    outside each face, on each face, and the middle itself."""
    middle = [(a + b) // 2 for a, b in zip(tl, br)]
    points = {tuple(tl), tuple(br)}
    for axis in range(3):
        for value in (tl[axis] - 1, tl[axis], middle[axis], br[axis], br[axis] + 1):
            points.add(tuple(value if i == axis else middle[i] for i in range(3)))
    return points


@SETTINGS
@given(semantic_map=location_forests())
def test_locate_agrees_with_the_scan_oracle(semantic_map):
    index = LocationIndex(semantic_map)
    for loc in semantic_map.locations:
        for point in probes(loc.top_left.as_tuple(), loc.bottom_right.as_tuple()):
            assert index.locate(Position(*point)) == scan_locate(semantic_map, point)


# Small values, and the ends of the lattice, which a box may reach.
reach = st.sampled_from([*range(-4, 41), COORD_MIN, COORD_MAX])
# One location: its parent (taken modulo the number of locations before it),
# the shape of a root, and six numbers from which its box is made.
location_plans = st.tuples(
    st.none() | st.integers(0, 39), st.sampled_from(["side", "x-strip", "z-strip", "edge"]),
    st.tuples(*[reach] * 6),
)


def pair(a, b):
    return sorted((a, b))


@st.composite
def spread_location_maps(draw):
    """A semantic map of up to 40 locations. Roots stand side by side along x,
    sharing walls or leaving gaps; thin strips, one voxel wide in x or in z,
    cross the roots and each other; an edge box may run to COORD_MIN or
    COORD_MAX on any axis. A child's box lies inside its parent's."""
    count = draw(st.integers(1, 40))
    plans = draw(st.lists(location_plans, min_size=count, max_size=count))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=4), min_size=count, max_size=count, unique=True))
    boxes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    children: list[list[str]] = [[] for _ in plans]
    for i, (parent, shape, (a, b, c, d, e, f)) in enumerate(plans):
        y, at = pair(e % 7 - 2, f % 7 - 2), a % 45 - 4
        if i and parent is not None:
            parent %= i
            children[parent].append(ids[i])
            spans = [pair(lo + u % (hi - lo + 1), lo + v % (hi - lo + 1)) for (lo, hi), u, v in
                     zip(zip(*boxes[parent]), (a, c, e), (b, d, f))]
        elif shape == "side":
            x0, z0 = 5 * i + a % 3 - 1, b % 5 - 2
            spans = [[x0, x0 + c % 7], y, [z0, z0 + d % 7]]
        elif shape == "x-strip":
            spans = [[at, at], y, pair(c, d)]
        elif shape == "z-strip":
            spans = [pair(c, d), y, [at, at]]
        else:
            spans = [pair(a, b), pair(c, d), pair(e, f)]
        boxes.append((tuple(s[0] for s in spans), tuple(s[1] for s in spans)))
    return SemanticMap("w", tuple(
        LocationRecord(ids[i], "room", "stone", Position(*tl), Position(*br), tuple(children[i]))
        for i, (tl, br) in enumerate(boxes)
    ))


def on_lattice(points):
    return {p for p in points if all(COORD_MIN <= v <= COORD_MAX for v in p)}


@SETTINGS
@given(semantic_map=spread_location_maps())
def test_locate_agrees_with_the_scan_oracle_on_spread_maps(semantic_map):
    """Each box probed as in probes, plus the corners of the map's extent one
    voxel beyond it and the corners of the lattice."""
    index = LocationIndex(semantic_map)
    points = set(product(*[(COORD_MIN, COORD_MAX)] * 3))
    low = [min(loc.top_left[a] for loc in semantic_map.locations) - 1 for a in range(3)]
    high = [max(loc.bottom_right[a] for loc in semantic_map.locations) + 1 for a in range(3)]
    points.update(product(*zip(low, high)))
    for loc in semantic_map.locations:
        points.update(probes(loc.top_left.as_tuple(), loc.bottom_right.as_tuple()))
    for point in on_lattice(points):
        assert index.locate(Position(*point)) == scan_locate(semantic_map, point)


def test_locate_agrees_with_the_scan_oracle_past_the_bucket_limit():
    """300 strips along z and 300 along x, one voxel wide and crossing, inside
    one box over the whole lattice: about 600 distinct bounds per axis, where
    the index keeps at most 2 * isqrt(601) + 2 = 50. The bucket count stays a
    small multiple of the location count."""
    strips = [((3 * i, 0, -5), (3 * i, 2, 900)) for i in range(300)]
    strips += [((-5, 1, 3 * i), (900, 3, 3 * i)) for i in range(300)]
    ids = [f"strip_{i:03}" for i in range(len(strips))]
    semantic_map = SemanticMap("w", (
        LocationRecord("all", "room", "stone", Position(COORD_MIN, COORD_MIN, COORD_MIN),
                       Position(COORD_MAX, COORD_MAX, COORD_MAX), tuple(ids)),
        *(LocationRecord(i, "room", "stone", Position(*tl), Position(*br), ()) for i, (tl, br) in zip(ids, strips)),
    ))
    index = LocationIndex(semantic_map)
    assert len(index._buckets) <= 5 * len(semantic_map.locations)
    rng = random.Random(0)
    points = [(rng.randint(-8, 905), rng.randint(-1, 4), rng.randint(-8, 905)) for _ in range(400)]
    points += [(3 * rng.randint(0, 299), rng.randint(0, 3), 3 * rng.randint(0, 299)) for _ in range(100)]
    points += list(product(*[(COORD_MIN, COORD_MAX)] * 3))
    for point in points:
        assert index.locate(Position(*point)) == scan_locate(semantic_map, point)
