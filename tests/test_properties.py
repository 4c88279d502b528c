"""Property tests: no input file makes a reader fail outside the error contract.

For any bytes and any JSON value, ``read_semantic_map``, ``read_block_map``
and ``read_trace`` either return or raise ParseError/ValidationError. The
near-valid strategies draw ids and coordinates from small pools, and in half
the examples put any JSON value in any field, so that many examples get past
the shape checks to the document invariants. A document that reads back
writes and re-reads to the same bytes, and the templated semantic-map and
block-map writers write the bytes of the plain json.dumps encodings in
``oracles``, on documents of awkward names and lattice points.
``read_block_map`` agrees with the row-by-row ``oracles.read_block_rows`` on
near-valid block maps, written compact and in the writer's layout, which it
reads a chunk at a time: the same rows, or the same error message. A block
map built in code from rows that now and then carry a bad field or shape is
refused with a one-line ValidationError, or writes and reads back equal.
``read_semantic_map``, which builds the records straight from the parsed
objects, agrees with the field-by-field reader it falls back on, on a valid
map with one mutation: the same map, or the same error and message.
``read_trace`` agrees with the line-by-line ``oracles.read_trace_lines`` on
traces of valid samples mixed with blank lines, every line ending, lines
that a joined parse could misread and every bad field, read three lines to
a chunk: the same events, or the same error and message.
The block map that ``write_world`` streams one x-slab at a time has the
bytes of the one document of ``oracles.naive_rasterize``'s cells, at slab
widths from 1 to 64, and generating a world builds no cell dict or
document with more rows than its largest slab. A random world's blueprint
written to a handle, one part per x-slab, is the text returned without a
handle, with and without a block map and labels, at two scales.
``LocationIndex.locate`` agrees with the ``oracles.scan_locate`` scan on
random location forests, on wide maps of side-by-side roots, crossing strips
and boxes that reach the lattice's ends, and on a map with more distinct
bounds than the index keeps as bucket boundaries.
"""

import io
import json
import random
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voxgen import cli, query, raster, serialization
from voxgen.errors import ParseError, ValidationError
from voxgen.generators import DungeonParams, gen_dungeon, gen_gridworld, gen_zombieworld
from voxgen.geometry import COORD_MAX, COORD_MIN, EQUIPMENT_SLOTS, Position
from voxgen.query import LocationIndex, read_trace
from voxgen.raster import rasterize
from voxgen.serialization import (
    BlockEntityRecord,
    BlockMapDocument,
    ConnectionRecord,
    EntityRecord,
    LocationRecord,
    ObjectRecord,
    SemanticMap,
    block_map_from_grid,
    read_block_map,
    read_semantic_map,
    semantic_map_from_world,
    write_block_map,
    write_semantic_map,
    write_world,
)
from voxgen.viz import BlueprintStyle, render_blueprint

from oracles import (
    block_map_text, naive_rasterize, random_world, read_block_rows, read_trace_lines, scan_locate, semantic_map_text,
)

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


@st.composite
def semantic_maps_built_in_code(draw):
    """A valid SemanticMap of awkward names and lattice points: a location forest, connections, entities and objects
    with and without a location, id lists empty and not."""
    record_ids = iter(draw(st.lists(names, unique=True, max_size=12)))
    location_ids = list(islice(record_ids, draw(st.integers(0, 4))))
    parents = [draw(st.sampled_from([None, *location_ids[:i]])) for i in range(len(location_ids))]
    location_id = st.sampled_from([None, *location_ids])

    def corners():
        a, b = draw(cells), draw(cells)
        return tuple(map(min, a, b)), tuple(map(max, a, b))

    locations = [LocationRecord(loc_id, draw(names), draw(names), *corners(),
                                [child for child, parent in zip(location_ids, parents) if parent == loc_id])
                 for loc_id in location_ids]
    connections = [ConnectionRecord(conn_id, draw(names), *corners(),
                                    draw(st.lists(st.sampled_from(location_ids), min_size=2, max_size=3)))
                   for conn_id in islice(record_ids, draw(st.integers(0, 2)) if location_ids else 0)]
    entities = [EntityRecord(entity_id, draw(names), draw(cells), draw(location_id), draw(equipment))
                for entity_id in islice(record_ids, draw(st.integers(0, 3)))]
    objects = [ObjectRecord(object_id, draw(names), draw(names), draw(cells), draw(location_id))
               for object_id in record_ids]
    return SemanticMap(draw(names), locations, connections, entities, objects)


@SETTINGS
@given(semantic_map=semantic_maps_built_in_code())
def test_semantic_map_writer_matches_the_plain_json_encoding(tmp_path, semantic_map):
    path = tmp_path / "semantic_map.json"
    write_semantic_map(semantic_map, path)
    assert path.read_bytes() == semantic_map_text(semantic_map).encode("ascii")


def oracle_block_map(world):
    """The one block-map document of the world's cells and entities as oracles.naive_rasterize finds them."""
    cells, entities = naive_rasterize(world)
    return BlockMapDocument(
        [(*cell, material) for cell, material in cells.items()],
        [BlockEntityRecord(e.entity_type, *e.position, tuple(e.equipment.items()) if e.equipment else ())
         for e in entities],
    )


# Random worlds of at least one cell, small dungeons, and worlds whose doors carve across slabs.
SLAB_WORLDS = [world for world in map(random_world, range(60)) if naive_rasterize(world)[0]][:40] + [
    gen_dungeon(DungeonParams(n=3, seed=seed, cell_footprint=7)) for seed in range(4)
] + [gen_gridworld(3), gen_zombieworld(0)]


@pytest.mark.parametrize("width", [1, 3, 16, 64])
def test_the_block_map_streamed_by_slab_is_the_oracles_one_document(tmp_path, monkeypatch, width):
    monkeypatch.setattr(raster, "SLAB_WIDTH", width)
    hlr, llr, expected = (tmp_path / name for name in ("semantic_map.json", "block_map.json", "oracle.json"))
    for world in SLAB_WORLDS:
        grid = rasterize(world)
        write_world(world, grid, hlr, llr)
        write_block_map(oracle_block_map(world), expected)
        assert llr.read_bytes() == expected.read_bytes(), world.id
        assert grid.cells == naive_rasterize(world)[0], world.id


def test_generating_builds_no_cell_dict_or_document_larger_than_a_slab(tmp_path, monkeypatch):
    """The generator path: a command's cell dicts and block-map documents each hold at most one x-slab."""
    argv = ["dungeon", "--n", "4", "--cell-footprint", "20", "--seed", "3"]
    slabs = [len(slab.cells) for slab in rasterize(gen_dungeon(DungeonParams(n=4, seed=3, cell_footprint=20))).slabs()]
    documents, cell_dicts = [], []

    class Recorded(BlockMapDocument):
        __slots__ = ()

        def __new__(cls, rows=(), entities=()):
            doc = super().__new__(cls, rows, entities)
            documents.append(len(doc.rows))
            return doc

    def recorded_apply(writes, x_lo, x_hi):
        cells = apply(writes, x_lo, x_hi)
        cell_dicts.append(len(cells))
        return cells

    apply = raster._apply
    monkeypatch.setattr(serialization, "BlockMapDocument", Recorded)
    monkeypatch.setattr(raster, "_apply", recorded_apply)
    hlr, llr = tmp_path / "semantic_map.json", tmp_path / "block_map.json"
    assert cli.run([*argv, "--out-hlr", str(hlr), "--out-llr", str(llr)]) == 0
    monkeypatch.undo()
    assert len(slabs) > 1 and max(slabs) < sum(slabs) == len(read_block_map(llr).rows)
    assert documents == cell_dicts == slabs


class Parts(io.StringIO):
    """A text handle that also keeps each text written to it."""

    def __init__(self):
        super().__init__()
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return super().write(text)


@pytest.mark.parametrize("seed", range(20))
def test_a_blueprint_streamed_a_slab_at_a_time_is_the_one_returned(seed):
    world = random_world(seed)
    semantic_map = semantic_map_from_world(world)
    leaves = sum(not loc.child_ids for loc in semantic_map.locations)
    for block_map, scale, labels in product((None, block_map_from_grid(rasterize(world))), (1, 7), (True, False)):
        style = BlueprintStyle(voxel_pixel_scale=scale, show_labels=labels)
        out = Parts()
        assert render_blueprint(semantic_map, block_map, style, out=out) is None
        assert out.getvalue() == render_blueprint(semantic_map, block_map, style)
        slabs = len(set(block_map.rows.x)) if block_map is not None else 0
        # The header, a part per x-slab, each leaf's outline and its label, the end.
        assert len(out.parts) == 2 + slabs + leaves * (1 + labels)


# A row, or now and then one with a bad field or a bad shape; coordinates
# from a small pool, so that two rows often share a cell.
good_rows = st.tuples(coords, coords, coords | lattice, names)
one_bad_field = st.tuples(
    good_rows, st.integers(0, 3), st.sampled_from([1.5, True, 2**63, -(2**63) - 1, "1", None, "", "a\ud800b"])
).map(lambda drawn: drawn[0][:drawn[1]] + (drawn[2],) + drawn[0][drawn[1] + 1:])
bad_shapes = st.sampled_from([(0, 0, 0), [0, 0, 0, "log"], (0, 0, 0, "log", "log"), None, "abcd"])
maybe_bad_rows = st.integers(0, 9).flatmap(
    lambda i: one_bad_field if i == 0 else bad_shapes if i == 1 else good_rows
)


@SETTINGS
@given(rows=st.lists(maybe_bad_rows, max_size=6))
def test_block_rows_built_in_code_are_refused_in_one_line_or_read_back(tmp_path, rows):
    try:
        doc = BlockMapDocument(rows=rows)
    except ValidationError as err:
        assert "\n" not in str(err)
        return
    path = tmp_path / "block_map.json"
    write_block_map(doc, path)
    # The reprs too, since True == 1.
    assert read_block_map(path) == doc and repr(read_block_map(path)) == repr(doc)


MISSING = object()


def mostly(valid, near_misses):
    """valid, or one time in eight one of near_misses (MISSING drops the key)."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(near_misses) if i == 0 else valid)


# An object with exactly a block's keys, in the writer's order, where a value belongs.
BLOCK_SHAPED = {"material": "log", "x": 0, "y": 0, "z": 0}
block_fields = st.fixed_dictionaries({
    "material": mostly(st.sampled_from(["log", "stone"]), ["", "a\ud800b", 5, None, ["log"], BLOCK_SHAPED, MISSING]),
    **{axis: mostly(coords, [True, False, 1.5, 2**63, -(2**63) - 1, COORD_MIN, COORD_MAX, None, "1", BLOCK_SHAPED,
                             MISSING]) for axis in "xyz"},
}).map(lambda row: {key: value for key, value in row.items() if value is not MISSING}).flatmap(
    # The writer's key order, or sometimes another one.
    lambda row: st.just(row) | st.permutations(list(row.items())).map(dict)
)
near_valid_blocks = mostly(st.lists(mostly(block_fields, [[1, 2, 3], "row", None, 7]), max_size=5), [{}, "blocks", 5])


@SETTINGS
@given(blocks=near_valid_blocks)
def test_block_map_reader_agrees_with_the_row_by_row_oracle(tmp_path, blocks):
    path = tmp_path / "block_map.json"
    # Compact, and in the writer's layout, which the reader reads a chunk at a time.
    for indent in (None, 2):
        path.write_text(json.dumps({"schema_version": "1", "blocks": blocks}, indent=indent))
        try:
            expected = read_block_rows(path)
        except ValidationError as err:
            with pytest.raises(ValidationError) as got:
                read_block_map(path)
            assert str(got.value) == str(err)
        else:
            assert list(read_block_map(path).rows) == expected


sample_fields = st.fixed_dictionaries({
    # Now and then a string holding the characters that shape JSON; one id is outside ASCII.
    "timestamp": st.integers(0, 3), "player_id": mostly(st.sampled_from(["p", "q", "\u00e9"]), ["a[b", "]}{,"]),
    "x": coords, "y": coords, "z": coords,
})
bad_fields = {
    "timestamp": [-1, True, 1.5, "0", None, MISSING],
    "player_id": ["", 5, None, "a\ud800b", ["p"], MISSING],
    **{axis: [1.5, True, 2**63, -(2**63) - 1, "1", None, MISSING] for axis in "xyz"},
}
one_bad_sample = st.tuples(
    sample_fields,
    st.sampled_from(list(bad_fields)).flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(bad_fields[key]))),
).map(lambda drawn: {**drawn[0], drawn[1][0]: drawn[1][1]}).map(
    lambda sample: {key: value for key, value in sample.items() if value is not MISSING}
)
VALID_LINE = '{"timestamp": 1, "player_id": "p", "x": 1, "y": 2, "z": 3}'
odd_lines = st.sampled_from([
    # blank: whitespace only, JSON's or not
    "", "  ", "\t", " \x0c ", "\u2028", "\x85", "\u3000",
    # two objects on one line
    VALID_LINE + " " + VALID_LINE, VALID_LINE + "," + VALID_LINE, VALID_LINE + ",",
    # an object split across two lines, through an array or through an extra key
    '{"timestamp": 0, "k": [{}', '{}], "player_id": "p", "x": 1, "y": 2, "z": 3}',
    '{"timestamp": 0, "k": {}', '{"x": 1}, "player_id": "p", "y": 2, "z": 3}',
    '"player_id": "p", "x": 1, "y": 2, "z": 3}',
    # valid, with keys other than the five
    VALID_LINE[:-1] + ', "k": [1, {"a": ","}]}', VALID_LINE[:-1] + ', "k": {"a": {}}}',
    # a BOM, a form feed outside the object
    "\ufeff" + VALID_LINE, VALID_LINE + "\x0c", "\x0c" + VALID_LINE,
    "[]", "[" + VALID_LINE + "]", "5", '"s"', "null", "{", "}", "{}", "not json",
])
trace_lines = st.integers(0, 9).flatmap(
    lambda i: odd_lines if i == 0 else one_bad_sample.map(json.dumps) if i == 1 else sample_fields.map(json.dumps)
)
# Each line with its break; half the time the last character goes (the last break, or half of a \r\n).
trace_texts = st.tuples(
    st.lists(st.tuples(trace_lines, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12), st.booleans()
).map(lambda drawn: "".join(line + ending for line, ending in drawn[0])[:None if drawn[1] else -1])


@settings(SETTINGS, max_examples=150)
@given(text=trace_texts)
def test_trace_reader_agrees_with_the_line_by_line_oracle(tmp_path, monkeypatch, text):
    # Three lines to a chunk, so that traces cross chunk boundaries.
    monkeypatch.setattr(query, "_TRACE_CHUNK", 3)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = read_trace_lines(path)
    except (ParseError, ValidationError) as err:
        with pytest.raises((ParseError, ValidationError)) as got:
            read_trace(path)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        if isinstance(err, ParseError):
            assert (got.value.line, got.value.column) == (err.line, err.column)
    else:
        got = read_trace(path)
        assert got == expected and list(map(repr, got)) == list(map(repr, expected))


# A valid semantic map with every kind of record, an optional key left out
# (room b's child_ids), lists out of order and an id outside ASCII. The rooms'
# ids are one letter each, so a string of them spells a list of valid ids.
VALID_MAP = {
    "schema_version": "1", "id": "w",
    "locations": [
        {"id": "house", "type": "house", "material": "log",
         "bounds": {"top_left": [0, 0, 0], "bottom_right": [9, 4, 9]}, "child_ids": ["b", "a"]},
        {"id": "a", "type": "room", "material": "stone",
         "bounds": {"top_left": [0, 0, 0], "bottom_right": [4, 4, 9]}, "child_ids": []},
        {"id": "b", "type": "room", "material": "stone", "bounds": {"top_left": [5, 0, 0], "bottom_right": [9, 4, 9]}},
    ],
    "connections": [
        {"id": "door", "type": "door", "bounds": {"top_left": [4, 1, 4], "bottom_right": [5, 2, 4]},
         "connected_ids": ["b", "a"]},
    ],
    "entities": [
        {"id": "zombie", "type": "zombie", "position": [1, 1, 1], "location_id": "a",
         "equipment": {"weapon": "sword", "helmet": "iron"}},
        {"id": "\u00e9t\u00e9", "type": "zombie", "position": [-5, 1, 5], "location_id": None},
    ],
    "objects": [{"id": "chest", "type": "chest", "material": "log", "position": [6, 1, 6], "location_id": "b"}],
}


def sites(value, path=()):
    """The path of every value inside value, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key)
        yield from sites(item, (*path, key))


MUTANTS = [
    MISSING,  # drops a key, or a list element
    # a wrong type for any field, a string where a list is expected, pairs where an object is
    None, True, 5, 1.5, "x", [], {}, ["a"], {"id": "a"}, "ab", {"a": "b", "b": "a"}, [["weapon", "sword"]],
    # a bool, float or out-of-range coordinate
    False, 2.0, 2**63, -(2**63) - 1, COORD_MAX, "1",
    # a 2- or 4-element point, or a point given as a dict or a string
    [1, 2], [1, 2, 3, 4], {"x": 1, "y": 2, "z": 3}, "123", "abc",
    # an empty or lone-surrogate id, an unknown child or reference, a duplicate id
    "", "\ud800", "a\udc00b", "nowhere", "house", "a", "b", "door", "chest", "zombie",
]


def mutated(document, path, value):
    """A copy of document with the value at path replaced by value, or dropped if value is MISSING."""
    document = json.loads(json.dumps(document))
    *parents, last = path
    container = document
    for key in parents:
        container = container[key]
    if value is MISSING:
        del container[last]
    else:
        container[last] = value
    return document


one_mutation = st.builds(mutated, st.just(VALID_MAP), st.sampled_from(list(sites(VALID_MAP))), st.sampled_from(MUTANTS))


def assert_reader_agrees_with_the_field_by_field_reader(path, document):
    path.write_text(json.dumps(document))
    try:
        serialization._check_schema_version(document, path)
        expected = serialization._read_semantic_map_fields(json.loads(path.read_text()), path)
    except Exception as err:
        with pytest.raises(Exception) as got:
            read_semantic_map(path)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        got = read_semantic_map(path)
        assert got == expected and repr(got) == repr(expected) and got.depths == expected.depths


@settings(SETTINGS, max_examples=200)
@given(document=st.just(VALID_MAP) | one_mutation)
def test_semantic_map_reader_agrees_with_the_field_by_field_reader(tmp_path, document):
    assert_reader_agrees_with_the_field_by_field_reader(tmp_path / "semantic_map.json", document)


def test_semantic_map_reader_agrees_with_the_field_by_field_reader_on_every_single_mutation(tmp_path):
    for site, value in product(sites(VALID_MAP), MUTANTS):
        document = mutated(VALID_MAP, site, value)
        assert_reader_agrees_with_the_field_by_field_reader(tmp_path / "semantic_map.json", document)


def test_a_valid_semantic_map_is_read_without_a_field_reader(tmp_path, monkeypatch):
    path = tmp_path / "semantic_map.json"
    path.write_text(json.dumps(VALID_MAP))
    expected = read_semantic_map(path)
    names = [name for name in dir(serialization) if name.startswith("_read_")]
    readers = {name: mock.Mock(wraps=getattr(serialization, name)) for name in names}
    for name, reader in readers.items():
        monkeypatch.setattr(serialization, name, reader)
    assert read_semantic_map(path) == expected
    assert {name: reader.call_count for name, reader in readers.items() if reader.call_count} == {}
    path.write_text(json.dumps(mutated(VALID_MAP, ("objects", 0, "position", 0), True)))
    with pytest.raises(ValidationError, match="^object chest: position: expected signed 64-bit integer, got True$"):
        read_semantic_map(path)
    assert readers["_read_semantic_map_fields"].call_count == 1


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
