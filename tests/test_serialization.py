"""Document writing and reading: canonical bytes, validation, round trips."""

import enum
import json
import os
import re
import stat
import threading
from unittest import mock

import pytest

from voxgen import serialization
from voxgen.errors import ParseError, ValidationError
from voxgen.generators import DungeonParams, gen_dungeon, gen_gridworld, gen_zombieworld
from voxgen.geometry import BlockPlacement, BoundingVolume, EntitySpec, Position, WorldModel
from voxgen.raster import BlockGrid, rasterize
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


def write_tutorial(tmp_path, world, grid):
    hlr = tmp_path / "semantic_map.json"
    llr = tmp_path / "block_map.json"
    write_world(world, grid, hlr, llr)
    return hlr, llr


def test_empty_world_round_trips(tmp_path):
    world = WorldModel("empty").finalize()
    hlr, llr = write_tutorial(tmp_path, world, rasterize(world))
    m = read_semantic_map(hlr)
    assert m.id == "empty"
    assert m.locations == () and m.connections == () and m.entities == () and m.objects == ()
    doc = read_block_map(llr)
    assert doc.rows == () and doc.entities == ()


def test_write_twice_is_byte_identical(tmp_path, tutorial_world, tutorial_grid):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    hlr1, llr1 = write_tutorial(tmp_path / "a", tutorial_world, tutorial_grid)
    hlr2, llr2 = write_tutorial(tmp_path / "b", tutorial_world, tutorial_grid)
    assert hlr1.read_bytes() == hlr2.read_bytes()
    assert llr1.read_bytes() == llr2.read_bytes()


def test_tutorial_hlr_structure(tmp_path, tutorial_world, tutorial_grid):
    hlr, _ = write_tutorial(tmp_path, tutorial_world, tutorial_grid)
    data = json.loads(hlr.read_text())
    assert data["schema_version"] == "1"
    house = next(l for l in data["locations"] if l["id"] == "house")
    assert house["child_ids"] == ["room_1", "room_2"]
    assert house["bounds"] == {"top_left": [1, 3, 1], "bottom_right": [11, 7, 6]}
    zombie = next(e for e in data["entities"] if e["id"] == "room_1_zombie")
    assert zombie["location_id"] == "room_1"


def test_semantic_map_round_trip_value_and_bytes(tmp_path):
    for world in (gen_gridworld(2), gen_dungeon(DungeonParams(n=4, seed=0)), gen_zombieworld(0)):
        path_a = tmp_path / f"{world.id}_a.json"
        path_b = tmp_path / f"{world.id}_b.json"
        original = semantic_map_from_world(world)
        write_semantic_map(original, path_a)
        reread = read_semantic_map(path_a)
        assert reread == original
        write_semantic_map(reread, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


def test_block_map_round_trip(tmp_path):
    grid = rasterize(gen_gridworld(2))
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_block_map(block_map_from_grid(grid), path_a)
    write_block_map(read_block_map(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_unsorted_block_map_is_canonicalized_on_write(tmp_path):
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "blocks": [
            {"material": "log", "x": 5, "y": 0, "z": 0},
            {"material": "log", "x": 1, "y": 0, "z": 0},
        ],
        "entities": [],
    }))
    doc = read_block_map(path)
    out = tmp_path / "sorted.json"
    write_block_map(doc, out)
    materials = json.loads(out.read_text())["blocks"]
    assert [b["x"] for b in materials] == [1, 5]


def test_unsorted_ids_are_canonicalized_on_write(tmp_path):
    bounds = {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "id": "w",
        "locations": [
            {"id": "p", "type": "house", "material": "blank", "bounds": bounds, "child_ids": ["b", "a"]},
            {"id": "b", "type": "room", "material": "log", "bounds": bounds, "child_ids": []},
            {"id": "a", "type": "room", "material": "log", "bounds": bounds, "child_ids": []},
        ],
        "connections": [{"id": "c", "type": "door", "bounds": bounds, "connected_ids": ["b", "a"]}],
        "entities": [], "objects": [],
    }))
    first = read_semantic_map(path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    write_semantic_map(first, out_a)
    data = json.loads(out_a.read_text())
    assert [l["id"] for l in data["locations"]] == ["a", "b", "p"]
    assert data["locations"][2]["child_ids"] == ["a", "b"]
    assert data["connections"][0]["connected_ids"] == ["a", "b"]
    assert read_semantic_map(out_a) == first
    write_semantic_map(read_semantic_map(out_a), out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_documents_sort_a_copy_of_the_callers_lists():
    child_ids = ["b", "a"]
    rows = [(5, 0, 0, "log"), (1, 0, 0, "log")]
    record = LocationRecord("p", "house", "blank", Position(0, 0, 0), Position(1, 1, 1), child_ids)
    doc = BlockMapDocument(rows=rows)
    assert record.child_ids == ("a", "b") and child_ids == ["b", "a"]
    assert [x for x, _, _, _ in doc.rows] == [1, 5] and [x for x, _, _, _ in rows] == [5, 1]


SEMANTIC_ROOT = {"schema_version": "1", "id": "w", "connections": [], "entities": [], "objects": []}
ROOM = {"type": "room", "material": "log", "bounds": {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}}
# An object with exactly a block's keys, in the order the block-map writer uses.
BLOCK_SHAPED = {"material": "log", "x": 0, "y": 0, "z": 0}


@pytest.mark.parametrize("reader, document, match", [
    (read_block_map, {"schema_version": "1", "blocks": 5}, "blocks: expected a list"),
    (read_block_map, {"schema_version": "1", "entities": "ab"}, "entities: expected a list"),
    (read_block_map, {"schema_version": "1", "blocks": [[1, 2, 3]]}, "blocks: expected an object"),
    (read_semantic_map, {**SEMANTIC_ROOT, "locations": [{"id": "a", **ROOM, "child_ids": "ab"}]},
     "child id: expected a list"),
    (read_semantic_map, {**SEMANTIC_ROOT, "locations": [{"id": "a", **ROOM}, {"id": "b", **ROOM}],
                         "connections": [{"id": "c", "type": "door", "bounds": ROOM["bounds"],
                                          "connected_ids": "ab"}]},
     "connected id: expected a list"),
    (read_semantic_map, {**SEMANTIC_ROOT, "locations": [{"id": "a", **ROOM}],
                         "entities": [{"id": "e", "type": "zombie", "position": [0, 0, 0],
                                       "location_id": ["a"]}]},
     "unknown location"),
    # Lone surrogates: valid JSON escapes that UTF-8 cannot encode.
    (read_block_map, {"schema_version": "1", "blocks": [{"material": "log", "x": 0, "y": 0, "z": 0},
                                                        {"material": "a\ud800b", "x": 1, "y": 0, "z": 0}]},
     "block material: expected a string UTF-8 can encode"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "a\udc00", "x": 0, "y": 0, "z": 0}]},
     "entity type: expected a string UTF-8 can encode"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": 0, "y": 0, "z": 0,
                                                           "equipment": {"helmet": "\ud83d"}}]},
     "equipment.helmet: expected a string UTF-8 can encode"),
    # Block-shaped objects where no block belongs, and one inside a block: the
    # messages a plain parse gives, recorded before the reader built rows while
    # parsing. A dict's repr in a message shows that no tuple reached it.
    (read_block_map, BLOCK_SHAPED, "unsupported schema_version None"),
    (read_block_map, {"schema_version": "1", "entities": [BLOCK_SHAPED]},
     "^entity type: expected nonempty string, got None$"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": 0, "y": 0, "z": 0,
                                                           "equipment": BLOCK_SHAPED}]},
     "^entity zombie: equipment.x: expected nonempty string, got 0$"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": 0, "y": 0, "z": 0,
                                                           "equipment": {"helmet": BLOCK_SHAPED}}]},
     re.escape("entity zombie: equipment.helmet: expected nonempty string, got "
               "{'material': 'log', 'x': 0, 'y': 0, 'z': 0}") + "$"),
    (read_block_map, {"schema_version": "1", "blocks": [{"material": BLOCK_SHAPED, "x": 5, "y": 0, "z": 0}]},
     re.escape("block material: expected nonempty string, got {'material': 'log', 'x': 0, 'y': 0, 'z': 0}") + "$"),
    # The block-map record words its coordinate messages as the reader did.
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": True, "y": 0, "z": 0}]},
     "^entity zombie: x: expected signed 64-bit integer, got True$"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": 0, "y": 0, "z": 2**63}]},
     "^entity zombie: z: expected signed 64-bit integer, got 9223372036854775808$"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": BLOCK_SHAPED, "y": 0, "z": 0}]},
     re.escape("entity zombie: x: expected signed 64-bit integer, got {'material': 'log', 'x': 0, 'y': 0, 'z': 0}")
     + "$"),
    # A block's keys in another order: the message path reads the one parse,
    # where such an object was a row, so it shows them in the writer's order
    # (a plain parse showed the file's order, and named equipment.y).
    (read_block_map, {"schema_version": "1", "blocks": [{"material": {"x": 0, "y": 0, "z": 0, "material": "log"},
                                                        "x": 5, "y": 0, "z": 0}]},
     re.escape("block material: expected nonempty string, got {'material': 'log', 'x': 0, 'y': 0, 'z': 0}") + "$"),
    (read_block_map, {"schema_version": "1", "entities": [{"type": "zombie", "x": 0, "y": 0, "z": 0,
                                                           "equipment": {"y": 0, "x": 0, "z": 0, "material": "log"}}]},
     "^entity zombie: equipment.x: expected nonempty string, got 0$"),
])
def test_malformed_shapes_rejected(tmp_path, monkeypatch, reader, document, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    load = mock.Mock(wraps=json.load)
    monkeypatch.setattr(json, "load", load)
    with pytest.raises(ValidationError, match=match):
        reader(path)
    assert load.call_count == 1


@pytest.mark.parametrize("x", [2**63, -(2**63) - 1, 99999999999999999999999])
def test_block_coordinates_outside_the_64_bit_lattice_rejected(tmp_path, x):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"schema_version": "1", "blocks": [{"material": "log", "x": x, "y": 0, "z": 0}]}))
    with pytest.raises(ValidationError, match="block x: expected signed 64-bit integer"):
        read_block_map(path)


def test_duplicate_block_coordinates_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "blocks": [
            {"material": "log", "x": 1, "y": 2, "z": 3},
            {"material": "stone", "x": 1, "y": 2, "z": 3},
        ],
        "entities": [],
    }))
    with pytest.raises(ValidationError, match="duplicate block"):
        read_block_map(path)


def test_connection_to_missing_location_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "id": "w",
        "locations": [{
            "id": "room_1", "type": "room", "material": "log",
            "bounds": {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]},
            "child_ids": [],
        }],
        "connections": [{
            "id": "c", "type": "door",
            "bounds": {"top_left": [0, 0, 0], "bottom_right": [0, 0, 0]},
            "connected_ids": ["room_1", "room_9"],
        }],
        "entities": [], "objects": [],
    }))
    with pytest.raises(ValidationError, match="room_9"):
        read_semantic_map(path)


def test_location_cycle_rejected(tmp_path):
    path = tmp_path / "cycle.json"
    bounds = {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}
    path.write_text(json.dumps({
        "schema_version": "1",
        "id": "w",
        "locations": [
            {"id": "a", "type": "room", "material": "log", "bounds": bounds, "child_ids": ["b"]},
            {"id": "b", "type": "room", "material": "log", "bounds": bounds, "child_ids": ["a"]},
        ],
        "connections": [], "entities": [], "objects": [],
    }))
    with pytest.raises(ValidationError, match="cycle|more than one parent"):
        read_semantic_map(path)


def test_two_parents_rejected(tmp_path):
    path = tmp_path / "two_parents.json"
    bounds = {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}
    path.write_text(json.dumps({
        "schema_version": "1",
        "id": "w",
        "locations": [
            {"id": "a", "type": "room", "material": "log", "bounds": bounds, "child_ids": ["c"]},
            {"id": "b", "type": "room", "material": "log", "bounds": bounds, "child_ids": ["c"]},
            {"id": "c", "type": "room", "material": "log", "bounds": bounds, "child_ids": []},
        ],
        "connections": [], "entities": [], "objects": [],
    }))
    with pytest.raises(ValidationError, match="more than one parent"):
        read_semantic_map(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": "1",\n  "id": }\n')
    with pytest.raises(ParseError) as exc:
        read_semantic_map(path)
    assert exc.value.line == 2
    assert "broken.json" in str(exc.value)


def test_wrong_schema_version_rejected(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"schema_version": "2", "id": "w"}))
    with pytest.raises(ValidationError, match="schema_version"):
        read_semantic_map(path)


def test_lockstep_entities_and_objects(tmp_path):
    world = gen_dungeon(DungeonParams(n=4, seed=5))
    grid = rasterize(world)
    hlr = semantic_map_from_world(world)
    llr = block_map_from_grid(grid)
    blocks = {(x, y, z): material for x, y, z, material in llr.rows}
    entity_cells = {(e.x, e.y, e.z, e.entity_type) for e in llr.entities}
    for e in hlr.entities:
        assert (e.position.x, e.position.y, e.position.z, e.entity_type) in entity_cells
    for o in hlr.objects:
        assert blocks[(o.position.x, o.position.y, o.position.z)] == o.material


# -- documents built in code check themselves ----------------------------------

P0, P1 = Position(0, 0, 0), Position(1, 1, 1)


def room(loc_id, *child_ids):
    return LocationRecord(loc_id, "room", "log", P0, P1, child_ids)


def test_semantic_map_built_in_code_rejects_a_child_cycle():
    with pytest.raises(ValidationError, match="location hierarchy cycle through 'a'"):
        SemanticMap("w", (room("a", "b"), room("b", "a")))


@pytest.mark.parametrize("extra, match", [
    ({"connections": (ConnectionRecord("c", "door", P0, P0, ("a", "z")),)},
     "connection 'c' references unknown location 'z'"),
    ({"entities": (EntityRecord("e", "zombie", P0, "z"),)}, "entity 'e' references unknown location 'z'"),
    ({"objects": (ObjectRecord("o", "chest", "log", P0, "z"),)}, "object 'o' references unknown location 'z'"),
    ({"connections": (ConnectionRecord("c", "door", P0, P0, ("a",)),)}, "must name at least 2 locations"),
    ({"entities": (EntityRecord("a", "zombie", P0, None),)}, "duplicate id 'a'"),
    # A generator builds its record only when SemanticMap reads it, inside pytest.raises.
    ({"connections": (ConnectionRecord("c", "door", P1, P0, ("a", "b")) for _ in "x")},
     "connection c: bounds: top_left must be <= bottom_right per axis"),
    ({"entities": (EntityRecord("e", "zombie", P0, None, (("hat", "iron"),)) for _ in "x")},
     "entity e: equipment: unknown equipment slot 'hat'"),
])
def test_semantic_map_built_in_code_checks_ids_and_references(extra, match):
    with pytest.raises(ValidationError, match=match):
        SemanticMap("w", (room("a"),), **extra)


@pytest.mark.parametrize("build, match", [
    (lambda: LocationRecord("a", "room", "stone", P1, P0, ()), "location a: bounds: top_left must be <= bottom_right"),
    (lambda: BlockEntityRecord("zombie", 0, 0, 0, (("hat", "iron"),)), "entity zombie: equipment: unknown equipment slot"),
], ids=["reversed-location-bounds", "block-map-entity-hat"])
def test_records_built_in_code_check_bounds_and_slots(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


@pytest.mark.parametrize("build", [
    lambda: EntityRecord("e", "zombie", P0, None, (("weapon", "a"), ("weapon", "b"))),
    lambda: BlockEntityRecord("zombie", 0, 0, 0, (("weapon", "a"), ("helmet", "c"), ("weapon", "b"))),
], ids=["semantic-map-entity", "block-map-entity"])
def test_records_built_in_code_reject_a_repeated_equipment_slot(build):
    # One item per slot is all a file can hold, so a second one would be lost on writing.
    with pytest.raises(ValidationError, match="repeated equipment slot 'weapon'"):
        build()


@pytest.mark.parametrize("build, message", [
    # Each of the first three built a document whose file its reader refuses.
    (lambda: BlockMapDocument(rows=[(1, 0, 0, "log"), (0, 0, 0, "")]), "block material"),
    (lambda: BlockEntityRecord("", 0, 0, 0), "entity type"),
    (lambda: SemanticMap("w\ud800"), "semantic map id"),
    (lambda: LocationRecord("a", "", "log", P0, P0, ()), "location type"),
    (lambda: LocationRecord("a", "room", "lo\ud800g", P0, P0, ()), "location material"),
    (lambda: ConnectionRecord("", "door", P0, P0, ("a", "b")), "connection id"),
    (lambda: EntityRecord("e", "zombie", P0, None, (("helmet", ""),)), "entity e: equipment: helmet item"),
    (lambda: ObjectRecord("o", "chest", 5, P0, None), "object material"),
    (lambda: BlockEntityRecord("zombie", 0, 0, 0, (("weapon", "\udc00"),)), "entity zombie: equipment: weapon item"),
], ids=["block-material", "block-entity-type", "semantic-map-id", "location-type", "location-material",
        "connection-id", "entity-item", "object-material", "block-entity-item"])
def test_documents_built_in_code_apply_the_readers_name_rule(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value).startswith(f"{message} must be a nonempty str that UTF-8 can encode, got ")
    assert "\n" not in str(err.value)


# Each record used to accept the point and write a file its reader refuses,
# write another cell, or fail in the writer or with an AttributeError.
@pytest.mark.parametrize("build, message", [
    (lambda: BlockEntityRecord("zombie", True, 0, 0), "entity zombie: x: expected signed 64-bit integer, got True"),
    (lambda: BlockEntityRecord("zombie", "1", 0, 0), "entity zombie: x: expected signed 64-bit integer, got '1'"),
    (lambda: BlockEntityRecord("zombie", 0, 0, -(2**63) - 1),
     "entity zombie: z: expected signed 64-bit integer, got -9223372036854775809"),
    (lambda: EntityRecord("e", "zombie", (True, 0, 0), None),
     "entity e: position: expected three signed 64-bit integers, got (True, 0, 0)"),
    (lambda: EntityRecord("e", "zombie", (0, 0, 2**70), None),
     "entity e: position: expected three signed 64-bit integers, got (0, 0, 1180591620717411303424)"),
    (lambda: EntityRecord("e", "zombie", (0, 0), None),
     "entity e: position: expected three signed 64-bit integers, got (0, 0)"),
    (lambda: ObjectRecord("o", "chest", "log", (True, 0, 0), None),
     "object o: position: expected three signed 64-bit integers, got (True, 0, 0)"),
    (lambda: ObjectRecord("o", "chest", "log", (0, 0, 2**70), None),
     "object o: position: expected three signed 64-bit integers, got (0, 0, 1180591620717411303424)"),
    (lambda: ObjectRecord("o", "chest", "log", (0, 0), None),
     "object o: position: expected three signed 64-bit integers, got (0, 0)"),
    (lambda: LocationRecord("a", "room", "log", (0, 0, 0), (1, 1.5, 1), ()),
     "location a: bottom_right: expected three signed 64-bit integers, got (1, 1.5, 1)"),
    (lambda: ConnectionRecord("c", "door", 7, P0, ("a", "b")),
     "connection c: top_left: expected three signed 64-bit integers, got 7"),
], ids=["block-entity-bool-x", "block-entity-str-x", "block-entity-z-below-range", "entity-bool",
        "entity-2**70", "entity-two-axes", "object-bool", "object-2**70", "object-two-axes",
        "location-float", "connection-int"])
def test_records_built_in_code_check_their_points(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_records_built_in_code_keep_tuple_points_as_positions(tmp_path):
    m = SemanticMap(
        "w",
        (LocationRecord("a", "room", "log", (0, 0, 0), (1, 1, 1), ()),),
        (ConnectionRecord("c", "door", (0, 0, 0), [0, 1, 0], ("a", "a")),),
        (EntityRecord("e", "zombie", (1, 1, 1), "a"),),
        (ObjectRecord("o", "chest", "log", (0, 1, 0), "a"),),
    )
    points = [m.locations[0].top_left, m.locations[0].bottom_right, m.connections[0].top_left,
              m.connections[0].bottom_right, m.entities[0].position, m.objects[0].position]
    assert all(type(p) is Position for p in points)
    path = tmp_path / "semantic_map.json"
    write_semantic_map(m, path)
    assert read_semantic_map(path) == m


def test_semantic_map_records_depths_without_comparing_them():
    m = SemanticMap("w", (room("c"), room("a", "b"), room("b", "c")))
    assert m.depths == {"a": 0, "b": 1, "c": 2}
    assert "depths" not in repr(m)
    assert m == SemanticMap("w", (room("a", "b"), room("b", "c"), room("c")))


def test_block_map_document_is_frozen():
    doc = BlockMapDocument(rows=[(5, 0, 0, "log")])
    with pytest.raises(AttributeError):
        doc.rows.append((1, 0, 0, "log"))
    with pytest.raises(AttributeError):
        doc.rows = [(1, 0, 0, "log")]
    assert doc.rows == ((5, 0, 0, "log"),)


ROW = {"material": "log", "x": 1, "y": 2, "z": 3}


@pytest.mark.parametrize("blocks, message", [
    ([dict(ROW, x=True)], "block x: expected signed 64-bit integer, got True"),
    ([dict(ROW, y=1.5)], "block y: expected signed 64-bit integer, got 1.5"),
    ([dict(ROW, z=2**63)], "block z: expected signed 64-bit integer, got 9223372036854775808"),
    ([dict(ROW, material="")], "block material: expected nonempty string, got ''"),
    ([{"material": "log", "x": 1, "z": 3}], "block y: expected signed 64-bit integer, got None"),
    ([ROW, [1, 2, 3]], "{path}: blocks: expected an object, got list"),
    ([ROW, dict(ROW, x=2, y="7"), dict(ROW, x=3, material=5)], "block y: expected signed 64-bit integer, got '7'"),
    ([{"x": True, "y": 2, "z": 3, "material": "log"}], "block x: expected signed 64-bit integer, got True"),
    # Materials the reader's per-read memo of str materials must pass by, an unhashable one included.
    ([ROW, dict(ROW, x=2, material=["log"])], "block material: expected nonempty string, got ['log']"),
    ([ROW, dict(ROW, x=2, material={"a": 1})], "block material: expected nonempty string, got {{'a': 1}}"),
    ([ROW, dict(ROW, x=2, material=7)], "block material: expected nonempty string, got 7"),
    # Values equal to an int an earlier row holds, which the reader's memo of int literals must not swap for it.
    ([ROW, dict(ROW, x=True, y=5)], "block x: expected signed 64-bit integer, got True"),
    ([ROW, dict(ROW, x=1.0, y=5)], "block x: expected signed 64-bit integer, got 1.0"),
], ids=["bool-x", "float-y", "z-2**63", "empty-material", "missing-key", "non-object-row", "row-2-of-3",
        "other-key-order-bool-x", "list-material", "dict-material", "int-material", "bool-x-after-x-1",
        "float-x-after-x-1"])
def test_block_map_reader_errors_keep_their_wording(tmp_path, monkeypatch, blocks, message):
    # The messages as the row-by-row reader gave them before the reader checked whole columns,
    # worded from the one parse.
    path = tmp_path / "block_map.json"
    path.write_text(json.dumps({"schema_version": "1", "blocks": blocks}))
    load = mock.Mock(wraps=json.load)
    monkeypatch.setattr(json, "load", load)
    with pytest.raises(ValidationError) as err:
        read_block_map(path)
    assert str(err.value) == message.format(path=path)
    assert load.call_count == 1


@pytest.mark.parametrize("row", [
    {"material": "stone", "x": 0, "y": 0, "z": 0, "note": "extra"},
    {"x": 0, "y": 0, "z": 0, "material": "stone"},
], ids=["extra-key", "other-key-order"])
def test_block_rows_laid_out_otherwise_than_the_writer_lays_them_out_are_read(tmp_path, monkeypatch, row):
    # The documents a plain parse gives, recorded before the reader built rows while parsing.
    path = tmp_path / "block_map.json"
    path.write_text(json.dumps({"schema_version": "1", "blocks": [ROW, row], "entities": [
        {"type": "zombie", "x": 0, "y": 0, "z": 0}, {"type": "blaze", "x": 1, "y": 0, "z": 0, "equipment": {}},
    ]}))
    load = mock.Mock(wraps=json.load)
    monkeypatch.setattr(json, "load", load)
    assert read_block_map(path) == BlockMapDocument(
        rows=[(0, 0, 0, "stone"), (1, 2, 3, "log")],
        entities=[BlockEntityRecord("zombie", 0, 0, 0), BlockEntityRecord("blaze", 1, 0, 0)],
    )
    assert load.call_count == 1


def write_rows(path, rows, keys=("material", "x", "y", "z")):
    """A block map of the given (x, y, z, material) rows, each block's keys in the given order."""
    blocks = [{"material": material, "x": x, "y": y, "z": z} for x, y, z, material in rows]
    path.write_text(json.dumps({"schema_version": "1", "blocks": [{k: block[k] for k in keys} for block in blocks]}))
    return path


def write_blocks(path, materials, keys=("material", "x", "y", "z")):
    """A block map with one block per material, at x = 0, 1, ..., each block's keys in the given order."""
    return write_rows(path, [(x, 0, 0, material) for x, material in enumerate(materials)], keys)


@pytest.mark.parametrize("keys", [("material", "x", "y", "z"), ("z", "y", "x", "material")],
                         ids=["writer-order", "other-key-order"])
def test_a_read_block_map_holds_one_string_per_material(tmp_path, keys):
    doc = read_block_map(write_blocks(tmp_path / "block_map.json", ["log", "stone", "oak_planks"] * 4, keys))
    assert len(doc.rows) == 12
    assert len({id(row[3]) for row in doc.rows}) == len({row[3] for row in doc.rows}) == 3


# Coordinates beyond the small ints CPython keeps one object each for (-5 to 256).
LARGE_ROWS = [(x, 300, z, "log") for x in (1000, -1000) for z in (257, 5000, 2**40)]


def test_a_block_map_with_more_distinct_ints_than_the_memo_keeps_reads_the_same(tmp_path, monkeypatch):
    monkeypatch.setattr(serialization, "_SHARED_INTS_MAX", 2)
    assert read_block_map(write_rows(tmp_path / "block_map.json", LARGE_ROWS)) == BlockMapDocument(LARGE_ROWS)


def test_reading_block_maps_in_turn_gives_what_reading_each_alone_gives(tmp_path):
    first = write_blocks(tmp_path / "first.json", ["log", "stone"] * 2)
    second = write_blocks(tmp_path / "second.json", ["stone", "sand"] * 2, ("x", "y", "z", "material"))
    alone = read_block_map(second)
    in_turn = read_block_map(first), read_block_map(second)
    assert in_turn == (BlockMapDocument(rows=[(0, 0, 0, "log"), (1, 0, 0, "stone"), (2, 0, 0, "log"),
                                              (3, 0, 0, "stone")]), alone)
    # No memo outlives its read: the second document shares no material object with the first.
    assert {id(row[3]) for row in in_turn[0].rows}.isdisjoint(id(row[3]) for row in in_turn[1].rows)


# A block map of a few hundred rows: negative coordinates, ones past the small-int cache and past 32 bits,
# materials json escapes, and entities, one with equipment.
WRITTEN = BlockMapDocument(
    [(x, y, z, ["log", "stone", "caf\u00e9", 'q"uote'][(x + z) % 4])
     for x in range(-5, 20) for y in (0, 1, 7) for z in (-300, 0, 5, 2**40)],
    [BlockEntityRecord("zombie", 0, 0, 0, (("weapon", "iron_sword"),)), BlockEntityRecord("skeleton", 1, 2, 3)],
)
# Chunk sizes that put the cuts everywhere: inside keys, numbers, escapes and the layout's own markers.
CHUNK_CHARS = [1, 6, 37, 256, 4096]


@pytest.mark.parametrize("chars", CHUNK_CHARS)
@pytest.mark.parametrize("doc", [WRITTEN, BlockMapDocument((), WRITTEN.entities), BlockMapDocument()],
                         ids=["rows-and-entities", "entities-only", "empty"])
def test_a_block_map_in_the_writers_layout_reads_as_read_whole_wherever_the_chunks_end(tmp_path, monkeypatch, chars,
                                                                                        doc):
    path, compact = tmp_path / "block_map.json", tmp_path / "compact.json"
    write_block_map(doc, path)
    compact.write_text(json.dumps(json.loads(path.read_text())))  # not the writer's layout: read whole
    whole = read_block_map(compact)
    monkeypatch.setattr(serialization, "_CHUNK_CHARS", chars)
    load = mock.Mock(wraps=json.load)
    monkeypatch.setattr(json, "load", load)
    assert read_block_map(path) == whole == doc
    assert load.call_count == 0  # read in chunks, never whole


def writer_text(tmp_path, rows):
    path = tmp_path / "written.json"
    write_block_map(BlockMapDocument(rows), path)
    return path.read_text()


STONE_ROW = '    {\n      "material": "stone",'
NEAR_WRITER_EDITS = {
    # A row whose first material is an object closing at a row's indentation; the second material wins.
    "nested-object-at-row-indentation": (
        STONE_ROW, '    {\n      "material": {\n        "a": 1\n    },\n      "material": "stone",'),
    # A row whose first material is a list closing at the blocks list's indentation.
    "nested-list-at-blocks-indentation": (STONE_ROW, '    {\n      "material": [\n  ],\n      "material": "stone",'),
}


@pytest.mark.parametrize("chars", CHUNK_CHARS)
@pytest.mark.parametrize("edit", NEAR_WRITER_EDITS.values(), ids=NEAR_WRITER_EDITS.keys())
def test_a_file_near_the_writers_layout_reads_as_json_load_reads_it(tmp_path, monkeypatch, chars, edit):
    rows = [(0, 0, 0, "log"), (1, 0, 0, "stone"), (2, 0, 0, "log")]
    path = tmp_path / "block_map.json"
    path.write_text(writer_text(tmp_path, rows).replace(*edit))
    monkeypatch.setattr(serialization, "_CHUNK_CHARS", chars)
    assert read_block_map(path) == BlockMapDocument(rows)


@pytest.mark.parametrize("chars", CHUNK_CHARS)
@pytest.mark.parametrize("edit", [("\n    }\n  ]", "\n    },\n  ]"), ("\n    }\n  ],\n", "\n    },\n")],
                         ids=["comma-after-the-last-row", "blocks-list-never-closed"])
def test_a_broken_file_in_the_writers_layout_gets_json_loads_message(tmp_path, monkeypatch, chars, edit):
    path = tmp_path / "block_map.json"
    path.write_text(writer_text(tmp_path, [(0, 0, 0, "log"), (1, 0, 0, "stone")]).replace(*edit))
    with pytest.raises(json.JSONDecodeError) as parsed:
        json.loads(path.read_text())
    monkeypatch.setattr(serialization, "_CHUNK_CHARS", chars)
    with pytest.raises(ParseError) as err:
        read_block_map(path)
    assert str(err.value) == f"{path}: line {parsed.value.lineno} column {parsed.value.colno}: {parsed.value.msg}"


@pytest.mark.parametrize("chars", CHUNK_CHARS)
def test_a_key_after_the_entities_counts_as_json_load_counts_it(tmp_path, monkeypatch, chars):
    text = writer_text(tmp_path, [(0, 0, 0, "log"), (1, 0, 0, "stone")])
    assert text.endswith('  "entities": []\n}\n')
    path = tmp_path / "block_map.json"
    monkeypatch.setattr(serialization, "_CHUNK_CHARS", chars)
    # A second blocks list replaces the first.
    path.write_text(text.replace('"entities": []', '"entities": [],\n  "blocks": [\n    {\n      "material": "web",'
                                 '\n      "x": 5,\n      "y": 5,\n      "z": 5\n    }\n  ]'))
    assert read_block_map(path) == BlockMapDocument([(5, 5, 5, "web")])
    path.write_text(text.replace('"entities": []', '"entities": [],\n  "schema_version": "2"'))
    with pytest.raises(ValidationError, match="unsupported schema_version '2'"):
        read_block_map(path)


@pytest.mark.parametrize("chars", CHUNK_CHARS)
def test_a_block_map_starting_with_a_byte_order_mark_is_refused_as_json_load_refuses_it(tmp_path, monkeypatch, chars):
    path = tmp_path / "block_map.json"
    path.write_text("\ufeff" + writer_text(tmp_path, [(0, 0, 0, "log")]), encoding="utf-8")
    monkeypatch.setattr(serialization, "_CHUNK_CHARS", chars)
    with pytest.raises(ParseError, match="line 1 column 1: Unexpected UTF-8 BOM"):
        read_block_map(path)


BOUNDS = {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}


@pytest.mark.parametrize("location_bounds, entity_position, message", [
    (dict(BOUNDS, top_left=[0, True, 0]), [0, 0, 0],
     "location a: bounds.top_left: expected signed 64-bit integer, got True"),
    (dict(BOUNDS, top_left=[0, 0, 2**63]), [0, 0, 0],
     "location a: bounds.top_left: expected signed 64-bit integer, got 9223372036854775808"),
    (BOUNDS, [False, 0, 0], "entity e: position: expected signed 64-bit integer, got False"),
    (BOUNDS, [2**63, 0, 0], "entity e: position: expected signed 64-bit integer, got 9223372036854775808"),
], ids=["bool-top-left", "top-left-2**63", "bool-position", "position-2**63"])
def test_semantic_map_coordinate_errors_keep_their_wording(tmp_path, location_bounds, entity_position, message):
    # The messages recorded before positions were built without Position's own checks.
    path = tmp_path / "semantic_map.json"
    path.write_text(json.dumps({
        **SEMANTIC_ROOT,
        "locations": [{"id": "a", **ROOM, "bounds": location_bounds, "child_ids": []}],
        "entities": [{"id": "e", "type": "zombie", "position": entity_position, "location_id": None}],
    }))
    with pytest.raises(ValidationError) as err:
        read_semantic_map(path)
    assert str(err.value) == message


def test_block_map_rows_are_sorted_read_only_cell_tuples():
    doc = BlockMapDocument(rows=[(1, 0, 0, "log"), (0, 5, 0, "stone"), (0, 0, 9, "glass"), (1, -1, 0, "web")])
    assert doc.rows == ((0, 0, 9, "glass"), (0, 5, 0, "stone"), (1, -1, 0, "web"), (1, 0, 0, "log"))
    assert all(type(row) is tuple for row in doc.rows)
    with pytest.raises(AttributeError):
        doc.rows.append((2, 0, 0, "log"))
    with pytest.raises(AttributeError):
        doc.rows = ()
    assert doc == BlockMapDocument(rows=reversed(doc.rows)) == BlockMapDocument(doc.rows[::-1])
    assert doc != BlockMapDocument(rows=doc.rows[1:])


def test_block_map_built_in_code_rejects_two_blocks_in_one_cell():
    with pytest.raises(ValidationError, match=r"duplicate block coordinates \(1, 2, 3\)"):
        BlockMapDocument(rows=[(1, 2, 3, "stone"), (0, 0, 0, "log"), (1, 2, 3, "log")])
    with pytest.raises(ValidationError, match=r"duplicate block coordinates \(0, 0, 0\)"):
        BlockMapDocument(rows=[(0, 0, 0, "log"), (0, 0, 0, "log")])


@pytest.mark.parametrize("rows, message", [
    ([(1.5, 0, 0, "log")], "block row 0 (1.5, 0, 0, 'log'): x: expected signed 64-bit integer, got 1.5"),
    ([(True, 0, 0, "log")], "block row 0 (True, 0, 0, 'log'): x: expected signed 64-bit integer, got True"),
    ([(0, 2**63, 0, "log")],
     "block row 0 (0, 9223372036854775808, 0, 'log'): y: expected signed 64-bit integer, got 9223372036854775808"),
    ([(0, 0, -(2**63) - 1, "log")],
     "block row 0 (0, 0, -9223372036854775809, 'log'): z: expected signed 64-bit integer, got -9223372036854775809"),
    ([(0, 0, 0)], "block row 0 (0, 0, 0): expected an (x, y, z, material) tuple"),
    ([[0, 0, 0, "log"]], "block row 0 [0, 0, 0, 'log']: expected an (x, y, z, material) tuple"),
    ([(0, 0, 0, "log"), ("1", 0, 0, "log"), (2, 0, 0, "log")],
     "block row 1 ('1', 0, 0, 'log'): x: expected signed 64-bit integer, got '1'"),
    # The rows are checked in the order given, each field in turn, so the first bad row is named.
    ([(0, 0, 0, ""), (True, 0, 0, "log")], "block material must be a nonempty str that UTF-8 can encode, got ''"),
    ([(True, 0, 0, "log"), (1, 0, 0, "")],
     "block row 0 (True, 0, 0, 'log'): x: expected signed 64-bit integer, got True"),
    ([(enum.IntEnum("Level", "GROUND").GROUND, 0, 0, "log"), (2, 0, 0, "")],
     "block material must be a nonempty str that UTF-8 can encode, got ''"),
    ([(0, 0, 0, "ston\u00e9"), (1, 0, 0, "")], "block material must be a nonempty str that UTF-8 can encode, got ''"),
    ([(0, 0, 0, "log"), (1, 0, 0, "lo\ud800g")],
     "block material must be a nonempty str that UTF-8 can encode, got 'lo\\ud800g'"),
], ids=["float-x", "bool-x", "y-past-the-lattice", "z-before-the-lattice", "3-tuple", "list", "str-x",
        "empty-material-then-bool-x", "bool-x-then-empty-material", "int-subclass-x-then-empty-material",
        "non-ascii-material-then-empty-material", "lone-surrogate-material"])
def test_block_map_built_in_code_names_its_first_bad_row_before_writing(tmp_path, rows, message):
    path = tmp_path / "block_map.json"
    with pytest.raises(ValidationError) as err:
        write_block_map(BlockMapDocument(rows=rows), path)
    assert str(err.value) == message
    assert not path.exists()


def test_a_block_at_an_int_subclass_coordinate_writes_and_reads_back(tmp_path):
    # Position keeps an int subclass as given, so the grid's row carries it, and the row check takes it as Position does.
    class Level(enum.IntEnum):
        GROUND = 3

    world = WorldModel("w")
    world.add_block(BlockPlacement("log", Position(Level.GROUND, 0, 0)))
    world.finalize()
    _, llr = write_tutorial(tmp_path, world, rasterize(world))
    assert read_block_map(llr).rows == ((3, 0, 0, "log"),)


def test_the_callers_equipment_dict_cannot_change_a_finalized_world(tmp_path):
    equipment = {"weapon": "iron_sword"}
    world = WorldModel("w")
    hall = BoundingVolume("hall", "room", "stone", P0, Position(3, 3, 3))
    hall.add_entity(EntitySpec("guard", "skeleton", P1, equipment))
    world.add_volume(hall)
    world.finalize()
    equipment["weapon"] = ""
    equipment["hat"] = "straw"
    hlr, llr = write_tutorial(tmp_path, world, rasterize(world))
    assert read_semantic_map(hlr).entities[0].equipment == (("weapon", "iron_sword"),)
    assert read_block_map(llr).entities[0].equipment == (("weapon", "iron_sword"),)
    assert world.volumes[0].entities[0].equipment == {"weapon": "iron_sword"}


def test_a_write_that_fails_part_way_leaves_the_previous_file(tmp_path):
    path = tmp_path / "block_map.json"
    write_block_map(BlockMapDocument(rows=[(0, 0, 0, "log")]), path)
    before = path.read_bytes()
    # The entity row is encoded after every block row has been written.
    rows = [(x, 0, 0, "stone") for x in range(1, 5000)]
    # The record refuses an entity type JSON cannot encode, so it is set past the check.
    entity = tuple.__new__(BlockEntityRecord, (object(), 0, 0, 0, ()))
    broken = BlockMapDocument(rows=rows, entities=[entity])
    with pytest.raises(TypeError):
        write_block_map(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["block_map.json"]


def test_a_failed_block_map_write_leaves_both_previous_files(tmp_path, tutorial_world, tutorial_grid):
    hlr, llr = write_tutorial(tmp_path, tutorial_world, tutorial_grid)
    before = hlr.read_bytes(), llr.read_bytes()
    world = WorldModel("other").finalize()
    # The row check refuses the empty material only once the semantic map is complete.
    with pytest.raises(ValidationError, match="block material"):
        write_world(world, BlockGrid({(0, 0, 0): ""}), hlr, llr)
    assert (hlr.read_bytes(), llr.read_bytes()) == before
    assert sorted(os.listdir(tmp_path)) == ["block_map.json", "semantic_map.json"]


def test_an_unwritable_block_map_leaves_the_previous_semantic_map(tmp_path, tutorial_world, tutorial_grid):
    hlr, _ = write_tutorial(tmp_path, tutorial_world, tutorial_grid)
    before = hlr.read_bytes()
    missing = tmp_path / "missing" / "block_map.json"
    with pytest.raises(OSError, match=f"^cannot write {re.escape(str(missing))}: "):
        write_world(WorldModel("other").finalize(), tutorial_grid, hlr, missing)
    assert hlr.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["block_map.json", "semantic_map.json"]


def test_a_change_to_a_rasterized_grids_cells_is_written(tmp_path):
    world = gen_gridworld(2)
    grid = rasterize(world)
    grid.cells[500, 0, 0] = "gold"
    _, llr = write_tutorial(tmp_path, world, grid)
    assert read_block_map(llr).rows[-1] == (500, 0, 0, "gold")
    assert len(read_block_map(llr).rows) == len(grid.cells)


def test_documents_whose_cells_ascend_write_as_one_block_map(tmp_path):
    rows = [(x, y, 0, "log" if x % 2 else "stone") for x in range(4) for y in range(2)]
    entity = BlockEntityRecord("zombie", 0, 0, 0)
    whole, parts = tmp_path / "whole.json", tmp_path / "parts.json"
    write_block_map(BlockMapDocument(rows, [entity]), whole)
    write_block_map(iter([BlockMapDocument(rows[:3]), BlockMapDocument(), BlockMapDocument(rows[3:], [entity])]),
                    parts)
    assert parts.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("second", [[(1, 0, 0, "log")], [(0, 5, 0, "log")], [(0, 0, 0, "log")]])
def test_a_document_not_after_the_previous_one_is_refused(tmp_path, second):
    path = tmp_path / "block_map.json"
    write_block_map(BlockMapDocument([(0, 0, 0, "log")]), path)
    before = path.read_bytes()
    first = BlockMapDocument([(0, 0, 1, "log"), (1, 0, 0, "log")])
    with pytest.raises(ValidationError, match=r"does not come after \(1, 0, 0\)$"):
        write_block_map([first, BlockMapDocument(second)], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["block_map.json"]


def test_written_documents_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    world = WorldModel("w").finalize()
    hlr, llr = write_tutorial(tmp_path, world, rasterize(world))
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(hlr.stat().st_mode) == stat.S_IMODE(llr.stat().st_mode) == mode


def test_a_symbolic_link_target_is_written_through(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_semantic_map(SemanticMap("w"), link)
    assert link.is_symlink()
    assert read_semantic_map(real) == SemanticMap("w")


def test_a_fifo_target_is_written_in_place(tmp_path):
    expected = tmp_path / "regular.json"
    write_semantic_map(SemanticMap("w"), expected)
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_semantic_map(SemanticMap("w"), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == [expected.read_bytes()]


@pytest.mark.parametrize("compact", [False, True], ids=["writers-layout", "compact"])
def test_a_block_map_is_read_from_a_fifo_in_one_pass(tmp_path, compact):
    regular = tmp_path / "regular.json"
    write_block_map(WRITTEN, regular)
    text = json.dumps(json.loads(regular.read_text())) if compact else regular.read_text()
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    read = []
    threads = [threading.Thread(target=lambda: fifo.write_text(text), daemon=True),
               threading.Thread(target=lambda: read.append(read_block_map(fifo)), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert read == [WRITTEN]
