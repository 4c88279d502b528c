"""Document writing and reading: canonical bytes, validation, round trips."""

import json

import pytest

from voxgen.errors import ParseError, ValidationError
from voxgen.generators import DungeonParams, gen_dungeon, gen_gridworld, gen_zombieworld
from voxgen.geometry import Position, WorldModel
from voxgen.raster import rasterize
from voxgen.serialization import (
    BlockMapDocument,
    BlockRecord,
    LocationRecord,
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
    assert doc.blocks == [] and doc.entities == []


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
    blocks = [BlockRecord("log", 5, 0, 0), BlockRecord("log", 1, 0, 0)]
    record = LocationRecord("p", "house", "blank", Position(0, 0, 0), Position(1, 1, 1), child_ids)
    doc = BlockMapDocument(blocks=blocks)
    assert record.child_ids == ("a", "b") and child_ids == ["b", "a"]
    assert [b.x for b in doc.blocks] == [1, 5] and [b.x for b in blocks] == [5, 1]


SEMANTIC_ROOT = {"schema_version": "1", "id": "w", "connections": [], "entities": [], "objects": []}
ROOM = {"type": "room", "material": "log", "bounds": {"top_left": [0, 0, 0], "bottom_right": [1, 1, 1]}}


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
])
def test_malformed_shapes_rejected(tmp_path, reader, document, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValidationError, match=match):
        reader(path)


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
    blocks = {(b.x, b.y, b.z): b.material for b in llr.blocks}
    entity_cells = {(e.x, e.y, e.z, e.entity_type) for e in llr.entities}
    for e in hlr.entities:
        assert (e.position.x, e.position.y, e.position.z, e.entity_type) in entity_cells
    for o in hlr.objects:
        assert blocks[(o.position.x, o.position.y, o.position.z)] == o.material
