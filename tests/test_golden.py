"""Golden bytes: the sha256 of every output file for fixed inputs.

The other tests compare runs with each other, so a change that altered the
output the same way on every run would pass them. These hashes pin the bytes
themselves. The tutorial and zombieworld seed 0 document hashes equal the
``tutorial`` and ``zombieworld-s0`` pins of the benchmark (perfbench/pins.json).
The ``monitor`` pin covers ``LocationIndex.locate`` on every cell of a plane
through a gridworld, shared walls and the space around it included. The
dungeon blueprint pin covers a block map with several materials per x-slab:
that dungeon has a nether room whose lava replaces floor blocks, and gold and
diamond treasures standing on the floor, which are their columns' topmost
blocks.
"""

import hashlib
import json

import pytest

from voxgen.cli import GENERATORS, run
from voxgen.geometry import BlockPlacement, BoundingVolume, ConnectionSpec, EntitySpec, ObjectSpec, Position, WorldModel
from voxgen.query import LocationIndex, write_predicates
from voxgen.raster import rasterize
from voxgen.serialization import read_semantic_map, write_world

DOCUMENTS = {
    ("tutorial",): (
        "f7873090b167d2153ab56ec4f7d94176bea0d405baf5eee9333ff558179fba41",
        "bf120a4343c0659e0ad8cac66696c283be7c02c0aba451492da39311ec06a79f",
    ),
    ("zombieworld", "--seed", "0"): (
        "464fabf03c51150b2731136f891eb948e64035078914c0f76a421052f033d8ac",
        "3912db64b38b71aa79393e52772a26e7b049b68f12ece3372775fc0009dee135",
    ),
    ("gridworld", "--n", "3"): (
        "9d43c42a03a453d44af9a9984a9b143c41f3d1318727129f105b1058b81cc026",
        "e161711c718529e29df8c3ce824b60e58bea3a9f42cabad354ca8bbad6930738",
    ),
    ("dungeon", "--n", "4", "--seed", "1"): (
        "7f24a997918883290324509b59030685e074f970f3a290c36744db5a67399a86",
        "14b6347964a725ba651fceb54d25b59d13caf745ac14751ab7ba26ac2ea0e61c",
    ),
}

DUNGEON_4_BLUEPRINT = "01a0491a6115bb17cf3c578d55d1428f0e3b5ec59fd0e4a2c2be304d1de9648e"

GRIDWORLD_6_MONITOR_EVENTS = "3eed206817f4e0c1bddae68400a406c92bb2040cae9568ee2471ba4c50afe4c0"

GRIDWORLD_3_RENDERINGS = {
    "hierarchy.dot": "647dda5bc7a1835fb655b22c91b70adca3ef4f169c4c3f658a0146238080f73a",
    "topology.dot": "e2edc8d5c1630f45cccb63facc3a6464513bfca8c7c26e9f1c38531e7402c289",
    "blueprint.svg": "0e5ee103db935d039e54dd46f4c1568c1bceb14ce8ee3160b7e10daf9a3535a3",
    "predicates.txt": "26d6db0a942b33eaacde7e2b08b53ad1ecf92adc93888585b91e2f463a59a6db",
}


# No generator writes equipment, escaped materials or loose world items; this
# world, built in code, pins how the writers encode them.
WORLD_BUILT_IN_CODE = (
    "effca1392b7fe0845c7dacfa1140c2954352608b7ea3b9030c72bf5d3bf86115",
    "ad97ada9f2619f9135d6ac5127a01c47fa64ed443b2b90601e7090ee7eefe0e2",
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(tmp_path, argv):
    hlr = tmp_path / "semantic_map.json"
    llr = tmp_path / "block_map.json"
    assert run([*argv, "--out-hlr", str(hlr), "--out-llr", str(llr)]) == 0
    return hlr, llr


@pytest.mark.parametrize("argv", list(DOCUMENTS), ids=" ".join)
def test_document_bytes_are_pinned(tmp_path, argv):
    hlr, llr = generate(tmp_path, argv)
    assert (sha256(hlr), sha256(llr)) == DOCUMENTS[argv]


def test_every_generator_has_a_pinned_document():
    assert {argv[0] for argv in DOCUMENTS} == set(GENERATORS)


def test_gridworld_renderings_are_pinned(tmp_path):
    hlr, llr = generate(tmp_path, ("gridworld", "--n", "3"))
    out = {name: tmp_path / name for name in GRIDWORLD_3_RENDERINGS}
    assert run(["viz", "graph", "--hlr", str(hlr), "--out", str(out["hierarchy.dot"])]) == 0
    assert run(["viz", "graph", "--hlr", str(hlr), "--mode", "topology", "--out", str(out["topology.dot"])]) == 0
    assert run(["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(out["blueprint.svg"])]) == 0
    write_predicates(LocationIndex(read_semantic_map(hlr)).export_predicates(), out["predicates.txt"])
    assert {name: sha256(path) for name, path in out.items()} == GRIDWORLD_3_RENDERINGS


def test_dungeon_blueprint_is_pinned(tmp_path):
    hlr, llr = generate(tmp_path, ("dungeon", "--n", "4", "--seed", "1"))
    svg = tmp_path / "blueprint.svg"
    assert run(["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(svg)]) == 0
    assert sha256(svg) == DUNGEON_4_BLUEPRINT


def build_world_in_code():
    world = WorldModel("pinned")
    hall = BoundingVolume("hall", "room", 'glass "pane"', Position(0, 0, 0), Position(4, 3, 4), has_roof=True)
    hall.add_block(BlockPlacement("caf\u00e9\\tile\t", Position(2, 0, 2)))
    hall.add_entity(EntitySpec("guard", "skeleton", Position(2, 1, 2), {"weapon": "bow", "helmet": "\u00e9caille"}))
    hall.add_entity(EntitySpec("cat", "ocelot", Position(1, 1, 1)))
    hall.add_object(ObjectSpec("chest", "treasure", BlockPlacement("gold_block", Position(3, 1, 3))))
    annex = BoundingVolume("annex", "room", "stone", Position(4, 0, 0), Position(7, 3, 4))
    world.add_volume(hall)
    world.add_volume(annex)
    world.add_connection(ConnectionSpec("gap", "door", (Position(4, 1, 2), Position(4, 2, 2)), ("hall", "annex")))
    world.add_block(BlockPlacement("\u706b", Position(-3, 0, 0)))
    world.add_entity(EntitySpec("stray", "zombie", Position(-2, 0, 0), {"boots": "iron_boots"}))
    world.add_object(ObjectSpec("relic", "victim", BlockPlacement("bone\"block", Position(-1, 0, 0))))
    return world.finalize()


def test_world_built_in_code_bytes_are_pinned(tmp_path):
    world = build_world_in_code()
    hlr, llr = tmp_path / "semantic_map.json", tmp_path / "block_map.json"
    write_world(world, rasterize(world), hlr, llr)
    assert (sha256(hlr), sha256(llr)) == WORLD_BUILT_IN_CODE


def walking_trace(semantic_map, margin=2):
    """JSON Lines of three players who each visit every cell of the plane one
    voxel above the rooms' floor, over the map's x/z extent and margin voxels
    beyond it on every side: by rows, by columns, and by rows backwards. The
    players take turns, one sample each, 10 ms apart."""
    locations = semantic_map.locations
    floor = min(loc.top_left.y for loc in locations)
    xs = range(min(loc.top_left.x for loc in locations) - margin, max(loc.bottom_right.x for loc in locations) + margin + 1)
    zs = range(min(loc.top_left.z for loc in locations) - margin, max(loc.bottom_right.z for loc in locations) + margin + 1)
    walks = {
        "rows": [(x, z) for z in zs for x in xs],
        "columns": [(x, z) for x in xs for z in zs],
        "back": [(x, z) for z in reversed(zs) for x in reversed(xs)],
    }
    lines = []
    for step, cells in enumerate(zip(*walks.values())):
        for turn, (player, (x, z)) in enumerate(zip(walks, cells)):
            sample = {"timestamp": (step * len(walks) + turn) * 10, "player_id": player, "x": x, "y": floor + 1, "z": z}
            lines.append(json.dumps(sample) + "\n")
    return "".join(lines)


def test_monitor_events_are_pinned(tmp_path):
    hlr, _ = generate(tmp_path, ("gridworld", "--n", "6"))
    trace, events = tmp_path / "trace.jsonl", tmp_path / "events.jsonl"
    trace.write_text(walking_trace(read_semantic_map(hlr)))
    assert run(["monitor", "--hlr", str(hlr), "--trace", str(trace), "--out", str(events)]) == 0
    assert sha256(events) == GRIDWORLD_6_MONITOR_EVENTS
