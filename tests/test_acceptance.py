"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion. Every expected value here is either an exact count or comes
from the independent oracles in oracles.py; nothing is tuned to the
implementation under test.
"""

from collections import Counter
import random

from voxgen.generators import DungeonParams, gen_dungeon, gen_gridworld, gen_tutorial_house, gen_zombieworld
from voxgen.generators.dungeon import NETHER_MATERIAL, NETHER_MONSTER, NETHER_TREASURE, STONE_MATERIAL, STONE_MONSTER, STONE_TREASURE
from voxgen.geometry import Position, WorldModel
from voxgen.query import LocationIndex, TraceEvent
from voxgen.raster import rasterize
from voxgen.serialization import (
    block_map_from_grid,
    read_block_map,
    read_semantic_map,
    semantic_map_from_world,
    write_block_map,
    write_semantic_map,
    write_world,
)

from oracles import connection_graph_connected, naive_rasterize, random_world, scan_locate


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}: {detail}"


def emit(world, directory, tag):
    directory.mkdir(parents=True, exist_ok=True)
    hlr = directory / f"{tag}_hlr.json"
    llr = directory / f"{tag}_llr.json"
    write_world(world, rasterize(world), hlr, llr)
    return hlr, llr


def test_criterion_01_gridworld_cardinality():
    counts = {n: len(semantic_map_from_world(gen_gridworld(n)).locations) for n in (2, 20)}
    check(
        "criterion 1: gridworld n=2 -> 4 rooms, n=20 -> 400 rooms",
        counts == {2: 4, 20: 400},
        f"got {counts}",
    )


def test_criterion_02_determinism_and_seed_sensitivity(tmp_path):
    builders = {
        "gridworld": lambda: gen_gridworld(4),
        "dungeon": lambda: gen_dungeon(DungeonParams(n=4, seed=0)),
        "zombieworld": lambda: gen_zombieworld(0),
        "tutorial": gen_tutorial_house,
    }
    identical = True
    for tag, build in builders.items():
        hlr_a, llr_a = emit(build(), tmp_path / "a", tag)
        hlr_b, llr_b = emit(build(), tmp_path / "b", tag)
        identical &= hlr_a.read_bytes() == hlr_b.read_bytes()
        identical &= llr_a.read_bytes() == llr_b.read_bytes()

    occupied = {
        seed: {v.id for v in gen_dungeon(DungeonParams(n=4, seed=seed)).walk_volumes() if v.volume_type == "room"}
        for seed in (0, 1)
    }
    check(
        "criterion 2: byte-identical reruns per generator; dungeon seeds 0 and 1 differ",
        identical and occupied[0] != occupied[1],
        f"identical={identical}, occupied sets equal={occupied[0] == occupied[1]}",
    )


def test_criterion_03_tutorial_fidelity(tutorial_world, tutorial_grid):
    by_id = {v.id: v for v in tutorial_world.walk_volumes()}
    bounds_ok = (
        by_id["room_1"].top_left == Position(1, 3, 1)
        and by_id["room_1"].bottom_right == Position(6, 7, 6)
    )
    oracle_cells, _ = naive_rasterize(tutorial_world)
    histogram = Counter(tutorial_grid.cells.values())
    oracle_histogram = Counter(oracle_cells.values())
    # hand-derived expectation: two 6x6x5 rooms sharing a 30-cell wall,
    # 36 glass per room of which 12 sit on the shared (re-overwritten) wall
    expected = {"log": 142, "glass": 60, "planks": 32}
    cells_ok = (
        {tuple(p): m for p, m in tutorial_grid.cells.items()} == oracle_cells
        and histogram == oracle_histogram == expected
    )
    check(
        "criterion 3: tutorial bounds and exact per-material counts match the write-order oracle",
        bounds_ok and cells_ok,
        f"bounds_ok={bounds_ok}, histogram={dict(histogram)}, oracle={dict(oracle_histogram)}",
    )


def test_criterion_04_translation_equivariance():
    rng = random.Random(2024)
    failures = []
    for i in range(100):
        world = random_world(i)
        delta = (rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-40, 40))
        shifted = WorldModel(world.id + "_shifted")
        for v in world.volumes:
            shifted.add_volume(v.shifted(delta))
        shifted.finalize()
        base = rasterize(world)
        moved = rasterize(shifted)
        translated_cells = {tuple(map(sum, zip(p, delta))): m for p, m in base.cells.items()}
        translated_entities = [
            (e.position.shifted(*delta).as_tuple(), e.entity_type) for e in base.entities
        ]
        moved_entities = [(e.position.as_tuple(), e.entity_type) for e in moved.entities]
        if translated_cells != moved.cells or translated_entities != moved_entities:
            failures.append(i)
    check(
        "criterion 4: rasterize-then-shift equals shift-then-rasterize on 100 random worlds",
        not failures,
        f"failing world seeds: {failures}",
    )


def test_criterion_05_lockstep_consistency():
    failures = []
    for seed in range(20):
        worlds = [
            gen_gridworld(3),
            gen_dungeon(DungeonParams(n=4, seed=seed)),
            gen_zombieworld(seed),
            gen_tutorial_house(),
        ]
        for world in worlds:
            hlr = semantic_map_from_world(world)
            llr = block_map_from_grid(rasterize(world))
            blocks = {(x, y, z): material for x, y, z, material in llr.rows}
            entity_cells = {(e.x, e.y, e.z, e.entity_type) for e in llr.entities}
            for e in hlr.entities:
                if (e.position.x, e.position.y, e.position.z, e.entity_type) not in entity_cells:
                    failures.append((world.id, seed, "entity", e.id))
            for o in hlr.objects:
                if blocks.get((o.position.x, o.position.y, o.position.z)) != o.material:
                    failures.append((world.id, seed, "object", o.id))
            loc_bounds = [(l.top_left, l.bottom_right) for l in hlr.locations]
            for (x, y, z) in blocks:
                if not any(
                    tl.x <= x <= br.x and tl.y <= y <= br.y and tl.z <= z <= br.z
                    for tl, br in loc_bounds
                ):
                    failures.append((world.id, seed, "stray block", (x, y, z)))
                    break
    check(
        "criterion 5: HLR entities/objects in LLR and every LLR block inside a location, 4 generators x 20 seeds",
        not failures,
        f"first failures: {failures[:5]}",
    )


def test_criterion_06_dungeon_connectivity_and_typing():
    failures = []
    for n in (4, 8):
        for seed in range(50):
            world = gen_dungeon(DungeonParams(n=n, seed=seed))
            hlr = semantic_map_from_world(world)
            room_ids = {l.id for l in hlr.locations if l.location_type == "room"}
            if not connection_graph_connected(hlr, room_ids, connection_type="corridor"):
                failures.append((n, seed, "disconnected"))
            for v in world.walk_volumes():
                if v.volume_type != "room":
                    continue
                treasure = STONE_TREASURE if v.material == STONE_MATERIAL else NETHER_TREASURE
                monster = STONE_MONSTER if v.material == STONE_MATERIAL else NETHER_MONSTER
                if v.material not in (STONE_MATERIAL, NETHER_MATERIAL):
                    failures.append((n, seed, "bad material", v.id))
                if any(o.block.material != treasure for o in v.objects):
                    failures.append((n, seed, "bad treasure", v.id))
                if any(e.entity_type != monster for e in v.entities):
                    failures.append((n, seed, "bad monster", v.id))
    check(
        "criterion 6: corridor graph connected and room contents typed, n in {4,8} x 50 seeds",
        not failures,
        f"first failures: {failures[:5]}",
    )


def test_criterion_07_containment_oracle():
    worlds = [
        gen_gridworld(4),
        gen_dungeon(DungeonParams(n=4, seed=3)),
        gen_zombieworld(3),
        gen_tutorial_house(),
    ]
    rng = random.Random(7)
    mismatches = []
    for world in worlds:
        hlr = semantic_map_from_world(world)
        index = LocationIndex(hlr)
        xs = [c for l in hlr.locations for c in (l.top_left.x, l.bottom_right.x)]
        ys = [c for l in hlr.locations for c in (l.top_left.y, l.bottom_right.y)]
        zs = [c for l in hlr.locations for c in (l.top_left.z, l.bottom_right.z)]
        lo = (min(xs) - 3, min(ys) - 3, min(zs) - 3)
        hi = (max(xs) + 3, max(ys) + 3, max(zs) + 3)
        for _ in range(1000):
            p = tuple(rng.randint(lo[axis], hi[axis]) for axis in range(3))
            if index.locate(Position(*p)) != scan_locate(hlr, p):
                mismatches.append((world.id, p))
    check(
        "criterion 7: locate matches brute-force scan on 1000 random points per generator",
        not mismatches,
        f"first mismatches: {mismatches[:5]}",
    )


def test_criterion_08_round_trip_canonicalization(tmp_path):
    builders = {
        "gridworld": lambda: gen_gridworld(3),
        "dungeon": lambda: gen_dungeon(DungeonParams(n=4, seed=1)),
        "zombieworld": lambda: gen_zombieworld(1),
        "tutorial": gen_tutorial_house,
    }
    stable = True
    for tag, build in builders.items():
        hlr, llr = emit(build(), tmp_path, tag)
        hlr2 = tmp_path / f"{tag}_hlr2.json"
        llr2 = tmp_path / f"{tag}_llr2.json"
        write_semantic_map(read_semantic_map(hlr), hlr2)
        write_block_map(read_block_map(llr), llr2)
        stable &= hlr.read_bytes() == hlr2.read_bytes()
        stable &= llr.read_bytes() == llr2.read_bytes()
    check("criterion 8: read-then-write reproduces emitted HLR/LLR bytes", stable)


def test_criterion_09_zombieworld_pit_statistics():
    counts = {"lava": 0, "water": 0, "skip": 0}
    seeds = 3000
    pit_slots = 5
    for seed in range(seeds):
        pits = [v for v in gen_zombieworld(seed).walk_volumes() if v.volume_type == "pit"]
        for pit in pits:
            counts[pit.material] += 1
        counts["skip"] += pit_slots - len(pits)
    total = seeds * pit_slots
    sigma = (1 / 3 * 2 / 3 / total) ** 0.5
    deviations = {k: abs(v / total - 1 / 3) / sigma for k, v in counts.items()}
    check(
        "criterion 9: each pit outcome within 3 sigma of 1/3 over 3000 seeds",
        all(d <= 3 for d in deviations.values()),
        f"counts={counts}, deviations={deviations}",
    )


def test_criterion_10_transition_monitor(tutorial_map):
    index = LocationIndex(tutorial_map)
    # start inside room_1, step east through the shared wall into room_2
    xs = [2, 3, 4, 5, 6, 7, 8, 9]
    trace = [TraceEvent(i * 100, "p1", Position(x, 4, 3)) for i, x in enumerate(xs)]
    events = [(e.from_id, e.to_id) for e in index.transitions(trace)]
    check(
        "criterion 10: walk room_1 -> door -> room_2 yields [enter room_1, room_1 -> room_2]",
        events == [(None, "room_1"), ("room_1", "room_2")],
        f"got {events}",
    )
