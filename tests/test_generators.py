"""Built-in generators: layout counts, typing rules, determinism."""

import pytest

from voxgen.errors import RetryExhaustedError
from voxgen.generators import DungeonParams, gen_dungeon, gen_gridworld, gen_tutorial_house, gen_zombieworld
from voxgen.generators.dungeon import NETHER_MATERIAL, NETHER_MONSTER, NETHER_TREASURE, STONE_MATERIAL, STONE_MONSTER, STONE_TREASURE
from voxgen.geometry import Position
from voxgen.raster import rasterize
from voxgen.serialization import block_map_from_grid, semantic_map_from_world

from oracles import connection_graph_connected, naive_rasterize


def rooms_of(world):
    return [v for v in world.walk_volumes() if v.volume_type == "room"]


class TestGridworld:
    def test_degenerate_single_room(self):
        world = gen_gridworld(1)
        m = semantic_map_from_world(world)
        assert len(m.locations) == 1
        assert len(m.connections) == 0

    @pytest.mark.parametrize("n,rooms,doors", [(2, 4, 4), (3, 9, 12), (5, 25, 40)])
    def test_counts(self, n, rooms, doors):
        m = semantic_map_from_world(gen_gridworld(n))
        assert len(m.locations) == rooms
        assert len(m.connections) == doors  # 2 * n * (n - 1)

    def test_room_ids_cover_the_grid(self):
        m = semantic_map_from_world(gen_gridworld(3))
        assert {l.id for l in m.locations} == {f"room_{r}_{c}" for r in range(3) for c in range(3)}

    def test_adjacent_rooms_share_walls(self):
        world = gen_gridworld(2)
        by_id = {v.id: v for v in world.walk_volumes()}
        assert by_id["room_0_0"].bottom_right.x == by_id["room_0_1"].top_left.x
        assert by_id["room_0_0"].bottom_right.z == by_id["room_1_0"].top_left.z

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            gen_gridworld(0)

    def test_doors_carve_shared_walls(self):
        grid = rasterize(gen_gridworld(2))
        world = gen_gridworld(2)
        carved = [c for c in world.all_connections() if c.connection_type == "door"]
        assert len(carved) == 4
        for conn in carved:
            tl, br = conn.bounds
            for x in range(tl.x, br.x + 1):
                for y in range(tl.y, br.y + 1):
                    for z in range(tl.z, br.z + 1):
                        assert Position(x, y, z) not in grid.cells


class TestDungeon:
    def test_seeds_zero_and_one_differ(self):
        w0 = gen_dungeon(DungeonParams(n=4, seed=0))
        w1 = gen_dungeon(DungeonParams(n=4, seed=1))
        assert {v.id for v in rooms_of(w0)} != {v.id for v in rooms_of(w1)}

    def test_room_graph_is_connected(self):
        m = semantic_map_from_world(gen_dungeon(DungeonParams(n=6, seed=3)))
        room_ids = {l.id for l in m.locations if l.location_type == "room"}
        assert len(room_ids) >= 2
        assert connection_graph_connected(m, room_ids, connection_type="corridor")

    def test_full_probability_fills_the_grid(self):
        world = gen_dungeon(DungeonParams(n=3, seed=7, room_probability=1.0))
        assert len(rooms_of(world)) == 9

    def test_retry_exhaustion(self):
        with pytest.raises(RetryExhaustedError):
            gen_dungeon(DungeonParams(n=2, seed=0, room_probability=1e-12))

    def test_room_contents_match_room_kind(self):
        for seed in range(5):
            world = gen_dungeon(DungeonParams(n=4, seed=seed))
            for room in rooms_of(world):
                if room.material == STONE_MATERIAL:
                    treasure, monster = STONE_TREASURE, STONE_MONSTER
                else:
                    assert room.material == NETHER_MATERIAL
                    treasure, monster = NETHER_TREASURE, NETHER_MONSTER
                assert room.objects, f"{room.id} has no treasure"
                for obj in room.objects:
                    assert obj.object_type == "treasure"
                    assert obj.block.material == treasure
                assert room.entities, f"{room.id} has no monsters"
                for entity in room.entities:
                    assert entity.entity_type == monster

    def test_corridor_connections_name_existing_rooms(self):
        world = gen_dungeon(DungeonParams(n=4, seed=2))
        room_ids = {v.id for v in rooms_of(world)}
        corridors = [c for c in world.all_connections() if c.connection_type == "corridor"]
        assert len(corridors) == len(room_ids) - 1  # spanning tree
        for conn in corridors:
            assert set(conn.connected_ids) <= room_ids

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DungeonParams(n=1)
        with pytest.raises(ValueError):
            DungeonParams(n=4, room_probability=0.0)
        with pytest.raises(ValueError):
            DungeonParams(n=4, cell_footprint=5)
        with pytest.raises(ValueError):
            DungeonParams(n=4, treasure_range=(3, 1))


class TestZombieWorld:
    def test_each_building_has_a_zombie_and_villager(self):
        m = semantic_map_from_world(gen_zombieworld(0))
        buildings = [l for l in m.locations if l.location_type == "building"]
        assert len(buildings) == 4
        by_type = {}
        for e in m.entities:
            by_type.setdefault(e.entity_type, []).append(e)
        assert len(by_type["zombie"]) == 4
        assert len(by_type["villager"]) == 4

    def test_pit_outcomes_are_lava_or_water(self):
        for seed in range(10):
            m = semantic_map_from_world(gen_zombieworld(seed))
            pits = [l for l in m.locations if l.location_type == "pit"]
            assert len(pits) <= 5
            assert all(p.material in ("lava", "water") for p in pits)

    def test_determinism_replay(self):
        a = semantic_map_from_world(gen_zombieworld(42))
        b = semantic_map_from_world(gen_zombieworld(42))
        assert a == b

    def test_entities_inside_their_rooms(self):
        world = gen_zombieworld(5)
        for v in world.walk_volumes():
            for e in v.entities:
                assert v.contains(e.position)


class TestTutorialHouse:
    def test_room_1_bounds(self, tutorial_world):
        by_id = {v.id: v for v in tutorial_world.walk_volumes()}
        assert by_id["room_1"].top_left == Position(1, 3, 1)
        assert by_id["room_1"].bottom_right == Position(6, 7, 6)

    def test_locations_and_hierarchy(self, tutorial_map):
        assert {l.id for l in tutorial_map.locations} == {"house", "room_1", "room_2"}
        house = next(l for l in tutorial_map.locations if l.id == "house")
        assert house.child_ids == ("room_1", "room_2")

    def test_zombie_within_seeded_margins(self, tutorial_world):
        by_id = {v.id: v for v in tutorial_world.walk_volumes()}
        z1 = by_id["room_1"].entities[0].position
        assert 2 <= z1.x <= 5 and 4 <= z1.y <= 5 and 2 <= z1.z <= 5
        z2 = by_id["room_2"].entities[0].position
        assert z2 == z1.shifted(5, 0, 0)

    def test_histogram_matches_independent_oracle(self, tutorial_world, tutorial_grid):
        oracle_cells, oracle_entities = naive_rasterize(tutorial_world)
        assert {p.as_tuple(): m for p, m in tutorial_grid.cells.items()} == oracle_cells
        assert [e.id for e in tutorial_grid.entities] == [e.id for e in oracle_entities]


def test_every_generated_item_sits_inside_its_volume():
    worlds = [
        gen_gridworld(3),
        gen_dungeon(DungeonParams(n=4, seed=1)),
        gen_zombieworld(1),
        gen_tutorial_house(),
    ]
    for world in worlds:
        for v in world.walk_volumes():
            for e in v.entities:
                assert v.contains(e.position), f"{world.id}: {e.id}"
            for o in v.objects:
                assert v.contains(o.block.position), f"{world.id}: {o.id}"
            for b in v.blocks:
                assert v.contains(b.position), f"{world.id}: block in {v.id}"


def test_generated_worlds_rasterize_like_the_oracle():
    worlds = [
        gen_gridworld(2),
        gen_dungeon(DungeonParams(n=4, seed=0)),
        gen_zombieworld(0),
    ]
    for world in worlds:
        grid = rasterize(world)
        oracle_cells, _ = naive_rasterize(world)
        assert {p.as_tuple(): m for p, m in grid.cells.items()} == oracle_cells, world.id


def test_block_map_lists_are_sorted():
    doc = block_map_from_grid(rasterize(gen_dungeon(DungeonParams(n=4, seed=0))))
    keys = list(doc.rows)
    assert keys == sorted(keys)
