"""Rasterizer: shells, roofs, overwrites, carving, and the grid diff."""

from collections import Counter
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxgen.errors import OutOfBoundsError
from voxgen.geometry import (
    BLANK,
    BlockPlacement,
    BoundingVolume,
    ConnectionSpec,
    EntitySpec,
    ObjectSpec,
    Position,
    WorldModel,
)
from voxgen.raster import BlockGrid, rasterize
from voxgen.serialization import semantic_map_from_world

from oracles import brute_shell_cells, diff_grids, naive_rasterize, random_world


def world_of(*volumes, world_id="w"):
    world = WorldModel(world_id)
    for v in volumes:
        world.add_volume(v)
    return world.finalize()


def make_room(room_id="room", tl=(1, 3, 1), br=(6, 7, 6), material="log", **kw):
    return BoundingVolume(
        room_id, volume_type="room", material=material,
        top_left=Position(*tl), bottom_right=Position(*br), **kw,
    )


def test_bare_tutorial_room_is_100_log_cells():
    grid = rasterize(world_of(make_room()))
    assert len(grid.cells) == 100
    assert set(grid.cells.values()) == {"log"}
    assert {tuple(p) for p in grid.cells} == brute_shell_cells((1, 3, 1), (6, 7, 6))


def test_grid_cells_are_keyed_by_cell_tuples():
    room = make_room()
    room.add_block(BlockPlacement("glass", Position(3, 4, 3)))
    grid = rasterize(world_of(room))
    # A shell cell's key is a plain tuple; a block keeps the Position it carries.
    assert type(next(iter(grid.cells))) is tuple
    assert [type(p) for p in grid.cells if grid.cells[p] == "glass"] == [Position]
    assert grid.cells[Position(1, 3, 1)] == grid.cells[1, 3, 1] == "log"
    assert grid.cells[Position(3, 4, 3)] == grid.cells[3, 4, 3] == "glass"
    assert Position(3, 5, 3) not in grid.cells and (3, 5, 3) not in grid.cells


def test_full_tutorial_room_matches_oracle_partition():
    room = make_room(has_roof=True)
    room.generate_box("planks", (1, 1, 0, 4, 1, 1))
    room.generate_box("glass", (0, 5, 1, 1, 1, 1))
    room.generate_box("glass", (5, 0, 1, 1, 1, 1))
    room.generate_box("glass", (1, 1, 1, 1, 0, 5))
    world = world_of(room)
    grid = rasterize(world)
    oracle_cells, _ = naive_rasterize(world)
    assert {tuple(p): m for p, m in grid.cells.items()} == oracle_cells
    # 100 shell + 16 roof interior - 36 glass overwrites; floor is new cells.
    assert Counter(grid.cells.values()) == {"log": 80, "glass": 36, "planks": 16}


def assert_matches_oracle(world):
    grid = rasterize(world)
    oracle_cells, oracle_entities = naive_rasterize(world)
    assert grid.cells == oracle_cells
    assert all(type(p) in (tuple, Position) for p in grid.cells)
    assert grid.entities == oracle_entities


@pytest.mark.parametrize("seed", range(200))
def test_random_worlds_match_oracle(seed):
    assert_matches_oracle(random_world(seed))


@st.composite
def sibling_volumes_with_a_door(draw):
    """Two sibling volumes of 1 to 4 cells per axis, so 1-wide and 1-thick
    walls occur, each maybe blank, maybe roofed, maybe holding a generate_box
    fill, and a door (or opening, or corridor) somewhere between them."""
    materials = st.sampled_from(["stone", "log", BLANK])
    group = BoundingVolume("house")
    for i in range(2):
        tl = [draw(st.integers(-2, 2)) for _ in range(3)]
        sizes = [draw(st.integers(1, 4)) for _ in range(3)]
        room = BoundingVolume(
            f"room{i}", material=draw(materials), has_roof=draw(st.booleans()),
            top_left=Position(*tl), bottom_right=Position(*(a + n - 1 for a, n in zip(tl, sizes))),
        )
        if draw(st.booleans()):
            margins = []
            for n in sizes:
                low = draw(st.integers(0, n - 1))
                margins += [low, draw(st.integers(0, n - 1 - low))]
            room.generate_box(draw(st.sampled_from(["planks", "glass"])), tuple(margins))
        group.add_child(room)
    door_tl = [draw(st.integers(-2, 5)) for _ in range(3)]
    door_br = [a + draw(st.integers(0, 2)) for a in door_tl]
    door = ConnectionSpec(
        "door", draw(st.sampled_from(["door", "opening", "corridor"])),
        (Position(*door_tl), Position(*door_br)), ("room0", "room1"),
    )
    world = WorldModel("w")
    world.add_volume(group)
    world.add_connection(door)
    return world.finalize()


@settings(max_examples=200, deadline=None)
@given(world=sibling_volumes_with_a_door())
def test_sibling_volumes_with_a_door_match_oracle(world):
    assert_matches_oracle(world)


@st.composite
def a_room_of_interleaved_fills_and_blocks(draw):
    """A room of 1 to 4 cells per axis and the blocks that a random interleaving
    of generate_box and add_block calls gave it, each as (material, cell), in
    write order: a fill's cells by a triple loop in x, y, z order."""
    tl = [draw(st.integers(-2, 2)) for _ in range(3)]
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    br = [a + n - 1 for a, n in zip(tl, sizes)]
    room = BoundingVolume("room", material=draw(st.sampled_from(["log", BLANK])), has_roof=draw(st.booleans()),
                          top_left=Position(*tl), bottom_right=Position(*br))
    materials = st.sampled_from(["planks", "glass", "lava"])
    expected = []
    for _ in range(draw(st.integers(1, 6))):
        material = draw(materials)
        if draw(st.booleans()):
            margins = []
            for n in sizes:
                low = draw(st.integers(0, n - 1))
                margins += [low, draw(st.integers(0, n - 1 - low))]
            room.generate_box(material, tuple(margins))
            xl, xh, yl, yh, zl, zh = margins
            for x in range(tl[0] + xl, br[0] - xh + 1):
                for y in range(tl[1] + yl, br[1] - yh + 1):
                    for z in range(tl[2] + zl, br[2] - zh + 1):
                        expected.append((material, (x, y, z)))
        else:
            cell = tuple(draw(st.integers(a, b)) for a, b in zip(tl, br))
            room.add_block(BlockPlacement(material, Position(*cell)))
            expected.append((material, cell))
    return room, expected


@settings(max_examples=200, deadline=None)
@given(built=a_room_of_interleaved_fills_and_blocks())
def test_interleaved_fills_and_blocks_keep_their_order(built):
    room, expected = built
    assert [(b.material, b.position) for b in room.blocks] == expected
    assert len(room.blocks) == len(expected)
    world = world_of(room)
    assert [(b.material, b.position) for b in room.blocks] == expected
    assert_matches_oracle(world)


def test_a_block_added_after_a_fill_overwrites_it():
    room = make_room()
    room.generate_box("planks", (1, 1, 0, 4, 1, 1))  # (2, 3, 2)..(5, 3, 5)
    room.add_block(BlockPlacement("lava", Position(2, 3, 3)))
    room.add_block(BlockPlacement("lava", Position(3, 3, 3)))
    room.generate_box("glass", (2, 2, 0, 4, 2, 2))  # (3, 3, 3)..(4, 3, 4)
    room.add_block(BlockPlacement("web", Position(4, 3, 4)))
    cells = rasterize(world_of(room)).cells
    assert [cells[2, 3, 2], cells[2, 3, 3], cells[3, 3, 3], cells[4, 3, 4]] == ["planks", "lava", "glass", "web"]


def test_world_level_loose_items_follow_the_volume_rules_anywhere():
    room = make_room()
    room.add_entity(EntitySpec("villager", "villager", Position(3, 4, 3)))
    world = WorldModel("w")
    world.add_volume(room)
    wall = Position(1, 3, 1)
    world.add_block(BlockPlacement("gold_block", wall))
    loose = EntitySpec("zombie", "zombie", Position(100, -5, 100))
    world.add_entity(loose)
    world.add_object(ObjectSpec("chest", "treasure", BlockPlacement("diamond_block", Position(-20, 0, 0))))
    world.finalize()

    grid = rasterize(world)
    assert grid.cells[wall] == "gold_block"
    assert grid.cells[Position(-20, 0, 0)] == "diamond_block"
    assert grid.entities[-1] == loose
    oracle_cells, oracle_entities = naive_rasterize(world)
    assert {tuple(p): m for p, m in grid.cells.items()} == oracle_cells
    assert grid.entities == oracle_entities
    assert [(o.id, o.location_id) for o in semantic_map_from_world(world).objects] == [("chest", None)]


def test_blank_volume_emits_nothing():
    grid = rasterize(world_of(make_room(material="blank")))
    assert grid.cells == {}


def test_blank_volume_with_roof_emits_roof_only():
    grid = rasterize(world_of(make_room(material="blank", has_roof=True)))
    assert len(grid.cells) == 36
    assert set(grid.cells.values()) == {"blank"}
    assert all(y == 7 for _, y, _ in grid.cells)


def test_rasterize_requires_finalized_world():
    world = WorldModel("w")
    world.add_volume(make_room())
    with pytest.raises(ValueError):
        rasterize(world)


def test_rasterize_is_idempotent():
    world = world_of(make_room())
    assert rasterize(world).cells == rasterize(world).cells


def test_shell_count_law():
    rng = random.Random(3)
    for _ in range(30):
        w, d, h = rng.randint(2, 9), rng.randint(2, 9), rng.randint(1, 6)
        v = make_room("v", (0, 0, 0), (w - 1, h - 1, d - 1), "stone")
        grid = rasterize(world_of(v))
        assert len(grid.cells) == h * (w * d - (w - 2) * (d - 2))


def test_later_volume_overwrites_earlier():
    first = make_room("a", (0, 0, 0), (4, 2, 4), "stone")
    second = make_room("b", (4, 0, 0), (8, 2, 4), "planks")
    grid = rasterize(world_of(first, second))
    # the shared x=4 wall belongs to whichever volume wrote last
    assert grid.cells[Position(4, 0, 0)] == "planks"
    assert grid.cells[Position(0, 0, 0)] == "stone"


def test_explicit_blocks_overwrite_shell():
    room = make_room()
    room.add_block(BlockPlacement("glass", Position(1, 4, 3)))
    grid = rasterize(world_of(room))
    assert grid.cells[Position(1, 4, 3)] == "glass"


def test_object_blocks_land_in_grid():
    from voxgen.geometry import ObjectSpec

    room = make_room()
    room.add_object(ObjectSpec("t", "treasure", BlockPlacement("diamond_block", Position(3, 4, 3))))
    grid = rasterize(world_of(room))
    assert grid.cells[Position(3, 4, 3)] == "diamond_block"


def test_door_carves_air_after_all_writes():
    a = make_room("a", (0, 0, 0), (5, 4, 5), "stone")
    b = make_room("b", (5, 0, 0), (10, 4, 5), "stone")
    world = WorldModel("w")
    world.add_volume(a)
    world.add_volume(b)
    world.add_connection(
        ConnectionSpec("door_ab", "door", (Position(5, 1, 2), Position(5, 2, 3)), ("a", "b"))
    )
    grid = rasterize(world.finalize())
    for y in (1, 2):
        for z in (2, 3):
            assert Position(5, y, z) not in grid.cells
    assert Position(5, 0, 2) in grid.cells  # below the door the wall survives


def test_corridor_connection_does_not_carve():
    a = make_room("a", (0, 0, 0), (5, 4, 5), "stone")
    world = WorldModel("w")
    world.add_volume(a)
    world.add_connection(
        ConnectionSpec("c", "corridor", (Position(0, 1, 2), Position(0, 2, 3)), ("a", "a2"))
    )
    world.add_volume(make_room("a2", (20, 0, 0), (25, 4, 5), "stone"))
    grid = rasterize(world.finalize())
    assert Position(0, 1, 2) in grid.cells


def test_out_of_bounds_block_detected_at_rasterize():
    room = make_room()
    room.blocks.append(BlockPlacement("stone", Position(50, 50, 50)))  # bypass add checks
    with pytest.raises(OutOfBoundsError):
        rasterize(world_of(room))


def test_entities_collected_in_traversal_order():
    outer = make_room("outer", (0, 0, 0), (10, 6, 10), "stone")
    inner = make_room("inner", (1, 0, 1), (4, 4, 4), "planks")
    outer.add_entity(EntitySpec("e1", "zombie", Position(9, 1, 9)))
    inner.add_entity(EntitySpec("e2", "villager", Position(2, 1, 2)))
    outer.add_child(inner)
    grid = rasterize(world_of(outer))
    assert [e.id for e in grid.entities] == ["e1", "e2"]


def test_translation_equivariance_single_case():
    world = random_world(11)
    delta = (13, -4, 7)
    shifted_world = WorldModel(world.id + "_shifted")
    for v in world.volumes:
        shifted_world.add_volume(v.shifted(delta))
    shifted_world.finalize()
    base = rasterize(world)
    moved = rasterize(shifted_world)
    translated = {tuple(map(sum, zip(p, delta))): m for p, m in base.cells.items()}
    assert translated == dict(moved.cells)


class TestDiffGrids:
    def test_reflexive_diff_is_empty(self):
        grid = rasterize(world_of(make_room()))
        assert diff_grids(grid, grid) == []

    def test_two_cell_shift_reports_old_and_new(self):
        a = BlockGrid(cells={Position(0, 0, 0): "stone", Position(1, 0, 0): "stone"})
        b = BlockGrid(cells={Position(1, 0, 0): "stone", Position(2, 0, 0): "stone"})
        assert diff_grids(a, b) == [
            (Position(0, 0, 0), "stone", None),
            (Position(2, 0, 0), None, "stone"),
        ]

    def test_empty_vs_single_cell(self):
        assert diff_grids(BlockGrid(), BlockGrid(cells={Position(5, 5, 5): "log"})) == [
            (Position(5, 5, 5), None, "log")
        ]

    def test_material_change_reported_once(self):
        a = BlockGrid(cells={Position(0, 0, 0): "stone"})
        b = BlockGrid(cells={Position(0, 0, 0): "log"})
        assert diff_grids(a, b) == [(Position(0, 0, 0), "stone", "log")]
