"""Core geometry: positions, volumes, translation, margins, the world."""

import enum
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxgen.errors import (
    CoordinateOverflowError,
    DanglingConnectionError,
    DuplicateIdError,
    EmptyBoxError,
    FrozenWorldError,
    OutOfBoundsError,
)
from voxgen.geometry import (
    BlockList,
    BlockPlacement,
    Blocks,
    BoundingVolume,
    BoxFill,
    ConnectionSpec,
    EntitySpec,
    ObjectSpec,
    Position,
    WorldModel,
)
from voxgen.rng import SeededRng


def make_room(room_id="room", tl=(1, 3, 1), br=(6, 7, 6), material="log"):
    return BoundingVolume(
        room_id, volume_type="room", material=material,
        top_left=Position(*tl), bottom_right=Position(*br),
    )


class TestPosition:
    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Position(1.5, 0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(CoordinateOverflowError):
            Position(2**63, 0, 0)

    def test_ordering_is_lexicographic(self):
        assert Position(1, 2, 3) < Position(1, 2, 4) < Position(2, 0, 0)

    def test_a_position_is_its_coordinate_tuple(self):
        p = Position(1, 2, 3)
        assert isinstance(p, tuple) and p == (1, 2, 3) and hash(p) == hash((1, 2, 3))
        x, y, z = p
        assert (x, y, z) == (p.x, p.y, p.z) == (1, 2, 3)
        assert repr(p) == "Position(x=1, y=2, z=3)"
        assert {(1, 2, 3): "log"}[p] == "log" and {p: "log"}[(1, 2, 3)] == "log"

    @pytest.mark.parametrize("build", [
        lambda: Position(True, 0, 0),
        lambda: Position(0, 0, 1.0),
        lambda: Position(0, 0, 0)._replace(y=False),
        lambda: Position._make((0, "1", 0)),
    ], ids=["bool-x", "float-z", "replace", "make"])
    def test_every_constructor_checks_types(self, build):
        with pytest.raises(TypeError):
            build()

    def test_every_constructor_checks_the_range(self):
        with pytest.raises(CoordinateOverflowError):
            Position(0, 0, 0)._replace(z=2**63)
        with pytest.raises(CoordinateOverflowError):
            Position(0, -(2**63) - 1, 0)

    def test_shift_overflow_is_an_error(self):
        p = Position(2**63 - 1, 0, 0)
        with pytest.raises(CoordinateOverflowError):
            p.shifted(1, 0, 0)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Position(True, 0, 0), TypeError, "x must be an int, got bool"),
        (lambda: Position(0, 0, 1.5), TypeError, "z must be an int, got float"),
        (lambda: Position(0, "1", 0), TypeError, "y must be an int, got str"),
        (lambda: Position(0, 2**63, 0), CoordinateOverflowError, "y=9223372036854775808 outside signed 64-bit range"),
        (lambda: Position(0, 0, -(2**63) - 1), CoordinateOverflowError,
         "z=-9223372036854775809 outside signed 64-bit range"),
        (lambda: Position(0, 0, 0)._replace(x=2**64), CoordinateOverflowError,
         "x=18446744073709551616 outside signed 64-bit range"),
        (lambda: Position(1.5, 2**63, "z"), TypeError, "x must be an int, got float"),
    ], ids=["bool-x", "float-z", "str-y", "y-2**63", "z-below-range", "replace", "first-bad-axis"])
    def test_errors_name_the_first_bad_axis(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error and str(err.value) == message

    def test_an_int_subclass_coordinate_is_kept_as_given(self):
        class Level(enum.IntEnum):
            GROUND = 3

        p = Position(Level.GROUND, 0, 0)
        assert p == (3, 0, 0) and type(p.x) is Level


class TestShift:
    def test_zero_shift_is_identity(self):
        room = make_room()
        room.generate_box("planks", (1, 1, 0, 4, 1, 1))
        room.add_entity(EntitySpec("z", "zombie", Position(3, 4, 3)))
        assert room.shifted((0, 0, 0)) == room
        world = WorldModel("w")
        world.add_volume(room)
        world.finalize()
        assert room.shifted((0, 0, 0)) == room

    def test_shift_moves_both_corners(self):
        # Shifting the first room five voxels east yields the second one.
        moved = make_room().shifted((5, 0, 0))
        assert moved.top_left == Position(6, 3, 1)
        assert moved.bottom_right == Position(11, 7, 6)

    def test_shift_matches_per_node_translation_on_random_trees(self):
        rng = random.Random(42)
        for _ in range(25):
            root = make_room("root", (0, 0, 0), (30, 30, 30), "stone")
            nodes = [root]
            for i in range(rng.randint(2, 8)):
                parent = rng.choice(nodes)
                px, py, pz = parent.top_left.as_tuple()
                qx, qy, qz = parent.bottom_right.as_tuple()
                if min(qx - px, qy - py, qz - pz) < 2:
                    continue
                tl = (rng.randint(px, qx - 1), rng.randint(py, qy - 1), rng.randint(pz, qz - 1))
                br = (rng.randint(tl[0], qx), rng.randint(tl[1], qy), rng.randint(tl[2], qz))
                child = make_room(f"n{i}", tl, br, "planks")
                child.add_block(BlockPlacement("log", Position(*tl)))
                child.add_entity(EntitySpec(f"e{i}", "zombie", Position(*br)))
                parent.add_child(child)
                nodes.append(child)
            delta = (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
            shifted = root.shifted(delta)

            originals = list(root.walk())
            moved = list(shifted.walk())
            assert len(originals) == len(moved)
            for before, after in zip(originals, moved):
                for dim, d in zip("xyz", delta):
                    assert getattr(after.top_left, dim) == getattr(before.top_left, dim) + d
                    assert getattr(after.bottom_right, dim) == getattr(before.bottom_right, dim) + d
                for b_old, b_new in zip(before.blocks, after.blocks):
                    assert b_new.position == b_old.position.shifted(*delta)
                for e_old, e_new in zip(before.entities, after.entities):
                    assert e_new.position == e_old.position.shifted(*delta)

    def test_shift_moves_every_cell_of_a_box_fill(self):
        room = make_room()
        room.generate_box("planks", (1, 1, 0, 4, 1, 1))
        room.add_block(BlockPlacement("lava", Position(3, 3, 3)))
        room.generate_box("glass", (0, 5, 1, 1, 1, 1))
        delta = (-7, 2, 40)
        moved = room.shifted(delta)
        assert [type(item) for item in moved.blocks.items] == [BoxFill, BlockPlacement, BoxFill]
        assert len(moved.blocks) == len(room.blocks) == 16 + 1 + 12
        assert list(moved.blocks) == [BlockPlacement(b.material, b.position.shifted(*delta)) for b in room.blocks]

    def test_shift_leaves_stored_connections_alone(self):
        room = make_room("a", (0, 0, 0), (10, 5, 10), "stone")
        inner = make_room("b", (1, 0, 1), (4, 4, 4), "stone")
        room.add_child(inner)
        conn = ConnectionSpec(
            "door_ab", "door", (Position(2, 1, 2), Position(2, 2, 3)), ("a", "b")
        )
        room.add_connection(conn)
        moved = room.shifted((7, 0, 0))
        assert moved.connections == [conn]


class TestGenerateBox:
    def test_tutorial_floor(self):
        room = make_room()
        room.generate_box("planks", (1, 1, 0, 4, 1, 1))
        positions = {b.position.as_tuple() for b in room.blocks}
        expected = {(x, 3, z) for x in range(2, 6) for z in range(2, 6)}
        assert positions == expected
        assert len(room.blocks) == 16
        assert all(b.material == "planks" for b in room.blocks)

    def test_tutorial_window(self):
        room = make_room()
        room.generate_box("glass", (0, 5, 1, 1, 1, 1))
        positions = {b.position.as_tuple() for b in room.blocks}
        expected = {(1, y, z) for y in range(4, 7) for z in range(2, 6)}
        assert positions == expected
        assert len(room.blocks) == 12

    def test_empty_inset_raises(self):
        room = make_room()
        with pytest.raises(EmptyBoxError):
            room.generate_box("stone", (3, 3, 0, 0, 0, 0))  # x span is 6, 3+3 eats it all

    @pytest.mark.parametrize("material", ["", "w\ud800", None])
    def test_a_bad_material_is_named_as_a_block_material(self, material):
        room = make_room()
        with pytest.raises(ValueError) as err:
            room.generate_box(material, (1, 1, 0, 4, 1, 1))
        assert str(err.value) == f"block material must be a nonempty str that UTF-8 can encode, got {material!r}"
        assert len(room.blocks) == 0

    @pytest.mark.parametrize("br, outside", [
        ((6, 7, 4), (2, 4, 5)),
        ((6, 5, 6), (2, 6, 2)),
        ((4, 7, 6), (5, 4, 2)),
    ], ids=["z", "y", "x"])
    def test_finalize_names_the_first_cell_of_a_box_outside_its_volume(self, br, outside):
        # The blocks of a box filled in a larger volume are put directly in a
        # smaller one, followed by a block inside it; the message names the
        # box's first outside cell in x, y, z order.
        big = make_room("big")
        big.generate_box("planks", (1, 0, 1, 1, 1, 0))  # (2, 4, 2)..(6, 6, 6)
        room = make_room("room_1", (1, 3, 1), br)
        room.blocks = big.blocks
        room.blocks.append(BlockPlacement("lava", Position(2, 4, 2)))
        world = WorldModel("w")
        world.add_volume(room)
        with pytest.raises(OutOfBoundsError) as exc:
            world.finalize()
        assert str(exc.value) == f"block at {outside} outside volume room_1"


class TestBlocks:
    """A holder's blocks read as the placements they stand for, box fills included."""

    def filled(self, room_id="room"):
        room = make_room(room_id)
        for x in range(2, 6):
            for z in range(2, 6):
                room.add_block(BlockPlacement("planks", Position(x, 3, z)))
        filled = make_room(room_id)
        filled.generate_box("planks", (1, 1, 0, 4, 1, 1))
        return room, filled

    def test_a_fill_equals_the_same_blocks_added_one_by_one(self):
        by_block, by_fill = self.filled()
        assert by_fill == by_block and by_fill.blocks == by_block.blocks
        assert by_fill.blocks == list(by_block.blocks) and by_fill.blocks == tuple(by_block.blocks)
        worlds = []
        for room in (by_block, by_fill):
            worlds.append(WorldModel("w"))
            worlds[-1].add_volume(room)
            worlds[-1].finalize()
        assert by_fill == by_block and worlds[0] == worlds[1]
        assert type(by_fill.blocks) is Blocks and by_fill.blocks == by_block.blocks

    def test_a_different_material_or_cell_is_unequal(self):
        by_block, by_fill = self.filled()
        by_block.blocks.append(BlockPlacement("lava", Position(2, 3, 2)))
        by_fill.blocks.append(BlockPlacement("lava", Position(2, 3, 3)))
        assert by_fill.blocks != by_block.blocks and by_fill != by_block
        assert by_fill.blocks != list(by_block.blocks)[:-1]
        assert by_fill.blocks != "planks"

    def test_len_index_and_slice_count_cells(self):
        room = make_room()
        room.add_block(BlockPlacement("lava", Position(3, 3, 3)))
        room.generate_box("glass", (0, 5, 1, 1, 1, 1))  # (1, 4, 2)..(1, 6, 5)
        room.add_block(BlockPlacement("web", Position(4, 4, 4)))
        blocks = room.blocks
        assert len(blocks) == 14 and len(blocks.items) == 3
        assert blocks[0] == BlockPlacement("lava", Position(3, 3, 3))
        assert blocks[1] == BlockPlacement("glass", Position(1, 4, 2))
        assert blocks[6] == BlockPlacement("glass", Position(1, 5, 3))
        assert blocks[12] == blocks[-2] == BlockPlacement("glass", Position(1, 6, 5))
        assert blocks[13] == blocks[-1] == BlockPlacement("web", Position(4, 4, 4))
        assert blocks[1:14:4] == [blocks[1], blocks[5], blocks[9], blocks[13]]
        for index in (14, -15):
            with pytest.raises(IndexError):
                blocks[index]

    def test_a_box_fill_is_checked_like_a_block(self):
        with pytest.raises(ValueError, match=r"^block material must be a nonempty str that UTF-8 can encode, got ''$"):
            BoxFill("", Position(0, 0, 0), Position(1, 1, 1))
        with pytest.raises(ValueError, match=r"^box fill corners out of order: \(0, 2, 0\)..\(1, 1, 1\)$"):
            BoxFill("stone", (0, 2, 0), (1, 1, 1))
        fill = BoxFill("stone", (0, 1, 0), [1, 1, 2])
        assert type(fill.top_left) is type(fill.bottom_right) is Position and fill.size == 6

    def test_finalize_names_the_first_cell_of_a_box_fill_appended_directly(self):
        room = make_room("room_1")
        room.blocks.append(BlockPlacement("lava", Position(2, 4, 2)))
        room.blocks.append(BoxFill("stone", Position(2, 4, 2), Position(3, 8, 3)))
        assert len(room.blocks) == 1 + 2 * 5 * 2
        world = WorldModel("w")
        world.add_volume(room)
        with pytest.raises(OutOfBoundsError, match=r"^block at \(2, 8, 2\) outside volume room_1$"):
            world.finalize()

    def test_a_finalized_holder_keeps_read_only_blocks(self):
        room = make_room()
        room.generate_box("planks", (1, 1, 0, 4, 1, 1))
        assert type(room.blocks) is BlockList
        world = WorldModel("w")
        world.add_volume(room)
        world.finalize()
        assert type(room.blocks) is type(world.blocks) is Blocks and len(room.blocks) == 16
        with pytest.raises(AttributeError):
            world.blocks.append(BlockPlacement("stone", Position(2, 4, 2)))

    def test_append_refuses_anything_but_a_placement_or_a_box_fill(self):
        room = make_room()
        room.generate_box("planks", (1, 1, 0, 4, 1, 1))
        items = room.blocks.items
        for bad in ("x", ("stone", Position(2, 4, 2)), None):
            message = f"^block must be a BlockPlacement or a BoxFill, got {type(bad).__name__}$"
            with pytest.raises(TypeError, match=message):
                room.blocks.append(bad)
            assert room.blocks.items == items and len(room.blocks) == 16

    @pytest.mark.parametrize("cls", [Blocks, BlockList])
    @pytest.mark.parametrize("bad", ["x", None, ("stone", Position(2, 4, 2))], ids=["str", "none", "tuple"])
    def test_a_new_blocks_refuses_anything_but_a_placement_or_a_box_fill(self, cls, bad):
        items = [BlockPlacement("stone", Position(2, 4, 2)), bad]
        with pytest.raises(TypeError, match=f"^block must be a BlockPlacement or a BoxFill, got {type(bad).__name__}$"):
            cls(items)


coords = st.integers(-3, 3)


@st.composite
def block_items(draw):
    """A placement, or a box fill of at most 2 x 2 x 2 cells."""
    material = draw(st.sampled_from(["stone", "lava", "glass"]))
    top_left = Position(draw(coords), draw(coords), draw(coords))
    if draw(st.booleans()):
        return BlockPlacement(material, top_left)
    return BoxFill(material, top_left, top_left.shifted(*draw(st.tuples(*[st.integers(0, 1)] * 3))))


def placements_of(items):
    """Each placement, and each box fill's cells in x, then y, then z order, written out by hand."""
    out = []
    for item in items:
        if type(item) is BlockPlacement:
            out.append(item)
            continue
        (x0, y0, z0), (x1, y1, z1) = item.top_left, item.bottom_right
        for x, y, z in product(range(x0, x1 + 1), range(y0, y1 + 1), range(z0, z1 + 1)):
            out.append(BlockPlacement(item.material, Position(x, y, z)))
    return out


@settings(max_examples=60, deadline=None)
@given(items=st.lists(block_items(), max_size=6), appended=st.lists(block_items(), max_size=3))
def test_blocks_read_as_the_list_of_their_placements(items, appended):
    blocks = BlockList(items)
    expected = placements_of(items)
    assert len(blocks) == len(expected)
    for index in range(-len(expected) - 1, len(expected) + 1):
        if -len(expected) <= index < len(expected):
            assert blocks[index] == expected[index]
        else:
            with pytest.raises(IndexError):
                blocks[index]
    for piece in (slice(None), slice(1, -1), slice(None, None, 2), slice(None, None, -3), slice(5, 2, -1)):
        assert blocks[piece] == expected[piece]
    assert blocks == expected and blocks == tuple(expected) and list(blocks) == expected
    assert Blocks(blocks.items) == blocks
    for item in appended:
        blocks.append(item)
        expected.extend(placements_of([item]))
        assert len(blocks) == len(expected) and blocks == expected


class TestRandomPos:
    def test_stays_inside_inset(self):
        room = make_room()
        rng = SeededRng(7)
        for _ in range(10_000):
            p = room.random_pos(rng, (1, 1, 1, 2, 1, 1))
            assert 2 <= p.x <= 5
            assert 4 <= p.y <= 5
            assert 2 <= p.z <= 5

    def test_pinned_margins_force_the_position(self):
        room = make_room()
        for seed in (0, 1, 99):
            p = room.random_pos(SeededRng(seed), (2, 3, 1, 3, 4, 1))
            assert p == Position(3, 4, 5)

    def test_same_seed_same_position(self):
        room = make_room()
        assert room.random_pos(SeededRng(5), (1, 1, 1, 2, 1, 1)) == room.random_pos(
            SeededRng(5), (1, 1, 1, 2, 1, 1)
        )


class TestAddChild:
    def test_group_expands_to_hull(self):
        house = BoundingVolume("house", volume_type="house")
        house.add_child(make_room("room_1"))
        house.add_child(make_room("room_2", (6, 3, 1), (11, 7, 6)))
        assert house.top_left == Position(1, 3, 1)
        assert house.bottom_right == Position(11, 7, 6)

    def test_identical_child_keeps_hull(self):
        house = BoundingVolume("house", volume_type="house")
        house.add_child(make_room("room_1"))
        house.add_child(make_room("room_1b", (1, 3, 1), (6, 7, 6)))
        assert (house.top_left, house.bottom_right) == (Position(1, 3, 1), Position(6, 7, 6))

    def test_duplicate_id_rejected(self):
        house = BoundingVolume("house", volume_type="house")
        house.add_child(make_room("room_1"))
        with pytest.raises(DuplicateIdError):
            house.add_child(make_room("room_1"))

    def test_fixed_parent_rejects_escaping_child(self):
        parent = make_room("parent", (0, 0, 0), (5, 5, 5), "stone")
        with pytest.raises(OutOfBoundsError):
            parent.add_child(make_room("child", (4, 0, 0), (7, 3, 3), "stone"))

    @pytest.mark.parametrize("tl, br", [
        ((-1, 1, 1), (4, 4, 4)), ((1, 1, 1), (6, 4, 4)),
        ((1, -1, 1), (4, 4, 4)), ((1, 1, 1), (4, 6, 4)),
        ((1, 1, -1), (4, 4, 4)), ((1, 1, 1), (4, 4, 6)),
    ], ids=["x-low", "x-high", "y-low", "y-high", "z-low", "z-high"])
    def test_fixed_parent_rejects_a_child_one_cell_past_each_face(self, tl, br):
        parent = make_room("parent", (0, 0, 0), (5, 5, 5), "stone")
        with pytest.raises(OutOfBoundsError) as exc:
            parent.add_child(make_room("child", tl, br, "stone"))
        assert str(exc.value) == f"child child {tl}..{br} exceeds parent parent"
        assert parent.children == []

    def test_fixed_parent_accepts_a_child_with_its_own_box(self):
        parent = make_room("parent", (0, 0, 0), (5, 5, 5), "stone")
        parent.add_child(make_room("child", (0, 0, 0), (5, 5, 5), "stone"))
        assert [c.id for c in parent.children] == ["child"]


class TestContainers:
    def test_corner_position_is_inside(self):
        room = make_room()
        room.add_entity(EntitySpec("z", "zombie", Position(1, 3, 1)))
        assert room.entities[0].position == Position(1, 3, 1)

    def test_out_of_bounds_entity_rejected(self):
        room = make_room()
        with pytest.raises(OutOfBoundsError):
            room.add_entity(EntitySpec("z", "zombie", Position(0, 3, 1)))

    def test_out_of_bounds_object_rejected(self):
        room = make_room()
        with pytest.raises(OutOfBoundsError):
            room.add_object(ObjectSpec("t", "treasure", BlockPlacement("gold_block", Position(7, 3, 1))))

    def test_unknown_equipment_slot_rejected(self):
        with pytest.raises(ValueError):
            EntitySpec("z", "zombie", Position(0, 0, 0), equipment={"hat": "iron"})

    def test_equipment_slots_accept_opaque_items(self):
        e = EntitySpec("z", "zombie", Position(0, 0, 0), equipment={"weapon": "anything_here"})
        assert e.equipment["weapon"] == "anything_here"

    # Each of these used to finalize and write a document its own reader rejects.
    @pytest.mark.parametrize("build", [
        lambda: BoundingVolume("r", "", "stone", Position(0, 0, 0), Position(1, 1, 1)),
        lambda: BoundingVolume("r", 5, "stone", Position(0, 0, 0), Position(1, 1, 1)),
        lambda: BoundingVolume("r", "room", 5, Position(0, 0, 0), Position(1, 1, 1)),
        lambda: BlockPlacement(5, Position(0, 0, 0)),
        lambda: EntitySpec("z", 5, Position(0, 0, 0)),
        lambda: EntitySpec("z", "zombie", Position(0, 0, 0), equipment={"weapon": ""}),
        lambda: EntitySpec("z", "zombie", Position(0, 0, 0), equipment={"weapon": 5}),
        lambda: WorldModel(""),
        lambda: WorldModel("w\ud800"),
        lambda: BoundingVolume("r", "room", "st\udc00one", Position(0, 0, 0), Position(1, 1, 1)),
        lambda: BlockPlacement("\udfff", Position(0, 0, 0)),
        lambda: EntitySpec("z", "zombie", Position(0, 0, 0), equipment={"weapon": "iron\ud83d"}),
    ], ids=["empty-volume-type", "int-volume-type", "int-volume-material", "int-block-material",
            "int-entity-type", "empty-equipment-item", "int-equipment-item", "empty-world-id",
            "surrogate-world-id", "surrogate-volume-material", "surrogate-block-material",
            "surrogate-equipment-item"])
    def test_names_must_be_nonempty_strings(self, build):
        with pytest.raises(ValueError, match="must be a nonempty str"):
            build()

    # A world-level spec at each of the first four used to finalize and write a
    # document its own reader rejects, or a block at the wrong cell.
    @pytest.mark.parametrize("build, error, message", [
        (lambda: EntitySpec("z", "zombie", (True, 0, 0)), TypeError, "x must be an int, got bool"),
        (lambda: EntitySpec("z", "zombie", (1.5, 0, 0)), TypeError, "x must be an int, got float"),
        (lambda: EntitySpec("z", "zombie", (0, 0, 2**70)), CoordinateOverflowError,
         "z=1180591620717411303424 outside signed 64-bit range"),
        (lambda: BlockPlacement("log", (1.5, 0, 0)), TypeError, "x must be an int, got float"),
        (lambda: ConnectionSpec("c", "door", ((0, 0, 0), (0, "1", 0)), ("a", "b")), TypeError,
         "y must be an int, got str"),
        (lambda: BoundingVolume("r", "room", "stone", (0, 0, 0), (1, 1, 2**63)), CoordinateOverflowError,
         "z=9223372036854775808 outside signed 64-bit range"),
    ], ids=["entity-bool-x", "entity-float-x", "entity-z-2**70", "block-float-x", "connection-str-y",
            "volume-z-2**63"])
    def test_a_point_not_given_as_a_position_gets_its_checks(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message

    def test_points_given_as_tuples_are_kept_as_positions(self):
        room = BoundingVolume("r", "room", "stone", (0, 0, 0), [2, 2, 2])
        conn = ConnectionSpec("c", "door", ((0, 0, 0), (0, 1, 0)), ("a", "b"))
        room.add_entity(EntitySpec("z", "zombie", (1, 1, 1)))
        room.add_block(BlockPlacement("log", (2, 2, 2)))
        points = [room.top_left, room.bottom_right, *conn.bounds, room.entities[0].position, room.blocks[0].position]
        assert points == [(0, 0, 0), (2, 2, 2), (0, 0, 0), (0, 1, 0), (1, 1, 1), (2, 2, 2)]
        assert all(type(p) is Position for p in points)

    def test_an_entity_tuple_outside_its_volume_is_out_of_bounds(self):
        room = make_room()
        with pytest.raises(OutOfBoundsError, match=r"^entity z at \(9, 4, 3\) outside volume room$"):
            room.add_entity(EntitySpec("z", "zombie", (9, 4, 3)))


class TestWorldModel:
    def test_dangling_connection_fails_at_finalize(self):
        world = WorldModel("w")
        world.add_volume(make_room("room_1"))
        world.add_connection(
            ConnectionSpec("c", "door", (Position(1, 3, 1), Position(1, 4, 1)), ("room_1", "room_9"))
        )
        with pytest.raises(DanglingConnectionError):
            world.finalize()

    def test_duplicate_id_across_trees(self):
        world = WorldModel("w")
        world.add_volume(make_room("room_1"))
        with pytest.raises(DuplicateIdError):
            world.add_volume(make_room("room_1", (20, 3, 20), (25, 7, 25)))

    def test_finalized_world_rejects_mutation(self):
        world = WorldModel("w")
        room = make_room("room_1")
        world.add_volume(room)
        world.finalize()
        with pytest.raises(FrozenWorldError):
            world.add_volume(make_room("room_2", (20, 3, 20), (25, 7, 25)))
        with pytest.raises(FrozenWorldError):
            room.add_entity(EntitySpec("z", "zombie", Position(3, 4, 3)))
        with pytest.raises(AttributeError):
            room.blocks.append(BlockPlacement("stone", Position(2, 4, 2)))
        with pytest.raises(AttributeError):
            world.volumes.append(make_room("room_2", (20, 3, 20), (25, 7, 25)))
        with pytest.raises(FrozenWorldError):
            world.add_block(BlockPlacement("stone", Position(2, 4, 2)))

    @pytest.mark.parametrize("outside", [[0], [12], [25], [12, 26]], ids=["first", "middle", "last", "two"])
    @pytest.mark.parametrize("kind", ["block", "entity", "object", "fill"])
    def test_finalize_names_the_first_item_outside_its_volume(self, kind, outside):
        # Items put in a volume's lists directly, not through add_*, are checked
        # at finalize. Of 25 items inside, the ones at the indexes in outside are
        # moved out; the message names the first of them. A fill takes 2 x 1 x 2
        # cells from its position, so one at (0, 4, 2) sticks out of the low x face.
        positions = [Position(x, 4, z) for x in range(1, 6) for z in range(1, 6)]
        for index, p in zip(outside, [Position(0, 4, 2), Position(3, 9, 3)]):
            positions.insert(index, p)
        room = make_room("room_1")
        for i, p in enumerate(positions):
            if kind == "block":
                room.blocks.append(BlockPlacement("stone", p))
            elif kind == "fill":
                room.blocks.append(BoxFill("stone", p, p.shifted(1, 0, 1)))
            elif kind == "entity":
                room.entities.append(EntitySpec(f"item{i}", "zombie", p))
            else:
                room.objects.append(ObjectSpec(f"item{i}", "chest", BlockPlacement("log", p)))
        world = WorldModel("w")
        world.add_volume(room)
        with pytest.raises(OutOfBoundsError) as exc:
            world.finalize()
        what = "block" if kind in ("block", "fill") else f"{kind} item{outside[0]}"
        assert str(exc.value) == f"{what} at (0, 4, 2) outside volume room_1"

    def test_finalizing_keeps_equality(self):
        def build():
            world = WorldModel("w")
            world.add_volume(make_room("room_1"))
            return world

        assert build().finalize() == build()

    def test_unit_volume_contains_exactly_one_point(self):
        v = make_room("dot", (2, 2, 2), (2, 2, 2), "stone")
        assert v.contains(Position(2, 2, 2))
        assert not v.contains(Position(2, 2, 3))

    @pytest.mark.parametrize("point, inside", [
        ((3, 5, 3), True),
        ((1, 5, 3), True), ((6, 5, 3), True), ((3, 3, 3), True),
        ((3, 7, 3), True), ((3, 5, 1), True), ((3, 5, 6), True),
        ((0, 5, 3), False), ((7, 5, 3), False), ((3, 2, 3), False),
        ((3, 8, 3), False), ((3, 5, 0), False), ((3, 5, 7), False),
    ])
    def test_contains_takes_a_plain_tuple_as_a_position(self, point, inside):
        room = make_room()  # (1, 3, 1)..(6, 7, 6)
        assert room.contains(point) is room.contains(Position(*point)) is inside


class TestIdRegistry:
    """Add-time duplicate checks read each receiver's id registry; finalize() is the full check."""

    def test_add_volume_rejects_a_nested_id_of_an_earlier_volume(self):
        house = BoundingVolume("house", volume_type="house")
        room = make_room("room_1")
        room.add_entity(EntitySpec("z", "zombie", Position(3, 4, 3)))
        house.add_child(room)
        world = WorldModel("w")
        world.add_volume(house)
        with pytest.raises(DuplicateIdError, match="room_1"):
            world.add_volume(make_room("room_1", (20, 3, 20), (25, 7, 25)))
        other = make_room("room_2", (20, 3, 20), (25, 7, 25))
        other.add_entity(EntitySpec("z", "zombie", Position(21, 4, 21)))
        with pytest.raises(DuplicateIdError, match="'z'"):
            world.add_volume(other)

    @pytest.mark.parametrize("add", [
        lambda world: world.add_entity(EntitySpec("x", "zombie", Position(-5, 0, 0))),
        lambda world: world.add_object(ObjectSpec("x", "treasure", BlockPlacement("gold_block", Position(-5, 0, 0)))),
        lambda world: world.add_connection(ConnectionSpec("x", "door", (Position(1, 3, 1), Position(1, 4, 1)),
                                                          ("room_1", "room_2"))),
    ], ids=["entity", "object", "connection"])
    def test_add_volume_rejects_a_world_level_item_id(self, add):
        world = WorldModel("w")
        world.add_volume(make_room("room_1"))
        add(world)
        with pytest.raises(DuplicateIdError, match="'x'"):
            world.add_volume(make_room("x", (20, 3, 20), (25, 7, 25)))

    def test_add_child_rejects_an_id_in_the_parents_subtree(self):
        house = BoundingVolume("house", volume_type="house")
        wing = BoundingVolume("wing", volume_type="wing")
        wing.add_child(make_room("room_1"))
        house.add_child(wing)
        house.add_entity(EntitySpec("cat", "ocelot", Position(2, 4, 2)))
        for taken in ("house", "room_1", "cat"):
            incoming = BoundingVolume("annex", volume_type="wing")
            incoming.add_child(make_room(taken, (6, 3, 1), (11, 7, 6)))
            with pytest.raises(DuplicateIdError, match=taken):
                house.add_child(incoming)
        assert [c.id for c in house.children] == ["wing"]
        assert (house.top_left, house.bottom_right) == (Position(1, 3, 1), Position(6, 7, 6))

    def test_an_id_added_below_a_joined_volume_is_caught_by_finalize(self):
        world = WorldModel("w")
        house = BoundingVolume("house", volume_type="house")
        world.add_volume(house)
        world.add_volume(make_room("room_1"))
        house.add_child(make_room("room_1", (20, 3, 20), (25, 7, 25)))  # not in the house's registry
        with pytest.raises(DuplicateIdError, match="duplicate volume id 'room_1'"):
            world.finalize()
