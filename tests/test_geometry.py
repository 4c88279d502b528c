"""Core geometry: positions, volumes, translation, margins, the world."""

import random

import pytest

from voxgen.errors import (
    CoordinateOverflowError,
    DanglingConnectionError,
    DuplicateIdError,
    EmptyBoxError,
    FrozenWorldError,
    OutOfBoundsError,
)
from voxgen.geometry import (
    BlockPlacement,
    BoundingVolume,
    ConnectionSpec,
    EntitySpec,
    ObjectSpec,
    Position,
    WorldModel,
    _lattice_point,
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

    def test_an_unchecked_lattice_point_is_a_position(self):
        p = _lattice_point(-(2**63), 0, 2**63 - 1)
        assert type(p) is Position
        assert p == Position(-(2**63), 0, 2**63 - 1) and hash(p) == hash(Position(-(2**63), 0, 2**63 - 1))
        assert p < Position(-(2**63), 1, 0)
        with pytest.raises(AttributeError):
            p.x = 1

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
    @pytest.mark.parametrize("kind", ["block", "entity", "object"])
    def test_finalize_names_the_first_item_outside_its_volume(self, kind, outside):
        # Items put in a volume's lists directly, not through add_*, are checked
        # at finalize. Of 25 items inside, the ones at the indexes in outside are
        # moved out; the message names the first of them.
        positions = [Position(x, 4, z) for x in range(1, 6) for z in range(1, 6)]
        for index, p in zip(outside, [Position(0, 4, 2), Position(3, 9, 3)]):
            positions.insert(index, p)
        room = make_room("room_1")
        for i, p in enumerate(positions):
            if kind == "block":
                room.blocks.append(BlockPlacement("stone", p))
            elif kind == "entity":
                room.entities.append(EntitySpec(f"item{i}", "zombie", p))
            else:
                room.objects.append(ObjectSpec(f"item{i}", "chest", BlockPlacement("log", p)))
        world = WorldModel("w")
        world.add_volume(room)
        with pytest.raises(OutOfBoundsError) as exc:
            world.finalize()
        what = "block" if kind == "block" else f"{kind} item{outside[0]}"
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
