"""ZombieWorld: a walled yard holding buildings, hazard pits, and mobs.

A 3x3 grid of 12-voxel plots sits inside one enclosing boundary volume.
The four corner plots hold buildings: two plank rooms sharing a wall, an
internal carved door between them, a zombie in the first room and a villager
in the second. The five remaining plots are pit candidates; each resolves
independently to a lava pool, a water pool, or nothing, with equal
probability. Two internal walls partition the yard.

RNG draw order for a given seed: buildings in row-major plot order (zombie
position then villager position, three draws each via random_pos), then pit
plots in row-major order (one draw each, 0 = lava, 1 = water, 2 = skip).
"""

from __future__ import annotations

from ..geometry import (
    BoundingVolume,
    ConnectionSpec,
    EntitySpec,
    Position,
    WorldModel,
)
from ..rng import SeededRng, check_seed

GROUND_Y = 3
PLOT_SIDE = 12
ROOM_SIDE = 6
ROOM_HEIGHT = 5

BUILDING_PLOTS = ((0, 0), (0, 2), (2, 0), (2, 2))
PIT_PLOTS = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
PIT_OUTCOMES = ("lava", "water", None)

BOUNDARY_MATERIAL = "cobblestone"
ROOM_MATERIAL = "planks"
WALL_MATERIAL = "cobblestone"


def _plot_origin(row: int, col: int) -> tuple[int, int]:
    return 1 + PLOT_SIDE * col, 1 + PLOT_SIDE * row


def _build_building(row: int, col: int, rng: SeededRng) -> BoundingVolume:
    x0, z0 = _plot_origin(row, col)
    building_id = f"building_{row}_{col}"
    building = BoundingVolume(building_id, volume_type="building")

    rooms = []
    for i in range(2):
        room = BoundingVolume(
            f"{building_id}_room_{i + 1}",
            volume_type="room",
            material=ROOM_MATERIAL,
            top_left=Position(x0 + i * (ROOM_SIDE - 1), GROUND_Y, z0),
            bottom_right=Position(
                x0 + i * (ROOM_SIDE - 1) + ROOM_SIDE - 1,
                GROUND_Y + ROOM_HEIGHT - 1,
                z0 + ROOM_SIDE - 1,
            ),
        )
        rooms.append(room)

    margins = (1, 1, 1, 2, 1, 1)
    rooms[0].add_entity(EntitySpec(f"{building_id}_zombie", "zombie", rooms[0].random_pos(rng, margins)))
    rooms[1].add_entity(EntitySpec(f"{building_id}_villager", "villager", rooms[1].random_pos(rng, margins)))

    for room in rooms:
        building.add_child(room)

    shared_x = x0 + ROOM_SIDE - 1
    building.add_connection(
        ConnectionSpec(
            id=f"{building_id}_door",
            connection_type="door",
            bounds=(
                Position(shared_x, GROUND_Y + 1, z0 + 2),
                Position(shared_x, GROUND_Y + 2, z0 + 3),
            ),
            connected_ids=(rooms[0].id, rooms[1].id),
        )
    )
    return building


def gen_zombieworld(seed: int) -> WorldModel:
    """Build the zombie world for the given seed, an int in [0, 2**64); ParameterError otherwise."""
    rng = SeededRng(check_seed(seed))
    yard_max = 3 * PLOT_SIDE + 1
    boundary = BoundingVolume(
        "boundary",
        volume_type="boundary",
        material=BOUNDARY_MATERIAL,
        top_left=Position(0, GROUND_Y, 0),
        bottom_right=Position(yard_max, GROUND_Y + ROOM_HEIGHT, yard_max),
    )

    for row, col in BUILDING_PLOTS:
        boundary.add_child(_build_building(row, col, rng))

    for row, col in PIT_PLOTS:
        outcome = PIT_OUTCOMES[rng.randint(0, 2)]
        if outcome is None:
            continue
        x0, z0 = _plot_origin(row, col)
        pit = BoundingVolume(
            f"pit_{row}_{col}",
            volume_type="pit",
            material=outcome,
            top_left=Position(x0 + 2, GROUND_Y, z0 + 2),
            bottom_right=Position(x0 + 9, GROUND_Y, z0 + 9),
        )
        pit.generate_box(outcome, (0, 0, 0, 0, 0, 0))
        boundary.add_child(pit)

    # Two partial partition walls inside the yard.
    walls = (
        ("wall_1", Position(13, GROUND_Y, 1), Position(13, GROUND_Y + ROOM_HEIGHT - 1, 12)),
        ("wall_2", Position(24, GROUND_Y, 25), Position(24, GROUND_Y + ROOM_HEIGHT - 1, 36)),
    )
    for wall_id, tl, br in walls:
        boundary.add_child(
            BoundingVolume(wall_id, volume_type="wall", material=WALL_MATERIAL, top_left=tl, bottom_right=br)
        )

    world = WorldModel(f"zombieworld_s{seed}")
    world.add_volume(boundary)
    return world.finalize()
