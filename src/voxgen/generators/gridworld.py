"""N x N gridworld: identical rooms sharing walls, doors between neighbors.

The whole layout is a function of the single size parameter; there is no
randomness. Room (row, col) is named ``room_<row>_<col>``. Neighboring rooms
share a wall plane, and every adjacent pair gets a "door" connection that
carves a 2x2 opening in the shared wall, so an n x n world has n*n room
locations and 2*n*(n-1) connections.
"""

from __future__ import annotations

from ..errors import ParameterError
from ..geometry import BoundingVolume, ConnectionSpec, Position, WorldModel

GROUND_Y = 3
ROOM_SIDE = 6
ROOM_HEIGHT = 5
ROOM_STRIDE = ROOM_SIDE - 1  # adjacent rooms share a wall
ROOM_MATERIAL = "stone"


def _room_origin(row: int, col: int) -> tuple[int, int]:
    return 1 + ROOM_STRIDE * col, 1 + ROOM_STRIDE * row


def gen_gridworld(n: int) -> WorldModel:
    """Build the n x n gridworld; n must be an int (not a bool) of at least 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"gridworld size must be >= 1, got {n}")
    world = WorldModel(f"gridworld_n{n}")
    # Doors sit centered on each shared wall, 2 wide and 2 high, one block
    # above the ground layer.
    y_lo, y_hi = GROUND_Y + 1, GROUND_Y + 2
    for row in range(n):
        for col in range(n):
            x0, z0 = _room_origin(row, col)
            here = f"room_{row}_{col}"
            room = BoundingVolume(
                here,
                volume_type="room",
                material=ROOM_MATERIAL,
                top_left=Position(x0, GROUND_Y, z0),
                bottom_right=Position(
                    x0 + ROOM_SIDE - 1, GROUND_Y + ROOM_HEIGHT - 1, z0 + ROOM_SIDE - 1
                ),
            )
            world.add_volume(room)
            # This room's doors to its east and south neighbours, in that order.
            wall_x, wall_z = x0 + ROOM_SIDE - 1, z0 + ROOM_SIDE - 1
            doors = []
            if col + 1 < n:
                doors.append((f"room_{row}_{col + 1}", (Position(wall_x, y_lo, z0 + 2), Position(wall_x, y_hi, z0 + 3))))
            if row + 1 < n:
                doors.append((f"room_{row + 1}_{col}", (Position(x0 + 2, y_lo, wall_z), Position(x0 + 3, y_hi, wall_z))))
            for there, bounds in doors:
                world.add_connection(
                    ConnectionSpec(
                        id=f"door_{here}__{there}",
                        connection_type="door",
                        bounds=bounds,
                        connected_ids=(here, there),
                    )
                )
    return world.finalize()
