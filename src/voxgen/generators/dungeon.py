"""Seeded dungeon: rooms scattered on a grid, linked by stone-brick corridors.

Build steps, with the exact RNG draw order (one stream, seeded once):

1. Occupancy. Visit the n*n cells in row-major order; each becomes a room
   with probability ``room_probability`` (one ``random()`` draw per cell).
   If fewer than 2 cells come up occupied the whole grid is re-rolled, up to
   ``MAX_GRID_RETRIES`` times, after which RetryExhaustedError is raised.
2. Rooms. For each occupied cell in row-major order: one draw picks the room
   kind (0 = stone brick, 1 = nether brick); then the treasure count and a
   position per treasure (3 draws each, via random_pos); then the monster
   count and positions; then the decoration count and positions (spiderwebs
   on stone walls: face draw plus two coordinate draws each; 2x2 lava floor
   patches in nether rooms: two corner draws each). Contents are placed as
   each room is built, before any corridor exists.
3. Corridors. Occupied cells are visited row-major; each connects to the
   nearest already-connected cell (Manhattan distance on the grid, first-come
   tie-break) with an L-shaped corridor, 3 wide and 3 high: a leg along the
   new room's column to the target's row, then a leg along the target's row.
   Legs are volumes in their own right; each link also registers an extended
   "corridor" connection naming both rooms. No draws.

Stone rooms hold diamond-block treasures and wither skeletons; nether rooms
hold gold-block treasures, blazes, and lava patches eating into their floor.
"""

from __future__ import annotations

from ..errors import ParameterError, RetryExhaustedError
from ..geometry import (
    BlockPlacement,
    BoundingVolume,
    ConnectionSpec,
    EntitySpec,
    ObjectSpec,
    Position,
    WorldModel,
    _checked_tuple,
)
from ..rng import SeededRng, check_seed

GROUND_Y = 3
ROOM_HEIGHT = 5
MAX_GRID_RETRIES = 100

STONE_MATERIAL = "stone_bricks"
NETHER_MATERIAL = "nether_bricks"
STONE_TREASURE = "diamond_block"
NETHER_TREASURE = "gold_block"
STONE_MONSTER = "wither_skeleton"
NETHER_MONSTER = "blaze"


_PARAM_FIELDS = (
    "n seed cell_footprint room_probability treasure_range monster_range lava_patch_range spiderweb_range"
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class DungeonParams(_checked_tuple("DungeonParams", _PARAM_FIELDS)):
    """Knobs for gen_dungeon. Ranges are inclusive (low, high) pairs."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        seed: int = 0,
        cell_footprint: int = 10,
        room_probability: float = 0.5,
        treasure_range: tuple[int, int] = (1, 3),
        monster_range: tuple[int, int] = (1, 2),
        lava_patch_range: tuple[int, int] = (1, 3),
        spiderweb_range: tuple[int, int] = (0, 4),
    ) -> "DungeonParams":
        if not _is_int(n):
            raise ParameterError(f"n must be an int, got {n!r}")
        if n < 2:
            raise ParameterError(f"grid dimension must be >= 2, got {n}")
        check_seed(seed)
        if not _is_int(cell_footprint):
            raise ParameterError(f"cell_footprint must be an int, got {cell_footprint!r}")
        # Rooms span cell_footprint - 2 voxels; anything narrower cannot fit
        # a 3-wide corridor mouth plus interior content positions.
        if cell_footprint < 7:
            raise ParameterError(f"cell_footprint must be >= 7, got {cell_footprint}")
        if not isinstance(room_probability, (int, float)) or isinstance(room_probability, bool):
            raise ParameterError(f"room_probability must be an int or float, got {room_probability!r}")
        if not 0 < room_probability <= 1:
            raise ParameterError(f"room_probability must be in (0, 1], got {room_probability}")
        ranges = {"treasure_range": treasure_range, "monster_range": monster_range,
                  "lava_patch_range": lava_patch_range, "spiderweb_range": spiderweb_range}
        for name, pair in ranges.items():
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_int, pair))):
                raise ParameterError(f"{name} must be a pair of ints, got {pair!r}")
            low, high = pair
            if low < 0 or low > high:
                raise ParameterError(f"{name} must satisfy 0 <= low <= high, got ({low}, {high})")
        return tuple.__new__(cls, (n, seed, cell_footprint, room_probability, *ranges.values()))


def _roll_occupancy(p: DungeonParams, rng: SeededRng) -> list[tuple[int, int]]:
    for _ in range(MAX_GRID_RETRIES):
        occupied = [
            (row, col)
            for row in range(p.n)
            for col in range(p.n)
            if rng.random() < p.room_probability
        ]
        if len(occupied) >= 2:
            return occupied
    raise RetryExhaustedError(
        f"no layout with >= 2 rooms after {MAX_GRID_RETRIES} grid rolls "
        f"(n={p.n}, room_probability={p.room_probability})"
    )


def _build_room(p: DungeonParams, rng: SeededRng, row: int, col: int) -> BoundingVolume:
    f = p.cell_footprint
    x0, z0 = col * f + 1, row * f + 1
    room_id = f"room_{row}_{col}"
    is_nether = rng.randint(0, 1) == 1
    material = NETHER_MATERIAL if is_nether else STONE_MATERIAL
    room = BoundingVolume(
        room_id,
        volume_type="room",
        material=material,
        top_left=Position(x0, GROUND_Y, z0),
        bottom_right=Position(x0 + f - 3, GROUND_Y + ROOM_HEIGHT - 1, z0 + f - 3),
    )
    # Interior floor at ground level; lava patches overwrite it later.
    room.generate_box(material, (1, 1, 0, ROOM_HEIGHT - 1, 1, 1))

    # Content stands on the floor: y pinned one above ground.
    content_margins = (1, 1, 1, ROOM_HEIGHT - 2, 1, 1)
    treasure_material = NETHER_TREASURE if is_nether else STONE_TREASURE
    for i in range(rng.randint(*p.treasure_range)):
        pos = room.random_pos(rng, content_margins)
        room.add_object(
            ObjectSpec(f"{room_id}_treasure_{i}", "treasure", BlockPlacement(treasure_material, pos))
        )
    monster_type = NETHER_MONSTER if is_nether else STONE_MONSTER
    for i in range(rng.randint(*p.monster_range)):
        pos = room.random_pos(rng, content_margins)
        room.add_entity(EntitySpec(f"{room_id}_monster_{i}", monster_type, pos))

    tl, br = room.top_left, room.bottom_right
    if is_nether:
        for _ in range(rng.randint(*p.lava_patch_range)):
            px = rng.randint(tl.x + 1, br.x - 2)
            pz = rng.randint(tl.z + 1, br.z - 2)
            for x in (px, px + 1):
                for z in (pz, pz + 1):
                    room.add_block(BlockPlacement("lava", Position(x, tl.y, z)))
    else:
        for _ in range(rng.randint(*p.spiderweb_range)):
            face = rng.randint(0, 3)
            if face < 2:  # x-facing wall
                wx = tl.x if face == 0 else br.x
                wz = rng.randint(tl.z + 1, br.z - 1)
            else:  # z-facing wall
                wx = rng.randint(tl.x + 1, br.x - 1)
                wz = tl.z if face == 2 else br.z
            wy = rng.randint(tl.y + 1, br.y - 1)
            room.add_block(BlockPlacement("web", Position(wx, wy, wz)))
    return room


def _cell_center(p: DungeonParams, cell: tuple[int, int]) -> tuple[int, int]:
    f = p.cell_footprint
    row, col = cell
    return col * f + f // 2, row * f + f // 2


def _corridor_legs(
    p: DungeonParams, index: int, a: BoundingVolume, b: BoundingVolume,
    a_cell: tuple[int, int], b_cell: tuple[int, int],
) -> list[BoundingVolume]:
    """Corridor volumes from new room a toward connected room b.

    The leg along a's column runs first, to b's row, then a leg along b's row
    reaches b. Legs stop at the facing room walls. With row-major processing
    and nearest-connected targets, every grid cell this path crosses is
    row-major-earlier and strictly closer to a than b is, hence unoccupied,
    so corridors never cut through other rooms.
    """
    ax, az = _cell_center(p, a_cell)
    bx, bz = _cell_center(p, b_cell)
    y_lo, y_hi = GROUND_Y, GROUND_Y + 2
    legs = []

    def leg(leg_id: str, x1: int, x2: int, z1: int, z2: int) -> BoundingVolume:
        return BoundingVolume(
            leg_id,
            volume_type="corridor",
            material=STONE_MATERIAL,
            top_left=Position(min(x1, x2), y_lo, min(z1, z2)),
            bottom_right=Position(max(x1, x2), y_hi, max(z1, z2)),
        )

    if az != bz:
        z_start = a.bottom_right.z if bz > az else a.top_left.z
        if ax == bx:
            z_end = b.top_left.z if bz > az else b.bottom_right.z
        else:
            z_end = bz + 1 if bz > az else bz - 1  # cover the corner
        legs.append(leg(f"corridor_{index}_z", ax - 1, ax + 1, z_start, z_end))
    if ax != bx:
        if az == bz:
            x_start = a.bottom_right.x if bx > ax else a.top_left.x
        else:
            x_start = ax + 2 if bx > ax else ax - 2  # resume past the corner
        x_end = b.top_left.x if bx > ax else b.bottom_right.x
        legs.append(leg(f"corridor_{index}_x", x_start, x_end, bz - 1, bz + 1))
    return legs


def gen_dungeon(p: DungeonParams) -> WorldModel:
    """Build a dungeon world from the given parameters."""
    rng = SeededRng(p.seed)
    occupied = _roll_occupancy(p, rng)

    world = WorldModel(f"dungeon_n{p.n}_s{p.seed}")
    rooms: dict[tuple[int, int], BoundingVolume] = {}
    for row, col in occupied:
        room = _build_room(p, rng, row, col)
        rooms[(row, col)] = room
        world.add_volume(room)

    connected = [occupied[0]]
    for cell in occupied[1:]:
        nearest = min(
            connected,
            key=lambda c: abs(c[0] - cell[0]) + abs(c[1] - cell[1]),
        )
        index = len(connected) - 1
        legs = _corridor_legs(p, index, rooms[cell], rooms[nearest], cell, nearest)
        # A corridor has one or two legs; zip(*...) groups their corners by axis either way.
        hull_tl = Position(*map(min, zip(*(leg.top_left for leg in legs))))
        hull_br = Position(*map(max, zip(*(leg.bottom_right for leg in legs))))
        for volume in legs:
            world.add_volume(volume)
        world.add_connection(
            ConnectionSpec(
                id=f"corridor_{index}",
                connection_type="corridor",
                bounds=(hull_tl, hull_br),
                connected_ids=(rooms[cell].id, rooms[nearest].id),
            )
        )
        connected.append(cell)
    return world.finalize()
