"""Core building blocks: positions, bounding volumes, and the world container.

Everything lives on the 3D integer lattice; one unit is one voxel edge. The
y axis is vertical. A bounding volume is an axis-aligned cuboid named by two
opposite corners: ``top_left`` is the corner with the lowest x, y and z,
``bottom_right`` the corner with the highest. Both corners are inclusive, so
a volume with equal corners contains exactly one lattice point.

Volumes nest: translating a volume translates its whole subtree (children,
blocks, entities, objects) in one move. Connections are the deliberate
exception: their stored bounds do not move with a translation, so builders
must create connections only after all volumes are in their final positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .errors import (
    CoordinateOverflowError,
    DanglingConnectionError,
    DuplicateIdError,
    EmptyBoxError,
    FrozenWorldError,
    OutOfBoundsError,
)
from .rng import SeededRng

# Coordinates are confined to the signed 64-bit lattice; leaving it is a hard
# error rather than silent wraparound.
COORD_MIN = -(2**63)
COORD_MAX = 2**63 - 1

BLANK = "blank"

EQUIPMENT_SLOTS = ("helmet", "chestplate", "leggings", "boots", "weapon")

# Margins are six per-face insets in the order
# (x_low, x_high, y_low, y_high, z_low, z_high).
Margins = tuple[int, int, int, int, int, int]
Delta = tuple[int, int, int]


def _check_coord(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not COORD_MIN <= value <= COORD_MAX:
        raise CoordinateOverflowError(f"{name}={value} outside signed 64-bit range")
    return value


@dataclass(frozen=True, order=True, slots=True)
class Position:
    """A point on the 3D integer lattice. Ordering is lexicographic (x, y, z)."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        _check_coord(self.x, "x")
        _check_coord(self.y, "y")
        _check_coord(self.z, "z")

    def shifted(self, dx: int, dy: int, dz: int) -> "Position":
        return Position(self.x + dx, self.y + dy, self.z + dz)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class BlockPlacement:
    """A single block: a material at an absolute world position."""

    material: str
    position: Position

    def __post_init__(self) -> None:
        if not self.material:
            raise ValueError("block material must be nonempty")


@dataclass(frozen=True)
class EntitySpec:
    """A mob to place: type, absolute position, optional equipment per slot."""

    id: str
    entity_type: str
    position: Position
    equipment: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be nonempty")
        if not self.entity_type:
            raise ValueError("entity type must be nonempty")
        if self.equipment:
            for slot in self.equipment:
                if slot not in EQUIPMENT_SLOTS:
                    raise ValueError(
                        f"unknown equipment slot {slot!r}; expected one of {EQUIPMENT_SLOTS}"
                    )


@dataclass(frozen=True)
class ObjectSpec:
    """A block with extra semantics (a treasure, a victim, ...)."""

    id: str
    object_type: str
    block: BlockPlacement

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("object id must be nonempty")
        if not self.object_type:
            raise ValueError("object type must be nonempty")


@dataclass(frozen=True)
class ConnectionSpec:
    """A spatial link between volumes.

    "door" and "opening" connections are point-like and carve passable air out
    of the rasterized grid; "corridor" connections are extended and leave the
    blocks alone. Bounds are absolute and are NOT updated by translations.
    """

    id: str
    connection_type: str
    bounds: tuple[Position, Position]
    connected_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("connection id must be nonempty")
        if not self.connection_type:
            raise ValueError("connection type must be nonempty")
        tl, br = self.bounds
        if not (tl.x <= br.x and tl.y <= br.y and tl.z <= br.z):
            raise ValueError(f"connection {self.id}: bounds corners out of order")
        ids = tuple(self.connected_ids)
        if len(ids) < 2:
            raise ValueError(f"connection {self.id}: needs at least 2 connected ids")
        object.__setattr__(self, "connected_ids", ids)


def _inset(top_left: Position, bottom_right: Position, margins: Margins) -> tuple[Position, Position]:
    """Shrink a box by per-face margins; raise EmptyBoxError if any axis empties."""
    if len(margins) != 6 or any(m < 0 for m in margins):
        raise ValueError(f"margins must be six non-negative integers, got {margins!r}")
    xl, xh, yl, yh, zl, zh = margins
    tl = Position(top_left.x + xl, top_left.y + yl, top_left.z + zl)
    br = Position(bottom_right.x - xh, bottom_right.y - yh, bottom_right.z - zh)
    if tl.x > br.x or tl.y > br.y or tl.z > br.z:
        raise EmptyBoxError(
            f"margins {margins} leave no cells inside "
            f"{top_left.as_tuple()}..{bottom_right.as_tuple()}"
        )
    return tl, br


class BoundingVolume:
    """A named, typed, material-bearing cuboid that may contain other things.

    Constructed with explicit corners it is a fixed box; constructed without
    them it is a "group" whose bounds auto-expand to the hull of its children
    (the way a house is just the hull of its rooms). Groups default to the
    "blank" material and therefore emit no blocks of their own.
    """

    def __init__(
        self,
        id: str,
        volume_type: str = "box",
        material: str = BLANK,
        top_left: Optional[Position] = None,
        bottom_right: Optional[Position] = None,
        has_roof: bool = False,
    ):
        if not id:
            raise ValueError("volume id must be nonempty")
        if not material:
            raise ValueError("volume material must be nonempty (use 'blank')")
        if (top_left is None) != (bottom_right is None):
            raise ValueError("give both corners or neither")
        self.id = id
        self.volume_type = volume_type
        self.material = material
        self.auto_expand = top_left is None
        if top_left is None or bottom_right is None:
            top_left = bottom_right = Position(0, 0, 0)
        if not (top_left.x <= bottom_right.x and top_left.y <= bottom_right.y and top_left.z <= bottom_right.z):
            raise ValueError(f"volume {id}: top_left must be <= bottom_right per axis")
        self.top_left = top_left
        self.bottom_right = bottom_right
        self.has_roof = has_roof
        self.children: list[BoundingVolume] = []
        self.blocks: list[BlockPlacement] = []
        self.entities: list[EntitySpec] = []
        self.objects: list[ObjectSpec] = []
        self.connections: list[ConnectionSpec] = []
        self._frozen = False

    # -- queries ----------------------------------------------------------

    def contains(self, p: Position) -> bool:
        return (
            self.top_left.x <= p.x <= self.bottom_right.x
            and self.top_left.y <= p.y <= self.bottom_right.y
            and self.top_left.z <= p.z <= self.bottom_right.z
        )

    def contains_box(self, top_left: Position, bottom_right: Position) -> bool:
        return self.contains(top_left) and self.contains(bottom_right)

    def walk(self) -> Iterator["BoundingVolume"]:
        """Depth-first, pre-order walk of this volume and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_ids(self) -> set[str]:
        ids: set[str] = set()
        for v in self.walk():
            ids.add(v.id)
            ids.update(e.id for e in v.entities)
            ids.update(o.id for o in v.objects)
            ids.update(c.id for c in v.connections)
        return ids

    # -- construction -----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenWorldError(f"volume {self.id} belongs to a finalized world")

    def add_child(self, child: "BoundingVolume") -> None:
        """Attach a child volume; group parents grow to the hull of their children."""
        self._check_mutable()
        overlap = self.subtree_ids() & child.subtree_ids()
        if overlap:
            raise DuplicateIdError(f"ids already present: {sorted(overlap)}")
        if self.auto_expand:
            if not self.children:
                self.top_left = child.top_left
                self.bottom_right = child.bottom_right
            else:
                self.top_left = Position(
                    min(self.top_left.x, child.top_left.x),
                    min(self.top_left.y, child.top_left.y),
                    min(self.top_left.z, child.top_left.z),
                )
                self.bottom_right = Position(
                    max(self.bottom_right.x, child.bottom_right.x),
                    max(self.bottom_right.y, child.bottom_right.y),
                    max(self.bottom_right.z, child.bottom_right.z),
                )
        elif not self.contains_box(child.top_left, child.bottom_right):
            raise OutOfBoundsError(
                f"child {child.id} {child.top_left.as_tuple()}..{child.bottom_right.as_tuple()} "
                f"exceeds parent {self.id}"
            )
        self.children.append(child)

    def add_block(self, block: BlockPlacement) -> None:
        self._check_mutable()
        if not self.contains(block.position):
            raise OutOfBoundsError(f"block at {block.position.as_tuple()} outside volume {self.id}")
        self.blocks.append(block)

    def add_entity(self, entity: EntitySpec) -> None:
        self._check_mutable()
        if not self.contains(entity.position):
            raise OutOfBoundsError(f"entity {entity.id} outside volume {self.id}")
        self.entities.append(entity)

    def add_object(self, obj: ObjectSpec) -> None:
        self._check_mutable()
        if not self.contains(obj.block.position):
            raise OutOfBoundsError(f"object {obj.id} outside volume {self.id}")
        self.objects.append(obj)

    def add_connection(self, conn: ConnectionSpec) -> None:
        # Referential integrity of connected_ids is checked at world finalize.
        self._check_mutable()
        self.connections.append(conn)

    def generate_box(self, material: str, margins: Margins) -> None:
        """Fill the inset box left by the margins with blocks of one material.

        Margins are per-face insets from this volume's corners, in the order
        (x_low, x_high, y_low, y_high, z_low, z_high). Blocks are appended in
        x, then y, then z order.
        """
        self._check_mutable()
        if not material:
            raise ValueError("material must be nonempty")
        tl, br = _inset(self.top_left, self.bottom_right, margins)
        for x in range(tl.x, br.x + 1):
            for y in range(tl.y, br.y + 1):
                for z in range(tl.z, br.z + 1):
                    self.blocks.append(BlockPlacement(material, Position(x, y, z)))

    def random_pos(self, rng: SeededRng, margins: Margins) -> Position:
        """Uniform position inside the inset box.

        Consumes exactly three draws from rng, one per axis in x, y, z order,
        so callers can rely on a fixed draw count for reproducibility.
        """
        tl, br = _inset(self.top_left, self.bottom_right, margins)
        x = rng.randint(tl.x, br.x)
        y = rng.randint(tl.y, br.y)
        z = rng.randint(tl.z, br.z)
        return Position(x, y, z)

    def shifted(self, delta: Delta) -> "BoundingVolume":
        """A copy of this subtree translated by delta.

        Children, blocks, entities and objects all move. Stored connections are
        copied unchanged: their bounds are not reliably updatable under
        translation, so they deliberately stay put.
        """
        dx, dy, dz = delta
        out = BoundingVolume(
            self.id,
            self.volume_type,
            self.material,
            self.top_left.shifted(dx, dy, dz),
            self.bottom_right.shifted(dx, dy, dz),
            self.has_roof,
        )
        out.auto_expand = self.auto_expand
        out.children = [c.shifted(delta) for c in self.children]
        out.blocks = [BlockPlacement(b.material, b.position.shifted(dx, dy, dz)) for b in self.blocks]
        out.entities = [
            EntitySpec(e.id, e.entity_type, e.position.shifted(dx, dy, dz), e.equipment)
            for e in self.entities
        ]
        out.objects = [
            ObjectSpec(o.id, o.object_type, BlockPlacement(o.block.material, o.block.position.shifted(dx, dy, dz)))
            for o in self.objects
        ]
        out.connections = list(self.connections)
        return out

    # -- plumbing ----------------------------------------------------------

    def _freeze(self) -> None:
        self._frozen = True
        self.children = tuple(self.children)
        self.blocks = tuple(self.blocks)
        self.entities = tuple(self.entities)
        self.objects = tuple(self.objects)
        self.connections = tuple(self.connections)
        for child in self.children:
            child._freeze()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundingVolume):
            return NotImplemented
        return (
            self.id == other.id
            and self.volume_type == other.volume_type
            and self.material == other.material
            and self.top_left == other.top_left
            and self.bottom_right == other.bottom_right
            and self.has_roof == other.has_roof
            and self.auto_expand == other.auto_expand
            # A finalized volume holds tuples where a mutable one holds lists.
            and tuple(self.children) == tuple(other.children)
            and tuple(self.blocks) == tuple(other.blocks)
            and tuple(self.entities) == tuple(other.entities)
            and tuple(self.objects) == tuple(other.objects)
            and tuple(self.connections) == tuple(other.connections)
        )

    def __repr__(self) -> str:
        return (
            f"BoundingVolume({self.id!r}, type={self.volume_type!r}, "
            f"{self.top_left.as_tuple()}..{self.bottom_right.as_tuple()}, "
            f"children={len(self.children)})"
        )


@dataclass
class WorldModel:
    """Root container: top-level volumes plus loose blocks/entities/objects.

    Construction is single-owner and not thread-safe; after ``finalize()`` the
    world is immutable and safe to share between readers: its containers and
    those of every volume are tuples.
    """

    id: str
    volumes: list[BoundingVolume] = field(default_factory=list)
    blocks: list[BlockPlacement] = field(default_factory=list)
    entities: list[EntitySpec] = field(default_factory=list)
    objects: list[ObjectSpec] = field(default_factory=list)
    connections: list[ConnectionSpec] = field(default_factory=list)
    finalized: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("world id must be nonempty")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldModel):
            return NotImplemented
        # A finalized world holds tuples where a mutable one holds lists.
        return (
            self.id == other.id
            and tuple(self.volumes) == tuple(other.volumes)
            and tuple(self.blocks) == tuple(other.blocks)
            and tuple(self.entities) == tuple(other.entities)
            and tuple(self.objects) == tuple(other.objects)
            and tuple(self.connections) == tuple(other.connections)
        )

    def _check_mutable(self) -> None:
        if self.finalized:
            raise FrozenWorldError(f"world {self.id} is finalized")

    def all_ids(self) -> set[str]:
        ids: set[str] = set()
        for v in self.volumes:
            ids |= v.subtree_ids()
        ids.update(e.id for e in self.entities)
        ids.update(o.id for o in self.objects)
        ids.update(c.id for c in self.connections)
        return ids

    def add_volume(self, volume: BoundingVolume) -> None:
        self._check_mutable()
        overlap = self.all_ids() & volume.subtree_ids()
        if overlap:
            raise DuplicateIdError(f"ids already present in world: {sorted(overlap)}")
        self.volumes.append(volume)

    def add_block(self, block: BlockPlacement) -> None:
        self._check_mutable()
        self.blocks.append(block)

    def add_entity(self, entity: EntitySpec) -> None:
        self._check_mutable()
        self.entities.append(entity)

    def add_object(self, obj: ObjectSpec) -> None:
        self._check_mutable()
        self.objects.append(obj)

    def add_connection(self, conn: ConnectionSpec) -> None:
        self._check_mutable()
        self.connections.append(conn)

    def walk_volumes(self) -> Iterator[BoundingVolume]:
        """All volumes at all depths, depth-first pre-order."""
        for v in self.volumes:
            yield from v.walk()

    def all_connections(self) -> Iterator[ConnectionSpec]:
        for v in self.walk_volumes():
            yield from v.connections
        yield from self.connections

    def finalize(self) -> "WorldModel":
        """Validate the world's invariants and freeze it; the one place they are enforced.

        Checks id uniqueness across volumes, entities, objects and connections
        at every depth, that each volume's blocks, object blocks and entities
        lie inside it, and that every connection's ids resolve to volumes.
        Then makes every container of the world and its volumes a tuple.
        Returns self for chaining.
        """
        if self.finalized:
            return self
        seen: set[str] = set()

        def claim(item_id: str, kind: str) -> None:
            if item_id in seen:
                raise DuplicateIdError(f"duplicate {kind} id {item_id!r}")
            seen.add(item_id)

        for v in self.walk_volumes():
            claim(v.id, "volume")
        volume_ids = set(seen)
        for v in self.walk_volumes():
            for block in v.blocks:
                if not v.contains(block.position):
                    raise OutOfBoundsError(f"block at {block.position.as_tuple()} outside volume {v.id}")
            for e in v.entities:
                claim(e.id, "entity")
                if not v.contains(e.position):
                    raise OutOfBoundsError(f"entity {e.id} at {e.position.as_tuple()} outside volume {v.id}")
            for o in v.objects:
                claim(o.id, "object")
                if not v.contains(o.block.position):
                    raise OutOfBoundsError(f"object {o.id} at {o.block.position.as_tuple()} outside volume {v.id}")
            for c in v.connections:
                claim(c.id, "connection")
        for e in self.entities:
            claim(e.id, "entity")
        for o in self.objects:
            claim(o.id, "object")
        for c in self.connections:
            claim(c.id, "connection")

        for conn in self.all_connections():
            for ref in conn.connected_ids:
                if ref not in volume_ids:
                    raise DanglingConnectionError(
                        f"connection {conn.id} references unknown volume {ref!r}"
                    )

        for v in self.volumes:
            v._freeze()
        self.volumes = tuple(self.volumes)
        self.blocks = tuple(self.blocks)
        self.entities = tuple(self.entities)
        self.objects = tuple(self.objects)
        self.connections = tuple(self.connections)
        self.finalized = True
        return self
