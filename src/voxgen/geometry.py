"""Core building blocks: positions, bounding volumes, and the world container.

Everything lives on the 3D integer lattice; one unit is one voxel edge. The
y axis is vertical. A bounding volume is an axis-aligned cuboid named by two
opposite corners: ``top_left`` is the corner with the lowest x, y and z,
``bottom_right`` the corner with the highest. Both corners are inclusive, so
a volume with equal corners contains exactly one lattice point. A point is a
``Position``, the tuple ``(x, y, z)`` with named fields: it hashes, compares
and sorts as that tuple does, in C, so it finds the same cell as the plain
tuple, the cell key from the raster's grid to the block map's rows.
``Position(...)`` is the one way to build a point, and it checks every
coordinate; no Position is built without those checks. A spec or volume
given a point as anything but a Position (a plain tuple, say) keeps
``Position(*point)`` instead, so every point a world holds has passed them.
``_box_cells`` gives a box's cells in bulk as plain tuples, not Positions.

Position and every spec are checked tuples (``_checked_tuple``): a
namedtuple with ``__slots__ = ()`` whose ``__new__`` checks its fields one
at a time, to name the first bad one. Position and BlockPlacement, built per
cell, first test the usual values in one expression; a world builds only a
few hundred other specs. ``_make`` and ``_replace`` go through ``__new__``.
A spec equals, hashes, sorts and unpacks as the tuple of its fields, and
assigning a field raises AttributeError.

A holder's explicit blocks are one ordered ``Blocks`` sequence of
placements and box fills. ``generate_box`` records one ``BoxFill`` (a
material and two corners), not a ``BlockPlacement`` per cell: the sequence
still reads as, and counts, the placements a fill stands for, but only the
raster builds its cells. Checks and translations take a fill by its corners.

Volumes nest: translating a volume translates its whole subtree (children,
blocks, entities, objects) in one move. Connections are the deliberate
exception: their stored bounds do not move with a translation, so builders
must create connections only after all volumes are in their final positions.

Ids are checked twice. ``WorldModel.add_volume`` and
``BoundingVolume.add_child`` raise DuplicateIdError at once when the incoming
subtree reuses an id the receiver has registered. Each holder keeps an id
registry that grows as things are added to it: its own id, the ids of the
entities, objects and connections added to it, and every child subtree's ids
as they were when that child joined. Each call therefore costs the size of
the incoming subtree, not of the whole tree, and building a world is linear.
An id that enters a subtree after that subtree has joined its parent is not
in the parent's registry; ``WorldModel.finalize()`` walks the whole world
and is the one full check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product, repeat
from operator import eq
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def _is_utf8(text: str) -> bool:
    """False for a string UTF-8 cannot encode: one with a lone surrogate, which a JSON \\u escape can spell."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_name(value: object, what: str, error: type[Exception] = ValueError) -> None:
    """Ids, types, materials and equipment items are nonempty strings UTF-8 can encode, as the readers require."""
    if not isinstance(value, str) or not value or not (value.isascii() or _is_utf8(value)):
        raise error(f"{what} must be a nonempty str that UTF-8 can encode, got {value!r}")


def _checked_tuple(name: str, fields: str) -> type:
    """The namedtuple base of a checked tuple: a record whose subclass checks its fields in ``__new__``.

    namedtuple's own ``_make``, and so ``_replace``, would build the tuple
    without calling ``__new__``; here both go through it.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Position(_checked_tuple("Position", "x y z")):
    """A point on the 3D integer lattice: the tuple (x, y, z) with named fields.

    Hashing, equality and ordering are the tuple's, so a Position is equal to
    the plain tuple with the same coordinates, hashes like it, and orders
    lexicographically by (x, y, z). Each coordinate is an int (not a bool) on
    the signed 64-bit lattice.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int) -> "Position":
        if (type(x) is type(y) is type(z) is int
                and COORD_MIN <= x <= COORD_MAX and COORD_MIN <= y <= COORD_MAX and COORD_MIN <= z <= COORD_MAX):
            return tuple.__new__(cls, (x, y, z))
        # Only a bad coordinate or an int subclass gets here: check axis by axis to name the first bad one.
        return tuple.__new__(cls, (_check_coord(x, "x"), _check_coord(y, "y"), _check_coord(z, "z")))

    def shifted(self, dx: int, dy: int, dz: int) -> "Position":
        x, y, z = self
        return Position(x + dx, y + dy, z + dz)

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


def _box_cells(top_left: Sequence[int], bottom_right: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The plain (x, y, z) tuple of every cell from corner to corner, both inclusive, in x, then y, then z order.

    The tuples are built in C, in bulk, and are not Positions: a cell key
    needs no names, and a plain tuple equals and hashes like the Position of
    the same cell. Corners out of order on some axis give no cells. The one
    walk over a box: the raster writes shells, roofs and box fills and carves
    doors with it, a BoxFill's placements turn its tuples into checked
    Positions, and ``finalize()`` tests them as they are to name a box fill's
    first cell outside its volume.
    """
    (x0, y0, z0), (x1, y1, z1) = top_left, bottom_right
    return product(range(x0, x1 + 1), range(y0, y1 + 1), range(z0, z1 + 1))


def _as_position(point: Sequence[int]) -> Position:
    """point itself if it is a Position, else Position(*point), which checks it."""
    return point if type(point) is Position else Position(*point)


def _corners_in_order(top_left: Position, bottom_right: Position) -> bool:
    """Whether top_left <= bottom_right on each axis, as a box's two corners must be."""
    return top_left.x <= bottom_right.x and top_left.y <= bottom_right.y and top_left.z <= bottom_right.z


class BlockPlacement(_checked_tuple("BlockPlacement", "material position")):
    """A single block: a material at an absolute world position."""

    __slots__ = ()

    size = 1  # cells, as for a BoxFill

    def __new__(cls, material: str, position: Position) -> "BlockPlacement":
        if not (type(material) is str and material and material.isascii()):
            _check_name(material, "block material")
        # _as_position's test, inline: iterating a box fill builds one placement per cell.
        return tuple.__new__(cls, (material, position if type(position) is Position else Position(*position)))

    def shifted(self, dx: int, dy: int, dz: int) -> "BlockPlacement":
        return BlockPlacement(self.material, self.position.shifted(dx, dy, dz))


class BoxFill(_checked_tuple("BoxFill", "material top_left bottom_right")):
    """One material in every cell of a box, corner to corner, both inclusive: what generate_box records.

    It stands for the BlockPlacement of each of its cells, in x, then y, then
    z order (_box_cells); ``size`` is their number.
    """

    __slots__ = ()

    def __new__(cls, material: str, top_left: Position, bottom_right: Position) -> "BoxFill":
        _check_name(material, "block material")
        tl, br = _as_position(top_left), _as_position(bottom_right)
        if not _corners_in_order(tl, br):
            raise ValueError(f"box fill corners out of order: {tl.as_tuple()}..{br.as_tuple()}")
        return tuple.__new__(cls, (material, tl, br))

    @property
    def size(self) -> int:
        (x0, y0, z0), (x1, y1, z1) = self.top_left, self.bottom_right
        return (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1)

    def placements(self) -> Iterator[BlockPlacement]:
        return map(BlockPlacement, repeat(self.material), _box_cells(self.top_left, self.bottom_right))

    def shifted(self, dx: int, dy: int, dz: int) -> "BoxFill":
        return BoxFill(self.material, self.top_left.shifted(dx, dy, dz), self.bottom_right.shifted(dx, dy, dz))


def _block_item(item: "BlockPlacement | BoxFill") -> "BlockPlacement | BoxFill":
    """item itself; TypeError unless it is one of the two things a Blocks holds."""
    if type(item) not in (BlockPlacement, BoxFill):
        raise TypeError(f"block must be a BlockPlacement or a BoxFill, got {type(item).__name__}")
    return item


class Blocks:
    """A holder's explicit blocks: placements and box fills, in insertion order.

    It reads as the BlockPlacements it stands for: iterating, indexing and
    comparing give each placement, and each box fill's cells in x, y, z order,
    in insertion order; ``len()`` is their number, the sum of the items'
    sizes. ``items`` are the placements and box fills as recorded. A finalized
    holder keeps a Blocks; a mutable one keeps a BlockList, which can append.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable["BlockPlacement | BoxFill"] = ()) -> None:
        self._items = list(map(_block_item, items))

    @property
    def items(self) -> tuple["BlockPlacement | BoxFill", ...]:
        return tuple(self._items)

    def __len__(self) -> int:
        return sum(item.size for item in self._items)

    def __iter__(self) -> Iterator[BlockPlacement]:
        return chain.from_iterable(
            item.placements() if type(item) is BoxFill else (item,) for item in self._items
        )

    def __getitem__(self, index: int | slice) -> "BlockPlacement | list[BlockPlacement]":
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Blocks) and self._items == other._items:
            return True
        if not isinstance(other, (Blocks, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"


class BlockList(Blocks):
    """The Blocks of a holder that is not finalized yet: it can still append."""

    __slots__ = ()

    def append(self, item: "BlockPlacement | BoxFill") -> None:
        self._items.append(_block_item(item))


class EntitySpec(_checked_tuple("EntitySpec", "id entity_type position equipment")):
    """A mob to place: type, absolute position, optional equipment per slot.

    The equipment is kept as a read-only copy, so changing the caller's
    mapping afterwards changes neither the entity nor a finalized world.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, entity_type: str, position: Position, equipment: Optional[Mapping[str, str]] = None
    ) -> "EntitySpec":
        _check_name(id, "entity id")
        _check_name(entity_type, "entity type")
        position = _as_position(position)
        if equipment is not None:
            equipment = MappingProxyType(dict(equipment))
            for slot, item in equipment.items():
                if slot not in EQUIPMENT_SLOTS:
                    raise ValueError(f"unknown equipment slot {slot!r}; expected one of {EQUIPMENT_SLOTS}")
                _check_name(item, f"entity {id} {slot} item")
        return tuple.__new__(cls, (id, entity_type, position, equipment))


class ObjectSpec(_checked_tuple("ObjectSpec", "id object_type block")):
    """A block with extra semantics (a treasure, a victim, ...)."""

    __slots__ = ()

    def __new__(cls, id: str, object_type: str, block: BlockPlacement) -> "ObjectSpec":
        _check_name(id, "object id")
        _check_name(object_type, "object type")
        if type(block) is not BlockPlacement:
            raise TypeError(f"object {id}: block must be a BlockPlacement, got {type(block).__name__}")
        return tuple.__new__(cls, (id, object_type, block))


class ConnectionSpec(_checked_tuple("ConnectionSpec", "id connection_type bounds connected_ids")):
    """A spatial link between volumes.

    "door" and "opening" connections are point-like and carve passable air out
    of the rasterized grid; "corridor" connections are extended and leave the
    blocks alone. Bounds are absolute and are NOT updated by translations.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, connection_type: str, bounds: tuple[Position, Position], connected_ids: Sequence[str]
    ) -> "ConnectionSpec":
        _check_name(id, "connection id")
        _check_name(connection_type, "connection type")
        tl, br = map(_as_position, bounds)
        if not _corners_in_order(tl, br):
            raise ValueError(f"connection {id}: bounds corners out of order")
        ids = tuple(connected_ids)
        if len(ids) < 2:
            raise ValueError(f"connection {id}: needs at least 2 connected ids")
        return tuple.__new__(cls, (id, connection_type, (tl, br), ids))


def _extent(kind: str, item: object) -> tuple[Position, Position]:
    """The two corners of the cells an item of kind ("block", "entity" or "object") takes: one cell but for a box fill."""
    if type(item) is BoxFill:
        return item.top_left, item.bottom_right
    position = item.block.position if kind == "object" else item.position
    return position, position


def _inset(top_left: Position, bottom_right: Position, margins: Margins) -> tuple[Position, Position]:
    """Shrink a box by per-face margins; raise EmptyBoxError if any axis empties."""
    if len(margins) != 6 or any(m < 0 for m in margins):
        raise ValueError(f"margins must be six non-negative integers, got {margins!r}")
    xl, xh, yl, yh, zl, zh = margins
    tl = Position(top_left.x + xl, top_left.y + yl, top_left.z + zl)
    br = Position(bottom_right.x - xh, bottom_right.y - yh, bottom_right.z - zh)
    if not _corners_in_order(tl, br):
        raise EmptyBoxError(
            f"margins {margins} leave no cells inside "
            f"{top_left.as_tuple()}..{bottom_right.as_tuple()}"
        )
    return tl, br


class _ItemHolder:
    """A node of the world's hierarchy: the world itself or one of its volumes.

    Both hold blocks, entities, objects and connections the same way. An item
    must lie inside its holder when added and again at ``WorldModel.finalize()``;
    the world has no bounds, so its loose items may take any position. After
    finalizing, ``blocks`` is a read-only Blocks, every other container is a
    tuple, and ``add_*`` raises FrozenWorldError.

    ``_registered`` is the id registry that the add-time duplicate check reads
    (see the module docstring); the ``add_*`` methods keep it up to date.
    """

    def __init__(self, id: str) -> None:
        _check_name(id, f"{type(self).__name__} id")
        self.id = id
        self.blocks: Blocks = BlockList()
        self.entities: list[EntitySpec] = []
        self.objects: list[ObjectSpec] = []
        self.connections: list[ConnectionSpec] = []
        self.finalized = False
        self._registered: set[str] = set()

    def contains(self, p: Sequence[int]) -> bool:
        """The world has no bounds, so it contains every point; a volume overrides this."""
        return True

    def _check_mutable(self) -> None:
        if self.finalized:
            raise FrozenWorldError(f"{type(self).__name__} {self.id!r} is finalized")

    def _check_inside(self, kind: str, items: Sequence) -> None:
        """Raise OutOfBoundsError for the first cell of items ("block", "entity" or "object" by kind) outside this holder.

        One pass over the items, each tested by the corners of its extent with
        ``contains``: its one cell, or a box fill's two corners. Cells are
        walked only for the first item outside, to name its first cell outside.
        """
        for item in items:
            low, high = _extent(kind, item)
            if not (self.contains(low) and self.contains(high)):
                cell = next(p for p in _box_cells(low, high) if not self.contains(p))
                what = kind if kind == "block" else f"{kind} {item.id}"
                raise OutOfBoundsError(f"{what} at {cell} outside volume {self.id}")

    def add_block(self, block: BlockPlacement) -> None:
        self._check_mutable()
        self._check_inside("block", (block,))
        self.blocks.append(block)

    def add_entity(self, entity: EntitySpec) -> None:
        self._check_mutable()
        self._check_inside("entity", (entity,))
        self.entities.append(entity)
        self._registered.add(entity.id)

    def add_object(self, obj: ObjectSpec) -> None:
        self._check_mutable()
        self._check_inside("object", (obj,))
        self.objects.append(obj)
        self._registered.add(obj.id)

    def add_connection(self, conn: ConnectionSpec) -> None:
        # Referential integrity of connected_ids is checked at world finalize.
        self._check_mutable()
        self.connections.append(conn)
        self._registered.add(conn.id)

    def _new_subtree_ids(self, volume: "BoundingVolume") -> set[str]:
        """The ids of volume's subtree; DuplicateIdError if one is already registered here."""
        incoming = volume.subtree_ids()
        overlap = self._registered & incoming
        if overlap:
            raise DuplicateIdError(f"ids already present in {self.id}: {sorted(overlap)}")
        return incoming

    def _ids(self) -> Iterator[tuple[str, str]]:
        """(id, kind) of every entity, object and connection held directly, not by a sub-volume."""
        for e in self.entities:
            yield e.id, "entity"
        for o in self.objects:
            yield o.id, "object"
        for c in self.connections:
            yield c.id, "connection"

    def _freeze(self) -> None:
        self.finalized = True
        self.blocks = Blocks(self.blocks.items)
        self.entities = tuple(self.entities)
        self.objects = tuple(self.objects)
        self.connections = tuple(self.connections)

    def _same_items(self, other: "_ItemHolder") -> bool:
        # A finalized holder keeps tuples (and Blocks) where a mutable one keeps lists (and a BlockList).
        return (
            self.blocks == other.blocks
            and tuple(self.entities) == tuple(other.entities)
            and tuple(self.objects) == tuple(other.objects)
            and tuple(self.connections) == tuple(other.connections)
        )


class BoundingVolume(_ItemHolder):
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
        super().__init__(id)
        _check_name(volume_type, "volume type")
        _check_name(material, "volume material")
        if (top_left is None) != (bottom_right is None):
            raise ValueError("give both corners or neither")
        self.volume_type = volume_type
        self.material = material
        self.auto_expand = top_left is None
        if top_left is None or bottom_right is None:
            top_left = bottom_right = Position(0, 0, 0)
        top_left, bottom_right = _as_position(top_left), _as_position(bottom_right)
        if not _corners_in_order(top_left, bottom_right):
            raise ValueError(f"volume {id}: top_left must be <= bottom_right per axis")
        self.top_left = top_left
        self.bottom_right = bottom_right
        self.has_roof = has_roof
        self.children: list[BoundingVolume] = []
        self._registered.add(id)

    # -- queries ----------------------------------------------------------

    def contains(self, p: Sequence[int]) -> bool:
        """Whether point p, a Position or any (x, y, z), lies in this volume's box, corners included."""
        x, y, z = p
        (x0, y0, z0), (x1, y1, z1) = self.top_left, self.bottom_right
        return x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1

    def walk(self) -> Iterator["BoundingVolume"]:
        """Depth-first, pre-order walk of this volume and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def _ids(self) -> Iterator[tuple[str, str]]:
        """This volume's own id, then those of the items it holds directly."""
        yield self.id, "volume"
        yield from super()._ids()

    def subtree_ids(self) -> set[str]:
        return {item_id for v in self.walk() for item_id, _ in v._ids()}

    # -- construction -----------------------------------------------------

    def add_child(self, child: "BoundingVolume") -> None:
        """Attach a child volume; group parents grow to the hull of their children.

        Raises DuplicateIdError if an id in the child's subtree is in this
        volume's id registry, which covers this volume's subtree except for
        ids added below one of its children after that child joined.
        """
        self._check_mutable()
        incoming = self._new_subtree_ids(child)
        if self.auto_expand:
            if not self.children:
                self.top_left = child.top_left
                self.bottom_right = child.bottom_right
            else:
                self.top_left = Position(*map(min, self.top_left, child.top_left))
                self.bottom_right = Position(*map(max, self.bottom_right, child.bottom_right))
        elif not (self.contains(child.top_left) and self.contains(child.bottom_right)):
            raise OutOfBoundsError(
                f"child {child.id} {child.top_left.as_tuple()}..{child.bottom_right.as_tuple()} "
                f"exceeds parent {self.id}"
            )
        self._registered |= incoming
        self.children.append(child)

    def generate_box(self, material: str, margins: Margins) -> None:
        """Fill the inset box left by the margins with blocks of one material.

        Margins are per-face insets from this volume's corners, in the order
        (x_low, x_high, y_low, y_high, z_low, z_high). One BoxFill is
        appended: the material, checked once, and the two inset corners. It
        stands for a BlockPlacement per cell, in x, then y, then z order, and
        only the raster writes its cells.
        """
        self._check_mutable()
        tl, br = _inset(self.top_left, self.bottom_right, margins)
        self.blocks.append(BoxFill(material, tl, br))

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

        Children, blocks (a box fill by its corners), entities and objects all
        move. Stored connections are copied unchanged: their bounds are not
        reliably updatable under translation, so they deliberately stay put.
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
        out.blocks = BlockList(item.shifted(dx, dy, dz) for item in self.blocks.items)
        out.entities = [
            EntitySpec(e.id, e.entity_type, e.position.shifted(dx, dy, dz), e.equipment)
            for e in self.entities
        ]
        out.objects = [ObjectSpec(o.id, o.object_type, o.block.shifted(dx, dy, dz)) for o in self.objects]
        out.connections = list(self.connections)
        out._registered = set(self._registered)
        return out

    # -- plumbing ----------------------------------------------------------

    def _freeze(self) -> None:
        super()._freeze()
        self.children = tuple(self.children)

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
            and tuple(self.children) == tuple(other.children)
            and self._same_items(other)
        )

    def __repr__(self) -> str:
        return (
            f"BoundingVolume({self.id!r}, type={self.volume_type!r}, "
            f"{self.top_left.as_tuple()}..{self.bottom_right.as_tuple()}, "
            f"children={len(self.children)})"
        )


class WorldModel(_ItemHolder):
    """Root container: top-level volumes plus loose blocks/entities/objects.

    Construction is single-owner and not thread-safe; after ``finalize()`` the
    world is immutable and safe to share between readers: its containers and
    those of every volume are tuples, and their blocks read-only Blocks.
    """

    def __init__(self, id: str) -> None:
        super().__init__(id)
        self.volumes: list[BoundingVolume] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldModel):
            return NotImplemented
        return self.id == other.id and tuple(self.volumes) == tuple(other.volumes) and self._same_items(other)

    def add_volume(self, volume: BoundingVolume) -> None:
        """Add a top-level volume.

        Raises DuplicateIdError if an id in the volume's subtree is in the
        world's id registry: the ids of every volume subtree as it was when
        added, and of the world's own entities, objects and connections.
        """
        self._check_mutable()
        self._registered |= self._new_subtree_ids(volume)
        self.volumes.append(volume)

    def walk_volumes(self) -> Iterator[BoundingVolume]:
        """All volumes at all depths, depth-first pre-order."""
        for v in self.volumes:
            yield from v.walk()

    def _holders(self) -> Iterator[_ItemHolder]:
        """Every volume, depth-first pre-order, then the world itself."""
        yield from self.walk_volumes()
        yield self

    def all_connections(self) -> Iterator[ConnectionSpec]:
        for holder in self._holders():
            yield from holder.connections

    def finalize(self) -> "WorldModel":
        """Validate the world's invariants and freeze it; the one place they are enforced.

        Checks id uniqueness across volumes, entities, objects and connections
        at every depth, including ids that the add-time registries did not
        see, that each volume's blocks, object blocks and entities lie inside
        it, and that every connection's ids resolve to volumes.
        Then makes every container of the world and its volumes a tuple,
        and their blocks read-only Blocks.
        Returns self for chaining.
        """
        if self.finalized:
            return self
        holders = tuple(self._holders())
        seen: set[str] = set()
        for holder in holders:
            for item_id, kind in holder._ids():
                if item_id in seen:
                    raise DuplicateIdError(f"duplicate {kind} id {item_id!r}")
                seen.add(item_id)
            holder._check_inside("block", holder.blocks.items)
            holder._check_inside("entity", holder.entities)
            holder._check_inside("object", holder.objects)

        volume_ids = {v.id for v in self.walk_volumes()}
        for conn in self.all_connections():
            for ref in conn.connected_ids:
                if ref not in volume_ids:
                    raise DanglingConnectionError(
                        f"connection {conn.id} references unknown volume {ref!r}"
                    )

        for holder in holders:
            holder._freeze()
        self.volumes = tuple(self.volumes)
        return self
