"""Flatten a world's volume tree into a concrete coordinate -> material grid.

Write order is part of the contract (last writer wins at each cell):

1. Volumes are visited depth-first, pre-order, in insertion order. For each
   volume: its shell, then its roof, then its explicit blocks in insertion
   order, then its objects' blocks in insertion order, then its children.
   A ``generate_box`` fill is one explicit-block item (a ``BoxFill``): its
   cells are written in x, then y, then z order, after the blocks added
   before it and before those added after it.
2. After all volumes: the world's loose blocks, then loose objects' blocks.
3. Finally every "door"/"opening" connection carves air: all cells inside its
   bounds are removed from the grid.

A volume's shell is its four vertical perimeter walls at every y layer; there
is no implicit floor or ceiling. Volumes with the "blank" material emit no
shell. A roof fills the full footprint at the volume's maximum y with the
volume's material (this applies even to "blank" volumes, where it is the only
thing they emit).

Entities do not write cells; they are collected in the same traversal order.
Nothing is validated here: ``WorldModel.finalize()`` already has.

``rasterize`` records the writes once, in that order, as boxes ``(low,
high, material)``, a carve as ``(low, high, None)``, and builds no cell.
``_apply`` plays writes over an x-range: it clips each box to the range, and
one ``dict.update`` (or ``pop``) per box writes its cells, keyed by the plain
``(x, y, z)`` tuples ``geometry._box_cells`` builds in C, so no Python frame
runs per cell. A block or an object is a one-cell write whose two corners are
the one ``Position`` it carries, which keys its cell; it equals and hashes
like the plain tuple, so either finds the same cell, and a cell keeps the key
it was first written with. ``BlockGrid.cells`` and ``BlockGrid.slabs()``, one
x-slab at a time, which is how the block map is written, both come from
``_apply``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Optional

from .geometry import BLANK, COORD_MAX, COORD_MIN, BoundingVolume, BoxFill, EntitySpec, WorldModel, _box_cells

CARVING_CONNECTION_TYPES = ("door", "opening")

# Columns per x-slab of BlockGrid.slabs().
SLAB_WIDTH = 8

# A box write: its low and high corners and its material, or None for a carve.
Write = tuple[tuple[int, int, int], tuple[int, int, int], Optional[str]]


def _apply(writes: list[Write], x_lo: int, x_hi: int) -> dict[tuple[int, int, int], str]:
    """The cells that writes, in order, leave at x_lo <= x <= x_hi: one dict.update or pop per box, clipped in x.

    A one-cell write is not clipped: only its own slab's writes hold it.
    """
    cells: dict[tuple[int, int, int], str] = {}
    for low, high, material in writes:
        if low is high and material is not None:  # a block or an object, keyed by its Position
            cells[low] = material
            continue
        box = _box_cells((max(low[0], x_lo), low[1], low[2]), (min(high[0], x_hi), high[1], high[2]))
        if material is None:
            for cell in box:
                cells.pop(cell, None)
        else:
            cells.update(zip(box, repeat(material)))
    return cells


class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities.

    A grid built from a cells dict is that dict, and is its own single slab.
    A rasterized grid holds its writes until ``cells`` is first used, which
    builds the dict from them; from then on it is that dict, so a change made
    to it is what ``slabs()`` and the writers see.
    """

    __slots__ = ("_cells", "_writes", "entities")

    def __init__(
        self, cells: Optional[dict[tuple[int, int, int], str]] = None, entities: Optional[list[EntitySpec]] = None
    ) -> None:
        self.cells = {} if cells is None else cells
        self.entities = [] if entities is None else entities

    @property
    def cells(self) -> dict[tuple[int, int, int], str]:
        if self._cells is None:
            self.cells = _apply(self._writes, COORD_MIN, COORD_MAX)
        return self._cells

    @cells.setter
    def cells(self, cells: dict[tuple[int, int, int], str]) -> None:
        self._cells, self._writes = cells, None

    def slabs(self) -> Iterator["BlockGrid"]:
        """The grid as plain grids, one per x-slab of SLAB_WIDTH columns that holds writes, in ascending x.

        The first holds every entity (a grid with no writes is one empty
        slab); a grid whose cells are built is its own single slab. The
        writes are bucketed by slab once; a carve, which comes after every
        other write, goes only to slabs that already hold some.
        """
        if self._writes is None:
            yield self
            return
        buckets: dict[int, list[Write]] = {}
        for write in self._writes:
            low, high, material = write
            slabs = range(low[0] // SLAB_WIDTH, high[0] // SLAB_WIDTH + 1)
            for slab in slabs if material is not None else filter(buckets.__contains__, slabs):
                buckets.setdefault(slab, []).append(write)
        entities = self.entities
        for slab in sorted(buckets) or [0]:
            yield BlockGrid(_apply(buckets.pop(slab, []), slab * SLAB_WIDTH, (slab + 1) * SLAB_WIDTH - 1), entities)
            entities = []

    def __eq__(self, other: object) -> bool:
        if type(other) is not BlockGrid:
            return NotImplemented
        return self.cells == other.cells and self.entities == other.entities

    def __repr__(self) -> str:
        return f"BlockGrid(cells={self.cells!r}, entities={self.entities!r})"


def _record_items(holder: BoundingVolume | WorldModel, writes: list[Write], entities: list[EntitySpec]) -> None:
    """A volume's or the world's own blocks and box fills, then its objects' blocks, then its entities."""
    for item in holder.blocks.items:
        if type(item) is BoxFill:
            writes.append((item.top_left, item.bottom_right, item.material))
        else:
            writes.append((item.position, item.position, item.material))
    writes += [(o.block.position, o.block.position, o.block.material) for o in holder.objects]
    entities.extend(holder.entities)


def rasterize(world: WorldModel) -> BlockGrid:
    """The block grid of a finalized world: its writes, recorded in the documented order."""
    if not world.finalized:
        raise ValueError(f"world {world.id} must be finalized before rasterizing")
    writes: list[Write] = []
    entities: list[EntitySpec] = []
    for v in world.walk_volumes():
        (x0, y0, z0), (x1, y1, z1) = v.top_left, v.bottom_right
        if v.material != BLANK:
            # The shell, each cell once: full-width z walls, then x walls between them.
            writes += [((x0, y0, z), (x1, y1, z), v.material) for z in dict.fromkeys((z0, z1))]
            writes += [((x, y0, z0 + 1), (x, y1, z1 - 1), v.material) for x in dict.fromkeys((x0, x1))]
        if v.has_roof:
            writes.append(((x0, y1, z0), (x1, y1, z1), v.material))
        _record_items(v, writes, entities)
    _record_items(world, writes, entities)
    writes += [(*conn.bounds, None) for conn in world.all_connections()
               if conn.connection_type in CARVING_CONNECTION_TYPES]
    grid = BlockGrid(None, entities)
    grid._cells, grid._writes = None, writes
    return grid
