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

Cell keys are ``(x, y, z)`` tuples, which hash and compare in C. Shell,
roof, box-fill and carve cells fill boxes inside a finalized volume or
connection: ``geometry._box_cells`` gives their keys as plain tuples, built
in C, and one ``dict.update`` (or ``pop``) per box writes them, so no Python
frame runs per cell. A block or an object keys its cell with the
``Position`` it already carries, which equals and hashes like the plain
tuple, so either finds the same cell and a cell keeps the key it was first
written with.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Optional

from .geometry import BLANK, BoundingVolume, BoxFill, EntitySpec, WorldModel, _box_cells

CARVING_CONNECTION_TYPES = ("door", "opening")


class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities."""

    __slots__ = ("cells", "entities")

    def __init__(
        self, cells: Optional[dict[tuple[int, int, int], str]] = None, entities: Optional[list[EntitySpec]] = None
    ) -> None:
        self.cells = {} if cells is None else cells
        self.entities = [] if entities is None else entities

    def __eq__(self, other: object) -> bool:
        if type(other) is not BlockGrid:
            return NotImplemented
        return self.cells == other.cells and self.entities == other.entities

    def __repr__(self) -> str:
        return f"BlockGrid(cells={self.cells!r}, entities={self.entities!r})"


# (cell, material) of an object's block.
_OBJECT_CELL = attrgetter("block.position", "block.material")


def _write_items(holder: BoundingVolume | WorldModel, grid: BlockGrid) -> None:
    """A volume's or the world's own blocks and box fills, then its objects' blocks, then its entities."""
    cells = grid.cells
    for item in holder.blocks.items:
        if type(item) is BoxFill:
            cells.update(zip(_box_cells(item.top_left, item.bottom_right), repeat(item.material)))
        else:
            cells[item.position] = item.material
    cells.update(map(_OBJECT_CELL, holder.objects))
    grid.entities.extend(holder.entities)


def rasterize(world: WorldModel) -> BlockGrid:
    """Produce the block grid for a finalized world."""
    if not world.finalized:
        raise ValueError(f"world {world.id} must be finalized before rasterizing")
    grid = BlockGrid()
    cells = grid.cells
    for v in world.walk_volumes():
        (x0, y0, z0), (x1, y1, z1) = v.top_left, v.bottom_right
        boxes = []
        if v.material != BLANK:
            # The shell, each cell once: full-width z walls, then x walls between them.
            boxes = [((x0, y0, z), (x1, y1, z)) for z in dict.fromkeys((z0, z1))]
            boxes += [((x, y0, z0 + 1), (x, y1, z1 - 1)) for x in dict.fromkeys((x0, x1))]
        if v.has_roof:
            boxes.append(((x0, y1, z0), (x1, y1, z1)))
        for corners in boxes:
            cells.update(zip(_box_cells(*corners), repeat(v.material)))
        _write_items(v, grid)
    _write_items(world, grid)

    for conn in world.all_connections():
        if conn.connection_type in CARVING_CONNECTION_TYPES:
            for cell in _box_cells(*conn.bounds):
                cells.pop(cell, None)
    return grid
