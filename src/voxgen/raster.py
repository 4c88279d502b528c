"""Flatten a world's volume tree into a concrete coordinate -> material grid.

Write order is part of the contract (last writer wins at each cell):

1. Volumes are visited depth-first, pre-order, in insertion order. For each
   volume: its shell, then its roof, then its explicit blocks in insertion
   order, then its objects' blocks in insertion order, then its children.
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

Cell keys are ``Position`` tuples, which hash and compare in C; a plain
``(x, y, z)`` tuple finds the same cell. A block or an object keys its cell
with the ``Position`` it already carries. Shell, roof and carve cells fill
boxes inside a finalized volume or connection: ``geometry._box_cells`` builds
their keys in C without the coordinate checks, and one ``dict.update`` (or
``pop``) per box writes them, so no Python frame runs per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from .geometry import BLANK, BoundingVolume, EntitySpec, Position, WorldModel, _box_cells

CARVING_CONNECTION_TYPES = ("door", "opening")


@dataclass
class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities."""

    cells: dict[Position, str] = field(default_factory=dict)
    entities: list[EntitySpec] = field(default_factory=list)


# (cell, material) of a block and of an object's block.
_BLOCK_CELL = attrgetter("position", "material")
_OBJECT_CELL = attrgetter("block.position", "block.material")


def _write_items(holder: BoundingVolume | WorldModel, grid: BlockGrid) -> None:
    """A volume's or the world's own blocks, then its objects' blocks, then its entities."""
    grid.cells.update(map(_BLOCK_CELL, holder.blocks))
    grid.cells.update(map(_OBJECT_CELL, holder.objects))
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
