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

Cell keys are ``Position`` objects, and a ``Position`` costs far more to build
than a write. A block or an object keys its cell with the ``Position`` it
already carries. A shell is one ring of (x, z) columns, each corner once,
written at every y layer; a roof is the footprint's columns at one layer.
Their keys come from a table local to one ``rasterize`` call that builds a
``Position`` only the first time a cell is met, so a wall two rooms share is
written twice but gets one key. The cell lies inside a finalized volume, so
the key skips the coordinate checks (``geometry._lattice_point``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .geometry import BLANK, BoundingVolume, EntitySpec, Position, WorldModel, _lattice_point

CARVING_CONNECTION_TYPES = ("door", "opening")

# A column is (key, x, z); the key packs (x, z) into one int, unique on the
# 64-bit lattice. Unlike a tuple, an int is not tracked by the garbage
# collector, so the key table of a large world does not set off extra
# full collections.
_SPAN = 2**64
Column = tuple[int, int, int]


@dataclass
class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities."""

    cells: dict[Position, str] = field(default_factory=dict)
    entities: list[EntitySpec] = field(default_factory=list)


def _columns(xs: Iterable[int], zs: Iterable[int]) -> list[Column]:
    return [(x * _SPAN + z, x, z) for x in xs for z in zs]


def _ring(v: BoundingVolume) -> list[Column]:
    """The columns of the perimeter walls, each corner once."""
    tl, br = v.top_left, v.bottom_right
    xs, zs = range(tl.x, br.x + 1), range(tl.z, br.z + 1)
    return list(dict.fromkeys(
        _columns(xs, (tl.z, br.z)) + _columns((tl.x, br.x), zs)
    ))


def _write_items(holder: BoundingVolume | WorldModel, grid: BlockGrid) -> None:
    """A volume's or the world's own blocks, then its objects' blocks, then its entities."""
    for block in holder.blocks:
        grid.cells[block.position] = block.material
    for obj in holder.objects:
        grid.cells[obj.block.position] = obj.block.material
    grid.entities.extend(holder.entities)


def rasterize(world: WorldModel) -> BlockGrid:
    """Produce the block grid for a finalized world."""
    if not world.finalized:
        raise ValueError(f"world {world.id} must be finalized before rasterizing")
    grid = BlockGrid()
    cells = grid.cells
    layers: dict[int, dict[int, Position]] = {}  # y -> column key -> the one Position of that cell

    def fill(columns: list[Column], ys: Iterable[int], material: str) -> None:
        for y in ys:
            layer = layers.setdefault(y, {})
            for column, x, z in columns:
                key = layer.get(column)
                if key is None:
                    key = layer[column] = _lattice_point(x, y, z)
                cells[key] = material

    for v in world.walk_volumes():
        tl, br = v.top_left, v.bottom_right
        if v.material != BLANK:
            fill(_ring(v), range(tl.y, br.y + 1), v.material)
        if v.has_roof:
            fill(_columns(range(tl.x, br.x + 1), range(tl.z, br.z + 1)), (br.y,), v.material)
        _write_items(v, grid)
    _write_items(world, grid)

    for conn in world.all_connections():
        if conn.connection_type not in CARVING_CONNECTION_TYPES:
            continue
        tl, br = conn.bounds
        for x in range(tl.x, br.x + 1):
            for y in range(tl.y, br.y + 1):
                for z in range(tl.z, br.z + 1):
                    # A cell no shell or roof wrote can still hold a block, keyed by its own Position.
                    cells.pop(layers.get(y, {}).get(x * _SPAN + z) or Position(x, y, z), None)
    return grid


def diff_grids(
    a: BlockGrid, b: BlockGrid
) -> list[tuple[Position, Optional[str], Optional[str]]]:
    """Per-cell symmetric difference of two grids, sorted by position.

    Each entry is (position, material_in_a, material_in_b) with None standing
    for "absent". An empty list means the cells are identical.
    """
    out = []
    for p in a.cells.keys() | b.cells.keys():
        ma = a.cells.get(p)
        mb = b.cells.get(p)
        if ma != mb:
            out.append((p, ma, mb))
    out.sort(key=lambda entry: entry[0])
    return out
