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
with the ``Position`` it already carries. Shell, roof and carve cells lie
inside a finalized volume or connection, so each write builds its key without
the coordinate checks (``geometry._lattice_point``); that costs less than
looking up a key built earlier, so no key is cached between writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .geometry import BLANK, BoundingVolume, EntitySpec, Position, WorldModel, _lattice_point

CARVING_CONNECTION_TYPES = ("door", "opening")


@dataclass
class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities."""

    cells: dict[Position, str] = field(default_factory=dict)
    entities: list[EntitySpec] = field(default_factory=list)


def _ring(v: BoundingVolume) -> list[tuple[int, int]]:
    """The (x, z) columns of the perimeter walls, each corner once."""
    tl, br = v.top_left, v.bottom_right
    xs, zs = range(tl.x, br.x + 1), range(tl.z, br.z + 1)
    return list(dict.fromkeys([*product(xs, (tl.z, br.z)), *product((tl.x, br.x), zs)]))


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

    def fill(columns: list[tuple[int, int]], ys: Iterable[int], material: str) -> None:
        for y in ys:
            for x, z in columns:
                cells[_lattice_point(x, y, z)] = material

    for v in world.walk_volumes():
        tl, br = v.top_left, v.bottom_right
        if v.material != BLANK:
            fill(_ring(v), range(tl.y, br.y + 1), v.material)
        if v.has_roof:
            fill(list(product(range(tl.x, br.x + 1), range(tl.z, br.z + 1))), (br.y,), v.material)
        _write_items(v, grid)
    _write_items(world, grid)

    for conn in world.all_connections():
        if conn.connection_type not in CARVING_CONNECTION_TYPES:
            continue
        tl, br = conn.bounds
        for x, y, z in product(range(tl.x, br.x + 1), range(tl.y, br.y + 1), range(tl.z, br.z + 1)):
            cells.pop(_lattice_point(x, y, z), None)
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
