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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .geometry import BLANK, BoundingVolume, EntitySpec, Position, WorldModel

CARVING_CONNECTION_TYPES = ("door", "opening")


@dataclass
class BlockGrid:
    """The flattened world: one material per occupied cell, plus entities."""

    cells: dict[Position, str] = field(default_factory=dict)
    entities: list[EntitySpec] = field(default_factory=list)


def _write_shell(v: BoundingVolume, cells: dict[Position, str]) -> None:
    tl, br = v.top_left, v.bottom_right
    for y in range(tl.y, br.y + 1):
        for x in range(tl.x, br.x + 1):
            cells[Position(x, y, tl.z)] = v.material
            cells[Position(x, y, br.z)] = v.material
        for z in range(tl.z, br.z + 1):
            cells[Position(tl.x, y, z)] = v.material
            cells[Position(br.x, y, z)] = v.material


def _write_roof(v: BoundingVolume, cells: dict[Position, str]) -> None:
    tl, br = v.top_left, v.bottom_right
    for x in range(tl.x, br.x + 1):
        for z in range(tl.z, br.z + 1):
            cells[Position(x, br.y, z)] = v.material


def _write_volume(v: BoundingVolume, grid: BlockGrid) -> None:
    if v.material != BLANK:
        _write_shell(v, grid.cells)
    if v.has_roof:
        _write_roof(v, grid.cells)
    for block in v.blocks:
        grid.cells[block.position] = block.material
    for obj in v.objects:
        grid.cells[obj.block.position] = obj.block.material
    grid.entities.extend(v.entities)
    for child in v.children:
        _write_volume(child, grid)


def rasterize(world: WorldModel) -> BlockGrid:
    """Produce the block grid for a finalized world."""
    if not world.finalized:
        raise ValueError(f"world {world.id} must be finalized before rasterizing")
    grid = BlockGrid()
    for v in world.volumes:
        _write_volume(v, grid)
    for block in world.blocks:
        grid.cells[block.position] = block.material
    for obj in world.objects:
        grid.cells[obj.block.position] = obj.block.material
    grid.entities.extend(world.entities)

    for conn in world.all_connections():
        if conn.connection_type not in CARVING_CONNECTION_TYPES:
            continue
        tl, br = conn.bounds
        for x in range(tl.x, br.x + 1):
            for y in range(tl.y, br.y + 1):
                for z in range(tl.z, br.z + 1):
                    grid.cells.pop(Position(x, y, z), None)
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
