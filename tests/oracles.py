"""Independent reference implementations used to check the library.

Everything here is deliberately naive and recomputes results from first
principles (plain tuples, full-box membership scans) instead of calling the
code under test, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Optional

from voxgen.errors import ParseError, ValidationError
from voxgen.geometry import BlockPlacement, BoundingVolume, EntitySpec, Position, WorldModel
from voxgen.query import TraceEvent
from voxgen.raster import BlockGrid
from voxgen.serialization import BlockMapDocument, SemanticMap

Cell = tuple[int, int, int]


def box_points(tl: Cell, br: Cell) -> list[Cell]:
    return [
        (x, y, z)
        for x in range(tl[0], br[0] + 1)
        for y in range(tl[1], br[1] + 1)
        for z in range(tl[2], br[2] + 1)
    ]


def brute_shell_cells(tl: Cell, br: Cell) -> set[Cell]:
    """Shell cells by membership test over the full box: a point is on the
    shell iff it sits on an x face or a z face (walls only, no floor/ceiling)."""
    return {
        (x, y, z)
        for (x, y, z) in box_points(tl, br)
        if x == tl[0] or x == br[0] or z == tl[2] or z == br[2]
    }


def naive_rasterize(world: WorldModel) -> tuple[dict[Cell, str], list[EntitySpec]]:
    """Re-derive the block grid by replaying the documented write order."""
    cells: dict[Cell, str] = {}
    entities: list[EntitySpec] = []

    def visit(v: BoundingVolume) -> None:
        tl = v.top_left.as_tuple()
        br = v.bottom_right.as_tuple()
        if v.material != "blank":
            for point in sorted(brute_shell_cells(tl, br)):
                cells[point] = v.material
        if v.has_roof:
            for (x, y, z) in box_points(tl, br):
                if y == br[1]:
                    cells[(x, y, z)] = v.material
        for block in v.blocks:
            cells[block.position.as_tuple()] = block.material
        for obj in v.objects:
            cells[obj.block.position.as_tuple()] = obj.block.material
        entities.extend(v.entities)
        for child in v.children:
            visit(child)

    for v in world.volumes:
        visit(v)
    for block in world.blocks:
        cells[block.position.as_tuple()] = block.material
    for obj in world.objects:
        cells[obj.block.position.as_tuple()] = obj.block.material
    entities.extend(world.entities)

    for conn in world.all_connections():
        if conn.connection_type in ("door", "opening"):
            for point in box_points(conn.bounds[0].as_tuple(), conn.bounds[1].as_tuple()):
                cells.pop(point, None)
    return cells, entities


def diff_grids(a: BlockGrid, b: BlockGrid) -> list[tuple[Cell, Optional[str], Optional[str]]]:
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


def block_map_text(doc: BlockMapDocument) -> str:
    """The block-map file text, encoded the plain way: one dict per row, then json.dumps(indent=2)."""
    out: dict[str, Any] = {"schema_version": "1", "blocks": [], "entities": []}
    for x, y, z, material in doc.rows:
        out["blocks"].append({"material": material, "x": x, "y": y, "z": z})
    for e in doc.entities:
        row: dict[str, Any] = {"type": e.entity_type, "x": e.x, "y": e.y, "z": e.z}
        if e.equipment:
            row["equipment"] = dict(e.equipment)
        out["entities"].append(row)
    return json.dumps(out, indent=2, ensure_ascii=True) + "\n"


def read_block_rows(path) -> list[tuple[int, int, int, str]]:
    """The (x, y, z, material) rows of a block-map file, sorted, read the plain way.

    Checks one row and one field at a time, in file order: every row is an
    object, then per row its material, x, y and z; then no two rows share a
    cell. Raises ValidationError with the message ``read_block_map`` gives
    for the first failure. The file's entities are not read.
    """
    with open(path, encoding="utf-8") as handle:
        raw_blocks = json.load(handle).get("blocks", [])
    if not isinstance(raw_blocks, list):
        raise ValidationError(f"{path}: blocks: expected a list, got {type(raw_blocks).__name__}")
    for raw in raw_blocks:
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: blocks: expected an object, got {type(raw).__name__}")
    rows = []
    for raw in raw_blocks:
        material = raw.get("material")
        if not isinstance(material, str) or material == "":
            raise ValidationError(f"block material: expected nonempty string, got {material!r}")
        try:
            material.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"block material: expected a string UTF-8 can encode, got {material!r}") from None
        cell = []
        for axis in "xyz":
            value = raw.get(axis)
            if type(value) is not int or not -(2**63) <= value < 2**63:
                raise ValidationError(f"block {axis}: expected signed 64-bit integer, got {value!r}")
            cell.append(value)
        rows.append((*cell, material))
    rows.sort()
    for a, b in zip(rows, rows[1:]):
        if a[:3] == b[:3]:
            raise ValidationError(f"duplicate block coordinates {a[:3]}")
    return rows


def read_trace_lines(path) -> list[TraceEvent]:
    """The samples of a position-trace file, read one line at a time as docs/file-formats.md describes.

    The file is UTF-8 text whose lines end in \\n, \\r\\n or \\r; a line of
    whitespace only is blank. Every other line, with its line break, is one
    JSON object read on its own; keys other than the five are ignored. Its
    fields are checked in the order timestamp, player_id, x, y, z, and then
    the timestamp's sign. Raises ParseError for a line that is not one JSON
    value and ValidationError for a bad sample, each with the message
    ``read_trace`` gives.
    """
    text = Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    *ended, last = text.split("\n")
    events = []
    for number, line in enumerate([piece + "\n" for piece in ended] + [last], start=1):
        if line == "" or line.isspace():
            continue
        where = f"{path}: line {number}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"{where} column {err.colno}: {err.msg}", str(path), number, err.colno) from None
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object per line")
        timestamp, player = raw.get("timestamp"), raw.get("player_id")
        if type(timestamp) is not int:
            raise ValidationError(f"{where}: timestamp: expected integer, got {timestamp!r}")
        if type(player) is not str or player == "":
            raise ValidationError(f"{where}: player_id: expected nonempty string, got {player!r}")
        try:
            player.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"{where}: player_id: expected a string UTF-8 can encode, got {player!r}") from None
        cell = []
        for axis in "xyz":
            value = raw.get(axis)
            if type(value) is not int or not -(2**63) <= value < 2**63:
                raise ValidationError(f"{where}: {axis}: expected signed 64-bit integer, got {value!r}")
            cell.append(value)
        if timestamp < 0:
            raise ValidationError(f"{where}: trace timestamps must be non-negative")
        events.append(TraceEvent(timestamp, player, Position(*cell)))
    return events


def scan_locate(semantic_map: SemanticMap, point: Cell) -> Optional[str]:
    """Brute-force locate: max depth, then min volume, then lexicographic id,
    with depth and volume recomputed from the raw document on every call."""
    parent: dict[str, str] = {}
    for loc in semantic_map.locations:
        for child_id in loc.child_ids:
            parent[child_id] = loc.id

    def depth(loc_id: str) -> int:
        d = 0
        while loc_id in parent:
            loc_id = parent[loc_id]
            d += 1
        return d

    x, y, z = point
    candidates = []
    for loc in semantic_map.locations:
        tl, br = loc.top_left, loc.bottom_right
        if tl.x <= x <= br.x and tl.y <= y <= br.y and tl.z <= z <= br.z:
            volume = (br.x - tl.x + 1) * (br.y - tl.y + 1) * (br.z - tl.z + 1)
            candidates.append((-depth(loc.id), volume, loc.id))
    if not candidates:
        return None
    return min(candidates)[2]


def connection_graph_connected(semantic_map: SemanticMap, node_ids: set[str],
                               connection_type: Optional[str] = None) -> bool:
    """BFS connectivity of node_ids under the map's connections."""
    neighbors: dict[str, set[str]] = {n: set() for n in node_ids}
    for conn in semantic_map.connections:
        if connection_type is not None and conn.connection_type != connection_type:
            continue
        members = [i for i in conn.connected_ids if i in node_ids]
        for a in members:
            for b in members:
                if a != b:
                    neighbors[a].add(b)
    if not node_ids:
        return True
    start = next(iter(sorted(node_ids)))
    seen = {start}
    frontier = [start]
    while frontier:
        here = frontier.pop()
        for there in neighbors[here]:
            if there not in seen:
                seen.add(there)
                frontier.append(there)
    return seen == node_ids


def random_world(seed: int) -> WorldModel:
    """A small random connection-free world for translation tests."""
    rng = random.Random(seed)

    def random_box(outer_tl: Cell, outer_br: Cell) -> tuple[Position, Position]:
        spans = []
        for axis in range(3):
            size = rng.randint(1, max(1, min(4, outer_br[axis] - outer_tl[axis] + 1)))
            low = rng.randint(outer_tl[axis], outer_br[axis] - size + 1)
            spans.append((low, low + size - 1))
        return (
            Position(spans[0][0], spans[1][0], spans[2][0]),
            Position(spans[0][1], spans[1][1], spans[2][1]),
        )

    materials = ["stone", "planks", "log", "blank"]
    counter = [0]

    def build_volume(outer_tl: Cell, outer_br: Cell, depth: int) -> BoundingVolume:
        counter[0] += 1
        tl, br = random_box(outer_tl, outer_br)
        v = BoundingVolume(
            f"v{counter[0]}",
            volume_type="box",
            material=rng.choice(materials),
            top_left=tl,
            bottom_right=br,
            has_roof=rng.random() < 0.3,
        )
        for _ in range(rng.randint(0, 2)):
            pos = Position(
                rng.randint(tl.x, br.x), rng.randint(tl.y, br.y), rng.randint(tl.z, br.z)
            )
            if rng.random() < 0.5:
                v.add_block(BlockPlacement(rng.choice(materials[:3]), pos))
            else:
                counter[0] += 1
                v.add_entity(EntitySpec(f"e{counter[0]}", "zombie", pos))
        if depth < 2:
            for _ in range(rng.randint(0, 2)):
                v.add_child(build_volume(tl.as_tuple(), br.as_tuple(), depth + 1))
        return v

    origin = (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
    outer = (origin[0] + rng.randint(4, 9), origin[1] + rng.randint(4, 9), origin[2] + rng.randint(4, 9))
    world = WorldModel(f"random_{seed}")
    world.add_volume(build_volume(origin, outer, 0))
    return world.finalize()
