"""The two lockstep output documents: the semantic map and the block map.

Both are UTF-8 JSON with schema_version "1"; the field-by-field contract
lives in docs/file-formats.md. Canonical order is set when a document or
record is constructed: it keeps a sorted copy of every list (locations,
connections, entities, objects by id; child/connected ids and equipment
sorted; blocks by coordinates then material, entity rows by coordinates then
type). Writers only encode: keys in a fixed order, "\n" line endings, ASCII
output. Writing what you just read reproduces the file byte for byte.

Readers validate shapes, coordinate range and referential integrity, and
raise ParseError (malformed JSON, with line/column) or ValidationError
(schema or integrity violation, naming the offending id).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .errors import ParseError, ValidationError
from .geometry import COORD_MAX, COORD_MIN, EQUIPMENT_SLOTS, Position, WorldModel
from .raster import BlockGrid

SCHEMA_VERSION = "1"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class LocationRecord:
    id: str
    location_type: str
    material: str
    top_left: Position
    bottom_right: Position
    child_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "child_ids", tuple(sorted(self.child_ids)))


@dataclass(frozen=True)
class ConnectionRecord:
    id: str
    connection_type: str
    top_left: Position
    bottom_right: Position
    connected_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "connected_ids", tuple(sorted(self.connected_ids)))


@dataclass(frozen=True)
class EntityRecord:
    id: str
    entity_type: str
    position: Position
    location_id: Optional[str]
    equipment: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "equipment", tuple(sorted(self.equipment)))


@dataclass(frozen=True)
class ObjectRecord:
    id: str
    object_type: str
    material: str
    position: Position
    location_id: Optional[str]


@dataclass(frozen=True)
class SemanticMap:
    """The high-level document: named locations, hierarchy, connections, items."""

    id: str
    locations: tuple[LocationRecord, ...] = ()
    connections: tuple[ConnectionRecord, ...] = ()
    entities: tuple[EntityRecord, ...] = ()
    objects: tuple[ObjectRecord, ...] = ()

    def __post_init__(self) -> None:
        for name in ("locations", "connections", "entities", "objects"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=lambda r: r.id)))

    def connected_pairs(self) -> list[tuple[str, str]]:
        """Sorted unordered pairs of locations that share a connection, smaller id first."""
        pairs = set()
        for conn in self.connections:
            pairs.update(itertools.combinations(sorted(set(conn.connected_ids)), 2))
        return sorted(pairs)


@dataclass(frozen=True)
class BlockRecord:
    material: str
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class BlockEntityRecord:
    entity_type: str
    x: int
    y: int
    z: int
    equipment: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "equipment", tuple(sorted(self.equipment)))


@dataclass
class BlockMapDocument:
    """The low-level document: every block and entity in the flattened world."""

    blocks: list[BlockRecord] = field(default_factory=list)
    entities: list[BlockEntityRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.blocks = sorted(self.blocks, key=lambda b: (b.x, b.y, b.z, b.material))
        self.entities = sorted(self.entities, key=lambda e: (e.x, e.y, e.z, e.entity_type, e.equipment))


# -- building documents from in-memory worlds -------------------------------


def _equipment_items(equipment) -> tuple[tuple[str, str], ...]:
    if not equipment:
        return ()
    return tuple(equipment.items())


def semantic_map_from_world(world: WorldModel) -> SemanticMap:
    """Project a finalized world onto its semantic-map document."""
    locations = []
    entities = []
    objects = []
    connections = []

    def add_items(owner, location_id: Optional[str]) -> None:
        """Records for a volume's or the world's own items; world-level items have no location."""
        for e in owner.entities:
            entities.append(
                EntityRecord(e.id, e.entity_type, e.position, location_id, _equipment_items(e.equipment))
            )
        for o in owner.objects:
            objects.append(ObjectRecord(o.id, o.object_type, o.block.material, o.block.position, location_id))
        for c in owner.connections:
            connections.append(ConnectionRecord(c.id, c.connection_type, c.bounds[0], c.bounds[1], c.connected_ids))

    for volume in world.walk_volumes():
        locations.append(
            LocationRecord(
                id=volume.id,
                location_type=volume.volume_type,
                material=volume.material,
                top_left=volume.top_left,
                bottom_right=volume.bottom_right,
                child_ids=tuple(c.id for c in volume.children),
            )
        )
        add_items(volume, volume.id)
    add_items(world, None)

    return SemanticMap(world.id, tuple(locations), tuple(connections), tuple(entities), tuple(objects))


def block_map_from_grid(grid: BlockGrid) -> BlockMapDocument:
    """Project a block grid onto its block-map document."""
    blocks = [BlockRecord(material, p.x, p.y, p.z) for p, material in grid.cells.items()]
    entities = [
        BlockEntityRecord(e.entity_type, e.position.x, e.position.y, e.position.z, _equipment_items(e.equipment))
        for e in grid.entities
    ]
    return BlockMapDocument(blocks=blocks, entities=entities)


# -- canonical JSON writing --------------------------------------------------


def _pos_json(p: Position) -> list[int]:
    return [p.x, p.y, p.z]


def _semantic_map_json(m: SemanticMap) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": m.id,
        "locations": [
            {
                "id": r.id,
                "type": r.location_type,
                "material": r.material,
                "bounds": {"top_left": _pos_json(r.top_left), "bottom_right": _pos_json(r.bottom_right)},
                "child_ids": list(r.child_ids),
            }
            for r in m.locations
        ],
        "connections": [
            {
                "id": r.id,
                "type": r.connection_type,
                "bounds": {"top_left": _pos_json(r.top_left), "bottom_right": _pos_json(r.bottom_right)},
                "connected_ids": list(r.connected_ids),
            }
            for r in m.connections
        ],
        "entities": [
            {
                "id": r.id,
                "type": r.entity_type,
                "position": _pos_json(r.position),
                "location_id": r.location_id,
                "equipment": dict(r.equipment),
            }
            for r in m.entities
        ],
        "objects": [
            {
                "id": r.id,
                "type": r.object_type,
                "material": r.material,
                "position": _pos_json(r.position),
                "location_id": r.location_id,
            }
            for r in m.objects
        ],
    }


def _block_map_json(doc: BlockMapDocument) -> dict[str, Any]:
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "blocks": [], "entities": []}
    for b in doc.blocks:
        out["blocks"].append({"material": b.material, "x": b.x, "y": b.y, "z": b.z})
    for e in doc.entities:
        row: dict[str, Any] = {"type": e.entity_type, "x": e.x, "y": e.y, "z": e.z}
        if e.equipment:
            row["equipment"] = dict(e.equipment)
        out["entities"].append(row)
    return out


def _write_json(payload: dict[str, Any], path: PathLike) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def write_semantic_map(m: SemanticMap, path: PathLike) -> None:
    _write_json(_semantic_map_json(m), path)


def write_block_map(doc: BlockMapDocument, path: PathLike) -> None:
    _write_json(_block_map_json(doc), path)


def write_world(world: WorldModel, grid: BlockGrid, hlr_path: PathLike, llr_path: PathLike) -> None:
    """Write the semantic map and block map for a world and its grid."""
    write_semantic_map(semantic_map_from_world(world), hlr_path)
    write_block_map(block_map_from_grid(grid), llr_path)


# -- validated reading --------------------------------------------------------


def _load_json(path: PathLike) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}",
            path=str(path), line=err.lineno, column=err.colno,
        ) from err


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# The per-value readers run once per block-map field: they format a message only on failure.
def _read_int(value: Any, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{context}: expected integer, got {value!r}")
    return value


def _read_coord(value: Any, context: str) -> int:
    """An integer on the signed 64-bit lattice that geometry.Position accepts."""
    if not isinstance(value, int) or isinstance(value, bool) or not COORD_MIN <= value <= COORD_MAX:
        raise ValidationError(f"{context}: expected signed 64-bit integer, got {value!r}")
    return value


def _read_str(value: Any, context: str) -> str:
    if not isinstance(value, str) or value == "":
        raise ValidationError(f"{context}: expected nonempty string, got {value!r}")
    return value


def _read_object(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{context}: expected an object, got {type(value).__name__}")
    return value


def _read_list(value: Any, context: str, read_item: Callable[[Any, str], Any]) -> list:
    """A JSON list whose every element passes read_item (_read_object or _read_str)."""
    _require(isinstance(value, list), f"{context}: expected a list, got {type(value).__name__}")
    for item in value:
        read_item(item, context)
    return value


def _read_position(value: Any, context: str) -> Position:
    _require(isinstance(value, list) and len(value) == 3, f"{context}: expected [x, y, z], got {value!r}")
    return Position(*(_read_coord(v, context) for v in value))


def _read_bounds(value: Any, context: str) -> tuple[Position, Position]:
    _require(isinstance(value, dict), f"{context}: expected bounds object")
    tl = _read_position(value.get("top_left"), f"{context}.top_left")
    br = _read_position(value.get("bottom_right"), f"{context}.bottom_right")
    _require(
        tl.x <= br.x and tl.y <= br.y and tl.z <= br.z,
        f"{context}: top_left must be <= bottom_right per axis",
    )
    return tl, br


def _read_equipment(value: Any, context: str) -> tuple[tuple[str, str], ...]:
    if value is None:
        return ()
    _require(isinstance(value, dict), f"{context}: expected equipment object")
    for slot, item in value.items():
        _require(slot in EQUIPMENT_SLOTS, f"{context}: unknown equipment slot {slot!r}")
        _read_str(item, f"{context}.{slot}")
    return tuple(value.items())


def _check_schema_version(data: Any, path: PathLike) -> None:
    _require(isinstance(data, dict), f"{path}: document root must be an object")
    version = data.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})",
    )


def read_semantic_map(path: PathLike) -> SemanticMap:
    """Parse and validate a semantic-map file."""
    data = _load_json(path)
    _check_schema_version(data, path)
    map_id = _read_str(data.get("id"), f"{path}: id")
    seen_ids: set[str] = set()

    def claim_id(raw: dict, kind: str) -> str:
        """The record's id, which no earlier location or record may already use."""
        item_id = _read_str(raw.get("id"), f"{kind} id")
        _require(item_id not in seen_ids, f"duplicate id {item_id!r}")
        seen_ids.add(item_id)
        return item_id

    locations = []
    for raw in _read_list(data.get("locations", []), f"{path}: locations", _read_object):
        loc_id = claim_id(raw, "location")
        tl, br = _read_bounds(raw.get("bounds"), f"location {loc_id}: bounds")
        locations.append(
            LocationRecord(
                id=loc_id,
                location_type=_read_str(raw.get("type"), f"location {loc_id}: type"),
                material=_read_str(raw.get("material"), f"location {loc_id}: material"),
                top_left=tl,
                bottom_right=br,
                child_ids=tuple(_read_list(raw.get("child_ids", []), f"location {loc_id}: child id", _read_str)),
            )
        )
    location_ids = set(seen_ids)

    # child_ids must form a forest: every child exists, has one parent, and
    # following parents never loops.
    parent: dict[str, str] = {}
    for loc in locations:
        for child_id in loc.child_ids:
            _require(child_id in location_ids, f"location {loc.id!r} lists unknown child {child_id!r}")
            _require(child_id not in parent, f"location {child_id!r} has more than one parent")
            parent[child_id] = loc.id
    for loc in locations:
        seen = {loc.id}
        cursor = loc.id
        while cursor in parent:
            cursor = parent[cursor]
            _require(cursor not in seen, f"location hierarchy cycle through {loc.id!r}")
            seen.add(cursor)

    def location_ref(ref: Any, owner: str) -> Optional[str]:
        """A reference that is null or names a declared location."""
        _require(ref is None or (isinstance(ref, str) and ref in location_ids),
                 f"{owner} references unknown location {ref!r}")
        return ref

    connections = []
    for raw in _read_list(data.get("connections", []), f"{path}: connections", _read_object):
        conn_id = claim_id(raw, "connection")
        connected = _read_list(raw.get("connected_ids", []), f"connection {conn_id}: connected id", _read_str)
        _require(len(connected) >= 2, f"connection {conn_id!r} must name at least 2 locations")
        for ref in connected:
            location_ref(ref, f"connection {conn_id!r}")
        tl, br = _read_bounds(raw.get("bounds"), f"connection {conn_id}: bounds")
        connections.append(
            ConnectionRecord(conn_id, _read_str(raw.get("type"), f"connection {conn_id}: type"), tl, br, tuple(connected))
        )

    entities = []
    for raw in _read_list(data.get("entities", []), f"{path}: entities", _read_object):
        ent_id = claim_id(raw, "entity")
        entities.append(
            EntityRecord(
                id=ent_id,
                entity_type=_read_str(raw.get("type"), f"entity {ent_id}: type"),
                position=_read_position(raw.get("position"), f"entity {ent_id}: position"),
                location_id=location_ref(raw.get("location_id"), f"entity {ent_id!r}"),
                equipment=_read_equipment(raw.get("equipment"), f"entity {ent_id}: equipment"),
            )
        )

    objects = []
    for raw in _read_list(data.get("objects", []), f"{path}: objects", _read_object):
        obj_id = claim_id(raw, "object")
        objects.append(
            ObjectRecord(
                id=obj_id,
                object_type=_read_str(raw.get("type"), f"object {obj_id}: type"),
                material=_read_str(raw.get("material"), f"object {obj_id}: material"),
                position=_read_position(raw.get("position"), f"object {obj_id}: position"),
                location_id=location_ref(raw.get("location_id"), f"object {obj_id!r}"),
            )
        )

    return SemanticMap(map_id, tuple(locations), tuple(connections), tuple(entities), tuple(objects))


def read_block_map(path: PathLike) -> BlockMapDocument:
    """Parse and validate a block-map file. Input order is free; the document sorts."""
    data = _load_json(path)
    _check_schema_version(data, path)

    blocks = []
    seen_cells: set[tuple[int, int, int]] = set()
    for raw in _read_list(data.get("blocks", []), f"{path}: blocks", _read_object):
        material = _read_str(raw.get("material"), "block material")
        cell = (
            _read_coord(raw.get("x"), "block x"),
            _read_coord(raw.get("y"), "block y"),
            _read_coord(raw.get("z"), "block z"),
        )
        _require(cell not in seen_cells, f"duplicate block coordinates {cell}")
        seen_cells.add(cell)
        blocks.append(BlockRecord(material, *cell))

    entities = []
    for raw in _read_list(data.get("entities", []), f"{path}: entities", _read_object):
        entity_type = _read_str(raw.get("type"), "entity type")
        entities.append(
            BlockEntityRecord(
                entity_type,
                _read_coord(raw.get("x"), f"entity {entity_type}: x"),
                _read_coord(raw.get("y"), f"entity {entity_type}: y"),
                _read_coord(raw.get("z"), f"entity {entity_type}: z"),
                _read_equipment(raw.get("equipment"), f"entity {entity_type}: equipment"),
            )
        )
    # Free the parsed JSON before the document sorts the rows: the sort keys
    # then reuse its memory instead of raising the peak.
    del data, seen_cells
    return BlockMapDocument(blocks=blocks, entities=entities)
