"""The two lockstep output documents: the semantic map and the block map.

Both are UTF-8 JSON with schema_version "1"; the field-by-field contract
lives in docs/file-formats.md. The document types own their invariants: on
construction, by a reader or by library code, a document keeps a sorted copy
of every list (records by id, id lists and equipment sorted, block and entity
rows by coordinates) and raises ValidationError unless every id, type,
material and equipment item is a nonempty string UTF-8 can encode (the rule
of ``geometry._check_name``, which the readers apply too), its ids are unique,
child_ids form a forest, every reference names a declared location, no two
blocks share a cell, bounds corners are in order and every equipment slot is
one of EQUIPMENT_SLOTS and named at most once per entity. Writers only encode:
keys in a fixed order, "\n" line endings, ASCII output. Writing what you just
read reproduces the file.

The format is what ``json.dumps(indent=2, ensure_ascii=True)`` lays out. The
semantic map goes through ``json.dump``, which writes the text as it encodes
it instead of joining it into one string first. The block map, one row per
cell, is held as sorted plain ``(x, y, z, material)`` tuples, the only form a
block takes here, and streamed: each row fills a fixed template, with every
distinct string encoded once by ``json.dumps``, and no per-row object or
whole-document string is built.
Both writers replace the target only once the new file is complete, so a
failure part-way leaves the previous file as it was.

Readers only parse: they check shapes, types, coordinate range and that
each string can be written back as UTF-8, then construct the document. The
block-map reader builds each block's row while the file is parsed, whatever
the order of its keys, so the parsed document never holds one object per
block, and then checks the rows a column at a time. A file that fails that
way is parsed again as plain JSON and read one field at a time, which names
the first bad field. Readers raise ParseError (undecodable or malformed
JSON, naming the line where known) or ValidationError.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TextIO, Union

from .errors import ParseError, ValidationError, VoxgenError
from .geometry import (
    COORD_MAX,
    COORD_MIN,
    EQUIPMENT_SLOTS,
    Position,
    WorldModel,
    _check_name,
    _corners_in_order,
    _is_utf8,
    _lattice_point,
)
from .raster import BlockGrid

SCHEMA_VERSION = "1"

PathLike = Union[str, Path]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _check_bounds(top_left: Position, bottom_right: Position, context: str) -> None:
    _require(_corners_in_order(top_left, bottom_right), f"{context}: top_left must be <= bottom_right per axis")


def _check_names(kind: str, **names: object) -> None:
    """ValidationError unless every value passes geometry's name rule, the one the readers apply."""
    for field_name, value in names.items():
        _check_name(value, f"{kind} {field_name}", ValidationError)


def _check_equipment(equipment: tuple[tuple[str, str], ...], context: str) -> None:
    seen: set[str] = set()
    for slot, item in equipment:
        _require(slot in EQUIPMENT_SLOTS, f"{context}: unknown equipment slot {slot!r}")
        _require(slot not in seen, f"{context}: repeated equipment slot {slot!r}")
        _check_name(item, f"{context}: {slot} item", ValidationError)
        seen.add(slot)


@dataclass(frozen=True)
class LocationRecord:
    id: str
    location_type: str
    material: str
    top_left: Position
    bottom_right: Position
    child_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_names("location", id=self.id, type=self.location_type, material=self.material)
        _check_bounds(self.top_left, self.bottom_right, f"location {self.id}: bounds")
        object.__setattr__(self, "child_ids", tuple(sorted(self.child_ids)))


@dataclass(frozen=True)
class ConnectionRecord:
    id: str
    connection_type: str
    top_left: Position
    bottom_right: Position
    connected_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_names("connection", id=self.id, type=self.connection_type)
        _check_bounds(self.top_left, self.bottom_right, f"connection {self.id}: bounds")
        object.__setattr__(self, "connected_ids", tuple(sorted(self.connected_ids)))


@dataclass(frozen=True)
class EntityRecord:
    id: str
    entity_type: str
    position: Position
    location_id: Optional[str]
    equipment: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _check_names("entity", id=self.id, type=self.entity_type)
        _check_equipment(self.equipment, f"entity {self.id}: equipment")
        object.__setattr__(self, "equipment", tuple(sorted(self.equipment)))


@dataclass(frozen=True)
class ObjectRecord:
    id: str
    object_type: str
    material: str
    position: Position
    location_id: Optional[str]

    def __post_init__(self) -> None:
        _check_names("object", id=self.id, type=self.object_type, material=self.material)


@dataclass(frozen=True)
class SemanticMap:
    """The high-level document: named locations, hierarchy, connections, items.

    ``depths`` maps each location id to its depth in the forest (roots are 0).
    """

    id: str
    locations: tuple[LocationRecord, ...] = ()
    connections: tuple[ConnectionRecord, ...] = ()
    entities: tuple[EntityRecord, ...] = ()
    objects: tuple[ObjectRecord, ...] = ()
    depths: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_names("semantic map", id=self.id)
        for name in ("locations", "connections", "entities", "objects"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name), key=lambda r: r.id)))
        claimed: set[str] = set()
        for records in (self.locations, self.connections, self.entities, self.objects):
            for record in records:
                _require(record.id not in claimed, f"duplicate id {record.id!r}")
                claimed.add(record.id)
        by_id = {loc.id: loc for loc in self.locations}

        # child_ids must form a forest: every child exists and has one parent,
        # and walking down from the roots reaches every location.
        children: set[str] = set()
        for loc in self.locations:
            for child_id in loc.child_ids:
                _require(child_id in by_id, f"location {loc.id!r} lists unknown child {child_id!r}")
                _require(child_id not in children, f"location {child_id!r} has more than one parent")
                children.add(child_id)
        reached = [loc_id for loc_id in by_id if loc_id not in children]
        depths = dict.fromkeys(reached, 0)
        for loc_id in reached:  # grows as the walk reaches children
            for child_id in by_id[loc_id].child_ids:
                depths[child_id] = depths[loc_id] + 1
                reached.append(child_id)
        for loc_id in by_id:
            _require(loc_id in depths, f"location hierarchy cycle through {loc_id!r}")
        object.__setattr__(self, "depths", depths)

        for conn in self.connections:
            _require(len(conn.connected_ids) >= 2, f"connection {conn.id!r} must name at least 2 locations")
            for ref in conn.connected_ids:
                _require(ref in by_id, f"connection {conn.id!r} references unknown location {ref!r}")
        for kind, records in (("entity", self.entities), ("object", self.objects)):
            for record in records:
                _require(record.location_id is None or record.location_id in by_id,
                         f"{kind} {record.id!r} references unknown location {record.location_id!r}")

    def connected_pairs(self) -> list[tuple[str, str]]:
        """Sorted unordered pairs of locations that share a connection, smaller id first."""
        pairs = set()
        for conn in self.connections:
            pairs.update(itertools.combinations(sorted(set(conn.connected_ids)), 2))
        return sorted(pairs)


@dataclass(frozen=True)
class BlockEntityRecord:
    entity_type: str
    x: int
    y: int
    z: int
    equipment: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _check_names("entity", type=self.entity_type)
        _check_equipment(self.equipment, f"entity {self.entity_type}: equipment")
        object.__setattr__(self, "equipment", tuple(sorted(self.equipment)))


# A block as the block map stores it: its cell, then its material.
BlockRow = tuple[int, int, int, str]

_CELL = operator.itemgetter(0, 1, 2)
_MATERIAL = operator.itemgetter(3)


@dataclass(frozen=True)
class BlockMapDocument:
    """The low-level document: every block and entity in the flattened world, one block per cell.

    The blocks are ``rows``, plain ``(x, y, z, material)`` tuples, given in
    any order and kept sorted as tuples, which is (x, y, z) order because no
    two share a cell.
    """

    rows: tuple[BlockRow, ...] = ()
    entities: tuple[BlockEntityRecord, ...] = ()

    def __post_init__(self) -> None:
        rows = sorted(self.rows)
        # Each distinct material once, in row order, so the first bad one is named.
        for material in dict.fromkeys(map(_MATERIAL, rows)):
            _check_name(material, "block material", ValidationError)
        same_cell = map(operator.eq, map(_CELL, rows), map(_CELL, itertools.islice(rows, 1, None)))
        duplicate = next(itertools.compress(rows, same_cell), None)
        if duplicate is not None:
            raise ValidationError(f"duplicate block coordinates {_CELL(duplicate)}")
        object.__setattr__(self, "rows", tuple(rows))
        entities = sorted(self.entities, key=lambda e: (e.x, e.y, e.z, e.entity_type, e.equipment))
        object.__setattr__(self, "entities", tuple(entities))


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
    rows = [(x, y, z, material) for (x, y, z), material in grid.cells.items()]
    entities = [
        BlockEntityRecord(e.entity_type, *e.position, _equipment_items(e.equipment)) for e in grid.entities
    ]
    return BlockMapDocument(rows=rows, entities=entities)


# -- canonical JSON writing --------------------------------------------------


def _semantic_map_json(m: SemanticMap) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": m.id,
        "locations": [
            {
                "id": r.id,
                "type": r.location_type,
                "material": r.material,
                "bounds": {"top_left": list(r.top_left), "bottom_right": list(r.bottom_right)},
                "child_ids": list(r.child_ids),
            }
            for r in m.locations
        ],
        "connections": [
            {
                "id": r.id,
                "type": r.connection_type,
                "bounds": {"top_left": list(r.top_left), "bottom_right": list(r.bottom_right)},
                "connected_ids": list(r.connected_ids),
            }
            for r in m.connections
        ],
        "entities": [
            {
                "id": r.id,
                "type": r.entity_type,
                "position": list(r.position),
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
                "position": list(r.position),
                "location_id": r.location_id,
            }
            for r in m.objects
        ],
    }


def _write_atomically(path: PathLike, write: Callable[[TextIO], None]) -> None:
    """Write a text file through write(handle), all or nothing.

    The text goes to a temporary sibling that then replaces the target, so an
    exception part-way leaves the previous file (or no file) and no temporary
    behind. The file gets the mode that ``open(path, "w")`` gives a new file
    under the umask. A symbolic link is followed, and a target that exists but
    is not a regular file (a device, a FIFO) is written in place, because
    replacing it would destroy it.
    """
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    temp = None if in_place else f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temp or target, "x" if temp else "w", encoding="utf-8", newline="\n") as handle:
            write(handle)
        if temp:
            os.replace(temp, target)
    except BaseException as err:
        if temp:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        if isinstance(err, OSError):
            # strerror, not err: err names the temporary file.
            raise OSError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def write_semantic_map(m: SemanticMap, path: PathLike) -> None:
    doc = _semantic_map_json(m)

    def write(handle: TextIO) -> None:
        json.dump(doc, handle, indent=2, ensure_ascii=True)
        handle.write("\n")

    _write_atomically(path, write)


# Block-map rows as json.dumps(indent=2) lays them out, strings already encoded.
_BLOCK_ROW = '    {\n      "material": %s,\n      "x": %d,\n      "y": %d,\n      "z": %d\n    }'
_ENTITY_ROW = '    {\n      "type": %s,\n      "x": %d,\n      "y": %d,\n      "z": %d%s\n    }'
_EQUIPMENT = ',\n      "equipment": {\n%s\n      }'
_EQUIPMENT_ITEM = "        %s: %s"


def _encode(text: str) -> str:
    return json.dumps(text, ensure_ascii=True)


def _write_list(handle: TextIO, rows: Iterable[str]) -> None:
    """A list of a top-level key, its rows already laid out, as json.dumps(indent=2) writes it."""
    separator = "[\n"
    for row in rows:
        handle.write(separator + row)
        separator = ",\n"
    handle.write("[]" if separator == "[\n" else "\n  ]")


def _equipment_json(equipment: tuple[tuple[str, str], ...]) -> str:
    if not equipment:
        return ""
    return _EQUIPMENT % ",\n".join(_EQUIPMENT_ITEM % (_encode(slot), _encode(item)) for slot, item in equipment)


def _write_block_map_rows(doc: BlockMapDocument, handle: TextIO) -> None:
    materials = {material: _encode(material) for material in set(map(_MATERIAL, doc.rows))}
    handle.write('{\n  "schema_version": %s,\n  "blocks": ' % _encode(SCHEMA_VERSION))
    _write_list(handle, (_BLOCK_ROW % (materials[material], x, y, z) for x, y, z, material in doc.rows))
    handle.write(',\n  "entities": ')
    _write_list(handle, (
        _ENTITY_ROW % (_encode(e.entity_type), e.x, e.y, e.z, _equipment_json(e.equipment)) for e in doc.entities
    ))
    handle.write("\n}\n")


def write_block_map(doc: BlockMapDocument, path: PathLike) -> None:
    _write_atomically(path, lambda handle: _write_block_map_rows(doc, handle))


def write_world(world: WorldModel, grid: BlockGrid, hlr_path: PathLike, llr_path: PathLike) -> None:
    """Write the semantic map and block map for a world and its grid, to two different files."""
    if Path(hlr_path).resolve() == Path(llr_path).resolve():
        raise VoxgenError(f"the semantic map and the block map would both be written to {llr_path}")
    write_semantic_map(semantic_map_from_world(world), hlr_path)
    write_block_map(block_map_from_grid(grid), llr_path)


# -- validated reading --------------------------------------------------------


# What decoding and parsing JSON text raises: JSONDecodeError,
# UnicodeDecodeError and the integer-digit limit are ValueErrors.
_PARSE_FAILURES = (ValueError, RecursionError)


def _parse_error(path: PathLike, err: Exception, line: int = 0) -> ParseError:
    """The ParseError for err, one of _PARSE_FAILURES; line is the file line being parsed, if known."""
    column, reason = 0, str(err)
    if isinstance(err, json.JSONDecodeError):
        line, column, reason = line or err.lineno, err.colno, err.msg
    elif isinstance(err, UnicodeDecodeError):
        # A text reader decodes in chunks: find the first bad byte in the whole file.
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as first:
            line = raw.count(b"\n", 0, first.start) + 1
        reason = f"not UTF-8 ({err.reason})"
    elif isinstance(err, RecursionError):
        reason = "nesting too deep"
    where = f"line {line} column {column}: " if column else f"line {line}: " if line else ""
    return ParseError(f"{path}: {where}{reason}", path=str(path), line=line, column=column)


def _load_json(path: PathLike, object_pairs_hook: Optional[Callable[[list], Any]] = None) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=object_pairs_hook)
    except _PARSE_FAILURES as err:
        raise _parse_error(path, err) from err


# The per-value readers format a message only on failure.
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
    """A nonempty string that can be written back out as UTF-8."""
    if not isinstance(value, str) or value == "":
        raise ValidationError(f"{context}: expected nonempty string, got {value!r}")
    if not value.isascii() and not _is_utf8(value):
        raise ValidationError(f"{context}: expected a string UTF-8 can encode, got {value!r}")
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
    # _read_coord makes Position's checks, so they do not run twice.
    return _lattice_point(*(_read_coord(v, context) for v in value))


def _read_bounds(value: Any, context: str) -> tuple[Position, Position]:
    _require(isinstance(value, dict), f"{context}: expected bounds object")
    tl = _read_position(value.get("top_left"), f"{context}.top_left")
    br = _read_position(value.get("bottom_right"), f"{context}.bottom_right")
    return tl, br


def _read_equipment(value: Any, context: str) -> tuple[tuple[str, str], ...]:
    if value is None:
        return ()
    _require(isinstance(value, dict), f"{context}: expected equipment object")
    for slot, item in value.items():
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
    """Parse a semantic-map file; the SemanticMap checks its own invariants."""
    data = _load_json(path)
    _check_schema_version(data, path)
    map_id = _read_str(data.get("id"), f"{path}: id")

    def location_ref(ref: Any, owner: str) -> Optional[str]:
        """Null or a string; the document checks that a string names a location."""
        _require(ref is None or isinstance(ref, str), f"{owner} references unknown location {ref!r}")
        return ref

    locations = []
    for raw in _read_list(data.get("locations", []), f"{path}: locations", _read_object):
        loc_id = _read_str(raw.get("id"), "location id")
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

    connections = []
    for raw in _read_list(data.get("connections", []), f"{path}: connections", _read_object):
        conn_id = _read_str(raw.get("id"), "connection id")
        connected = _read_list(raw.get("connected_ids", []), f"connection {conn_id}: connected id", _read_str)
        tl, br = _read_bounds(raw.get("bounds"), f"connection {conn_id}: bounds")
        connections.append(
            ConnectionRecord(conn_id, _read_str(raw.get("type"), f"connection {conn_id}: type"), tl, br, tuple(connected))
        )

    entities = []
    for raw in _read_list(data.get("entities", []), f"{path}: entities", _read_object):
        ent_id = _read_str(raw.get("id"), "entity id")
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
        obj_id = _read_str(raw.get("id"), "object id")
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


_BLOCK_KEYS = {"material", "x", "y", "z"}


def _block_row(pairs: list[tuple[str, Any]]) -> Any:
    """The block-map reader's object_pairs_hook: a block's row as soon as it is parsed.

    An object whose keys are exactly material, x, y and z, in any order,
    becomes an (x, y, z, material) tuple; any other object becomes the dict
    json would give. JSON itself never gives a tuple. The writer's key order
    is tested first, without building the dict.
    """
    if len(pairs) == 4:
        (k0, material), (k1, x), (k2, y), (k3, z) = pairs
        if k0 == "material" and k1 == "x" and k2 == "y" and k3 == "z":
            return (x, y, z, material)
        block = dict(pairs)
        if block.keys() == _BLOCK_KEYS:
            return (block["x"], block["y"], block["z"], block["material"])
        return block
    return dict(pairs)


def _is_coord_column(column: list) -> bool:
    """Whether every value is what _read_coord accepts."""
    return (
        set(map(type, column)) <= {int}
        and COORD_MIN <= min(column, default=0)
        and max(column, default=0) <= COORD_MAX
    )


def _parsed_block_rows(value: Any, context: str) -> list[BlockRow]:
    """value itself, a blocks list parsed with _block_row, once its rows pass the checks.

    The checks run a column at a time, in C: every block became a row, then
    each coordinate column's types and range, and the material column's
    types; the document then checks each distinct material once. A failure
    raises a ValidationError that names no field; read_block_map then reads
    the file the plain way.
    """
    failed = f"{context}: not the rows of valid blocks"
    _require(type(value) is list and set(map(type, value)) <= {tuple}, failed)
    for column in range(3):
        _require(_is_coord_column(list(map(operator.itemgetter(column), value))), failed)
    _require(set(map(type, map(_MATERIAL, value))) <= {str}, failed)
    return value


def _read_block_rows(value: Any, context: str) -> list[BlockRow]:
    """The (x, y, z, material) rows of a plainly parsed blocks list, read one field at a time.

    Raises the message naming the first bad field: rows that are not objects
    first, then per row its material, x, y, z.
    """
    rows = []
    for raw in _read_list(value, context, _read_object):
        material = _read_str(raw.get("material"), "block material")
        rows.append((
            _read_coord(raw.get("x"), "block x"),
            _read_coord(raw.get("y"), "block y"),
            _read_coord(raw.get("z"), "block z"),
            material,
        ))
    return rows


def _read_block_map_fields(
    data: Any, path: PathLike, read_rows: Callable[[Any, str], list[BlockRow]]
) -> tuple[list[BlockRow], list[BlockEntityRecord]]:
    """The block rows, read by read_rows, and the entity records of a parsed block map."""
    _check_schema_version(data, path)
    rows = read_rows(data.get("blocks", []), f"{path}: blocks")
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
    return rows, entities


def read_block_map(path: PathLike) -> BlockMapDocument:
    """Parse a block-map file. Input order is free; the document sorts and checks.

    The file is parsed with _block_row, its rows checked a column at a time
    and the document built from them. If anything fails that way (a malformed
    file or document, or a block with keys other than material, x, y and z),
    the file is parsed again as plain JSON and read one field at a time, so
    the result or message is the one a plain parse gives and no tuple reaches
    a message. Either way the parsed JSON is gone once the fields are read,
    so the document's sorted copy of the rows reuses its memory instead of
    raising the peak.
    """
    with contextlib.suppress(VoxgenError):
        return BlockMapDocument(*_read_block_map_fields(_load_json(path, _block_row), path, _parsed_block_rows))
    return BlockMapDocument(*_read_block_map_fields(_load_json(path), path, _read_block_rows))
