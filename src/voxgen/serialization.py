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
one of EQUIPMENT_SLOTS and named at most once per entity. A record keeps each
of its points as a Position, built with Position(*point) if given otherwise,
and a block-map entity's x, y and z are signed 64-bit ints. A block row is
checked in one place, ``BlockMapDocument``, whoever built it: an
``(x, y, z, material)`` tuple with signed 64-bit int coordinates, checked in
one walk over the rows. Writers only encode: keys in a fixed order, "\n" line
endings, ASCII output. Writing what you just read reproduces the file.

Every record and document is a checked tuple (``geometry._checked_tuple``):
a namedtuple whose ``__new__`` checks its fields one at a time, naming the
first bad one, and that equals, hashes and unpacks as the tuple of its fields.
The semantic-map records (one per item read) first test the usual values in
one expression, and the block-row walk a batch of rows a column at a time; a
session builds a few hundred others.
``SemanticMap.depths`` is kept outside the tuple.

The format is what ``json.dumps(indent=2, ensure_ascii=True)`` lays out. The
semantic map goes through ``json.dump``, which writes the text as it encodes
it instead of joining it into one string first. The block map, one row per
cell, is held as columns in cell order (``BlockRows``: three ``array('q')``
of coordinates and an index into a table of distinct materials), read as
plain ``(x, y, z, material)`` tuples, and streamed: each row fills a fixed
template, a batch of rows joined at a time, with each document's materials
encoded once by ``json.dumps``, and no per-row object or whole-document
string is built; the few entities go through ``json.dumps``.
``write_world`` writes a grid's block map one x-slab at a time, as one
document per slab (``BlockGrid.slabs``), so it holds one slab's rows at a
time. Both writers replace the target only once the new file is complete,
and ``write_world`` replaces its two targets only once both are, so a
failure part-way leaves the previous files as they were.

Readers parse, check what the records cannot see (the JSON shape: lists,
objects and the schema version) and construct the records and the document,
whose own checks are the rest. The semantic-map reader builds each record
straight from its parsed object; only if that raises does it read the same
parsed data one field at a time, which names the first bad field in the
reader's words. The block-map reader reads a file in the writer's own layout
a chunk at a time, each chunk's blocks going straight into the document's
columns, so it holds one chunk's text and objects, never the file's. Any
other file, or one that fails, is parsed whole: each block's row
is built while the file is parsed, whatever the order of its keys, with one
string per distinct material and one int per distinct integer literal, and
the rows go to the document, which checks them. If that fails, the same
parse, rows turned back into objects, is read field by field.
Readers raise ParseError (undecodable or malformed JSON, naming the line
where known) or ValidationError.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TextIO, Union

from .blockrows import _X, _Y, _Z, BlockRow, BlockRows, _Columns
from .errors import CoordinateOverflowError, ParseError, ValidationError, VoxgenError
from .geometry import (
    COORD_MAX,
    COORD_MIN,
    EQUIPMENT_SLOTS,
    Position,
    WorldModel,
    _as_position,
    _check_name,
    _checked_tuple,
    _corners_in_order,
    _is_utf8,
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


def _points(kind: str, record_id: object, **points: Any) -> list[Position]:
    """Each of a record's named points as a Position; ValidationError naming the record and field Position refuses."""
    checked = []
    for name, value in points.items():
        try:
            checked.append(_as_position(value))
        except (TypeError, CoordinateOverflowError):
            raise ValidationError(
                f"{kind} {record_id}: {name}: expected three signed 64-bit integers, got {value!r}"
            ) from None
    return checked


def _check_equipment(equipment: tuple[tuple[str, str], ...], context: str) -> None:
    seen: set[str] = set()
    for slot, item in equipment:
        _require(slot in EQUIPMENT_SLOTS, f"{context}: unknown equipment slot {slot!r}")
        _require(slot not in seen, f"{context}: repeated equipment slot {slot!r}")
        _check_name(item, f"{context}: {slot} item", ValidationError)
        seen.add(slot)


def _ascii_names(names: list) -> bool:
    """Whether names are all nonempty ASCII strs: the fast test of an id list. join refuses a non-str in C."""
    try:
        return "".join(names).isascii() and all(names)
    except TypeError:
        return False


# A semantic-map read builds one of these per item, so each __new__ tests the usual fields in one
# expression, and only when that fails checks them one at a time, which names the first bad one.


class LocationRecord(_checked_tuple("LocationRecord", "id location_type material top_left bottom_right child_ids")):
    __slots__ = ()

    def __new__(
        cls, id: str, location_type: str, material: str, top_left: Position, bottom_right: Position,
        child_ids: Iterable[str],
    ) -> "LocationRecord":
        child_ids = list(child_ids)  # checked, then sorted in place
        if not (type(id) is type(location_type) is type(material) is str and id and location_type and material
                and id.isascii() and location_type.isascii() and material.isascii()
                and type(top_left) is type(bottom_right) is Position and _corners_in_order(top_left, bottom_right)
                and _ascii_names(child_ids)):
            _check_names("location", id=id, type=location_type, material=material)
            top_left, bottom_right = _points("location", id, top_left=top_left, bottom_right=bottom_right)
            _check_bounds(top_left, bottom_right, f"location {id}: bounds")
            for child_id in child_ids:  # before the sort can meet a bad one
                _check_name(child_id, f"location {id}: child id", ValidationError)
        child_ids.sort()
        return tuple.__new__(cls, (id, location_type, material, top_left, bottom_right, tuple(child_ids)))


class ConnectionRecord(_checked_tuple("ConnectionRecord", "id connection_type top_left bottom_right connected_ids")):
    __slots__ = ()

    def __new__(
        cls, id: str, connection_type: str, top_left: Position, bottom_right: Position, connected_ids: Iterable[str]
    ) -> "ConnectionRecord":
        connected_ids = list(connected_ids)
        if not (type(id) is type(connection_type) is str and id and connection_type and id.isascii()
                and connection_type.isascii() and type(top_left) is type(bottom_right) is Position
                and _corners_in_order(top_left, bottom_right) and _ascii_names(connected_ids)):
            _check_names("connection", id=id, type=connection_type)
            top_left, bottom_right = _points("connection", id, top_left=top_left, bottom_right=bottom_right)
            _check_bounds(top_left, bottom_right, f"connection {id}: bounds")
            for connected_id in connected_ids:
                _check_name(connected_id, f"connection {id}: connected id", ValidationError)
        connected_ids.sort()
        return tuple.__new__(cls, (id, connection_type, top_left, bottom_right, tuple(connected_ids)))


class EntityRecord(_checked_tuple("EntityRecord", "id entity_type position location_id equipment")):
    __slots__ = ()

    def __new__(
        cls, id: str, entity_type: str, position: Position, location_id: Optional[str],
        equipment: Iterable[tuple[str, str]] = (),
    ) -> "EntityRecord":
        if not (type(id) is type(entity_type) is str and id and entity_type and id.isascii()
                and entity_type.isascii() and type(position) is Position and not equipment):
            _check_names("entity", id=id, type=entity_type)
            position, = _points("entity", id, position=position)
            equipment = tuple(equipment)
            _check_equipment(equipment, f"entity {id}: equipment")
        return tuple.__new__(cls, (id, entity_type, position, location_id, tuple(sorted(equipment))))


class ObjectRecord(_checked_tuple("ObjectRecord", "id object_type material position location_id")):
    __slots__ = ()

    def __new__(
        cls, id: str, object_type: str, material: str, position: Position, location_id: Optional[str]
    ) -> "ObjectRecord":
        if not (type(id) is type(object_type) is type(material) is str and id and object_type and material
                and id.isascii() and object_type.isascii() and material.isascii() and type(position) is Position):
            _check_names("object", id=id, type=object_type, material=material)
            position, = _points("object", id, position=position)
        return tuple.__new__(cls, (id, object_type, material, position, location_id))


_ID = operator.attrgetter("id")


def _sorted_records(items: Iterable, record_type: type, key: Callable, what: str) -> tuple:
    """items sorted by key; ValidationError naming what and the type of the first item not a record_type instance."""
    items = tuple(items)
    for wrong in itertools.filterfalse(record_type.__instancecheck__, items):
        raise ValidationError(f"{what}: expected {record_type.__name__} items, got {type(wrong).__name__}")
    return tuple(sorted(items, key=key))


class SemanticMap(_checked_tuple("SemanticMap", "id locations connections entities objects")):
    """The high-level document: named locations, hierarchy, connections, items.

    ``depths`` maps each location id to its depth in the forest (roots are 0).
    It is kept outside the tuple, so equality, hashing and repr leave it out,
    and it cannot be assigned, like the fields.
    """

    # No __slots__: the instance dict holds depths, and only depths.

    def __new__(
        cls, id: str, locations: Iterable[LocationRecord] = (), connections: Iterable[ConnectionRecord] = (),
        entities: Iterable[EntityRecord] = (), objects: Iterable[ObjectRecord] = (),
    ) -> "SemanticMap":
        _check_names("semantic map", id=id)
        lists = zip(cls._fields[1:], (locations, connections, entities, objects),
                    (LocationRecord, ConnectionRecord, EntityRecord, ObjectRecord))
        records = [_sorted_records(items, kind, _ID, f"semantic map {name}") for name, items, kind in lists]
        self = tuple.__new__(cls, (id, *records))
        locations, connections, entities, objects = records
        # Each check builds its message only when it fails.
        claimed: set[str] = set()
        for record in itertools.chain.from_iterable(records):
            if record.id in claimed:
                raise ValidationError(f"duplicate id {record.id!r}")
            claimed.add(record.id)
        by_id = {loc.id: loc for loc in locations}

        # child_ids must form a forest: every child exists and has one parent,
        # and walking down from the roots reaches every location.
        children: set[str] = set()
        for loc in locations:
            for child_id in loc.child_ids:
                if child_id not in by_id:
                    raise ValidationError(f"location {loc.id!r} lists unknown child {child_id!r}")
                if child_id in children:
                    raise ValidationError(f"location {child_id!r} has more than one parent")
                children.add(child_id)
        reached = [loc_id for loc_id in by_id if loc_id not in children]
        depths = dict.fromkeys(reached, 0)
        for loc_id in reached:  # grows as the walk reaches children
            for child_id in by_id[loc_id].child_ids:
                depths[child_id] = depths[loc_id] + 1
                reached.append(child_id)
        for loc_id in by_id:
            if loc_id not in depths:
                raise ValidationError(f"location hierarchy cycle through {loc_id!r}")
        object.__setattr__(self, "depths", depths)

        for conn in connections:
            if len(conn.connected_ids) < 2:
                raise ValidationError(f"connection {conn.id!r} must name at least 2 locations")
            for ref in conn.connected_ids:
                if ref not in by_id:
                    raise ValidationError(f"connection {conn.id!r} references unknown location {ref!r}")
        for kind, items in (("entity", entities), ("object", objects)):
            for record in items:
                if record.location_id is not None and record.location_id not in by_id:
                    raise ValidationError(f"{kind} {record.id!r} references unknown location {record.location_id!r}")
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def connected_pairs(self) -> list[tuple[str, str]]:
        """Sorted unordered pairs of locations that share a connection, smaller id first."""
        pairs = set()
        for conn in self.connections:
            pairs.update(itertools.combinations(sorted(set(conn.connected_ids)), 2))
        return sorted(pairs)


class BlockEntityRecord(_checked_tuple("BlockEntityRecord", "entity_type x y z equipment")):
    __slots__ = ()

    def __new__(
        cls, entity_type: str, x: int, y: int, z: int, equipment: Iterable[tuple[str, str]] = ()
    ) -> "BlockEntityRecord":
        _check_names("entity", type=entity_type)
        for axis, value in zip("xyz", (x, y, z)):
            _read_coord(value, f"entity {entity_type}: {axis}")
        equipment = tuple(equipment)
        _check_equipment(equipment, f"entity {entity_type}: equipment")
        return tuple.__new__(cls, (entity_type, x, y, z, tuple(sorted(equipment))))


# The order of a block map's entities.
_ENTITY_ORDER = operator.attrgetter("x", "y", "z", "entity_type", "equipment")

# Rows handled as one batch: a document checks a batch whole, a column at a time in C; the writer joins its text.
_BATCH_ROWS = 256


def _check_block_row(index: int, row: Any) -> None:
    """ValidationError naming row's first bad field: its shape, then x, y and z, then its material."""
    if type(row) is not tuple or len(row) != 4:
        raise ValidationError(f"block row {index} {row!r}: expected an (x, y, z, material) tuple")
    for axis, value in zip("xyz", row):
        if not (type(value) is int and COORD_MIN <= value <= COORD_MAX):
            _read_coord(value, f"block row {index} {row!r}: {axis}")
    _check_name(row[3], "block material", ValidationError)


class BlockMapDocument(_checked_tuple("BlockMapDocument", "rows entities")):
    """The low-level document: every block and entity in the flattened world, one block per cell.

    The blocks are given as ``rows``, plain ``(x, y, z, material)`` tuples
    in any order, and kept as ``BlockRows``: columns in cell order. This is
    the one check of a row, whoever built it: a 4-tuple whose x, y and z are
    ints (not bools) on the signed 64-bit lattice, as Position takes them,
    and whose material passes the readers' name rule, in a cell no other
    row takes. The rows are consumed in one walk, in the order given, a
    batch of _BATCH_ROWS at a time: a batch of plain values is checked a
    column at a time, and any other batch row by row (an int or str
    subclass passes), which names the first bad row and field. A BlockRows
    is taken as it is, already checked.
    """

    __slots__ = ()

    def __new__(
        cls, rows: Iterable[BlockRow] = (), entities: Iterable[BlockEntityRecord] = ()
    ) -> "BlockMapDocument":
        if type(rows) is not BlockRows:
            columns = _Columns()
            rows = iter(rows)
            for start in itertools.count(0, _BATCH_ROWS):
                batch = list(itertools.islice(rows, _BATCH_ROWS))
                if not batch:
                    break
                if not (set(map(type, batch)) == {tuple} and set(map(len, batch)) == {4}
                        and columns.add(*zip(*batch))):
                    for index, row in enumerate(batch, start):
                        _check_block_row(index, row)
                        columns.append(row)
            rows = columns.rows()
        entities = _sorted_records(entities, BlockEntityRecord, _ENTITY_ORDER, "block map entities")
        return tuple.__new__(cls, (rows, entities))


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


def _add_cells(columns: _Columns, cells: dict) -> bool:
    """Whether a grid's cells, sorted once, check into columns as whole columns."""
    try:
        keys = sorted(cells)
        cells_are_triples = set(map(len, keys)) <= {3}
    except TypeError:  # keys that do not sort, or have no length
        return False
    return cells_are_triples and columns.add(
        [*map(_X, keys)], [*map(_Y, keys)], [*map(_Z, keys)], [*map(cells.__getitem__, keys)]
    )


def block_map_from_grid(grid: BlockGrid) -> BlockMapDocument:
    """Project a block grid onto its block-map document, taking its cells one x-slab at a time.

    Each slab's cells are sorted and checked as whole columns. A grid with a
    cell the columns refuse is projected row by row, in the grid's order, so
    the document names the first bad cell.
    """
    entities = [
        BlockEntityRecord(e.entity_type, *e.position, _equipment_items(e.equipment)) for e in grid.entities
    ]
    columns = _Columns()
    if all(_add_cells(columns, slab.cells) for slab in grid.slabs()):
        return BlockMapDocument(columns.rows(), entities)
    rows = ((x, y, z, material) for slab in grid.slabs() for (x, y, z), material in slab.cells.items())
    return BlockMapDocument(rows, entities)


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


def _temporary_sibling(path: PathLike) -> Optional[str]:
    """A fresh name beside path's real target (a link is followed) to write it through, or None if the target
    exists but is not a regular file (a device, a FIFO): replacing that would destroy it, so it is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return None
    return f"{target}.{os.urandom(4).hex()}.tmp"


def _write_atomically(path: PathLike, write: Callable[[TextIO], None]) -> None:
    """Write a text file through write(handle), all or nothing.

    The text goes to a _temporary_sibling that then replaces the target, so
    an exception part-way leaves the previous file (or no file) and no
    temporary behind. The file gets the mode that ``open(path, "w")`` gives a
    new file under the umask.
    """
    temp = _temporary_sibling(path)
    try:
        with open(temp or path, "x" if temp else "w", encoding="utf-8", newline="\n") as handle:
            write(handle)
        if temp:
            os.replace(temp, os.path.realpath(path))
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


# A block-map row as json.dumps(indent=2) lays it out, its material already encoded.
_BLOCK_ROW = '    {\n      "material": %s,\n      "x": %d,\n      "y": %d,\n      "z": %d\n    }'


def _encode(text: str) -> str:
    return json.dumps(text, ensure_ascii=True)


def _write_block_map_rows(docs: Iterable[BlockMapDocument], handle: TextIO) -> None:
    """The one block map of docs, as json.dumps(indent=2) lays it out: each row from _BLOCK_ROW, _BATCH_ROWS rows
    joined at a time, each document's materials encoded once, then all the few entities by json. ValidationError if a
    document's cells do not follow the last's."""
    entities: list[BlockEntityRecord] = []
    last = None
    handle.write('{\n  "schema_version": %s,\n  "blocks": ' % _encode(SCHEMA_VERSION))
    separator = "[\n"
    for doc in docs:
        entities += doc.entities
        rows = doc.rows
        if not rows:
            continue
        if last is not None and rows[0][:3] <= last:
            raise ValidationError(f"block map document starting at {rows[0][:3]} does not come after {last}")
        last = rows[-1][:3]
        materials = [_encode(material) for material in rows.materials]
        texts = map(_BLOCK_ROW.__mod__, zip(map(materials.__getitem__, rows.material_index), rows.x, rows.y, rows.z))
        while batch := ",\n".join(itertools.islice(texts, _BATCH_ROWS)):
            handle.write(separator)
            handle.write(batch)
            separator = ",\n"
    handle.write("[]" if separator == "[\n" else "\n  ]")
    entities.sort(key=_ENTITY_ORDER)
    rows = [{"type": e.entity_type, "x": e.x, "y": e.y, "z": e.z} for e in entities]
    for row, e in zip(rows, entities):
        if e.equipment:
            row["equipment"] = dict(e.equipment)
    # One level deeper than json.dumps lays the list out; a JSON string holds no raw newline.
    handle.write(',\n  "entities": %s\n}\n' % json.dumps(rows, indent=2, ensure_ascii=True).replace("\n", "\n  "))


def write_block_map(doc: Union[BlockMapDocument, Iterable[BlockMapDocument]], path: PathLike) -> None:
    """Write one block-map document, or the one block map of documents whose cells ascend from each to the next."""
    docs = (doc,) if isinstance(doc, BlockMapDocument) else doc
    _write_atomically(path, lambda handle: _write_block_map_rows(docs, handle))


def write_world(world: WorldModel, grid: BlockGrid, hlr_path: PathLike, llr_path: PathLike) -> None:
    """Write the semantic map and block map for a world and its grid, to two different files.

    Both go to _temporary_sibling files, which replace the targets only once
    both are complete, so a failed write leaves both previous files as they
    were. The block map is projected and written one x-slab at a time.
    """
    if Path(hlr_path).resolve() == Path(llr_path).resolve():
        raise VoxgenError(f"the semantic map and the block map would both be written to {llr_path}")
    paths = (hlr_path, llr_path)
    temps = [_temporary_sibling(path) for path in paths]
    hlr_file, llr_file = (temp or path for temp, path in zip(temps, paths))
    shown = hlr_path  # the target being written, for an OSError's message
    try:
        write_semantic_map(semantic_map_from_world(world), hlr_file)
        shown = llr_path
        write_block_map(map(block_map_from_grid, grid.slabs()), llr_file)
        for temp, shown in zip(temps, paths):
            if temp:
                os.replace(temp, os.path.realpath(shown))
    except BaseException as err:
        for temp in filter(None, temps):
            with contextlib.suppress(OSError):
                os.unlink(temp)
        if isinstance(err, OSError):
            cause = err.__cause__ or err  # a write's OSError names its temporary file; its cause has the reason
            raise OSError(f"cannot write {shown}: {cause.strerror or cause}") from cause
        raise


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
        # A text reader decodes in chunks: find the first bad byte in the whole file. Only a regular file can be
        # read again; opening a pipe again would wait for a writer that has gone, so its message names no line.
        line, raw = 0, Path(path).read_bytes() if os.path.isfile(path) else b""
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as first:
            line = raw.count(b"\n", 0, first.start) + 1
        reason = f"not UTF-8 ({err.reason})"
    elif isinstance(err, RecursionError):
        reason = "nesting too deep"
    where = f"line {line} column {column}: " if column else f"line {line}: " if line else ""
    return ParseError(f"{path}: {where}{reason}", path=str(path), line=line, column=column)


def _load_json(path: PathLike, object_pairs_hook: Optional[Callable[[list], Any]] = None,
               parse_int: Optional[Callable[[str], Any]] = None) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=object_pairs_hook, parse_int=parse_int)
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
    """The Position of a JSON [x, y, z]; _read_coord words the message for a bad coordinate."""
    _require(isinstance(value, list) and len(value) == 3, f"{context}: expected [x, y, z], got {value!r}")
    return Position(*(_read_coord(v, context) for v in value))


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
    """Parse a semantic-map file; the records and the SemanticMap check their own invariants.

    The file is parsed once. Its records are built straight from the parsed
    objects (_semantic_map), so their own checks are the one check of a
    valid file. Only if that raises is the same parsed data read one field at
    a time (_read_semantic_map_fields), which names the first bad field in
    the reader's words.
    """
    data = _load_json(path)
    _check_schema_version(data, path)
    with contextlib.suppress(VoxgenError, TypeError, ValueError):
        return _semantic_map(data)
    return _read_semantic_map_fields(data, path)


def _list(value: Any) -> list:
    """value if it is a JSON list; the fast path's one container check, as _read_list makes it."""
    if type(value) is not list:
        raise ValidationError("expected a list")
    return value


def _bounds(value: Any) -> list[Position]:
    """The two corners of a JSON bounds object: Position(*corner) passes only a list of three lattice ints."""
    if type(value) is not dict:
        raise ValidationError("expected bounds object")
    return [Position(*value.get("top_left")), Position(*value.get("bottom_right"))]


def _equipment(value: Any) -> tuple[tuple[str, str], ...]:
    if value is None:
        return ()
    if type(value) is not dict:
        raise ValidationError("expected equipment object")
    return tuple(value.items())


def _semantic_map(data: dict) -> SemanticMap:
    """The SemanticMap of a parsed semantic map whose records are built straight from their objects.

    It accepts exactly what _read_semantic_map_fields accepts. The records
    and the map check every id, type, material, point, reference and the
    bounds; this checks only what they cannot see, each container's exact
    type: a list for the four record lists, child_ids and connected_ids,
    an object for a record, its bounds and its equipment. Missing keys take
    the reader's defaults. Anything else raises, a ValidationError or the
    TypeError a bad value meets (an unsortable or unhashable id, a point
    that is not three lattice ints).
    """
    lists = [_list(data.get(key, [])) for key in ("locations", "connections", "entities", "objects")]
    if not all(set(map(type, records)) <= {dict} for records in lists):
        raise ValidationError("expected an object")
    locations, connections, entities, objects = lists
    return SemanticMap(
        data.get("id"),
        [LocationRecord(raw.get("id"), raw.get("type"), raw.get("material"), *_bounds(raw.get("bounds")),
                        _list(raw.get("child_ids", []))) for raw in locations],
        [ConnectionRecord(raw.get("id"), raw.get("type"), *_bounds(raw.get("bounds")),
                          _list(raw.get("connected_ids", []))) for raw in connections],
        [EntityRecord(raw.get("id"), raw.get("type"), Position(*raw.get("position")), raw.get("location_id"),
                      _equipment(raw.get("equipment"))) for raw in entities],
        [ObjectRecord(raw.get("id"), raw.get("type"), raw.get("material"), Position(*raw.get("position")),
                      raw.get("location_id")) for raw in objects],
    )


def _read_semantic_map_fields(data: dict, path: PathLike) -> SemanticMap:
    """The SemanticMap of a parsed semantic map with the right schema version, read one field at a time.

    Each field is read with the _read_* helpers before its record is built,
    so a bad field raises the reader's message for it.
    """
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


def _block_row_hook() -> Callable[[list[tuple[str, Any]]], Any]:
    """The block-map reader's object_pairs_hook for one read: a block's row as soon as it is parsed.

    An object whose keys are exactly material, x, y and z, in any order,
    becomes an (x, y, z, material) tuple; any other object becomes the dict
    json would give. JSON itself never gives a tuple. The writer's key order
    is tested first, without building the dict. A str material is swapped
    for the first equal one this read met, so the rows hold one string per
    distinct material, not one per block; any other material is kept as it
    is, for the document to refuse. The memo lives as long as the hook.
    Coordinates are not touched here: the same parse's _SharedInts gives
    them already shared.
    """
    share = {}.setdefault

    def block_row(pairs: list[tuple[str, Any]]) -> Any:
        if len(pairs) != 4:
            return dict(pairs)
        (k0, material), (k1, x), (k2, y), (k3, z) = pairs
        if not (k0 == "material" and k1 == "x" and k2 == "y" and k3 == "z"):
            block = dict(pairs)
            if block.keys() != _BLOCK_KEYS:
                return block
            x, y, z, material = block["x"], block["y"], block["z"], block["material"]
        return (x, y, z, share(material, material) if type(material) is str else material)

    return block_row


# The most integer literals one block-map read keeps: a world whose coordinates lie in one range 4096 wide shares all.
_SHARED_INTS_MAX = 1 << 12


class _SharedInts(dict):
    """The block-map reader's memo of integer literals for one read; its __getitem__ is json's parse_int.

    The parser hands over each integer's text, so each distinct literal
    becomes one int, shared by every row that holds it, instead of one int
    per number. Only integer literals come here, never a true or a 1.0, so
    the rows keep whatever the document must refuse. A hit is a lookup in C,
    and a miss runs int(), with json's own limit on digits. Only the first
    _SHARED_INTS_MAX literals are kept, so a file whose numbers are nearly
    all distinct makes the parse peak at most about 0.3 MB higher.
    """

    __slots__ = ()

    def __missing__(self, literal: str) -> int:
        value = int(literal)
        if len(self) < _SHARED_INTS_MAX:
            self[literal] = value
        return value


def _plain(data: Any) -> Any:
    """data, parsed with _block_row_hook, as a plain parse gives it: each row tuple back in its object.

    The rows are turned back in place, each object in the writer's key order,
    material, x, y, z. The walk keeps its own stack, so no nesting the parser
    accepted can exhaust Python's.
    """
    root = [data]
    stack = [root]
    while stack:
        container = stack.pop()
        for key, value in enumerate(container) if type(container) is list else container.items():
            if type(value) is tuple:
                x, y, z, material = value
                container[key] = value = {"material": material, "x": x, "y": y, "z": z}
                if type(x) is type(y) is type(z) is int and type(material) is str:
                    continue  # nothing inside to turn back
            if type(value) is list or type(value) is dict:
                stack.append(value)
    return root[0]


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


def _read_block_entities(data: dict, path: PathLike) -> list[BlockEntityRecord]:
    """The entity records of a parsed block map, each read one field at a time."""
    entities = []
    for raw in _read_list(data.get("entities", []), f"{path}: entities", _read_object):
        entity_type = _read_str(raw.get("type"), "entity type")
        equipment = _read_equipment(raw.get("equipment"), f"entity {entity_type}: equipment")
        entities.append(BlockEntityRecord(entity_type, raw.get("x"), raw.get("y"), raw.get("z"), equipment))
    return entities


# The text a block map in the writer's layout starts with, and how it goes on: each row but the last ends with
# _ROW_END, the blocks list with _BLOCKS_END, and the entities list starts with _ENTITIES_KEY.
_BLOCK_MAP_HEAD = '{\n  "schema_version": %s,\n  "blocks": [' % _encode(SCHEMA_VERSION)
_ROW_END, _BLOCKS_END, _ENTITIES_KEY = "\n    },\n", "\n  ]", ',\n  "entities": '
# How many characters of a block map in the writer's layout are read at a time.
_CHUNK_CHARS = 1 << 16
# A block object's fields, in the order _Columns.add takes them.
_BLOCK_FIELDS = tuple(map(operator.itemgetter, ("x", "y", "z", "material")))
_JSON_SPACE = " \t\n\r"


def _add_blocks(columns: _Columns, text: str) -> bool:
    """Whether the block objects of text, one piece of a blocks list, parse and check into columns.

    A piece that holds no object is a valid list only if it is the whole
    list: after other pieces, the list would end in a comma.
    """
    blocks = json.loads("[" + text + "]")
    if not blocks:
        return not columns.x
    if set(map(type, blocks)) != {dict} or set(map(len, blocks)) != {4}:
        return False
    return columns.add(*([*map(field, blocks)] for field in _BLOCK_FIELDS))  # KeyError for a key not a block's


def _read_written_block_map(path: PathLike) -> Optional[BlockMapDocument]:
    """The document of a valid block map in the writer's own layout, read _CHUNK_CHARS at a time.

    The blocks list is cut at the last _ROW_END read so far, and each piece
    parsed as a list by json, its objects going straight into the columns.
    A JSON string holds no raw newline, so a cut never splits a token, and a
    cut inside a row leaves a piece that does not parse. The entities are
    parsed after the first _BLOCKS_END, and must be the only key left. Any
    other layout returns None; a piece that does not parse, a bad row or
    entity or two blocks in one cell return None or raise. The whole-file
    path then reads the file, and words any message.
    """
    columns = _Columns()
    with open(path, "r", encoding="utf-8") as handle:
        if handle.read(len(_BLOCK_MAP_HEAD)) != _BLOCK_MAP_HEAD:
            return None
        text = handle.read(_CHUNK_CHARS)
        if text.startswith("]"):
            text = text[1:]
        else:
            while (end := text.find(_BLOCKS_END)) < 0:
                cut = text.rfind(_ROW_END)
                if cut >= 0:
                    cut += _ROW_END.index(",")  # the pieces part at the comma after the row's "}"
                    if not _add_blocks(columns, text[:cut]):
                        return None
                    text = text[cut + 1:]
                more = handle.read(_CHUNK_CHARS)
                if not more:
                    return None
                text += more
            if not _add_blocks(columns, text[:end]):
                return None
            text = text[end + len(_BLOCKS_END):]
        text += handle.read()
    if text.strip(_JSON_SPACE) == "}":
        entities = []
    elif text.startswith(_ENTITIES_KEY):
        entities, end = json.JSONDecoder().raw_decode(text, len(_ENTITIES_KEY))
        if text[end:].strip(_JSON_SPACE) != "}":
            return None
    else:
        return None
    return BlockMapDocument(columns.rows(), _read_block_entities({"entities": entities}, path))


def read_block_map(path: PathLike) -> BlockMapDocument:
    """Parse a block-map file. Input order is free; the document sorts and checks.

    A valid regular file in the writer's own layout is read a chunk at a
    time (_read_written_block_map), and its blocks go straight into the
    document's columns; a pipe is read once, whole. Any other file is
    parsed whole, once, with a fresh _block_row_hook and _SharedInts, and
    the document built from its rows, which it checks in one walk. If
    anything fails that way, _plain turns the same parse into what a plain
    parse gives and it is read one field at a time, so no tuple reaches a
    message. An object with exactly a block's keys in another order then
    shows them in the writer's order.
    """
    if os.path.isfile(path):
        with contextlib.suppress(*_PARSE_FAILURES, LookupError, VoxgenError):
            doc = _read_written_block_map(path)
            if doc is not None:
                return doc
    data = _load_json(path, _block_row_hook(), _SharedInts().__getitem__)
    with contextlib.suppress(VoxgenError):
        _check_schema_version(data, path)
        return BlockMapDocument(_list(data.get("blocks", [])), _read_block_entities(data, path))
    data = _plain(data)
    _check_schema_version(data, path)
    rows = _read_block_rows(data.get("blocks", []), f"{path}: blocks")
    return BlockMapDocument(rows, _read_block_entities(data, path))
