"""Every record type's checks, frozenness and repr, pinned field by field.

Each case builds a record from a valid set of fields with one field made bad
and pins the exception type and message that field raises.
"""

import pytest

from voxgen.errors import CoordinateOverflowError, ParameterError, ValidationError
from voxgen.generators.dungeon import DungeonParams
from voxgen.geometry import BlockPlacement, BoxFill, ConnectionSpec, EntitySpec, ObjectSpec, Position
from voxgen.query import TraceEvent, Transition
from voxgen.raster import BlockGrid
from voxgen.serialization import (
    BlockEntityRecord,
    BlockMapDocument,
    ConnectionRecord,
    EntityRecord,
    LocationRecord,
    ObjectRecord,
    SemanticMap,
)
from voxgen.viz import DEFAULT_PALETTE, BlueprintStyle

P, Q = Position(0, 0, 0), Position(1, 1, 1)
LOC_A = LocationRecord("a", "room", "log", P, Q, ("b",))
LOC_B = LocationRecord("b", "room", "log", P, Q, ())
CONN = ConnectionRecord("c", "door", P, P, ("a", "b"))
ENT = EntityRecord("e", "zombie", P, "a")
OBJ = ObjectRecord("o", "chest", "log", P, None)

# One valid record of each type, as its fields in order.
VALID = {
    BlockPlacement: {"material": "log", "position": P},
    BoxFill: {"material": "log", "top_left": P, "bottom_right": Q},
    EntitySpec: {"id": "e", "entity_type": "zombie", "position": P, "equipment": None},
    ObjectSpec: {"id": "o", "object_type": "chest", "block": BlockPlacement("log", P)},
    ConnectionSpec: {"id": "c", "connection_type": "door", "bounds": (P, Q), "connected_ids": ("a", "b")},
    LocationRecord: {"id": "a", "location_type": "room", "material": "log", "top_left": P, "bottom_right": Q,
                     "child_ids": ()},
    ConnectionRecord: {"id": "c", "connection_type": "door", "top_left": P, "bottom_right": Q,
                       "connected_ids": ("a", "b")},
    EntityRecord: {"id": "e", "entity_type": "zombie", "position": P, "location_id": "a", "equipment": ()},
    ObjectRecord: {"id": "o", "object_type": "chest", "material": "log", "position": P, "location_id": "a"},
    BlockEntityRecord: {"entity_type": "zombie", "x": 0, "y": 0, "z": 0, "equipment": ()},
    SemanticMap: {"id": "w", "locations": (LOC_A, LOC_B), "connections": (CONN,), "entities": (ENT,),
                  "objects": (OBJ,)},
    BlockMapDocument: {"rows": ((0, 0, 0, "log"),), "entities": (BlockEntityRecord("zombie", 0, 0, 0),)},
    TraceEvent: {"timestamp": 0, "player_id": "p", "position": P},
    Transition: {"timestamp": 0, "player_id": "p", "from_id": None, "to_id": "a"},
    BlueprintStyle: {"voxel_pixel_scale": 8, "material_palette": {"log": "#664a2b"}, "show_labels": True,
                     "fallback_color": "#b59cc7"},
    DungeonParams: {"n": 4, "seed": 0, "cell_footprint": 10, "room_probability": 0.5, "treasure_range": (1, 3),
                    "monster_range": (1, 2), "lava_patch_range": (1, 3), "spiderweb_range": (0, 4)},
}

NAME_RULE = "must be a nonempty str that UTF-8 can encode, got"


def case(cls, field, bad, error, message, id):
    return pytest.param(cls, field, bad, error, message, id=id)


CASES = [
    case(BlockPlacement, "material", "", ValueError, f"block material {NAME_RULE} ''", "placement-material"),
    case(BlockPlacement, "material", 5, ValueError, f"block material {NAME_RULE} 5", "placement-int-material"),
    case(BlockPlacement, "position", (0, True, 0), TypeError, "y must be an int, got bool", "placement-bool-y"),
    case(BlockPlacement, "position", (0, 0, 2**63), CoordinateOverflowError,
         "z=9223372036854775808 outside signed 64-bit range", "placement-z-2**63"),
    case(BoxFill, "material", "\ud800", ValueError, f"block material {NAME_RULE} '\\ud800'", "fill-material"),
    case(BoxFill, "top_left", (1.5, 0, 0), TypeError, "x must be an int, got float", "fill-float-x"),
    case(BoxFill, "bottom_right", (1, 1, "1"), TypeError, "z must be an int, got str", "fill-str-z"),
    case(BoxFill, "bottom_right", (1, -1, 1), ValueError, "box fill corners out of order: (0, 0, 0)..(1, -1, 1)",
         "fill-corners"),
    case(EntitySpec, "id", "", ValueError, f"entity id {NAME_RULE} ''", "entity-spec-id"),
    case(EntitySpec, "entity_type", None, ValueError, f"entity type {NAME_RULE} None", "entity-spec-type"),
    case(EntitySpec, "position", (0, 0, -2**63 - 1), CoordinateOverflowError,
         "z=-9223372036854775809 outside signed 64-bit range", "entity-spec-z"),
    case(EntitySpec, "equipment", {"hat": "cap"}, ValueError,
         "unknown equipment slot 'hat'; expected one of ('helmet', 'chestplate', 'leggings', 'boots', 'weapon')",
         "entity-spec-slot"),
    case(EntitySpec, "equipment", {"weapon": ""}, ValueError, f"entity e weapon item {NAME_RULE} ''",
         "entity-spec-item"),
    case(ObjectSpec, "id", "", ValueError, f"object id {NAME_RULE} ''", "object-spec-id"),
    case(ObjectSpec, "object_type", 7, ValueError, f"object type {NAME_RULE} 7", "object-spec-type"),
    case(ObjectSpec, "block", "log", TypeError, "object o: block must be a BlockPlacement, got str",
         "object-spec-block"),
    case(ConnectionSpec, "id", "", ValueError, f"connection id {NAME_RULE} ''", "connection-spec-id"),
    case(ConnectionSpec, "connection_type", "", ValueError, f"connection type {NAME_RULE} ''",
         "connection-spec-type"),
    case(ConnectionSpec, "bounds", ((0, 0, True), Q), TypeError, "z must be an int, got bool",
         "connection-spec-bool-z"),
    case(ConnectionSpec, "bounds", (Q, P), ValueError, "connection c: bounds corners out of order",
         "connection-spec-corners"),
    case(ConnectionSpec, "connected_ids", ("a",), ValueError, "connection c: needs at least 2 connected ids",
         "connection-spec-ids"),
    case(LocationRecord, "id", "", ValidationError, f"location id {NAME_RULE} ''", "location-id"),
    case(LocationRecord, "location_type", None, ValidationError, f"location type {NAME_RULE} None",
         "location-type"),
    case(LocationRecord, "material", "\ud800", ValidationError, f"location material {NAME_RULE} '\\ud800'",
         "location-material"),
    case(LocationRecord, "top_left", (0, 0, 1.5), ValidationError,
         "location a: top_left: expected three signed 64-bit integers, got (0, 0, 1.5)", "location-top-left"),
    case(LocationRecord, "bottom_right", [1, 1], ValidationError,
         "location a: bottom_right: expected three signed 64-bit integers, got [1, 1]", "location-bottom-right"),
    case(LocationRecord, "bottom_right", (1, 1, -1), ValidationError,
         "location a: bounds: top_left must be <= bottom_right per axis", "location-corners"),
    case(LocationRecord, "child_ids", [5, "x"], ValidationError, f"location a: child id {NAME_RULE} 5",
         "location-mixed-child-ids"),
    case(LocationRecord, "child_ids", [5], ValidationError, f"location a: child id {NAME_RULE} 5",
         "location-int-child-id"),
    case(LocationRecord, "child_ids", ["b", ""], ValidationError, f"location a: child id {NAME_RULE} ''",
         "location-empty-child-id"),
    case(ConnectionRecord, "id", 3, ValidationError, f"connection id {NAME_RULE} 3", "connection-id"),
    case(ConnectionRecord, "connected_ids", [5, "x"], ValidationError, f"connection c: connected id {NAME_RULE} 5",
         "connection-mixed-ids"),
    case(ConnectionRecord, "connected_ids", [1, 2], ValidationError, f"connection c: connected id {NAME_RULE} 1",
         "connection-int-ids"),
    case(ConnectionRecord, "connected_ids", ("a", "\ud800"), ValidationError,
         f"connection c: connected id {NAME_RULE} '\\ud800'", "connection-unencodable-id"),
    case(ConnectionRecord, "connection_type", "", ValidationError, f"connection type {NAME_RULE} ''",
         "connection-type"),
    case(ConnectionRecord, "top_left", "abc", ValidationError,
         "connection c: top_left: expected three signed 64-bit integers, got 'abc'", "connection-top-left"),
    case(ConnectionRecord, "bottom_right", (2**63, 0, 0), ValidationError,
         "connection c: bottom_right: expected three signed 64-bit integers, got (9223372036854775808, 0, 0)",
         "connection-bottom-right"),
    case(ConnectionRecord, "top_left", (2, 0, 0), ValidationError,
         "connection c: bounds: top_left must be <= bottom_right per axis", "connection-corners"),
    case(EntityRecord, "id", "", ValidationError, f"entity id {NAME_RULE} ''", "entity-id"),
    case(EntityRecord, "entity_type", 1, ValidationError, f"entity type {NAME_RULE} 1", "entity-type"),
    case(EntityRecord, "position", (0, False, 0), ValidationError,
         "entity e: position: expected three signed 64-bit integers, got (0, False, 0)", "entity-position"),
    case(EntityRecord, "equipment", (("hat", "cap"),), ValidationError,
         "entity e: equipment: unknown equipment slot 'hat'", "entity-slot"),
    case(EntityRecord, "equipment", (("weapon", "sword"), ("weapon", "axe")), ValidationError,
         "entity e: equipment: repeated equipment slot 'weapon'", "entity-repeated-slot"),
    case(EntityRecord, "equipment", (("weapon", ""),), ValidationError,
         f"entity e: equipment: weapon item {NAME_RULE} ''", "entity-item"),
    case(ObjectRecord, "id", "", ValidationError, f"object id {NAME_RULE} ''", "object-id"),
    case(ObjectRecord, "object_type", "", ValidationError, f"object type {NAME_RULE} ''", "object-type"),
    case(ObjectRecord, "material", None, ValidationError, f"object material {NAME_RULE} None", "object-material"),
    case(ObjectRecord, "position", (0, 0), ValidationError,
         "object o: position: expected three signed 64-bit integers, got (0, 0)", "object-position"),
    case(BlockEntityRecord, "entity_type", "", ValidationError, f"entity type {NAME_RULE} ''",
         "block-entity-type"),
    case(BlockEntityRecord, "x", True, ValidationError, "entity zombie: x: expected signed 64-bit integer, got True",
         "block-entity-x"),
    case(BlockEntityRecord, "y", 1.5, ValidationError, "entity zombie: y: expected signed 64-bit integer, got 1.5",
         "block-entity-y"),
    case(BlockEntityRecord, "z", 2**63, ValidationError,
         "entity zombie: z: expected signed 64-bit integer, got 9223372036854775808", "block-entity-z"),
    case(BlockEntityRecord, "equipment", (("hat", "cap"),), ValidationError,
         "entity zombie: equipment: unknown equipment slot 'hat'", "block-entity-slot"),
    case(SemanticMap, "id", "", ValidationError, f"semantic map id {NAME_RULE} ''", "map-id"),
    case(SemanticMap, "objects", (ObjectRecord("a", "chest", "log", P, None),), ValidationError,
         "duplicate id 'a'", "map-duplicate-id"),
    case(SemanticMap, "locations", (LOC_A,), ValidationError, "location 'a' lists unknown child 'b'",
         "map-unknown-child"),
    case(SemanticMap, "locations", (LOC_A, LOC_B, LocationRecord("z", "room", "log", P, Q, ("b",))),
         ValidationError, "location 'b' has more than one parent", "map-two-parents"),
    case(SemanticMap, "locations", (LOC_A, LocationRecord("b", "room", "log", P, Q, ("a",))), ValidationError,
         "location hierarchy cycle through 'a'", "map-cycle"),
    case(SemanticMap, "connections", (ConnectionRecord("c", "door", P, P, ("a",)),), ValidationError,
         "connection 'c' must name at least 2 locations", "map-one-location-connection"),
    case(SemanticMap, "connections", (ConnectionRecord("c", "door", P, P, ("a", "x")),), ValidationError,
         "connection 'c' references unknown location 'x'", "map-connection-reference"),
    case(SemanticMap, "entities", (EntityRecord("e", "zombie", P, "x"),), ValidationError,
         "entity 'e' references unknown location 'x'", "map-entity-reference"),
    case(SemanticMap, "objects", (ObjectRecord("o", "chest", "log", P, 5),), ValidationError,
         "object 'o' references unknown location 5", "map-object-reference"),
    case(BlockMapDocument, "rows", [(0, 0, 0)], ValidationError,
         "block row 0 (0, 0, 0): expected an (x, y, z, material) tuple", "block-map-short-row"),
    case(BlockMapDocument, "rows", [(1, 0, 0, "log"), (0, True, 0, "log")], ValidationError,
         "block row 1 (0, True, 0, 'log'): y: expected signed 64-bit integer, got True", "block-map-bool-y"),
    case(BlockMapDocument, "rows", [(0, 0, 0, "")], ValidationError, f"block material {NAME_RULE} ''",
         "block-map-material"),
    case(BlockMapDocument, "rows", [(1, 2, 3, "log"), (1, 2, 3, "web")], ValidationError,
         "duplicate block coordinates (1, 2, 3)", "block-map-duplicate"),
    # Each document's lists hold their own record type; anything else is named before it is sorted or read.
    case(SemanticMap, "locations", (("a", "room", "log", P, Q, ()),), ValidationError,
         "semantic map locations: expected LocationRecord items, got tuple", "map-tuple-location"),
    case(SemanticMap, "locations", (LOC_B, CONN), ValidationError,
         "semantic map locations: expected LocationRecord items, got ConnectionRecord", "map-connection-location"),
    case(SemanticMap, "entities", (OBJ,), ValidationError,
         "semantic map entities: expected EntityRecord items, got ObjectRecord", "map-object-entity"),
    case(BlockMapDocument, "entities", (("zombie", 0, 0, 0, ()),), ValidationError,
         "block map entities: expected BlockEntityRecord items, got tuple", "block-map-tuple-entity"),
    case(TraceEvent, "timestamp", True, ValueError, "trace timestamp must be an int, got True", "event-bool-time"),
    case(TraceEvent, "timestamp", -1, ValueError, "trace timestamps must be non-negative", "event-negative-time"),
    case(TraceEvent, "player_id", "", ValueError, "player_id must be nonempty", "event-empty-player"),
    case(TraceEvent, "player_id", 5, ValueError, f"player_id {NAME_RULE} 5", "event-int-player"),
    case(TraceEvent, "position", (0, 0, 1.5), ValueError, "trace position (0, 0, 1.5): z must be an int, got float",
         "event-float-z"),
    case(TraceEvent, "position", (0, 2**63, 0), ValueError,
         "trace position (0, 9223372036854775808, 0): y=9223372036854775808 outside signed 64-bit range",
         "event-y-2**63"),
    case(Transition, "timestamp", 1.5, ValueError, "transition timestamp must be an int, got 1.5", "transition-time"),
    case(Transition, "player_id", "", ValueError, f"player_id {NAME_RULE} ''", "transition-player"),
    case(Transition, "from_id", 7, ValueError, f"from_id {NAME_RULE} 7", "transition-from"),
    case(Transition, "to_id", "", ValueError, f"to_id {NAME_RULE} ''", "transition-to"),
    case(BlueprintStyle, "voxel_pixel_scale", 0, ValueError, "voxel_pixel_scale must be >= 1", "style-scale"),
    case(BlueprintStyle, "voxel_pixel_scale", "8", ValueError, "voxel_pixel_scale must be an int, got '8'",
         "style-str-scale"),
    case(BlueprintStyle, "voxel_pixel_scale", True, ValueError, "voxel_pixel_scale must be an int, got True",
         "style-bool-scale"),
    case(BlueprintStyle, "voxel_pixel_scale", 2.5, ValueError, "voxel_pixel_scale must be an int, got 2.5",
         "style-float-scale"),
    case(BlueprintStyle, "material_palette", {"log": 5}, ValueError,
         "material_palette must map nonempty str to str, got 'log': 5", "style-int-color"),
    case(BlueprintStyle, "material_palette", {"": "#fff"}, ValueError,
         "material_palette must map nonempty str to str, got '': '#fff'", "style-empty-material"),
    case(BlueprintStyle, "material_palette", [1], ValueError, "material_palette must be a mapping, got [1]",
         "style-list-palette"),
    case(BlueprintStyle, "fallback_color", 5, ValueError, "fallback_color must be a str, got 5", "style-int-fallback"),
    case(DungeonParams, "n", 1, ParameterError, "grid dimension must be >= 2, got 1", "dungeon-n"),
    case(DungeonParams, "cell_footprint", 6, ParameterError, "cell_footprint must be >= 7, got 6",
         "dungeon-footprint"),
    case(DungeonParams, "room_probability", 0, ParameterError, "room_probability must be in (0, 1], got 0",
         "dungeon-probability"),
    case(DungeonParams, "treasure_range", (3, 1), ParameterError,
         "treasure_range must satisfy 0 <= low <= high, got (3, 1)", "dungeon-treasure"),
    case(DungeonParams, "monster_range", (-1, 2), ParameterError,
         "monster_range must satisfy 0 <= low <= high, got (-1, 2)", "dungeon-monster"),
    case(DungeonParams, "lava_patch_range", (2, 1), ParameterError,
         "lava_patch_range must satisfy 0 <= low <= high, got (2, 1)", "dungeon-lava"),
    case(DungeonParams, "spiderweb_range", (0, -1), ParameterError,
         "spiderweb_range must satisfy 0 <= low <= high, got (0, -1)", "dungeon-spiderweb"),
    # Each value's type, checked before its range, so none reaches the generator.
    case(DungeonParams, "n", 2.5, ParameterError, "n must be an int, got 2.5", "dungeon-float-n"),
    case(DungeonParams, "seed", -1, ParameterError, "seed must be an int in [0, 2**64), got -1", "dungeon-seed"),
    case(DungeonParams, "cell_footprint", True, ParameterError, "cell_footprint must be an int, got True",
         "dungeon-bool-footprint"),
    case(DungeonParams, "room_probability", "0.5", ParameterError,
         "room_probability must be an int or float, got '0.5'", "dungeon-str-probability"),
    case(DungeonParams, "treasure_range", (0.5, 2), ParameterError,
         "treasure_range must be a pair of ints, got (0.5, 2)", "dungeon-float-range"),
]


def raises(error, message, build):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("cls, field, bad, error, message", CASES)
def test_a_bad_field_raises_its_pinned_error(cls, field, bad, error, message):
    raises(error, message, lambda: cls(**{**VALID[cls], field: bad}))


@pytest.mark.parametrize("cls, field, bad, error, message", CASES)
def test_make_and_replace_run_the_checks(cls, field, bad, error, message):
    raises(error, message, lambda: cls._make({**VALID[cls], field: bad}.values()))
    raises(error, message, lambda: cls(**VALID[cls])._replace(**{field: bad}))


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_a_record_is_the_tuple_of_its_fields(cls):
    record = cls(**VALID[cls])
    assert tuple(record) == tuple(VALID[cls].values())
    assert record == cls._make(record) == record._replace() and record._fields == tuple(VALID[cls])


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_assigning_a_field_raises_attribute_error(cls):
    record = cls(**VALID[cls])
    for field, value in VALID[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.note = "added"


REPRS = {
    BlockPlacement: "BlockPlacement(material='log', position=Position(x=0, y=0, z=0))",
    BoxFill: "BoxFill(material='log', top_left=Position(x=0, y=0, z=0), bottom_right=Position(x=1, y=1, z=1))",
    EntitySpec: "EntitySpec(id='e', entity_type='zombie', position=Position(x=0, y=0, z=0), equipment=None)",
    ObjectSpec: "ObjectSpec(id='o', object_type='chest', "
                "block=BlockPlacement(material='log', position=Position(x=0, y=0, z=0)))",
    ConnectionSpec: "ConnectionSpec(id='c', connection_type='door', "
                    "bounds=(Position(x=0, y=0, z=0), Position(x=1, y=1, z=1)), connected_ids=('a', 'b'))",
    LocationRecord: "LocationRecord(id='a', location_type='room', material='log', top_left=Position(x=0, y=0, z=0), "
                    "bottom_right=Position(x=1, y=1, z=1), child_ids=())",
    ConnectionRecord: "ConnectionRecord(id='c', connection_type='door', top_left=Position(x=0, y=0, z=0), "
                      "bottom_right=Position(x=1, y=1, z=1), connected_ids=('a', 'b'))",
    EntityRecord: "EntityRecord(id='e', entity_type='zombie', position=Position(x=0, y=0, z=0), location_id='a', "
                  "equipment=())",
    ObjectRecord: "ObjectRecord(id='o', object_type='chest', material='log', position=Position(x=0, y=0, z=0), "
                  "location_id='a')",
    BlockEntityRecord: "BlockEntityRecord(entity_type='zombie', x=0, y=0, z=0, equipment=())",
    SemanticMap: "SemanticMap(id='w', locations=(), connections=(), entities=(), objects=())",
    BlockMapDocument: "BlockMapDocument(rows=((0, 0, 0, 'log'),), "
                      "entities=(BlockEntityRecord(entity_type='zombie', x=0, y=0, z=0, equipment=()),))",
    TraceEvent: "TraceEvent(timestamp=0, player_id='p', position=Position(x=0, y=0, z=0))",
    Transition: "Transition(timestamp=0, player_id='p', from_id=None, to_id='a')",
    BlueprintStyle: "BlueprintStyle(voxel_pixel_scale=8, material_palette={'log': '#664a2b'}, show_labels=True, "
                    "fallback_color='#b59cc7')",
    DungeonParams: "DungeonParams(n=4, seed=0, cell_footprint=10, room_probability=0.5, treasure_range=(1, 3), "
                   "monster_range=(1, 2), lava_patch_range=(1, 3), spiderweb_range=(0, 4))",
}


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_a_record_repr_names_each_field(cls):
    fields = {"id": "w"} if cls is SemanticMap else VALID[cls]
    assert repr(cls(**fields)) == REPRS[cls]


def test_an_entity_spec_keeps_a_read_only_copy_of_its_equipment():
    equipment = {"weapon": "sword"}
    spec = EntitySpec("e", "zombie", P, equipment)
    equipment["weapon"] = ""
    assert dict(spec.equipment) == {"weapon": "sword"}
    assert repr(spec) == ("EntitySpec(id='e', entity_type='zombie', position=Position(x=0, y=0, z=0), "
                          "equipment=mappingproxy({'weapon': 'sword'}))")
    with pytest.raises(TypeError):
        spec.equipment["weapon"] = "axe"


@pytest.mark.parametrize("build", [
    lambda equipment: EntityRecord("e", "zombie", P, None, equipment),
    lambda equipment: BlockEntityRecord("zombie", 0, 0, 0, equipment),
], ids=["EntityRecord", "BlockEntityRecord"])
def test_a_one_shot_equipment_iterator_keeps_its_items(build):
    record = build(iter([("weapon", "sword"), ("helmet", "cap")]))
    assert record.equipment == (("helmet", "cap"), ("weapon", "sword"))
    # The slots are checked before the sort, which could not compare 1 with "weapon".
    with pytest.raises(ValidationError, match=r"unknown equipment slot 1$"):
        build(iter([("weapon", "sword"), (1, "cap")]))


def test_defaults_are_kept():
    assert DungeonParams(4) == DungeonParams(**VALID[DungeonParams])
    style = BlueprintStyle()
    assert (style.voxel_pixel_scale, style.show_labels, style.fallback_color) == (8, True, "#b59cc7")
    assert style.material_palette == DEFAULT_PALETTE and style.material_palette is not DEFAULT_PALETTE
    assert BlueprintStyle().material_palette is not style.material_palette
    assert EntitySpec("e", "zombie", P).equipment is None
    assert EntityRecord("e", "zombie", P, None).equipment == ()
    assert BlockEntityRecord("zombie", 0, 0, 0).equipment == ()
    assert SemanticMap("w") == SemanticMap("w", (), (), (), ())
    assert BlockMapDocument().rows == () and BlockMapDocument().entities == ()


def test_a_block_grid_is_mutable_and_compares_by_its_fields():
    grid = BlockGrid()
    assert repr(grid) == "BlockGrid(cells={}, entities=[])"
    assert grid.cells is not BlockGrid().cells and grid.entities is not BlockGrid().entities
    grid.cells[(0, 0, 0)] = "log"
    grid.entities = [EntitySpec("e", "zombie", P)]
    assert grid == BlockGrid(cells={(0, 0, 0): "log"}, entities=[EntitySpec("e", "zombie", P)])
    assert grid != BlockGrid(cells={(0, 0, 0): "log"})
    with pytest.raises(AttributeError):
        grid.note = "added"
    assert repr(BlockGrid({(0, 0, 0): "log"})) == "BlockGrid(cells={(0, 0, 0): 'log'}, entities=[])"
