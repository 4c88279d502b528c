"""voxgen: deterministic procedural generation of voxel task environments.

Worlds are built from a hierarchy of axis-aligned bounding volumes and
flattened into two lockstep documents: a semantic map of named locations,
connections and items, and a block map of every material cell. All
randomness comes from explicit 64-bit seeds, so the same inputs always
produce the same bytes.
"""

from .errors import (
    CoordinateOverflowError,
    DanglingConnectionError,
    DuplicateIdError,
    EmptyBoxError,
    FrozenWorldError,
    NonMonotonicTraceError,
    OutOfBoundsError,
    ParameterError,
    ParseError,
    RetryExhaustedError,
    ValidationError,
    VoxgenError,
)
from .generators import DungeonParams, gen_dungeon, gen_gridworld, gen_tutorial_house, gen_zombieworld
from .geometry import (
    BLANK,
    EQUIPMENT_SLOTS,
    BlockPlacement,
    BoundingVolume,
    ConnectionSpec,
    EntitySpec,
    ObjectSpec,
    Position,
    WorldModel,
)
from .query import LocationIndex, TraceEvent, Transition, read_trace, write_predicates, write_transitions
from .raster import BlockGrid, diff_grids, rasterize
from .rng import SeededRng
from .serialization import (
    BlockMapDocument,
    SemanticMap,
    block_map_from_grid,
    read_block_map,
    read_semantic_map,
    semantic_map_from_world,
    write_block_map,
    write_semantic_map,
    write_world,
)
from .viz import BlueprintStyle, load_palette, render_blueprint, render_graph

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "EQUIPMENT_SLOTS",
    "BlockGrid",
    "BlockMapDocument",
    "BlockPlacement",
    "BlueprintStyle",
    "BoundingVolume",
    "ConnectionSpec",
    "CoordinateOverflowError",
    "DanglingConnectionError",
    "DungeonParams",
    "DuplicateIdError",
    "EmptyBoxError",
    "EntitySpec",
    "FrozenWorldError",
    "LocationIndex",
    "NonMonotonicTraceError",
    "ObjectSpec",
    "OutOfBoundsError",
    "ParameterError",
    "ParseError",
    "Position",
    "RetryExhaustedError",
    "SeededRng",
    "SemanticMap",
    "TraceEvent",
    "Transition",
    "ValidationError",
    "VoxgenError",
    "WorldModel",
    "block_map_from_grid",
    "diff_grids",
    "gen_dungeon",
    "gen_gridworld",
    "gen_tutorial_house",
    "gen_zombieworld",
    "load_palette",
    "rasterize",
    "read_block_map",
    "read_semantic_map",
    "read_trace",
    "render_blueprint",
    "render_graph",
    "semantic_map_from_world",
    "write_block_map",
    "write_predicates",
    "write_semantic_map",
    "write_transitions",
    "write_world",
]
