"""Human-inspectable renderings of the two map documents.

``render_blueprint`` draws a top-down SVG: x runs right, z runs down, and one
voxel is ``voxel_pixel_scale`` pixels, so a rectangle's SVG coordinates are
exactly its location bounds times the scale. Leaf locations (no children) are
drawn as labeled outlines; when a block map is supplied, each occupied (x, z)
column is painted with the palette color of its topmost block.

``render_graph`` emits Graphviz DOT text: hierarchy mode is a digraph with one
edge per parent-child pair, topology mode an undirected graph with one edge
per connected pair. Both list every location as a node, sorted by id, so
output is stable. Node and edge order come from the document's canonical
order: locations by id, child ids sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ValidationError
from .serialization import BlockMapDocument, PathLike, SemanticMap, _load_json

DEFAULT_PALETTE: dict[str, str] = {
    "cobblestone": "#7a7a7a",
    "diamond_block": "#4aedd9",
    "glass": "#c3e8f2",
    "gold_block": "#f5c842",
    "lava": "#d96415",
    "log": "#664a2b",
    "nether_bricks": "#5c2f33",
    "planks": "#b08950",
    "stone": "#8f8f8f",
    "stone_bricks": "#9b9b9b",
    "water": "#3d56d6",
    "web": "#e8e8e8",
}

FALLBACK_COLOR = "#b59cc7"


@dataclass(frozen=True)
class BlueprintStyle:
    voxel_pixel_scale: int = 8
    material_palette: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_PALETTE))
    show_labels: bool = True
    fallback_color: str = FALLBACK_COLOR

    def __post_init__(self) -> None:
        if self.voxel_pixel_scale < 1:
            raise ValueError("voxel_pixel_scale must be >= 1")

    def color(self, material: str) -> str:
        return self.material_palette.get(material, self.fallback_color)


def load_palette(path: PathLike) -> dict[str, str]:
    """Read a palette config file: a JSON object mapping material to color.

    The result is the default palette with the file's entries laid over it.
    """
    raw = _load_json(path)
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
    ):
        raise ValidationError(f"{path}: palette must map material names to color strings")
    palette = dict(DEFAULT_PALETTE)
    palette.update(raw)
    return palette


def _map_extent(semantic_map: SemanticMap, block_map: Optional[BlockMapDocument]):
    xs: list[int] = []
    zs: list[int] = []
    for loc in semantic_map.locations:
        xs.extend((loc.top_left.x, loc.bottom_right.x))
        zs.extend((loc.top_left.z, loc.bottom_right.z))
    if block_map is not None:
        for b in block_map.blocks:
            xs.append(b.x)
            zs.append(b.z)
    if not xs:
        return 0, 0, 0, 0
    return min(xs), max(xs), min(zs), max(zs)


def render_blueprint(
    semantic_map: SemanticMap,
    block_map: Optional[BlockMapDocument] = None,
    style: Optional[BlueprintStyle] = None,
) -> str:
    """Render the top-down blueprint as an SVG document string."""
    style = style or BlueprintStyle()
    s = style.voxel_pixel_scale
    min_x, max_x, min_z, max_z = _map_extent(semantic_map, block_map)
    # One voxel of padding keeps strokes and edge labels inside the canvas.
    view_x = (min_x - 1) * s
    view_z = (min_z - 1) * s
    view_w = (max_x - min_x + 3) * s
    view_h = (max_z - min_z + 3) * s

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view_x} {view_z} {view_w} {view_h}" '
        f'width="{view_w}" height="{view_h}">',
        f'<rect x="{view_x}" y="{view_z}" width="{view_w}" height="{view_h}" '
        f'fill="#ffffff" stroke="#000000" stroke-width="2"/>',
    ]

    if block_map is not None:
        topmost: dict[tuple[int, int], tuple[int, str]] = {}
        for b in block_map.blocks:
            key = (b.x, b.z)
            if key not in topmost or b.y >= topmost[key][0]:
                topmost[key] = (b.y, b.material)
        for (x, z) in sorted(topmost):
            color = style.color(topmost[(x, z)][1])
            lines.append(
                f'<rect x="{x * s}" y="{z * s}" width="{s}" height="{s}" fill="{color}"/>'
            )

    leaves = [loc for loc in semantic_map.locations if not loc.child_ids]
    for loc in leaves:
        x = loc.top_left.x * s
        z = loc.top_left.z * s
        w = (loc.bottom_right.x - loc.top_left.x + 1) * s
        h = (loc.bottom_right.z - loc.top_left.z + 1) * s
        lines.append(
            f'<rect x="{x}" y="{z}" width="{w}" height="{h}" '
            f'fill="none" stroke="#202020" stroke-width="1"/>'
        )
        if style.show_labels:
            lines.append(
                f'<text x="{x + s // 2}" y="{z + s}" font-family="monospace" '
                f'font-size="{s}">{loc.id}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


GRAPH_MODES = ("hierarchy", "topology")


def render_graph(semantic_map: SemanticMap, mode: str = "hierarchy") -> str:
    """Render the location structure as a DOT document string."""
    if mode not in GRAPH_MODES:
        raise ValueError(f"mode must be one of {GRAPH_MODES}, got {mode!r}")

    if mode == "hierarchy":
        lines = ["digraph hierarchy {"]
        edge_op = "->"
        edges = [
            (loc.id, child_id)
            for loc in semantic_map.locations
            for child_id in loc.child_ids
        ]
    else:
        lines = ["graph topology {"]
        edge_op = "--"
        edges = semantic_map.connected_pairs()

    for loc in semantic_map.locations:
        lines.append(f'  "{loc.id}";')
    for a, b in edges:
        lines.append(f'  "{a}" {edge_op} "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
