"""Human-inspectable renderings of the two map documents.

``render_blueprint`` draws a top-down SVG: x runs right, z runs down, and one
voxel is ``voxel_pixel_scale`` pixels, so a rectangle's SVG coordinates are
exactly its location bounds times the scale. Leaf locations (no children) are
drawn as labeled outlines; when a block map is supplied, each occupied (x, z)
column is painted with the palette color of its topmost block. The block map
keeps its rows as columns in (x, y, z) order, so the rows of one x form a
contiguous slab, found by bisecting the x column, and within a slab a
column's last row is its topmost block. The columns are drawn in one pass
per x-slab, straight from the z and material-index columns: no row tuple
and no table of all columns is built. Each slab's rects are one part of the
SVG text, written to a text handle ``out``, if given, as soon as it is made,
or else joined with the others. Ids and colors are XML-escaped, and the
control characters XML 1.0 forbids become U+FFFD.

``render_graph`` emits Graphviz DOT text: hierarchy mode is a digraph with one
edge per parent-child pair, topology mode an undirected graph with one edge
per connected pair. Both list every location as a node, sorted by id, so
output is stable. Node and edge order come from the document's canonical
order: locations by id, child ids sorted. Ids are written as DOT quoted
strings, with ``"`` and ``\\`` escaped.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Mapping, Optional, TextIO

from .errors import ValidationError
from .geometry import _checked_tuple, _is_utf8
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


class BlueprintStyle(_checked_tuple("BlueprintStyle", "voxel_pixel_scale material_palette show_labels fallback_color")):
    """How render_blueprint draws: pixels per voxel (an int of at least 1), a color per material, labels or none.

    The palette maps nonempty material names to color strings, and the fallback
    color is a string too. A style keeps its own copy of the palette, by default
    DEFAULT_PALETTE's, so a later change to the caller's mapping cannot undo that.
    """

    __slots__ = ()

    def __new__(
        cls, voxel_pixel_scale: int = 8, material_palette: Optional[Mapping[str, str]] = None,
        show_labels: bool = True, fallback_color: str = FALLBACK_COLOR,
    ) -> "BlueprintStyle":
        if not isinstance(voxel_pixel_scale, int) or isinstance(voxel_pixel_scale, bool):
            raise ValueError(f"voxel_pixel_scale must be an int, got {voxel_pixel_scale!r}")
        if voxel_pixel_scale < 1:
            raise ValueError("voxel_pixel_scale must be >= 1")
        if material_palette is None:
            material_palette = DEFAULT_PALETTE
        elif not isinstance(material_palette, Mapping):
            raise ValueError(f"material_palette must be a mapping, got {material_palette!r}")
        material_palette = dict(material_palette)
        for material, color in material_palette.items():
            if not (isinstance(material, str) and material and isinstance(color, str)):
                raise ValueError(f"material_palette must map nonempty str to str, got {material!r}: {color!r}")
        if not isinstance(fallback_color, str):
            raise ValueError(f"fallback_color must be a str, got {fallback_color!r}")
        return tuple.__new__(cls, (voxel_pixel_scale, material_palette, show_labels, fallback_color))

    def color(self, material: str) -> str:
        return self.material_palette.get(material, self.fallback_color)


def load_palette(path: PathLike) -> dict[str, str]:
    """Read a palette config file: a JSON object mapping material to color.

    The result is the default palette with the file's entries laid over it.
    """
    raw = _load_json(path)
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and k and isinstance(v, str) and _is_utf8(k) and _is_utf8(v) for k, v in raw.items()
    ):
        raise ValidationError(f"{path}: palette must map material names to color strings")
    palette = dict(DEFAULT_PALETTE)
    palette.update(raw)
    return palette


# XML 1.0 cannot spell the C0 controls other than tab, LF and CR, not even as
# character references, so they become U+FFFD.
_XML_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    **{chr(code): "\ufffd" for code in range(0x20) if chr(code) not in "\t\n\r"},
})


def _xml_escape(text: str) -> str:
    """Text safe in SVG element content and in a double-quoted attribute."""
    return text.translate(_XML_ESCAPES)


def render_blueprint(
    semantic_map: SemanticMap,
    block_map: Optional[BlockMapDocument] = None,
    style: Optional[BlueprintStyle] = None,
    out: Optional[TextIO] = None,
) -> Optional[str]:
    """Render the top-down blueprint as an SVG document string, or write it to out a part at a time and return None."""
    parts = _blueprint_parts(semantic_map, block_map, style or BlueprintStyle())
    if out is None:
        return "".join(parts)
    out.writelines(parts)


def _blueprint_parts(semantic_map: SemanticMap, block_map: Optional[BlockMapDocument],
                     style: BlueprintStyle) -> Iterator[str]:
    """The blueprint's SVG text: the header, one part per x-slab of columns, each leaf's outline and label, the end."""
    s = style.voxel_pixel_scale
    rows = block_map.rows if block_map is not None else BlockMapDocument().rows
    corners = [(c.x, c.z) for loc in semantic_map.locations for c in (loc.top_left, loc.bottom_right)]
    xs = [x for x, _ in corners]
    zs = [z for _, z in corners]
    if rows:
        xs += (rows.x[0], rows.x[-1])
        zs += (min(rows.z), max(rows.z))
    min_x, max_x, min_z, max_z = min(xs, default=0), max(xs, default=0), min(zs, default=0), max(zs, default=0)
    # One voxel of padding keeps strokes and edge labels inside the canvas.
    view_x = (min_x - 1) * s
    view_z = (min_z - 1) * s
    view_w = (max_x - min_x + 3) * s
    view_h = (max_z - min_z + 3) * s

    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view_x} {view_z} {view_w} {view_h}" '
        f'width="{view_w}" height="{view_h}">\n'
        f'<rect x="{view_x}" y="{view_z}" width="{view_w}" height="{view_h}" '
        f'fill="#ffffff" stroke="#000000" stroke-width="2"/>\n'
    )
    # Each material's rect ending, from its color, by its place in the rows' material table.
    tail = f'" width="{s}" height="{s}" fill="'
    ends = [f'{tail}{_xml_escape(style.color(material))}"/>\n' for material in rows.materials]
    start = 0
    while start < len(rows):
        # One x-slab of rows; dict(zip(zs, material indexes)) keeps each z's last row, its topmost block.
        x = rows.x[start]
        end = bisect_left(rows.x, x + 1, start)
        top = dict(zip(rows.z[start:end], rows.material_index[start:end]))
        head = f'<rect x="{x * s}" y="'
        yield "".join([f"{head}{z * s}{ends[top[z]]}" for z in sorted(top)])
        start = end

    leaves = [loc for loc in semantic_map.locations if not loc.child_ids]
    for loc in leaves:
        x = loc.top_left.x * s
        z = loc.top_left.z * s
        w = (loc.bottom_right.x - loc.top_left.x + 1) * s
        h = (loc.bottom_right.z - loc.top_left.z + 1) * s
        yield (
            f'<rect x="{x}" y="{z}" width="{w}" height="{h}" '
            f'fill="none" stroke="#202020" stroke-width="1"/>\n'
        )
        if style.show_labels:
            yield (
                f'<text x="{x + s // 2}" y="{z + s}" font-family="monospace" '
                f'font-size="{s}">{_xml_escape(loc.id)}</text>\n'
            )

    yield "</svg>\n"


GRAPH_MODES = ("hierarchy", "topology")


def _dot_id(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        lines.append(f"  {_dot_id(loc.id)};")
    for a, b in edges:
        lines.append(f"  {_dot_id(a)} {edge_op} {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
