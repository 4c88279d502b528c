"""Blueprint SVG and DOT graph rendering."""

import json
import random
import re
import xml.etree.ElementTree as ET

import pytest

from voxgen.errors import ValidationError
from voxgen.generators import gen_gridworld
from voxgen.geometry import Position, WorldModel
from voxgen.raster import rasterize
from voxgen.serialization import (
    BlockMapDocument,
    LocationRecord,
    SemanticMap,
    block_map_from_grid,
    read_semantic_map,
    semantic_map_from_world,
    write_semantic_map,
)
from voxgen.viz import BlueprintStyle, load_palette, render_blueprint, render_graph

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_rects(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f"{SVG_NS}rect")


def svg_texts(svg_text):
    root = ET.fromstring(svg_text)
    return [t.text for t in root.findall(f"{SVG_NS}text")]


def test_empty_world_renders_frame_only():
    world = WorldModel("empty").finalize()
    svg = render_blueprint(semantic_map_from_world(world))
    rects = svg_rects(svg)
    assert len(rects) == 1  # just the frame
    ET.fromstring(svg)  # well-formed XML


def test_gridworld_has_a_labeled_rectangle_per_leaf():
    m = semantic_map_from_world(gen_gridworld(2))
    svg = render_blueprint(m)
    assert sorted(svg_texts(svg)) == ["room_0_0", "room_0_1", "room_1_0", "room_1_1"]
    assert len(svg_rects(svg)) == 1 + 4  # frame plus one outline per leaf


def test_rect_coordinates_equal_bounds_times_scale():
    m = semantic_map_from_world(gen_gridworld(2))
    style = BlueprintStyle(voxel_pixel_scale=4, show_labels=False)
    svg = render_blueprint(m, style=style)
    outlines = [r for r in svg_rects(svg) if r.get("fill") == "none"]
    room = next(l for l in m.locations if l.id == "room_0_0")
    expected_x = str(room.top_left.x * 4)
    expected_w = str((room.bottom_right.x - room.top_left.x + 1) * 4)
    assert any(r.get("x") == expected_x and r.get("width") == expected_w for r in outlines)


def test_blueprint_is_deterministic():
    world = gen_gridworld(3)
    m = semantic_map_from_world(world)
    doc = block_map_from_grid(rasterize(world))
    assert render_blueprint(m, doc) == render_blueprint(m, doc)


def test_block_columns_use_topmost_material_color():
    world = gen_gridworld(2)
    m = semantic_map_from_world(world)
    doc = block_map_from_grid(rasterize(world))
    svg = render_blueprint(m, doc, BlueprintStyle(voxel_pixel_scale=2, show_labels=False))
    style = BlueprintStyle()
    assert style.color("stone") in svg


def test_each_column_takes_the_color_of_its_highest_block():
    # Materials stacked bottom to top, with gaps and negative heights; the
    # topmost material of each column sorts before the ones below it.
    stacks = {
        (0, 0): [(-2, "water"), (0, "stone"), (3, "glass")],
        (0, 1): [(1, "stone"), (2, "log")],
        (1, 0): [(5, "water"), (6, "planks"), (7, "lava")],
        (2, -1): [(-4, "stone"), (-3, "cobblestone")],
        (-1, 3): [(0, "gold_block")],
    }
    rows = [(x, y, z, material) for (x, z), stack in stacks.items() for y, material in stack]
    random.Random(7).shuffle(rows)
    style = BlueprintStyle(voxel_pixel_scale=3, show_labels=False)
    svg = render_blueprint(SemanticMap("w"), BlockMapDocument(rows=rows), style)
    painted = {
        (int(r.get("x")) // 3, int(r.get("y")) // 3): r.get("fill")
        for r in svg_rects(svg)[1:]  # after the frame
    }
    assert painted == {column: style.color(stack[-1][1]) for column, stack in stacks.items()}


def test_ids_and_colors_are_escaped_in_svg_and_dot(tmp_path):
    leaf, parent = 'a&b<"x">', "back\\slash"
    path = tmp_path / "semantic_map.json"
    write_semantic_map(SemanticMap("w", (
        LocationRecord(parent, "house", "stone", Position(0, 0, 0), Position(4, 2, 2), (leaf,)),
        LocationRecord(leaf, "room", "stone", Position(1, 1, 1), Position(1, 1, 1), ()),
    )), path)
    m = read_semantic_map(path)
    blocks = BlockMapDocument(rows=[(0, 0, 0, "quoted")])
    style = BlueprintStyle(material_palette={"quoted": '#fff" onload="x'})
    root = ET.fromstring(render_blueprint(m, blocks, style))
    assert [t.text for t in root.findall(f"{SVG_NS}text")] == [leaf]
    assert root.findall(f"{SVG_NS}rect")[1].get("fill") == '#fff" onload="x'

    assert render_graph(m, "hierarchy").splitlines()[1:] == [
        '  "a&b<\\"x\\">";',
        '  "back\\\\slash";',
        '  "back\\\\slash" -> "a&b<\\"x\\">";',
        "}",
    ]


def test_control_characters_become_replacement_characters_in_svg(tmp_path):
    leaves = ["a\u0001b", "keep\ttab", "z\x1f\x7f"]
    path = tmp_path / "semantic_map.json"
    write_semantic_map(SemanticMap("w", tuple(
        LocationRecord(leaf, "room", "stone", Position(i, 0, 0), Position(i, 0, 0), ()) for i, leaf in enumerate(leaves)
    )), path)
    m = read_semantic_map(path)
    style = BlueprintStyle(material_palette={"log": "#00\x0b00"})
    root = ET.fromstring(render_blueprint(m, BlockMapDocument(rows=[(0, 0, 0, "log")]), style))
    assert [t.text for t in root.findall(f"{SVG_NS}text")] == ["a\ufffdb", "keep\ttab", "z\ufffd\x7f"]
    assert root.findall(f"{SVG_NS}rect")[1].get("fill") == "#00\ufffd00"


def test_a_style_keeps_its_own_copy_of_the_palette():
    palette = {"log": "#000000"}
    style = BlueprintStyle(material_palette=palette)
    palette["log"] = 5
    svg = render_blueprint(SemanticMap("w"), BlockMapDocument(rows=[(0, 0, 0, "log")]), style)
    assert svg_rects(svg)[1].get("fill") == "#000000"


def test_unknown_material_gets_fallback_color():
    style = BlueprintStyle()
    assert style.color("no_such_material") == style.fallback_color


def test_palette_override(tmp_path):
    path = tmp_path / "palette.json"
    path.write_text(json.dumps({"stone": "#123456"}))
    palette = load_palette(path)
    assert palette["stone"] == "#123456"
    assert palette["log"]  # defaults preserved


@pytest.mark.parametrize("palette", [{"stone": "#12\ud80034"}, {"st\udc00ne": "#123456"}])
def test_palette_strings_must_be_utf8_encodable(tmp_path, palette):
    path = tmp_path / "palette.json"
    path.write_text(json.dumps(palette))
    with pytest.raises(ValidationError, match="palette must map material names to color strings"):
        load_palette(path)


def test_a_palette_file_names_no_empty_material(tmp_path):
    # BlueprintStyle refuses an empty material name, so the file reader does too, in its own words.
    path = tmp_path / "palette.json"
    path.write_text(json.dumps({"": "#123456"}))
    with pytest.raises(ValidationError, match="palette must map material names to color strings"):
        load_palette(path)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        BlueprintStyle(voxel_pixel_scale=0)


class TestGraph:
    def test_tutorial_hierarchy_edges(self, tutorial_map):
        dot = render_graph(tutorial_map, "hierarchy")
        assert dot.startswith("digraph hierarchy {")
        assert '"house" -> "room_1";' in dot
        assert '"house" -> "room_2";' in dot

    def test_single_location_world(self):
        m = semantic_map_from_world(gen_gridworld(1))
        dot = render_graph(m, "hierarchy")
        assert '"room_0_0";' in dot
        assert "->" not in dot

    def test_gridworld_topology_counts(self):
        m = semantic_map_from_world(gen_gridworld(2))
        dot = render_graph(m, "topology")
        assert dot.startswith("graph topology {")
        nodes = re.findall(r'^  "[^"]+";$', dot, flags=re.M)
        edges = re.findall(r'^  "[^"]+" -- "[^"]+";$', dot, flags=re.M)
        assert len(nodes) == 4
        assert len(edges) == 4

    def test_node_count_equals_location_count_in_both_modes(self, tutorial_map):
        for mode in ("hierarchy", "topology"):
            dot = render_graph(tutorial_map, mode)
            nodes = re.findall(r'^  "[^"]+";$', dot, flags=re.M)
            assert len(nodes) == len(tutorial_map.locations)

    def test_bad_mode_rejected(self, tutorial_map):
        with pytest.raises(ValueError):
            render_graph(tutorial_map, "rainbow")

    def test_graph_is_deterministic(self, tutorial_map):
        assert render_graph(tutorial_map, "topology") == render_graph(tutorial_map, "topology")
