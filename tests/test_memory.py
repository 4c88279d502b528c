"""Peak memory of the block-map and trace readers, the block-map projection and the blueprint renderer, joined and streamed, the block-map read's transient, and what a finalized world, a read block map and a read semantic map hold.

All are measured with ``tracemalloc`` on ``dungeon --n 6 --cell-footprint 20
--seed 3``: its block map (10,114 rows in 0.92 MB) and semantic map, and the
world they come from. Reading that block map peaks at 0.85 times the file's
size: the columns its document keeps, about a third of the file, and one
64 KiB chunk's text and parsed objects. A reader that parses the whole text
at once peaks at twice the file's size, the text and its undecoded bytes
held together, and one that also keeps a dict per block near four times. The
bound is 3. A renderer that keeps a column table, its sorted copy and a list
of lines peaks at five to six times the SVG's length; one that draws an
x-slab at a time stays under three. Rendered to a handle that discards what
it is given, a part at a time, the same blueprint peaks at 31 KB, 316 bytes
per (x, z) column of its largest x-slab (98 columns): that slab's part, the
list of its rect strings, its dict of topmost materials and its sorted z's,
and each location's corners. ``dungeon --n 12`` with the same footprint and
seed has 4.2 times the SVG (1.35 MB), and, its x-slabs twice the z-extent,
208 columns in its largest: its peak is 75 KB, 358 bytes per slab column,
1.13 times the first. So the peak is bounded per slab, not by the SVG: the
corners grow with the locations, but they are a few KB. A render that joins
the whole SVG first peaks at 6,713 and 13,195 bytes per slab column, 1.97
times as much. The bound is 1.5 times. A world that
keeps a checked placement for every cell of its room floors holds about 55
bytes per block-map row; one that keeps each floor as one box fill, about 7.
The bound is 20. Projecting the rasterized grid to its block map peaks
near 38 to 47 bytes per row, with what ran before: the document's columns,
28 bytes a row and about 1/16 more to grow into, and, while one x-slab is
checked into them, that slab's cell dict, its sorted keys, four lists of
its values and three arrays of its coordinates. A projection that builds a
72-byte tuple per row and sorts a list of them peaks near 78. The bound is
100.
Rasterizing that world and writing its block map as ``write_world`` does,
one x-slab at a time, peaks at about 280 bytes per row of its largest
x-slab (1,040 rows at 8 columns a slab), 293 KB. ``dungeon --n 12`` with the
same footprint and seed has 4.1 times the rows (41,717), and its slabs twice
the z-extent: its largest holds 2,294, and the peak is 704 KB, 2.4 times
the first. So the peak is bounded per slab row, not whole: nothing else it
holds grows faster than a slab, and it is near 307 bytes per slab row, 1.09
times the first. Building the whole grid and the whole document first peaks
near 1,890 bytes per slab row at n = 6 and 3,550 at n = 12, 1.88 times as
much (1.9 MB and 8.0 MB). The bound is 1.5 times. A whole collection runs
before each of these two peaks is taken, which empties the interpreter's
free lists, so that every tuple the write builds is counted and the peaks
do not depend on what ran before them.
What ``read_block_map`` still holds of the same block map when it returns
is about 32 bytes per row: its document's columns, three 8-byte coordinates
and a 4-byte material index per row (28 bytes), which ``array`` grows about
1/16 at a time (29.75), plus the 23 entities and the few material strings,
about 2.4 bytes per row. A read that keeps a 72-byte tuple per row, whose
coordinates are small cached ints and whose material is one of the read's
few shared strings, holds about 66 (80 in a fresh process, where tuples
reused from the free list are counted too); one that also keeps a string
per block's material, about 142. The bound is 35.

The same rows moved 1000 cells along x and z, past the ints CPython keeps
one object each for (-5 to 256), show how a read holds coordinates. The
columns hold each as 8 bytes whatever its value, so the read holds about 31
bytes per row again and peaks at 0.86 times the file's size. A read that
keeps row tuples holds 66 bytes per row if it shares one int per distinct
literal, and peaks at 2.01 times the file's size (``json.load`` holds the
undecoded bytes and the text at once before the parse); one that builds an
int per number holds 122, and peaks at 2.30. The bounds are 35 bytes per
row and 2.15.

A read's transient, its peak less what its document keeps, is set by the
chunk, not the file: about 0.45 MB for this block map and for that of
``dungeon --n 12`` with the same footprint and seed (41,717 rows in 3.8 MB),
a ratio of 1.0. A reader that parses the whole file has transients of
1.0 and 4.3 MB, 4.2 times; one whose 1 MiB chunk holds the whole smaller
file at once, 1.5 times. The bound is 1.5 times.

Reading a position trace of 20,000 samples, which the test writes itself,
peaks near 230 bytes per sample when the file is parsed a chunk of lines at
a time: the events themselves, plus one chunk's lines, text and dicts. The
same reader given the whole file as one chunk peaks near 700. The bound is 300.

Reading the semantic map of ``gridworld --n 30`` (900 locations and 1,740
connections in 0.83 MB) keeps about 480 bytes per record: the record tuple,
its two Position tuples and its strings, and the map's depth per location.
Records built as frozen dataclasses kept about 500. The bound is 560.

The module needs no pytest: ``python tests/test_memory.py`` runs the checks
and prints each peak or holding as a multiple of its base.
"""

import gc
import io
import json
import random
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

from voxgen.cli import build_parser, run
from voxgen.query import read_trace
from voxgen.raster import rasterize
from voxgen.serialization import BlockMapDocument, block_map_from_grid, read_block_map, read_semantic_map, write_block_map
from voxgen.viz import render_blueprint

DUNGEON = ["dungeon", "--n", "6", "--cell-footprint", "20", "--seed", "3"]
DUNGEON_ROWS = 10_114
# The same dungeon on a grid twice as wide each way.
DUNGEON_4X = ["dungeon", "--n", "12", "--cell-footprint", "20", "--seed", "3"]
GRIDWORLD = ["gridworld", "--n", "30"]
GRIDWORLD_RECORDS = 900 + 1_740
TRACE_SAMPLES = 20_000


def generate(tmp_path):
    hlr, llr = tmp_path / "semantic_map.json", tmp_path / "block_map.json"
    assert run([*DUNGEON, "--out-hlr", str(hlr), "--out-llr", str(llr)]) == 0
    return hlr, llr


def shifted(llr):
    """A copy of the block map at llr beside it, every block 1000 cells further along x and z."""
    path = llr.with_name("shifted_block_map.json")
    rows = [(x + 1000, y, z + 1000, material) for x, y, z, material in read_block_map(llr).rows]
    write_block_map(BlockMapDocument(rows), path)
    return path


def traced_peak(fn, *args):
    """fn(*args) and the most memory that Python allocations held while it ran, in bytes.

    The peak counts only what was allocated after tracing started, so the
    arguments are not part of it and the result is.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def held_after(fn, *args):
    """fn(*args) and the memory that Python allocations made by it still hold when it returns, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def build_world(argv=DUNGEON):
    args = build_parser().parse_args([*argv, "--out-hlr", "unused", "--out-llr", "unused"])
    return args.build(args)


def world_bytes_per_row():
    world, held = held_after(build_world)
    assert world.finalized
    return held / DUNGEON_ROWS


def projection_bytes_per_row():
    doc, peak = traced_peak(block_map_from_grid, rasterize(build_world()))
    assert len(doc.rows) == DUNGEON_ROWS
    return peak / DUNGEON_ROWS


def generation_bytes_per_slab_row(argv, llr):
    """The peak of rasterizing argv's world and writing its block map to llr, per row of its largest x-slab."""
    world = build_world(argv)

    def generate():
        grid = rasterize(world)
        write_block_map(map(block_map_from_grid, grid.slabs()), llr)  # as write_world writes it
        return grid

    gc.collect()
    grid, peak = traced_peak(generate)
    return peak / max(len(slab.cells) for slab in grid.slabs())


def generation_growth(tmp_path):
    """How much the generation peak per slab row grows from DUNGEON to DUNGEON_4X."""
    llr = tmp_path / "block_map.json"
    return generation_bytes_per_slab_row(DUNGEON_4X, llr) / generation_bytes_per_slab_row(DUNGEON, llr)


def read_ratio(llr):
    doc, peak = traced_peak(read_block_map, llr)
    assert len(doc.rows) == DUNGEON_ROWS
    return peak / llr.stat().st_size


def read_bytes_per_row(llr):
    doc, held = held_after(read_block_map, llr)
    assert len(doc.rows) == DUNGEON_ROWS
    return held / DUNGEON_ROWS


def read_transient(llr):
    """The most memory read_block_map(llr) held above what its document keeps, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        doc = read_block_map(llr)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.rows
    return peak - held


def read_transient_growth(tmp_path):
    """How much the read's transient grows from DUNGEON's block map to DUNGEON_4X's."""
    _, small = generate(tmp_path)
    large = tmp_path / "block_map_4x.json"
    assert run([*DUNGEON_4X, "--out-hlr", str(tmp_path / "semantic_map_4x.json"), "--out-llr", str(large)]) == 0
    return read_transient(large) / read_transient(small)


def render_ratio(hlr, llr):
    semantic_map, block_map = read_semantic_map(hlr), read_block_map(llr)
    svg, peak = traced_peak(render_blueprint, semantic_map, block_map)
    return peak / len(svg)


class Discard(io.TextIOBase):
    """A text handle that discards what it is given."""

    def write(self, text):
        return len(text)


def streamed_render_bytes_per_slab_column(argv, tmp_path):
    """The peak of rendering argv's blueprint to a Discard handle, per (x, z) column of its largest x-slab."""
    hlr, llr = tmp_path / "semantic_map.json", tmp_path / "block_map.json"
    assert run([*argv, "--out-hlr", str(hlr), "--out-llr", str(llr)]) == 0
    semantic_map, block_map = read_semantic_map(hlr), read_block_map(llr)
    columns = Counter(x for x, _ in {(x, z) for x, _, z, _ in block_map.rows})
    gc.collect()
    _, peak = traced_peak(render_blueprint, semantic_map, block_map, None, Discard())
    return peak / max(columns.values())


def streamed_render_growth(tmp_path):
    """How much the streamed render's peak per slab column grows from DUNGEON to DUNGEON_4X."""
    return (streamed_render_bytes_per_slab_column(DUNGEON_4X, tmp_path)
            / streamed_render_bytes_per_slab_column(DUNGEON, tmp_path))


def semantic_map_bytes_per_record(tmp_path):
    hlr = tmp_path / "gridworld_semantic_map.json"
    assert run([*GRIDWORLD, "--out-hlr", str(hlr), "--out-llr", str(tmp_path / "gridworld_block_map.json")]) == 0
    semantic_map, held = held_after(read_semantic_map, hlr)
    records = semantic_map.locations, semantic_map.connections, semantic_map.entities, semantic_map.objects
    assert sum(map(len, records)) == GRIDWORLD_RECORDS
    return held / GRIDWORLD_RECORDS


def write_trace(path):
    """A trace of 16 players, each with its own clock, wandering a 300 x 12 x 300 box."""
    rng = random.Random(0)
    clocks = [0] * 16
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(TRACE_SAMPLES):
            clocks[i % 16] += rng.randint(0, 250)
            handle.write(json.dumps({
                "timestamp": clocks[i % 16], "player_id": f"walker_{i % 16:02d}",
                "x": rng.randint(0, 300), "y": rng.randint(0, 12), "z": rng.randint(0, 300),
            }) + "\n")
    return path


def trace_bytes_per_sample(path):
    events, peak = traced_peak(read_trace, path)
    assert len(events) == TRACE_SAMPLES
    return peak / TRACE_SAMPLES


def test_reading_a_block_map_peaks_under_three_times_its_size(tmp_path):
    _, llr = generate(tmp_path)
    assert read_ratio(llr) < 3


def test_a_read_block_map_keeps_under_35_bytes_per_row(tmp_path):
    _, llr = generate(tmp_path)
    assert read_bytes_per_row(llr) < 35


def test_reading_a_block_map_with_large_coordinates_peaks_under_2_15_times_its_size(tmp_path):
    _, llr = generate(tmp_path)
    assert read_ratio(shifted(llr)) < 2.15


def test_a_read_block_map_with_large_coordinates_keeps_under_35_bytes_per_row(tmp_path):
    _, llr = generate(tmp_path)
    assert read_bytes_per_row(shifted(llr)) < 35


def test_reading_4x_the_block_map_takes_within_1_5_times_the_transient_memory(tmp_path):
    assert read_transient_growth(tmp_path) < 1.5


def test_rendering_a_blueprint_peaks_under_three_times_its_length(tmp_path):
    hlr, llr = generate(tmp_path)
    assert render_ratio(hlr, llr) < 3


def test_streaming_4x_the_blueprint_peaks_within_1_5_times_per_slab_column(tmp_path):
    assert streamed_render_growth(tmp_path) < 1.5


def test_a_finalized_world_holds_under_20_bytes_per_block_map_row():
    assert world_bytes_per_row() < 20


def test_projecting_a_grid_to_its_block_map_peaks_under_100_bytes_per_row():
    assert projection_bytes_per_row() < 100


def test_generating_4x_the_cells_peaks_within_1_5_times_per_slab_row(tmp_path):
    assert generation_growth(tmp_path) < 1.5


def test_a_read_semantic_map_keeps_under_560_bytes_per_record(tmp_path):
    assert semantic_map_bytes_per_record(tmp_path) < 560


def test_reading_a_trace_peaks_under_300_bytes_per_sample(tmp_path):
    assert trace_bytes_per_sample(write_trace(tmp_path / "trace.jsonl")) < 300


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        hlr, llr = generate(Path(scratch))
        ratios = {"read_block_map / file size": read_ratio(llr), "render_blueprint / SVG length": render_ratio(hlr, llr)}
        per_read_row = read_bytes_per_row(llr)
        large = shifted(llr)
        large_ratio, per_large_row = read_ratio(large), read_bytes_per_row(large)
        per_sample = trace_bytes_per_sample(write_trace(Path(scratch) / "trace.jsonl"))
        per_record = semantic_map_bytes_per_record(Path(scratch))
        growth = generation_growth(Path(scratch))
        read_growth = read_transient_growth(Path(scratch))
        render_growth = streamed_render_growth(Path(scratch))
    per_row, projection = world_bytes_per_row(), projection_bytes_per_row()
    for name, ratio in ratios.items():
        print(f"{sys.version.split()[0]}  {name}: {ratio:.2f} (limit 3)")
    print(f"{sys.version.split()[0]}  read_block_map kept / block-map rows: {per_read_row:.1f} bytes (limit 35)")
    print(f"{sys.version.split()[0]}  read_block_map, coordinates past 256 / file size: {large_ratio:.2f} (limit 2.15)")
    print(f"{sys.version.split()[0]}  read_block_map kept, coordinates past 256 / block-map rows: {per_large_row:.1f} "
          "bytes (limit 35)")
    print(f"{sys.version.split()[0]}  read_block_map transient, 4x the rows / 1x: {read_growth:.2f} (limit 1.5)")
    print(f"{sys.version.split()[0]}  finalized world / block-map rows: {per_row:.1f} bytes (limit 20)")
    print(f"{sys.version.split()[0]}  block_map_from_grid peak / block-map rows: {projection:.1f} bytes (limit 100)")
    print(f"{sys.version.split()[0]}  rasterize + block-map write peak per slab row, 4x the cells / 1x: {growth:.2f} "
          "(limit 1.5)")
    print(f"{sys.version.split()[0]}  render_blueprint to a handle, peak per slab column, 4x the SVG / 1x: "
          f"{render_growth:.2f} (limit 1.5)")
    print(f"{sys.version.split()[0]}  read_trace peak / trace samples: {per_sample:.1f} bytes (limit 300)")
    print(f"{sys.version.split()[0]}  read_semantic_map kept / records: {per_record:.1f} bytes (limit 560)")
    sys.exit(any(ratio >= 3 for ratio in ratios.values()) or per_read_row >= 35 or large_ratio >= 2.15
             or per_large_row >= 35 or read_growth >= 1.5 or per_row >= 20 or projection >= 100 or per_sample >= 300 or per_record >= 560
             or growth >= 1.5 or render_growth >= 1.5)
