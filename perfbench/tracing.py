"""In-process tracing of the voxgen CLI, layer by layer.

The benchmark's traced run calls ``voxgen.cli.run`` in its own process with
the layer functions swapped for timing wrappers. Nothing under ``src/`` knows
about it. Each wrapper is installed where its caller looks the name up:
``cli.py`` binds its own imported names, ``write_world`` looks up the
projection and writer functions in ``voxgen.serialization``, and methods are
replaced on their classes. ``Tracer.patched`` restores every original on exit.

A span records its name, start, end and the span open when it started. A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from voxgen import cli, serialization
from voxgen.geometry import BoundingVolume, WorldModel
from voxgen.query import LocationIndex
from voxgen.rng import SeededRng

GEOMETRY_SPANS = ("geometry.add_volume", "geometry.add_child", "geometry.generate_box", "geometry.finalize")


class Tracer:
    """Spans and counts for one traced command sequence, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.located: list[Any] = []

    def _timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _recorded(self, fn: Callable) -> Callable:
        located = self.located

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            located.append(result)
            return result

        return wrapper

    # -- what each wrapper learns from its call --------------------------------

    def _after_generate(self, _args, world: WorldModel) -> None:
        volumes = list(world.walk_volumes())
        add = self.counts
        add["generators.volumes"] += len(volumes)
        add["generators.connections"] += sum(1 for _ in world.all_connections())
        add["generators.entities"] += sum(len(v.entities) for v in volumes) + len(world.entities)
        add["generators.objects"] += sum(len(v.objects) for v in volumes) + len(world.objects)
        add["geometry.blocks"] += sum(len(v.blocks) for v in volumes) + len(world.blocks)
        add["raster.cell_writes"] += cell_writes(world)

    def _after_rasterize(self, _args, grid) -> None:
        self.counts["raster.cells"] += len(grid.cells)

    def _after_transitions(self, args, events) -> None:
        _index, trace = args
        self.counts["query.samples"] += len(trace)
        self.counts["query.events"] += len(events)
        self.counts["query.same_location"] += same_location(trace, self.located)
        self.located.clear()

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        t = self._timed
        patches = [
            (cli, "gen_gridworld", t("generators.gen", cli.gen_gridworld, self._after_generate)),
            (cli, "gen_dungeon", t("generators.gen", cli.gen_dungeon, self._after_generate)),
            (cli, "gen_zombieworld", t("generators.gen", cli.gen_zombieworld, self._after_generate)),
            (cli, "gen_tutorial_house", t("generators.gen", cli.gen_tutorial_house, self._after_generate)),
            (WorldModel, "add_volume", t("geometry.add_volume", WorldModel.add_volume)),
            (WorldModel, "finalize", t("geometry.finalize", WorldModel.finalize)),
            (BoundingVolume, "add_child", t("geometry.add_child", BoundingVolume.add_child)),
            (BoundingVolume, "generate_box", t("geometry.generate_box", BoundingVolume.generate_box)),
            (SeededRng, "randint", self._counted("rng.draws", SeededRng.randint)),
            (SeededRng, "random", self._counted("rng.draws", SeededRng.random)),
            (cli, "rasterize", t("raster.rasterize", cli.rasterize, self._after_rasterize)),
            (serialization, "semantic_map_from_world",
             t("serialization.project_hlr", serialization.semantic_map_from_world)),
            (serialization, "block_map_from_grid",
             t("serialization.project_llr", serialization.block_map_from_grid)),
            (serialization, "write_semantic_map", t("serialization.write_hlr", serialization.write_semantic_map)),
            (serialization, "write_block_map", t("serialization.write_llr", serialization.write_block_map)),
            (cli, "read_semantic_map", t("serialization.read_hlr", cli.read_semantic_map)),
            (cli, "read_block_map", t("serialization.read_llr", cli.read_block_map)),
            (cli, "read_trace", t("query.read_trace", cli.read_trace)),
            (cli, "LocationIndex", t("query.index_build", cli.LocationIndex)),
            (LocationIndex, "transitions", t("query.transitions", LocationIndex.transitions, self._after_transitions)),
            (LocationIndex, "locate", self._recorded(LocationIndex.locate)),
            (cli, "write_transitions", t("query.write_transitions", cli.write_transitions)),
            (cli, "render_blueprint", t("viz.render_blueprint", cli.render_blueprint)),
            (cli, "render_graph", t("viz.render_graph", cli.render_graph)),
        ]
        originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------------

    def seconds(self) -> dict[str, float]:
        """Total span time per span name, plus generators.self."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            total[name] += end - start
        geometry_in_generators = sum(
            end - start
            for name, start, end, parent in self.spans
            if name in GEOMETRY_SPANS and parent >= 0 and self.spans[parent][0] == "generators.gen"
        )
        total["generators.self"] = total["generators.gen"] - geometry_in_generators
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def cell_writes(world: WorldModel) -> int:
    """Cell assignments the documented raster write order makes (raster.py).

    Per volume: its shell (perimeter of the x-z footprint at every y layer,
    unless the material is blank), its roof (the full footprint), its blocks
    and its objects' blocks; then the world's loose blocks and objects. A
    cell written by two volumes, such as a shared wall, counts twice.
    """
    writes = len(world.blocks) + len(world.objects)
    for v in world.walk_volumes():
        nx = v.bottom_right.x - v.top_left.x + 1
        ny = v.bottom_right.y - v.top_left.y + 1
        nz = v.bottom_right.z - v.top_left.z + 1
        if v.material != "blank":
            writes += ny * (nx * nz - max(nx - 2, 0) * max(nz - 2, 0))
        if v.has_roof:
            writes += nx * nz
        writes += len(v.blocks) + len(v.objects)
    return writes


def same_location(samples, located) -> int:
    """Samples in the same non-null location as their player's previous sample."""
    previous: dict[str, Any] = {}
    same = 0
    for sample, here in zip(samples, located):
        if here is not None and previous.get(sample.player_id) == here:
            same += 1
        previous[sample.player_id] = here
    return same
