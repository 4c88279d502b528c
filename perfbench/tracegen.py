"""Seeded position-trace generator for the ``monitor`` command.

The trace is built from a semantic map (HLR) with the standard library's
``random.Random`` seeded by the benchmark's workload seed, so the same map and
seed always give the same bytes. It reads the HLR JSON directly instead of
going through ``voxgen`` so that the trace does not depend on the code it is
used to measure.

Two kinds of player are interleaved, each with its own non-decreasing integer
millisecond clock (docs/file-formats.md, "Position trace"):

- walkers move one voxel per sample, or stand still, along a path from a
  random point in their location to the centre of one of its connections,
  then on to a random point in the location on the other side. Their samples
  are local and they cross doors.
- teleporters jump to a uniform point of the world's extent, widened by a
  margin so that some samples fall outside every location.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

SAMPLES = 20_000
WALKERS = 12
TELEPORTERS = 4
EXTENT_MARGIN = 4
IDLE_PROBABILITY = 0.2
MAX_TICK_MS = 250

Point = tuple[int, int, int]
Box = tuple[Point, Point]


def _box(raw: dict) -> Box:
    bounds = raw["bounds"]
    return tuple(bounds["top_left"]), tuple(bounds["bottom_right"])


def _inside(rng: random.Random, box: Box) -> Point:
    """A uniform point strictly inside a box where the box is wide enough."""
    (x0, y0, z0), (x1, y1, z1) = box
    pick = lambda lo, hi: rng.randint(lo + 1, hi - 1) if hi - lo >= 2 else rng.randint(lo, hi)
    return pick(x0, x1), pick(y0, y1), pick(z0, z1)


def _centre(box: Box) -> Point:
    (x0, y0, z0), (x1, y1, z1) = box
    return (x0 + x1) // 2, (y0 + y1) // 2, (z0 + z1) // 2


def _steps(start: Point, end: Point) -> Iterator[Point]:
    """Unit steps from start to end, each along the axis with most left to go."""
    p = list(start)
    while tuple(p) != end:
        axis = max(range(3), key=lambda a: abs(end[a] - p[a]))
        p[axis] += 1 if end[axis] > p[axis] else -1
        yield tuple(p)


class _World:
    def __init__(self, hlr: dict):
        self.boxes = {loc["id"]: _box(loc) for loc in hlr["locations"]}
        if not self.boxes:
            raise ValueError("semantic map has no locations to walk through")
        self.ids = sorted(self.boxes)
        self.links: dict[str, list[tuple[Box, list[str]]]] = {i: [] for i in self.ids}
        for conn in hlr["connections"]:
            for loc_id in conn["connected_ids"]:
                self.links[loc_id].append((_box(conn), conn["connected_ids"]))
        lows = [box[0] for box in self.boxes.values()]
        highs = [box[1] for box in self.boxes.values()]
        self.extent = (
            tuple(min(p[a] for p in lows) - EXTENT_MARGIN for a in range(3)),
            tuple(max(p[a] for p in highs) + EXTENT_MARGIN for a in range(3)),
        )


class _Walker:
    def __init__(self, world: _World, rng: random.Random):
        self.world, self.rng = world, rng
        self.where = rng.choice(world.ids)
        self.pos = _inside(rng, world.boxes[self.where])
        self.path: list[Point] = []

    def _plan(self) -> None:
        rng, world = self.rng, self.world
        links = world.links[self.where]
        if not links:
            self.where = rng.choice(world.ids)
            self.path = [_inside(rng, world.boxes[self.where])]
            return
        door, ends = rng.choice(links)
        self.where = rng.choice([e for e in ends if e != self.where] or ends)
        via = _centre(door)
        goal = _inside(rng, world.boxes[self.where])
        self.path = list(_steps(self.pos, via)) + list(_steps(via, goal))
        self.path.reverse()

    def step(self) -> Point:
        if self.rng.random() >= IDLE_PROBABILITY:
            while not self.path:
                self._plan()
            self.pos = self.path.pop()
        return self.pos


class _Teleporter:
    def __init__(self, world: _World, rng: random.Random):
        self.world, self.rng = world, rng

    def step(self) -> Point:
        lo, hi = self.world.extent
        return tuple(self.rng.randint(lo[a], hi[a]) for a in range(3))


def generate(hlr: dict, seed: int, samples: int = SAMPLES) -> list[dict]:
    """The trace samples, in file order, for a parsed semantic map."""
    rng = random.Random(seed)
    world = _World(hlr)
    players = [(f"walker_{i:02d}", _Walker(world, rng)) for i in range(WALKERS)]
    players += [(f"teleporter_{i:02d}", _Teleporter(world, rng)) for i in range(TELEPORTERS)]
    clocks = [rng.randrange(1000) for _ in players]
    out = []
    for _ in range(samples):
        k = rng.randrange(len(players))
        player_id, player = players[k]
        x, y, z = player.step()
        out.append({"timestamp": clocks[k], "player_id": player_id, "x": x, "y": y, "z": z})
        clocks[k] += rng.randrange(MAX_TICK_MS)
    return out


def write_trace(hlr_path: str, seed: int, out_path: str, samples: int = SAMPLES) -> None:
    with open(hlr_path, "r", encoding="utf-8") as handle:
        hlr = json.load(handle)
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        for sample in generate(hlr, seed, samples):
            handle.write(json.dumps(sample) + "\n")
