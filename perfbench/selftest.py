"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

The pin test runs the benchmark itself (about three minutes on two cores);
the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracegen

sys.path.insert(0, str(run.SRC))

from voxgen import gen_dungeon, gen_gridworld, gen_tutorial_house, gen_zombieworld, rasterize, write_world  # noqa: E402
from voxgen.generators import DungeonParams  # noqa: E402
from voxgen.query import read_trace  # noqa: E402

import tracing  # noqa: E402

SCRATCH = run.WORK / "selftest"


def setUpModule() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class PinsHold(unittest.TestCase):
    def test_every_output_matches_its_pin_at_the_default_seed(self):
        for workload in sorted(run.WORKLOADS):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                                 "--seconds", "0", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    last = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(last["correct"], proc.stdout)
                    self.assertNotIn("unpinned", proc.stdout)
                    # No metric may be 0 on any workload.
                    self.assertEqual([n for n, m in last["metrics"].items() if m["value"] == 0], [])


class TraceGenerator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        hlr, llr = SCRATCH / "g4.json", SCRATCH / "g4_blocks.json"
        world = gen_gridworld(4)
        write_world(world, rasterize(world), hlr, llr)
        cls.hlr_path = hlr
        cls.hlr = json.loads(hlr.read_text())

    def test_same_seed_same_trace_other_seed_other_trace(self):
        first = tracegen.generate(self.hlr, 7, 2000)
        self.assertEqual(first, tracegen.generate(self.hlr, 7, 2000))
        self.assertNotEqual(first, tracegen.generate(self.hlr, 8, 2000))

    def test_read_trace_accepts_output_and_clocks_never_go_back(self):
        path = SCRATCH / "trace.jsonl"
        tracegen.write_trace(str(self.hlr_path), 3, str(path), 3000)
        samples = read_trace(path)
        self.assertEqual(len(samples), 3000)
        last: dict[str, int] = {}
        for sample in samples:
            self.assertGreaterEqual(sample.timestamp, last.get(sample.player_id, 0))
            last[sample.player_id] = sample.timestamp
        self.assertEqual(len(last), tracegen.WALKERS + tracegen.TELEPORTERS)

    def test_walkers_are_local_and_teleporters_leave_every_room(self):
        boxes = [tracegen._box(loc) for loc in self.hlr["locations"]]
        inside = lambda p: any(all(lo[a] <= p[a] <= hi[a] for a in range(3)) for lo, hi in boxes)
        previous: dict[str, tuple] = {}
        outside = 0
        for s in tracegen.generate(self.hlr, 5, 4000):
            p = (s["x"], s["y"], s["z"])
            if s["player_id"].startswith("walker") and s["player_id"] in previous:
                self.assertLessEqual(sum(abs(a - b) for a, b in zip(p, previous[s["player_id"]])), 1)
            if s["player_id"].startswith("teleporter"):
                outside += not inside(p)
            previous[s["player_id"]] = p
        self.assertGreater(outside, 0)


class ChildRss(unittest.TestCase):
    def test_each_child_reports_its_own_peak(self):
        # This process holds 200 MB and the first child peaks above 300 MB; the
        # second child must still read as a bare interpreter.
        held = bytearray(200 * 2**20)
        held[::4096] = b"1" * len(held[::4096])
        with run.Launcher(SCRATCH / "stderr.txt") as launcher:
            big = launcher.run([sys.executable, "-c", "b = bytearray(300 * 2**20); b[::4096] = b'1' * len(b[::4096])"])
            small = launcher.run([sys.executable, "-S", "-c", "pass"])
        self.assertTrue(big.ok and small.ok)
        self.assertGreater(big.rss_mb, 300)
        self.assertLess(small.rss_mb, 40)
        self.assertLess(launcher.own_rss_mb, small.rss_mb + 5)

    def test_failure_is_a_nonzero_exit_or_any_stderr(self):
        with run.Launcher(SCRATCH / "stderr.txt") as launcher:
            self.assertFalse(launcher.run([sys.executable, "-c", "import sys; sys.exit(3)"]).ok)
            self.assertFalse(launcher.run([sys.executable, "-c", "import sys; sys.stderr.write('x')"]).ok)
            self.assertTrue(launcher.run([sys.executable, "-c", "pass"]).ok)


class Workloads(unittest.TestCase):
    def test_dungeon_seed_fixes_the_room_count(self):
        self.assertEqual(run.dungeon_seed(run.DEFAULT_SEED), run.DEFAULT_SEED)
        for seed in (2, 3, 2**64 - 1):
            world = gen_dungeon(DungeonParams(n=run.DUNGEON_N, seed=run.dungeon_seed(seed),
                                              cell_footprint=run.DUNGEON_FOOTPRINT))
            rooms = [v for v in world.volumes if v.volume_type == "room"]
            self.assertEqual(len(rooms), run.DUNGEON_ROOMS)
        self.assertNotEqual(run.dungeon_seed(2), run.dungeon_seed(3))

    def test_cell_writes_follows_the_documented_write_order(self):
        worlds = [gen_tutorial_house(), gen_zombieworld(0), gen_gridworld(3),
                  gen_dungeon(DungeonParams(n=4, seed=2))]
        for world in worlds:
            with self.subTest(world=world.id):
                self.assertEqual(tracing.cell_writes(world), brute_cell_writes(world))

    def test_no_result_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.BENCHMARK_FILE, bare / "BENCHMARK.json")
        proc = bench("--workload", "grid-build", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def brute_cell_writes(world) -> int:
    """Per volume, the distinct cells of each write step, by box membership."""
    writes = len(world.blocks) + len(world.objects)
    for v in world.walk_volumes():
        tl, br = v.top_left, v.bottom_right
        box = [(x, y, z) for x in range(tl.x, br.x + 1) for y in range(tl.y, br.y + 1)
               for z in range(tl.z, br.z + 1)]
        if v.material != "blank":
            writes += sum(1 for x, _, z in box if x in (tl.x, br.x) or z in (tl.z, br.z))
        if v.has_roof:
            writes += sum(1 for _, y, _ in box if y == br.y)
        writes += len(v.blocks) + len(v.objects)
    return writes


if __name__ == "__main__":
    unittest.main()
