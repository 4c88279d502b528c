"""Layered benchmark of the voxgen command-line interface.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-build --seed 1 --seconds 55 --trace 0

Each workload is one user session, repeated for ``--seconds``: generate a
world, replay a seeded position trace against it with ``monitor``, render its
``viz blueprint --llr`` and its ``viz graph --mode topology``. Every command
is a separate ``python -m voxgen.cli`` child with ``src`` on ``PYTHONPATH``,
started one at a time by ``launcher.py`` and reaped with ``os.wait4`` so that
its peak RSS is its own. Every output file is hashed and checked against
``pins.json``.

With ``--trace 0`` the run reports the end-to-end metrics: means over the
repetitions of the command wall times and peak RSS, and ``setup_s``, the
median start-up time of the children, spread over the run, that only import
``voxgen.cli``. With ``--trace 1`` the run makes one traced generator call
per size-sweep point, then, for ``--seconds``, repeats the same session in
this process through ``voxgen.cli.run``, each command untraced and traced
(``tracing.py``) back to back; it reports per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report. ``perfbench/.work/results`` keeps every sample, span
total and output hash of the run.

NOTES.md says why each workload was chosen and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import tracegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = HERE / "pins.json"

DEFAULT_SEED = 1
# One setup child runs after each of these steps of every repetition, so that
# setup_s samples the host over the whole run rather than at its start.
SETUP_AFTER = ("gen", "blueprint")
# The traced run repeats the session at least this often, whatever
# --seconds is, so that bench.trace_overhead rests on at least
# MIN_TRACED_CYCLES x 4 untraced/traced command pairs.
MIN_TRACED_CYCLES = 4
# graph is the shortest command, so each repetition runs it three times to
# give its mean as many samples as the others get in a run.
REPEATS = {"graph": 3}
GRID_N = 30

# dungeon-bigrooms holds the room count fixed so that every seed asks for the
# same amount of work: the dungeon seed is the first candidate, stepping from
# the workload seed by 2**32, whose occupancy roll (one random() per cell of
# the n x n grid, row-major, as documented in generators/dungeon.py) gives
# DUNGEON_ROOMS rooms. Workload seed 1 maps to dungeon seed 1.
DUNGEON_N = 12
DUNGEON_FOOTPRINT = 40
DUNGEON_ROOM_PROBABILITY = 0.5
DUNGEON_ROOMS = 74


def dungeon_seed(workload_seed: int) -> int:
    candidate = workload_seed % 2**64
    while True:
        draws = random.Random(candidate)
        rooms = sum(draws.random() < DUNGEON_ROOM_PROBABILITY for _ in range(DUNGEON_N * DUNGEON_N))
        if rooms == DUNGEON_ROOMS:
            return candidate
        candidate = (candidate + 2**32) % 2**64


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable[[int], list[str]]
    # Artifacts whose bytes do not depend on the workload seed; they are
    # checked against their pins at every seed.
    seedless: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-build", lambda seed: ["gridworld", "--n", str(GRID_N)], ("hlr", "llr", "svg", "dot")),
        Workload(
            "dungeon-bigrooms",
            lambda seed: ["dungeon", "--n", str(DUNGEON_N), "--cell-footprint", str(DUNGEON_FOOTPRINT),
                          "--seed", str(dungeon_seed(seed))],
        ),
    )
}

# Size sweep of the traced run, plus the fixed worlds whose bytes are pinned.
# Each point names the per-layer metrics it reports, sweep.<point>.<key>. A
# key is reported only where the generator makes it non-zero: gridworld calls
# neither generate_box nor the rng and places no blocks, entities or objects,
# and only tutorial and zombieworld call add_child.
SIZED = ("gen_s", "add_volume_s", "rasterize_s", "write_llr_s", "volumes", "cells")
SWEEP = (
    ("gridworld-n10", ["gridworld", "--n", "10"], SIZED),
    ("gridworld-n20", ["gridworld", "--n", "20"], SIZED),
    ("gridworld-n40", ["gridworld", "--n", "40"], SIZED),
    ("gridworld-n60", ["gridworld", "--n", "60"], SIZED),
    ("dungeon-n8", ["dungeon", "--n", "8", "--seed", "0"], SIZED + ("generate_box_s",)),
    ("dungeon-n16", ["dungeon", "--n", "16", "--seed", "0"], SIZED + ("generate_box_s",)),
    ("dungeon-n32", ["dungeon", "--n", "32", "--seed", "0"], SIZED + ("generate_box_s",)),
)
# Fixed worlds, traced in every run of either workload and not part of the
# fits. The dungeon-bigrooms world at the default seed carries the
# generator-dependent layer metrics that the grid-build session would report
# as 0; tutorial and zombieworld are the generators that call add_child.
FIXED_POINTS = (
    ("dungeon-n12-f40-s1",
     ["dungeon", "--n", str(DUNGEON_N), "--cell-footprint", str(DUNGEON_FOOTPRINT),
      "--seed", str(dungeon_seed(DEFAULT_SEED))],
     SIZED + ("generate_box_s", "rng_draws", "blocks", "entities", "objects")),
    ("tutorial", ["tutorial"], ("gen_s", "add_child_s")),
    ("zombieworld-s0", ["zombieworld", "--seed", "0"], ("gen_s", "add_child_s")),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- files and hashes --------------------------------------------------------------


ARTIFACTS = {"hlr": "json", "llr": "json", "trace": "jsonl", "events": "jsonl", "svg": "svg", "dot": "dot"}


@dataclass(frozen=True)
class Files:
    dir: Path

    def path(self, artifact: str) -> Path:
        return self.dir / f"{artifact}.{ARTIFACTS[artifact]}"

    def session(self, workload: Workload, seed: int) -> list[tuple[str, list[str], tuple[str, ...]]]:
        """(step, argv, artifacts written) for each command of one repetition."""
        p = lambda artifact: str(self.path(artifact))
        return [
            ("gen", workload.generator(seed) + ["--out-hlr", p("hlr"), "--out-llr", p("llr")], ("hlr", "llr")),
            ("monitor", ["monitor", "--hlr", p("hlr"), "--trace", p("trace"), "--out", p("events")], ("events",)),
            ("blueprint", ["viz", "blueprint", "--hlr", p("hlr"), "--llr", p("llr"), "--out", p("svg")], ("svg",)),
            ("graph", ["viz", "graph", "--hlr", p("hlr"), "--mode", "topology", "--out", p("dot")], ("dot",)),
        ]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Pins:
    """Checks output hashes against the pins, or against the run's first hashes."""

    def __init__(self, expected: dict[str, str]):
        self.expected = dict(expected)
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []

    def check(self, key: str, path: Path) -> bool:
        try:
            digest = sha256(path)
        except OSError as err:
            self.mismatches.append(f"{key}: {err}")
            return False
        self.seen.setdefault(key, digest)
        want = self.expected.get(key, self.seen[key])
        if digest != want:
            self.mismatches.append(f"{key}: sha256 {digest} != {want}")
            return False
        return True

    @property
    def unpinned(self) -> list[str]:
        return sorted(set(self.seen) - set(self.expected))


def load_pins(workload: Workload, seed: int) -> Pins:
    pins = json.loads(PINS_FILE.read_text())
    mine = pins["workloads"].get(workload.name, {})
    if seed != pins["default_seed"]:
        mine = {k: v for k, v in mine.items() if k in workload.seedless}
    points = {f"{point}.{artifact}": digest
              for point, hashes in pins["points"].items() for artifact, digest in hashes.items()}
    return Pins({**mine, **points})


# -- child processes ----------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    ok: bool
    detail: str = ""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The helper process (launcher.py) that starts and reaps every timed child."""

    def __init__(self, stderr_path: Path):
        self.stderr_path = stderr_path
        self.own_rss_mb = 0.0
        self.proc = subprocess.Popen([sys.executable, "-S", "-I", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=170)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def run(self, argv: list[str]) -> Outcome:
        """Run one child to completion; its rusage comes from wait4 on its own pid."""
        self.proc.stdin.write(json.dumps([argv, str(self.stderr_path)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 4:
            raise BenchError(f"launcher stopped while running {argv}")
        wall, maxrss_kb, code, own_kb = float(reply[0]), int(reply[1]), int(reply[2]), int(reply[3])
        self.own_rss_mb = own_kb / 1024
        err = self.stderr_path.read_text("utf-8", "replace").strip()
        ok = code == 0 and not err
        detail = "" if ok else f"exit {code}: {err.splitlines()[-1] if err else 'no stderr'}"
        return Outcome(wall, maxrss_kb / 1024, ok, detail)

    def cli(self, args: list[str]) -> Outcome:
        return self.run([sys.executable, "-m", "voxgen.cli", *args])


def measure_setup(launcher: Launcher) -> float:
    """Wall time of a child that only imports voxgen.cli."""
    outcome = launcher.run([sys.executable, "-c", "import voxgen.cli"])
    if not outcome.ok:
        raise BenchError(f"cannot import voxgen.cli: {outcome.detail}")
    return outcome.wall_s


# -- statistics and reporting -----------------------------------------------------------


def log_log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def record(self, what: str, outcome_ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not outcome_ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}")

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def finish(result: Result, pins: Pins) -> int:
    units = declared_metrics(result.trace)
    if set(result.metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(result.metrics) ^ set(units))} do not match BENCHMARK.json")
    correct = not result.failures and not pins.mismatches
    error_rate = result.failed / max(result.attempted, 1)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{result.workload}-seed{result.seed}-trace{result.trace}.json").write_text(json.dumps({
        "workload": result.workload, "seed": result.seed, "trace": result.trace, "correct": correct,
        "attempted": result.attempted, "failed": result.failed, "error_rate": error_rate,
        "failures": result.failures + pins.mismatches, "metrics": result.metrics,
        "samples": result.samples, "sha256": pins.seen, "unpinned": pins.unpinned,
        **result.extra,
    }, indent=2, sort_keys=True) + "\n")

    print(f"workload {result.workload}  seed {result.seed}  trace {result.trace}  "
          f"attempted {result.attempted}  failed {result.failed}  error_rate {error_rate:.4f}  correct {correct}")
    for line in result.failures + pins.mismatches:
        print(f"  FAIL {line}")
    if pins.unpinned:
        print(f"  unpinned at this seed, held equal across repetitions: {', '.join(pins.unpinned)}")
    for name, unit in units.items():
        values = result.samples.get(name, [])
        spread = (f"  n={len(values)}  min {min(values):.6g}  median {statistics.median(values):.6g}"
                  f"  max {max(values):.6g}" if values else "")
        print(f"  {name:<44} {result.metrics[name]:>14.6g} {unit}{spread}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


# -- untraced run: one child per command ---------------------------------------------------


def make_trace(files: Files, seed: int, pins: Pins) -> None:
    """Write the run's position trace from the generated HLR, before monitor needs it."""
    tracegen.write_trace(str(files.path("hlr")), seed, str(files.path("trace")))
    pins.check("trace", files.path("trace"))


def timed_run(workload: Workload, seed: int, seconds: float) -> int:
    files = Files(WORK / workload.name)
    files.dir.mkdir(parents=True, exist_ok=True)
    for artifact in ARTIFACTS:
        files.path(artifact).unlink(missing_ok=True)
    pins = load_pins(workload, seed)
    result = Result(workload.name, seed, 0)
    session = result.extra["session"] = files.session(workload, seed)
    with Launcher(files.dir / "stderr.txt") as launcher:
        measure_setup(launcher)  # warm-up
        start = time.perf_counter()
        cycles = 0
        while True:
            for step, argv, artifacts in session:
                for _ in range(REPEATS.get(step, 1)):
                    outcome = launcher.cli(argv)
                    ok = outcome.ok and all([pins.check(a, files.path(a)) for a in artifacts])
                    result.record(step, ok, outcome.detail or "output differs from its pin")
                    result.add(f"{step}_s", outcome.wall_s)
                    result.add(f"{step}_rss_mb", outcome.rss_mb)
                if step == "gen" and cycles == 0:
                    make_trace(files, seed, pins)
                if step in SETUP_AFTER:
                    result.add("setup_s", measure_setup(launcher))
            cycles += 1
            # Stop at the repetition whose end lands nearest the deadline.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles / 2 >= seconds:
                break

    floor = min(min(result.samples[f"{step}_rss_mb"]) for step in ("gen", "monitor", "blueprint"))
    result.extra["launcher_peak_rss_mb"] = launcher.own_rss_mb
    if launcher.own_rss_mb >= floor:
        result.failures.append(f"rss: launcher peak RSS {launcher.own_rss_mb:.1f} MB >= child reading {floor:.1f} MB")
    # Command times are means, not medians: the host's speed switches between
    # levels several times a minute, and a run's median jumps between them
    # while its mean moves with the share of time spent at each (NOTES.md,
    # "Steadiness"). setup_s is the median of its children.
    result.metrics = {name: statistics.fmean(result.samples[name]) for name in declared_metrics(0)}
    result.metrics["setup_s"] = statistics.median(result.samples["setup_s"])
    return finish(result, pins)


# -- traced run: in-process through voxgen.cli.run ---------------------------------------------


def run_in_process(cli, argv: list[str]) -> Outcome:
    gc.collect()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except (Exception, SystemExit):
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    text = err.getvalue().strip()
    ok = code == 0 and not text
    return Outcome(wall, float("nan"), ok, "" if ok else f"exit {code}: {text.splitlines()[-1] if text else ''}")


def layer_metrics(tracer, files: Files) -> dict[str, float]:
    s = tracer.seconds()
    c = tracer.counts
    samples = max(c["query.samples"], 1)
    return {
        "generators.gen_s": s["generators.gen"],
        "generators.self_s": s["generators.self"],
        "generators.volumes": c["generators.volumes"],
        "generators.connections": c["generators.connections"],
        "geometry.add_volume_s": s["geometry.add_volume"],
        "geometry.add_volume_calls": tracer.calls("geometry.add_volume"),
        "geometry.finalize_s": s["geometry.finalize"],
        "raster.rasterize_s": s["raster.rasterize"],
        "raster.cells": c["raster.cells"],
        "raster.cell_writes": c["raster.cell_writes"],
        "raster.useful_write_ratio": c["raster.cells"] / max(c["raster.cell_writes"], 1),
        "serialization.project_hlr_s": s["serialization.project_hlr"],
        "serialization.project_llr_s": s["serialization.project_llr"],
        "serialization.write_hlr_s": s["serialization.write_hlr"],
        "serialization.write_llr_s": s["serialization.write_llr"],
        "serialization.hlr_bytes": files.path("hlr").stat().st_size,
        "serialization.llr_bytes": files.path("llr").stat().st_size,
        "serialization.read_hlr_s": s["serialization.read_hlr"],
        "serialization.read_llr_s": s["serialization.read_llr"],
        "query.read_trace_s": s["query.read_trace"],
        "query.index_build_s": s["query.index_build"],
        "query.transitions_s": s["query.transitions"],
        "query.write_transitions_s": s["query.write_transitions"],
        "query.per_sample_us": s["query.transitions"] / samples * 1e6,
        "query.samples": c["query.samples"],
        "query.events": c["query.events"],
        "query.same_location_ratio": c["query.same_location"] / samples,
        "viz.render_blueprint_s": s["viz.render_blueprint"],
        "viz.svg_bytes": files.path("svg").stat().st_size,
        "viz.render_graph_s": s["viz.render_graph"],
    }


def traced_run(workload: Workload, seed: int, seconds: float) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    from voxgen import cli

    files = Files(WORK / f"{workload.name}-traced")
    files.dir.mkdir(parents=True, exist_ok=True)
    pins = load_pins(workload, seed)
    result = Result(workload.name, seed, 1)

    session = result.extra["session"] = files.session(workload, seed)
    if not run_in_process(cli, session[0][1]).ok:
        raise BenchError("generator failed before timing")
    make_trace(files, seed, pins)
    sweep = sweep_metrics(cli, tracing, pins, result)

    # Each command runs untraced and traced back to back, in an order that
    # alternates between cycles, so that both halves of a pair see the host
    # at the same moment; the overhead is the ratio of the pooled walls.
    layers: list[dict[str, float]] = []
    walls = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_TRACED_CYCLES or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        cycle_walls = {False: 0.0, True: 0.0}
        for step, argv, artifacts in session:
            for traced in (False, True) if cycles % 2 == 0 else (True, False):
                with tracer.patched() if traced else contextlib.nullcontext():
                    outcome = run_in_process(cli, argv)
                cycle_walls[traced] += outcome.wall_s
                ok = outcome.ok and all([pins.check(a, files.path(a)) for a in artifacts])
                result.record(f"{step} (traced)" if traced else step, ok, outcome.detail or "output differs")
        layers.append(layer_metrics(tracer, files))
        result.extra.setdefault("span_seconds", []).append(tracer.seconds())
        result.add("bench.trace_overhead", cycle_walls[True] / cycle_walls[False])
        for traced in walls:
            walls[traced] += cycle_walls[traced]
        cycles += 1

    result.extra["trace_overhead_pairs"] = cycles * len(session)
    for name in layers[0]:
        result.samples[name] = [m[name] for m in layers]
    result.metrics = {name: statistics.median(values) for name, values in result.samples.items()}
    result.metrics["bench.trace_overhead"] = walls[True] / walls[False]
    result.metrics.update(sweep)
    return finish(result, pins)


def sweep_metrics(cli, tracing, pins: Pins, result: Result) -> dict[str, float]:
    """One traced generator run per sweep and fixed point, checked against pins."""
    files = Files(WORK / "sweep")
    files.dir.mkdir(parents=True, exist_ok=True)
    out: dict[str, float] = {}
    for name, argv, keys in (*SWEEP, *FIXED_POINTS):
        tracer = tracing.Tracer()
        with tracer.patched():
            outcome = run_in_process(cli, argv + ["--out-hlr", str(files.path("hlr")),
                                                  "--out-llr", str(files.path("llr"))])
        ok = outcome.ok and all([pins.check(f"{name}.{a}", files.path(a)) for a in ("hlr", "llr")])
        result.record(name, ok, outcome.detail or "output differs from its pin")
        s, c = tracer.seconds(), tracer.counts
        measured = {
            "gen_s": s["generators.gen"],
            "add_volume_s": s["geometry.add_volume"],
            "add_child_s": s["geometry.add_child"],
            "generate_box_s": s["geometry.generate_box"],
            "rasterize_s": s["raster.rasterize"],
            "write_llr_s": s["serialization.write_llr"],
            "volumes": c["generators.volumes"],
            "cells": c["raster.cells"],
            "rng_draws": c["rng.draws"],
            "blocks": c["geometry.blocks"],
            "entities": c["generators.entities"],
            "objects": c["generators.objects"],
        }
        out.update({f"sweep.{name}.{key}": measured[key] for key in keys})
    sized = [f"sweep.{name}." for name, _, _ in SWEEP]
    out["geometry.add_volume_exponent"] = log_log_slope(
        [out[p + "volumes"] for p in sized], [out[p + "add_volume_s"] for p in sized])
    out["serialization.write_llr_exponent"] = log_log_slope(
        [out[p + "cells"] for p in sized], [out[p + "write_llr_s"] for p in sized])
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the voxgen CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "voxgen" / "cli.py").is_file():
            raise BenchError(f"no voxgen sources under {SRC}")
        WORK.mkdir(parents=True, exist_ok=True)
        run = traced_run if args.trace else timed_run
        return run(WORKLOADS[args.workload], args.seed, args.seconds)
    except BenchError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
