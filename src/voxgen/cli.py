"""Single command-line entry point for generation, visualization, monitoring.

Generator subcommands, one per ``GENERATORS`` entry, write the semantic map
(--out-hlr) and block map (--out-llr) for one world. Each entry's build names
its generator, which is looked up in this module when the build runs, so a
wrapper set on the module sees the call. ``viz`` renders either file set into
an SVG blueprint or a DOT graph; ``monitor`` replays a position trace against
a semantic map and writes location-transition events. Every output file is
written through ``serialization._write_atomically``, so a write that fails
leaves that file as it was. The blueprint goes to its file one x-slab of
columns at a time as it is rendered, and is never held whole. A generator's
two files are written by ``write_world``, to temporary siblings first: only
once both are complete does either replace its target, so if either write
fails the command exits 1 with both previous files (or none) as they were.

Exit codes: 0 success, 2 usage error, 1 anything else. All randomness flows
from the explicit --seed flag, so identical argv means byte-identical output
files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import VoxgenError
from .generators import DungeonParams, gen_dungeon, gen_gridworld, gen_tutorial_house, gen_zombieworld
from .query import LocationIndex, read_trace, write_transitions
from .raster import rasterize
from .rng import MAX_SEED
from .serialization import _write_atomically, read_block_map, read_semantic_map, write_world
from .viz import GRAPH_MODES, BlueprintStyle, load_palette, render_blueprint, render_graph


def _checked(convert, kind: str, in_range, message: str):
    """An argparse type: ``convert(text)``, an error naming ``kind``, or ``message`` for an out-of-range value."""
    def parse(text: str):
        try:
            if not text.isascii() or "_" in text or text.strip() != text:
                raise ValueError  # int() and float() also take these; a numeric option takes plain ASCII text
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
        if not in_range(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    return parse


_positive_int = _checked(int, "an integer", lambda v: v >= 1, "must be >= 1, got {}")
_seed = _checked(int, "an integer", lambda v: 0 <= v <= MAX_SEED, "seed must fit in 64 unsigned bits")
_probability = _checked(float, "a number", lambda v: 0 < v <= 1, "probability must be in (0, 1]")

_N = ("--n", {"type": _positive_int, "default": 4, "help": "grid dimension (default 4)"})
_SEED = ("--seed", {"type": _seed, "default": 0, "help": "64-bit seed (default 0)"})

# name -> (help, arguments as (flag, add_argument options) pairs, build(args)), in --help order.
GENERATORS = {
    "gridworld": ("n x n grid of door-connected rooms", (_N,), lambda a: gen_gridworld(a.n)),
    "dungeon": ("seeded rooms-and-corridors dungeon", (
        _N, _SEED,
        ("--room-prob", {"type": _probability, "default": 0.5,
                         "help": "per-cell room probability in (0, 1] (default 0.5)"}),
        ("--cell-footprint", {"type": _positive_int, "default": 10,
                              "help": "experimental: voxels per grid cell edge (default 10)"}),
    ), lambda a: gen_dungeon(DungeonParams(n=a.n, seed=a.seed, room_probability=a.room_prob,
                                           cell_footprint=a.cell_footprint))),
    "zombieworld": ("walled yard with buildings, mobs and hazard pits", (_SEED,), lambda a: gen_zombieworld(a.seed)),
    "tutorial": ("the fixed two-room demo house", (), lambda a: gen_tutorial_house()),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    """Build the world with its GENERATORS entry's ``build``; write both maps."""
    world = args.build(args)
    write_world(world, rasterize(world), args.out_hlr, args.out_llr)
    return 0


def _cmd_viz_blueprint(args: argparse.Namespace) -> int:
    semantic_map = read_semantic_map(args.hlr)
    block_map = read_block_map(args.llr) if args.llr else None
    style_kwargs = {"voxel_pixel_scale": args.scale, "show_labels": not args.no_labels}
    if args.palette:
        style_kwargs["material_palette"] = load_palette(args.palette)
    style = BlueprintStyle(**style_kwargs)
    _write_atomically(args.out, lambda handle: render_blueprint(semantic_map, block_map, style, out=handle))
    return 0


def _cmd_viz_graph(args: argparse.Namespace) -> int:
    semantic_map = read_semantic_map(args.hlr)
    dot = render_graph(semantic_map, args.mode)
    _write_atomically(args.out, lambda handle: handle.write(dot))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    index = LocationIndex(read_semantic_map(args.hlr))
    events = index.transitions(read_trace(args.trace))
    write_transitions(events, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxgen",
        description="Deterministic voxel world generation with lockstep semantic and block maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, arguments, build) in GENERATORS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--out-hlr", required=True, metavar="FILE", help="semantic map output path")
        p.add_argument("--out-llr", required=True, metavar="FILE", help="block map output path")
        p.set_defaults(func=_cmd_generate, build=build)

    viz = sub.add_parser("viz", help="render maps into SVG or DOT files")
    viz_sub = viz.add_subparsers(dest="viz_command", required=True)

    p = viz_sub.add_parser("blueprint", help="top-down SVG blueprint")
    p.add_argument("--hlr", required=True, metavar="FILE", help="semantic map input")
    p.add_argument("--llr", metavar="FILE", help="optional block map for per-column block colors")
    p.add_argument("--out", required=True, metavar="FILE", help="SVG output path")
    p.add_argument("--scale", type=_positive_int, default=8, help="pixels per voxel (default 8)")
    p.add_argument("--palette", metavar="FILE", help="JSON material-to-color overrides")
    p.add_argument("--no-labels", action="store_true", help="omit location labels")
    p.set_defaults(func=_cmd_viz_blueprint)

    p = viz_sub.add_parser("graph", help="DOT graph of hierarchy or topology")
    p.add_argument("--hlr", required=True, metavar="FILE", help="semantic map input")
    p.add_argument("--mode", choices=GRAPH_MODES, default="hierarchy")
    p.add_argument("--out", required=True, metavar="FILE", help="DOT output path")
    p.set_defaults(func=_cmd_viz_graph)

    p = sub.add_parser("monitor", help="location-transition events for a position trace")
    p.add_argument("--hlr", required=True, metavar="FILE", help="semantic map input")
    p.add_argument("--trace", required=True, metavar="FILE", help="JSON Lines trace input")
    p.add_argument("--out", required=True, metavar="FILE", help="JSON Lines events output")
    p.set_defaults(func=_cmd_monitor)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VoxgenError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1


def script_main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    script_main()
