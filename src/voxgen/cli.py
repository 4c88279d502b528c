"""Single command-line entry point for generation, visualization, monitoring.

Generator subcommands write the semantic map (--out-hlr) and block map
(--out-llr) for one world. ``viz`` renders either file set into an SVG
blueprint or a DOT graph; ``monitor`` replays a position trace against a
semantic map and writes location-transition events.

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
from .serialization import read_block_map, read_semantic_map, write_world
from .viz import GRAPH_MODES, BlueprintStyle, load_palette, render_blueprint, render_graph


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("probability must be in (0, 1]")
    return value


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-hlr", required=True, metavar="FILE", help="semantic map output path")
    parser.add_argument("--out-llr", required=True, metavar="FILE", help="block map output path")


def _cmd_generate(args: argparse.Namespace) -> int:
    """Build the world with the function its subparser set as ``build``; write both maps."""
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
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_blueprint(semantic_map, block_map, style))
    return 0


def _cmd_viz_graph(args: argparse.Namespace) -> int:
    semantic_map = read_semantic_map(args.hlr)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_graph(semantic_map, args.mode))
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

    p = sub.add_parser("gridworld", help="n x n grid of door-connected rooms")
    p.add_argument("--n", type=_positive_int, default=4, help="grid dimension (default 4)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_generate, build=lambda a: gen_gridworld(a.n))

    p = sub.add_parser("dungeon", help="seeded rooms-and-corridors dungeon")
    p.add_argument("--n", type=_positive_int, default=4, help="grid dimension (default 4)")
    p.add_argument("--seed", type=_seed, default=0, help="64-bit seed (default 0)")
    p.add_argument("--room-prob", type=_probability, default=0.5,
                   help="per-cell room probability in (0, 1] (default 0.5)")
    p.add_argument("--cell-footprint", type=_positive_int, default=10,
                   help="experimental: voxels per grid cell edge (default 10)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_generate, build=lambda a: gen_dungeon(DungeonParams(
        n=a.n,
        seed=a.seed,
        room_probability=a.room_prob,
        cell_footprint=a.cell_footprint,
    )))

    p = sub.add_parser("zombieworld", help="walled yard with buildings, mobs and hazard pits")
    p.add_argument("--seed", type=_seed, default=0, help="64-bit seed (default 0)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_generate, build=lambda a: gen_zombieworld(a.seed))

    p = sub.add_parser("tutorial", help="the fixed two-room demo house")
    _add_output_args(p)
    p.set_defaults(func=_cmd_generate, build=lambda a: gen_tutorial_house())

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
