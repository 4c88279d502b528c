"""End-to-end command-line behavior and exit codes."""

import json
import os
import threading

import pytest

from voxgen import viz
from voxgen.cli import GENERATORS, build_parser, run
from voxgen.errors import VoxgenError
from voxgen.geometry import WorldModel


def run_gen(tmp_path, *argv):
    hlr = tmp_path / "semantic_map.json"
    llr = tmp_path / "block_map.json"
    code = run([*argv, "--out-hlr", str(hlr), "--out-llr", str(llr)])
    return code, hlr, llr


def test_gridworld_writes_400_locations(tmp_path):
    code, hlr, llr = run_gen(tmp_path, "gridworld", "--n", "20")
    assert code == 0
    data = json.loads(hlr.read_text())
    assert len(data["locations"]) == 400
    assert llr.exists()


def test_dungeon_seeds_differ(tmp_path):
    (tmp_path / "s0").mkdir()
    (tmp_path / "s1").mkdir()
    code0, _, llr0 = run_gen(tmp_path / "s0", "dungeon", "--n", "4", "--seed", "0")
    code1, _, llr1 = run_gen(tmp_path / "s1", "dungeon", "--n", "4", "--seed", "1")
    assert code0 == code1 == 0
    assert llr0.read_bytes() != llr1.read_bytes()


def test_identical_argv_is_byte_identical(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, hlr_a, llr_a = run_gen(tmp_path / "a", "zombieworld", "--seed", "9")
    _, hlr_b, llr_b = run_gen(tmp_path / "b", "zombieworld", "--seed", "9")
    assert hlr_a.read_bytes() == hlr_b.read_bytes()
    assert llr_a.read_bytes() == llr_b.read_bytes()


def test_tutorial_subcommand(tmp_path):
    code, hlr, _ = run_gen(tmp_path, "tutorial")
    assert code == 0
    ids = {l["id"] for l in json.loads(hlr.read_text())["locations"]}
    assert ids == {"house", "room_1", "room_2"}


def test_gridworld_n_zero_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_gen(tmp_path, "gridworld", "--n", "0")
    assert exc.value.code == 2


# Each bad value's exit code and the error line argparse prints for it. The
# usage line above that line is not compared: its layout differs across
# Python versions.
ARGUMENT_ERRORS = [
    (["gridworld", "--n", "0"], 2, "argument --n: must be >= 1, got 0"),
    (["gridworld", "--n", "x"], 2, "argument --n: 'x' is not an integer"),
    (["gridworld", "--n", "1.5"], 2, "argument --n: '1.5' is not an integer"),
    (["dungeon", "--seed", "-1"], 2, "argument --seed: seed must fit in 64 unsigned bits"),
    (["dungeon", "--seed", "18446744073709551616"], 2, "argument --seed: seed must fit in 64 unsigned bits"),
    (["dungeon", "--seed", "18446744073709551615"], 0, None),
    (["dungeon", "--room-prob", "0"], 2, "argument --room-prob: probability must be in (0, 1]"),
    (["dungeon", "--room-prob", "nan"], 2, "argument --room-prob: probability must be in (0, 1]"),
    (["dungeon", "--room-prob", "x"], 2, "argument --room-prob: 'x' is not a number"),
    (["dungeon", "--cell-footprint", "0"], 2, "argument --cell-footprint: must be >= 1, got 0"),
    (["zombieworld", "--seed", "z"], 2, "argument --seed: 'z' is not an integer"),
    # int() and float() also read other digits, "_" and surrounding whitespace; an option takes plain ASCII text.
    (["gridworld", "--n", "\u0663"], 2, "argument --n: '\u0663' is not an integer"),
    (["gridworld", "--n", "1_0"], 2, "argument --n: '1_0' is not an integer"),
    (["gridworld", "--n", " 3"], 2, "argument --n: ' 3' is not an integer"),
    (["zombieworld", "--seed", "\uff10"], 2, "argument --seed: '\uff10' is not an integer"),
    (["dungeon", "--room-prob", "\uff10.\uff15"], 2, "argument --room-prob: '\uff10.\uff15' is not a number"),
    (["dungeon", "--room-prob", "0_5"], 2, "argument --room-prob: '0_5' is not a number"),
]


@pytest.mark.parametrize("argv, code, message", ARGUMENT_ERRORS, ids=[" ".join(c[0]) for c in ARGUMENT_ERRORS])
def test_argument_values_are_checked_with_one_error_line(tmp_path, capsys, argv, code, message):
    try:
        status = run_gen(tmp_path, *argv)[0]
    except SystemExit as exc:
        status = exc.code
    assert status == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert err.splitlines()[-1] == f"voxgen {argv[0]}: error: {message}"


# The default each generator option documents in its help.
DEFAULTS = {"n": 4, "seed": 0, "room_prob": 0.5, "cell_footprint": 10}


@pytest.mark.parametrize("name", list(GENERATORS))
def test_each_generator_entry_parses_its_documented_defaults_and_builds(name, capsys, monkeypatch):
    help_text, arguments, _ = GENERATORS[name]
    args = build_parser().parse_args([name, "--out-hlr", "h", "--out-llr", "l"])
    for flag, options in arguments:
        dest = flag[2:].replace("-", "_")
        assert getattr(args, dest) == DEFAULTS[dest]
        assert options["help"].endswith(f"(default {DEFAULTS[dest]})")
    assert (args.out_hlr, args.out_llr) == ("h", "l")
    world = args.build(args)
    assert isinstance(world, WorldModel) and world.finalized

    # Wide enough that argparse wraps no help string; its layout is not compared.
    monkeypatch.setenv("COLUMNS", "200")
    for argv, texts in (([], [help_text]), ([name], [options["help"] for _, options in arguments])):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(text in out for text in texts)


def test_missing_required_output_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["gridworld", "--n", "2"])
    assert exc.value.code == 2


def test_viz_blueprint_and_graph(tmp_path):
    _, hlr, llr = run_gen(tmp_path, "gridworld", "--n", "2")
    svg = tmp_path / "map.svg"
    dot = tmp_path / "map.dot"
    assert run(["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")
    assert run(["viz", "graph", "--hlr", str(hlr), "--mode", "topology", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph topology {")


def test_viz_palette_flag(tmp_path):
    _, hlr, _ = run_gen(tmp_path, "gridworld", "--n", "2")
    palette = tmp_path / "palette.json"
    palette.write_text(json.dumps({"stone": "#010203"}))
    svg = tmp_path / "map.svg"
    llr = tmp_path / "block_map.json"
    assert run([
        "viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr),
        "--palette", str(palette), "--out", str(svg),
    ]) == 0
    assert "#010203" in svg.read_text()


def test_monitor_end_to_end(tmp_path):
    _, hlr, _ = run_gen(tmp_path, "tutorial")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        "\n".join(
            json.dumps({"timestamp": i * 100, "player_id": "p1", "x": x, "y": 4, "z": 3})
            for i, x in enumerate([2, 4, 6, 8, 10])
        )
        + "\n"
    )
    out = tmp_path / "events.jsonl"
    assert run(["monitor", "--hlr", str(hlr), "--trace", str(trace), "--out", str(out)]) == 0
    events = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["from"], e["to"]) for e in events] == [(None, "room_1"), ("room_1", "room_2")]


def test_validation_failure_exits_1_with_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["viz", "graph", "--hlr", str(bad), "--out", str(tmp_path / "x.dot")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("locations", [[1], {}])
def test_malformed_locations_exit_1_with_one_line_error(tmp_path, capsys, locations):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "1", "id": "w", "locations": locations}))
    assert run(["viz", "graph", "--hlr", str(bad), "--out", str(tmp_path / "x.dot")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("data, argv", [
    (b"\xff", ["viz", "graph", "--hlr", "{input}", "--out", "{dir}/o.dot"]),
    (b'{"timestamp": 0, "player_id": "\xff", "x": 0, "y": 0, "z": 0}\n',
     ["monitor", "--hlr", "{hlr}", "--trace", "{input}", "--out", "{dir}/o.jsonl"]),
    (b'{"schema_version": "1", "id": "w", "locations": ' + b"[" * 100_000,
     ["viz", "graph", "--hlr", "{input}", "--out", "{dir}/o.dot"]),
    (b"", ["dungeon", "--n", "1", "--out-hlr", "{dir}/h.json", "--out-llr", "{dir}/l.json"]),
    (b"", ["dungeon", "--cell-footprint", "5", "--out-hlr", "{dir}/h.json", "--out-llr", "{dir}/l.json"]),
], ids=["undecodable-hlr", "undecodable-trace", "deep-nesting", "dungeon-n-1", "dungeon-footprint-5"])
def test_malformed_input_exits_1_with_one_line_error(tmp_path, capsys, data, argv):
    _, hlr, _ = run_gen(tmp_path, "tutorial")
    source = tmp_path / "input"
    source.write_bytes(data)
    capsys.readouterr()
    assert run([arg.format(input=source, hlr=hlr, dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


UNDECODABLE_MAP = b'{"schema_version": "1", "blocks": [{"material": "\xff"}]}'


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("flag", ["--hlr", "--llr"])
def test_an_undecodable_map_read_from_a_fifo_exits_1_with_one_line_error(tmp_path, capsys, flag):
    # The bad byte's line is found by reading a regular file again; a pipe's writer has gone, so its message names none.
    _, hlr, llr = run_gen(tmp_path, "tutorial")
    regular, fifo = tmp_path / "regular.json", tmp_path / "fifo.json"
    regular.write_bytes(b"\n" + UNDECODABLE_MAP)
    os.mkfifo(fifo)
    argv = ["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(tmp_path / "o.svg")]
    capsys.readouterr()
    assert run([*argv, flag, str(regular)]) == 1
    assert capsys.readouterr().err == f"error: ParseError: {regular}: line 2: not UTF-8 (invalid start byte)\n"
    codes = []
    threads = [threading.Thread(target=lambda: fifo.write_bytes(UNDECODABLE_MAP), daemon=True),
               threading.Thread(target=lambda: codes.append(run([*argv, flag, str(fifo)])), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [1]
    assert capsys.readouterr().err == f"error: ParseError: {fifo}: not UTF-8 (invalid start byte)\n"
    assert not (tmp_path / "o.svg").exists()


LONE_SURROGATE_HLR = {"schema_version": "1", "id": "w", "locations": [{
    "id": "a\ud800b", "type": "room", "material": "stone",
    "bounds": {"top_left": [0, 0, 0], "bottom_right": [2, 2, 2]}, "child_ids": [],
}]}


@pytest.mark.parametrize("argv", [
    ["viz", "blueprint", "--hlr", "{input}", "--out", "{dir}/o.svg"],
    ["viz", "graph", "--hlr", "{input}", "--out", "{dir}/o.dot"],
    ["viz", "blueprint", "--hlr", "{hlr}", "--llr", "{llr}", "--out", "{dir}/o.svg"],
    ["monitor", "--hlr", "{hlr}", "--trace", "{trace}", "--out", "{dir}/o.jsonl"],
], ids=["blueprint", "graph", "blueprint-material", "trace-player-id"])
def test_lone_surrogates_exit_1_with_one_line_error(tmp_path, capsys, argv):
    # Each input is valid JSON; the \ud800 escape decodes to a string UTF-8 cannot encode.
    _, hlr, llr = run_gen(tmp_path, "tutorial")
    source = tmp_path / "input.json"
    source.write_text(json.dumps(LONE_SURROGATE_HLR))
    blocks = json.loads(llr.read_text())
    blocks["blocks"][-1]["material"] = "\udfff"
    llr.write_text(json.dumps(blocks))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"timestamp": 0, "player_id": "p\ud800", "x": 2, "y": 4, "z": 3}) + "\n")
    capsys.readouterr()
    assert run([arg.format(input=source, hlr=hlr, llr=llr, trace=trace, dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: ") and "expected a string UTF-8 can encode" in err
    assert len(err.strip().splitlines()) == 1
    assert not any(tmp_path.glob("o.*"))


@pytest.mark.parametrize("out_llr", ["same.json", "./same.json"])
def test_identical_output_paths_exit_1_before_writing(tmp_path, capsys, monkeypatch, out_llr):
    monkeypatch.chdir(tmp_path)
    assert run(["tutorial", "--out-hlr", "same.json", "--out-llr", out_llr]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: VoxgenError: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "same.json").exists()


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["monitor", "--hlr", str(tmp_path / "none.json"),
                "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_an_unwritable_block_map_exits_1_leaving_the_previous_semantic_map(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gridworld", "--n", "2", "--out-hlr", "h.json", "--out-llr", "l.json"]) == 0
    before = (tmp_path / "h.json").read_bytes()
    assert run(["gridworld", "--n", "3", "--out-hlr", "h.json", "--out-llr", "missing/l.json"]) == 1
    assert capsys.readouterr().err.startswith("error: io: cannot write missing/l.json: ")
    assert (tmp_path / "h.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["h.json", "l.json"]


def test_unwritable_output_exits_1(tmp_path, capsys):
    code = run(["tutorial", "--out-hlr", str(tmp_path / "no_dir" / "a.json"),
                "--out-llr", str(tmp_path / "b.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")


@pytest.mark.parametrize("previous", [b"<svg>previous</svg>\n", None], ids=["replaced", "new"])
def test_a_blueprint_that_fails_part_way_leaves_the_previous_file(tmp_path, capsys, monkeypatch, previous):
    _, hlr, llr = run_gen(tmp_path, "dungeon", "--n", "4", "--seed", "3")
    svg = tmp_path / "blueprint.svg"
    if previous is not None:
        svg.write_bytes(previous)
    before = sorted(os.listdir(tmp_path))
    parts = viz._blueprint_parts
    written = []

    def failing(*args):
        # The real parts, until some have reached the temporary file beside svg; then a failure.
        for part in parts(*args):
            yield part
            written[:] = [path.stat().st_size for path in tmp_path.glob("blueprint.svg.*.tmp")]
            if any(written):
                raise VoxgenError("render failed")

    monkeypatch.setattr(viz, "_blueprint_parts", failing)
    capsys.readouterr()
    assert run(["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(svg)]) == 1
    assert capsys.readouterr().err == "error: VoxgenError: render failed\n"
    assert len(written) == 1 and written[0] > 0
    assert sorted(os.listdir(tmp_path)) == before
    assert (svg.read_bytes() if svg.exists() else None) == previous
