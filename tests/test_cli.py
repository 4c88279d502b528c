"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from voxgen.cli import run


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


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["monitor", "--hlr", str(tmp_path / "none.json"),
                "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_exits_1(tmp_path, capsys):
    code = run(["tutorial", "--out-hlr", str(tmp_path / "no_dir" / "a.json"),
                "--out-llr", str(tmp_path / "b.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")
