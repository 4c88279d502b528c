"""Point location, transition monitoring, and predicate export."""

import json
import os
import random
import re

import pytest

from voxgen.errors import NonMonotonicTraceError, ParseError, ValidationError
from voxgen.generators import gen_gridworld
from voxgen.geometry import Position
from voxgen.query import LocationIndex, TraceEvent, Transition, read_trace, write_predicates, write_transitions
from voxgen.serialization import ConnectionRecord, LocationRecord, SemanticMap, semantic_map_from_world

from oracles import scan_locate


@pytest.fixture(scope="module")
def tutorial_index(tutorial_map):
    return LocationIndex(tutorial_map)


class TestLocate:
    def test_deepest_location_wins(self, tutorial_index):
        # inside room_1, which is deeper than the enclosing house
        assert tutorial_index.locate(Position(3, 4, 3)) == "room_1"

    def test_outside_everything_is_none(self, tutorial_index):
        assert tutorial_index.locate(Position(100, 100, 100)) is None

    def test_shared_wall_breaks_ties_lexicographically(self, tutorial_index):
        # x=6 sits in both rooms; equal depth and volume, so room_1 wins
        assert tutorial_index.locate(Position(6, 4, 3)) == "room_1"

    def test_a_map_without_locations_locates_nothing(self):
        assert LocationIndex(SemanticMap("w", ())).locate(Position(0, 0, 0)) is None

    def test_agrees_with_brute_force_scan(self, tutorial_map, tutorial_index):
        rng = random.Random(0)
        for _ in range(500):
            p = (rng.randint(-2, 14), rng.randint(0, 10), rng.randint(-2, 9))
            assert tutorial_index.locate(Position(*p)) == scan_locate(tutorial_map, p)


class TestTransitions:
    def test_single_room_trace_emits_one_entry_event(self, tutorial_index):
        trace = [TraceEvent(t * 100, "p1", Position(2 + (t % 2), 4, 3)) for t in range(5)]
        events = tutorial_index.transitions(trace)
        assert events == [Transition(0, "p1", None, "room_1")]

    def test_walk_through_the_shared_wall(self, tutorial_index):
        xs = [2, 3, 4, 5, 6, 7, 8]  # x=6 is the wall plane; door carved there
        trace = [TraceEvent(i * 50, "p1", Position(x, 4, 3)) for i, x in enumerate(xs)]
        events = tutorial_index.transitions(trace)
        assert [(e.from_id, e.to_id) for e in events] == [(None, "room_1"), ("room_1", "room_2")]

    def test_empty_trace(self, tutorial_index):
        assert tutorial_index.transitions([]) == []

    def test_trace_starting_outside_emits_nothing_until_entry(self, tutorial_index):
        trace = [
            TraceEvent(0, "p1", Position(50, 4, 50)),
            TraceEvent(10, "p1", Position(60, 4, 60)),
            TraceEvent(20, "p1", Position(3, 4, 3)),
        ]
        events = tutorial_index.transitions(trace)
        assert events == [Transition(20, "p1", None, "room_1")]

    def test_players_tracked_independently(self, tutorial_index):
        trace = [
            TraceEvent(0, "a", Position(3, 4, 3)),
            TraceEvent(0, "b", Position(8, 4, 3)),
            TraceEvent(10, "a", Position(8, 4, 3)),
        ]
        events = tutorial_index.transitions(trace)
        assert [(e.player_id, e.from_id, e.to_id) for e in events] == [
            ("a", None, "room_1"),
            ("b", None, "room_2"),
            ("a", "room_1", "room_2"),
        ]

    def test_non_monotonic_trace_rejected(self, tutorial_index):
        trace = [
            TraceEvent(100, "p1", Position(3, 4, 3)),
            TraceEvent(50, "p1", Position(3, 4, 3)),
        ]
        with pytest.raises(NonMonotonicTraceError):
            tutorial_index.transitions(trace)

    def test_consecutive_events_chain(self, tutorial_index):
        rng = random.Random(4)
        trace = [
            TraceEvent(i * 10, "p1", Position(rng.randint(0, 13), 4, rng.randint(0, 7)))
            for i in range(200)
        ]
        events = tutorial_index.transitions(trace)
        assert len(events) <= len(trace)
        for before, after in zip(events, events[1:]):
            assert after.from_id == before.to_id


class TestPredicates:
    def test_tutorial_contains_facts(self, tutorial_index):
        assert tutorial_index.export_predicates() == [
            "contains(house, room_1)",
            "contains(house, room_2)",
        ]

    def test_gridworld_connected_facts(self):
        index = LocationIndex(semantic_map_from_world(gen_gridworld(2)))
        facts = index.export_predicates()
        assert facts == [
            "connected(room_0_0, room_0_1)",
            "connected(room_0_0, room_1_0)",
            "connected(room_0_1, room_1_1)",
            "connected(room_1_0, room_1_1)",
        ]

    def test_output_sorted_and_duplicate_free(self):
        index = LocationIndex(semantic_map_from_world(gen_gridworld(3)))
        facts = index.export_predicates()
        assert facts == sorted(facts)
        assert len(facts) == len(set(facts)) == 12

    def test_ids_other_than_plain_words_are_quoted_one_fact_per_line(self, tmp_path):
        children = ["a\nb", "c, d", "e)", 'f"g', "h\u00e9\u2028", "plain_1"]
        p = Position(0, 0, 0)
        semantic_map = SemanticMap(
            "w",
            (LocationRecord("top level", "house", "log", p, p, tuple(children)),
             *(LocationRecord(child, "room", "log", p, p, ()) for child in children)),
            (ConnectionRecord("door", "door", p, p, ("c, d", "e)")),),
        )
        path = tmp_path / "facts.txt"
        write_predicates(LocationIndex(semantic_map).export_predicates(), path)
        text = path.read_text(encoding="ascii")
        assert text.endswith("\n")
        facts = set()
        for line in text[:-1].split("\n"):
            name, args = re.fullmatch(r"(\w+)\((.*)\)", line).groups()
            read, at = [], 0
            while at < len(args):
                if args[at] == '"':
                    arg, at = json.JSONDecoder().raw_decode(args, at)
                else:
                    arg = re.match(r"[A-Za-z0-9_]+", args[at:]).group()
                    at += len(arg)
                read.append(arg)
                assert args.startswith(", ", at) or at == len(args)
                at += 2
            facts.add((name, *read))
        assert len(text[:-1].split("\n")) == len(facts) == 7
        assert facts == {("connected", "c, d", "e)")} | {("contains", "top level", child) for child in children}
        assert 'contains("top level", plain_1)\n' in text


class TestTraceFiles:
    def test_round_trip(self, tmp_path, tutorial_index):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"timestamp": 0, "player_id": "p1", "x": 3, "y": 4, "z": 3}\n'
            "\n"
            '{"timestamp": 50, "player_id": "p1", "x": 8, "y": 4, "z": 3}\n'
        )
        trace = read_trace(path)
        assert trace == [
            TraceEvent(0, "p1", Position(3, 4, 3)),
            TraceEvent(50, "p1", Position(8, 4, 3)),
        ]
        out = tmp_path / "events.jsonl"
        write_transitions(tutorial_index.transitions(trace), out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert '"from": "room_1", "to": "room_2"' in lines[1]

    def test_a_failed_event_stream_leaves_the_previous_file(self, tmp_path):
        out = tmp_path / "events.jsonl"
        write_transitions([Transition(0, "p1", None, "room_1")], out)
        before = out.read_bytes()

        def events():
            yield Transition(5, "p1", "room_1", "room_2")
            raise RuntimeError("trace ended early")

        with pytest.raises(RuntimeError, match="trace ended early"):
            write_transitions(events(), out)
        assert out.read_bytes() == before
        assert os.listdir(tmp_path) == ["events.jsonl"]

    def test_malformed_line_raises_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 0, "player_id": "p", "x": 1, "y": 2, "z": 3}\nnot json\n')
        with pytest.raises(ParseError) as exc:
            read_trace(path)
        assert exc.value.line == 2

    def test_undecodable_line_raises_parse_error_naming_it(self, tmp_path):
        # Far past the text reader's first decoded chunk, so the line is found in the file.
        path = tmp_path / "bad.jsonl"
        good = b'{"timestamp": 0, "player_id": "p", "x": 1, "y": 2, "z": 3}\n'
        path.write_bytes(good * 1000 + b'{"player_id": "\xff"}\n')
        with pytest.raises(ParseError, match="line 1001: not UTF-8") as exc:
            read_trace(path)
        assert exc.value.line == 1001

    def test_bad_field_raises_validation_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 0, "player_id": "p", "x": 1.5, "y": 2, "z": 3}\n')
        with pytest.raises(ValidationError):
            read_trace(path)
        path.write_text('{"timestamp": 0, "player_id": "p", "x": 9223372036854775808, "y": 2, "z": 3}\n')
        with pytest.raises(ValidationError, match="line 1: x: expected signed 64-bit integer"):
            read_trace(path)

    # Messages as read_trace words them when it checks each coordinate before
    # building the Position.
    @pytest.mark.parametrize("fields, message", [
        ('"x": true, "y": 2, "z": 3', "x: expected signed 64-bit integer, got True"),
        ('"x": 1, "y": false, "z": 3', "y: expected signed 64-bit integer, got False"),
        ('"x": 1, "y": 2, "z": 9223372036854775808', "z: expected signed 64-bit integer, got 9223372036854775808"),
        ('"x": 1, "y": 2, "z": -9223372036854775809', "z: expected signed 64-bit integer, got -9223372036854775809"),
        ('"y": 2, "z": 3', "x: expected signed 64-bit integer, got None"),
    ], ids=["bool-x", "bool-y", "z-2**63", "z-below-range", "missing-x"])
    def test_bad_coordinates_are_named(self, tmp_path, fields, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"timestamp": 0, "player_id": "p", "x": 1, "y": 2, "z": 3}\n'
            f'{{"timestamp": 0, "player_id": "p", {fields}}}\n'
        )
        with pytest.raises(ValidationError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}: line 2: {message}"

    def test_predicates_file(self, tmp_path, tutorial_index):
        path = tmp_path / "facts.txt"
        write_predicates(tutorial_index.export_predicates(), path)
        assert path.read_text() == "contains(house, room_1)\ncontains(house, room_2)\n"
