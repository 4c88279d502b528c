"""Point location, transition monitoring, trace reading and predicate export."""

import builtins
import json
import os
import random
import re

import pytest

from voxgen import query
from voxgen.errors import NonMonotonicTraceError, ParseError, ValidationError
from voxgen.generators import gen_gridworld
from voxgen.geometry import Position
from voxgen.query import (
    _TRACE_CHUNK, LocationIndex, TraceEvent, Transition, read_trace, write_predicates, write_transitions,
)
from voxgen.serialization import ConnectionRecord, LocationRecord, SemanticMap, semantic_map_from_world

from oracles import scan_locate


@pytest.fixture(scope="module")
def tutorial_index(tutorial_map):
    return LocationIndex(tutorial_map)


def sample(timestamp, player="p", x=1, y=2, z=3):
    """One trace line, without its line break."""
    return json.dumps({"timestamp": timestamp, "player_id": player, "x": x, "y": y, "z": z})


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


class TestTraceEvent:
    @pytest.mark.parametrize("fields", [
        (True, "p", (1, 4, 1)),
        (1.0, "p", (1, 4, 1)),
        ("0", "p", (1, 4, 1)),
        (None, "p", (1, 4, 1)),
        (0, 5, (1, 4, 1)),
        (0, None, (1, 4, 1)),
        (0, "a\ud800b", (1, 4, 1)),
        (0, "p", (1.5, 2, 3)),
        (0, "p", (True, 2, 3)),
        (0, "p", (1, 2, 2**63)),
        (0, "p", "abc"),
        (0, "p", (1, 2)),
        (0, "p", 5),
    ], ids=["bool-timestamp", "float-timestamp", "str-timestamp", "no-timestamp", "int-player", "no-player",
            "surrogate-player", "float-x", "bool-x", "z-2**63", "str-position", "two-coordinates", "int-position"])
    def test_a_bad_field_is_a_one_line_value_error(self, fields):
        with pytest.raises(ValueError) as exc:
            TraceEvent(*fields)
        assert "\n" not in str(exc.value)

    def test_the_sign_and_empty_id_messages_keep_their_wording(self):
        with pytest.raises(ValueError, match="^trace timestamps must be non-negative$"):
            TraceEvent(-1, "p", Position(1, 4, 1))
        with pytest.raises(ValueError, match="^player_id must be nonempty$"):
            TraceEvent(0, "", Position(1, 4, 1))

    def test_a_point_becomes_a_position(self):
        event = TraceEvent(0, "p", (1, 4, 1))
        assert type(event.position) is Position and event.position == (1, 4, 1)
        assert event == TraceEvent(0, "p", Position(1, 4, 1))


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

    def test_a_transition_built_in_code_is_checked_before_it_is_written(self, tmp_path):
        # Unchecked, this wrote {"timestamp": true, "player_id": 5, "from": 7, "to": ""}, which no reader takes.
        path = tmp_path / "events.jsonl"
        with pytest.raises(ValueError, match=r"^transition timestamp must be an int, got True$"):
            write_transitions([Transition(True, 5, 7, "")], path)
        assert not path.exists()

    @pytest.mark.parametrize("fields, message", [
        ((-1, "p", None, "a"), "transition timestamps must be non-negative"),
        ((0, 5, None, "a"), "player_id must be a nonempty str that UTF-8 can encode, got 5"),
        ((0, "p", 7, "a"), "from_id must be a nonempty str that UTF-8 can encode, got 7"),
        ((0, "p", "a", ""), "to_id must be a nonempty str that UTF-8 can encode, got ''"),
        ((0, "p", "a\ud800", None), "from_id must be a nonempty str that UTF-8 can encode, got 'a\\ud800'"),
    ], ids=["negative-timestamp", "int-player", "int-from", "empty-to", "surrogate-from"])
    def test_a_bad_transition_field_is_a_one_line_value_error(self, fields, message):
        with pytest.raises(ValueError) as exc:
            Transition(*fields)
        assert str(exc.value) == message

    def test_a_transition_may_start_or_end_outside_every_location(self):
        assert Transition(0, "p", None, "a") != Transition(0, "p", "a", None)
        assert Transition(0, "p", "été", None).from_id == "été"


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

    def test_line_endings_may_be_lf_crlf_or_cr(self, tmp_path):
        lines = [sample(0), "", sample(5, x=2), "  ", sample(9, "q")]
        read = []
        for ending in ("\n", "\r\n", "\r"):
            path = tmp_path / "trace.jsonl"
            path.write_bytes(ending.join(lines).encode("utf-8") + ending.encode("utf-8"))
            read.append(read_trace(path))
        assert read[0] == read[1] == read[2] == [
            TraceEvent(0, "p", Position(1, 2, 3)), TraceEvent(5, "p", Position(2, 2, 3)),
            TraceEvent(9, "q", Position(1, 2, 3)),
        ]

    def test_a_line_of_whitespace_only_is_blank(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{sample(0)}\n\t \x0c\u2028\u3000\x85\n{sample(1)}\n", encoding="utf-8")
        assert read_trace(path) == [TraceEvent(0, "p", Position(1, 2, 3)), TraceEvent(1, "p", Position(1, 2, 3))]

    @pytest.mark.parametrize("extra", ['"k": {"a": {}}', '"k": [1, {"a": ","}]', '"from": null, "to": "room"'],
                             ids=["object", "array", "scalars"])
    def test_keys_other_than_the_five_are_ignored(self, tmp_path, extra):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{sample(0)}\n{sample(1)[:-1]}, {extra}}}\n")
        assert read_trace(path) == [TraceEvent(0, "p", Position(1, 2, 3)), TraceEvent(1, "p", Position(1, 2, 3))]

    def test_a_utf8_bom_is_a_parse_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + sample(0).encode() + b"\n")
        with pytest.raises(ParseError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}: line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        assert (exc.value.line, exc.value.column) == (1, 1)

    @pytest.mark.parametrize("line", ["\x0c" + sample(0), sample(0) + "\x0c", "\u00a0" + sample(0)],
                             ids=["form-feed-before", "form-feed-after", "no-break-space-before"])
    def test_only_json_whitespace_may_surround_a_sample(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{sample(0)}\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_trace(path)
        assert exc.value.line == 2

    def test_a_bad_line_before_an_undecodable_one_is_named_first(self, tmp_path):
        # As line by line: the lines decoded before the bad byte are read before it is reported.
        path = tmp_path / "bad.jsonl"
        good = sample(0).encode() + b"\n"
        path.write_bytes(good * 5 + b"not json\n" + good * 1000 + b'{"player_id": "\xff"}\n')
        with pytest.raises(ParseError, match="line 6 column 1: Expecting value") as exc:
            read_trace(path)
        assert exc.value.line == 6

    def test_predicates_file(self, tmp_path, tutorial_index):
        path = tmp_path / "facts.txt"
        write_predicates(tutorial_index.export_predicates(), path)
        assert path.read_text() == "contains(house, room_1)\ncontains(house, room_2)\n"


class TestTraceChunks:
    """read_trace parses a chunk of _TRACE_CHUNK lines at a time and reads a chunk line by line only if it must."""

    @pytest.mark.parametrize("bad_line", [_TRACE_CHUNK, _TRACE_CHUNK + 1], ids=["last-of-a-chunk", "first-of-the-next"])
    @pytest.mark.parametrize("bad, error, message", [
        ("not json", ParseError, "line {n} column 1: Expecting value"),
        (sample(0) + " " + sample(1), ParseError, "line {n} column 60: Extra data"),
        (sample(-1), ValidationError, "line {n}: trace timestamps must be non-negative"),
        (sample(0, "[", x=1.5), ValidationError, "line {n}: x: expected signed 64-bit integer, got 1.5"),
        (sample(0, ""), ValidationError, "line {n}: player_id: expected nonempty string, got ''"),
        (sample(True), ValidationError, "line {n}: timestamp: expected integer, got True"),
        (json.dumps({"player_id": "p", "x": 1, "y": 2, "z": 3}), ValidationError,
         "line {n}: timestamp: expected integer, got None"),
        (sample(0, ["p"]), ValidationError, "line {n}: player_id: expected nonempty string, got ['p']"),
        (sample(0, "\ud800"), ValidationError,
         "line {n}: player_id: expected a string UTF-8 can encode, got '\\ud800'"),
    ], ids=["not-json", "two-objects", "negative-timestamp", "float-x", "empty-player", "bool-timestamp",
            "no-timestamp", "list-player", "lone-surrogate-player"])
    def test_a_bad_line_at_a_chunk_edge_is_named(self, tmp_path, bad_line, bad, error, message):
        lines = [sample(t) for t in range(2 * _TRACE_CHUNK)]
        lines[2] = ""  # a blank line counts as a line
        lines[bad_line - 1] = bad
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}: " + message.format(n=bad_line)
        if error is ParseError:
            assert exc.value.line == bad_line

    def test_two_full_chunks_are_parsed_once_each(self, tmp_path, monkeypatch):
        samples = [(t, f"p{t % 3}", (t % 7, 2, -t)) for t in range(2 * _TRACE_CHUNK)]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(sample(t, player, *cell) + "\n" for t, player, cell in samples))
        loads = []
        monkeypatch.setattr(json, "loads", lambda text, loads_=json.loads: loads.append(text) or loads_(text))
        events = read_trace(path)
        assert events == [TraceEvent(t, player, Position(*cell)) for t, player, cell in samples]
        assert len(loads) == 2
        # Every sample of a player shares one str.
        assert len({id(event.player_id) for event in events}) == 3

    def test_a_non_ascii_player_is_read_by_the_chunk_parse(self, tmp_path, monkeypatch):
        players = ["jo\u00eblle" if t % 3 else "p" for t in range(2 * _TRACE_CHUNK)]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(sample(t, player) + "\n" for t, player in enumerate(players)))
        loads = []
        monkeypatch.setattr(json, "loads", lambda text, loads_=json.loads: loads.append(text) or loads_(text))
        events = read_trace(path)
        assert events == [TraceEvent(t, player, Position(1, 2, 3)) for t, player in enumerate(players)]
        assert len(loads) == 2
        # Every sample of a player shares one str, across chunks too.
        assert len({id(event.player_id) for event in events}) == 2

    def test_a_chunk_read_line_by_line_is_not_read_from_the_file_again(self, tmp_path, monkeypatch):
        # A "[" inside a string sends the first chunk line by line; its events are the same.
        players = ["a[b" if t == 5 else "p" for t in range(_TRACE_CHUNK + 10)]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(sample(t, player) + "\n" for t, player in enumerate(players)))
        opened, loads = [], []
        monkeypatch.setattr(query, "open", lambda *args, **kw: opened.append(args) or builtins.open(*args, **kw),
                            raising=False)
        monkeypatch.setattr(json, "loads", lambda text, loads_=json.loads: loads.append(text) or loads_(text))
        assert read_trace(path) == [TraceEvent(t, player, Position(1, 2, 3)) for t, player in enumerate(players)]
        assert len(opened) == 1
        # The first chunk's lines one by one (its "[" fails the guard before the parse), then the second's one parse.
        assert len(loads) == _TRACE_CHUNK + 1

    # Each chunk is three lines that a parse of the chunk joined into one array
    # would read as three samples: the first two make one object, the third two.
    @pytest.mark.parametrize("first, second", [
        ('{"timestamp": 0, "k": [{}', '{}], "player_id": "p", "x": 1, "y": 2, "z": 3}'),
        ('{"timestamp": 0, "k": {}', '"player_id": "p", "x": 1, "y": 2, "z": 3}'),
    ], ids=["through-an-array", "through-a-key"])
    def test_a_chunk_a_joined_parse_would_misread_is_read_line_by_line(self, tmp_path, monkeypatch, first, second):
        monkeypatch.setattr(query, "_TRACE_CHUNK", 3)
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{sample(0)}\n{sample(1)}\n{sample(2)}\n{first}\n{second}\n{sample(3)},{sample(4)}\n")
        with pytest.raises(ParseError) as exc:
            read_trace(path)
        assert exc.value.line == 4
