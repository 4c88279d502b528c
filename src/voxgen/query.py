"""Spatial questions over a semantic map: where is a point, who moved where.

LocationIndex is an immutable view over a SemanticMap. ``locate`` resolves a
point to the most specific named location: the deepest one containing it,
with ties broken by smaller volume and then by lexicographic id (connections
are not locations and never match). The index sorts the locations into that
order once, when it is built, keeps each as a flat tuple of its bounds per
axis and its id, and files them in a grid of buckets over x and z. A bucket
lists, in that order, every location whose box overlaps it, so ``locate``
finds the point's bucket with one binary search per axis and returns the
first location there that holds the point. ``transitions`` replays a position
trace and reports every location change per player. ``export_predicates``
renders the connection and containment structure as planner-style facts.

Traces are JSON Lines: one object per line with integer millisecond
``timestamp``, string ``player_id``, and integer ``x``/``y``/``z``.
``read_trace`` parses a chunk of lines at a time as one JSON array and builds
its events from it, the records being the one check of a sample; only a chunk
that fails reads its lines one by one, to name the first bad one. Transition
events are written in the same framing with ``from``/``to``. A TraceEvent and
a Transition are checked tuples (``geometry._checked_tuple``): each checks its
own fields when built, and equals and unpacks as the tuple of them.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional

from .errors import CoordinateOverflowError, NonMonotonicTraceError, ValidationError
from .geometry import Position, _as_position, _check_name, _checked_tuple
from .serialization import (
    _PARSE_FAILURES, LocationRecord, PathLike, SemanticMap, _parse_error, _read_coord, _read_int, _read_str,
    _write_atomically,
)


def _check_timestamp(timestamp: object, kind: str) -> None:
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        raise ValueError(f"{kind} timestamp must be an int, got {timestamp!r}")
    if timestamp < 0:
        raise ValueError(f"{kind} timestamps must be non-negative")


class TraceEvent(_checked_tuple("TraceEvent", "timestamp player_id position")):
    """One sample of a position trace: a player's position at a time.

    The timestamp is an int (not a bool) and non-negative, the player id
    passes the name rule of ``geometry._check_name``, and a position given as
    anything but a Position goes through ``Position(*position)``. A bad field
    raises a one-line ValueError.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, player_id: str, position: Position) -> "TraceEvent":
        # The usual sample passes in one expression; any other is checked field by field to name the fault.
        if not (type(timestamp) is int and timestamp >= 0 and type(player_id) is str and player_id.isascii()
                and player_id and type(position) is Position):
            _check_timestamp(timestamp, "trace")
            if player_id == "":
                raise ValueError("player_id must be nonempty")
            _check_name(player_id, "player_id")
            try:
                position = _as_position(position)
            except (TypeError, CoordinateOverflowError) as err:
                raise ValueError(f"trace position {position!r}: {err}") from None
        return tuple.__new__(cls, (timestamp, player_id, position))


class Transition(_checked_tuple("Transition", "timestamp player_id from_id to_id")):
    """A player's move from one location to another; None is outside every location.

    The timestamp is an int (not a bool) and non-negative, and the player id,
    and each location id that is not None, passes the name rule of
    ``geometry._check_name``. A bad field raises a one-line ValueError.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, player_id: str, from_id: Optional[str], to_id: Optional[str]) -> "Transition":
        if not (type(timestamp) is int and timestamp >= 0 and type(player_id) is str and player_id.isascii()
                and player_id and (from_id is None or type(from_id) is str and from_id.isascii() and from_id)
                and (to_id is None or type(to_id) is str and to_id.isascii() and to_id)):
            _check_timestamp(timestamp, "transition")
            _check_name(player_id, "player_id")
            for name, location_id in (("from_id", from_id), ("to_id", to_id)):
                if location_id is not None:
                    _check_name(location_id, name)
        return tuple.__new__(cls, (timestamp, player_id, from_id, to_id))


_BARE_ID = re.compile(r"[A-Za-z0-9_]+")


def _predicate_arg(id: str) -> str:
    """An id as a predicate argument: bare if only ASCII letters, digits and _, else JSON-quoted."""
    return id if _BARE_ID.fullmatch(id) else json.dumps(id)


def _volume_of(loc: LocationRecord) -> int:
    return math.prod(high - low + 1 for low, high in zip(loc.top_left, loc.bottom_right))


def _cuts(lows: Iterable[int], highs: Iterable[int], limit: int) -> list[int]:
    """Sorted, distinct bucket boundaries along one axis: where a box starts
    (low) and where it stops (high + 1), every k-th kept if there are more
    than limit of them."""
    cuts = sorted({*lows, *(high + 1 for high in highs)})
    if len(cuts) > limit:
        cuts = cuts[::-(-len(cuts) // limit)]
    return cuts


class LocationIndex:
    """Precomputed location lookup over a semantic map.

    The cuts of each of x and z split that axis into intervals: interval i is
    the coordinates with i cuts at or below them. A bucket is one x interval
    by one z interval, and holds every location whose box overlaps it. The
    cuts are the boxes' own starts and ends, thinned to at most
    ``2 * isqrt(n) + 2`` per axis for n locations, so there are O(n) buckets
    whatever the coordinates' size. A thinned bucket may hold a location that
    misses part of it, so ``locate`` still checks each box in full.
    """

    def __init__(self, semantic_map: SemanticMap):
        self.map = semantic_map
        depths = semantic_map.depths
        # locate's preference order: deepest, then smallest, then first by id.
        ordered = sorted(semantic_map.locations, key=lambda loc: (-depths[loc.id], _volume_of(loc), loc.id))
        # Each as a plain (x0, x1, y0, y1, z0, z1, id): indexing a plain tuple is
        # cheaper than reading a Position's fields, and a location that fails its
        # first compare costs two reads, not an unpacking of all seven.
        candidates = [
            (loc.top_left.x, loc.bottom_right.x, loc.top_left.y, loc.bottom_right.y,
             loc.top_left.z, loc.bottom_right.z, loc.id)
            for loc in ordered
        ]
        limit = 2 * math.isqrt(len(candidates)) + 2
        self._x_cuts = x_cuts = _cuts((c[0] for c in candidates), (c[1] for c in candidates), limit)
        self._z_cuts = z_cuts = _cuts((c[4] for c in candidates), (c[5] for c in candidates), limit)
        self._width = width = len(z_cuts) + 1
        buckets: list[list[tuple]] = [[] for _ in range((len(x_cuts) + 1) * width)]
        for c in candidates:
            z_first, z_last = bisect_right(z_cuts, c[4]), bisect_right(z_cuts, c[5])
            for i in range(bisect_right(x_cuts, c[0]), bisect_right(x_cuts, c[1]) + 1):
                for j in range(z_first, z_last + 1):
                    buckets[i * width + j].append(c)
        self._buckets = [tuple(bucket) for bucket in buckets]

    def locate(self, p: Position) -> Optional[str]:
        """Id of the deepest (then smallest, then first-by-id) location holding p."""
        x, y, z = p
        for c in self._buckets[bisect_right(self._x_cuts, x) * self._width + bisect_right(self._z_cuts, z)]:
            if c[0] <= x <= c[1] and c[2] <= y <= c[3] and c[4] <= z <= c[5]:
                return c[6]
        return None

    def transitions(self, trace: Iterable[TraceEvent]) -> list[Transition]:
        """One event per change of located position per player, in trace order."""
        current: dict[str, Optional[str]] = {}
        last_time: dict[str, int] = {}
        events: list[Transition] = []
        for sample in trace:
            player = sample.player_id
            if player in last_time and sample.timestamp < last_time[player]:
                raise NonMonotonicTraceError(
                    f"player {player}: timestamp {sample.timestamp} after {last_time[player]}"
                )
            last_time[player] = sample.timestamp
            here = self.locate(sample.position)
            previous = current.get(player)
            if here != previous:
                events.append(Transition(sample.timestamp, player, previous, here))
                current[player] = here
        return events

    def export_predicates(self) -> list[str]:
        """Sorted, duplicate-free connected(a, b) and contains(parent, child) facts.

        Connections are undirected: each unordered pair appears once, with the
        lexicographically smaller id first. An id made of anything but ASCII
        letters, digits and _ is written as a JSON string, so each fact is one
        line and its arguments read back unambiguously.
        """
        facts = set()
        for a, b in self.map.connected_pairs():
            facts.add(f"connected({_predicate_arg(a)}, {_predicate_arg(b)})")
        for loc in self.map.locations:
            for child_id in loc.child_ids:
                facts.add(f"contains({_predicate_arg(loc.id)}, {_predicate_arg(child_id)})")
        return sorted(facts)


# -- trace and event files -----------------------------------------------------


# Lines read and parsed at a time: enough that one parse replaces thousands of
# json.loads calls, few enough that a chunk's text and dicts stay small
# beside the events.
_TRACE_CHUNK = 2048
# What JSON counts as whitespace around a value.
_JSON_SPACE = " \t\n\r"


def read_trace(path: PathLike) -> list[TraceEvent]:
    """Read a JSON Lines trace file; a line of whitespace only is blank and skipped.

    Lines may end in \\n, \\r\\n or \\r. The file is read _TRACE_CHUNK lines at a
    time, and each chunk is parsed once, as one JSON array, and its events
    built from that parse (_parsed_chunk). A chunk that fails any check is
    read again from memory, one line at a time (_read_lines), which names its
    first bad line by its number in the file. So the events, and every
    message, are those of reading each line on its own. Every sample of a
    player holds the same str.
    """
    events: list[TraceEvent] = []
    players: dict[str, str] = {}
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            while True:
                lines: list[str] = []
                undecodable = None
                try:
                    lines.extend(islice(handle, _TRACE_CHUNK))
                except UnicodeDecodeError as err:
                    undecodable = err
                # The lines decoded before an undecodable one are read first, so an earlier bad line is named first.
                parsed = _parsed_chunk(lines, players)
                events.extend(_read_lines(path, lines, lineno, players) if parsed is None else parsed)
                lineno += len(lines)
                if undecodable is not None:
                    raise undecodable
                if len(lines) < _TRACE_CHUNK:
                    return events
    except _PARSE_FAILURES as err:
        raise _parse_error(path, err, lineno) from err


def _parsed_chunk(lines: list[str], players: dict[str, str]) -> Optional[Iterable[TraceEvent]]:
    """The events of a chunk of trace lines from one parse, or None if it must be read line by line.

    The blank lines are dropped and JSON whitespace is stripped from the
    rest, which are then joined with ",\\n" into one JSON array. If no line
    holds a "[" and each starts with "{", every comma put between two lines
    separates two values of that array: a JSON string cannot hold a raw
    newline, the outer array is the only one, and a comma inside an object
    must be followed by a key, not by the next line's "{". So an array with
    as many values as lines holds each line's value, and the chunk passes
    if those are objects whose fields TraceEvent and Position accept, which
    they do where _read_lines does (an unhashable player id fails in players
    first). Each player id is held in players, to share one str per player.
    """
    lines = list(map(str.strip, filter(str.strip, lines), repeat(_JSON_SPACE)))
    if not lines:
        return ()
    text = ",\n".join(lines)
    if "[" in text or not all(map(str.startswith, lines, repeat("{"))):
        return None
    try:
        rows = json.loads(f"[{text}]")
    except _PARSE_FAILURES:
        return None
    if len(rows) != len(lines) or not set(map(type, rows)) <= {dict}:
        return None
    timestamps, ids, xs, ys, zs = (
        list(map(dict.get, rows, repeat(key))) for key in ("timestamp", "player_id", "x", "y", "z")
    )
    del lines, text, rows  # so the events can take the memory of the chunk's text and dicts
    try:
        return list(map(TraceEvent, timestamps, map(players.setdefault, ids, ids), map(Position, xs, ys, zs)))
    except (TypeError, ValueError, CoordinateOverflowError):
        return None


def _read_lines(path: PathLike, lines: list[str], lineno: int, players: dict[str, str]) -> Iterator[TraceEvent]:
    """The events of trace lines read one at a time; lineno is the number of the line before the first.

    Each coordinate goes through _read_coord, which words the message for a
    bad one, and then the sample's position through Position(...).
    """
    for lineno, line in enumerate(lines, start=lineno + 1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except _PARSE_FAILURES as err:
            raise _parse_error(path, err, lineno) from err
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: line {lineno}: expected an object per line")
        try:
            timestamp = _read_int(raw.get("timestamp"), "timestamp")
            player_id = _read_str(raw.get("player_id"), "player_id")
            position = Position(*(_read_coord(raw.get(axis), axis) for axis in "xyz"))
            event = TraceEvent(timestamp, players.setdefault(player_id, player_id), position)
        except (ValidationError, ValueError) as err:
            raise ValidationError(f"{path}: line {lineno}: {err}") from err
        yield event


def write_transitions(events: Iterable[Transition], path: PathLike) -> None:
    """Write transition events as JSON Lines."""
    rows = ({"timestamp": e.timestamp, "player_id": e.player_id, "from": e.from_id, "to": e.to_id} for e in events)
    _write_atomically(path, lambda handle: handle.writelines(json.dumps(row) + "\n" for row in rows))


def write_predicates(facts: Iterable[str], path: PathLike) -> None:
    """Write predicate facts as plain text, one per line."""
    _write_atomically(path, lambda handle: handle.writelines(fact + "\n" for fact in facts))
