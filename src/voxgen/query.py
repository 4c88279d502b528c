"""Spatial questions over a semantic map: where is a point, who moved where.

LocationIndex is an immutable view over a SemanticMap. ``locate`` resolves a
point to the most specific named location: the deepest one containing it,
with ties broken by smaller volume and then by lexicographic id (connections
are not locations and never match). ``transitions`` replays a position trace
and reports every location change per player. ``export_predicates`` renders
the connection and containment structure as planner-style facts.

Traces are JSON Lines: one object per line with integer millisecond
``timestamp``, string ``player_id``, and integer ``x``/``y``/``z``.
Transition events are written in the same framing with ``from``/``to``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NonMonotonicTraceError, ParseError, ValidationError
from .geometry import Position
from .serialization import LocationRecord, PathLike, SemanticMap, _read_coord, _read_int, _read_str


@dataclass(frozen=True)
class TraceEvent:
    timestamp: int
    player_id: str
    position: Position

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("trace timestamps must be non-negative")
        if not self.player_id:
            raise ValueError("player_id must be nonempty")


@dataclass(frozen=True)
class Transition:
    timestamp: int
    player_id: str
    from_id: Optional[str]
    to_id: Optional[str]


def _volume_of(loc: LocationRecord) -> int:
    return (
        (loc.bottom_right.x - loc.top_left.x + 1)
        * (loc.bottom_right.y - loc.top_left.y + 1)
        * (loc.bottom_right.z - loc.top_left.z + 1)
    )


class LocationIndex:
    """Precomputed location lookup over a semantic map."""

    def __init__(self, semantic_map: SemanticMap):
        self.map = semantic_map
        self.locations = {loc.id: loc for loc in semantic_map.locations}
        self.parent: dict[str, str] = {}
        for loc in semantic_map.locations:
            for child_id in loc.child_ids:
                self.parent[child_id] = loc.id
        self.depth: dict[str, int] = {}
        for loc_id in self.locations:
            d = 0
            cursor = loc_id
            while cursor in self.parent:
                cursor = self.parent[cursor]
                d += 1
            self.depth[loc_id] = d
        self.volume = {loc.id: _volume_of(loc) for loc in semantic_map.locations}

    def locate(self, p: Position) -> Optional[str]:
        """Id of the deepest (then smallest, then first-by-id) location holding p."""
        best: Optional[str] = None
        best_key: Optional[tuple[int, int, str]] = None
        for loc in self.map.locations:
            if not (
                loc.top_left.x <= p.x <= loc.bottom_right.x
                and loc.top_left.y <= p.y <= loc.bottom_right.y
                and loc.top_left.z <= p.z <= loc.bottom_right.z
            ):
                continue
            key = (-self.depth[loc.id], self.volume[loc.id], loc.id)
            if best_key is None or key < best_key:
                best_key = key
                best = loc.id
        return best

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
        lexicographically smaller id first.
        """
        facts = set()
        for a, b in self.map.connected_pairs():
            facts.add(f"connected({a}, {b})")
        for loc in self.map.locations:
            for child_id in loc.child_ids:
                facts.add(f"contains({loc.id}, {child_id})")
        return sorted(facts)


# -- trace and event files -----------------------------------------------------


def read_trace(path: PathLike) -> list[TraceEvent]:
    """Read a JSON Lines trace file; blank lines are allowed and skipped."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(
                    f"{path}: line {lineno}: {err.msg}", path=str(path), line=lineno, column=err.colno
                ) from err
            if not isinstance(raw, dict):
                raise ValidationError(f"{path}: line {lineno}: expected an object per line")
            try:
                events.append(
                    TraceEvent(
                        timestamp=_read_int(raw.get("timestamp"), "timestamp"),
                        player_id=_read_str(raw.get("player_id"), "player_id"),
                        position=Position(
                            _read_coord(raw.get("x"), "x"),
                            _read_coord(raw.get("y"), "y"),
                            _read_coord(raw.get("z"), "z"),
                        ),
                    )
                )
            except (ValidationError, ValueError) as err:
                raise ValidationError(f"{path}: line {lineno}: {err}") from err
    return events


def write_transitions(events: Iterable[Transition], path: PathLike) -> None:
    """Write transition events as JSON Lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in events:
            handle.write(
                json.dumps(
                    {
                        "timestamp": event.timestamp,
                        "player_id": event.player_id,
                        "from": event.from_id,
                        "to": event.to_id,
                    }
                )
                + "\n"
            )


def write_predicates(facts: Iterable[str], path: PathLike) -> None:
    """Write predicate facts as plain text, one per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for fact in facts:
            handle.write(fact + "\n")
