"""Immutable road-network domain model for signalized grid networks.

A network is a directed graph of roads running between intersections or
boundary markers. Each road carries an ordered list of lanes (index 0 is the
innermost lane). A traffic movement describes vehicles crossing an
intersection from its entering lanes onto the lanes of one receiving road;
a phase pairs two non-conflicting movements that hold green together.
Right-turn movements are never signalized and are permitted in every phase.

``RoadNetwork.lane_table`` resolves every movement against the roads once
per network, after ``validate`` passes: the engine, the pressure controllers
and the learner all read these records, so none of them runs on a malformed
network.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


class ConfigurationError(ValueError):
    """Invalid input: bad config values, files, routes, or phase ids."""


class Turn(Enum):
    LEFT = "left"
    THROUGH = "through"
    RIGHT = "right"


class Compass(Enum):
    N = "N"
    E = "E"
    S = "S"
    W = "W"


class PhaseScheme(Enum):
    FOUR = "4-phase"
    EIGHT = "8-phase"


#: File-format marker for a road endpoint that leaves the modeled area.
BOUNDARY = "boundary"

_CLOCKWISE = (Compass.N, Compass.E, Compass.S, Compass.W)

_TURN_CODE = {Turn.THROUGH: "T", Turn.LEFT: "L", Turn.RIGHT: "R"}


def opposite(c: Compass) -> Compass:
    return _CLOCKWISE[(_CLOCKWISE.index(c) + 2) % 4]


def turned_heading(heading: Compass, turn: Turn) -> Compass:
    """Heading after executing a turn, for right-hand traffic."""
    i = _CLOCKWISE.index(heading)
    if turn is Turn.LEFT:
        return _CLOCKWISE[(i - 1) % 4]
    if turn is Turn.RIGHT:
        return _CLOCKWISE[(i + 1) % 4]
    return heading


@dataclass(frozen=True)
class Lane:
    id: str
    road: str
    index: int
    designation: frozenset[Turn]


@dataclass(frozen=True)
class Road:
    id: str
    src: str  # intersection id, or a boundary marker
    dst: str
    length_m: float
    speed_mps: float
    lanes: tuple[Lane, ...]

    @property
    def travel_time(self) -> float:
        return self.length_m / self.speed_mps


@dataclass(frozen=True)
class TrafficMovement:
    """Vehicles crossing one intersection: entering lanes -> receiving road.

    ``entering`` holds the approach lanes designated for this turn;
    ``exiting`` holds every lane of the receiving road, since a crossing
    vehicle may land on any of them.
    """

    id: str
    approach: Compass
    turn: Turn
    entering: tuple[str, ...]
    exiting: tuple[str, ...]

    @property
    def signalized(self) -> bool:
        return self.turn is not Turn.RIGHT


@dataclass(frozen=True)
class Phase:
    id: int
    movements: tuple[str, str]


@dataclass(frozen=True)
class Intersection:
    id: str
    entering_lanes: frozenset[str]
    exiting_lanes: frozenset[str]
    movements: tuple[TrafficMovement, ...]
    phases: tuple[Phase, ...]

    def movement(self, movement_id: str) -> TrafficMovement:
        for m in self.movements:
            if m.id == movement_id:
                return m
        raise KeyError(movement_id)


def movements_conflict(a: TrafficMovement, b: TrafficMovement) -> bool:
    """Static conflict test between two movements at one intersection.

    Right turns never conflict; movements from the same approach share a
    signal head; opposite approaches only coexist when running the same
    turn type; perpendicular approaches always cross.
    """
    if a.turn is Turn.RIGHT or b.turn is Turn.RIGHT:
        return False
    if a.approach is b.approach:
        return False
    if a.approach is opposite(b.approach):
        return a.turn is not b.turn
    return True


# Canonical phase tables for a 4-approach intersection, as (approach, turn)
# pairs. The first four are the opposed-pair phases; the 8-phase table adds
# the four split phases serving one approach at a time.
_FOUR_PHASE_TABLE: tuple[tuple[tuple[Compass, Turn], tuple[Compass, Turn]], ...] = (
    ((Compass.N, Turn.THROUGH), (Compass.S, Turn.THROUGH)),
    ((Compass.E, Turn.THROUGH), (Compass.W, Turn.THROUGH)),
    ((Compass.N, Turn.LEFT), (Compass.S, Turn.LEFT)),
    ((Compass.E, Turn.LEFT), (Compass.W, Turn.LEFT)),
)
_EIGHT_PHASE_TABLE = _FOUR_PHASE_TABLE + (
    ((Compass.N, Turn.THROUGH), (Compass.N, Turn.LEFT)),
    ((Compass.S, Turn.THROUGH), (Compass.S, Turn.LEFT)),
    ((Compass.E, Turn.THROUGH), (Compass.E, Turn.LEFT)),
    ((Compass.W, Turn.THROUGH), (Compass.W, Turn.LEFT)),
)


def phase_table(scheme: PhaseScheme) -> tuple[tuple[tuple[Compass, Turn], tuple[Compass, Turn]], ...]:
    return _FOUR_PHASE_TABLE if scheme is PhaseScheme.FOUR else _EIGHT_PHASE_TABLE


@dataclass(frozen=True, slots=True)
class MovementLanes:
    """One movement resolved against the roads: ``source_road`` is the road
    of its first entering lane and ``receiving_road`` that of its first
    exiting lane, which ``validate`` checks every lane lies on. ``paired``
    holds the downstream lane paired with each entering lane (same index on
    the receiving road, clamped to its lane count) and ``readable`` the
    exiting lanes, both without lanes of roads that drain to a boundary,
    which read 0; ``n_exiting`` counts every exiting lane."""

    id: str
    signalized: bool
    entering: tuple[str, ...]
    source_road: str
    receiving_road: str
    paired: tuple[str, ...]
    readable: tuple[str, ...]
    n_exiting: int


@dataclass(frozen=True, slots=True)
class IntersectionLanes:
    """Every movement in movement order, the signalized ones in the same
    order, each phase's two movements as positions in ``signalized``, the
    entering lanes and the exiting lanes of roads not draining to a boundary.
    The signalized movements' distinct entering, paired and readable lane
    sets are numbered one-lane sets first (bare ids in ``single_lanes``),
    then ``lane_groups``; per signalized movement, ``ep_reads`` holds the
    numbers of its entering and readable sets, ``len(entering)`` and
    ``n_exiting``, and ``mp_reads`` those of its entering and paired sets."""

    movements: tuple[MovementLanes, ...]
    signalized: tuple[MovementLanes, ...]
    phases: tuple[tuple[int, ...], ...]
    entering: tuple[str, ...]
    exiting: tuple[str, ...]
    single_lanes: tuple[str, ...]
    lane_groups: tuple[tuple[str, ...], ...]
    ep_reads: tuple[tuple[int, int, int, int], ...]
    mp_reads: tuple[tuple[int, int], ...]


class RoadNetwork:
    """Immutable after construction; safe to share across simulations.

    Besides the raw intersections/roads it exposes derived lookup tables:
    ``lane_index`` maps lane id to (road, lane), ``turn_between`` maps
    connected road pairs to the turn linking them, and ``lane_table`` maps
    intersection id to its resolved movements.
    """

    def __init__(
        self,
        intersections: Iterable[Intersection],
        roads: Iterable[Road],
        phase_scheme: PhaseScheme,
    ):
        self.intersections: tuple[Intersection, ...] = tuple(
            sorted(intersections, key=lambda i: i.id)
        )
        self.roads: tuple[Road, ...] = tuple(sorted(roads, key=lambda r: r.id))
        self.phase_scheme = phase_scheme

        self.intersection_index: dict[str, Intersection] = {
            i.id: i for i in self.intersections
        }
        self.road_index: dict[str, Road] = {r.id: r for r in self.roads}
        self.lane_index: dict[str, tuple[Road, Lane]] = {}
        for road in self.roads:
            for lane in road.lanes:
                self.lane_index[lane.id] = (road, lane)

        # (entry road, exit road) -> turn, from the movements whose first
        # entering and first exiting lane resolve; validate reports the rest
        self.turn_between: dict[tuple[str, str], Turn] = {}
        for inter in self.intersections:
            for m in inter.movements:
                entry = self.lane_index.get(m.entering[0]) if m.entering else None
                exit_ = self.lane_index.get(m.exiting[0]) if m.exiting else None
                if entry and exit_:
                    self.turn_between[(entry[0].id, exit_[0].id)] = m.turn

    @functools.cached_property
    def lane_table(self) -> dict[str, IntersectionLanes]:
        """Built at first use, so that a malformed network still constructs
        and ``validate`` can report on it; raises ConfigurationError with
        ``validate``'s first violations if it reports any."""
        problems = validate(self)
        if problems:
            raise ConfigurationError("; ".join(str(p) for p in problems[:5]))
        return {i.id: self._resolve(i) for i in self.intersections}

    def _resolve(self, inter: Intersection) -> IntersectionLanes:
        def read(lanes: Iterable[str]) -> tuple[str, ...]:
            return tuple(l for l in lanes if not self.is_boundary(self.lane_index[l][0].dst))

        movements = []
        for m in inter.movements:
            road = self.lane_index[m.exiting[0]][0]
            last = len(road.lanes) - 1
            paired = (road.lanes[min(self.lane_index[l][1].index, last)].id for l in m.entering)
            movements.append(MovementLanes(
                m.id, m.signalized, m.entering, self.lane_index[m.entering[0]][0].id, road.id,
                read(paired), read(m.exiting), len(m.exiting),
            ))
        signalized = tuple(ml for ml in movements if ml.signalized)
        position = {ml.id: k for k, ml in enumerate(signalized)}
        phases = tuple(tuple(position[mid] for mid in p.movements) for p in inter.phases)
        sets = dict.fromkeys(s for ml in signalized for s in (ml.entering, ml.paired, ml.readable))
        singles = [s for s in sets if len(s) == 1]
        groups = tuple(s for s in sets if len(s) != 1)
        at = {s: k for k, s in enumerate([*singles, *groups])}
        return IntersectionLanes(
            tuple(movements), signalized, phases,
            tuple(sorted(inter.entering_lanes)), read(sorted(inter.exiting_lanes)),
            tuple(s[0] for s in singles), groups,
            tuple((at[m.entering], at[m.readable], len(m.entering), m.n_exiting) for m in signalized),
            tuple((at[m.entering], at[m.paired]) for m in signalized),
        )

    def is_boundary(self, node: str) -> bool:
        return node not in self.intersection_index

    def terminal(self, road_id: str) -> bool:
        """True when the road drains to a boundary sink."""
        return self.is_boundary(self.road_index[road_id].dst)

    def entry_roads(self) -> tuple[Road, ...]:
        """Roads entering the network from a boundary source."""
        return tuple(r for r in self.roads if self.is_boundary(r.src))


@dataclass(frozen=True)
class Violation:
    entity: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.entity}: {self.message}"


def validate(net: RoadNetwork) -> list[Violation]:
    """Check every structural invariant; an empty list means well-formed."""
    out: list[Violation] = []
    # each index keeps one record per id, and state_digest keys service
    # credits by movement id, so an id is unique across the network
    for kind, ids in (
        ("road", [r.id for r in net.roads]),
        ("intersection", [i.id for i in net.intersections]),
        ("movement", [m.id for i in net.intersections for m in i.movements]),
    ):
        out += [Violation(x, f"duplicate {kind} id") for x, k in Counter(ids).items() if k > 1]
    entered = {l for i in net.intersections for m in i.movements for l in m.entering}
    exited = {l for i in net.intersections for m in i.movements for l in m.exiting}

    for road in net.roads:
        if not road.lanes:
            out.append(Violation(road.id, "road has no lanes"))
        elif [l.index for l in road.lanes] != list(range(len(road.lanes))):
            # a lane's id holds its index, and pairing reads a lane by it
            out.append(Violation(road.id, "lane indices do not run 0, 1, ... in order"))
        if not 0 < road.length_m < math.inf:  # NaN fails it too
            out.append(Violation(road.id, "length must be positive and finite"))
        if not 0 < road.speed_mps < math.inf:
            out.append(Violation(road.id, "free-flow speed must be positive and finite"))
        if net.is_boundary(road.src) and net.is_boundary(road.dst):
            out.append(Violation(road.id, "both endpoints are boundary markers"))
        for endpoint in (road.src, road.dst):
            if net.is_boundary(endpoint) and not _is_boundary_marker(endpoint):
                out.append(
                    Violation(road.id, f"endpoint {endpoint!r} names no intersection")
                )
        # a lane of a road ending at an intersection is a stop line that a
        # movement there must enter; one of a road draining to a boundary
        # must be one that a movement leaves onto
        sink = net.is_boundary(road.dst)
        for lane in road.lanes:
            if sink and lane.id not in exited:
                out.append(Violation(lane.id, "no movement leaves onto this lane"))
            elif not sink and lane.id not in entered:
                out.append(Violation(lane.id, "no movement enters this lane"))
            if not lane.designation:
                out.append(Violation(lane.id, "lane designation is empty"))

    for inter in net.intersections:
        if inter.entering_lanes & inter.exiting_lanes:
            out.append(
                Violation(inter.id, "entering and exiting lane sets overlap")
            )
        # pressure and the learner's features read these sets lane by lane
        for lane_id in sorted(inter.entering_lanes | inter.exiting_lanes):
            entering = lane_id in inter.entering_lanes
            side = "entering" if entering else "exiting"
            if lane_id not in net.lane_index:
                out.append(Violation(inter.id, f"unknown {side} lane {lane_id}"))
                continue
            road = net.lane_index[lane_id][0]
            if (road.dst if entering else road.src) != inter.id:
                where = "ending" if entering else "starting"
                out.append(
                    Violation(inter.id, f"{side} lane {lane_id} not on a road {where} here")
                )
        phase_member_ids = [mid for p in inter.phases for mid in p.movements]
        for m in inter.movements:
            if not m.entering or not m.exiting:
                out.append(Violation(m.id, "movement has empty lane set"))
            if set(m.entering) & set(m.exiting):
                out.append(Violation(m.id, "entering and exiting lanes overlap"))
            if not set(m.entering) <= inter.entering_lanes:
                out.append(Violation(m.id, "entering lanes not in intersection"))
            if not set(m.exiting) <= inter.exiting_lanes:
                out.append(Violation(m.id, "exiting lanes not in intersection"))
            unknown = [l for l in (*m.entering, *m.exiting) if l not in net.lane_index]
            if unknown:
                out.append(Violation(m.id, f"unknown lanes {unknown}"))
            # the engine moves a movement's vehicles from one road to one road
            sources = {net.lane_index[l][0] for l in m.entering if l in net.lane_index}
            if len(sources) > 1 or any(r.dst != inter.id for r in sources):
                out.append(Violation(m.id, "entering lanes not on one road ending here"))
            targets = {net.lane_index[l][0] for l in m.exiting if l in net.lane_index}
            if len(targets) > 1 or any(r.src != inter.id for r in targets):
                out.append(Violation(m.id, "exiting lanes not on one road starting here"))
            for lane_id in m.entering:
                if lane_id in unknown:
                    continue
                lane = net.lane_index[lane_id][1]
                if m.turn not in lane.designation:
                    out.append(
                        Violation(m.id, f"lane {lane_id} not designated {m.turn.value}")
                    )
            if m.signalized and m.id not in phase_member_ids:
                out.append(Violation(m.id, "signalized movement in no phase"))
            if not m.signalized and m.id in phase_member_ids:
                out.append(Violation(m.id, "right-turn movement appears in a phase"))
        for k, phase in enumerate(inter.phases):
            if phase.id != k:  # the engine and controllers index phases by position
                out.append(Violation(f"{inter.id}/phase{phase.id}", f"id is not its position {k}"))
            if len(phase.movements) != 2:
                out.append(
                    Violation(f"{inter.id}/phase{phase.id}", "phase must pair two movements")
                )
                continue
            try:
                a, b = (inter.movement(mid) for mid in phase.movements)
            except KeyError as exc:
                out.append(
                    Violation(f"{inter.id}/phase{phase.id}", f"unknown movement {exc}")
                )
                continue
            if movements_conflict(a, b):
                out.append(
                    Violation(
                        f"{inter.id}/phase{phase.id}",
                        f"conflicting movements {a.id} and {b.id}",
                    )
                )
    return out


def _is_boundary_marker(node: str) -> bool:
    return node == BOUNDARY or node.startswith(f"{BOUNDARY}:")


# ---------------------------------------------------------------------------
# Grid construction


def _lane_designations(lanes_per_approach: int) -> tuple[frozenset[Turn], ...]:
    if lanes_per_approach == 3:
        return (
            frozenset({Turn.LEFT}),
            frozenset({Turn.THROUGH}),
            frozenset({Turn.RIGHT}),
        )
    if lanes_per_approach == 1:
        return (frozenset({Turn.LEFT, Turn.THROUGH, Turn.RIGHT}),)
    raise ConfigurationError("lanes_per_approach must be 1 or 3")


def build_grid(
    rows: int,
    cols: int,
    ew_length_m: float,
    sn_length_m: float,
    scheme: PhaseScheme = PhaseScheme.FOUR,
    *,
    speed_mps: float = 10.0,
    lanes_per_approach: int = 3,
) -> RoadNetwork:
    """Build a rows x cols grid of 4-approach intersections.

    East-west road segments are ``ew_length_m`` long and south-north segments
    ``sn_length_m``. Every grid-edge approach connects to a virtual boundary
    source/sink. Each approach carries ``lanes_per_approach`` lanes (3 gives
    one exclusive lane per turn; 1 gives a single shared lane).
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid must have at least one row and one column")
    if not (0 < ew_length_m < math.inf and 0 < sn_length_m < math.inf):  # NaN fails
        raise ConfigurationError("road lengths must be positive and finite")
    if not 0 < speed_mps < math.inf:
        raise ConfigurationError("free-flow speed must be positive and finite")
    designations = _lane_designations(lanes_per_approach)

    def node(r: int, c: int) -> str:
        return f"n{r}_{c}"

    def neighbor(r: int, c: int, side: Compass) -> str:
        if side is Compass.N:
            return node(r - 1, c) if r > 0 else f"{BOUNDARY}:N{c}"
        if side is Compass.S:
            return node(r + 1, c) if r < rows - 1 else f"{BOUNDARY}:S{c}"
        if side is Compass.W:
            return node(r, c - 1) if c > 0 else f"{BOUNDARY}:W{r}"
        return node(r, c + 1) if c < cols - 1 else f"{BOUNDARY}:E{r}"

    roads: dict[str, Road] = {}

    def add_road(src: str, dst: str, side: Compass) -> Road:
        """The road between ``src`` and ``dst`` on a junction's ``side``."""
        rid = f"{src}__{dst}"
        if rid in roads:
            return roads[rid]
        length = ew_length_m if side in (Compass.E, Compass.W) else sn_length_m
        lanes = tuple(
            Lane(id=f"{rid}#{i}", road=rid, index=i, designation=d)
            for i, d in enumerate(designations)
        )
        road = Road(
            id=rid,
            src=src,
            dst=dst,
            length_m=length,
            speed_mps=speed_mps,
            lanes=lanes,
        )
        roads[rid] = road
        return road

    intersections: list[Intersection] = []
    for r in range(rows):
        for c in range(cols):
            nid = node(r, c)
            approach: dict[Compass, Road] = {}
            exit_: dict[Compass, Road] = {}
            for side in _CLOCKWISE:
                nb = neighbor(r, c, side)
                approach[side] = add_road(nb, nid, side)
                exit_[side] = add_road(nid, nb, side)

            movements = tuple(
                TrafficMovement(
                    id=f"{nid}:{side.value}{_TURN_CODE[turn]}",
                    approach=side,
                    turn=turn,
                    entering=tuple(l.id for l in approach[side].lanes if turn in l.designation),
                    exiting=tuple(l.id for l in exit_[turned_heading(opposite(side), turn)].lanes),
                )
                for side in _CLOCKWISE
                for turn in (Turn.THROUGH, Turn.LEFT, Turn.RIGHT)
            )
            intersections.append(
                Intersection(
                    id=nid,
                    entering_lanes=frozenset(l.id for rd in approach.values() for l in rd.lanes),
                    exiting_lanes=frozenset(l.id for rd in exit_.values() for l in rd.lanes),
                    movements=movements,
                    phases=_scheme_phases(nid, movements, scheme),
                )
            )

    return RoadNetwork(intersections, roads.values(), scheme)


def _scheme_phases(
    intersection: str, movements: Iterable[TrafficMovement], scheme: PhaseScheme
) -> tuple[Phase, ...]:
    """The phases of ``scheme`` over one intersection's movements; raises
    ConfigurationError if the table names an (approach, turn) that none of
    them has."""
    by_key = {(m.approach, m.turn): m.id for m in movements}
    table = phase_table(scheme)
    for approach, turn in (key for pair in table for key in pair):
        if (approach, turn) not in by_key:
            raise ConfigurationError(
                f"{intersection}: no movement for ({approach.value}, {turn.value}),"
                f" which the {scheme.value} table serves"
            )
    return tuple(Phase(i, (by_key[a], by_key[b])) for i, (a, b) in enumerate(table))


def with_phase_scheme(net: RoadNetwork, scheme: PhaseScheme) -> RoadNetwork:
    """A 4-approach network with the phase tables of ``scheme``: ``net``
    itself if it is labelled with the scheme and holds its tables already,
    else a rebuild. A label alone does not make a custom table canonical."""
    phases = [_scheme_phases(inter.id, inter.movements, scheme) for inter in net.intersections]
    if scheme is net.phase_scheme and all(
        p == inter.phases for p, inter in zip(phases, net.intersections)
    ):
        return net
    rebuilt = (replace(inter, phases=p) for inter, p in zip(net.intersections, phases))
    return RoadNetwork(rebuilt, net.roads, scheme)


# ---------------------------------------------------------------------------
# Serialization


def network_to_dict(net: RoadNetwork) -> dict:
    return {
        "phase_scheme": net.phase_scheme.value,
        "roads": [
            {
                "id": r.id,
                "from": r.src,
                "to": r.dst,
                "length_m": r.length_m,
                "speed_mps": r.speed_mps,
                "lanes": [
                    {"index": l.index, "designation": sorted(t.value for t in l.designation)}
                    for l in r.lanes
                ],
            }
            for r in net.roads
        ],
        "intersections": [
            {
                "id": i.id,
                "entering_lanes": sorted(i.entering_lanes),
                "exiting_lanes": sorted(i.exiting_lanes),
                "movements": [
                    {
                        "id": m.id,
                        "approach": m.approach.value,
                        "turn": m.turn.value,
                        "entering": list(m.entering),
                        "exiting": list(m.exiting),
                    }
                    for m in i.movements
                ],
                "phases": [
                    {"id": p.id, "movements": list(p.movements)} for p in i.phases
                ],
            }
            for i in net.intersections
        ],
    }


def parser(parse: Callable[[object], T]) -> Callable[[object], T]:
    """``parse`` raising ConfigurationError on a document it cannot read:
    a missing field, a value of the wrong type or an unknown id."""

    @functools.wraps(parse)
    def checked(doc: object) -> T:
        try:
            return parse(doc)
        except ConfigurationError:
            raise
        except KeyError as exc:
            raise ConfigurationError(f"missing field or unknown id {exc}") from None
        except (ValueError, TypeError, IndexError, ArithmeticError) as exc:
            raise ConfigurationError(str(exc)) from None

    return checked


@parser
def network_from_dict(doc: dict) -> RoadNetwork:
    scheme = PhaseScheme(doc["phase_scheme"])
    intersections = []
    for idoc in doc["intersections"]:
        movements = tuple(
            TrafficMovement(
                id=m["id"],
                approach=Compass(m["approach"]),
                turn=Turn(m["turn"]),
                entering=tuple(m["entering"]),
                exiting=tuple(m["exiting"]),
            )
            for m in idoc["movements"]
        )
        intersections.append(
            Intersection(
                id=idoc["id"],
                entering_lanes=frozenset(idoc["entering_lanes"]),
                exiting_lanes=frozenset(idoc["exiting_lanes"]),
                movements=movements,
                phases=tuple(
                    Phase(id=p["id"], movements=tuple(p["movements"]))
                    for p in idoc["phases"]
                ),
            )
        )

    roads = []
    for rdoc in doc["roads"]:
        rid = rdoc["id"]
        lanes = []
        for l in rdoc["lanes"]:
            try:  # "0" and 0.0 are refused
                index = operator.index(l["index"])
            except TypeError:
                raise ConfigurationError(
                    f"{rid}: lane index {l['index']!r} is not an integer"
                ) from None
            lanes.append(Lane(
                id=f"{rid}#{index}",
                road=rid,
                index=index,
                designation=frozenset(Turn(t) for t in l["designation"]),
            ))
        roads.append(
            Road(
                id=rid,
                src=rdoc["from"],
                dst=rdoc["to"],
                length_m=float(rdoc["length_m"]),
                speed_mps=float(rdoc["speed_mps"]),
                lanes=tuple(lanes),
            )
        )

    return RoadNetwork(intersections, roads, scheme)


def save_network(net: RoadNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=1))


def load_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` over a JSON file; a file that cannot be read or is not JSON
    raises ConfigurationError, as a ``parser`` does on a malformed document."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:  # ValueError covers ConfigurationError
        raise ConfigurationError(f"{path}: {exc}") from None


def load_network(path: str | Path) -> RoadNetwork:
    return load_json(path, network_from_dict)

