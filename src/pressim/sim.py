"""Deterministic discrete-time point-queue traffic simulation.

Vehicles follow fixed routes of road ids. A vehicle entering a road travels
at free-flow speed for ``length / speed`` seconds, then joins the FIFO queue
of a lane at the downstream stop line (choosing the least-occupied lane
designated for its next turn). Green movements discharge queued vehicles at
the saturation rate, one vehicle per ``saturation_headway`` seconds, gated
by spare queue capacity downstream. Roads draining to a boundary are
infinite sinks: their vehicles finish on arrival and never queue.

Signal timing: a phase holds at least ``t_duration`` seconds of green. A
controller decision that changes phase triggers a yellow interval followed
by an all-red interval during which no signalized movement discharges,
so the engine counts the two as one interval; re-selecting the running
phase restarts its green without a transition.
Unsignalized right turns discharge in every phase and during transitions.

The engine draws no random numbers: identical inputs give identical
trajectories tick for tick.

Everything static is resolved once per ``Simulation``, from the network's
``lane_table`` and the configured lane capacities, and the tick loop runs
over these tables, never over a dict keyed by a lane, road or movement id:

- the state's stop-line queues in one list, by their position in the
  network's ``lane_index`` order;
- a hop plan per flow: for each route position, the positions of the
  stop-line lanes that the movement onto the vehicle's next road enters
  (``None`` on the last road, which drains to a boundary). Every vehicle
  points at its flow's plan;
- per intersection, the movements each phase serves and those a
  transition serves (the right turns), in movement order, because that
  order decides which movement wins a contested downstream lane. Each
  movement's record holds the queues of its entering lanes and its
  service credit, an int count of 1 / ``_full`` vehicle: a served tick
  adds ``_gain``, where ``_gain / _full`` is ``tick / saturation_headway``
  made exact once, and a serve needs and takes ``_full``;
- one record per road (``_Road``): whether it drains to a boundary, the
  capacity of its stop-line lanes, its hop (the fewest whole ticks whose
  total length reaches its travel time less 1e-9 s), the position of the
  intersection it enters and the mask of the movements there that its
  lanes enter. The record also holds the road's transit deque, whether the
  road is held, and its wait list.

Time is counted in whole ticks. The clock after tick n is ``n * tick``; a
signal holds the tick its green began on and a transition the tick its
yellow and all-red end on, so a green's age on tick n is n less its start,
frozen while a transition runs; a road's transit deque holds each vehicle
with the tick it entered the road on, and one that enters on tick n
reaches its stop line on tick n + hop; and each requested release goes out
on the first tick at or after its time, in flow order within a tick,
because vehicle ids follow it (``FlowSpec``).

The tick loop visits only what can change on the tick:

- each intersection keeps an int bitmask of live movements, bit k for the
  k-th movement of its lane table entry. Discharge visits the live
  movements the running phase (or transition) serves, lowest bit first,
  which is movement order, with a mask's bit positions from one memo for
  every ``Simulation``. A visit that finds the service credit full puts
  a movement to sleep when a further visit could change nothing: when its
  entering lanes are empty, until a vehicle joins an empty one; or, if it
  is solo (no other movement enters its lanes), when no head can go, until
  a vehicle joins an empty lane or pops from a stop-line lane of its
  receiving road. It then waits on that road's wait list, which a pop from
  any of the road's stop-line lanes wakes. A vehicle joining an empty lane
  wakes every movement its road's lanes enter. Both wake more than can
  move; a woken movement that still cannot move sleeps again, changing
  nothing. A movement sharing a lane stays awake, since a co-movement's
  pop changes its heads partway through the pass;
- a calendar maps a tick index to the road records whose head vehicle
  reaches the stop line on that tick: the head's entry tick plus the road's
  hop, and at least the next tick for a vehicle that a discharge puts on
  the road. A road enters it when its transit deque turns non-empty, and
  after a visit that leaves a head not yet due. A road whose due head finds
  every candidate lane full is held, and a pop from any of its stop-line
  lanes books it for the next tick, where a head that still finds its
  lanes full holds it again;
- a release calendar maps a tick index to the flows releasing on it. Each
  flow keeps a cursor, the index k of its next release, and books that
  release's tick after releasing;
- a switch calendar maps a tick index to the intersections whose
  transition ends on it, booked by ``set_phase`` when the transition
  starts, so no tick walks every signal;
- a decision calendar maps a tick index to the intersections ``_poll``
  checks on it. A check leaving a signal green books the next on the tick
  its green reaches ``t_duration``, and a transition books one on the tick
  it ends. It holds for one ``controllers`` object: a new one has every
  intersection checked, and its controllers' ``t_duration`` turned into
  ticks of green once.

Besides two integer counters (the tick index and the next vehicle id), the
dynamic state lives in ``state``, in the movement credits and in the flows'
release cursors. ``SimState.for_network`` builds the state's queues
together with the lane sets the pressure functions read (``reads``), as
references to those queues. The tables above, the road records with their
wait lists, the live masks and the calendars are built once, in
``__init__``, around the state's own deques, and the tick loop updates
them with the state. Only what the tick loop reads is kept: a vehicle's
status (finished, queued or in transit), a green's age and a transition's
stage are worked out by ``state_digest``. State edited by hand, even
before the first step, is not seen.

A fork is a deep copy of the whole ``Simulation``. A memo keeps the copy
cheap by sharing what no step changes: it maps the network, the controllers
mapping last stepped with (read by identity), the flows and their hop plans
each to itself, and the vehicle table to a copy that shares the finished
vehicles; a vehicle holds only immutable values, so a shallow copy of an
unfinished one is its deep copy. Everything that refers to a queue, the
state's ``reads`` among them, is copied with the queues, so the copy reads
its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Deque, Iterable, Mapping, NamedTuple, Optional, TypeVar

# ConfigurationError is defined with the network and re-exported from here
from pressim.network import ConfigurationError, RoadNetwork, load_json, parser

if TYPE_CHECKING:  # control imports this module
    from pressim.control import Controller

_EPS = 1e-9


@dataclass(frozen=True)
class SimConfig:
    tick: float = 1.0
    yellow: float = 3.0
    all_red: float = 2.0
    saturation_headway: float = 2.0
    lane_capacity: Optional[int] = None  # None: floor(length / 7.5 m) per lane
    episode_length: float = 3600.0
    seed: int = 0

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0 < self.tick < math.inf:
            raise ConfigurationError("tick must be positive and finite")
        if not (0 <= self.yellow < math.inf and 0 <= self.all_red < math.inf):
            raise ConfigurationError("transition intervals must be non-negative and finite")
        if not 0 < self.saturation_headway < math.inf:
            raise ConfigurationError("saturation_headway must be positive and finite")
        if self.lane_capacity is not None:
            try:  # a numpy integer passes; a float, even a whole one, does not
                too_small = operator.index(self.lane_capacity) < 1
            except TypeError:
                raise ConfigurationError("lane_capacity must be an integer") from None
            if too_small:
                raise ConfigurationError("lane_capacity must be at least 1")
        if not 0 < self.episode_length < math.inf:
            raise ConfigurationError("episode_length must be positive and finite")


@dataclass(frozen=True)
class FlowSpec:
    """Vehicles released along ``route`` every ``headway_s`` seconds.

    The requested release times are start_s + k * headway_s for k = 0, 1,
    ... up to end_s, from start_s >= 0. Each goes out on the first tick at
    or after it (tick 1 for one at 0 s), so a tick carries several when the
    headway is shorter than the tick, in order of k. The route must run
    boundary to boundary.
    """

    route: tuple[str, ...]
    start_s: float
    end_s: float
    headway_s: float


@dataclass(slots=True)
class Vehicle:
    id: int
    route: tuple[str, ...]
    route_pos: int
    entry_time: float
    exit_time: Optional[float] = None  # set when it finishes
    # the flow's hop plan: per route position, the positions of its
    # stop-line lane candidates in the network's ``lane_index`` order
    plan: tuple[Optional[tuple[int, ...]], ...] = ()


@dataclass
class Transition:
    ends: int  # the tick its yellow and all-red end on
    next_phase: int


@dataclass
class SignalState:
    active: int = 0
    since: int = 0  # the tick its green began on
    transition: Optional[Transition] = None


@dataclass
class Counters:
    spawned: int = 0
    blocked: int = 0
    finished: int = 0
    decisions: int = 0


class LaneReads(NamedTuple):
    """The lane sets of one intersection's lane table entry as one state's
    queues: its one-lane sets, its lane groups, its entering lanes and its
    exiting lanes that do not drain to a boundary."""

    singles: tuple[Deque[int], ...]
    groups: tuple[tuple[Deque[int], ...], ...]
    entering: tuple[Deque[int], ...]
    exiting: tuple[Deque[int], ...]


@dataclass
class SimState:
    """The dynamic state of one episode; ``for_network`` builds it."""

    queues: dict[str, Deque[int]]
    # per road: (the tick it entered the road on, vehicle id), oldest first
    transit: dict[str, Deque[tuple[int, int]]]
    signals: dict[str, SignalState]
    # per intersection: the lane sets the pressure functions read
    reads: dict[str, LaneReads]
    clock: float = 0.0
    vehicles: dict[int, Vehicle] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    total_queued: int = 0
    max_total_queue: int = 0

    @classmethod
    def for_network(cls, net: RoadNetwork) -> SimState:
        """The empty state of ``net``: a queue per lane in ``lane_index``
        order, a transit deque per road, phase 0 green everywhere, and each
        intersection's ``reads`` built around these queues. Raises
        ConfigurationError on a malformed network."""
        queues: dict[str, Deque[int]] = {l: deque() for l in net.lane_index}

        def read(lanes: tuple[str, ...]) -> tuple[Deque[int], ...]:
            return tuple(map(queues.__getitem__, lanes))

        return cls(
            queues=queues,
            transit={r.id: deque() for r in net.roads},
            signals={i.id: SignalState() for i in net.intersections},
            reads={
                iid: LaneReads(read(t.single_lanes), tuple(map(read, t.lane_groups)),
                               read(t.entering), read(t.exiting))
                for iid, t in net.lane_table.items()
            },
        )

    def in_transit_count(self) -> int:
        return sum(len(dq) for dq in self.transit.values())


_Lane = TypeVar("_Lane")


def pick_lane(candidates: Iterable[_Lane], load: Callable[[_Lane], int]) -> _Lane:
    """Least-loaded candidate lane, ties to the first. Hot callers skip the
    call when there is only one candidate."""
    return min(candidates, key=load)


def _ticks_to(seconds: float, tick: float) -> int:
    """The fewest whole ticks whose total length reaches ``seconds`` less
    1e-9 s; 0 for a time at or before 0 s."""
    limit = seconds - _EPS
    n = math.ceil(limit / tick)
    # the rounded quotient may land one off the exact test: settle on it
    if (n - 1) * tick >= limit:
        n -= 1
    elif n * tick < limit:
        n += 1
    return n if n > 0 else 0  # a call to max() would cost more than the rest


def _bit_positions(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of ``bits``, lowest first."""
    return tuple(k for k in range(bits.bit_length()) if bits >> k & 1)


# bitmask -> _bit_positions(bitmask), for every Simulation: a movement mask
# has a bit per movement of one intersection, so the memo stays small
_POSITIONS: dict[int, tuple[int, ...]] = {}


# records are compared by identity, never field by field through their deques
@dataclass(slots=True, eq=False)
class _Road:
    """A road of one ``Simulation``: ``transit`` is its state's transit
    deque of the road."""

    id: str
    sink: bool  # drains to a boundary
    capacity: int  # of each stop-line lane
    hop: int  # ticks from entering the road to reaching its stop line
    transit: Deque[tuple[int, int]]
    junction: int  # position of the intersection it enters; -1 for a sink
    feeds: int = 0  # mask of the movements there that its lanes enter
    # what a pop from any of its stop-line lanes wakes: (intersection
    # position, bit) of each solo movement asleep with this as its
    # receiving road; the pop wakes the road itself too while it is held
    waiting: list[tuple[int, int]] = field(default_factory=list)
    held: bool = False  # its due head finds every candidate lane full


@dataclass(slots=True)
class _Move:
    """A movement of one ``Simulation``: ``lanes`` are its state's
    queues of its entering lanes, ``source`` the road they lie on and
    ``road`` its receiving road."""

    id: str
    bit: int  # 1 << its position in the intersection's movements
    lanes: tuple[Deque[int], ...]
    source: _Road
    road: _Road
    solo: bool  # no other movement enters its lanes
    credit: int = 0  # service credit, in units of 1 / Simulation._full vehicle


@dataclass(slots=True, eq=False)
class _Flow:
    """A flow of one ``Simulation`` with its release cursor."""

    spec: FlowSpec
    road: _Road  # its entry road
    plan: tuple[Optional[tuple[int, ...]], ...]  # its hop plan
    k: int = 0  # the index of its next release


class Simulation:
    """One episode of network, demand, and signal state.

    Construct a fresh instance per episode; the constructor checks the
    network and the flows against it, and raises ConfigurationError on a
    malformed network or any broken route. ``step(controllers)`` advances
    one tick and ``run(controllers)`` to the end of the episode, through one
    tick loop; controllers is a mapping from intersection id to a controller
    (missing ids keep phase 0 forever).
    """

    def __init__(self, net: RoadNetwork, flows: list[FlowSpec], config: SimConfig):
        self.net = net
        self.flows = list(flows)
        self.config = config
        table = net.lane_table  # raises ConfigurationError on a malformed network
        problems = validate_flows(net, self.flows)
        if problems:
            raise ConfigurationError("; ".join(problems))

        tick, cap = config.tick, config.lane_capacity
        self._intersection_ids = ids = [i.id for i in net.intersections]
        # per intersection id: its position and its phase count
        self._intersections = {
            i.id: (ii, len(i.phases)) for ii, i in enumerate(net.intersections)
        }
        self._episode_ticks = _ticks_to(config.episode_length, tick)
        # a transition's ticks of yellow and all-red: it ends on the first
        # tick at or after yellow + all_red from its start
        self._transition = _ticks_to(config.yellow + config.all_red, tick)
        # a served tick's credit, tick / saturation_headway, as the exact
        # fraction _gain / _full: a credit counts 1 / _full vehicles
        gain = (Fraction(tick).limit_denominator(10**9)
                / Fraction(config.saturation_headway).limit_denominator(10**9))
        self._gain, self._full = gain.numerator, gain.denominator

        self.state = st = SimState.for_network(net)
        # the state's queues by position: a hop plan's lanes index it
        self._lanes = list(st.queues.values())
        self._ticks = 0
        self._next_vehicle_id = 0

        junction = {iid: ii for ii, iid in enumerate(ids)}
        # per road id, in network order: its record
        self._roads = roads = {
            r.id: _Road(
                r.id, net.terminal(r.id),
                cap if cap is not None else max(1, math.floor(r.length_m / 7.5)),
                _ticks_to(r.travel_time, tick), st.transit[r.id], junction.get(r.dst, -1),
            )
            for r in net.roads
        }
        # per flow route its hop plan, each hop the positions of the
        # entering lanes of the movement linking the two roads
        position = {l: k for k, l in enumerate(st.queues)}
        links = {
            (m.source_road, m.receiving_road): tuple(map(position.__getitem__, m.entering))
            for lanes in table.values()
            for m in lanes.movements
        }
        self._plans = {
            f.route: (*(links[hop] for hop in zip(f.route, f.route[1:])), None)
            for f in self.flows
        }
        self._flows = [_Flow(f, roads[f.route[0]], self._plans[f.route]) for f in self.flows]
        # per intersection: its signal state, the mask of movements each phase
        # serves, the mask of those a transition serves, and its movements in
        # movement order, bit k the k-th of its lane table entry
        self._junctions = []
        for inter in net.intersections:
            movements = table[inter.id].movements
            entered = Counter(l for m in movements for l in m.entering)
            moves = []
            for k, m in enumerate(movements):
                mv = _Move(
                    m.id, 1 << k, tuple(st.queues[l] for l in m.entering),
                    roads[m.source_road], roads[m.receiving_road],
                    all(entered[l] == 1 for l in m.entering),
                )
                mv.source.feeds |= mv.bit
                moves.append(mv)
            by_phase = tuple(
                sum(1 << k for k, m in enumerate(movements)
                    if not m.signalized or m.id in p.movements)
                for p in inter.phases
            )
            in_transition = sum(1 << k for k, m in enumerate(movements) if not m.signalized)
            self._junctions.append((st.signals[inter.id], by_phase, in_transition, tuple(moves)))
        # per intersection the mask of its live movements: at first, all
        self._live = [(1 << len(moves)) - 1 for *_, moves in self._junctions]
        self._signals = [st.signals[iid] for iid in ids]
        # tick -> the intersections whose transition ends on it
        self._switches: defaultdict[int, list[int]] = defaultdict(list)
        # tick -> the intersections _poll checks; per intersection its last booked check
        self._checks: defaultdict[int, list[int]] = defaultdict(list)
        self._check_at = [0] * len(ids)
        self._mapping: Optional[Mapping[str, Controller]] = None  # check all at the next poll
        # per intersection, the ticks of green due a decision under the
        # mapping: None without a controller or with an infinite t_duration
        self._green: list[Optional[int]] = [None] * len(ids)
        # tick -> the roads its transit pass visits; the next pass is tick
        # n + 1's, and books each road visited again on its head's due tick
        self._calendar: defaultdict[int, list[_Road]] = defaultdict(list)
        # tick -> the flows whose next release is due on it
        self._releases: defaultdict[int, list[int]] = defaultdict(list)
        for fi, f in enumerate(self.flows):  # release 0 is at start_s <= end_s
            self._releases[_ticks_to(f.start_s, tick) or 1].append(fi)

    # -- tick ---------------------------------------------------------------

    def step(self, controllers: Mapping[str, Controller]) -> None:
        """Advance one tick. ``controllers`` is read by identity: a changed
        mapping, or a changed ``t_duration``, must come as a new mapping
        object. ``set_phase`` may be called between steps."""
        self._advance(controllers, self._ticks + 1)

    def run(self, controllers: Mapping[str, Controller]) -> None:
        """Step to the end of the episode."""
        self._advance(controllers, self._episode_ticks)

    def _advance(self, controllers: Mapping[str, Controller], last: int) -> None:
        """Run the ticks up to tick ``last``, the tick loop of ``step`` and
        ``run``."""
        st, tick, n = self.state, self.config.tick, self._ticks
        signals, spawn, transit = self._advance_signals, self._spawn, self._advance_transit
        poll, discharge = self._poll, self._discharge
        while n < last:
            self._ticks = n = n + 1
            st.clock = n * tick
            signals()
            spawn()
            transit()
            poll(controllers)
            discharge()
            if st.total_queued > st.max_total_queue:
                st.max_total_queue = st.total_queued

    # -- signal timing ------------------------------------------------------

    def _advance_signals(self) -> None:
        n = self._ticks
        due = self._switches.pop(n, None)
        if due is None:
            return
        signals, check_at, checks = self._signals, self._check_at, self._checks[n]
        for i in due:  # green again: check it on this tick
            sig = signals[i]
            sig.active = sig.transition.next_phase
            sig.since = n
            sig.transition = None
            check_at[i] = n
            checks.append(i)

    def set_phase(self, intersection: str, phase: int) -> None:
        """Request a phase; no-op while a transition is underway. ``phase``
        may be any integer type (a numpy integer, say); it is stored as an
        int."""
        try:
            phase = operator.index(phase)
        except TypeError:
            raise ConfigurationError(
                f"{intersection}: phase {phase!r} is not an integer"
            ) from None
        try:
            i, n_phases = self._intersections[intersection]
        except KeyError:
            raise ConfigurationError(f"unknown intersection {intersection!r}") from None
        if not 0 <= phase < n_phases:
            raise ConfigurationError(
                f"{intersection}: phase {phase} out of range 0..{n_phases - 1}"
            )
        sig = self._signals[i]
        if sig.transition is not None:
            return
        if phase == sig.active or not self._transition:  # green anew at once
            sig.active = phase
            sig.since = self._ticks
        else:
            ends = self._ticks + self._transition
            sig.transition = Transition(ends, phase)
            self._switches[ends].append(i)

    # -- demand -------------------------------------------------------------

    def _spawn(self) -> None:
        n = self._ticks
        due = self._releases.pop(n, None)
        if due is None:
            return
        st = self.state
        now, counters, queues = st.clock, st.counters, self._lanes
        tick, releases = self.config.tick, self._releases
        due.sort()  # flow order
        for fi in due:
            flow = self._flows[fi]
            spec, road, plan = flow.spec, flow.road, flow.plan
            lanes, k = plan[0], flow.k
            while True:  # each release of the flow due on this tick, in order of k
                counters.spawned += 1
                q = queues[lanes[0]] if len(lanes) == 1 else self._pick_lane(lanes)
                if len(q) >= road.capacity:
                    counters.blocked += 1
                else:
                    vid = self._next_vehicle_id
                    self._next_vehicle_id += 1
                    st.vehicles[vid] = Vehicle(vid, spec.route, 0, now, None, plan)
                    dq = road.transit
                    if not dq:  # this tick's transit pass runs after the releases
                        self._calendar[n + road.hop].append(road)
                    dq.append((n, vid))
                k += 1
                t = spec.start_s + k * spec.headway_s
                if t > spec.end_s + _EPS:
                    break  # that was the flow's last
                at = _ticks_to(t, tick) or 1
                if at != n:
                    releases[at].append(fi)
                    break
            flow.k = k

    def _pick_lane(self, candidates: tuple[int, ...]) -> Deque[int]:
        return pick_lane(map(self._lanes.__getitem__, candidates), len)

    # -- movement along roads ----------------------------------------------

    def _advance_transit(self) -> None:
        n = self._ticks
        roads = self._calendar.pop(n, None)
        if roads is None:
            return
        st = self.state
        clock = st.clock
        queues, vehicles = self._lanes, st.vehicles
        calendar, live = self._calendar, self._live
        joined = finished = 0
        # roads do not interact here: a road's vehicles join only its own lanes
        for road in roads:
            dq, hop = road.transit, road.hop
            last = n - hop  # a head is due if it entered on this tick or before
            while dq and dq[0][0] <= last:
                v = vehicles[dq[0][1]]
                if road.sink:
                    dq.popleft()
                    v.exit_time = clock
                    finished += 1
                    continue
                lanes = v.plan[v.route_pos]
                q = queues[lanes[0]] if len(lanes) == 1 else self._pick_lane(lanes)
                if len(q) >= road.capacity:
                    # every candidate lane full: the road holds this and all
                    # behind it until one of its stop-line lanes pops
                    road.held = True
                    break
                dq.popleft()
                if not q:  # a new head: the road's movements may move it
                    live[road.junction] |= road.feeds
                q.append(v.id)
                joined += 1
            else:
                if dq:  # the next head is not yet due: book the tick it is
                    calendar[dq[0][0] + hop].append(road)
        st.total_queued += joined
        st.counters.finished += finished

    # -- control ------------------------------------------------------------

    def _poll(self, controllers: Mapping[str, Controller]) -> None:
        """Decide, in intersection order, where green has run ``t_duration``:
        of those the calendar holds for this tick, or of all on a new mapping."""
        n, check_at, checks = self._ticks, self._check_at, self._checks
        due = checks.pop(n, None)
        ids, greens = self._intersection_ids, self._green
        if controllers is not self._mapping:
            self._mapping, due = controllers, range(len(check_at))
            tick = self.config.tick
            for i, iid in enumerate(ids):
                ctrl = controllers.get(iid)
                t_duration = math.inf if ctrl is None else ctrl.t_duration
                greens[i] = None if t_duration == math.inf else _ticks_to(t_duration, tick)
        elif due is None:
            return
        else:  # an entry is stale once a later event booked another check
            due = sorted({i for i in due if check_at[i] == n})
        st, net, signals = self.state, self.net, self._signals
        for i in due:
            green, sig = greens[i], signals[i]
            if green is None or sig.transition is not None:
                continue  # never due; a transition schedules a check when it ends
            if n - sig.since >= green:
                iid = ids[i]
                ctrl = controllers[iid]
                action = ctrl.decide(ctrl.observe(st, net, iid), iid)
                st.counters.decisions += 1
                self.set_phase(iid, action)
                if sig.transition is not None:
                    continue
            wait = sig.since + green - n
            check_at[i] = at = n + (wait if wait > 1 else 1)
            checks[at].append(i)

    # -- discharge ----------------------------------------------------------

    def _discharge(self) -> None:
        st = self.state
        queues, vehicles = self._lanes, st.vehicles
        live, calendar, n = self._live, self._calendar, self._ticks
        positions = _POSITIONS
        gain, full = self._gain, self._full
        for ii, (sig, by_phase, in_transition, moves) in enumerate(self._junctions):
            bits = live[ii] & (by_phase[sig.active] if sig.transition is None else in_transition)
            if not bits:
                continue
            ks = positions.get(bits)
            if ks is None:
                ks = positions[bits] = _bit_positions(bits)
            for k in ks:  # lowest bit first: movement order
                mv = moves[k]
                c = mv.credit + gain
                for q in mv.lanes:
                    if q:
                        break
                else:  # nothing waits: only the credit moves, and once full
                    if c >= full:  # the movement sleeps until a vehicle joins
                        c = full
                        live[ii] ^= mv.bit
                    mv.credit = c
                    continue
                road = mv.road
                while c >= full:  # serve the first entering lane whose head can go
                    for q in mv.lanes:
                        if not q:
                            continue
                        v = vehicles[q[0]]
                        pos = v.route_pos + 1
                        if v.route[pos] != road.id:
                            continue
                        if not road.sink:
                            lanes = v.plan[pos]
                            target = queues[lanes[0]] if len(lanes) == 1 else self._pick_lane(lanes)
                            if len(target) >= road.capacity:
                                continue
                        break
                    else:  # no head can go
                        if mv.solo:
                            # nor can one until a stop-line lane of its
                            # receiving road pops or a vehicle joins an
                            # empty entering lane
                            road.waiting.append((ii, mv.bit))
                            live[ii] ^= mv.bit
                        break
                    q.popleft()
                    st.total_queued -= 1
                    v.route_pos = pos
                    dq = road.transit
                    if not dq:  # this tick's transit pass has run: at least the next
                        calendar[n + (road.hop or 1)].append(road)
                    dq.append((n, v.id))
                    # wake what waits on a pop from this road
                    source = mv.source
                    w = source.waiting
                    if w:
                        for at, bit in w:
                            live[at] |= bit
                        w.clear()
                    if source.held:  # visit it next tick
                        source.held = False
                        calendar[n + 1].append(source)
                    c -= full
                mv.credit = c if c < full else full

    # -- inspection ---------------------------------------------------------

    def conservation_terms(self) -> dict[str, int]:
        st = self.state
        return {
            "spawned": st.counters.spawned,
            "finished": st.counters.finished,
            "in_transit": st.in_transit_count(),
            "queued": st.total_queued,
            "blocked": st.counters.blocked,
        }

    def state_digest(self) -> str:
        """Hash of the full dynamic state; equal digests mean equal runs.

        It hashes what the state implies as well: a vehicle in transit by its
        arrival time, the tick it entered its road on plus the road's travel
        time; a transition by its stage, yellow until the all-red's ticks
        are left; a credit as a fraction of a vehicle; and each vehicle's
        status."""
        st, tick, n = self.state, self.config.tick, self._ticks
        red = self._transition - _ticks_to(self.config.yellow, tick)  # ticks of all-red

        def signal(s: SignalState) -> list:
            tr = s.transition
            if tr is None:
                return [s.active, round((n - s.since) * tick, 9), None, None, None]
            left = tr.ends - n  # ticks of yellow and all-red
            yellow = left > red
            return [
                s.active,
                # a transition freezes the green's age at its start
                round((tr.ends - self._transition - s.since) * tick, 9),
                "yellow" if yellow else "all_red",
                round((left - red if yellow else left) * tick, 9),
                tr.next_phase,
            ]

        queued = {vid for q in st.queues.values() for vid in q}
        doc = {
            "clock": round(st.clock, 9),
            "queues": {l: list(q) for l, q in sorted(st.queues.items())},
            "transit": {
                r: [[round(entered * tick + self.net.road_index[r].travel_time, 9), v]
                    for entered, v in dq]
                for r, dq in sorted(st.transit.items())
            },
            "signals": {i: signal(s) for i, s in sorted(st.signals.items())},
            "credit": dict(sorted(
                (mv.id, round(mv.credit / self._full, 9))
                for *_, moves in self._junctions for mv in moves
            )),
            "vehicles": [
                [v.id, v.route_pos,
                 "finished" if v.exit_time is not None
                 else "queued" if v.id in queued else "in_transit"]
                for v in st.vehicles.values()
            ],
            "counters": [
                st.counters.spawned,
                st.counters.blocked,
                st.counters.finished,
                st.counters.decisions,
                st.max_total_queue,
            ],
        }
        payload = json.dumps(doc, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Flow validation and serialization


def _timing_problems(f: FlowSpec) -> list[str]:
    problems = []
    if not 0 < f.headway_s < math.inf:  # NaN fails it too
        problems.append("headway_s must be positive and finite")
    if not (math.isfinite(f.start_s) and math.isfinite(f.end_s)):
        problems.append("start_s and end_s must be finite")
    elif f.start_s < 0:
        problems.append("start_s before 0 s")
    elif f.end_s < f.start_s:
        problems.append("end_s before start_s")
    return problems


def validate_flows(net: RoadNetwork, flows: list[FlowSpec]) -> list[str]:
    problems = []
    for i, f in enumerate(flows):
        tag = f"flow[{i}]"
        if len(f.route) < 2:
            problems.append(f"{tag}: route needs at least 2 roads")
            continue
        missing = [r for r in f.route if r not in net.road_index]
        if missing:
            problems.append(f"{tag}: unknown roads {missing}")
            continue
        first, last = net.road_index[f.route[0]], net.road_index[f.route[-1]]
        if not net.is_boundary(first.src):
            problems.append(f"{tag}: route must start at a boundary entry road")
        if not net.is_boundary(last.dst):
            problems.append(f"{tag}: route must end at a boundary exit road")
        for a, b in zip(f.route, f.route[1:]):
            if net.road_index[a].dst != net.road_index[b].src:
                problems.append(f"{tag}: {a} does not connect to {b}")
            elif (a, b) not in net.turn_between:
                problems.append(f"{tag}: no movement links {a} to {b}")
        problems += [f"{tag}: {p}" for p in _timing_problems(f)]
    return problems


def flows_to_list(flows: list[FlowSpec]) -> list[dict]:
    return [
        {
            "route": list(f.route),
            "start_s": f.start_s,
            "end_s": f.end_s,
            "headway_s": f.headway_s,
        }
        for f in flows
    ]


@parser
def flows_from_list(doc: object) -> list[FlowSpec]:
    """Flow records; bad release times fail here, routes when a simulation
    checks them against its network."""
    if isinstance(doc, dict):
        doc = doc["flows"]
    if not isinstance(doc, list):
        raise ConfigurationError("flow file must hold a list of flow records")
    flows = [
        FlowSpec(
            route=tuple(rec["route"]),
            start_s=float(rec["start_s"]),
            end_s=float(rec["end_s"]),
            headway_s=float(rec["headway_s"]),
        )
        for rec in doc
    ]
    problems = [f"flow[{i}]: {p}" for i, f in enumerate(flows) for p in _timing_problems(f)]
    if problems:
        raise ConfigurationError("; ".join(problems))
    return flows


def save_flows(flows: list[FlowSpec], path: str | Path) -> None:
    Path(path).write_text(json.dumps(flows_to_list(flows), indent=1))


def load_flows(path: str | Path) -> list[FlowSpec]:
    return load_json(path, flows_from_list)
