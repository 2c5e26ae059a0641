"""Traffic-state representations and pressure computations.

Pressure of a traffic movement is the queue difference between its entering
lane and the paired downstream lane; phase pressure sums the pressures of
the phase's two movements. Efficient pressure replaces the lane-to-lane
difference with a difference of averages: mean queue over the movement's
entering lanes minus mean queue over all lanes of the receiving road, which
absorbs mid-intersection lane changes into one number per movement.

Downstream queues are read at the receiving road's stop line, the queue a
crossing vehicle actually joins; roads draining to a boundary read 0.

Everything here is a pure function over a state snapshot and is safe to
evaluate concurrently across intersections. The per-movement functions are
the readable reference, which only tests call. ``phase_scores``, which
controllers poll, and ``extract_state`` and ``reward``, which the learner
reads, run over the network's ``lane_table`` and return the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import fmean
from typing import Sequence

import numpy as np

from pressim.network import (
    Intersection,
    IntersectionLanes,
    Phase,
    RoadNetwork,
    TrafficMovement,
)
from pressim.sim import ConfigurationError, SimState, pick_lane


class StateKind(Enum):
    """The four observation styles a learning controller can be fed."""

    NV = "nv"
    PRESSURE_NV = "pressure-nv"
    PRESSURE_QUEUE = "pressure-queue"
    EFFICIENT_PRESSURE = "ep"


class RewardKind(Enum):
    NEG_INTERSECTION_PRESSURE = "pressure"
    NEG_QUEUE_LENGTH = "queue"


# -- scalar building blocks -------------------------------------------------


def movement_pressure(x_l: int, x_m: int) -> int:
    """Queue difference between an entering lane and its exiting lane."""
    return x_l - x_m


def phase_pressure(p1: int, p2: int) -> int:
    """Sum of the two movement pressures a phase serves."""
    return p1 + p2


def efficient_pressure(entering: Sequence[float], exiting: Sequence[float]) -> float:
    """Mean entering queue minus mean exiting queue for one movement."""
    if not entering or not exiting:
        raise ConfigurationError("efficient_pressure needs non-empty lane sets")
    return fmean(entering) - fmean(exiting)


# -- reading queues from a state snapshot -----------------------------------


def downstream_queue(state: SimState, net: RoadNetwork, lane_id: str) -> int:
    """Queue a vehicle leaving onto this lane would find; 0 past a boundary."""
    road, _ = net.lane_index[lane_id]
    return 0 if net.is_boundary(road.dst) else len(state.queues[lane_id])


def _require_intersection(net: RoadNetwork, intersection: str) -> Intersection:
    try:
        return net.intersection_index[intersection]
    except KeyError:
        raise ConfigurationError(f"unknown intersection {intersection!r}") from None


def intersection_pressure(state: SimState, net: RoadNetwork, intersection: str) -> int:
    """Total entering queue minus total downstream queue at one junction."""
    inter = _require_intersection(net, intersection)
    entering = sum(len(state.queues[l]) for l in inter.entering_lanes)
    exiting = sum(downstream_queue(state, net, l) for l in inter.exiting_lanes)
    return entering - exiting


@dataclass(frozen=True)
class LaneStats:
    lane: str
    queue: int
    vehicles: int  # queued plus in-transit vehicles headed for this lane


def lane_stats(state: SimState, net: RoadNetwork, road_id: str) -> list[LaneStats]:
    """Per-lane occupancy on one road.

    In-transit vehicles are attributed to the lane they would join if they
    all arrived now, in travel order: the least-occupied of the lanes its hop
    plan designates for its next turn, ties to the first. Vehicles on a road
    that drains to a boundary never join a lane and are not attributed.
    """
    road = net.road_index[road_id]
    queue = {l.id: len(state.queues[l.id]) for l in road.lanes}
    extra = {l.id: 0 for l in road.lanes}
    if not net.terminal(road_id):
        virtual = dict(queue)
        for _, vid in state.transit[road_id]:
            v = state.vehicles[vid]
            pick = pick_lane(v.plan[v.route_pos], virtual.__getitem__)
            virtual[pick] += 1
            extra[pick] += 1
    return [
        LaneStats(lane=l.id, queue=queue[l.id], vehicles=queue[l.id] + extra[l.id])
        for l in road.lanes
    ]


def _paired_exit_lane(net: RoadNetwork, m: TrafficMovement, entering_lane: str) -> str:
    """Exit lane paired with an entering lane: same index on the receiving
    road, clamped to its lane count."""
    index = net.lane_index[entering_lane][1].index
    receiving = net.lane_index[m.exiting[0]][0]
    return receiving.lanes[min(index, len(receiving.lanes) - 1)].id


def movement_queue_pressure(state: SimState, net: RoadNetwork, m: TrafficMovement) -> int:
    return sum(
        movement_pressure(
            len(state.queues[l]),
            downstream_queue(state, net, _paired_exit_lane(net, m, l)),
        )
        for l in m.entering
    )


def etm_efficient_pressure(state: SimState, net: RoadNetwork, m: TrafficMovement) -> float:
    entering = [len(state.queues[l]) for l in m.entering]
    exiting = [downstream_queue(state, net, l) for l in m.exiting]
    return efficient_pressure(entering, exiting)


def phase_efficient_pressure(state: SimState, net: RoadNetwork, phase: Phase) -> float:
    a, b = (net.movement_index[mid] for mid in phase.movements)
    return etm_efficient_pressure(state, net, a) + etm_efficient_pressure(state, net, b)


# -- per-intersection report for pressure-driven controllers ----------------


@dataclass(frozen=True)
class PressureReport:
    intersection: str
    current_phase: int
    movement_pressures: dict[str, int]  # every movement, by id
    etm_pressures: dict[str, float]  # signalized movements only
    phase_pressures: tuple[int, ...]
    phase_efficient_pressures: tuple[float, ...]
    intersection_pressure: int


def pressure_report(state: SimState, net: RoadNetwork, intersection: str) -> PressureReport:
    inter = _require_intersection(net, intersection)
    mp = {m.id: movement_queue_pressure(state, net, m) for m in inter.movements}
    ep = {
        m.id: etm_efficient_pressure(state, net, m)
        for m in inter.signalized_movements
    }
    return PressureReport(
        intersection=intersection,
        current_phase=state.signals[intersection].active,
        movement_pressures=mp,
        etm_pressures=ep,
        phase_pressures=tuple(
            phase_pressure(mp[p.movements[0]], mp[p.movements[1]])
            for p in inter.phases
        ),
        phase_efficient_pressures=tuple(
            ep[p.movements[0]] + ep[p.movements[1]] for p in inter.phases
        ),
        intersection_pressure=intersection_pressure(state, net, intersection),
    )


# -- the fast path, over the network's lane table ---------------------------


def _lanes(net: RoadNetwork, intersection: str) -> IntersectionLanes:
    table = net.lane_table
    try:
        return table[intersection]
    except KeyError:
        raise ConfigurationError(f"unknown intersection {intersection!r}") from None


def _movement_scores(state: SimState, lanes: IntersectionLanes, efficient: bool) -> list:
    """``movement_queue_pressure``, or ``etm_efficient_pressure`` with
    ``efficient``, per signalized movement. Each distinct lane set's queue
    total is taken once; an efficient pressure is summed as the reference
    sums it: ``sum / n`` of integer queues equals their ``fmean``."""
    queues = state.queues
    total = [len(queues[l]) for l in lanes.single_lanes]
    queue = queues.__getitem__
    total += [sum(map(len, map(queue, g))) for g in lanes.lane_groups]
    if efficient:
        return [total[e] / ne - total[x] / nx for e, x, ne, nx in lanes.ep_reads]
    return [total[e] - total[p] for e, p in lanes.mp_reads]


def phase_scores(
    state: SimState, net: RoadNetwork, intersection: str, efficient: bool = False
) -> tuple:
    """Per-phase pressures, or efficient pressures with ``efficient``.

    Equal, value for value, to ``pressure_report``'s ``phase_pressures`` and
    ``phase_efficient_pressures``: movement a plus movement b.
    """
    lanes = _lanes(net, intersection)
    score = _movement_scores(state, lanes, efficient)
    return tuple(score[a] + score[b] for a, b in lanes.phases)


REPORT_HEADER = ("tick", "intersection", "phase", "p_s", "ep_s", "P_i")


def report_rows(report: PressureReport, tick: float) -> list[tuple]:
    """One row per phase for the harness CSVs."""
    return [
        (
            tick,
            report.intersection,
            phase,
            report.phase_pressures[phase],
            round(report.phase_efficient_pressures[phase], 6),
            report.intersection_pressure,
        )
        for phase in range(len(report.phase_pressures))
    ]


# -- observation vectors for learning controllers ---------------------------


def extract_state(
    state: SimState, net: RoadNetwork, intersection: str, kind: StateKind
) -> np.ndarray:
    """Observation for one intersection as one float64 vector: a feature per
    signalized movement, in movement order, then the current-phase one-hot."""
    if not isinstance(kind, StateKind):
        raise ConfigurationError(f"unknown state kind {kind!r}")
    lanes = _lanes(net, intersection)
    movements = lanes.signalized
    if kind is StateKind.PRESSURE_QUEUE or kind is StateKind.EFFICIENT_PRESSURE:
        features = _movement_scores(state, lanes, kind is StateKind.EFFICIENT_PRESSURE)
    else:  # vehicle counts: queued plus in transit, from each road's lane_stats
        downstream = kind is StateKind.PRESSURE_NV
        roads = {net.lane_index[l][0].id for m in movements for l in m.entering}
        if downstream:  # paired lanes, when there are any, are on the receiving road
            roads.update(m.receiving_road for m in movements if m.paired)
        vehicles: dict[str, int] = {}
        for road in roads:
            vehicles.update((s.lane, s.vehicles) for s in lane_stats(state, net, road))
        count = vehicles.__getitem__
        features = [
            sum(map(count, m.entering)) - (sum(map(count, m.paired)) if downstream else 0)
            for m in movements
        ]
    obs = np.zeros(len(movements) + len(lanes.phases))
    obs[: len(movements)] = features
    obs[len(movements) + state.signals[intersection].active] = 1.0
    return obs


def reward(
    state: SimState, net: RoadNetwork, intersection: str, kind: RewardKind
) -> float:
    """Negated magnitude of the intersection pressure, or the negated total
    entering queue."""
    if not isinstance(kind, RewardKind):
        raise ConfigurationError(f"unknown reward kind {kind!r}")
    lanes = _lanes(net, intersection)
    queue = state.queues.__getitem__
    entering = sum(map(len, map(queue, lanes.entering)))
    if kind is RewardKind.NEG_QUEUE_LENGTH:
        return -float(entering)
    return -abs(entering - sum(map(len, map(queue, lanes.exiting))))
