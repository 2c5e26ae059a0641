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
evaluate concurrently across intersections. ``phase_scores``, which
controllers poll, and ``extract_state`` and ``reward``, which the learner
reads, run over the network's ``lane_table``; the tests check them against
a per-movement reference of the definitions above. They take queue lengths
from the state's ``reads``: the lane table's lane sets per intersection as
references to the state's own queues, which ``SimState.for_network``
builds with the queues, so a read looks up no lane id and caches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from pressim.network import IntersectionLanes, RoadNetwork
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


# -- reading queues from a state snapshot -----------------------------------


@dataclass(frozen=True)
class LaneStats:
    lane: str
    queue: int
    vehicles: int  # queued plus in-transit vehicles headed for this lane


def lane_stats(state: SimState, net: RoadNetwork, road_id: str) -> list[LaneStats]:
    """Per-lane occupancy on one road.

    The in-transit vehicles are the records in the road's transit deque,
    read in travel order. Each is attributed to the lane it would join if
    they all arrived now: the least-occupied of the lanes its hop plan
    designates for its next turn, ties to the first. Vehicles on a road
    that drains to a boundary never join a lane and are not attributed.
    """
    road = net.road_index[road_id]
    queue = {l.id: len(state.queues[l.id]) for l in road.lanes}
    extra = {l.id: 0 for l in road.lanes}
    transit = state.transit[road_id]
    if transit and not net.terminal(road_id):
        virtual = dict(queue)
        lane_ids = tuple(net.lane_index)  # a hop plan holds positions in this order
        for v in transit:
            pick = pick_lane([lane_ids[k] for k in v.plan[v.route_pos]], virtual.__getitem__)
            virtual[pick] += 1
            extra[pick] += 1
    return [
        LaneStats(lane=l.id, queue=queue[l.id], vehicles=queue[l.id] + extra[l.id])
        for l in road.lanes
    ]


# -- the fast path, over the network's lane table ---------------------------


def _lanes(net: RoadNetwork, intersection: str) -> IntersectionLanes:
    table = net.lane_table
    try:
        return table[intersection]
    except KeyError:
        raise ConfigurationError(f"unknown intersection {intersection!r}") from None


def _movement_scores(
    state: SimState, intersection: str, lanes: IntersectionLanes, efficient: bool
) -> list:
    """Queue pressure, or efficient pressure with ``efficient``, per
    signalized movement. Each distinct lane set's queue total is taken once,
    from the state's ``reads``; an efficient pressure is ``sum / n`` of
    integer queues, which equals the ``fmean`` that the per-movement
    reference takes."""
    singles, groups, _, _ = state.reads[intersection]
    total = list(map(len, singles))
    total += [sum(map(len, g)) for g in groups]
    if efficient:
        return [total[e] / ne - total[x] / nx for e, x, ne, nx in lanes.ep_reads]
    return [total[e] - total[p] for e, p in lanes.mp_reads]


def phase_scores(
    state: SimState, net: RoadNetwork, intersection: str, efficient: bool = False
) -> tuple:
    """Per-phase pressures, or efficient pressures with ``efficient``:
    movement a plus movement b, phase i at position i."""
    lanes = _lanes(net, intersection)
    score = _movement_scores(state, intersection, lanes, efficient)
    return tuple(score[a] + score[b] for a, b in lanes.phases)


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
        features = _movement_scores(
            state, intersection, lanes, kind is StateKind.EFFICIENT_PRESSURE
        )
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
    _lanes(net, intersection)  # raises ConfigurationError on an unknown one
    _, _, entering_lanes, exiting_lanes = state.reads[intersection]
    entering = sum(map(len, entering_lanes))
    if kind is RewardKind.NEG_QUEUE_LENGTH:
        return -float(entering)
    return -abs(entering - sum(map(len, exiting_lanes)))
