"""Readable references the engine's fast paths are checked against.

The per-movement pressure functions and the deciders that read their
report follow the paper's definitions one movement at a time: the lane
table's ``phase_scores``, ``extract_state`` and ``reward`` must return
exactly what they compute. The simulations below are the engine with a
full scan in place of a calendar or wait list. The learner's oracles close
the file: a central-difference check of ``td_gradients``, and the loader
that reads ``save_parameters``' file back into a frozen greedy policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from pressim.control import Controller, ControllerConfig, _argmax_lowest
from pressim.network import Intersection, Phase, RoadNetwork, TrafficMovement
from pressim.pressure import (
    StateKind,
    efficient_pressure,
    extract_state,
    movement_pressure,
    phase_pressure,
)
from pressim.rl import QFunction, _scope_sizes
from pressim.sim import (
    _EPS,
    ConfigurationError,
    SimState,
    Simulation,
)


def movement_index(net: RoadNetwork) -> dict[str, TrafficMovement]:
    return {m.id: m for i in net.intersections for m in i.movements}


def signalized_movements(inter: Intersection) -> tuple[TrafficMovement, ...]:
    return tuple(m for m in inter.movements if m.signalized)


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
    a, b = (movement_index(net)[mid] for mid in phase.movements)
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
        for m in signalized_movements(inter)
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


def mp_decide(report: PressureReport, phases: Sequence[Phase]) -> int:
    """Phase with maximum phase pressure."""
    values = [report.phase_pressures[p.id] for p in phases]
    return phases[_argmax_lowest(values)].id


def efficient_mp_decide(report: PressureReport, phases: Sequence[Phase]) -> int:
    """Phase with maximum phase efficient pressure."""
    values = [report.phase_efficient_pressures[p.id] for p in phases]
    return phases[_argmax_lowest(values)].id


# -- the engine with full scans ----------------------------------------------


class ScanSimulation(Simulation):
    """The engine with the per-tick scan that the decision calendar
    replaced: every tick, every intersection with a controller is checked,
    and a green is due once its ticks, in seconds, reach ``t_duration`` less
    1e-9 s."""

    def _poll(self, controllers) -> None:
        self._checks.clear()  # the calendar is unused here
        st, tick = self.state, self.config.tick
        signals, net = st.signals, self.net
        for iid in self._intersection_ids:
            ctrl = controllers.get(iid)
            if ctrl is None:
                continue
            sig = signals[iid]
            if (sig.transition is not None
                    or (self._ticks - sig.since) * tick < ctrl.t_duration - _EPS):
                continue
            obs = ctrl.observe(st, net, iid)
            action = ctrl.decide(obs, iid)
            st.counters.decisions += 1
            self.set_phase(iid, action)


class AwakeSimulation(Simulation):
    """The engine without wait lists: every served live movement is visited
    on every tick, a movement sleeps only once its entering lanes are empty
    and its credit full, every join wakes the joined road's movements, and
    a held road wakes on any pop from one of its stop-line lanes. A head is
    due once the ticks since it entered the road, in seconds, reach the
    travel time less 1e-9 s."""

    def _advance_transit(self) -> None:
        st, n, tick = self.state, self._ticks, self.config.tick
        for road in self._calendar.pop(n, ()):
            dq, travel_time = road.transit, self.net.road_index[road.id].travel_time
            while dq:
                entered = dq[0][0]
                if (n - entered) * tick < travel_time - _EPS:  # not yet due
                    due = max(n + 1, entered + int(travel_time / tick) - 1)
                    while (due - entered) * tick < travel_time - _EPS:
                        due += 1
                    self._calendar[due].append(road)
                    break
                v = st.vehicles[dq[0][1]]
                if road.sink:
                    dq.popleft()
                    v.exit_time = st.clock
                    st.counters.finished += 1
                    continue
                q = self._pick_lane(v.plan[v.route_pos])
                if len(q) >= road.capacity:
                    road.held = True
                    break
                dq.popleft()
                q.append(v.id)
                st.total_queued += 1
                self._live[road.junction] |= road.feeds

    def _discharge(self) -> None:
        st = self.state
        live, n = self._live, self._ticks
        for ii, (sig, by_phase, in_transition, moves) in enumerate(self._junctions):
            served = by_phase[sig.active] if sig.transition is None else in_transition
            for mv in moves:
                if not live[ii] & served & mv.bit:
                    continue
                c = mv.credit + self._gain
                road = mv.road
                if not any(mv.lanes):
                    mv.credit = min(c, self._full)
                    if c >= self._full:
                        live[ii] &= ~mv.bit
                    continue
                while c >= self._full:
                    for q in mv.lanes:
                        if not q:
                            continue
                        v = st.vehicles[q[0]]
                        pos = v.route_pos + 1
                        if v.route[pos] != road.id:
                            continue
                        if road.sink or len(self._pick_lane(v.plan[pos])) < road.capacity:
                            break
                    else:
                        break
                    q.popleft()
                    st.total_queued -= 1
                    v.route_pos = pos
                    if not road.transit:
                        self._calendar[n + max(1, road.hop)].append(road)
                    road.transit.append((n, v.id))
                    if mv.source.held:
                        mv.source.held = False
                        self._calendar[n + 1].append(mv.source)
                    c -= self._full
                mv.credit = min(c, self._full)


# -- the learner's oracles ---------------------------------------------------


def gradient_check(
    q: QFunction, s: np.ndarray, a: int, target: float, step: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients
    of the squared TD error, measured per parameter tensor as
    ``|analytic - numeric| / (|analytic| + |numeric|)`` in the 2-norm."""
    x = np.asarray(s, dtype=np.float64)[None, :]
    actions = np.array([a], dtype=np.intp)
    targets = np.array([target], dtype=np.float64)
    analytic = q.views(q.td_gradients(x, actions, targets).copy())

    def loss_now() -> float:
        out = q.forward(x)
        return float((out[0, a] - target) ** 2)

    worst = 0.0
    for p, g in zip(q._params(), analytic):
        numeric = np.zeros_like(g)
        flat_p = p.ravel()
        flat_n = numeric.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_now()
            flat_p[i] = orig - step
            down = loss_now()
            flat_p[i] = orig
            flat_n[i] = (up - down) / (2.0 * step)
        denom = np.linalg.norm(g) + np.linalg.norm(numeric)
        if denom > 1e-12:
            worst = max(worst, float(np.linalg.norm(g - numeric) / denom))
    return worst


def q_function_from_doc(doc: dict) -> QFunction:
    """The network ``QFunction.to_doc`` described."""
    q = QFunction(
        doc["input_size"], doc["output_size"], doc["hidden_sizes"], np.random.default_rng(0)
    )
    assert doc["shapes"] == [list(p.shape) for p in q._params()]
    for p, values in zip(q._params(), doc["values"], strict=True):
        p[...] = np.reshape(values, p.shape)
    return q


class QPolicyController(Controller):
    """Frozen greedy policy around trained parameters."""

    def __init__(
        self,
        q_functions: dict[str, QFunction],
        state_kind: StateKind,
        shared: bool,
        t_duration: float,
    ):
        super().__init__(ControllerConfig(t_duration=t_duration))
        self.q_functions = q_functions
        self.state_kind = state_kind
        self.shared = shared

    def observe(self, state: SimState, net: RoadNetwork, intersection: str):
        return extract_state(state, net, intersection, self.state_kind)

    def decide(self, observation: np.ndarray, intersection: str) -> int:
        scope = "shared" if self.shared else intersection
        return int(np.argmax(self.q_functions[scope].forward(observation)))


def load_policy(net: RoadNetwork, path: str | Path) -> QPolicyController:
    """The frozen policy ``save_parameters`` wrote; each scope's network must
    fit the observation and phase counts of the intersections it serves."""
    doc = json.loads(Path(path).read_text())
    q_functions = {s: q_function_from_doc(d) for s, d in doc["scopes"].items()}
    sizes = {s: (q.input_size, q.output_size) for s, q in q_functions.items()}
    assert sizes == _scope_sizes(net, doc["shared_parameters"])
    return QPolicyController(
        q_functions, StateKind(doc["state_kind"]), doc["shared_parameters"], doc["t_duration"]
    )
