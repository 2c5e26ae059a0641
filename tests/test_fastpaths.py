"""The engine's precomputed paths against the readable reference.

``phase_scores``, ``extract_state`` and ``reward`` must return exactly
(``==``, not approximately) what the reference functions compute, and the
engine's release calendar must release exactly on the ticks a walk over
the ticks finds for each requested release time.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressim.bench import Asymmetric, generate_synthetic_demand
from pressim.control import make_controllers
from pressim.network import PhaseScheme, build_grid, network_from_dict, network_to_dict
from pressim.pressure import RewardKind, StateKind, extract_state, phase_scores, reward
from pressim.sim import (
    ConfigurationError,
    FlowSpec,
    SimConfig,
    SimState,
    Simulation,
)
from test_acceptance import _fork
from reference import (
    etm_efficient_pressure,
    intersection_pressure,
    movement_queue_pressure,
    pressure_report,
    queue_vehicles,
    signalized_movements,
)



def _loaded_grid():
    """A 3-lane 3x3 grid whose westbound-entering through movements at n1_1
    and n1_2 enter from two lanes (the right-turn lane is designated for
    through as well) and exit to two of the receiving road's three lanes:
    multi-lane entering, paired and readable sets, and at n1_2, whose
    receiving road drains to a boundary, two exiting lanes and none read."""
    doc = network_to_dict(build_grid(3, 3, 300.0, 300.0))
    for west, inter in (("n1_0", "n1_1"), ("n1_1", "n1_2")):
        road = f"{west}__{inter}"
        next(r for r in doc["roads"] if r["id"] == road)["lanes"][2]["designation"] = [
            "right",
            "through",
        ]
        idoc = next(i for i in doc["intersections"] if i["id"] == inter)
        through = next(m for m in idoc["movements"] if m["id"] == f"{inter}:WT")
        through["entering"] = [f"{road}#1", f"{road}#2"]
        through["exiting"] = through["exiting"][:2]
    return network_from_dict(doc)


_GRIDS = {
    (lanes, scheme): build_grid(3, 3, 300.0, 300.0, scheme, lanes_per_approach=lanes)
    for lanes in (1, 3)
    for scheme in (PhaseScheme.FOUR, PhaseScheme.EIGHT)
}
_GRIDS["loaded", PhaseScheme.FOUR] = _loaded_grid()


def _state(net, counts) -> SimState:
    state = SimState.for_network(net)
    for l, n in zip(sorted(net.lane_index), counts):
        queue_vehicles(state, net, l, n)
    return state


@settings(max_examples=40, deadline=None)
@given(data=st.data(), grid=st.sampled_from(sorted(_GRIDS, key=str)))
def test_phase_scores_equal_pressure_report(data, grid):
    """And the learner's pressure features and rewards equal theirs."""
    # a 3x3 grid has one intersection whose receiving roads are all interior
    # and eight whose receiving roads partly drain to a boundary
    net = _GRIDS[grid]
    counts = data.draw(
        st.lists(st.integers(0, 40), min_size=len(net.lane_index), max_size=len(net.lane_index))
    )
    _assert_reads_equal_the_reference(_state(net, counts), net)


def _assert_reads_equal_the_reference(state, net):
    for inter in net.intersections:
        report = pressure_report(state, net, inter.id)
        assert phase_scores(state, net, inter.id) == report.phase_pressures
        assert phase_scores(state, net, inter.id, efficient=True) == (
            report.phase_efficient_pressures
        )
        movements = signalized_movements(inter)
        pq = extract_state(state, net, inter.id, StateKind.PRESSURE_QUEUE)
        assert list(pq[: len(movements)]) == [
            movement_queue_pressure(state, net, m) for m in movements
        ]
        ep = extract_state(state, net, inter.id, StateKind.EFFICIENT_PRESSURE)
        assert list(ep[: len(movements)]) == [
            etm_efficient_pressure(state, net, m) for m in movements
        ]
        assert reward(state, net, inter.id, RewardKind.NEG_INTERSECTION_PRESSURE) == (
            -abs(intersection_pressure(state, net, inter.id))
        )
        assert reward(state, net, inter.id, RewardKind.NEG_QUEUE_LENGTH) == -sum(
            len(state.queues[l]) for l in inter.entering_lanes
        )


def test_a_fork_reads_its_own_queues():
    """A fork of a mid-episode efficient-mp run, set apart from the
    original by one phase request: after both step on, each side's
    pressure reads equal the reference over its own queues."""
    net = _GRIDS["loaded", PhaseScheme.FOUR]
    flows = generate_synthetic_demand(net, Asymmetric(0.3, 0.15), 0, 600.0)
    sim = Simulation(net, flows, SimConfig(lane_capacity=6, episode_length=600.0))
    controllers = make_controllers(net, "efficient-mp")
    for _ in range(200):
        sim.step(controllers)
    fork = _fork(sim)
    iid, sig = next((i, s) for i, s in fork.state.signals.items() if s.transition is None)
    fork.set_phase(iid, (sig.active + 1) % 4)
    for _ in range(30):
        sim.step(controllers)
        fork.step(controllers)
    assert sim.state.queues != fork.state.queues
    for side in (sim, fork):
        _assert_reads_equal_the_reference(side.state, net)


def test_loaded_grid_has_multi_lane_sets():
    lanes = _GRIDS["loaded", PhaseScheme.FOUR].lane_table
    for inter, readable in (("n1_1", 2), ("n1_2", 0)):
        through = next(m for m in lanes[inter].signalized if m.id == f"{inter}:WT")
        assert len(through.entering) == 2 and through.n_exiting == 2
        assert len(through.readable) == readable
        assert through.entering in lanes[inter].lane_groups


def test_scores_follow_the_network_passed_in():
    """Networks of four and of eight phases, built, scored and collected in
    turn, so that a new network's lane table reuses the ids of a collected
    one's: the scores always come from the network passed in."""
    rng = random.Random(0)
    for _ in range(8):
        for scheme in (PhaseScheme.FOUR, PhaseScheme.EIGHT):
            net = build_grid(2, 2, 300.0, 300.0, scheme)
            state = _state(net, [rng.randrange(30) for _ in net.lane_index])
            for inter in net.intersections:
                report = pressure_report(state, net, inter.id)
                assert phase_scores(state, net, inter.id) == report.phase_pressures
                assert phase_scores(state, net, inter.id, efficient=True) == (
                    report.phase_efficient_pressures
                )
            del net, state, report
            gc.collect()


def test_phase_scores_rejects_unknown_intersection():
    net = _GRIDS[(3, PhaseScheme.FOUR)]
    with pytest.raises(ConfigurationError):
        phase_scores(_state(net, []), net, "nowhere")


def _reference_releases(flows, tick, ticks):
    """Per tick, the flows releasing on it: each requested time
    start_s + k * headway_s up to end_s goes out on the first tick at or
    after it (tick 1 for one at 0 s), found by walking the
    ticks; flow order, then order of k, within a tick."""
    due = [[] for _ in range(ticks)]
    for fi, flow in enumerate(flows):
        k, n = 0, 1
        while flow.start_s + k * flow.headway_s <= flow.end_s + 1e-9:
            while n * tick < flow.start_s + k * flow.headway_s - 1e-9:
                n += 1
            if n <= ticks:
                due[n - 1].append(fi)
            k += 1
    return [tuple(d) for d in due]


_times = st.one_of(
    st.integers(0, 3000).map(lambda c: c / 100),
    st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
)
_headways = st.one_of(
    st.integers(1, 12).map(float),
    st.integers(10, 700).map(lambda c: c / 100),
    st.floats(0.05, 9.0, allow_nan=False, allow_infinity=False),
)
_ONE_BY_ONE = build_grid(1, 1, 400.0, 400.0)
# the twelve routes across a 1x1 grid, one per flow, so a vehicle names its flow
_ROUTES = [
    (entry, exit_)
    for entry in sorted(r.id for r in _ONE_BY_ONE.entry_roads())
    for (a, exit_) in sorted(_ONE_BY_ONE.turn_between)
    if a == entry
]
_flows = st.lists(
    st.tuples(_times, _times, _headways), min_size=1, max_size=8
).map(
    lambda specs: [
        FlowSpec(route, start, start + span, headway)
        for route, (start, span, headway) in zip(_ROUTES, specs)
    ]
)


def _released(sim, ticks):
    """Step ``sim`` ``ticks`` times; per tick, the flows of the vehicles
    released on it, in vehicle id order."""
    flow_of = {f.route: fi for fi, f in enumerate(sim.flows)}
    out = []
    for _ in range(ticks):
        first, spawned = sim._next_vehicle_id, sim.state.counters.spawned
        sim.step({})
        vehicles = sim.state.vehicles
        out.append(tuple(flow_of[vehicles[v].route] for v in range(first, sim._next_vehicle_id)))
        assert sim.state.counters.spawned - spawned == len(out[-1])  # none blocked
    return out


@settings(max_examples=60, deadline=None)
@given(flows=_flows, tick=st.sampled_from([1.0, 0.1]), split=st.integers(1, 400))
def test_release_schedule_matches_per_tick_predicate(flows, tick, split):
    """The release calendar against the walk over the ticks, also in a
    fork's copy of it."""
    ticks = round(40.0 / tick)
    reference = _reference_releases(flows, tick, ticks)
    config = SimConfig(tick=tick, episode_length=40.0, lane_capacity=10**6)
    assert _released(Simulation(_ONE_BY_ONE, flows, config), ticks) == reference
    split = min(split, ticks - 1)
    sim = Simulation(_ONE_BY_ONE, flows, config)
    first = _released(sim, split)
    assert first + _released(_fork(sim), ticks - split) == reference


def test_release_schedule_grows_past_the_episode():
    net = build_grid(1, 1, 400.0, 400.0)
    route = ("boundary:W0__n0_0", "n0_0__boundary:E0")
    flows = [FlowSpec(route, 0.7, 60.0, 2.3), FlowSpec(route, 3.0, 45.0, 4.0)]
    config = SimConfig(tick=0.1, episode_length=1.5)
    sim = Simulation(net, flows, config)
    for _ in range(650):
        sim.step({})
    expected = sum(len(due) for due in _reference_releases(flows, 0.1, 650))
    assert sim.state.counters.spawned == expected > 0
