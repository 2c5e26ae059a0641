from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressim.bench import Uniform, generate_synthetic_demand
from pressim.control import make_controllers
from pressim.network import RoadNetwork, TrafficMovement, build_grid
from pressim.pressure import (
    LaneStats,
    RewardKind,
    StateKind,
    extract_state,
    lane_stats,
    reward,
)
from pressim.sim import ConfigurationError, SimConfig, SimState, Simulation, Vehicle
from reference import (
    downstream_queue,
    efficient_pressure,
    etm_efficient_pressure,
    intersection_pressure,
    movement_index,
    movement_pressure,
    phase_efficient_pressure,
    phase_pressure,
    pressure_report,
    signalized_movements,
)


def make_state(net: RoadNetwork, queues: dict[str, int] | None = None) -> SimState:
    st = SimState.for_network(net)
    vid = 0
    for lane, n in (queues or {}).items():
        for _ in range(n):
            st.vehicles[vid] = v = Vehicle(id=vid, route=(), route_pos=0, entry_time=0.0)
            st.queues[lane].append(v)
            vid += 1
    return st


def split(obs, net: RoadNetwork, intersection: str) -> tuple[tuple, tuple]:
    """An observation's movement features and its phase one-hot."""
    n_phases = len(net.intersection_index[intersection].phases)
    return tuple(obs[:-n_phases]), tuple(obs[-n_phases:])


def add_transit(st: SimState, net: RoadNetwork, road_id: str, next_road: str) -> None:
    """An in-transit vehicle with the hop plan a simulation gives it."""
    vid = max(st.vehicles, default=-1) + 1
    entering = next(
        m.entering
        for table in net.lane_table.values()
        for m in table.movements
        if (m.source_road, m.receiving_road) == (road_id, next_road)
    )
    lanes = tuple(map(list(net.lane_index).index, entering))  # positions, as in a plan
    st.vehicles[vid] = v = Vehicle(
        id=vid, route=(road_id, next_road), route_pos=0, entry_time=0.0, plan=(lanes, None)
    )
    st.transit[road_id].append(v)


def test_movement_pressure_examples():
    assert movement_pressure(4, 1) == 3
    assert movement_pressure(3, 5) == -2
    assert movement_pressure(0, 0) == 0


def test_phase_pressure_examples():
    assert phase_pressure(3, -2) == 1
    assert phase_pressure(0, 0) == 0
    assert phase_pressure(-1, -4) == -5


def test_efficient_pressure_examples():
    assert efficient_pressure([4], [1, 2, 0]) == pytest.approx(3.0)
    assert efficient_pressure([2, 2], [2, 2, 2]) == pytest.approx(0.0)
    # single lane each side collapses to the plain queue difference
    assert efficient_pressure([7], [3]) == movement_pressure(7, 3)


def test_efficient_pressure_rejects_empty_sides():
    with pytest.raises(ConfigurationError):
        efficient_pressure([], [1])
    with pytest.raises(ConfigurationError):
        efficient_pressure([1], [])


def test_intersection_pressure_empty_network_is_zero():
    net = build_grid(1, 1, 400.0, 400.0)
    assert intersection_pressure(make_state(net), net, "n0_0") == 0


def test_intersection_pressure_sinks_read_zero():
    net = build_grid(1, 1, 400.0, 400.0)
    st = make_state(
        net,
        {"boundary:N0__n0_0#1": 2, "boundary:W0__n0_0#1": 3},
    )
    # every exit road drains to a boundary: downstream side contributes 0
    assert intersection_pressure(st, net, "n0_0") == 5


def test_intersection_pressure_counts_downstream_queue():
    net = build_grid(1, 2, 400.0, 400.0)
    st = make_state(
        net,
        {
            "boundary:W0__n0_0#1": 4,  # entering n0_0
            "n0_0__n0_1#1": 1,  # queue at n0_1: downstream read for n0_0's exit
        },
    )
    assert intersection_pressure(st, net, "n0_0") == 4 - 1


def oracle_intersection_pressure(st: SimState, net: RoadNetwork, iid: str) -> int:
    """Independent per-vehicle recount of the entering/exiting balance."""
    inter = net.intersection_index[iid]
    total = 0
    for lane, q in st.queues.items():
        for _ in q:
            if lane in inter.entering_lanes:
                total += 1
    for lane in inter.exiting_lanes:
        if not net.terminal(net.lane_index[lane][0].id):
            total -= len(st.queues[lane])
    return total


def oracle_movement_queue_pressure(
    st: SimState, net: RoadNetwork, m: TrafficMovement
) -> int:
    total = 0
    receiving = net.lane_index[m.exiting[0]][0]
    for lane_id in m.entering:
        idx = net.lane_index[lane_id][1].index
        paired = receiving.lanes[min(idx, len(receiving.lanes) - 1)].id
        down = 0 if net.terminal(receiving.id) else len(st.queues[paired])
        total += len(st.queues[lane_id]) - down
    return total


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pressures_match_brute_force_oracles(data):
    net = build_grid(2, 2, 300.0, 300.0)
    lanes = sorted(net.lane_index)
    counts = data.draw(
        st.lists(st.integers(0, 6), min_size=len(lanes), max_size=len(lanes))
    )
    stt = make_state(net, dict(zip(lanes, counts)))
    for inter in net.intersections:
        assert intersection_pressure(stt, net, inter.id) == oracle_intersection_pressure(
            stt, net, inter.id
        )
        rep = pressure_report(stt, net, inter.id)
        for m in inter.movements:
            assert rep.movement_pressures[m.id] == oracle_movement_queue_pressure(
                stt, net, m
            )
        for p in inter.phases:
            expected = sum(
                oracle_movement_queue_pressure(stt, net, inter.movement(mid))
                for mid in p.movements
            )
            assert rep.phase_pressures[p.id] == expected


def test_phase_efficient_pressure_composed_example():
    # middle junction of a 3-tall column so both receiving roads are interior
    net = build_grid(3, 1, 400.0, 800.0)
    inter = net.intersection_index["n1_0"]
    nt = inter.movement("n1_0:NT")
    stq = {
        "boundary:N0__n0_0#1": 0,
        nt.entering[0]: 4,
        "n1_0__n2_0#0": 1,
        "n1_0__n2_0#1": 2,
        "n1_0__n2_0#2": 0,
        inter.movement("n1_0:ST").entering[0]: 3,
        "n1_0__n0_0#0": 5,
        "n1_0__n0_0#1": 5,
        "n1_0__n0_0#2": 5,
    }
    stt = make_state(net, stq)
    assert etm_efficient_pressure(stt, net, nt) == pytest.approx(3.0)
    assert etm_efficient_pressure(stt, net, inter.movement("n1_0:ST")) == pytest.approx(-2.0)
    assert phase_efficient_pressure(stt, net, inter.phases[0]) == pytest.approx(1.0)


def test_phase_efficient_pressure_uniform_queues_is_zero():
    net = build_grid(2, 2, 300.0, 300.0)
    stt = make_state(net, {l: 3 for l in net.lane_index})
    inter = net.intersection_index["n0_0"]
    for phase in inter.phases:
        # both receiving roads interior for inner movements only; uniform
        # queues still cancel exactly when entering and exiting reads match
        movements = [movement_index(net)[mid] for mid in phase.movements]
        if all(not net.terminal(net.lane_index[m.exiting[0]][0].id) for m in movements):
            assert phase_efficient_pressure(stt, net, phase) == pytest.approx(0.0)


def test_lane_stats_attribution():
    net = build_grid(1, 1, 400.0, 400.0)
    road = "boundary:N0__n0_0"
    stt = make_state(net, {f"{road}#1": 2})
    add_transit(stt, net, road, "n0_0__boundary:S0")  # a through vehicle
    stats = {s.lane: s for s in lane_stats(stt, net, road)}
    assert stats[f"{road}#1"] == LaneStats(f"{road}#1", queue=2, vehicles=3)
    assert stats[f"{road}#0"].vehicles == 0
    for s in stats.values():
        assert 0 <= s.queue <= s.vehicles


def test_lane_stats_terminal_road_attributes_nothing():
    net = build_grid(1, 1, 400.0, 400.0)
    stt = make_state(net)
    stt.vehicles[0] = v = Vehicle(0, ("n0_0__boundary:S0",), 0, 0.0)
    stt.transit["n0_0__boundary:S0"].append(v)
    for s in lane_stats(stt, net, "n0_0__boundary:S0"):
        assert s.vehicles == s.queue == 0


def test_extract_state_shapes_and_onehot():
    net = build_grid(1, 1, 400.0, 400.0)
    stt = make_state(net)
    stt.signals["n0_0"].active = 2
    for kind in StateKind:
        obs = extract_state(stt, net, "n0_0", kind)
        features, onehot = split(obs, net, "n0_0")
        assert len(features) == 8
        assert onehot == (0.0, 0.0, 1.0, 0.0)
        assert features == (0.0,) * 8
        assert obs.shape == (12,)


def test_extract_state_nv_counts_queued_plus_in_transit():
    net = build_grid(1, 1, 400.0, 400.0)
    road = "boundary:N0__n0_0"
    stt = make_state(net, {f"{road}#1": 2})
    add_transit(stt, net, road, "n0_0__boundary:S0")
    features, _ = split(extract_state(stt, net, "n0_0", StateKind.NV), net, "n0_0")
    inter = net.intersection_index["n0_0"]
    order = [m.id for m in signalized_movements(inter)]
    assert features[order.index("n0_0:NT")] == 3.0


def test_extract_state_pressure_nv_reads_downstream_vehicles():
    net = build_grid(1, 2, 400.0, 400.0)
    road_in = "boundary:W0__n0_0"
    mid_road = "n0_0__n0_1"
    stt = make_state(net, {f"{road_in}#1": 5, f"{mid_road}#1": 1})
    add_transit(stt, net, mid_road, "n0_1__boundary:E0")  # transit on receiving road
    features, _ = split(extract_state(stt, net, "n0_0", StateKind.PRESSURE_NV), net, "n0_0")
    inter = net.intersection_index["n0_0"]
    order = [m.id for m in signalized_movements(inter)]
    # 5 entering vehicles minus (1 queued + 1 in transit) downstream
    assert features[order.index("n0_0:WT")] == 3.0


def test_singleton_lane_sets_collapse_ep_to_queue_pressure():
    net = build_grid(2, 2, 300.0, 300.0, lanes_per_approach=1)
    stt = make_state(net, {l: (i * 7) % 5 for i, l in enumerate(sorted(net.lane_index))})
    for inter in net.intersections:
        pq, _ = split(extract_state(stt, net, inter.id, StateKind.PRESSURE_QUEUE), net, inter.id)
        ep, _ = split(
            extract_state(stt, net, inter.id, StateKind.EFFICIENT_PRESSURE), net, inter.id
        )
        assert pq == pytest.approx(ep)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), scale=st.integers(2, 5))
def test_uniform_scaling_scales_pressures_linearly(data, scale):
    net = build_grid(1, 2, 300.0, 300.0)
    lanes = sorted(net.lane_index)
    counts = data.draw(
        st.lists(st.integers(0, 5), min_size=len(lanes), max_size=len(lanes))
    )
    base = make_state(net, dict(zip(lanes, counts)))
    scaled = make_state(net, {l: c * scale for l, c in zip(lanes, counts)})
    for iid in ("n0_0", "n0_1"):
        r1 = pressure_report(base, net, iid)
        r2 = pressure_report(scaled, net, iid)
        for p1, p2 in zip(r1.phase_pressures, r2.phase_pressures):
            assert p2 == scale * p1
        for e1, e2 in zip(r1.phase_efficient_pressures, r2.phase_efficient_pressures):
            assert e2 == pytest.approx(scale * e1)
        assert r2.intersection_pressure == scale * r1.intersection_pressure


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ep_bounded_by_max_queue(data):
    cap = 8
    net = build_grid(1, 1, 400.0, 400.0)
    lanes = sorted(net.lane_index)
    counts = data.draw(
        st.lists(st.integers(0, cap), min_size=len(lanes), max_size=len(lanes))
    )
    stt = make_state(net, dict(zip(lanes, counts)))
    for m in signalized_movements(net.intersection_index["n0_0"]):
        assert abs(etm_efficient_pressure(stt, net, m)) <= cap


def test_reward_kinds():
    net = build_grid(1, 1, 400.0, 400.0)
    empty = make_state(net)
    assert reward(empty, net, "n0_0", RewardKind.NEG_INTERSECTION_PRESSURE) == 0.0
    assert reward(empty, net, "n0_0", RewardKind.NEG_QUEUE_LENGTH) == 0.0
    stt = make_state(
        net, {"boundary:N0__n0_0#0": 2, "boundary:E0__n0_0#1": 3}
    )
    assert reward(stt, net, "n0_0", RewardKind.NEG_QUEUE_LENGTH) == -5.0
    assert reward(stt, net, "n0_0", RewardKind.NEG_INTERSECTION_PRESSURE) == -5.0


def test_reward_uses_pressure_magnitude():
    # queues only downstream: pressure is negative, reward is its magnitude
    net = build_grid(1, 2, 400.0, 400.0)
    stt = make_state(net, {"n0_0__n0_1#1": 3})
    assert intersection_pressure(stt, net, "n0_0") == -3
    assert reward(stt, net, "n0_0", RewardKind.NEG_INTERSECTION_PRESSURE) == -3.0


def test_unknown_intersection_and_kind_raise():
    net = build_grid(1, 1, 400.0, 400.0)
    stt = make_state(net)
    with pytest.raises(ConfigurationError):
        intersection_pressure(stt, net, "nope")
    with pytest.raises(ConfigurationError):
        extract_state(stt, net, "n0_0", "not-a-kind")  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        reward(stt, net, "n0_0", "not-a-kind")  # type: ignore[arg-type]


def test_downstream_queue_identity_and_sink():
    net = build_grid(1, 2, 400.0, 400.0)
    stt = make_state(net, {"n0_0__n0_1#2": 4})
    assert downstream_queue(stt, net, "n0_0__n0_1#2") == 4
    assert downstream_queue(stt, net, "n0_0__boundary:W0#2") == 0


def test_extract_state_eight_phase_onehot_width():
    from pressim.network import PhaseScheme

    net = build_grid(1, 1, 400.0, 400.0, PhaseScheme.EIGHT)
    stt = make_state(net)
    obs = extract_state(stt, net, "n0_0", StateKind.EFFICIENT_PRESSURE)
    features, onehot = split(obs, net, "n0_0")
    assert len(onehot) == 8
    assert len(features) == 8
    assert len(obs) == 16


def observations_of_a_fixed_time_run(net: RoadNetwork) -> dict[StateKind, np.ndarray]:
    """Every state kind's observations of every intersection, sampled every
    20 s of a 600 s fixed-time run."""
    flows = generate_synthetic_demand(net, Uniform(0.1), seed=0, horizon_s=600.0)
    sim = Simulation(net, flows, SimConfig(episode_length=600.0))
    controllers = make_controllers(net, "fixedtime")
    seen: dict[StateKind, list] = {kind: [] for kind in StateKind}
    for tick in range(1, 601):
        sim.step(controllers)
        if tick % 20 == 0:
            for kind, rows in seen.items():
                rows += [extract_state(sim.state, net, i.id, kind) for i in net.intersections]
    return {kind: np.array(rows) for kind, rows in seen.items()}


def test_state_kinds_differ_pairwise_on_a_2x2_grid():
    seen = observations_of_a_fixed_time_run(build_grid(2, 2, 300.0, 300.0))
    for a, b in combinations(StateKind, 2):
        assert not np.array_equal(seen[a], seen[b]), (a, b)


def test_state_kinds_collapse_into_two_pairs_on_a_1x1_grid():
    """Every receiving road of a 1x1 grid drains to a boundary, so every
    downstream term is 0: the ablation there compares two representations."""
    seen = observations_of_a_fixed_time_run(build_grid(1, 1, 300.0, 300.0))
    np.testing.assert_array_equal(seen[StateKind.NV], seen[StateKind.PRESSURE_NV])
    np.testing.assert_array_equal(
        seen[StateKind.EFFICIENT_PRESSURE], seen[StateKind.PRESSURE_QUEUE]
    )
    assert not np.array_equal(seen[StateKind.NV], seen[StateKind.EFFICIENT_PRESSURE])
