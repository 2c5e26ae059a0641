from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressim.control import (
    ControllerConfig,
    FixedTimeController,
    PressureController,
    fixed_time_decide,
    make_controllers,
)
from pressim.network import Phase, build_grid
from pressim.sim import ConfigurationError, FlowSpec, SimConfig, SimState, Simulation
from reference import PressureReport, efficient_mp_decide, mp_decide, pressure_report


def phases(n: int) -> tuple[Phase, ...]:
    return tuple(Phase(id=i, movements=(f"m{2*i}", f"m{2*i+1}")) for i in range(n))


def report_with(p_s, ep_s=None) -> PressureReport:
    ep_s = ep_s if ep_s is not None else [float(x) for x in p_s]
    return PressureReport(
        intersection="x",
        current_phase=0,
        movement_pressures={},
        etm_pressures={},
        phase_pressures=tuple(p_s),
        phase_efficient_pressures=tuple(ep_s),
        intersection_pressure=0,
    )


def test_fixed_time_cycles_and_wraps():
    ps = phases(4)
    assert fixed_time_decide(0, ps) == 1
    assert fixed_time_decide(3, ps) == 0
    assert fixed_time_decide(0, phases(1)) == 0


def test_mp_decide_examples():
    ps = phases(4)
    assert mp_decide(report_with([1, 0, -2, 0]), ps) == 0
    assert mp_decide(report_with([3, 3, 1, 0]), ps) == 0  # tie: lowest index
    assert mp_decide(report_with([-5, -1, -9, -1]), ps) == 1  # least bad


def test_efficient_mp_decide_examples():
    ps = phases(4)
    assert efficient_mp_decide(report_with([0] * 4, [1.0, 0.5, -0.5, 0.0]), ps) == 0
    assert efficient_mp_decide(report_with([0] * 4, [2.0, 2.0, 0.0, 1.0]), ps) == 0
    # the two deciders read different report fields
    r = report_with([9, 0, 0, 0], [0.0, 0.0, 0.0, 4.0])
    assert mp_decide(r, ps) == 0
    assert efficient_mp_decide(r, ps) == 3


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([4, 8]))
def test_decides_match_enumeration_oracle(data, n):
    ps = phases(n)
    p_s = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    ep_s = data.draw(
        st.lists(
            st.floats(-20, 20, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    r = report_with(p_s, ep_s)

    def oracle(values):
        best = max(values)
        return min(i for i, v in enumerate(values) if v == best)

    assert mp_decide(r, ps) == oracle(p_s)
    assert efficient_mp_decide(r, ps) == oracle(ep_s)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), scale=st.integers(2, 6))
def test_decisions_invariant_to_uniform_queue_scaling(data, scale):
    net = build_grid(1, 2, 300.0, 300.0)
    lanes = sorted(net.lane_index)
    counts = data.draw(
        st.lists(st.integers(0, 5), min_size=len(lanes), max_size=len(lanes))
    )

    def state_for(mult: int) -> SimState:
        stt = SimState.for_network(net)
        for l, c in zip(lanes, counts):
            stt.queues[l].extend(range(c * mult))
        return stt

    for iid in ("n0_0", "n0_1"):
        inter = net.intersection_index[iid]
        r1 = pressure_report(state_for(1), net, iid)
        r2 = pressure_report(state_for(scale), net, iid)
        assert mp_decide(r1, inter.phases) == mp_decide(r2, inter.phases)
        assert efficient_mp_decide(r1, inter.phases) == efficient_mp_decide(
            r2, inter.phases
        )


def test_fixed_time_visits_all_phases_once_per_cycle():
    net = build_grid(1, 1, 400.0, 400.0)
    sim = Simulation(net, [], SimConfig(episode_length=400))
    ctrls = make_controllers(net, "fixedtime")
    seen: list[int] = []
    for _ in range(400):
        sim.step(ctrls)
        sig = sim.state.signals["n0_0"]
        if sig.transition is None and (not seen or seen[-1] != sig.active):
            seen.append(sig.active)
    # drop the initial phase, then the cycle repeats 1,2,3,0,1,2,3,0,...
    cycle = seen[1:9]
    assert cycle == [1, 2, 3, 0, 1, 2, 3, 0]


def test_mp_and_emp_identical_on_single_lane_network():
    random.seed(4)
    net = build_grid(2, 2, 300.0, 300.0, lanes_per_approach=1)
    lanes = sorted(net.lane_index)
    for _ in range(100):
        stt = SimState.for_network(net)
        for l in lanes:
            stt.queues[l].extend(range(random.randint(0, 8)))
        for inter in net.intersections:
            r = pressure_report(stt, net, inter.id)
            assert mp_decide(r, inter.phases) == efficient_mp_decide(r, inter.phases)


def test_pressure_controller_clears_standing_queue():
    # west-east traffic only: MP must find and hold the east-west phase
    net = build_grid(1, 1, 400.0, 400.0)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__boundary:E0"), 1, 600, 4),
        FlowSpec(("boundary:E0__n0_0", "n0_0__boundary:W0"), 1, 600, 4),
    ]
    for name in ("mp", "efficient-mp"):
        sim = Simulation(net, flows, SimConfig(episode_length=600))
        sim.run(make_controllers(net, name))
        assert sim.state.counters.finished > 200
        assert sim.state.max_total_queue < 30


def test_controller_config_validation():
    for bad in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            ControllerConfig(t_duration=bad)
    cfg = ControllerConfig(t_duration=10)
    assert PressureController(cfg).t_duration == 10


def test_make_controllers_shares_one_instance():
    net = build_grid(2, 2, 300.0, 300.0)
    ctrls = make_controllers(net, "mp")
    assert len(ctrls) == 4
    assert len({id(c) for c in ctrls.values()}) == 1
    with pytest.raises(ConfigurationError):
        make_controllers(net, "nope")


def test_controllers_work_at_every_intersection_of_a_grid():
    net = build_grid(2, 2, 300.0, 300.0)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0"), 1, 400, 5),
        FlowSpec(("boundary:S1__n1_1", "n1_1__n0_1", "n0_1__boundary:N1"), 1, 400, 7),
    ]
    for ctrl in (FixedTimeController(), PressureController(), PressureController(efficient=True)):
        sim = Simulation(net, flows, SimConfig(episode_length=400))
        sim.run({i.id: ctrl for i in net.intersections})
        assert sim.state.counters.decisions > 0
        assert sim.state.counters.finished > 0
