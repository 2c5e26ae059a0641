from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pressim.bench import Asymmetric, Uniform, generate_synthetic_demand
from pressim.control import ControllerConfig, PressureController, make_controllers
from pressim.network import (
    PhaseScheme,
    build_grid,
    network_from_dict,
    network_to_dict,
    validate,
)
from pressim.sim import (
    ConfigurationError,
    FlowSpec,
    SimConfig,
    Simulation,
    flows_from_list,
    load_flows,
    pick_lane,
    save_flows,
    validate_flows,
)
from reference import AwakeSimulation, ScanSimulation
from test_acceptance import _fork
from test_fastpaths import _loaded_grid, _reference_releases

WE = ("boundary:W0__n0_0", "n0_0__boundary:E0")  # west entry, through
NS = ("boundary:N0__n0_0", "n0_0__boundary:S0")  # north entry, through
WS = ("boundary:W0__n0_0", "n0_0__boundary:S0")  # west entry, right turn


def one_by_one():
    return build_grid(1, 1, 400.0, 400.0)


class ConstantPhase:
    def __init__(self, phase: int, t_duration: float = 15.0):
        self.phase = phase
        self.t_duration = t_duration

    def observe(self, state, net, intersection):
        return None

    def decide(self, observation, intersection):
        return self.phase


class RandomPhase:
    def __init__(self, n_phases: int, seed: int, t_duration: float = 15.0):
        self.rng = random.Random(seed)
        self.n_phases = n_phases
        self.t_duration = t_duration

    def observe(self, state, net, intersection):
        return None

    def decide(self, observation, intersection):
        return self.rng.randrange(self.n_phases)


def assert_conserved(sim: Simulation):
    t = sim.conservation_terms()
    assert (
        t["spawned"]
        == t["finished"] + t["in_transit"] + t["queued"] + t["blocked"]
    ), t


def test_conservation_every_tick_under_random_control():
    net = build_grid(2, 2, 300.0, 300.0)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0"), 1, 600, 4),
        FlowSpec(("boundary:N1__n0_1", "n0_1__n1_1", "n1_1__boundary:S1"), 1, 600, 6),
        FlowSpec(("boundary:S0__n1_0", "n1_0__n0_0", "n0_0__boundary:N0"), 3, 600, 5),
    ]
    sim = Simulation(net, flows, SimConfig(episode_length=600))
    ctrls = {i.id: RandomPhase(4, seed=7) for i in net.intersections}
    for _ in range(600):
        sim.step(ctrls)
        assert_conserved(sim)
    assert sim.state.counters.finished > 0


def test_spawn_schedule_and_window():
    net = one_by_one()
    flows = [FlowSpec(WE, start_s=5, end_s=25, headway_s=10)]
    sim = Simulation(net, flows, SimConfig(episode_length=60))
    sim.run({})
    # releases at 5, 15, 25 only
    assert sim.state.counters.spawned == 3
    entries = sorted(v.entry_time for v in sim.state.vehicles.values())
    assert entries == [5.0, 15.0, 25.0]


def test_vehicles_finish_on_terminal_road_without_queueing():
    net = one_by_one()
    flows = [FlowSpec(NS, start_s=1, end_s=1, headway_s=10)]
    # through from the north runs on the initial phase
    sim = Simulation(net, flows, SimConfig(episode_length=200))
    sim.run({})
    assert sim.state.counters.finished == 1
    (v,) = sim.state.vehicles.values()
    # 40 s entry road + 1 tick at the stop line + 40 s exit road
    assert v.exit_time == pytest.approx(81.0)
    assert sim.state.total_queued == 0


def test_queue_is_fifo_in_spawn_order():
    net = one_by_one()
    flows = [FlowSpec(WE, start_s=1, end_s=100, headway_s=2)]
    sim = Simulation(net, flows, SimConfig(episode_length=100))
    sim.run({})  # phase 0 holds: west-through stays red and queues
    lane = next(l for l, q in sim.state.queues.items() if q)
    ids = list(sim.state.queues[lane])
    assert ids == sorted(ids)


def test_saturation_discharge_rate():
    net = one_by_one()
    flows = [FlowSpec(NS, start_s=1, end_s=1000, headway_s=1)]
    sim = Simulation(net, flows, SimConfig(episode_length=400))
    before = None
    for _ in range(400):
        sim.step({})
        if sim.state.clock == 100.0:
            before = sim.state.counters.finished
    # one vehicle per 2 s of green through a saturated stop line
    served = sim.state.counters.finished - before
    assert served == pytest.approx(300 / 2, abs=2)


def test_transition_blocks_signalized_but_not_right_turns():
    net = one_by_one()
    flows = [
        FlowSpec(NS, start_s=1, end_s=200, headway_s=2),
        FlowSpec(WS, start_s=1, end_s=200, headway_s=2),
    ]
    # long yellow keeps the junction in transition from the first decision on
    cfg = SimConfig(episode_length=200, yellow=400.0, all_red=2.0)
    sim = Simulation(net, flows, cfg)
    ctrl = ConstantPhase(1)
    through_before = None
    for _ in range(200):
        sim.step({"n0_0": ctrl})
        if sim.state.clock == 15.0:
            assert sim.state.signals["n0_0"].transition is not None
            through_before = sim.state.counters.finished
    sig = sim.state.signals["n0_0"]
    assert sig.transition is not None
    assert sig.transition.ends - sim._ticks > 2  # still yellow: the last 2 ticks are all-red
    finished_routes = {
        v.route for v in sim.state.vehicles.values() if v.exit_time is not None
    }
    # right turners kept flowing during the transition; throughs froze
    assert WS in finished_routes
    north_through_finished = sum(
        1
        for v in sim.state.vehicles.values()
        if v.route == NS and v.exit_time is not None
    )
    assert north_through_finished == through_before


def test_phase_change_timing():
    net = one_by_one()
    sim = Simulation(net, [], SimConfig(episode_length=100))
    ctrl = ConstantPhase(1)
    activation = None
    for _ in range(100):
        sim.step({"n0_0": ctrl})
        sig = sim.state.signals["n0_0"]
        if activation is None and sig.active == 1:
            activation = sim.state.clock
    # polled at 15 when the minimum green elapsed; green again 5 s later
    assert activation == 20.0


def test_reselection_skips_transition():
    net = one_by_one()
    sim = Simulation(net, [], SimConfig(episode_length=50))
    ctrl = ConstantPhase(0)
    polls_at = []
    for _ in range(50):
        before = sim.state.counters.decisions
        sim.step({"n0_0": ctrl})
        if sim.state.counters.decisions > before:
            polls_at.append(sim.state.clock)
        assert sim.state.signals["n0_0"].transition is None
    assert polls_at == [15.0, 30.0, 45.0]


def test_changed_phase_cycle_is_green_plus_transition():
    net = one_by_one()
    sim = Simulation(net, [], SimConfig(episode_length=100))

    class Alternate:
        t_duration = 15.0

        def __init__(self):
            self.last = 0

        def observe(self, state, net, intersection):
            return None

        def decide(self, observation, intersection):
            self.last = 1 - self.last
            return self.last

    polls_at = []
    ctrl = Alternate()
    for _ in range(100):
        before = sim.state.counters.decisions
        sim.step({"n0_0": ctrl})
        if sim.state.counters.decisions > before:
            polls_at.append(sim.state.clock)
    assert polls_at == [15.0, 35.0, 55.0, 75.0, 95.0]


def test_set_phase_rejects_unknown_phase():
    sim = Simulation(one_by_one(), [], SimConfig())
    with pytest.raises(ConfigurationError):
        sim.set_phase("n0_0", 4)
    with pytest.raises(ConfigurationError):
        sim.set_phase("n0_0", -1)


def test_set_phase_names_an_unknown_intersection():
    sim = Simulation(one_by_one(), [], SimConfig())
    with pytest.raises(ConfigurationError, match="unknown intersection 'nowhere'"):
        sim.set_phase("nowhere", 0)


def test_set_phase_ignored_during_transition():
    sim = Simulation(one_by_one(), [], SimConfig())
    sim.set_phase("n0_0", 1)
    sig = sim.state.signals["n0_0"]
    assert sig.transition is not None and sig.transition.next_phase == 1
    sim.set_phase("n0_0", 2)  # ignored: transition underway
    assert sig.transition.next_phase == 1


class ArgmaxPressure(PressureController):
    """Efficient max pressure that decides by ``np.argmax``, returning its
    numpy integer or, with ``as_int``, a plain int."""

    def __init__(self, as_int: bool):
        super().__init__(ControllerConfig(10.0), efficient=True)
        self.as_int = as_int

    def decide(self, observation, intersection):
        phase = np.argmax(observation)
        return int(phase) if self.as_int else phase


def test_set_phase_stores_a_numpy_integer_as_an_int():
    net = build_grid(2, 2, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.1), 0, 300.0)
    digests = []
    for as_int in (True, False):
        sim = Simulation(net, flows, SimConfig(episode_length=300.0))
        ctrl = ArgmaxPressure(as_int)
        sim.run({i.id: ctrl for i in net.intersections})
        for sig in sim.state.signals.values():
            assert type(sig.active) is int
            assert sig.transition is None or type(sig.transition.next_phase) is int
        digests.append(sim.state_digest())
    assert sim.state.counters.decisions > 0
    assert digests[0] == digests[1]


def test_set_phase_refuses_a_phase_that_is_not_an_integer():
    sim = Simulation(one_by_one(), [], SimConfig())
    for phase in (1.0, "1", None):
        with pytest.raises(ConfigurationError, match="not an integer"):
            sim.set_phase("n0_0", phase)
    with pytest.raises(ConfigurationError, match="not an integer"):
        sim.run({"n0_0": ConstantPhase(1.0)})  # refused at its first decision


def test_zero_duration_transition_switches_immediately():
    sim = Simulation(one_by_one(), [], SimConfig(yellow=0.0, all_red=0.0))
    sim.set_phase("n0_0", 3)
    sig = sim.state.signals["n0_0"]
    assert sig.transition is None
    assert sig.active == 3
    assert sig.since == 0


def test_entry_blocking_counts_spawn_attempts():
    net = one_by_one()
    flows = [FlowSpec(WE, start_s=1, end_s=200, headway_s=1)]
    sim = Simulation(net, flows, SimConfig(episode_length=200, lane_capacity=3))
    sim.run({})  # west-through never green: entry road fills then blocks
    c = sim.state.counters
    assert c.blocked > 0
    assert c.spawned == 200
    assert_conserved(sim)


def test_capacity_gate_holds_vehicles_on_upstream_road():
    net = build_grid(1, 2, 300.0, 300.0)
    route = ("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0")
    flows = [FlowSpec(route, start_s=1, end_s=400, headway_s=2)]
    cfg = SimConfig(episode_length=400, lane_capacity=2)
    sim = Simulation(net, flows, cfg)
    ctrl = ConstantPhase(1)  # east-west through green at both junctions
    for _ in range(400):
        sim.step({"n0_0": ctrl, "n0_1": ctrl})
        assert_conserved(sim)
        for lane, q in sim.state.queues.items():
            assert len(q) <= 2, lane


def test_pick_lane_least_loaded_ties_to_first():
    load = {"a": 2, "b": 1, "c": 1}.__getitem__
    assert pick_lane(("a", "b", "c"), load) == "b"
    assert pick_lane(("c", "b"), load) == "c"
    assert pick_lane(("a",), load) == "a"


def _with_west_entry_lanes(*designations):
    """The 1x1 grid with the west entry road's lanes from #2 on designated
    as given; no movement's lanes change."""
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    lanes = next(r for r in doc["roads"] if r["id"] == "boundary:W0__n0_0")["lanes"]
    lanes[2:] = [{"index": 2 + i, "designation": d} for i, d in enumerate(designations)]
    return network_from_dict(doc)


@pytest.mark.parametrize(
    "designations",
    [(["right", "through"],), (["right"], ["through"])],
    ids=["right-lane-also-through", "fourth-lane-through"],
)
def test_a_turn_uses_the_lanes_its_movement_enters(designations):
    """Vehicles queue only on lanes the movement to their next road enters,
    whatever other lanes are designated for the turn: a through vehicle at
    the head of the right-turn lane would never go. A lane no movement
    enters would hold an always-empty queue, so it is rejected."""
    plain = build_grid(1, 1, 300.0, 300.0)
    net = _with_west_entry_lanes(*designations)
    flows = generate_synthetic_demand(plain, Uniform(0.3), 0, 600.0)
    config = SimConfig(episode_length=600.0)
    if len(designations) == 2:  # a fourth lane
        assert [str(v) for v in validate(net)] == [
            "boundary:W0__n0_0#3: no movement enters this lane"
        ]
        with pytest.raises(ConfigurationError, match="no movement enters this lane"):
            Simulation(net, flows, config)
        return
    assert not validate(net)
    runs = [Simulation(n, flows, config) for n in (plain, net)]
    for sim in runs:
        sim.run(make_controllers(sim.net, "fixedtime"))
    assert runs[0].state.counters == runs[1].state.counters
    assert runs[0].state_digest() == runs[1].state_digest()  # the same lanes: the same state


def test_simulation_rejects_a_network_that_fails_validate():
    """A library caller gets ``validate``'s check too: with phase ids
    [1, 0, 2, 3] a 300 s fixed-time episode used to run, the engine serving
    phases by position."""
    doc = network_to_dict(one_by_one())
    for phase, pid in zip(doc["intersections"][0]["phases"], [1, 0, 2, 3]):
        phase["id"] = pid
    net = network_from_dict(doc)
    flows = generate_synthetic_demand(one_by_one(), Uniform(0.1), 0, 300.0)
    with pytest.raises(ConfigurationError, match="id is not its position 0"):
        Simulation(net, flows, SimConfig(episode_length=300.0))


def test_determinism_digest():
    net = build_grid(2, 2, 300.0, 300.0)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0"), 1, 300, 3),
        FlowSpec(("boundary:N0__n0_0", "n0_0__n1_0", "n1_0__boundary:S0"), 2, 300, 5),
    ]

    def run():
        sim = Simulation(net, flows, SimConfig(episode_length=300))
        ctrls = {i.id: RandomPhase(4, seed=3) for i in net.intersections}
        sim.run(ctrls)
        return sim.state_digest()

    assert run() == run()


def test_digest_sensitive_to_demand():
    net = one_by_one()
    cfg = SimConfig(episode_length=120)
    a = Simulation(net, [FlowSpec(NS, 1, 100, 5)], cfg)
    b = Simulation(net, [FlowSpec(NS, 2, 100, 5)], cfg)
    a.run({})
    b.run({})
    assert a.state_digest() != b.state_digest()


def test_flow_validation_messages():
    net = one_by_one()
    bad = [
        FlowSpec(("boundary:W0__n0_0",), 0, 10, 5),
        FlowSpec(("boundary:W0__n0_0", "nope"), 0, 10, 5),
        FlowSpec(("n0_0__boundary:E0", "boundary:W0__n0_0"), 0, 10, 5),
        FlowSpec(WE, 0, 10, 0),
        FlowSpec(WE, 10, 0, 5),
        FlowSpec(WE, -1, 10, 5),
    ]
    problems = validate_flows(net, bad)
    assert any("at least 2 roads" in p for p in problems)
    assert any("unknown roads" in p for p in problems)
    assert any("must start at a boundary" in p for p in problems)
    assert any("headway_s must be positive" in p for p in problems)
    assert any("end_s before start_s" in p for p in problems)
    assert "flow[5]: start_s before 0 s" in problems
    with pytest.raises(ConfigurationError):
        Simulation(net, bad[:1], SimConfig())


def test_disconnected_route_rejected():
    net = build_grid(1, 2, 300.0, 300.0)
    gap = ("boundary:W0__n0_0", "n0_1__boundary:E0")
    assert any("does not connect" in p for p in validate_flows(net, [FlowSpec(gap, 0, 1, 5)]))


def test_sim_config_validation():
    for kwargs in (
        {"tick": 0.0},
        {"yellow": -1.0},
        {"saturation_headway": 0.0},
        {"lane_capacity": 0},
        {"lane_capacity": float("nan")},
        {"lane_capacity": float("inf")},
        {"lane_capacity": 2.5},
        {"episode_length": 0.0},
    ):
        with pytest.raises(ConfigurationError):
            SimConfig(**kwargs)
    for name in ("tick", "yellow", "all_red", "saturation_headway", "episode_length"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                SimConfig(**{name: value})
    assert SimConfig(lane_capacity=np.int64(3)).lane_capacity == 3


def test_flow_round_trip(tmp_path):
    flows = [FlowSpec(WE, 1.0, 3600.0, 7.5), FlowSpec(NS, 2.0, 1800.0, 12.0)]
    path = tmp_path / "flows.json"
    save_flows(flows, path)
    assert load_flows(path) == flows


def test_flows_from_list_accepts_wrapped_document():
    doc = {"flows": [{"route": list(WE), "start_s": 1, "end_s": 2, "headway_s": 3}]}
    assert flows_from_list(doc) == [FlowSpec(WE, 1.0, 2.0, 3.0)]


def test_eight_phase_scheme_runs():
    net = build_grid(1, 1, 400.0, 400.0, PhaseScheme.EIGHT)
    flows = [FlowSpec(WE, 1, 300, 4)]
    sim = Simulation(net, flows, SimConfig(episode_length=300))
    ctrl = ConstantPhase(7)  # west through + west left split phase
    sim.run({"n0_0": ctrl})
    assert sim.state.counters.finished > 0
    assert_conserved(sim)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 999),
    headway=st.sampled_from([2.0, 3.0, 5.0]),
    cap=st.sampled_from([None, 2, 5]),
)
def test_conservation_property(seed, headway, cap):
    net = one_by_one()
    flows = [FlowSpec(WE, 1, 240, headway), FlowSpec(NS, 1, 240, headway)]
    sim = Simulation(net, flows, SimConfig(episode_length=240, lane_capacity=cap))
    ctrl = RandomPhase(4, seed=seed)
    for _ in range(240):
        sim.step({"n0_0": ctrl})
        assert_conserved(sim)


# -- transit calendar ---------------------------------------------------------

WAKE_TICKS = (0.05, 0.1, 0.3, 1 / 3, 1.0)


@settings(max_examples=3, deadline=None)
@given(
    tick=st.sampled_from([0.1, 0.7]) | st.floats(0.1, 1.0),
    starts=st.lists(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 5.0), min_size=3, max_size=3),
    headways=st.tuples(st.floats(4.0, 12.0), st.floats(4.0, 12.0), st.floats(0.05, 1.0)),
    whole_ticks=st.integers(3, 300),
    length=st.floats(20.0, 400.0),
    seed=st.integers(0, 99),
)
# 2.1 s of travel on a 0.7 s tick: the quotient rounds to just over 3 ticks
@example(tick=0.7, starts=[0.0, 1.5, 0.2], headways=(4.0, 5.5, 0.3), whole_ticks=3,
         length=77.7, seed=0)
def test_time_stays_on_the_tick_grid(tick, starts, headways, whole_ticks, length, seed):
    """Over 36,000 ticks: the clock after tick n is n * tick; each requested
    release goes out on the first tick at or after its time, in flow order,
    then in order of k, with several on one tick when the headway is shorter
    than the tick; and each vehicle reaches the stop line of every road on
    its route on the first tick at or after its entry plus the road's
    travel time, never earlier or later. East-west roads take
    ``whole_ticks`` ticks, up to the rounding of floats, and south-north
    roads ``length`` / 10 s."""
    ticks = 36_000
    net = build_grid(1, 1, 10.0 * tick * whole_ticks, length)  # at 10 m/s
    horizon = ticks * tick
    ends = (horizon, horizon - 7.0, starts[2] + 300.0)  # the short headway runs briefly
    flows = [FlowSpec(route, start, end, headway)
             for route, start, end, headway in zip((WE, NS, WS), starts, ends, headways)]
    releases = _reference_releases(flows, tick, ticks)
    # per road: the fewest ticks whose length reaches its travel time less 1e-9 s
    hop = {r.id: next(m for m in itertools.count(1) if m * tick >= r.travel_time - 1e-9)
           for r in net.roads}
    flow_of = {f.route: fi for fi, f in enumerate(flows)}
    sim = Simulation(net, flows, SimConfig(tick=tick, episode_length=horizon, lane_capacity=10**6))
    transit = sim.state.transit
    seen = {road: deque() for road in transit}  # per road: (vehicle, entry tick)
    ctrl = RandomPhase(4, seed, t_duration=7.3)
    arrivals = 0
    for n in range(1, ticks + 1):
        first_id = sim._next_vehicle_id
        sim.step({"n0_0": ctrl})
        assert sim.state.clock == n * tick
        released = tuple(flow_of[sim.state.vehicles[vid].route]
                         for vid in range(first_id, sim._next_vehicle_id))
        assert released == releases[n - 1], n
        for road, dq in transit.items():
            mirror = seen[road]
            while mirror and (not dq or mirror[0][0] != dq[0][1]):
                _, entered = mirror.popleft()  # reached the stop line on tick n
                assert n - entered == hop[road], (road, n)
                arrivals += 1
            for _, vid in itertools.islice(dq, len(mirror), None):
                mirror.append((vid, n))
    assert sim.state.counters.blocked == 0
    assert arrivals > 1000


@settings(max_examples=12, deadline=None)
@given(
    tick=st.sampled_from(WAKE_TICKS),
    length=st.floats(20.0, 120.0),
    seed=st.integers(0, 999),
)
def test_transit_pass_leaves_no_due_head_that_could_move(tick, length, seed):
    """After every transit pass, each head that has arrived at its stop line
    is held by a full lane: the calendar visited every road it had to."""
    net = build_grid(1, 2, length, 1.7 * length)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0"), 0.0, 200.0, 1.3),
        FlowSpec(("boundary:N1__n0_1", "n0_1__n0_0", "n0_0__boundary:W0"), 0.4, 200.0, 2.9),
        FlowSpec(("boundary:S0__n0_0", "n0_0__boundary:N0"), 1.0, 200.0, 3.1),
    ]
    config = SimConfig(tick=tick, episode_length=200.0, lane_capacity=3)
    sim = Simulation(net, flows, config)
    advance = sim._advance_transit
    lane_ids = list(net.lane_index)  # a hop plan holds positions in this order

    def checked_transit():
        advance()
        state = sim.state
        for road, dq in state.transit.items():
            if not dq:
                continue
            arrival = dq[0][0] * tick + net.road_index[road].travel_time
            if arrival > state.clock + 1e-9:
                continue
            assert not net.terminal(road), road
            v = state.vehicles[dq[0][1]]
            assert min(len(state.queues[lane_ids[k]]) for k in v.plan[v.route_pos]) >= 3, road

    sim._advance_transit = checked_transit
    ctrl = RandomPhase(4, seed=seed, t_duration=7.0)
    sim.run({"n0_0": ctrl, "n0_1": ctrl})
    assert sim.state.counters.finished > 0


class Cycler:
    """Steps through the phases by a count shared with every other Cycler
    of one run, so the phases it picks follow the order of the decisions."""

    def __init__(self, t_duration: float, count: list[int]):
        self.t_duration = t_duration
        self.count = count

    def observe(self, state, net, intersection):
        return len(net.intersection_index[intersection].phases)

    def decide(self, n_phases, intersection):
        self.count[0] += 1
        return self.count[0] % n_phases


# t_duration per intersection: several fall below one tick of the ticks
# drawn, and an infinite one never comes due. ControllerConfig rejects an
# infinite t_duration, so a Cycler carries that one whatever the kind drawn
T_DURATIONS = (0.05, 0.2, 0.3, 1.0, 2.5, 7.3, 15.0, float("inf"))
_controller_specs = st.lists(
    st.none() | st.tuples(st.sampled_from(T_DURATIONS), st.sampled_from(["ep", "mp", "cycle"])),
    min_size=4,
    max_size=4,
).filter(lambda spec: any(entry and entry[0] < float("inf") for entry in spec))


@settings(max_examples=60, deadline=None)
@given(
    tick=st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0]),
    yellow=st.sampled_from([0.0, 0.4, 3.0]),
    all_red=st.sampled_from([0.0, 0.7, 2.0]),
    mappings=st.lists(_controller_specs, min_size=1, max_size=3),
    events=st.lists(
        st.tuples(
            st.integers(1, 600),
            st.sampled_from(["new mapping", "set_phase", "fork"]),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        max_size=8,
    ),
    seed=st.integers(0, 99),
)
def test_decision_calendar_matches_a_scan_of_every_intersection(
    tick, yellow, all_red, mappings, events, seed
):
    """The calendar makes the decisions a check of every intersection on
    every tick makes, through missing controllers, mappings swapped
    mid-run, ``set_phase`` calls between steps and forks taken while a
    signal is in its transition."""
    net = build_grid(2, 2, 150.0, 150.0)
    ids = [i.id for i in net.intersections]
    flows = generate_synthetic_demand(net, Asymmetric(0.3, 0.15), seed, 600.0)
    config = SimConfig(tick=tick, yellow=yellow, all_red=all_red, lane_capacity=6)
    runs = [Simulation(net, flows, config), ScanSimulation(net, flows, config)]
    counts = [[0], [0]]

    def mapping(side: int, spec) -> dict:
        made = {}
        for iid, entry in zip(ids, spec):
            if entry is not None:
                t_duration, kind = entry
                made[iid] = (
                    Cycler(t_duration, counts[side])
                    if kind == "cycle" or t_duration == float("inf")
                    else PressureController(ControllerConfig(t_duration), kind == "ep")
                )
        return made

    current = [mapping(side, mappings[0]) for side in (0, 1)]
    swaps = 0
    for n in range(1, 601):
        for at, what, a, b in events:
            if at != n:
                continue
            if what == "new mapping":
                swaps += 1
                spec = mappings[swaps % len(mappings)]
                current = [mapping(side, spec) for side in (0, 1)]
            for side, sim in enumerate(runs):
                if what == "set_phase":
                    sim.set_phase(ids[a], b)
                elif what == "fork":  # a phase change first: forked mid-transition
                    signal = sim.state.signals[ids[a]]
                    sim.set_phase(ids[a], (signal.active + 1) % 4)
                    runs[side] = _fork(sim)
        for sim, controllers in zip(runs, current):
            sim.step(controllers)
    calendar, scan = runs
    assert scan.state.counters.decisions > 0
    assert calendar.state.counters.decisions == scan.state.counters.decisions
    assert calendar.state_digest() == scan.state_digest()
    assert counts[0] == counts[1]


# -- wait lists -----------------------------------------------------------------

_WAIT_GRIDS = {
    **{
        (rows, cols, lanes): build_grid(rows, cols, 120.0, 150.0, lanes_per_approach=lanes)
        for rows, cols in ((1, 2), (2, 2))
        for lanes in (1, 3)
    },
    "loaded 3x3": _loaded_grid(),  # one through movement enters from two lanes
}


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(sorted(_WAIT_GRIDS, key=str)),
    tick=st.sampled_from([0.3, 1.0]),
    capacity=st.sampled_from([1, 2, 4]),
    headway=st.sampled_from([1.0, 2.0, 2.5]),
    controller=st.sampled_from(["random", "efficient-mp", "mp"]),
    fork_at=st.none() | st.integers(1, 500),
    seed=st.integers(0, 99),
)
def test_wait_lists_match_visiting_every_live_movement(
    grid, tick, capacity, headway, controller, fork_at, seed
):
    """Sleeping blocked movements and roads held on wait lists give, at
    every checkpoint, the state of an engine that visits every served live
    movement on every tick and wakes a held road on any pop from its stop
    line: congested grids with shared and solo lanes, forks mid-run."""
    net = _WAIT_GRIDS[grid]
    flows = generate_synthetic_demand(net, Asymmetric(0.3, 0.15), seed, 600.0)
    config = SimConfig(
        tick=tick, saturation_headway=headway, lane_capacity=capacity, episode_length=600.0
    )
    runs = [Simulation(net, flows, config), AwakeSimulation(net, flows, config)]

    def controllers():
        if controller == "random":
            ctrl = RandomPhase(len(net.intersections[0].phases), seed, t_duration=9.0)
            return {i.id: ctrl for i in net.intersections}
        return make_controllers(net, controller, ControllerConfig(9.0))

    mappings = [controllers(), controllers()]
    for n in range(1, round(600.0 / tick) + 1):
        if n == fork_at:
            runs = [_fork(sim) for sim in runs]
        for sim, mapping in zip(runs, mappings):
            sim.step(mapping)
        if n % 100 == 0:
            waits, awake = runs
            assert waits.state.counters == awake.state.counters, n
            assert waits.state_digest() == awake.state_digest(), n
    assert runs[0].state.counters.blocked > 0


def test_service_credit_is_an_exact_count():
    """A credit counts whole units of 1 / _full vehicle, tick / headway
    being _gain of them. A float credit served once it reached 1 - 1e-9
    would end this run at about -1e-14 on n0_0:ET and n0_0:WT, which
    state_digest hashes as -0.0."""
    net = build_grid(1, 1, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.12, 0.06), 1, 900.0)
    sim = Simulation(net, flows, SimConfig(tick=0.7, saturation_headway=2.0, episode_length=900.0))
    sim.run(make_controllers(net, "fixedtime"))
    credits = {mv.id: mv.credit for *_, moves in sim._junctions for mv in moves}
    assert [m for m, c in credits.items() if c < 0] == []
    assert (sim._gain, sim._full) == (7, 20)
    assert all(type(c) is int and c <= sim._full for c in credits.values())


def test_blocked_solo_movement_sleeps_until_its_downstream_lane_pops():
    """n0_0's west through movement, the only one entering its lane, finds
    its downstream lane full while n0_1 shows red to that lane: it leaves
    the live mask on the tick it fails, stays out while vehicles join
    behind its head, and is live again on the tick n0_1 pops the lane."""
    net = build_grid(1, 2, 75.0, 75.0)  # 10 vehicles a lane
    route = ("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0")
    sim = Simulation(net, [FlowSpec(route, 1.0, 600.0, 2.0)], SimConfig(episode_length=600.0))
    sim.set_phase("n0_0", 1)  # east-west through; n0_1 keeps north-south
    bit = 1 << [m.id for m in net.lane_table["n0_0"].movements].index("n0_0:WT")
    through = next(mv for mv in sim._junctions[0][3] if mv.id == "n0_0:WT")
    entering = sim.state.queues["boundary:W0__n0_0#1"]
    downstream = sim.state.queues["n0_0__n0_1#1"]
    for _ in range(300):
        sim.step({})
        # full credit at the end of a tick with a head waiting: its visit failed
        if entering and through.credit == sim._full:
            break
    assert len(downstream) == 10
    assert not sim._live[0] & bit
    waiting = len(entering)
    for _ in range(20):
        sim.step({})
        assert not sim._live[0] & bit
    assert len(entering) > waiting  # vehicles joined behind the head
    sim.set_phase("n0_1", 1)
    for _ in range(60):
        head = downstream[0]
        assert not sim._live[0] & bit
        sim.step({})
        if downstream[0] != head:  # n0_1 popped the lane
            break
    assert sim._live[0] & bit


def test_sleepers_wait_on_their_receiving_road():
    """After every tick of a congested run on the loaded 3x3 grid, where a
    through head may go to either of two lanes: each movement asleep with a
    head bound its way is on its receiving road's wait list, and each held
    road has a due head whose every candidate lane is full, so that only a
    pop from one of the road's own lanes, which wakes it, can move it."""
    net = _WAIT_GRIDS["loaded 3x3"]
    flows = generate_synthetic_demand(net, Asymmetric(0.3, 0.15), 2, 600.0)
    sim = Simulation(net, flows, SimConfig(lane_capacity=4, episode_length=600.0))
    controllers = make_controllers(net, "efficient-mp", ControllerConfig(9.0))
    lane_ids = list(net.lane_index)  # a hop plan holds positions in this order
    sleeps = holds = 0
    for _ in range(600):
        sim.step(controllers)
        vehicles = sim.state.vehicles
        for ii, (_, _, _, moves) in enumerate(sim._junctions):
            for mv in moves:
                if sim._live[ii] & mv.bit:
                    continue
                for q in filter(None, mv.lanes):
                    v = vehicles[q[0]]
                    if v.route[v.route_pos + 1] == mv.road.id:
                        sleeps += 1
                        assert (ii, mv.bit) in mv.road.waiting
        for road in sim._roads.values():
            if road.held:
                holds += 1
                entered, vid = road.transit[0]
                arrival = entered + net.road_index[road.id].travel_time  # at 1 s a tick
                assert arrival <= sim.state.clock + 1e-9
                v = vehicles[vid]
                lanes = v.plan[v.route_pos]
                assert all(len(sim.state.queues[lane_ids[k]]) >= road.capacity for k in lanes)
    assert sleeps > 0 and holds > 0

