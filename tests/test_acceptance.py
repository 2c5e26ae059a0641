"""End-to-end acceptance checks.

Eleven criteria covering the pressure arithmetic, controller equivalences,
simulation invariants, qualitative performance orderings, learning
convergence, and reproducibility. Each test ends with one [PASS]/[FAIL]
line naming the criterion; tolerances are pinned in the assertions and the
scenario constants keep everything at desk scale.
"""

import copy
import csv

import numpy as np
import pytest

from pressim.bench import (
    Asymmetric,
    ControllerSpec,
    ExperimentPlan,
    Scenario,
    Sweep,
    Uniform,
    average_travel_time,
    generate_synthetic_demand,
    run_experiment,
)
from pressim.control import PressureController, make_controllers
from pressim.network import PhaseScheme, build_grid
from pressim.pressure import StateKind, phase_scores
from pressim.rl import (
    LearningAgent,
    QFunction,
    QLearnerConfig,
    evaluation_travel_time,
    train,
)
from pressim.sim import SimConfig, Simulation
from reference import (
    efficient_pressure,
    gradient_check,
    movement_pressure,
    phase_pressure,
    queue_vehicles,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# -- reference searcher used by the stability criterion ---------------------


class _Hold:
    """Keeps re-selecting one phase forever."""

    def __init__(self, phase: int, t_duration: float = 15.0):
        self.phase = phase
        self.t_duration = t_duration

    def observe(self, state, net, intersection):
        return None

    def decide(self, observation, intersection):
        return self.phase


def _fork(sim: Simulation) -> Simulation:
    """An independent copy of a live simulation: a deep copy whose memo
    shares what no step changes, the network, the controllers mapping (read
    by identity), the flows and their hop plans, and the finished vehicles.
    A vehicle holds only immutable values, so the memo copies each
    unfinished one shallowly, under the original's identity: the copied
    queues, transit deques and vehicle table then hold that one copy."""
    memo = {id(obj): obj for obj in (sim.net, sim._mapping, *sim.flows, *sim._plans.values())}
    vehicles = sim.state.vehicles
    table = memo[id(vehicles)] = {}
    for vid, v in vehicles.items():
        table[vid] = memo[id(v)] = v if v.exit_time is not None else copy.copy(v)
    return copy.deepcopy(sim, memo)


class _ExhaustiveLookahead:
    """Brute-force reference policy: at every decision, try each phase on a
    copy of the live simulation, roll it forward one full decision interval,
    and keep the phase leaving the least total queue. Knows nothing about
    pressure; it searches the actual dynamics."""

    def __init__(self, t_duration: float = 15.0):
        self.sim: Simulation = None
        self.t_duration = t_duration

    def observe(self, state, net, intersection):
        return len(net.intersection_index[intersection].phases)

    def decide(self, n_phases, intersection):
        horizon = int(self.t_duration + 5)
        best, best_q = 0, None
        for p in range(n_phases):
            clone = _fork(self.sim)
            clone.set_phase(intersection, p)
            holds = {intersection: _Hold(p, self.t_duration)}
            for _ in range(horizon):
                clone.step(holds)
            q = clone.state.total_queued
            if best_q is None or q < best_q:
                best, best_q = p, q
        return best


# -- criteria ---------------------------------------------------------------


def test_01_pressure_worked_examples():
    ep = efficient_pressure([4.0], [1.0, 2.0, 0.0])
    p1 = movement_pressure(4.0, 1.0)
    p2 = movement_pressure(3.0, 5.0)
    ps = phase_pressure(p1, p2)
    ok = ep == 3.0 and p1 == 3.0 and p2 == -2.0 and ps == 1.0
    _verdict(1, "pressure worked examples", ok, f"ep={ep}, phase={ps}")


def test_02_singleton_equivalence():
    net = build_grid(2, 2, 300.0, 300.0, lanes_per_approach=1)
    sim = Simulation(net, [], SimConfig())
    rng = np.random.default_rng(2024)
    mp, emp = PressureController(), PressureController(efficient=True)
    agree = total = 0
    for _ in range(200):
        for l, q in sim.state.queues.items():
            q.clear()
            queue_vehicles(sim.state, net, l, int(rng.integers(0, 13)))
        for inter in net.intersections:
            ps = phase_scores(sim.state, net, inter.id)
            eps = phase_scores(sim.state, net, inter.id, efficient=True)
            total += 1
            if mp.decide(ps, inter.id) == emp.decide(eps, inter.id):
                agree += 1
    _verdict(2, "single-lane reduction", agree == total, f"{agree}/{total} decisions agree")


def test_03_selection_matches_enumeration():
    phase_sets = [
        build_grid(1, 1, 300.0, 300.0).intersections[0].phases,
        build_grid(1, 1, 300.0, 300.0, PhaseScheme.EIGHT).intersections[0].phases,
    ]
    rng = np.random.default_rng(99)
    mp, emp = PressureController(), PressureController(efficient=True)
    mismatches = 0
    for i in range(1000):
        phases = phase_sets[i % 2]
        n = len(phases)
        if i % 3 == 0:  # integer-valued pressures force ties
            ps = tuple(float(v) for v in rng.integers(-3, 4, n))
            eps = tuple(float(v) for v in rng.integers(-3, 4, n))
        else:
            ps = tuple(rng.normal(0, 5, n))
            eps = tuple(rng.normal(0, 5, n))

        def oracle(values):
            top = max(values)
            return min(i for i, v in enumerate(values) if v == top)

        if mp.decide(ps, "x") != oracle(ps):
            mismatches += 1
        if emp.decide(eps, "x") != oracle(eps):
            mismatches += 1
    _verdict(3, "argmax enumeration oracle", mismatches == 0, f"{mismatches} mismatches in 2000 picks")


def test_04_vehicle_conservation():
    net = build_grid(2, 2, 300.0, 300.0)
    cfg = SimConfig(episode_length=3600.0)
    flows = generate_synthetic_demand(net, Uniform(0.08), seed=0, horizon_s=3600.0)
    violations = {}
    for name in ("fixedtime", "mp", "efficient-mp", "rl"):
        sim = Simulation(net, flows, cfg)
        if name == "rl":
            agent = LearningAgent(
                net, QLearnerConfig(batch_size=32, buffer_capacity=5000, seed=0)
            )
            agent.begin_episode(sim)
            controllers = {i.id: agent for i in net.intersections}
        else:
            controllers = make_controllers(net, name)
        bad = 0
        while sim.state.clock < cfg.episode_length - 1e-9:
            sim.step(controllers)
            t = sim.conservation_terms()
            if t["spawned"] != t["finished"] + t["in_transit"] + t["queued"] + t["blocked"]:
                bad += 1
        violations[name] = bad
    ok = all(v == 0 for v in violations.values())
    _verdict(4, "vehicle conservation every tick", ok, f"violations={violations}")


def test_05_queue_stability_under_load():
    # demand sits at seventy percent of what the junction can serve: the
    # adaptive controllers keep queues near the brute-force reference while
    # an even four-way split starves the heavy approaches
    net = build_grid(1, 1, 300.0, 300.0)
    cfg = SimConfig(episode_length=7200.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.1, 0.03125), seed=0, horizon_s=7200.0)

    def max_queue(name):
        sim = Simulation(net, flows, cfg)
        if name == "lookahead":
            ctrl = _ExhaustiveLookahead()
            ctrl.sim = sim
            controllers = {i.id: ctrl for i in net.intersections}
        else:
            controllers = make_controllers(net, name)
        sim.run(controllers)
        return sim.state.max_total_queue

    reference = max_queue("lookahead")
    cap = 2.0 * reference
    mp, emp, ft = max_queue("mp"), max_queue("efficient-mp"), max_queue("fixedtime")
    ok = mp <= cap and emp <= cap and ft > cap
    _verdict(5, "stability at seventy percent load", ok,
             f"cap=2x{reference}={cap:.0f}, mp={mp}, efficient-mp={emp}, fixedtime={ft}")


def test_06_controller_ordering():
    net = build_grid(3, 4, 300.0, 300.0)
    cfg = SimConfig(episode_length=3600.0)
    means = {}
    for name in ("efficient-mp", "mp", "fixedtime"):
        atts = []
        for seed in (0, 1, 2):
            flows = generate_synthetic_demand(net, Asymmetric(0.1, 0.05), seed=seed,
                                              horizon_s=3600.0)
            sim = Simulation(net, flows, cfg)
            sim.run(make_controllers(net, name))
            atts.append(average_travel_time(list(sim.state.vehicles.values()),
                                            cfg.episode_length))
        means[name] = sum(atts) / len(atts)
    emp, mp, ft = means["efficient-mp"], means["mp"], means["fixedtime"]
    ok = emp <= mp <= ft and ft >= 1.15 * mp
    _verdict(6, "travel-time ordering", ok,
             f"efficient-mp={emp:.1f} <= mp={mp:.1f} <= fixedtime={ft:.1f} "
             f"(fixedtime/mp={ft / mp:.2f}, needs >= 1.15)")


def test_07_hold_time_sweep_reproducibility(tmp_path):
    def sweep_once(out):
        scenario = Scenario(
            id="g34",
            net=build_grid(3, 4, 300.0, 300.0),
            sim=SimConfig(episode_length=3600.0),
            demand=Asymmetric(0.1, 0.05),
        )
        plan = ExperimentPlan(
            scenarios=(scenario,),
            controllers=(ControllerSpec(name="mp"),),
            seeds=(0,),
            sweep=Sweep(param="t_duration", values=(10.0, 15.0, 20.0)),
            out_dir=str(out),
        )
        return run_experiment(plan)

    first = sweep_once(tmp_path / "a")
    second = sweep_once(tmp_path / "b")
    labels = [c[0] for c in first.cells]
    populated = (
        not first.failures
        and labels == ["g34[t_duration=10.0]", "g34[t_duration=15.0]", "g34[t_duration=20.0]"]
        and all(c[3] > 0 for c in first.cells)
    )
    identical = (tmp_path / "a" / "detail.csv").read_bytes() == (
        tmp_path / "b" / "detail.csv"
    ).read_bytes()
    _verdict(7, "hold-time sweep populated and bit-reproducible",
             populated and identical,
             f"cells={len(first.cells)}, identical={identical}")


def test_08_learned_policy_matches_adaptive_baseline():
    net = build_grid(1, 1, 300.0, 300.0)
    cfg = SimConfig(episode_length=600.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.125, 0.05), seed=0, horizon_s=600.0)

    sim = Simulation(net, flows, cfg)
    sim.run(make_controllers(net, "efficient-mp"))
    emp = average_travel_time(list(sim.state.vehicles.values()), cfg.episode_length)

    config = QLearnerConfig(
        episodes=200,
        eval_episodes=10,
        greedy_eval=True,
        seed=0,
        state_kind=StateKind.EFFICIENT_PRESSURE,
    )
    _, reports = train(net, flows, config, sim_config=cfg)
    rl = evaluation_travel_time(reports, config.eval_episodes)
    ok = rl <= 1.15 * emp
    _verdict(8, "learned policy within 15 percent of efficient-mp", ok,
             f"rl={rl:.2f}, efficient-mp={emp:.2f}, ratio={rl / emp:.3f}")


def test_09_gradient_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n_features = int(rng.integers(2, 13))
        n_phases = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(4, 33)) for _ in range(int(rng.integers(1, 3))))
        q = QFunction(n_features + n_phases, n_phases, hidden, rng)
        onehot = tuple(1.0 if i == 0 else 0.0 for i in range(n_phases))
        features = tuple(float(v) for v in rng.normal(0.0, 5.0, n_features))
        obs = np.array(features + onehot, dtype=np.float64)
        action = int(rng.integers(0, n_phases))
        target = float(rng.normal(0.0, 10.0))
        worst = max(worst, gradient_check(q, obs, action, target))
    _verdict(9, "analytic gradients match finite differences", worst < 1e-4,
             f"max relative error {worst:.2e} (tolerance 1e-4)")


def test_10_state_representation_ablation(tmp_path):
    net = build_grid(1, 1, 300.0, 300.0)
    flows = tuple(
        generate_synthetic_demand(net, Asymmetric(0.125, 0.05), seed=0, horizon_s=600.0)
    )
    scenario = Scenario(id="single", net=net, sim=SimConfig(episode_length=600.0), flows=flows)
    kinds = (
        StateKind.NV,
        StateKind.PRESSURE_NV,
        StateKind.PRESSURE_QUEUE,
        StateKind.EFFICIENT_PRESSURE,
    )
    specs = tuple(
        ControllerSpec(
            name="rl",
            label=f"rl-{kind.value}",
            learner=QLearnerConfig(
                episodes=200, eval_episodes=10, greedy_eval=True, state_kind=kind
            ),
        )
        for kind in kinds
    )
    out = tmp_path / "ablation"
    result = run_experiment(
        ExperimentPlan(scenarios=(scenario,), controllers=specs, seeds=(0,), out_dir=str(out))
    )
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    values = {row[0]: float(row[1].split()[0]) for row in rows[1:]}
    trained = not result.failures and len(rows) == 1 + len(kinds)
    ordered = values["rl-ep"] <= values["rl-nv"]
    _verdict(10, "state ablation trains and ranks ep over raw counts",
             trained and ordered,
             f"rows={len(rows) - 1}, " + ", ".join(f"{k}={v:.1f}" for k, v in values.items()))


def test_11_cell_determinism(tmp_path):
    net = build_grid(1, 1, 300.0, 300.0)
    rl_spec = ControllerSpec(
        name="rl",
        learner=QLearnerConfig(episodes=3, eval_episodes=2, batch_size=8,
                               buffer_capacity=256),
    )
    outcomes = {}
    for spec, tag in ((ControllerSpec(name="mp"), "mp"), (rl_spec, "rl")):
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}"
            plan = ExperimentPlan(
                scenarios=(Scenario(id="one", net=net, sim=SimConfig(episode_length=300.0),
                                    demand=Uniform(0.1)),),
                controllers=(spec,),
                seeds=(3,),
                out_dir=str(out),
            )
            result = run_experiment(plan)
            assert not result.failures
            digests.append((out / "detail.csv").read_bytes())
        outcomes[tag] = digests[0] == digests[1]
    ok = all(outcomes.values())
    _verdict(11, "repeated cells byte-identical", ok, f"identical={outcomes}")


# -- engine regression checks ------------------------------------------------


def test_fork_leaves_the_original_unaffected():
    """A fork stepped on its own must not move the run it was forked from,
    though it shares the network, the controllers mapping and the hop
    plans. The fork runs 200 ticks ahead, past the episode's end, on its own
    copy of the release calendar, without touching the original's."""
    net = build_grid(2, 2, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.2, 0.1), 3, 600.0)
    config = SimConfig(episode_length=147.0, lane_capacity=8)
    controllers = make_controllers(net, "efficient-mp")
    original = Simulation(net, flows, config)
    untouched = Simulation(net, flows, config)
    original.step(controllers)
    untouched.step(controllers)
    clone = _fork(original)
    for _ in range(200):
        clone.step(controllers)
    for _ in range(100):
        clone.step(controllers)
        original.step(controllers)
        untouched.step(controllers)
        clone.set_phase("n0_0", 3)
    assert clone.state_digest() != untouched.state_digest()
    for _ in range(300):
        original.step(controllers)
        untouched.step(controllers)
    assert original.state_digest() == untouched.state_digest()


def test_fork_steps_in_lockstep_with_the_original():
    """A fork of a congested run, stepped with the same controllers, stays in
    step with the original. The fork copies the engine's views (live
    movements, the calendars, held roads and wait lists) with the state, so
    this fails when a copy loses track of a road or a movement the original
    still tracks, such as a head already due at the fork. The digests are
    taken of forks of both sides, so that a second copy is checked too."""
    net = build_grid(2, 2, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.2, 0.1), 3, 600.0)
    config = SimConfig(episode_length=600.0, lane_capacity=8)
    controllers = make_controllers(net, "efficient-mp")
    original = Simulation(net, flows, config)
    for _ in range(150):
        original.step(controllers)
    clone = _fork(original)
    for _ in range(150):
        original.step(controllers)
        clone.step(controllers)
    assert _fork(original).state_digest() == _fork(clone).state_digest()


def test_queues_and_transit_hold_the_vehicle_table_records():
    """The queues and transit deques hold the very records of the vehicle
    table, after a run and in a fork of it, and a fork shares no unfinished
    record with the run it was forked from, also once both step on."""
    net = build_grid(3, 4, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.1, 0.05), 0, 900.0)
    controllers = make_controllers(net, "mp")
    original = Simulation(net, flows, SimConfig(episode_length=900.0))
    original.run(controllers)
    clone = _fork(original)
    for ticks in (0, 60):
        for _ in range(ticks):
            original.step(controllers)
            clone.step(controllers)
        for sim in (original, clone):
            st = sim.state
            assert any(st.queues.values()) and any(st.transit.values())
            for dq in (*st.queues.values(), *st.transit.values()):
                assert all(v is st.vehicles[v.id] for v in dq)
        unfinished = {id(v) for v in original.state.vehicles.values() if v.exit_time is None}
        assert not unfinished & {id(v) for v in clone.state.vehicles.values()}
