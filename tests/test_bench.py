"""Metrics, synthetic demand, and the experiment harness."""

import csv
import dataclasses
import functools
import re

import pytest

from pressim.bench import (
    Asymmetric,
    ControllerSpec,
    ExperimentPlan,
    Peaked,
    Scenario,
    Sweep,
    Uniform,
    average_travel_time,
    generate_synthetic_demand,
    parse_demand_spec,
    report_from_sim,
    run_episode,
    run_experiment,
    summary_rows,
    format_summary,
)
from pressim.control import ControllerConfig, FixedTimeController, make_controllers
from pressim.network import PhaseScheme, Turn, build_grid
from pressim.sim import (
    ConfigurationError,
    FlowSpec,
    SimConfig,
    Simulation,
    Vehicle,
    validate_flows,
)


def vehicle(vid, entry, exit=None):
    return Vehicle(id=vid, route=("a", "b"), route_pos=0, entry_time=entry, exit_time=exit)


def crossing_flows(end=300.0):
    """West-to-east and north-to-south through traffic on a 1x1 grid."""
    return [
        FlowSpec(route=("boundary:W0__n0_0", "n0_0__boundary:E0"), start_s=1.0, end_s=end, headway_s=4.0),
        FlowSpec(route=("boundary:N0__n0_0", "n0_0__boundary:S0"), start_s=2.0, end_s=end, headway_s=5.0),
    ]


def tiny_scenario(sid="x", end=300.0):
    net = build_grid(1, 1, 300.0, 300.0)
    return Scenario(
        id=sid,
        net=net,
        sim=SimConfig(episode_length=end),
        flows=tuple(crossing_flows(end)),
    )


# -- travel-time metric -----------------------------------------------------


def test_average_travel_time_example():
    vehicles = [vehicle(0, 0.0, 50.0), vehicle(1, 100.0, 250.0), vehicle(2, 200.0, 350.0)]
    assert average_travel_time(vehicles, 3600.0) == pytest.approx(350.0 / 3.0)
    assert average_travel_time(vehicles, 3600.0) == pytest.approx(116.666667, abs=1e-6)


def test_average_travel_time_charges_unfinished_to_episode_end():
    vehicles = [vehicle(0, 100.0, None)]
    assert average_travel_time(vehicles, 700.0) == pytest.approx(600.0)


def test_average_travel_time_empty_is_zero():
    assert average_travel_time([], 3600.0) == 0.0


def test_report_counter_identity():
    scenario = tiny_scenario()
    controllers = make_controllers(scenario.net, "fixedtime")
    sim = run_episode(scenario.net, list(scenario.flows), scenario.sim, controllers)
    report = report_from_sim(sim, "x", "fixedtime", 0)
    assert report.throughput + report.unfinished + report.blocked_spawns == report.spawned
    assert report.spawned > 0
    assert not report.empty
    assert report.decisions > 0


def test_report_charges_unfinished_vehicles_up_to_the_last_tick():
    """A run stops on the first tick at or after its episode length, so the
    vehicle released on that tick is charged 0 s, not a negative time."""
    net = build_grid(1, 1, 300.0, 300.0)  # 30 s roads: nobody finishes
    flows = [FlowSpec(("boundary:W0__n0_0", "n0_0__boundary:E0"), 0.5, 10.5, 1.0)]
    sim = run_episode(net, flows, SimConfig(episode_length=10.5), {})
    report = report_from_sim(sim, "x", "none", 0)
    assert report.unfinished == report.spawned == 11
    assert report.average_travel_time == pytest.approx(5.0)


def test_run_episode_hooks_called_once_per_distinct_controller():
    calls = []

    class Probe(FixedTimeController):
        def begin_episode(self, sim):
            calls.append("begin")

        def end_episode(self, sim):
            calls.append("end")

    net = build_grid(2, 2, 300.0, 300.0)
    shared = Probe(ControllerConfig())
    run_episode(
        net,
        [FlowSpec(route=("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0"),
                  start_s=1.0, end_s=60.0, headway_s=10.0)],
        SimConfig(episode_length=60.0),
        {i.id: shared for i in net.intersections},
    )
    assert calls == ["begin", "end"]


# -- synthetic demand -------------------------------------------------------


def test_uniform_demand_on_single_intersection_grid():
    net = build_grid(1, 1, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.1), seed=0, horizon_s=3600.0)
    # four boundary entries, three turn choices each
    assert len(flows) == 12
    for f in flows:
        assert f.headway_s == pytest.approx(10.0)
        assert f.end_s == 3600.0
        assert 1.0 <= f.start_s < 11.0
        assert net.terminal(f.route[-1])
        assert net.road_index[f.route[0]].src.startswith("boundary")
    # through, left, and right routes all present from each entry
    entries = {f.route[0] for f in flows}
    assert len(entries) == 4
    for entry in entries:
        assert sum(1 for f in flows if f.route[0] == entry) == 3


def test_demand_routes_follow_first_turn_then_through():
    net = build_grid(2, 2, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.1), seed=0)
    by_route = {f.route: f for f in flows}
    # a west entry going through crosses both columns
    straight = ("boundary:W0__n0_0", "n0_0__n0_1", "n0_1__boundary:E0")
    assert straight in by_route
    for route in by_route:
        # after the first hop every consecutive pair is a through movement
        for a, b in zip(route[1:], route[2:]):
            assert net.turn_between[(a, b)] is Turn.THROUGH


def test_demand_seed_staggering():
    net = build_grid(1, 1, 300.0, 300.0)
    a = generate_synthetic_demand(net, Uniform(0.1), seed=0)
    b = generate_synthetic_demand(net, Uniform(0.1), seed=0)
    c = generate_synthetic_demand(net, Uniform(0.1), seed=1)
    assert a == b
    assert a != c
    # only the start offsets move between seeds
    assert [f.route for f in a] == [f.route for f in c]
    assert [f.headway_s for f in a] == [f.headway_s for f in c]


def test_asymmetric_demand_splits_by_heading():
    net = build_grid(1, 1, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Asymmetric(0.2, 0.05), seed=0)
    assert len(flows) == 12
    for f in flows:
        # a route from the east or west boundary runs east-west
        ew = net.road_index[f.route[0]].src.startswith(("boundary:E", "boundary:W"))
        assert f.headway_s == pytest.approx(5.0 if ew else 20.0)


def test_peaked_demand_adds_window_flows():
    net = build_grid(1, 1, 300.0, 300.0)
    flows = generate_synthetic_demand(
        net, Peaked(0.1, 0.25, (600.0, 1200.0)), seed=0, horizon_s=3600.0
    )
    base = [f for f in flows if f.end_s == 3600.0]
    peak = [f for f in flows if f.end_s == 1200.0]
    assert len(base) == 12 and len(peak) == 12
    for f in peak:
        # supplement closes the gap between base and peak rates, with the
        # headway rounded to the whole-second release grid
        assert f.headway_s == round(1.0 / 0.15)
        assert 600.0 <= f.start_s < 600.0 + 1.0 + f.headway_s


def test_sparse_demand_leaves_out_flows_that_release_nothing():
    """At 0.01 vehicle/s a headway is 100 s, so many seeded first releases
    land past a 50 s horizon. Those flows are left out, and the others keep
    the offsets drawn for them."""
    net = build_grid(1, 1, 300.0, 300.0)
    kept = 0
    for seed in range(3):
        flows = generate_synthetic_demand(net, Uniform(0.01), seed, horizon_s=50.0)
        assert validate_flows(net, flows) == []
        full = generate_synthetic_demand(net, Uniform(0.01), seed, horizon_s=3600.0)
        assert flows == [dataclasses.replace(f, end_s=50.0) for f in full if f.start_s <= 50.0]
        kept += len(flows)
    assert 0 < kept < 3 * len(full)


@pytest.mark.parametrize(
    "window",
    [(500.0, 100.0), (100.0, 100.0), (-1.0, 100.0), (0.0, float("inf")), (float("nan"), 100.0)],
)
def test_peaked_window_must_run_forward_from_zero(window):
    with pytest.raises(ConfigurationError):
        Peaked(0.05, 0.1, window)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -5.0])
def test_demand_horizon_must_be_positive_and_finite(horizon):
    net = build_grid(1, 1, 300.0, 300.0)
    with pytest.raises(ConfigurationError):
        generate_synthetic_demand(net, Uniform(0.1), seed=0, horizon_s=horizon)


def test_scenario_rejects_a_peak_window_past_its_episode():
    net = build_grid(1, 1, 300.0, 300.0)
    with pytest.raises(ConfigurationError, match="horizon"):
        Scenario(id="p", net=net, sim=SimConfig(episode_length=600.0),
                 demand=Peaked(0.05, 0.1, (3000.0, 5000.0)))


def test_demand_headways_align_with_one_second_ticks():
    # 1/0.15 is 6.67 s; releases only fire on whole ticks, so the generator
    # rounds to 7 s rather than silently dropping most of the demand
    net = build_grid(1, 1, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.15), seed=0)
    assert all(f.headway_s == 7.0 for f in flows)


@pytest.mark.parametrize(
    "profile",
    [
        functools.partial(Uniform, 0.0),
        functools.partial(Uniform, -0.1),
        functools.partial(Uniform, 1.5),
        functools.partial(Asymmetric, 0.2, 0.0),
        functools.partial(Peaked, 0.2, 0.1, (0.0, 100.0)),
        functools.partial(Peaked, 0.1, 0.2, (500.0, 100.0)),
        functools.partial(Peaked, 0.1, 0.2, (0.0, 9999.0)),
        functools.partial(Uniform, float("nan")),
        functools.partial(Uniform, float("inf")),
        functools.partial(Asymmetric, 0.1, float("nan")),
        functools.partial(Peaked, float("nan"), 0.2, (0.0, 100.0)),
    ],
)
def test_demand_rejects_bad_profiles(profile):
    """A bad rate fails when the profile is made, a window outside the
    horizon when its demand is generated."""
    net = build_grid(1, 1, 300.0, 300.0)
    with pytest.raises(ConfigurationError):
        generate_synthetic_demand(net, profile(), seed=0, horizon_s=3600.0)


def test_parse_demand_spec():
    assert parse_demand_spec("uniform:0.1") == Uniform(0.1)
    assert parse_demand_spec("asymmetric:0.2,0.05") == Asymmetric(0.2, 0.05)
    assert parse_demand_spec("peaked:0.1,0.25,600-1200") == Peaked(0.1, 0.25, (600.0, 1200.0))
    for bad in ("gauss:1", "uniform:", "uniform:a", "asymmetric:0.2", "peaked:0.1,0.2", "",
                "uniform:nan", "uniform:inf", "peaked:nan,0.2,0-100"):
        with pytest.raises(ConfigurationError):
            parse_demand_spec(bad)


def test_scenario_flows_for_seed():
    net = build_grid(1, 1, 300.0, 300.0)
    fixed = tiny_scenario()
    assert fixed.flows_for_seed(0) == fixed.flows_for_seed(7) == list(fixed.flows)
    synthetic = Scenario(id="d", net=net, demand=Uniform(0.1))
    assert synthetic.flows_for_seed(0) != synthetic.flows_for_seed(1)
    with pytest.raises(ConfigurationError):
        Scenario(id="none", net=net).flows_for_seed(0)


# -- experiment harness -----------------------------------------------------


def test_smallest_matrix_runs_and_summarizes():
    plan = ExperimentPlan(
        scenarios=(tiny_scenario(),),
        controllers=(ControllerSpec(name="fixedtime"), ControllerSpec(name="mp")),
        seeds=(0,),
    )
    result = run_experiment(plan)
    assert not result.failures
    assert len(result.reports) == 2
    assert len(result.cells) == 2
    rows = summary_rows(result.cells)
    assert rows[0] == ["controller", "x"]
    assert rows[1][0] == "mp"  # baseline listed first
    assert rows[2][0] == "fixedtime"
    # baseline cell is a bare mean; the other carries a signed delta
    assert re.fullmatch(r"\d+\.\d{6}", rows[1][1])
    assert re.fullmatch(r"\d+\.\d{6} \([+-]\d+\.\d{2}%\)", rows[2][1])
    text = format_summary(result.cells)
    assert text.splitlines()[0].startswith("controller")
    assert set(text.splitlines()[1]) <= {"-", " "}


def test_summary_without_baseline_omits_deltas():
    rows = summary_rows([("s", "fixedtime", 0, 100.0), ("s", "rl", 0, 90.0)])
    assert "no mp baseline" in rows[0][0]
    assert rows[1][1] == "100.000000"
    assert rows[2][1] == "90.000000"


def test_summary_averages_over_seeds():
    cells = [("s", "mp", 0, 100.0), ("s", "mp", 1, 110.0), ("s", "fixedtime", 0, 126.0),
             ("s", "fixedtime", 1, 126.0)]
    rows = summary_rows(cells)
    assert rows[1][1] == "105.000000"
    assert rows[2][1] == "126.000000 (+20.00%)"


def test_summary_leaves_empty_cells_out_of_the_mean():
    """A cell whose run had no vehicles has no travel time: it counts in
    no mean, and an entry with only such cells is blank."""
    cells = [("s", "mp", 0, 1.0), ("s", "mp", 1, 0.0), ("s", "mp", 2, None),
             ("s", "fixedtime", 0, None), ("t", "mp", 0, None), ("t", "fixedtime", 0, 2.0)]
    assert summary_rows(cells) == [
        ["controller", "s", "t"], ["mp", "0.500000", ""], ["fixedtime", "", "2.000000"],
    ]


def test_sparse_cells_without_vehicles_have_no_value():
    """Uniform 0.01 veh/s over 3 s releases a vehicle on 2 of 10 seeds: the
    other 8 cells are empty and the summary averages the 2 (ATT 1 and 0)."""
    scenario = Scenario(
        id="x", net=build_grid(1, 1, 300.0, 300.0), demand=Uniform(0.01),
        sim=SimConfig(episode_length=3.0),
    )
    result = run_experiment(
        ExperimentPlan((scenario,), (ControllerSpec(name="mp"),), tuple(range(10)))
    )
    assert sum(r.empty for r in result.reports) == 8
    assert sorted(c[3] for c in result.cells if c[3] is not None) == [0.0, 1.0]
    assert summary_rows(result.cells)[1] == ["mp", "0.500000"]


def test_cell_order_does_not_change_results(tmp_path):
    scenario = tiny_scenario()
    specs = (ControllerSpec(name="fixedtime"), ControllerSpec(name="mp"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ra = run_experiment(ExperimentPlan((scenario,), specs, (0, 1), out_dir=str(out_a)))
    rb = run_experiment(ExperimentPlan((scenario,), specs[::-1], (1, 0), out_dir=str(out_b)))
    assert ra.cells == rb.cells
    assert (out_a / "detail.csv").read_bytes() == (out_b / "detail.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    plan_dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        plan = ExperimentPlan(
            scenarios=(tiny_scenario(),),
            controllers=(ControllerSpec(name="mp"),),
            seeds=(0,),
            out_dir=str(out),
        )
        run_experiment(plan)
        plan_dirs.append(out)
    first, second = plan_dirs
    assert (first / "detail.csv").read_bytes() == (second / "detail.csv").read_bytes()
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()


def test_detail_csv_matches_summary(tmp_path):
    out = tmp_path / "run"
    plan = ExperimentPlan(
        scenarios=(tiny_scenario(),),
        controllers=(ControllerSpec(name="mp"), ControllerSpec(name="fixedtime")),
        seeds=(0, 1),
        out_dir=str(out),
    )
    result = run_experiment(plan)
    with open(result.detail_path) as fh:
        detail = list(csv.DictReader(fh))
    assert len(detail) == 4
    for row in detail:
        assert re.fullmatch(r"\d+\.\d{6}", row["average_travel_time"])
        assert int(row["spawned"]) == (
            int(row["throughput"]) + int(row["unfinished"]) + int(row["blocked_spawns"])
        )
    # summary means recompute from the detail rows
    means = {}
    for row in detail:
        means.setdefault(row["controller"], []).append(float(row["average_travel_time"]))
    with open(result.summary_path) as fh:
        summary = list(csv.reader(fh))
    for row in summary[1:]:
        expected = sum(means[row[0]]) / len(means[row[0]])
        assert float(row[1].split()[0]) == pytest.approx(expected, abs=1e-6)


def test_t_duration_sweep_labels_and_cells():
    plan = ExperimentPlan(
        scenarios=(tiny_scenario(sid="g"),),
        controllers=(ControllerSpec(name="mp"),),
        seeds=(0,),
        sweep=Sweep(param="t_duration", values=(10.0, 15.0)),
    )
    result = run_experiment(plan)
    assert not result.failures
    labels = [c[0] for c in result.cells]
    assert labels == ["g[t_duration=10.0]", "g[t_duration=15.0]"]
    # shorter holds mean more decisions
    by_label = {r.scenario: r for r in result.reports}
    assert by_label["g[t_duration=10.0]"].decisions > by_label["g[t_duration=15.0]"].decisions


def test_phase_scheme_sweep_swaps_the_network():
    plan = ExperimentPlan(
        scenarios=(tiny_scenario(sid="g", end=200.0),),
        controllers=(ControllerSpec(name="fixedtime"),),
        seeds=(0,),
        sweep=Sweep(param="phases", values=(4, 8)),
    )
    result = run_experiment(plan)
    assert not result.failures
    assert [c[0] for c in result.cells] == ["g[phases=4]", "g[phases=8]"]
    atts = {c[0]: c[3] for c in result.cells}
    # an 8-slot fixed cycle spends more time on left-turn-only phases here
    assert atts["g[phases=4]"] != atts["g[phases=8]"]


def test_phase_sweep_cells_run_on_their_own_networks_demand(monkeypatch):
    """Each (scenario, seed)'s flows are made once and serve every cell on
    it: they must be what each cell's re-phased network would generate. A
    phases sweep re-phases once per value."""
    import pressim.bench as bench

    profile = Uniform(0.1)
    scenario = Scenario(id="g", net=build_grid(1, 1, 300.0, 300.0),
                        sim=SimConfig(episode_length=60.0), demand=profile)
    seeds = (0, 1)
    runs, made = [], []

    def record_run(net, flows, *args):
        runs.append((net, flows))
        return run_episode(net, flows, *args)

    def record_demand(*args):
        made.append(args)
        return generate_synthetic_demand(*args)

    monkeypatch.setattr(bench, "run_episode", record_run)
    monkeypatch.setattr(bench, "generate_synthetic_demand", record_demand)
    result = run_experiment(ExperimentPlan(
        (scenario,), (ControllerSpec(name="fixedtime"), ControllerSpec(name="mp")), seeds,
        sweep=Sweep(param="phases", values=(4, 8)),
    ))
    assert not result.failures and len(result.cells) == 8
    assert len(made) == len(seeds)
    # cells run in plan order: value, then controller, then seed
    for k, (net, flows) in enumerate(runs):
        assert net.phase_scheme is (PhaseScheme.FOUR if k < 4 else PhaseScheme.EIGHT)
        assert flows == generate_synthetic_demand(net, profile, seeds[k % 2], 60.0)
    assert len({id(net) for net, _ in runs}) == 2


def test_failures_are_recorded_not_raised(tmp_path):
    net = build_grid(1, 1, 300.0, 300.0)
    broken = Scenario(id="broken", net=net)  # neither flows nor demand
    out = tmp_path / "out"
    plan = ExperimentPlan(
        scenarios=(broken, tiny_scenario()),
        controllers=(ControllerSpec(name="mp"),),
        seeds=(0,),
        out_dir=str(out),
    )
    result = run_experiment(plan)
    assert len(result.failures) == 1
    assert result.failures[0].scenario == "broken"
    assert "no flows and no demand" in result.failures[0].error
    assert len(result.cells) == 1  # the healthy scenario still ran
    assert (out / "failures.txt").exists()


def test_plan_validation():
    scenario = tiny_scenario()
    spec = ControllerSpec(name="mp")
    with pytest.raises(ConfigurationError):
        ExperimentPlan(scenarios=(), controllers=(spec,), seeds=(0,))
    with pytest.raises(ConfigurationError):
        ExperimentPlan(scenarios=(scenario,), controllers=(spec,), seeds=())
    with pytest.raises(ConfigurationError):
        ExperimentPlan(
            scenarios=(scenario,), controllers=(spec,), seeds=(0,),
            sweep=Sweep(param="speed", values=(1,)),
        )
    for param, values in (("state", ()), ("phases", (6,)), ("t_duration", ("x",))):
        with pytest.raises(ConfigurationError):
            ExperimentPlan(
                scenarios=(scenario,), controllers=(spec,), seeds=(0,),
                sweep=Sweep(param=param, values=values),
            )


def test_state_sweep_takes_only_learning_controllers():
    from pressim.bench import _apply_sweep
    from pressim.pressure import StateKind
    from pressim.rl import QLearnerConfig

    scenario = tiny_scenario()
    learner = ControllerSpec(name="rl", learner=QLearnerConfig())
    sweep = Sweep(param="state", values=("nv", "ep"))
    plan = ExperimentPlan(
        scenarios=(scenario,), controllers=(learner,), seeds=(0,), sweep=sweep
    )
    kinds = [_apply_sweep(scenario, learner, plan.sweep, v)[1].learner.state_kind
             for v in plan.sweep.values]
    assert kinds == [StateKind.NV, StateKind.EFFICIENT_PRESSURE]
    with pytest.raises(ConfigurationError, match="fixedtime"):
        ExperimentPlan(
            scenarios=(scenario,), controllers=(learner, ControllerSpec(name="fixedtime")),
            seeds=(0,), sweep=sweep,
        )


def test_unknown_controller_becomes_cell_failure():
    plan = ExperimentPlan(
        scenarios=(tiny_scenario(),),
        controllers=(ControllerSpec(name="sotl"),),
        seeds=(0,),
    )
    result = run_experiment(plan)
    assert len(result.failures) == 1
    assert "sotl" in result.failures[0].error


def test_learning_cell_reports_every_episode(tmp_path):
    from pressim.rl import QLearnerConfig

    out = tmp_path / "rl"
    scenario = tiny_scenario(sid="t", end=150.0)
    learner = QLearnerConfig(episodes=3, eval_episodes=2, batch_size=4, buffer_capacity=64)
    plan = ExperimentPlan(
        scenarios=(scenario,),
        controllers=(ControllerSpec(name="rl", learner=learner),),
        seeds=(5,),
        out_dir=str(out),
    )
    result = run_experiment(plan)
    assert not result.failures
    assert [r.episode for r in result.reports] == [0, 1, 2]
    assert all(r.controller == "rl" and r.seed == 5 for r in result.reports)
    tail = [round(r.average_travel_time, 6) for r in result.reports[-2:]]
    assert result.cells[0][3] == pytest.approx(sum(tail) / 2)
    assert (out / "params_t_rl_seed5.json").exists()


def test_parallel_execution_matches_sequential(tmp_path):
    scenario = tiny_scenario(end=200.0)
    specs = (ControllerSpec(name="mp"), ControllerSpec(name="fixedtime"))
    seq = run_experiment(ExperimentPlan((scenario,), specs, (0, 1), jobs=1))
    par = run_experiment(ExperimentPlan((scenario,), specs, (0, 1), jobs=2))
    assert seq.cells == par.cells


def test_controller_spec_display_label():
    assert ControllerSpec(name="rl").display == "rl"
    assert ControllerSpec(name="rl", label="rl-ep").display == "rl-ep"
