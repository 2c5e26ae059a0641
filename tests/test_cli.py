"""Command-line surface: subcommands, environment overrides, exit codes."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pressim
from pressim import bench
from pressim.cli import build_parser, main
from pressim.network import (
    PhaseScheme,
    build_grid,
    load_network,
    network_from_dict,
    network_to_dict,
    validate,
)
from pressim.sim import FlowSpec, load_flows, save_flows


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    assert main(["gen-grid", "--rows", "1", "--cols", "1",
                 "--ew-m", "300", "--sn-m", "300", "--out", str(path)]) == 0
    return path


@pytest.fixture
def flows_file(tmp_path):
    path = tmp_path / "flows.json"
    save_flows(
        [
            FlowSpec(route=("boundary:W0__n0_0", "n0_0__boundary:E0"),
                     start_s=1.0, end_s=300.0, headway_s=4.0),
            FlowSpec(route=("boundary:N0__n0_0", "n0_0__boundary:S0"),
                     start_s=2.0, end_s=300.0, headway_s=5.0),
        ],
        path,
    )
    return path


def test_gen_grid_writes_a_valid_network(tmp_path, capsys):
    path = tmp_path / "fresh.json"
    assert main(["gen-grid", "--rows", "1", "--cols", "1",
                 "--ew-m", "300", "--sn-m", "300", "--out", str(path)]) == 0
    net = load_network(path)
    assert len(net.intersections) == 1
    assert len(net.roads) == 8
    out = capsys.readouterr().out
    assert "1 intersections" in out and "8 roads" in out


def test_gen_grid_respects_scheme_and_lanes(tmp_path):
    path = tmp_path / "g8.json"
    assert main(["gen-grid", "--rows", "2", "--cols", "2", "--ew-m", "400",
                 "--sn-m", "400", "--scheme", "8", "--lanes", "1",
                 "--out", str(path)]) == 0
    net = load_network(path)
    assert net.phase_scheme is PhaseScheme.EIGHT
    assert all(len(r.lanes) == 1 for r in net.roads)


def test_gen_demand_writes_flows(grid_file, tmp_path, capsys):
    out = tmp_path / "demand.json"
    code = main(["gen-demand", "--network", str(grid_file),
                 "--profile", "uniform:0.1", "--out", str(out)])
    assert code == 0
    assert "12 flows" in capsys.readouterr().out
    flows = load_flows(out)
    assert len(flows) == 12
    assert all(f.headway_s == pytest.approx(10.0) for f in flows)


def test_gen_demand_rejects_bad_profile(grid_file, tmp_path, capsys):
    code = main(["gen-demand", "--network", str(grid_file),
                 "--profile", "gauss:1", "--out", str(tmp_path / "d.json")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_with_flow_file(grid_file, flows_file, capsys):
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--controller", "mp", "--episode-length", "300", "--seeds", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("controller")
    assert "mp" in out


def test_run_writes_artifacts(grid_file, flows_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--controller", "fixedtime", "--episode-length", "300",
                 "--seeds", "0,1", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "detail.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert "detail:" in capsys.readouterr().out


def test_run_with_synthetic_demand(grid_file, capsys):
    code = main(["run", "--network", str(grid_file), "--demand", "uniform:0.05",
                 "--controller", "efficient-mp", "--episode-length", "200",
                 "--seeds", "0"])
    assert code == 0
    assert "efficient-mp" in capsys.readouterr().out


def test_run_learning_controller(grid_file, flows_file, capsys):
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--controller", "rl", "--episodes", "2", "--eval-episodes", "2",
                 "--episode-length", "120", "--seeds", "0",
                 "--state", "ep", "--reward", "pressure"])
    assert code == 0
    assert "rl" in capsys.readouterr().out


def test_run_requires_some_demand(grid_file, capsys):
    assert main(["run", "--network", str(grid_file)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_rejects_flows_plus_demand(grid_file, flows_file, capsys):
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--demand", "uniform:0.1"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_run_phase_override(grid_file, flows_file, tmp_path):
    out_dir = tmp_path / "r8"
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--controller", "fixedtime", "--episode-length", "300",
                 "--phases", "8", "--seeds", "0", "--out", str(out_dir)])
    assert code == 0


def test_cell_failure_exits_one(grid_file, flows_file, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("the episode broke")

    monkeypatch.setattr(bench, "run_episode", fail)
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--controller", "mp", "--seeds", "0"])
    assert code == 1
    assert "FAILED cell" in capsys.readouterr().err


def test_a_scenario_whose_demand_fails_fails_each_of_its_cells(grid_file, tmp_path,
                                                              monkeypatch):
    original = bench.generate_synthetic_demand

    def generate(net, profile, *args):
        if profile == bench.Uniform(0.05):
            raise RuntimeError("no demand today")
        return original(net, profile, *args)

    monkeypatch.setattr(bench, "generate_synthetic_demand", generate)
    out = tmp_path / "out"
    code = main(["sweep", "--network", str(grid_file), "--demand", "uniform:0.1",
                 "uniform:0.05", "--controllers", "fixedtime,mp", "--seeds", "0,1",
                 "--episode-length", "60", "--out", str(out)])
    assert code == 1
    failed = [line for line in (out / "failures.txt").read_text().splitlines()
              if " / seed " in line]
    assert sorted(failed) == [
        f"grid[demand=uniform:0.05] / {c} / seed {s}" for c in ("fixedtime", "mp") for s in (0, 1)
    ]
    assert "no demand today" in (out / "failures.txt").read_text()
    with open(out / "detail.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((r["scenario"], r["controller"], r["seed"]) for r in rows) == [
        ("grid[demand=uniform:0.1]", c, s) for c in ("fixedtime", "mp") for s in ("0", "1")
    ]


def test_sparse_demand_runs(grid_file):
    """At 0.01 vehicle/s most seeded first releases land past a 50 s
    episode; their flows are left out instead of failing the cell."""
    assert main(["run", "--network", str(grid_file), "--demand", "uniform:0.01",
                 "--episode-length", "50", "--seeds", "0,1,2"]) == 0


@pytest.mark.parametrize(
    "flags",
    [["--demand", "peaked:0.05,0.1,500-100"],
     ["--demand", "peaked:0.05,0.1,3000-5000", "--episode-length", "600"]],
    ids=["reversed-window", "window-past-episode"],
)
def test_unworkable_demand_exits_two(flags, grid_file, capsys):
    code = main(["run", "--network", str(grid_file), *flags, "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err


@pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-5"])
def test_gen_demand_rejects_a_bad_horizon(horizon, grid_file, tmp_path):
    out = tmp_path / "flows.json"
    code = main(["gen-demand", "--network", str(grid_file), "--profile", "uniform:0.1",
                 "--horizon", horizon, "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_bad_flag_value_exits_two(grid_file, flows_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--network", str(grid_file), "--flows", str(flows_file),
              "--controller", "webster"])
    assert exc.value.code == 2


def test_phase_naming_an_unknown_movement_exits_two(tmp_path, capsys):
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    doc["intersections"][0]["phases"][0]["movements"][0] = "n0_0:XX"
    assert any(
        "unknown movement" in v.message for v in validate(network_from_dict(doc))
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--network", str(path), "--demand", "uniform:0.1",
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    assert "unknown movement" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["run", "--phases", "8"], ["sweep", "--param", "phases", "--values", "4,8"],
     ["run", "--phases", "4"]],
    ids=["run", "sweep", "run-own-label"],
)
def test_phase_scheme_naming_a_missing_movement_exits_two(command, tmp_path, capsys):
    """A valid network without n0_0:NL runs as it is, but both tables serve
    (N, left), so re-phasing it is refused: also under the 4-phase label it
    carries, which its own phases do not make canonical."""
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    (inter,) = doc["intersections"]
    inter["movements"] = [m for m in inter["movements"] if m["id"] != "n0_0:NL"]
    (nt,) = [m for m in inter["movements"] if m["id"] == "n0_0:NT"]
    nt["entering"].append("boundary:N0__n0_0#0")
    (road,) = [r for r in doc["roads"] if r["id"] == "boundary:N0__n0_0"]
    road["lanes"][0]["designation"] = ["through"]
    inter["phases"][2]["movements"] = ["n0_0:SL", "n0_0:ST"]
    path = tmp_path / "no-north-left.json"
    path.write_text(json.dumps(doc))
    flags = ["--network", str(path), "--demand", "uniform:0.1", "--episode-length", "60",
             "--seeds", "0"]
    assert main(["run", *flags]) == 0
    capsys.readouterr()
    assert main([*command, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err
    assert "n0_0: no movement for (N, left)" in err


@pytest.mark.parametrize(
    "entering, violation",
    [([], "movement has empty lane set"), (["nope#0"], "unknown lanes ['nope#0']")],
)
def test_movement_with_bad_lanes_exits_two(entering, violation, tmp_path, capsys):
    """The network still loads, so ``validate`` reports the movement."""
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    doc["intersections"][0]["movements"][0]["entering"] = entering
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--network", str(path), "--demand", "uniform:0.1",
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and violation in err


@pytest.mark.parametrize(
    "field, lanes, violation",
    [
        ("entering", ["boundary:N0__n0_0#1", "boundary:W0__n0_0#1"],
         "entering lanes not on one road ending here"),
        ("entering", ["n0_0__boundary:E0#1"], "entering lanes not on one road ending here"),
        ("exiting", ["n0_0__boundary:S0#0", "n0_0__boundary:E0#0"],
         "exiting lanes not on one road starting here"),
        ("exiting", ["boundary:E0__n0_0#0"], "exiting lanes not on one road starting here"),
    ],
    ids=["entering-two-roads", "entering-a-leaving-road", "exiting-two-roads",
         "exiting-an-arriving-road"],
)
def test_movement_across_roads_exits_two(field, lanes, violation, tmp_path, capsys):
    """The engine moves a movement's vehicles off the road of its first
    entering lane onto the road of its first exiting lane, so every lane
    of a side must lie on that one road, at this intersection."""
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    movement = doc["intersections"][0]["movements"][0]  # n0_0:NT
    assert movement["id"] == "n0_0:NT"
    movement[field] = lanes
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--network", str(path), "--demand", "uniform:0.1",
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and violation in err


@pytest.mark.parametrize("ids", [[1, 2, 3, 4], [1, 0, 2, 3]])
def test_phase_ids_other_than_their_positions_exit_two(ids, tmp_path, capsys):
    """The engine and the fixed-time cycle take a phase's id as its
    position: ids 1..4 made fixedtime fail, and ids [1, 0, 2, 3] made it
    cycle in id order while the engine served phases by position."""
    doc = network_to_dict(build_grid(1, 1, 300.0, 300.0))
    for phase, pid in zip(doc["intersections"][0]["phases"], ids):
        phase["id"] = pid
    path = tmp_path / "renumbered.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--network", str(path), "--controller", "fixedtime",
                 "--demand", "uniform:0.1", "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "is not its position" in err


@pytest.mark.parametrize(
    "grid, field, lane, controller, violation",
    [
        ((1, 1), "entering_lanes", "nowhere#0", "rl", "unknown entering lane nowhere#0"),
        ((1, 1), "exiting_lanes", "nowhere#0", "mp", "unknown exiting lane nowhere#0"),
        ((2, 2), "entering_lanes", "n1_1__n0_1#0", "rl",
         "entering lane n1_1__n0_1#0 not on a road ending here"),
        ((2, 2), "exiting_lanes", "n1_1__n0_1#0", "mp",
         "exiting lane n1_1__n0_1#0 not on a road starting here"),
    ],
    ids=["entering-unknown", "exiting-unknown", "entering-elsewhere", "exiting-elsewhere"],
)
def test_intersection_lane_sets_off_its_roads_exit_two(
    grid, field, lane, controller, violation, tmp_path, capsys
):
    """Pressure and the learner's features read an intersection's own
    entering and exiting lane sets: an unknown lane failed the run with a
    KeyError, and a lane of another intersection's road entered n0_0's
    reward."""
    doc = network_to_dict(build_grid(*grid, 300.0, 300.0))
    inter = doc["intersections"][0]
    assert inter["id"] == "n0_0"
    inter[field].append(lane)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--network", str(path), "--controller", controller,
                 "--demand", "uniform:0.1", "--episode-length", "60", "--seeds", "0",
                 "--episodes", "1", "--eval-episodes", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and violation in err


def _drop_start(path):
    flows = json.loads(path.read_text())
    del flows[0]["start_s"]
    path.write_text(json.dumps(flows))


def _drop_phase_scheme(path):
    doc = json.loads(path.read_text())
    del doc["phase_scheme"]
    path.write_text(json.dumps(doc))


def _route_flow(path, route):
    save_flows([FlowSpec(route, start_s=1.0, end_s=100.0, headway_s=5.0)], path)


def _add_unused_road(path):
    doc = json.loads(path.read_text())
    doc["roads"].append({**doc["roads"][0], "id": "boundary:X__n0_0", "from": "boundary:X"})
    path.write_text(json.dumps(doc))


# each repeats an entry of the 1x1 grid file, or writes a lane index as text
_NETWORK_EDITS = {
    "network-with-repeated-road": lambda doc: doc["roads"].append(doc["roads"][0]),
    "network-with-repeated-intersection":
        lambda doc: doc["intersections"].append(doc["intersections"][0]),
    "network-with-repeated-movement":
        lambda doc: doc["intersections"][0]["movements"].append(
            doc["intersections"][0]["movements"][0]),
    "network-with-text-lane-index": lambda doc: doc["roads"][0]["lanes"][0].update(index="0"),
}


@pytest.mark.parametrize(
    "case",
    ["flow-without-start", "flow-with-unknown-road", "flow-with-unlinked-roads",
     "network-without-phase-scheme", "network-not-json", "network-missing",
     "network-with-unused-road", *_NETWORK_EDITS],
)
def test_malformed_input_exits_two(case, grid_file, flows_file, capsys):
    if case in _NETWORK_EDITS:
        doc = json.loads(grid_file.read_text())
        _NETWORK_EDITS[case](doc)
        grid_file.write_text(json.dumps(doc))
    elif case == "flow-without-start":
        _drop_start(flows_file)
    elif case == "flow-with-unknown-road":
        _route_flow(flows_file, ("no_such_road", "n0_0__boundary:E0"))
    elif case == "flow-with-unlinked-roads":  # a U-turn, which no movement makes
        _route_flow(flows_file, ("boundary:W0__n0_0", "n0_0__boundary:W0"))
    elif case == "network-without-phase-scheme":
        _drop_phase_scheme(grid_file)
    elif case == "network-with-unused-road":
        _add_unused_road(grid_file)
    elif case == "network-not-json":
        grid_file.write_text("{not json")
    else:
        grid_file.unlink()
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err


def test_sweep_t_duration(grid_file, flows_file, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--network", str(grid_file), "--flows", str(flows_file),
                 "--param", "t_duration", "--values", "10,15",
                 "--controllers", "mp,fixedtime", "--episode-length", "300",
                 "--seeds", "0", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[t_duration=10.0]" in out and "[t_duration=15.0]" in out
    assert (out_dir / "summary.csv").exists()


def test_sweep_rejects_bad_phase_values(grid_file, flows_file, capsys):
    code = main(["sweep", "--network", str(grid_file), "--flows", str(flows_file),
                 "--param", "phases", "--values", "4,6", "--seeds", "0"])
    assert code == 2
    assert "4 or 8" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", (("state", "ep,bogus"), ("t_duration", "10,x")))
def test_sweep_rejects_unparsable_values(grid_file, flows_file, param, values, capsys):
    code = main(["sweep", "--network", str(grid_file), "--flows", str(flows_file),
                 "--param", param, "--values", values, "--seeds", "0"])
    assert code == 2
    assert f"bad --values for {param}" in capsys.readouterr().err


def test_state_sweep_over_classical_controllers_exits_2(grid_file, flows_file, tmp_path, capsys):
    out_dir = tmp_path / "copies"
    code = main(["sweep", "--network", str(grid_file), "--flows", str(flows_file),
                 "--param", "state", "--values", "nv,ep", "--controllers", "mp,fixedtime",
                 "--seeds", "0", "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "state sweep" in err and "mp, fixedtime" in err
    assert not out_dir.exists()


def _detail_rows(out_dir):
    with open(out_dir / "detail.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_sweep_over_two_demands_equals_two_single_demand_sweeps(grid_file, tmp_path):
    demands = ("uniform:0.08", "asymmetric:0.12,0.04")
    common = ["sweep", "--network", str(grid_file), "--param", "phases",
              "--values", "4,8", "--controllers", "mp,efficient-mp",
              "--episode-length", "300", "--seeds", "0,1"]
    assert main([*common, "--demand", *demands, "--out", str(tmp_path / "both")]) == 0
    expected = []
    for i, demand in enumerate(demands):
        out_dir = tmp_path / f"single{i}"
        assert main([*common, "--demand", demand, "--out", str(out_dir)]) == 0
        rows = _detail_rows(out_dir)
        # a lone profile keeps the network file's stem as the scenario label
        assert {r[0] for r in rows} == {"grid[phases=4]", "grid[phases=8]"}
        for label, *values in rows:
            expected.append([label.replace("grid[", f"grid[demand={demand}][", 1), *values])
    assert len(expected) == 16
    assert sorted(_detail_rows(tmp_path / "both")) == sorted(expected)


def test_sweep_without_param_runs_a_plain_matrix(grid_file, flows_file, tmp_path):
    flags = ["--network", str(grid_file), "--flows", str(flows_file),
             "--episode-length", "300", "--seeds", "0,1"]
    plain = tmp_path / "plain"
    assert main(["sweep", *flags, "--controllers", "mp,fixedtime",
                 "--out", str(plain)]) == 0
    rows = _detail_rows(plain)
    assert sorted((r[0], r[1], r[2]) for r in rows) == [
        ("grid", c, s) for c in ("fixedtime", "mp") for s in ("0", "1")
    ]
    single = tmp_path / "run"
    assert main(["run", *flags, "--controller", "mp", "--out", str(single)]) == 0
    assert [r for r in rows if r[1] == "mp"] == _detail_rows(single)


@pytest.mark.parametrize("half", (["--param", "phases"], ["--values", "4,8"]))
def test_sweep_param_and_values_go_together(grid_file, flows_file, half, capsys):
    code = main(["sweep", "--network", str(grid_file), "--flows", str(flows_file),
                 "--seeds", "0", *half])
    assert code == 2
    assert "--param and --values" in capsys.readouterr().err


def test_repeated_demand_profile_exits_two(grid_file, capsys):
    code = main(["run", "--network", str(grid_file),
                 "--demand", "uniform:0.1", "uniform:0.1"])
    assert code == 2
    assert "given twice" in capsys.readouterr().err


def test_env_var_holds_several_demand_profiles(grid_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PRESSIM_DEMAND", "uniform:0.05 uniform:0.1")
    out_dir = tmp_path / "env"
    assert main(["run", "--network", str(grid_file), "--controller", "fixedtime",
                 "--episode-length", "120", "--seeds", "0", "--out", str(out_dir)]) == 0
    assert [r[0] for r in _detail_rows(out_dir)] == [
        "grid[demand=uniform:0.05]", "grid[demand=uniform:0.1]"
    ]


def test_readme_experiment_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    commands = [
        shlex.split(line)
        for line in section.replace("\\\n", " ").splitlines()
        if line.startswith("pressim ")
    ]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    assert [argv[1] for argv in commands].count("sweep") == 5


def test_env_vars_supply_missing_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("PRESSIM_ROWS", "2")
    monkeypatch.setenv("PRESSIM_COLS", "3")
    path = tmp_path / "env_grid.json"
    code = main(["gen-grid", "--ew-m", "300", "--sn-m", "300", "--out", str(path)])
    assert code == 0
    assert len(load_network(path).intersections) == 6


def test_explicit_flags_beat_env_vars(tmp_path, monkeypatch):
    monkeypatch.setenv("PRESSIM_ROWS", "3")
    monkeypatch.setenv("PRESSIM_COLS", "3")
    path = tmp_path / "explicit.json"
    code = main(["gen-grid", "--rows", "1", "--cols", "1",
                 "--ew-m", "300", "--sn-m", "300", "--out", str(path)])
    assert code == 0
    assert len(load_network(path).intersections) == 1


def test_env_var_with_bad_choice_exits_two(grid_file, flows_file, monkeypatch, capsys):
    monkeypatch.setenv("PRESSIM_STATE", "fancy")
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file)])
    assert code == 2
    assert "PRESSIM" not in capsys.readouterr().out  # message goes to stderr


def test_env_var_changes_t_duration(grid_file, flows_file, tmp_path, monkeypatch):
    def run(out):
        return main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                     "--controller", "fixedtime", "--episode-length", "300",
                     "--seeds", "0", "--out", str(out)])

    assert run(tmp_path / "a") == 0
    monkeypatch.setenv("PRESSIM_T_DURATION", "10")
    assert run(tmp_path / "b") == 0
    decisions = []
    for name in ("a", "b"):
        rows = (tmp_path / name / "detail.csv").read_text().splitlines()
        decisions.append(int(rows[1].split(",")[8]))
    assert decisions[1] > decisions[0]


def _child_env() -> dict:
    """The environment of a child that imports the pressim these tests
    import, installed or not."""
    src = str(Path(pressim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_console_entry_point(tmp_path):
    path = tmp_path / "sub_grid.json"
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "pressim.cli", "gen-grid", "--rows", "1", "--cols", "2",
         "--ew-m", "300", "--sn-m", "300", "--out", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2 intersections" in proc.stdout


def test_python_dash_m_pressim(grid_file):
    def pressim(*args):
        return subprocess.run([sys.executable, "-m", "pressim", *args],
                              capture_output=True, text=True, env=_child_env())

    proc = pressim("--help")
    assert proc.returncode == 0, proc.stderr
    assert "gen-grid" in proc.stdout
    for value in ("inf", "nan"):
        proc = pressim("run", "--network", str(grid_file), "--demand", "uniform:0.1",
                       "--controller", "mp", "--episode-length", value)
        assert proc.returncode == 2, proc.stderr
        assert "episode_length must be positive and finite" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_t_duration_exits_2(grid_file, capsys, value):
    args = ["run", "--network", str(grid_file), "--demand", "uniform:0.1",
            "--controller", "mp", "--episode-length", "120", "--t-duration", value]
    assert main(args) == 2
    assert "t_duration must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--ew-m", "nan"), ("--sn-m", "nan"), ("--speed", "nan"), ("--ew-m", "inf"),
     ("--ew-m", "0"), ("--speed", "-1"), ("--rows", "0"), ("--cols", "0")],
)
def test_bad_grid_input_exits_2(tmp_path, capsys, flag, value):
    args = {"--rows": "1", "--cols": "1", "--ew-m": "300", "--sn-m": "300"}
    args[flag] = value
    out = tmp_path / "g.json"
    code = main(["gen-grid", *(x for kv in args.items() for x in kv), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("length_m", "nan"), ("speed_mps", "inf")])
def test_network_file_with_non_finite_road_exits_2(grid_file, capsys, field, value):
    doc = json.loads(grid_file.read_text())
    doc["roads"][0][field] = float(value)
    grid_file.write_text(json.dumps(doc))
    code = main(["run", "--network", str(grid_file), "--demand", "uniform:0.1",
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "positive and finite" in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
@pytest.mark.parametrize("command", ["run", "sweep", "gen-demand"])
def test_non_finite_demand_rate_exits_2(grid_file, tmp_path, capsys, command, rate):
    if command == "gen-demand":
        args = ["gen-demand", "--network", str(grid_file), "--profile", f"uniform:{rate}",
                "--out", str(tmp_path / "flows.json")]
    else:
        args = [command, "--network", str(grid_file), "--demand", f"uniform:{rate}",
                "--episode-length", "60", "--seeds", "0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "demand rates" in err
    assert "FAILED cell" not in err


@pytest.mark.parametrize(
    "field, value", [("headway_s", "nan"), ("headway_s", "inf"), ("start_s", "nan"),
                     ("end_s", "nan"), ("end_s", "inf")],
)
def test_non_finite_flow_field_exits_2(grid_file, flows_file, capsys, field, value):
    flows = json.loads(flows_file.read_text())
    flows[0][field] = float(value)
    flows_file.write_text(json.dumps(flows))
    code = main(["run", "--network", str(grid_file), "--flows", str(flows_file),
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "flow[0]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("start, headway", [(-3600.0, 1.0), (-1e-6, 2.0)])
def test_negative_flow_start_exits_2(grid_file, tmp_path, capsys, start, headway):
    """A release requested before 0 s has no tick to go out on: the flow
    file is rejected before any vehicle is made."""
    flows = tmp_path / "early.json"
    flows.write_text(json.dumps([{"route": ["boundary:W0__n0_0", "n0_0__boundary:E0"],
                                  "start_s": start, "end_s": 60.0, "headway_s": headway}]))
    code = main(["run", "--network", str(grid_file), "--flows", str(flows),
                 "--episode-length", "60", "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "flow[0]: start_s before 0 s" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "start, headway, requested",
    [(1.5, 2.0, 300), (1.0, 2.5, 240), (1.0, 0.4, 1498), (0.0, 2.0, 301)],
)
def test_off_grid_flow_releases_every_requested_vehicle(grid_file, tmp_path, start, headway,
                                                         requested):
    """On the default one-second tick, a flow whose start or headway is off
    the tick grid releases each requested vehicle on the first tick at or
    after its time (several on one tick when the headway is shorter than
    the tick, and the one at 0 s on tick 1); ``spawned`` counts blocked
    releases too."""
    flows = tmp_path / "off_grid.json"
    save_flows([FlowSpec(("boundary:W0__n0_0", "n0_0__boundary:E0"), start, 600.0, headway)],
               flows)
    out_dir = tmp_path / "out"
    code = main(["run", "--network", str(grid_file), "--flows", str(flows),
                 "--controller", "fixedtime", "--episode-length", "600", "--seeds", "0",
                 "--out", str(out_dir)])
    assert code == 0
    with open(out_dir / "detail.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["spawned"]) == requested


@pytest.mark.parametrize("seeds", ["-1", "0,-3"])
def test_negative_seed_exits_2(grid_file, monkeypatch, capsys, seeds):
    args = ["run", "--network", str(grid_file), "--demand", "uniform:0.1",
            "--episode-length", "60"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seeds", seeds])
    assert exc.value.code == 2
    assert "seeds must be non-negative" in capsys.readouterr().err
    monkeypatch.setenv("PRESSIM_SEEDS", seeds)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "seeds must be non-negative" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(grid_file, capsys, jobs):
    code = main(["run", "--network", str(grid_file), "--demand", "uniform:0.1",
                 "--episode-length", "60", "--seeds", "0", "--jobs", jobs])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "jobs must be at least 1" in err
