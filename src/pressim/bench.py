"""Scenario I/O, metrics, and the experiment harness.

A plan is a cartesian product of scenarios, controllers, seeds, and an
optional parameter sweep. Every cell runs in isolation (own simulation, own
agent) and yields one report per episode: classical controllers run a single
episode, the learning controller trains for its configured episode count.

Two CSV artifacts per run: a detail file with one row per episode, and a
pivoted summary (rows are controllers, columns are scenarios) whose entries
are seed-averaged travel times annotated with the percent delta against the
max-pressure controller's row. Wall-clock timings stay out of both files so
repeated runs of the same plan are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from pressim.control import Controller, ControllerConfig, make_controllers
from pressim.network import Compass, PhaseScheme, RoadNetwork, Turn, with_phase_scheme
from pressim.pressure import StateKind
from pressim.sim import (
    ConfigurationError,
    FlowSpec,
    SimConfig,
    Simulation,
    Vehicle,
)

# -- metrics ----------------------------------------------------------------


def average_travel_time(vehicles: Sequence[Vehicle], end_s: float) -> float:
    """Mean time from entry to exit; unfinished vehicles are charged up to
    ``end_s``, the clock the run stopped at. Zero vehicles give 0 (callers
    flag the run as empty)."""
    if not vehicles:
        return 0.0
    total = 0.0
    for v in vehicles:
        end = v.exit_time if v.exit_time is not None else end_s
        total += end - v.entry_time
    return total / len(vehicles)


@dataclass(frozen=True)
class RunReport:
    """One episode's row of ``detail.csv``: its fields are the columns."""

    scenario: str
    controller: str
    seed: int
    episode: int
    average_travel_time: float
    throughput: int
    max_total_queue: int
    blocked_spawns: int
    decisions: int
    spawned: int
    unfinished: int
    empty: bool


def report_from_sim(
    sim: Simulation,
    scenario: str,
    controller: str,
    seed: int,
    episode: int = 0,
) -> RunReport:
    c = sim.state.counters
    vehicles = list(sim.state.vehicles.values())
    att = average_travel_time(vehicles, sim.state.clock)
    return RunReport(
        scenario=scenario,
        controller=controller,
        seed=seed,
        episode=episode,
        average_travel_time=att,
        throughput=c.finished,
        max_total_queue=sim.state.max_total_queue,
        blocked_spawns=c.blocked,
        decisions=c.decisions,
        spawned=c.spawned,
        unfinished=c.spawned - c.blocked - c.finished,
        empty=not vehicles,
    )


def run_episode(
    net: RoadNetwork,
    flows: list[FlowSpec],
    sim_config: SimConfig,
    controllers: dict[str, Controller],
) -> Simulation:
    """One full episode with begin/end hooks called once per controller."""
    sim = Simulation(net, flows, sim_config)
    distinct = list({id(c): c for c in controllers.values()}.values())
    for c in distinct:
        c.begin_episode(sim)
    sim.run(controllers)
    for c in distinct:
        c.end_episode(sim)
    return sim


# -- synthetic demand -------------------------------------------------------


def _check_rates(*rates: float) -> None:
    if not all(0 < r <= 1.0 for r in rates):  # NaN fails it too
        raise ConfigurationError(
            "demand rates must be positive and at most 1 vehicle/s,"
            " what one entry lane admits per tick"
        )


@dataclass(frozen=True)
class Uniform:
    rate: float  # vehicles per second per route

    def __post_init__(self) -> None:
        _check_rates(self.rate)


@dataclass(frozen=True)
class Asymmetric:
    major_rate: float  # east-west entries
    minor_rate: float  # north-south entries

    def __post_init__(self) -> None:
        _check_rates(self.major_rate, self.minor_rate)


@dataclass(frozen=True)
class Peaked:
    base_rate: float
    peak_rate: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        _check_rates(self.base_rate, self.peak_rate)
        if self.peak_rate <= self.base_rate:
            raise ConfigurationError("peak_rate must exceed base_rate")
        lo, hi = self.window
        if not 0 <= lo < hi < math.inf:  # NaN fails it too
            raise ConfigurationError("peak window needs 0 <= start < end, both finite")


DemandProfile = Union[Uniform, Asymmetric, Peaked]


def _check_horizon(profile: DemandProfile, horizon_s: float) -> None:
    if not 0 < horizon_s < math.inf:  # NaN fails it too
        raise ConfigurationError("demand horizon must be positive and finite")
    if isinstance(profile, Peaked) and profile.window[1] > horizon_s:
        raise ConfigurationError("peak window must fit inside the horizon")


def _follow_through(net: RoadNetwork, next_by_turn: dict, road_id: str, first_turn: Turn):
    """Route from an entry road: take ``first_turn`` at the first junction,
    then continue straight until leaving the network. ``next_by_turn`` maps
    (road, turn) to the road the turn leads onto; None if a turn is missing."""
    route = [road_id]
    turn = first_turn
    while not net.terminal(route[-1]):
        nxt = next_by_turn.get((route[-1], turn))
        if nxt is None:
            return None
        route.append(nxt)
        turn = Turn.THROUGH
    return tuple(route)


def _route_rate(approach: Compass, profile: DemandProfile) -> float:
    """Base rate of a route entering on ``approach``; an east or west
    approach runs along the east-west axis."""
    if isinstance(profile, Uniform):
        return profile.rate
    if isinstance(profile, Asymmetric):
        ew = approach in (Compass.E, Compass.W)
        return profile.major_rate if ew else profile.minor_rate
    return profile.base_rate


def generate_synthetic_demand(
    net: RoadNetwork,
    profile: DemandProfile,
    seed: int,
    horizon_s: float = 3600.0,
) -> list[FlowSpec]:
    """Deterministic boundary-to-boundary flows for a grid.

    Each boundary entry road contributes three routes: straight across, left
    at the first junction then straight, and right at the first junction then
    straight. Headways are whole seconds (the realized rate is
    ``1/round(1/rate)``), so releases land on the one-second tick grid. The
    seed staggers each flow's first release within one headway so distinct
    seeds give distinct (but statistically identical) traffic; a flow whose
    first release falls past its end is left out, and the others keep their
    draws.
    """
    _check_horizon(profile, horizon_s)
    rng = np.random.default_rng(seed)
    flows: list[FlowSpec] = []
    next_by_turn = {(a, t): b for (a, b), t in net.turn_between.items()}
    # every route's first road is entered by some movement, which names its approach
    approach = {
        net.lane_index[l][0].id: m.approach
        for i in net.intersections for m in i.movements for l in m.entering
        if l in net.lane_index
    }
    for entry in net.entry_roads():
        for turn in (Turn.THROUGH, Turn.LEFT, Turn.RIGHT):
            route = _follow_through(net, next_by_turn, entry.id, turn)
            if route is None:
                continue
            rate = _route_rate(approach[entry.id], profile)
            headway = max(1.0, float(round(1.0 / rate)))
            offset = 1.0 + float(rng.integers(0, int(headway)))
            flows.append(
                FlowSpec(
                    route=route,
                    start_s=offset,
                    end_s=horizon_s,
                    headway_s=headway,
                )
            )
            if isinstance(profile, Peaked):
                extra = profile.peak_rate - profile.base_rate
                peak_headway = max(1.0, float(round(1.0 / extra)))
                peak_offset = profile.window[0] + 1.0 + float(
                    rng.integers(0, int(peak_headway))
                )
                flows.append(
                    FlowSpec(
                        route=route,
                        start_s=peak_offset,
                        end_s=profile.window[1],
                        headway_s=peak_headway,
                    )
                )
    return [f for f in flows if f.start_s <= f.end_s]


def parse_demand_spec(spec: str) -> DemandProfile:
    """Parse ``uniform:R``, ``asymmetric:MAJOR,MINOR``, or
    ``peaked:BASE,PEAK,START-END`` into a profile."""
    try:
        kind, _, args = spec.partition(":")
        parts = args.split(",") if args else []
        if kind == "uniform":
            (rate,) = parts
            return Uniform(float(rate))
        if kind == "asymmetric":
            major, minor = parts
            return Asymmetric(float(major), float(minor))
        if kind == "peaked":
            base, peak, window = parts
            lo, _, hi = window.partition("-")
            return Peaked(float(base), float(peak), (float(lo), float(hi)))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad demand spec {spec!r}: {exc}") from None
    raise ConfigurationError(f"unknown demand profile {spec!r}")


# -- experiment plans -------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    id: str
    net: RoadNetwork
    sim: SimConfig = field(default_factory=SimConfig)
    flows: Optional[tuple[FlowSpec, ...]] = None  # fixed demand
    demand: Optional[DemandProfile] = None  # regenerated per seed

    def __post_init__(self) -> None:
        if self.demand is not None:
            _check_horizon(self.demand, self.sim.episode_length)

    def flows_for_seed(self, seed: int) -> list[FlowSpec]:
        if self.flows is not None:
            return list(self.flows)
        if self.demand is not None:
            return generate_synthetic_demand(
                self.net, self.demand, seed, self.sim.episode_length
            )
        raise ConfigurationError(f"scenario {self.id}: no flows and no demand profile")


@dataclass(frozen=True)
class ControllerSpec:
    name: str  # fixedtime | mp | efficient-mp | rl
    label: Optional[str] = None
    control: ControllerConfig = field(default_factory=ControllerConfig)
    learner: Optional[object] = None  # QLearnerConfig for name == "rl"

    @property
    def display(self) -> str:
        return self.label or self.name


def _phase_count(value) -> int:
    if int(value) not in (4, 8):
        raise ConfigurationError("phase scheme values must be 4 or 8")
    return int(value)


#: How each sweep parameter reads a value; cell labels show the value read.
SWEEP_VALUES = {
    "t_duration": lambda value: ControllerConfig(float(value)).t_duration,
    "state": lambda value: StateKind(value).value,
    "phases": _phase_count,
}


@dataclass(frozen=True)
class Sweep:
    """One parameter over several values, read as ``SWEEP_VALUES`` says
    when the sweep is made, so a bad value fails before any cell runs."""

    param: str  # t_duration | state | phases
    values: tuple

    def __post_init__(self) -> None:
        read = SWEEP_VALUES.get(self.param)
        if read is None:
            raise ConfigurationError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        try:
            values = tuple(map(read, self.values))
        except (TypeError, ValueError) as exc:  # ConfigurationError too
            raise ConfigurationError(f"{self.param} sweep: {exc}") from None
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExperimentPlan:
    scenarios: tuple[Scenario, ...]
    controllers: tuple[ControllerSpec, ...]
    seeds: tuple[int, ...]
    sweep: Optional[Sweep] = None
    out_dir: Optional[str] = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.scenarios or not self.controllers or not self.seeds:
            raise ConfigurationError("experiment plan must not be empty")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        if self.sweep is not None and self.sweep.param == "state":
            classical = [spec.display for spec in self.controllers if spec.learner is None]
            if classical:
                raise ConfigurationError(
                    "a state sweep needs learning controllers; "
                    f"{', '.join(classical)} would repeat one cell per value"
                )


@dataclass(frozen=True)
class CellFailure:
    scenario: str
    controller: str
    seed: int
    error: str


# (scenario, controller, seed, value); None for a cell without vehicles
Cell = tuple[str, str, int, Optional[float]]


@dataclass
class ExperimentResult:
    reports: list[RunReport]
    cells: list[Cell]
    failures: list[CellFailure]
    detail_path: Optional[Path] = None
    summary_path: Optional[Path] = None
    summary_text: str = ""


def _apply_sweep(
    scenario: Scenario, spec: ControllerSpec, sweep: Optional[Sweep], value
) -> tuple[Scenario, ControllerSpec, str]:
    if sweep is None:
        return scenario, spec, scenario.id
    label = f"{scenario.id}[{sweep.param}={value}]"
    if sweep.param == "t_duration":
        control = dataclasses.replace(spec.control, t_duration=value)
        return scenario, dataclasses.replace(spec, control=control), label
    if sweep.param == "phases":
        net = with_phase_scheme(scenario.net, PhaseScheme(f"{value}-phase"))
        return dataclasses.replace(scenario, net=net), spec, label
    # state sweep: ExperimentPlan admits only learning controllers
    learner = dataclasses.replace(spec.learner, state_kind=StateKind(value))
    return scenario, dataclasses.replace(spec, learner=learner), label


# a (scenario, seed)'s flows, or the traceback of the failure to make them
Demand = Union[list[FlowSpec], str]


def _demand(scenario: Scenario, seed: int) -> Demand:
    try:
        return scenario.flows_for_seed(seed)
    except Exception:
        return traceback.format_exc(limit=10)


def _run_cell(
    args: tuple[Scenario, ControllerSpec, int, str, Demand, Optional[str]],
) -> tuple[list[RunReport], Optional[str], Optional[float]]:
    """Execute one cell on its demand; returns (episode reports, error, cell
    value). A cell whose every episode had no vehicles has no value."""
    scenario, spec, seed, label, flows, out_dir = args
    if isinstance(flows, str):  # the demand failed, and with it every cell on it
        return [], flows, None
    try:
        if spec.name == "rl":
            from pressim.rl import evaluation_travel_time, save_parameters, train

            learner = dataclasses.replace(spec.learner, seed=seed)
            agent, episodes = train(
                scenario.net,
                flows,
                learner,
                sim_config=scenario.sim,
                t_duration=spec.control.t_duration,
            )
            reports = [
                dataclasses.replace(r, scenario=label, controller=spec.display, seed=seed)
                for r in episodes
            ]
            if out_dir is not None:
                stem = f"params_{label}_{spec.display}_seed{seed}.json".replace("/", "-")
                save_parameters(agent, Path(out_dir) / stem)
            value = evaluation_travel_time(reports, learner.eval_episodes)
        else:
            controllers = make_controllers(scenario.net, spec.name, spec.control)
            sim = run_episode(scenario.net, flows, scenario.sim, controllers)
            reports = [report_from_sim(sim, label, spec.display, seed)]
            value = round(reports[0].average_travel_time, 6)
        return reports, None, None if all(r.empty for r in reports) else value
    except Exception:
        return [], traceback.format_exc(limit=10), None


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    sweep_values = plan.sweep.values if plan.sweep else (None,)
    jobs: list[tuple[Scenario, ControllerSpec, int, str, Demand, Optional[str]]] = []
    if plan.out_dir is not None:
        Path(plan.out_dir).mkdir(parents=True, exist_ok=True)
    for scenario in plan.scenarios:
        # no sweep changes a road or a route: a seed's flows serve all its cells
        demand = {seed: _demand(scenario, seed) for seed in plan.seeds}
        for value in sweep_values:
            sc = scenario
            for spec in plan.controllers:
                # a phases sweep re-phases the network for the value's first
                # controller; with_phase_scheme hands that network back as it is
                sc, sp, label = _apply_sweep(sc, spec, plan.sweep, value)
                for seed in plan.seeds:
                    jobs.append((sc, sp, seed, label, demand[seed], plan.out_dir))

    if plan.jobs > 1:
        with ProcessPoolExecutor(max_workers=plan.jobs) as pool:
            outcomes = list(pool.map(_run_cell, jobs))
    else:
        outcomes = [_run_cell(j) for j in jobs]

    result = ExperimentResult(reports=[], cells=[], failures=[])
    for (scenario, spec, seed, label, *_), (reports, error, value) in zip(jobs, outcomes):
        if error is not None:
            result.failures.append(
                CellFailure(label, spec.display, seed, error)
            )
            continue
        result.reports.extend(reports)
        result.cells.append((label, spec.display, seed, value))

    result.reports.sort(key=lambda r: (r.scenario, r.controller, r.seed, r.episode))
    result.cells.sort()
    result.summary_text = format_summary(result.cells)
    if plan.out_dir is not None:
        out = Path(plan.out_dir)
        result.detail_path = out / "detail.csv"
        result.summary_path = out / "summary.csv"
        write_detail_csv(result.reports, result.detail_path)
        write_summary_csv(result.cells, result.summary_path)
        if result.failures:
            _write_failures(result.failures, out / "failures.txt")
    return result


def _write_failures(failures: list[CellFailure], path: Path) -> None:
    with open(path, "w") as fh:
        for f in failures:
            fh.write(f"{f.scenario} / {f.controller} / seed {f.seed}\n{f.error}\n\n")


# -- CSV artifacts ----------------------------------------------------------

DETAIL_COLUMNS = tuple(f.name for f in dataclasses.fields(RunReport))


def _csv_value(value: object) -> object:
    """A flag as 0 or 1, a float to 6 places, the rest as it is."""
    if isinstance(value, bool):
        return int(value)
    return f"{value:.6f}" if isinstance(value, float) else value


def write_detail_csv(reports: Sequence[RunReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DETAIL_COLUMNS)
        for r in reports:
            w.writerow([_csv_value(getattr(r, c)) for c in DETAIL_COLUMNS])


BASELINE = "mp"


def _summary_table(
    cells: Sequence[Cell],
) -> tuple[list[str], list[str], dict[tuple[str, str], float]]:
    scenarios = sorted({c[0] for c in cells})
    controllers = sorted({c[1] for c in cells})
    # baseline row first, then the rest alphabetically
    if BASELINE in controllers:
        controllers = [BASELINE] + [c for c in controllers if c != BASELINE]
    grouped: dict[tuple[str, str], list[float]] = {}
    for scenario, controller, _, value in cells:
        if value is not None:  # a cell without vehicles has no travel time
            grouped.setdefault((controller, scenario), []).append(value)
    means = {k: float(np.mean(v)) for k, v in grouped.items()}
    return scenarios, controllers, means


def _format_cell(mean: float, base: Optional[float]) -> str:
    if base is None or base == 0:
        return f"{mean:.6f}"
    pct = (mean - base) / base * 100.0
    return f"{mean:.6f} ({pct:+.2f}%)"


def summary_rows(cells: Sequence[Cell]) -> list[list[str]]:
    """Pivot: one row per controller, one column per scenario; every entry
    is the seed-averaged travel time, others annotated with the percent
    delta against the max-pressure row."""
    scenarios, controllers, means = _summary_table(cells)
    have_baseline = BASELINE in controllers
    header = ["controller"] + scenarios
    if not have_baseline:
        header[0] = "controller (no mp baseline: deltas omitted)"
    rows = [header]
    for ctrl in controllers:
        row = [ctrl]
        for scenario in scenarios:
            mean = means.get((ctrl, scenario))
            if mean is None:
                row.append("")
                continue
            base = means.get((BASELINE, scenario)) if have_baseline else None
            row.append(_format_cell(mean, None if ctrl == BASELINE else base))
        rows.append(row)
    return rows


def write_summary_csv(cells: Sequence[Cell], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(summary_rows(cells))


def format_summary(cells: Sequence[Cell]) -> str:
    """Fixed-width console rendering of the summary pivot."""
    rows = summary_rows(cells)
    if len(rows) <= 1:
        return "(no completed cells)\n"
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = io.StringIO()
    for j, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        out.write(line.rstrip() + "\n")
        if j == 0:
            out.write("  ".join("-" * w for w in widths) + "\n")
    return out.getvalue()
