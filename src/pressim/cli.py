"""Command-line front end.

Subcommands: ``run`` (one controller-vs-scenario matrix), ``gen-grid``
(write a grid network file), ``gen-demand`` (write a flow file from a
synthetic profile), and ``sweep`` (several controllers, optionally swept
over t_duration, state representation, or phase scheme). ``--demand`` takes
one or more profiles, each one scenario.

Every flag can also be supplied through an environment variable named after
it with the ``PRESSIM_`` prefix (``--t-duration`` becomes
``PRESSIM_T_DURATION``); explicit flags win over the environment. A flag
taking several values reads them space-separated (``PRESSIM_DEMAND``).

Exit codes: 0 when every cell succeeded, 1 when any cell failed, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from pressim.bench import (
    SWEEP_VALUES,
    ControllerSpec,
    ExperimentPlan,
    Scenario,
    Sweep,
    generate_synthetic_demand,
    parse_demand_spec,
    run_experiment,
)
from pressim.control import ControllerConfig
from pressim.network import (
    PhaseScheme,
    RoadNetwork,
    build_grid,
    load_network,
    save_network,
    with_phase_scheme,
)
from pressim.pressure import RewardKind, StateKind
from pressim.sim import ConfigurationError, SimConfig, load_flows, save_flows, validate_flows

ENV_PREFIX = "PRESSIM_"

CONTROLLER_CHOICES = ("fixedtime", "mp", "efficient-mp", "rl")
STATE_CHOICES = tuple(k.value for k in StateKind)
REWARD_CHOICES = tuple(k.value for k in RewardKind)


def _env_value(flag: str) -> Optional[str]:
    name = ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
    return os.environ.get(name)


def _add(
    parser: argparse.ArgumentParser,
    flag: str,
    *,
    type: Callable = str,
    default=None,
    choices: Optional[Sequence] = None,
    required: bool = False,
    nargs: Optional[str] = None,
    help: str = "",
) -> None:
    """add_argument with an environment-variable fallback for the default."""
    env = _env_value(flag)
    if env is not None:
        try:
            default = [type(v) for v in env.split()] if nargs else type(env)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigurationError(f"bad value for {flag} in environment: {exc}")
        if choices is not None and default not in choices:
            raise ConfigurationError(
                f"environment value {default!r} for {flag} not in {list(choices)}"
            )
        required = False
    parser.add_argument(
        flag, type=type, default=default, choices=choices, required=required,
        nargs=nargs, help=help,
    )


def _seeds(text: str) -> tuple[int, ...]:
    seeds = tuple(int(v) for v in text.split(",") if v != "")
    if any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError("seeds must be non-negative")
    return seeds


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _load_net(args) -> RoadNetwork:
    net = load_network(args.network)
    try:
        net.lane_table  # built only once validate passes
    except ConfigurationError as exc:
        raise ConfigurationError(f"{args.network}: {exc}") from None
    if getattr(args, "phases", None) is not None:
        net = with_phase_scheme(net, PhaseScheme(f"{args.phases}-phase"))
    return net


def _scenarios(args) -> tuple[Scenario, ...]:
    """One scenario per demand profile, or one over the flow file, whose
    routes must fit the network. A lone scenario is named after the network
    file; several add their profile."""
    net = _load_net(args)
    sim = SimConfig(episode_length=args.episode_length)
    name = Path(args.network).stem
    if args.flows and args.demand:
        raise ConfigurationError("give either --flows or --demand, not both")
    if args.flows:
        flows = load_flows(args.flows)
        problems = validate_flows(net, flows)
        if problems:
            raise ConfigurationError(f"{args.flows}: " + "; ".join(problems[:5]))
        return (Scenario(id=name, net=net, sim=sim, flows=tuple(flows)),)
    if not args.demand:
        raise ConfigurationError("a scenario needs --flows or --demand")
    if len(set(args.demand)) < len(args.demand):
        raise ConfigurationError("a --demand profile is given twice")
    return tuple(
        Scenario(
            id=name if len(args.demand) == 1 else f"{name}[demand={spec}]",
            net=net,
            sim=sim,
            demand=parse_demand_spec(spec),
        )
        for spec in args.demand
    )


def _controller_spec(name: str, args) -> ControllerSpec:
    control = ControllerConfig(t_duration=args.t_duration)
    if name == "rl":
        from pressim.rl import QLearnerConfig

        learner = QLearnerConfig(
            episodes=args.episodes,
            eval_episodes=min(args.eval_episodes, args.episodes),
            state_kind=StateKind(args.state),
            reward_kind=RewardKind(args.reward),
        )
        return ControllerSpec(name=name, control=control, learner=learner)
    if name not in CONTROLLER_CHOICES:
        raise ConfigurationError(f"unknown controller {name!r}")
    return ControllerSpec(name=name, control=control)


def _execute(plan: ExperimentPlan) -> int:
    result = run_experiment(plan)
    print(result.summary_text, end="")
    if result.detail_path is not None:
        print(f"detail: {result.detail_path}")
        print(f"summary: {result.summary_path}")
    if result.failures:
        for f in result.failures:
            print(
                f"FAILED cell {f.scenario} / {f.controller} / seed {f.seed}:\n{f.error}",
                file=sys.stderr,
            )
        return 1
    return 0


# -- subcommands ------------------------------------------------------------


def cmd_run(args) -> int:
    plan = ExperimentPlan(
        scenarios=_scenarios(args),
        controllers=(_controller_spec(args.controller, args),),
        seeds=args.seeds,
        out_dir=args.out,
        jobs=args.jobs,
    )
    return _execute(plan)


def _sweep(args) -> Optional[Sweep]:
    if (args.param is None) != (args.values is None):
        raise ConfigurationError("give --param and --values together, or neither")
    if args.param is None:
        return None
    try:
        return Sweep(param=args.param, values=tuple(args.values.split(",")))
    except ConfigurationError as exc:  # "<param> sweep: <why>"
        raise ConfigurationError(f"bad --values for {exc}") from None


def cmd_sweep(args) -> int:
    plan = ExperimentPlan(
        scenarios=_scenarios(args),
        controllers=tuple(_controller_spec(n, args) for n in args.controllers),
        seeds=args.seeds,
        sweep=_sweep(args),
        out_dir=args.out,
        jobs=args.jobs,
    )
    return _execute(plan)


def cmd_gen_grid(args) -> int:
    net = build_grid(
        args.rows,
        args.cols,
        args.ew_m,
        args.sn_m,
        PhaseScheme(f"{args.scheme}-phase"),
        speed_mps=args.speed,
        lanes_per_approach=args.lanes,
    )
    save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.intersections)} intersections, {len(net.roads)} roads")
    return 0


def cmd_gen_demand(args) -> int:
    net = _load_net(args)
    profile = parse_demand_spec(args.profile)
    flows = generate_synthetic_demand(net, profile, args.seed, args.horizon)
    save_flows(flows, args.out)
    print(f"wrote {args.out}: {len(flows)} flows")
    return 0


# -- parser -----------------------------------------------------------------


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--network", required=True, help="network file (JSON)")
    _add(p, "--flows", help="flow file; omit when using --demand")
    _add(p, "--demand", nargs="+",
         help="synthetic profiles, one scenario each, e.g. uniform:0.1 asymmetric:0.12,0.04")
    _add(p, "--phases", type=int, choices=(4, 8), help="override the phase scheme")
    _add(p, "--episode-length", type=float, default=3600.0)
    _add(p, "--t-duration", type=float, default=15.0, help="minimum green seconds")
    _add(p, "--state", default="ep", choices=STATE_CHOICES)
    _add(p, "--reward", default="pressure", choices=REWARD_CHOICES)
    _add(p, "--episodes", type=int, default=200, help="training episodes (rl)")
    _add(p, "--eval-episodes", type=int, default=10)
    _add(p, "--seeds", type=_seeds, default=(0, 1, 2))
    _add(p, "--out", help="output directory for CSV artifacts")
    _add(p, "--jobs", type=int, default=1, help="parallel cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressim",
        description="Queue-based traffic simulation with pressure-driven signal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one controller on each scenario")
    _scenario_flags(p_run)
    _add(p_run, "--controller", default="mp", choices=CONTROLLER_CHOICES)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run several controllers, optionally sweeping a parameter"
    )
    _scenario_flags(p_sweep)
    _add(p_sweep, "--param", choices=tuple(SWEEP_VALUES))
    _add(p_sweep, "--values", help="comma-separated sweep values; needs --param")
    _add(p_sweep, "--controllers", type=_str_list, default=("mp",))
    p_sweep.set_defaults(func=cmd_sweep)

    p_grid = sub.add_parser("gen-grid", help="write a grid network file")
    _add(p_grid, "--rows", type=int, required=True)
    _add(p_grid, "--cols", type=int, required=True)
    _add(p_grid, "--ew-m", type=float, required=True, help="east-west road length")
    _add(p_grid, "--sn-m", type=float, required=True, help="south-north road length")
    _add(p_grid, "--scheme", type=int, default=4, choices=(4, 8))
    _add(p_grid, "--lanes", type=int, default=3, choices=(1, 3))
    _add(p_grid, "--speed", type=float, default=10.0)
    _add(p_grid, "--out", required=True)
    p_grid.set_defaults(func=cmd_gen_grid)

    p_dem = sub.add_parser("gen-demand", help="write a flow file from a profile")
    _add(p_dem, "--network", required=True)
    _add(p_dem, "--profile", required=True, help="uniform:R | asymmetric:MAJ,MIN | peaked:BASE,PEAK,LO-HI")
    _add(p_dem, "--seed", type=int, default=0)
    _add(p_dem, "--horizon", type=float, default=3600.0)
    _add(p_dem, "--out", required=True)
    p_dem.set_defaults(func=cmd_gen_demand)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
