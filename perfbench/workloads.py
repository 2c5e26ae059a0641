"""The benchmark's three workloads.

Each workload builds every input from the seed in its constructor (set-up),
runs one operation per call to ``operation`` (the timed part) and turns the
operation's output into an ``Outcome`` in ``check`` (untimed). An outcome's
fingerprint holds the behaviour an operation must reproduce on every
repeat: a digest or hash and the exact simulated counts.

The library is called through module attributes (``network.build_grid``,
not a name imported from it), so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from pressim import bench, cli, control, network, rl, sim


@dataclass
class Outcome:
    episodes: int  # simulated episodes the operation completed
    intersection_ticks: int  # intersections x simulated ticks, summed over them
    fingerprint: dict
    problems: list[str]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ticks(config: sim.SimConfig) -> int:
    return round(config.episode_length / config.tick)


class Engine8x8:
    """One congested 3600 s efficient-mp episode on an 8x8 grid."""

    def __init__(self, seed: int, work_dir: Path):
        self.net = network.build_grid(8, 8, 300, 300)
        self.flows = bench.generate_synthetic_demand(
            self.net, bench.Asymmetric(0.1, 0.05), seed, 3600.0
        )
        self.config = sim.SimConfig(episode_length=3600.0, seed=seed)

    def operation(self) -> sim.Simulation:
        controllers = control.make_controllers(self.net, "efficient-mp")
        return bench.run_episode(self.net, self.flows, self.config, controllers)

    def check(self, s: sim.Simulation) -> Outcome:
        terms = s.conservation_terms()
        problems = []
        if terms["spawned"] != (
            terms["finished"] + terms["in_transit"] + terms["queued"] + terms["blocked"]
        ):
            problems.append(f"vehicle conservation broken: {terms}")
        return Outcome(
            episodes=1,
            intersection_ticks=round(s.state.clock / s.config.tick)
            * len(self.net.intersections),
            fingerprint={
                "state_digest": s.state_digest(),
                **terms,
                "decisions": s.state.counters.decisions,
            },
            problems=problems,
        )


class Train2x2:
    """One ten-episode Q-learner training call on a 2x2 grid."""

    def __init__(self, seed: int, work_dir: Path):
        self.net = network.build_grid(2, 2, 300, 300)
        self.flows = bench.generate_synthetic_demand(
            self.net, bench.Uniform(0.08), seed, 600.0
        )
        self.config = rl.QLearnerConfig(episodes=10, seed=seed)
        self.sim_config = sim.SimConfig(episode_length=600.0, seed=seed)
        self.params_path = work_dir / "params.json"

    def operation(self) -> tuple[rl.LearningAgent, list[bench.RunReport]]:
        return rl.train(self.net, self.flows, self.config, sim_config=self.sim_config)

    def check(self, trained: tuple[rl.LearningAgent, list[bench.RunReport]]) -> Outcome:
        agent, reports = trained
        problems = []
        if not agent.losses:
            problems.append("training took no learn step")
        if not all(math.isfinite(loss) for loss in agent.losses):
            problems.append("a TD loss is not finite")
        rl.save_parameters(agent, self.params_path)
        return Outcome(
            episodes=len(reports),
            intersection_ticks=len(reports)
            * _ticks(self.sim_config)
            * len(self.net.intersections),
            fingerprint={
                "params_sha256": _sha256(self.params_path),
                "learn_steps": len(agent.losses),
                "spawned": sum(r.spawned for r in reports),
                "blocked": sum(r.blocked_spawns for r in reports),
                "finished": sum(r.throughput for r in reports),
                "decisions": sum(r.decisions for r in reports),
            },
            problems=problems,
        )


class Matrix2x2:
    """One in-process ``pressim sweep``: 2 phase schemes x 3 controllers x
    10 seeds of light, peaked 600 s traffic on a 2x2 grid file."""

    CONTROLLERS = ("fixedtime", "mp", "efficient-mp")
    PHASES = (4, 8)
    EPISODE_LENGTH = 600.0

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.net = network.build_grid(2, 2, 300, 300)
        network_path = work_dir / "grid-2x2.json"
        network.save_network(self.net, network_path)
        seeds = random.Random(seed).sample(range(1_000_000), 10)
        self.cells = len(self.PHASES) * len(self.CONTROLLERS) * len(seeds)
        self.argv = [
            "sweep",
            "--network", str(network_path),
            "--demand", "peaked:0.03,0.1,200-400",
            "--episode-length", str(self.EPISODE_LENGTH),
            "--param", "phases",
            "--values", ",".join(map(str, self.PHASES)),
            "--controllers", ",".join(self.CONTROLLERS),
            "--seeds", ",".join(map(str, seeds)),
            "--jobs", "1",
        ]
        self._runs = 0

    def operation(self) -> tuple[int, Path]:
        self._runs += 1
        out = self.work_dir / f"sweep-{self._runs}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*self.argv, "--out", str(out)])
        return code, out

    def check(self, swept: tuple[int, Path]) -> Outcome:
        code, out = swept
        problems = [] if code == 0 else [f"sweep exited with {code}"]
        detail = out / "detail.csv"
        with open(detail, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.cells:
            problems.append(f"detail.csv has {len(rows)} rows, expected {self.cells}")
        fingerprint = {
            "detail_sha256": _sha256(detail),
            "summary_sha256": _sha256(out / "summary.csv"),
            "cells": len(rows),
        }
        for column in ("spawned", "blocked_spawns", "throughput", "decisions"):
            fingerprint[column] = sum(int(r[column]) for r in rows)
        shutil.rmtree(out)
        return Outcome(
            episodes=len(rows),
            intersection_ticks=len(rows)
            * _ticks(sim.SimConfig(episode_length=self.EPISODE_LENGTH))
            * len(self.net.intersections),
            fingerprint=fingerprint,
            problems=problems,
        )


WORKLOADS = {
    "engine-8x8": Engine8x8,
    "train-2x2": Train2x2,
    "matrix-2x2": Matrix2x2,
}
