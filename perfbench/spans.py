"""Outside-in span recorder for the benchmark's traced run.

``instrument`` replaces public functions and methods of the pressim modules
with timing wrappers, from here: the library's source is untouched, and the
untraced run never imports this module. Spans stay in memory as
``(name, start, end, parent, op)`` tuples, where ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the operation id (0 is set-up),
and are written out once, at the end.

A layer's self time is its spans' durations minus the time their direct
child spans cover. Each per-layer value is the layer's set-up share plus its
mean share of one timed operation.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from pressim import bench, control, network, rl, sim

# span name -> the per-layer metric that takes its self time
SELF_TIME_METRIC = {
    "setup": "unattributed_s",
    "op": "unattributed_s",
    "network.build": "network.build_s",
    "network.load": "network.load_s",
    "sim.init": "sim.init_s",
    "sim.run": "sim.self_s",
    "pressure.observe": "pressure.observe_s",
    "control.decide": "control.decide_s",
    "rl.learn_step": "rl.learn_step_s",
    "rl.sample": "rl.sample_s",
    "rl.act": "rl.act_s",
    "bench.demand": "bench.demand_s",
    "bench.report": "bench.report_s",
    "bench.csv": "bench.csv_s",
    "bench.run": "bench.self_s",
}

# span name -> the per-layer metric that counts its calls
CALL_COUNT_METRIC = {
    "pressure.observe": "pressure.observe_calls",
    "control.decide": "control.decisions",
    "rl.learn_step": "rl.learn_steps",
    "rl.act": "rl.act_calls",
}

# every per-layer metric a traced run reports, layer by layer; the hooks in
# ``instrument`` count those that no span name maps to
LAYER_METRICS = (
    "network.build_s",
    "network.load_s",
    "sim.init_s",
    "sim.self_s",
    "sim.intersection_ticks",
    "sim.vehicles_spawned",
    "sim.vehicles_blocked",
    "sim.vehicles_finished",
    "pressure.observe_s",
    "pressure.observe_calls",
    "control.decide_s",
    "control.decisions",
    "control.phase_changes",
    "rl.learn_step_s",
    "rl.sample_s",
    "rl.act_s",
    "rl.learn_steps",
    "rl.act_calls",
    "bench.demand_s",
    "bench.report_s",
    "bench.csv_s",
    "bench.self_s",
    "bench.cells",
    "bench.cells_failed",
    "bench.csv_bytes",
    "unattributed_s",
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self._stack = [-1]
        self._counts: dict[tuple[str, bool], float] = defaultdict(float)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], self.op)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start)

        return traced

    @contextmanager
    def operation(self, op: int) -> Iterator[None]:
        """Root span of set-up (``op`` 0) or of one timed operation."""
        self.op = op
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, "setup" if op == 0 else "op", start)

    def count(self, metric: str, amount: float) -> None:
        self._counts[(metric, self.op == 0)] += amount

    def layer_metrics(self, operations: int) -> dict[str, float]:
        values = dict.fromkeys(LAYER_METRICS, 0.0)

        def add(metric: str, in_setup: bool, amount: float) -> None:
            values[metric] += amount if in_setup else amount / operations

        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, op), inner in zip(self.spans, covered):
            add(SELF_TIME_METRIC[name], op == 0, end - start - inner)
            if name in CALL_COUNT_METRIC:
                add(CALL_COUNT_METRIC[name], op == 0, 1)
        for (metric, in_setup), amount in self._counts.items():
            add(metric, in_setup, amount)
        return values

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _patch_function(module, attr: str, replacement: Callable) -> None:
    """Swap ``module.attr`` in every pressim module that holds it by name."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] == "pressim":
            if vars(mod).get(attr) is original:
                setattr(mod, attr, replacement)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def instrument(rec: Recorder) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken at."""
    for module, attr, name in (
        (network, "build_grid", "network.build"),
        (network, "load_network", "network.load"),
        (network, "validate", "network.load"),
        (rl, "learn_step", "rl.learn_step"),
        (rl, "act", "rl.act"),
        (bench, "generate_synthetic_demand", "bench.demand"),
        (bench, "report_from_sim", "bench.report"),
    ):
        _patch_function(module, attr, rec.wrap(getattr(module, attr), name))

    for attr in ("write_detail_csv", "write_summary_csv"):
        write = getattr(bench, attr)

        def write_counted(rows, path, write=write):
            write(rows, path)
            rec.count("bench.csv_bytes", os.path.getsize(path))

        _patch_function(bench, attr, rec.wrap(write_counted, "bench.csv"))

    run_experiment = bench.run_experiment

    def run_experiment_counted(plan):
        result = run_experiment(plan)
        rec.count("bench.cells", len(result.cells))
        rec.count("bench.cells_failed", len(result.failures))
        return result

    _patch_function(bench, "run_experiment", rec.wrap(run_experiment_counted, "bench.run"))

    simulation = sim.Simulation
    simulation.__init__ = rec.wrap(simulation.__init__, "sim.init")
    run, set_phase = simulation.run, simulation.set_phase

    def run_counted(self, controllers):
        c = self.state.counters
        clock, spawned, blocked, finished = self.state.clock, c.spawned, c.blocked, c.finished
        run(self, controllers)
        ticks = round((self.state.clock - clock) / self.config.tick)
        rec.count("sim.intersection_ticks", ticks * len(self.net.intersections))
        rec.count("sim.vehicles_spawned", c.spawned - spawned)
        rec.count("sim.vehicles_blocked", c.blocked - blocked)
        rec.count("sim.vehicles_finished", c.finished - finished)

    def set_phase_counted(self, intersection, phase):
        sig = self.state.signals[intersection]
        starts_transition = sig.transition is None and phase != sig.active
        set_phase(self, intersection, phase)
        if starts_transition:
            rec.count("control.phase_changes", 1)

    simulation.run = rec.wrap(run_counted, "sim.run")
    simulation.set_phase = set_phase_counted

    rl.ReplayBuffer.sample = rec.wrap(rl.ReplayBuffer.sample, "rl.sample")
    for cls in _subclasses(control.Controller):
        for attr, name in (("observe", "pressure.observe"), ("decide", "control.decide")):
            if attr in vars(cls):
                setattr(cls, attr, rec.wrap(vars(cls)[attr], name))
