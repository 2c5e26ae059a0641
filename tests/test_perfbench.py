"""The benchmark's traced run against the library it patches."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pressim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# One traced fixed-time episode; prints the layer metrics next to what the
# run counts itself. Phase changes are counted by a wrapper that compares
# each decision with the phase showing when the controller observed.
_TRACED_RUN = textwrap.dedent("""
    import json

    import spans
    from pressim import SimConfig, Simulation, build_grid, make_controllers
    from pressim.bench import Uniform, generate_synthetic_demand

    class Changes:
        def __init__(self, inner):
            self.inner, self.t_duration, self.count = inner, inner.t_duration, 0

        def observe(self, state, net, intersection):
            self.showing = state.signals[intersection].active
            return self.inner.observe(state, net, intersection)

        def decide(self, observation, intersection):
            phase = self.inner.decide(observation, intersection)
            self.count += phase != self.showing
            return phase

    recorder = spans.Recorder()
    spans.instrument(recorder)
    with recorder.operation(1):
        net = build_grid(1, 1, 300.0, 300.0)
        flows = generate_synthetic_demand(net, Uniform(0.1), 0, 300.0)
        sim = Simulation(net, flows, SimConfig(episode_length=300.0))
        (iid, ctrl), = make_controllers(net, "fixedtime").items()
        changes = Changes(ctrl)
        sim.run({iid: changes})
    c = sim.state.counters
    print(json.dumps({
        "layers": recorder.layer_metrics(1),
        "own": {
            "control.phase_changes": changes.count,
            "control.decisions": c.decisions,
            "sim.vehicles_spawned": c.spawned,
            "sim.vehicles_blocked": c.blocked,
            "sim.vehicles_finished": c.finished,
            "sim.intersection_ticks": 300,
        },
    }))
""")


def test_traced_hooks_count_what_the_run_counts():
    """``perfbench/spans.py`` wraps ``Simulation.__init__``, ``run`` and
    ``set_phase`` and reads ``transition`` to count phase changes. It
    patches modules, so it runs in a child process."""
    src = str(Path(pressim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PERFBENCH), src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    own = out["own"]
    assert {name: out["layers"][name] for name in own} == own
    assert own["control.phase_changes"] == own["control.decisions"] > 0
    assert own["sim.vehicles_spawned"] > 0
