"""Pinned end-of-episode state digests.

``test_determinism_digest`` only shows that a run repeats itself; these
pins show that it repeats the behaviour recorded here. A refactor or a
speed-up must leave every digest unchanged. A deliberate change to the
model's semantics re-pins them, and says why, in its own change.

The learner pins hash the saved parameters of short seeded training runs,
so they show that seeded training repeats bit for bit.

The engine scenarios are short, congested episodes: capacity gates, blocked
spawns, transitions and capacity races between movements all occur.
"""

from __future__ import annotations

import hashlib

import pytest

from pressim.bench import Asymmetric, Peaked, Uniform, generate_synthetic_demand, run_episode
from pressim.control import ControllerConfig, make_controllers
from pressim.network import PhaseScheme, build_grid
from pressim.pressure import RewardKind, StateKind
from pressim.rl import QLearnerConfig, save_parameters, train
from pressim.sim import FlowSpec, SimConfig, Simulation

_SCHEMES = {4: PhaseScheme.FOUR, 8: PhaseScheme.EIGHT}


def _digest(
    rows: int,
    cols: int,
    controller: str,
    phases: int,
    lanes: int,
    demand=Asymmetric(0.25, 0.125),
    episode_length: float = 300.0,
) -> str:
    net = build_grid(
        rows, cols, 150.0, 150.0, _SCHEMES[phases], lanes_per_approach=lanes
    )
    flows = generate_synthetic_demand(net, demand, 7, episode_length)
    config = SimConfig(episode_length=episode_length, lane_capacity=10)
    controllers = make_controllers(net, controller, ControllerConfig(t_duration=10.0))
    return run_episode(net, flows, config, controllers).state_digest()


# (rows, cols, controller, phases, lanes) -> digest
MATRIX = {
    (1, 1, "fixedtime", 4, 1): "11f114d23321ff1c860121843f6a4215d2208cb58f4927b013c16d5527a87916",
    (1, 1, "fixedtime", 4, 3): "5806f63918f53cedf179001b18542af902b87eb08a6bd209507b46fcd801bdba",
    (1, 1, "fixedtime", 8, 1): "26f3dd68703d88eb89126c0eb8fc91820c9af7147e346cd2a6a30d446a407287",
    (1, 1, "fixedtime", 8, 3): "a8a10643519c5647f031f808dd1ec637e7d5d80bd133f9e7e6b76ecb5a769b84",
    (1, 1, "mp", 4, 1): "3c0cbc47d2cf9d9d21219da18aaa334d9f027278b29e1267af37fcb6b3ec6a40",
    (1, 1, "mp", 4, 3): "d38e162828ca474dd60c518ca3f119d294a5be58372d1f6d2dcb8dacbe91192d",
    (1, 1, "mp", 8, 1): "3c0cbc47d2cf9d9d21219da18aaa334d9f027278b29e1267af37fcb6b3ec6a40",
    (1, 1, "mp", 8, 3): "d38e162828ca474dd60c518ca3f119d294a5be58372d1f6d2dcb8dacbe91192d",
    (1, 1, "efficient-mp", 4, 1): "3c0cbc47d2cf9d9d21219da18aaa334d9f027278b29e1267af37fcb6b3ec6a40",
    (1, 1, "efficient-mp", 4, 3): "d38e162828ca474dd60c518ca3f119d294a5be58372d1f6d2dcb8dacbe91192d",
    (1, 1, "efficient-mp", 8, 1): "3c0cbc47d2cf9d9d21219da18aaa334d9f027278b29e1267af37fcb6b3ec6a40",
    (1, 1, "efficient-mp", 8, 3): "d38e162828ca474dd60c518ca3f119d294a5be58372d1f6d2dcb8dacbe91192d",
    (2, 2, "fixedtime", 4, 1): "dd8ced140335783b7c5c327c7b421958d2ca8d5674ff94b0abb50983b2f987ac",
    (2, 2, "fixedtime", 4, 3): "8ac5493f6f494335e949cf8048247f597d36e3551974fe2776aeab11b0ee2564",
    (2, 2, "fixedtime", 8, 1): "ad4470d52afc4d659223a32a488217083a4223861e7093a3cc939d7e5400023e",
    (2, 2, "fixedtime", 8, 3): "0a4e45c9943ecb349a9a443a2391ee23ccf4ac7e6c1bb96648d3bd88efe341af",
    (2, 2, "mp", 4, 1): "5ded8f7d146bbf6a355e7d29cd32ed152557d1cbc2b61b75da2829d414967f03",
    (2, 2, "mp", 4, 3): "5e407965ae5b0a14cebb1b0648e8e20aa576ac0f69af856950f40669672e8c3d",
    (2, 2, "mp", 8, 1): "22579978ef50519cf7a18ea2050f82e478e93be3948312de2a58ebf64af218b7",
    (2, 2, "mp", 8, 3): "1f3465bfb2437e889e9fb7b8721e27db7675099886e158c04b1432582aa5a873",
    (2, 2, "efficient-mp", 4, 1): "5ded8f7d146bbf6a355e7d29cd32ed152557d1cbc2b61b75da2829d414967f03",
    (2, 2, "efficient-mp", 4, 3): "7c9540cf38166c4317ca211ffb73f900a0837926c46d2263012e6bfb635f23e8",
    (2, 2, "efficient-mp", 8, 1): "22579978ef50519cf7a18ea2050f82e478e93be3948312de2a58ebf64af218b7",
    (2, 2, "efficient-mp", 8, 3): "1e2fcf2a77e7bfbfd408e3e661668231716beb279f95e1d7c596feb3202bd15e",
}


@pytest.mark.parametrize("case", sorted(MATRIX), ids=lambda c: "-".join(map(str, c)))
def test_matrix_digest(case):
    assert _digest(*case) == MATRIX[case]


def test_peaked_demand_digest():
    demand = Peaked(0.05, 0.3, (60.0, 240.0))
    assert _digest(2, 2, "efficient-mp", 8, 3, demand=demand) == (
        "01d0c598e3c48c7570bc15300626055102eaa3c6482f4d1ffa03cd079712acb5"
    )


def test_three_by_four_mp_digest():
    assert _digest(3, 4, "mp", 4, 3, episode_length=600.0) == (
        "0a2ab3368cf6c59088537360948c226e1ef1d065bdeb7bec67f9c6195f6ff02a"
    )


def test_fractional_tick_digest():
    """Tenth-of-a-second ticks with off-grid starts and headways: each
    release goes out on the first tick at or after its time, the one at 0 s
    on tick 1."""
    net = build_grid(1, 1, 150.0, 150.0, lanes_per_approach=1)
    flows = [
        FlowSpec(("boundary:W0__n0_0", "n0_0__boundary:E0"), 0.3, 200.0, 2.7),
        FlowSpec(("boundary:N0__n0_0", "n0_0__boundary:E0"), 1.05, 150.0, 3.3),
        FlowSpec(("boundary:E0__n0_0", "n0_0__boundary:S0"), 0.0, 200.0, 1.9),
        FlowSpec(("boundary:S0__n0_0", "n0_0__boundary:N0"), 5.0, 120.0, 0.7),
    ]
    config = SimConfig(tick=0.1, episode_length=200.0, lane_capacity=10)
    sim = Simulation(net, flows, config)
    sim.run(make_controllers(net, "mp", ControllerConfig(t_duration=10.0)))
    assert sim.state_digest() == (
        "bad25350eb2e800c53b799d348ed4ed3910dc20e0697b06f2fa0bf7653de39bf"
    )


# (rows, cols, config overrides) -> (sha256 of saved parameters, learn steps)
LEARNER = {
    "1x1-3-episodes": (
        1, 1, {"episodes": 3, "batch_size": 8},
        "06d49e7db9ae07a5612b45fa420c0ba1167ad06ca7181be14febff48a5d15beb", 91,
    ),
    # 262 pushes into 100 slots: the replay ring wraps
    "2x2-ring-wraps": (
        2, 2, {"episodes": 2, "batch_size": 16, "buffer_capacity": 100},
        "b308d26b132e956eb260b650b14965806d7e67bfc4a349f2201416be6966150e", 247,
    ),
    "2x2-private-parameters": (
        2, 2, {"episodes": 2, "batch_size": 16, "shared_parameters": False},
        "456a693629c8448c8d74b53c9d8b9402df5490aedf90c76903e640f265af6314", 201,
    ),
    # one pin per state kind; on 1x1 every exit drains to a boundary, so the
    # two reward kinds give the same hash there
    "1x1-nv": (
        1, 1, {"episodes": 3, "batch_size": 8, "state_kind": StateKind.NV},
        "6f854eb4c625a7c74f7beb78e933514ee13f81803442327045c32d48c7140411", 91,
    ),
    "1x1-pressure-nv": (
        1, 1, {"episodes": 3, "batch_size": 8, "state_kind": StateKind.PRESSURE_NV},
        "caeb06e3aed5617000e7730d150c0ed508dbc3a588d87152849f8da107ed6494", 91,
    ),
    "1x1-pressure-queue": (
        1, 1, {"episodes": 3, "batch_size": 8, "state_kind": StateKind.PRESSURE_QUEUE},
        "4eafe3afd64dff146e96aaa978275fd3db28efbaf444b77dd4dd3ea898663f55", 91,
    ),
    "2x2-queue-reward": (
        2, 2, {"episodes": 2, "batch_size": 16, "reward_kind": RewardKind.NEG_QUEUE_LENGTH},
        "9e578d14d732fd9f90c19bcf5b6e11ae107ec509aa640be0cbd1d0fe1a4b707b", 245,
    ),
    # interior receiving roads: downstream vehicle counts are read
    "2x2-pressure-nv-queue-reward": (
        2, 2,
        {
            "episodes": 2, "batch_size": 16, "state_kind": StateKind.PRESSURE_NV,
            "reward_kind": RewardKind.NEG_QUEUE_LENGTH,
        },
        "d1fd334650bbf550a23ff8977443aa82a613df8046dc432c2aed1be362545029", 243,
    ),
    # the parameter vector's layout at other depths than the default (32, 32)
    "1x1-linear": (
        1, 1, {"episodes": 3, "batch_size": 8, "hidden_sizes": ()},
        "6d25ad721080a594a59e5e6f3425011797f38999a6ae8025e5ed683bf49c92ba", 89,
    ),
    "2x2-three-hidden-layers": (
        2, 2, {"episodes": 2, "batch_size": 16, "hidden_sizes": (16, 8, 12)},
        "50c46f3743a828ca86e5691cebc8c6f32d16c505ae8e3b287ef7aef328290aa9", 246,
    ),
}


@pytest.mark.parametrize("name", sorted(LEARNER))
def test_learner_parameters_digest(name, tmp_path):
    rows, cols, overrides, digest, learn_steps = LEARNER[name]
    net = build_grid(rows, cols, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.08), 3, 600.0)
    config = QLearnerConfig(eval_episodes=1, seed=5, **overrides)
    agent, _ = train(net, flows, config, SimConfig(episode_length=600.0))
    path = tmp_path / "params.json"
    save_parameters(agent, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert len(agent.losses) == learn_steps
