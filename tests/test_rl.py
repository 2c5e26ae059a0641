from __future__ import annotations

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressim import rl
from pressim.bench import Uniform, generate_synthetic_demand
from pressim.network import build_grid
from pressim.rl import (
    Batch,
    LearningAgent,
    QFunction,
    QLearnerConfig,
    ReplayBuffer,
    TrainingDiverged,
    act,
    epsilon_for_episode,
    learn_step,
    save_parameters,
    train,
)
from pressim.sim import ConfigurationError, SimConfig, Simulation
from reference import QPolicyController, gradient_check, load_policy, q_function_from_doc


def sv(features, onehot=()) -> np.ndarray:
    """An observation vector: movement features, then the phase one-hot."""
    return np.array([*features, *onehot], dtype=np.float64)


def batch(*rows) -> Batch:
    """Batch from (obs, action, reward, next_obs, terminal) rows."""
    obs, actions, rewards, next_obs, terminal = zip(*rows)
    return Batch(
        np.array(obs, dtype=np.float64),
        np.array(actions, dtype=np.intp),
        np.array(rewards, dtype=np.float64),
        np.array(next_obs, dtype=np.float64),
        np.array(terminal, dtype=bool),
    )


def q_with_fixed_output(values) -> QFunction:
    """Linear model with zero weights: forward always returns the biases."""
    q = QFunction(2, len(values), (), np.random.default_rng(0))
    q.weights[0][...] = 0.0
    q.biases[0][...] = np.asarray(values, dtype=np.float64)
    return q


def test_config_validation():
    for kwargs in (
        {"gamma": 1.0},
        {"gamma": -0.1},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"epsilon_start": 0.5, "epsilon_end": 0.6},
        {"epsilon_decay": 0.0},
        {"batch_size": 0},
        {"batch_size": 64, "buffer_capacity": 32},
        {"target_sync_interval": 0},
        {"episodes": 0},
        {"episodes": 5, "eval_episodes": 6},
        {"hidden_sizes": (0,)},
        {"hidden_sizes": (-3,)},
        {"hidden_sizes": (32, 0)},
    ):
        with pytest.raises(ConfigurationError):
            QLearnerConfig(**kwargs)


def test_act_greedy_and_tie_break():
    rng = np.random.default_rng(0)
    s = np.array([1.0, 2.0])
    assert act(q_with_fixed_output([1, 5, 2, 0]), s, 0.0, rng) == 1
    assert act(q_with_fixed_output([2, 2, 1, 0]), s, 0.0, rng) == 0
    with pytest.raises(ConfigurationError):
        act(q_with_fixed_output([1, 2]), s, 1.5, rng)


def test_act_uniform_under_full_exploration():
    rng = np.random.default_rng(42)
    q = q_with_fixed_output([9, 0, 0, 0])  # greedy would always pick 0
    draws = 10_000
    counts = np.zeros(4)
    s = np.zeros(2)
    for _ in range(draws):
        counts[act(q, s, 1.0, rng)] += 1
    expected = draws / 4
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) < 3 * sigma), counts


def test_learn_step_myopic_convergence():
    rng = np.random.default_rng(3)
    q = QFunction(4, 3, (16,), rng)
    target = q.clone()
    cfg = QLearnerConfig(gamma=0.0, learning_rate=1e-2, batch_size=1, buffer_capacity=8)
    b = batch(([1, 0, 1, 0], 1, 7.0, [0, 1, 0, 1], False))
    for _ in range(2500):
        q, loss = learn_step(q, target, b, cfg)
    assert q.forward(b.obs[0])[1] == pytest.approx(7.0, abs=1e-3)
    assert loss < 1e-6


def test_learn_step_terminal_excludes_bootstrap():
    rng = np.random.default_rng(5)
    q = QFunction(2, 2, (16,), rng)
    # target network promises a huge future value that must be ignored
    target = q_with_fixed_output([1000.0, 1000.0])
    cfg = QLearnerConfig(gamma=0.9, learning_rate=1e-2, batch_size=1, buffer_capacity=8)
    b = batch(([1, 0], 0, -4.0, [0, 1], True))
    for _ in range(2500):
        q, _ = learn_step(q, target, b, cfg)
    assert q.forward(b.obs[0])[0] == pytest.approx(-4.0, abs=1e-2)


def random_batch(rng: np.random.Generator, n: int, obs_size: int, n_actions: int) -> Batch:
    return Batch(
        rng.normal(size=(n, obs_size)) * 10.0,
        rng.integers(n_actions, size=n),
        rng.normal(size=n),
        rng.normal(size=(n, obs_size)) * 10.0,
        rng.random(n) < 0.2,
    )


def test_learn_step_returns_the_loss_before_its_update():
    rng = np.random.default_rng(4)
    q = QFunction(5, 3, (16,), rng)
    target = q.clone()
    b = random_batch(rng, 16, 5, 3)
    cfg = QLearnerConfig(gamma=0.9, batch_size=16, buffer_capacity=16)
    targets = b.reward + np.where(b.terminal, 0.0, 0.9 * target.forward(b.next_obs).max(axis=1))
    chosen = q.forward(b.obs)[np.arange(16), b.action]
    _, loss = learn_step(q, target, b, cfg)
    assert loss == pytest.approx(np.mean((chosen - targets) ** 2), rel=1e-12)


def test_arrays_handed_out_survive_later_calls():
    rng = np.random.default_rng(11)
    q = QFunction(3, 4, (8, 8), rng)
    target = q.clone()
    buf = ReplayBuffer(64, 3)
    for i in range(40):
        buf.push(rng.normal(size=3) * 10.0, i % 4, float(i), rng.normal(size=3), i % 7 == 0)
    cfg = QLearnerConfig(batch_size=8, buffer_capacity=64)
    held = buf.sample(8, rng)
    one, many = q.forward(held.obs[0]), q.forward(held.obs)
    greedy = act(q, held.obs[0], 0.0, rng)
    kept = [a.copy() for a in (*held, one, many)]
    for n in (8, 1, 8):
        learn_step(q, target, buf.sample(n, rng), cfg)
        q.forward(buf.sample(n, rng).obs)
        act(q, held.obs[1], 0.0, rng)
    assert not np.array_equal(q.forward(held.obs), many)  # the network did move
    for got, want in zip((*held, one, many), kept):
        np.testing.assert_array_equal(got, want)
    assert greedy == int(np.argmax(kept[-2]))


def test_learn_steps_over_changing_batch_sizes_repeat_bit_for_bit():
    """Whatever a network keeps between calls of one batch size changes no
    bit of a later step: a network that ran every size before matches one
    that is cloned afresh, optimizer state and all, for every step."""
    rng = np.random.default_rng(12)
    q = QFunction(5, 3, (16, 8), rng)
    target, twin, fresh = q.clone(), q.clone(), q.clone()
    batches = [random_batch(rng, n, 5, 3) for n in (1, 64, 8, 64)]
    cfg = QLearnerConfig(gamma=0.9, learning_rate=1e-2)
    warm = [learn_step(q, target, b, cfg)[1] for b in batches]
    same = [learn_step(twin, target, b, cfg)[1] for b in batches]
    cold = []
    for b in batches:
        stepped = fresh.clone()
        stepped._adam_m[...], stepped._adam_v[...] = fresh._adam_m, fresh._adam_v
        stepped._adam_t = fresh._adam_t
        cold.append(learn_step(stepped, target, b, cfg)[1])
        fresh = stepped
    assert warm == same == cold
    for other in (twin, fresh):
        for mine, theirs in ((q.params, other.params), (q._adam_m, other._adam_m),
                             (q._adam_v, other._adam_v)):
            np.testing.assert_array_equal(mine, theirs)


def test_training_reaches_the_traced_layers(monkeypatch):
    """The benchmark's traced run times the learner by wrapping ``rl.act``,
    ``rl.learn_step`` and ``ReplayBuffer.sample`` where they live; training
    must call them there, or those layers would read 0."""
    calls: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(rl, "learn_step")
    count(rl, "act")
    count(rl.ReplayBuffer, "sample")
    net = build_grid(1, 2, 300.0, 300.0)
    flows = generate_synthetic_demand(net, Uniform(0.08), seed=0, horizon_s=300.0)
    cfg = QLearnerConfig(episodes=2, eval_episodes=1, batch_size=8, seed=0)
    agent, reports = train(net, flows, cfg, SimConfig(episode_length=300.0))
    assert calls["learn_step"] == len(agent.losses) > 0
    assert calls["sample"] == calls["learn_step"]
    assert calls["act"] == sum(r.decisions for r in reports) > 0


def test_learn_step_rejects_empty_batch():
    q = q_with_fixed_output([0, 0])
    empty = Batch(
        np.empty((0, 2)), np.empty(0, np.intp), np.empty(0), np.empty((0, 2)), np.empty(0, bool)
    )
    with pytest.raises(ConfigurationError):
        learn_step(q, q, empty, QLearnerConfig())


def test_bellman_fixed_point_matches_value_iteration():
    transitions = batch(
        ([1, 0], 0, 1.0, [0, 1], False),
        ([1, 0], 1, 0.0, [1, 0], False),
        ([0, 1], 0, 2.0, [1, 0], False),
        ([0, 1], 1, 0.0, [0, 1], False),
    )
    gamma = 0.9
    oracle = np.zeros((2, 2))
    for _ in range(500):
        v = oracle.max(axis=1)
        oracle = np.array(
            [[1 + gamma * v[1], gamma * v[0]], [2 + gamma * v[0], gamma * v[1]]]
        )
    cfg = QLearnerConfig(
        gamma=gamma,
        learning_rate=3e-3,
        batch_size=4,
        buffer_capacity=16,
        hidden_sizes=(16, 16),
        target_sync_interval=100,
    )
    q = QFunction(2, 2, cfg.hidden_sizes, np.random.default_rng(1))
    target = q.clone()
    for step in range(12_000):
        learn_step(q, target, transitions, cfg)
        if (step + 1) % cfg.target_sync_interval == 0:
            q.copy_into(target)
    learned = np.array([q.forward(sv([1, 0])), q.forward(sv([0, 1]))])
    assert np.max(np.abs(learned - oracle) / np.abs(oracle)) < 0.05


def test_gradient_check_mlp_and_linear():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        q = QFunction(6, 4, (8, 8), rng)
        s = sv(rng.normal(size=6))
        a = int(rng.integers(4))
        target = float(rng.normal(scale=5))
        worst = max(worst, gradient_check(q, s, a, target))
    assert worst < 1e-4
    linear = QFunction(6, 4, (), rng)
    assert gradient_check(linear, sv(rng.normal(size=6)), 0, 2.0) < 1e-6


def test_gradient_check_is_deterministic():
    def one(seed):
        rng = np.random.default_rng(seed)
        q = QFunction(5, 3, (8,), rng)
        return gradient_check(q, sv(rng.normal(size=5)), 1, 0.5)

    assert one(7) == one(7)


def test_gradient_check_perturbs_the_live_parameters():
    rng = np.random.default_rng(4)
    q = QFunction(3, 2, (4,), rng)
    before = q.params.copy()
    seen = []
    forward = q.forward

    def spy(x):
        seen.append(q.params.copy())
        return forward(x)

    q.forward = spy
    assert gradient_check(q, sv(rng.normal(size=3)), 1, 0.5) < 1e-6
    # two forward passes per parameter, each with only that entry moved
    assert len(seen) == 2 * q.params.size
    for i, params in enumerate(seen):
        assert np.flatnonzero(params != before).tolist() == [i // 2]
    np.testing.assert_array_equal(q.params, before)


def reference_apply_gradients(params, grads, adam_m, adam_v, t, learning_rate):
    """The per-tensor adaptive-moment step that the one-pass update over the
    parameter vector replaced, kept as the reference."""
    for p, g, m, v in zip(params, grads, adam_m, adam_v):
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


@settings(max_examples=60, deadline=None)
@given(
    input_size=st.integers(1, 12),
    output_size=st.integers(1, 8),
    hidden_sizes=st.lists(st.integers(1, 20), max_size=3),
    steps=st.integers(1, 8),
    learning_rate=st.floats(1e-5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_update_equals_per_tensor_reference(
    input_size, output_size, hidden_sizes, steps, learning_rate, seed
):
    rng = np.random.default_rng(seed)
    q = QFunction(input_size, output_size, hidden_sizes, rng)
    params = [p.copy() for p in q._params()]
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        # magnitudes from 1e-6 to 1e5, with exact zeros among them
        scales = 10.0 ** rng.integers(-6, 6, size=q.params.size)
        grad = rng.normal(size=q.params.size) * scales * (rng.random(q.params.size) > 0.1)
        q.apply_gradients(grad, learning_rate)
        reference_apply_gradients(params, q.views(grad), adam_m, adam_v, t, learning_rate)
        for flat, tensors in ((q.params, params), (q._adam_m, adam_m), (q._adam_v, adam_v)):
            assert all((got == want).all() for got, want in zip(q.views(flat), tensors))


@pytest.mark.parametrize("hidden_sizes", [(), (32, 32), (5, 7, 3)])
def test_parameters_are_views_of_one_vector(hidden_sizes):
    rng = np.random.default_rng(8)
    q = QFunction(6, 3, hidden_sizes, rng)
    tensors = q._params()
    assert len(q.weights) == len(q.biases) == len(hidden_sizes) + 1
    assert all(np.shares_memory(p, q.params) for p in tensors)
    # the views tile the vector in layout order: weights, then biases
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in tensors]), q.params)
    q.weights[0][0, 0] = 7.0
    assert q.params[0] == 7.0
    q.params[-1] = 3.0
    assert q.biases[-1][-1] == 3.0
    grad = q.td_gradients(rng.normal(size=(4, 6)), np.array([0, 1, 2, 0]), np.zeros(4))
    assert grad.shape == q.params.shape
    assert [g.shape for g in q.views(grad)] == [p.shape for p in tensors]


def test_copy_into_and_clone_copy_values_without_sharing_memory():
    rng = np.random.default_rng(2)
    q = QFunction(6, 3, (8, 4), rng)
    target = QFunction(6, 3, (8, 4), rng)
    q.copy_into(target)
    clone = q.clone()
    for other in (target, clone):
        np.testing.assert_array_equal(other.params, q.params)
        assert not np.shares_memory(other.params, q.params)
        assert all(np.shares_memory(p, other.params) for p in other._params())
    assert clone._adam_t == 0 and not clone._adam_m.any()
    kept = q.params.copy()
    q.weights[1][...] += 1.0
    np.testing.assert_array_equal(target.params, kept)
    np.testing.assert_array_equal(clone.params, kept)


def test_replay_buffer_eviction_and_sampling():
    buf = ReplayBuffer(5, 1)
    for i in range(8):
        buf.push(np.array([i]), 0, float(i), np.array([i]), False)
    assert len(buf) == 5
    stored_rewards = set(buf.sample(5, np.random.default_rng(0)).reward)
    assert stored_rewards == {3.0, 4.0, 5.0, 6.0, 7.0}  # oldest three evicted
    sampled = buf.sample(4, np.random.default_rng(1))
    assert len(set(sampled.reward)) == 4  # without replacement
    with pytest.raises(ConfigurationError):
        buf.sample(6, np.random.default_rng(2))
    with pytest.raises(ConfigurationError):
        ReplayBuffer(0, 1)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 300),
    pushes=st.integers(0, 700),
    n=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_ring_samples_like_a_fifo_queue(capacity, pushes, n, seed):
    """Pushing past capacity and past every doubling of the arrays, each
    sample draws the same rows in the same order as a bounded deque."""
    buf = ReplayBuffer(capacity, 2)
    reference: deque = deque(maxlen=capacity)
    rng_buf, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(pushes):
        row = (np.array([i, -0.5 * i]), i % 7, float(i), np.array([i + 1.0, 0.0]), i % 3 == 0)
        buf.push(*row)
        reference.append(row)
        assert len(buf) == len(reference)
        if len(reference) < n:
            continue
        got = buf.sample(n, rng_buf)
        expected = [reference[j] for j in rng_ref.choice(len(reference), size=n, replace=False)]
        assert got.reward.tolist() == [r[2] for r in expected]
        assert got.action.tolist() == [r[1] for r in expected]
        assert got.terminal.tolist() == [r[4] for r in expected]
        np.testing.assert_array_equal(got.obs, [r[0] for r in expected])
        np.testing.assert_array_equal(got.next_obs, [r[3] for r in expected])


def test_replay_arrays_grow_by_doubling_up_to_capacity():
    buf = ReplayBuffer(200, 3)
    rows = []
    for i in range(300):
        buf.push(np.full(3, i), 0, float(i), np.full(3, i), False)
        rows.append(len(buf._rows.reward))
    assert rows[0] == ReplayBuffer.INITIAL_ROWS
    assert sorted(set(rows)) == [64, 128, 200]
    assert rows[64] == 128 and rows[128] == 200


@settings(max_examples=30, deadline=None)
@given(
    episodes=st.integers(1, 300),
    decay=st.floats(0.05, 1.0),
    end=st.floats(0.0, 0.3),
)
def test_epsilon_schedule_monotone_and_reaches_end(episodes, decay, end):
    cfg = QLearnerConfig(
        episodes=episodes,
        eval_episodes=0,
        epsilon_decay=decay,
        epsilon_end=end,
    )
    values = [epsilon_for_episode(cfg, ep) for ep in range(episodes + 1)]
    assert values[0] == cfg.epsilon_start
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    assert values[-1] == pytest.approx(end, abs=1e-9)
    assert all(v >= end - 1e-12 for v in values)


def test_divergence_raises():
    rng = np.random.default_rng(0)
    q = QFunction(4, 2, (8, 8), rng)
    cfg = QLearnerConfig(learning_rate=1e100, batch_size=1, buffer_capacity=8)
    b = batch(([1, 2, 3, 4], 0, 1.0, [1, 2, 3, 4], False))
    with pytest.raises(TrainingDiverged):
        for _ in range(10):
            learn_step(q, q.clone(), b, cfg)


def test_train_divergence_carries_partial_reports():
    net = build_grid(1, 1, 400.0, 400.0)
    flows = generate_synthetic_demand(net, Uniform(1 / 10), seed=0, horizon_s=300.0)
    cfg = QLearnerConfig(
        learning_rate=1e100, episodes=3, eval_episodes=1, batch_size=4, seed=0
    )
    with pytest.raises(TrainingDiverged) as exc_info:
        train(net, flows, cfg, SimConfig(episode_length=300.0))
    assert isinstance(exc_info.value.reports, list)


def test_single_episode_full_exploration_populates_buffer():
    net = build_grid(1, 1, 400.0, 400.0)
    flows = generate_synthetic_demand(net, Uniform(1 / 10), seed=0, horizon_s=600.0)
    cfg = QLearnerConfig(
        episodes=1, eval_episodes=1, epsilon_start=1.0, epsilon_end=1.0, seed=0
    )
    agent, reports = train(net, flows, cfg, SimConfig(episode_length=600.0))
    assert len(reports) == 1
    assert len(agent.buffers["shared"]) > 10
    assert reports[0].decisions > 20


def test_training_is_seed_deterministic():
    net = build_grid(1, 1, 400.0, 400.0)
    flows = generate_synthetic_demand(net, Uniform(1 / 12), seed=0, horizon_s=400.0)

    def run(seed):
        cfg = QLearnerConfig(episodes=3, eval_episodes=1, batch_size=8, seed=seed)
        agent, reports = train(net, flows, cfg, SimConfig(episode_length=400.0))
        return (
            tuple(agent.episode_returns),
            tuple(r.average_travel_time for r in reports),
            agent.q.weights[0].tobytes(),
        )

    assert run(0) == run(0)
    assert run(0) != run(1)


def test_shared_vs_private_parameters():
    net = build_grid(2, 2, 300.0, 300.0)
    shared = LearningAgent(net, QLearnerConfig(shared_parameters=True))
    assert set(shared.q_functions) == {"shared"}
    assert shared.q is shared.q_functions["shared"]
    private = LearningAgent(net, QLearnerConfig(shared_parameters=False))
    assert set(private.q_functions) == {i.id for i in net.intersections}
    with pytest.raises(ConfigurationError):
        _ = private.q


def test_shared_parameters_require_homogeneous_intersections():
    import dataclasses

    from pressim.network import RoadNetwork

    net = build_grid(1, 2, 300.0, 300.0)
    first = net.intersections[0]
    chopped = dataclasses.replace(first, phases=first.phases[:2])
    uneven = RoadNetwork(
        [chopped, net.intersections[1]], net.roads, net.phase_scheme
    )
    with pytest.raises(ConfigurationError):
        LearningAgent(uneven, QLearnerConfig(shared_parameters=True))


def test_private_parameters_size_each_intersection():
    from pressim.network import PhaseScheme, RoadNetwork, validate

    four = build_grid(1, 2, 300.0, 300.0, PhaseScheme.FOUR)
    eight = build_grid(1, 2, 300.0, 300.0, PhaseScheme.EIGHT)
    mixed = RoadNetwork(
        [eight.intersection_index["n0_0"], four.intersection_index["n0_1"]],
        four.roads,
        PhaseScheme.FOUR,
    )
    assert validate(mixed) == []
    flows = generate_synthetic_demand(mixed, Uniform(0.08), 0, 300.0)
    config = QLearnerConfig(
        episodes=2, eval_episodes=1, batch_size=8, shared_parameters=False
    )
    agent, reports = train(mixed, flows, config, sim_config=SimConfig(episode_length=300.0))
    assert {s: q.output_size for s, q in agent.q_functions.items()} == {
        "n0_0": 8,
        "n0_1": 4,
    }
    assert {s: q.input_size for s, q in agent.q_functions.items()} == {
        "n0_0": 16,
        "n0_1": 12,
    }
    assert agent.losses and len(reports) == 2
    with pytest.raises(ConfigurationError):
        LearningAgent(mixed, QLearnerConfig(shared_parameters=True))


def test_parameter_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    q = QFunction(12, 4, (32, 32), rng)
    restored = q_function_from_doc(q.to_doc())
    probe = rng.normal(size=(5, 12))
    np.testing.assert_array_equal(q.forward(probe), restored.forward(probe))


def test_policy_save_load_and_frozen_determinism(tmp_path):
    net = build_grid(1, 1, 400.0, 400.0)
    flows = generate_synthetic_demand(net, Uniform(1 / 12), seed=0, horizon_s=400.0)
    cfg = QLearnerConfig(episodes=2, eval_episodes=1, batch_size=8, seed=0)
    agent, _ = train(net, flows, cfg, SimConfig(episode_length=400.0))
    path = tmp_path / "params.json"
    save_parameters(agent, path)
    policy = load_policy(net, path)
    assert isinstance(policy, QPolicyController)

    def episode_digest():
        sim = Simulation(net, flows, SimConfig(episode_length=400.0))
        sim.run({i.id: policy for i in net.intersections})
        return sim.state_digest()

    assert episode_digest() == episode_digest()


def test_greedy_eval_sets_epsilon_zero_in_tail():
    net = build_grid(1, 1, 400.0, 400.0)
    flows = generate_synthetic_demand(net, Uniform(1 / 12), seed=0, horizon_s=300.0)
    cfg = QLearnerConfig(
        episodes=3, eval_episodes=1, batch_size=8, seed=0, greedy_eval=True
    )
    agent, reports = train(net, flows, cfg, SimConfig(episode_length=300.0))
    assert agent.epsilon == 0.0  # last episode ran greedy
    assert len(reports) == 3
