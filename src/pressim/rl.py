"""Episodic Q-learning over intersection observations, from first principles.

One template covers every instantiation: the observation kind and reward
kind are config fields, so a queue-count agent and an efficient-pressure
agent differ only in configuration. The function approximator is a small
fully-connected network written directly in numpy, with its own backward
pass (the tests check it against central differences) and an
adaptive-moment update. All of a network's weights and biases are views
into one float64 vector, and its gradient and moment estimates are vectors
of the same layout, so the update is one pass of array operations over the
whole network, however many layers it has. Parameters must therefore be
written in place.

Training embeds the agent as a signal controller: at each decision instant
it observes, finalizes the previous step's transition with the reward
measured now, takes one gradient step on a replay batch, and picks the next
phase epsilon-greedily. Each observation becomes one float64 vector when it
is made; replay keeps transitions as rows of ring arrays, so a batch is a
handful of fancy-indexed arrays. All randomness flows from one seeded
generator, so a fixed seed reproduces training bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from pressim.bench import RunReport, report_from_sim, run_episode
from pressim.control import Controller, ControllerConfig
from pressim.network import RoadNetwork
from pressim.pressure import RewardKind, StateKind, extract_state, reward
from pressim.sim import ConfigurationError, FlowSpec, SimConfig, Simulation, SimState


class TrainingDiverged(RuntimeError):
    """Raised when the TD loss stops being finite; carries partial reports."""

    def __init__(self, message: str, reports: Optional[list] = None):
        super().__init__(message)
        self.reports = reports or []


@dataclass(frozen=True)
class QLearnerConfig:
    gamma: float = 0.9
    learning_rate: float = 1e-2
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.8  # fraction of episodes spent annealing
    buffer_capacity: int = 10_000
    batch_size: int = 64
    hidden_sizes: tuple[int, ...] = (32, 32)
    target_sync_interval: int = 500  # decisions between target refreshes
    episodes: int = 200
    eval_episodes: int = 10  # last-N episodes averaged for the headline metric
    state_kind: StateKind = StateKind.EFFICIENT_PRESSURE
    reward_kind: RewardKind = RewardKind.NEG_INTERSECTION_PRESSURE
    shared_parameters: bool = True
    greedy_eval: bool = False  # epsilon 0 instead of epsilon_end in the last N
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")
        if not 0 < self.learning_rate < math.inf:  # NaN fails it too
            raise ConfigurationError("learning_rate must be positive and finite")
        if not 0 <= self.epsilon_end <= self.epsilon_start <= 1:
            raise ConfigurationError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0 < self.epsilon_decay <= 1:
            raise ConfigurationError("epsilon_decay must be in (0, 1]")
        if self.batch_size < 1 or self.batch_size > self.buffer_capacity:
            raise ConfigurationError("need 1 <= batch_size <= buffer_capacity")
        if any(size < 1 for size in self.hidden_sizes):
            raise ConfigurationError("hidden layer sizes must be at least 1")
        if self.target_sync_interval < 1:
            raise ConfigurationError("target_sync_interval must be at least 1")
        if self.episodes < 1:
            raise ConfigurationError("episodes must be at least 1")
        if not 0 <= self.eval_episodes <= self.episodes:
            raise ConfigurationError("eval_episodes must fit within episodes")


class Batch(NamedTuple):
    """Transitions as parallel arrays, one row per transition."""

    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_obs: np.ndarray
    terminal: np.ndarray


class QFunction:
    """Fully-connected net mapping an observation vector to per-phase values.

    Rectified-linear hidden layers; an empty ``hidden_sizes`` gives a plain
    linear model. Inputs are scaled by a fixed factor so raw queue counts
    land in a friendly range. The forward pass is pure; adaptive-moment
    optimizer state lives alongside the parameters.

    Every weight and bias is a reshaped view into one contiguous float64
    vector, ``params``: the weights layer by layer, then the biases. The
    gradient and both moment estimates are vectors of the same layout, so
    one update pass covers the whole network and ``copy_into`` is one slice
    copy. Write parameters in place (``q.weights[0][...] = w``): rebinding
    a list entry detaches it from ``params`` and from every update.
    """

    INPUT_SCALE = 0.1

    def __init__(
        self,
        input_size: int,
        output_size: int,
        hidden_sizes: Sequence[int],
        rng: np.random.Generator,
    ):
        self.input_size = input_size
        self.output_size = output_size
        self.hidden_sizes = tuple(hidden_sizes)
        sizes = [input_size, *self.hidden_sizes, output_size]
        if min(sizes) < 1:
            raise ConfigurationError(f"layer sizes must be at least 1, got {sizes}")
        layers = list(zip(sizes, sizes[1:]))
        self._shapes = [*layers, *((n_out,) for _, n_out in layers)]
        self.params = np.zeros(sum(math.prod(shape) for shape in self._shapes))
        self.weights, self.biases = self._split(self.params)
        for i, (w, (n_in, _)) in enumerate(zip(self.weights, layers)):
            scale = np.sqrt(2.0 / n_in)
            if i == len(layers) - 1:
                scale *= 0.01  # start near-zero action values
            w[...] = rng.normal(0.0, scale, size=w.shape)
        self._grad = np.zeros_like(self.params)
        self._grads_w, self._grads_b = self._split(self._grad)
        self._adam_m = np.zeros_like(self.params)
        self._adam_v = np.zeros_like(self.params)
        self._adam_t = 0
        self._rows = np.arange(0)
        self.td_errors = np.empty(0)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-tensor views into a vector of the parameter layout: the
        weights layer by layer, then the biases."""
        tensors, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            tensors.append(flat[start:stop].reshape(shape))
            start = stop
        return tensors

    def _split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        tensors = self.views(flat)
        n = len(tensors) // 2
        return tensors[:n], tensors[n:]

    def _params(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    def _row_index(self, n: int) -> np.ndarray:
        """``np.arange(n)``, kept between calls of one batch size."""
        if len(self._rows) != n:
            self._rows = np.arange(n)
        return self._rows

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values of one observation, or of each row of a matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self._layers(x[None, :])[0][0]
        return self._layers(x)[0]

    def _layers(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output for float64 rows ``x``, and the input of every layer."""
        h = x * self.INPUT_SCALE
        activations = [h]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, activations

    def td_gradients(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Gradient of mean squared TD error over a batch of float64 rows, as
        a vector of the parameter layout. The vector is this network's own
        buffer: the next call overwrites it. The batch's TD errors are left
        in ``td_errors``."""
        out, acts = self._layers(states)
        n = len(states)
        rows = self._row_index(n)
        diff = out[rows, actions] - targets
        delta = np.zeros_like(out)
        delta[rows, actions] = 2.0 * diff / n
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=self._grads_w[layer])
            np.add.reduce(delta, axis=0, out=self._grads_b[layer])
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta *= acts[layer] > 0.0
        self.td_errors = diff
        return self._grad

    def apply_gradients(self, grad: np.ndarray, learning_rate: float) -> None:
        """One adaptive-moment (beta 0.9/0.999) update step, in one pass over
        the parameter vector; ``grad`` has the parameter layout."""
        self._adam_t += 1
        t = self._adam_t
        m, v = self._adam_m, self._adam_v
        m *= 0.9
        m += 0.1 * grad
        v *= 0.999
        v += 0.001 * grad * grad
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        self.params -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)

    def copy_into(self, other: "QFunction") -> None:
        other.params[...] = self.params

    def clone(self) -> "QFunction":
        """Same parameters, fresh optimizer state. The initial weights drawn
        here are overwritten, so a throwaway generator draws them."""
        q = QFunction(
            self.input_size, self.output_size, self.hidden_sizes, np.random.default_rng(0)
        )
        self.copy_into(q)
        return q

    def to_doc(self) -> dict:
        return {
            "input_size": self.input_size,
            "output_size": self.output_size,
            "hidden_sizes": list(self.hidden_sizes),
            "shapes": [list(p.shape) for p in self._params()],
            "values": [p.ravel().tolist() for p in self._params()],
        }


def act(q: QFunction, obs: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy phase choice for one float64 observation vector; greedy
    ties go to the lowest index."""
    if not 0 <= epsilon <= 1:
        raise ConfigurationError("epsilon must be in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(q.output_size))
    return int(q._layers(obs[None, :])[0].argmax())


def learn_step(
    q: QFunction,
    target_q: QFunction,
    batch: Batch,
    config: QLearnerConfig,
) -> tuple[QFunction, float]:
    """One gradient step toward r + gamma * max target value (r alone at
    episode boundaries); returns the loss measured before the step, on the
    TD errors the step follows. The batch holds float64 observation rows,
    as ``ReplayBuffer.sample`` builds."""
    n = len(batch.action)
    if n == 0:
        raise ConfigurationError("learn_step needs a non-empty batch")
    with np.errstate(over="ignore", invalid="ignore"):
        bootstrap = target_q._layers(batch.next_obs)[0].max(axis=1)
        targets = batch.reward + np.where(batch.terminal, 0.0, config.gamma * bootstrap)
        grad = q.td_gradients(batch.obs, batch.action, targets)
        q.apply_gradients(grad, config.learning_rate)
        diff = q.td_errors
        loss = float(np.add.reduce(diff * diff) / n)  # np.mean(diff**2), without its checks
    if not math.isfinite(loss):
        raise TrainingDiverged(f"TD loss became non-finite: {loss}")
    return q, loss


class _Rows(NamedTuple):
    """Replay storage: ``obs`` holds each transition's observation and next
    observation side by side, so one gather serves both."""

    obs: np.ndarray  # (rows, 2, obs_size)
    action: np.ndarray
    reward: np.ndarray
    terminal: np.ndarray


class ReplayBuffer:
    """Bounded transition store: oldest-first eviction, batch sampling
    without replacement. Transitions are rows of ring arrays that start at
    ``INITIAL_ROWS`` and double up to ``capacity``; sample index i is the
    i-th oldest row, so batches draw and order rows as a FIFO queue would."""

    INITIAL_ROWS = 64

    def __init__(self, capacity: int, obs_size: int):
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be at least 1")
        self.capacity = capacity
        rows = min(capacity, self.INITIAL_ROWS)
        self._rows = _Rows(
            np.empty((rows, 2, obs_size)), np.empty(rows, np.intp), np.empty(rows),
            np.empty(rows, bool),
        )
        self._size = 0
        self._cursor = 0  # the next slot written; the oldest row once full

    def push(
        self, obs: np.ndarray, action: int, r: float, next_obs: np.ndarray, terminal: bool
    ) -> None:
        rows = len(self._rows.action)
        if self._size == rows < self.capacity:
            grown = min(2 * rows, self.capacity)
            # np.resize keeps the stored rows first; later rows are written before read
            self._rows = _Rows(*(np.resize(a, (grown, *a.shape[1:])) for a in self._rows))
        slot = self._cursor
        pair = self._rows.obs[slot]
        pair[0], pair[1] = obs, next_obs
        self._rows.action[slot] = action
        self._rows.reward[slot] = r
        self._rows.terminal[slot] = terminal
        self._cursor = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        if n > self._size:
            raise ConfigurationError("cannot sample more transitions than stored")
        idx = rng.choice(self._size, size=n, replace=False)
        if self._size == self.capacity:
            idx = (idx + self._cursor) % self.capacity
        obs, action, reward, terminal = (column.take(idx, axis=0) for column in self._rows)
        return Batch(obs[:, 0], action, reward, obs[:, 1], terminal)

    def __len__(self) -> int:
        return self._size


def epsilon_for_episode(config: QLearnerConfig, episode: int) -> float:
    """Linear anneal from start to end over the first ``epsilon_decay``
    fraction of episodes, flat afterwards."""
    span = config.epsilon_decay * config.episodes
    progress = min(1.0, episode / span) if span > 0 else 1.0
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * progress


def _scope_sizes(net: RoadNetwork, shared: bool) -> dict[str, tuple[int, int]]:
    """Parameter scope -> (observation size, phase count) of the
    intersections it serves: one ``shared`` scope, or one per intersection."""
    sizes = {
        iid: (len(lanes.signalized) + len(lanes.phases), len(lanes.phases))
        for iid, lanes in net.lane_table.items()
    }
    if not shared:
        return sizes
    if len(set(sizes.values())) > 1:
        raise ConfigurationError("shared parameters require homogeneous intersections")
    return {"shared": next(iter(sizes.values()))}


class LearningAgent(Controller):
    """The Q-learner wearing the controller interface.

    ``observe`` packages the current observation together with the reward
    measured at this instant; ``decide`` closes the previous transition with
    that reward, takes a learning step, and picks the next phase. With
    shared parameters every intersection reads and writes one network;
    otherwise each intersection owns a private one.
    """

    def __init__(
        self,
        net: RoadNetwork,
        config: QLearnerConfig,
        t_duration: float = 15.0,
    ):
        super().__init__(ControllerConfig(t_duration=t_duration))
        self.net = net
        self.qconfig = config
        self.rng = np.random.default_rng(config.seed)
        self.epsilon = config.epsilon_start
        sizes = _scope_sizes(net, config.shared_parameters)
        self.q_functions: dict[str, QFunction] = {}
        self.target_functions: dict[str, QFunction] = {}
        self.buffers: dict[str, ReplayBuffer] = {}
        self.decision_counts: dict[str, int] = {}
        for scope, (input_size, n_phases) in sizes.items():
            q = QFunction(input_size, n_phases, config.hidden_sizes, self.rng)
            self.q_functions[scope] = q
            self.target_functions[scope] = q.clone()
            self.buffers[scope] = ReplayBuffer(config.buffer_capacity, input_size)
            self.decision_counts[scope] = 0
        self._pending: dict[str, tuple[np.ndarray, int]] = {}
        self.losses: list[float] = []
        self.episode_returns: list[float] = []
        self._episode_return = 0.0

    @property
    def q(self) -> QFunction:
        if not self.qconfig.shared_parameters:
            raise ConfigurationError(
                "no single shared network; read q_functions per intersection"
            )
        return self.q_functions["shared"]

    def _scope(self, intersection: str) -> str:
        return "shared" if self.qconfig.shared_parameters else intersection

    # Controller interface ---------------------------------------------------

    def observe(self, state: SimState, net: RoadNetwork, intersection: str):
        obs = extract_state(state, net, intersection, self.qconfig.state_kind)
        return (obs, reward(state, net, intersection, self.qconfig.reward_kind))

    def decide(self, observation, intersection: str) -> int:
        obs, r = observation
        scope = self._scope(intersection)
        pending = self._pending.get(intersection)
        if pending is not None:
            prev_obs, prev_a = pending
            self._record(scope, prev_obs, prev_a, r, obs, terminal=False)
        action = act(self.q_functions[scope], obs, self.epsilon, self.rng)
        self._pending[intersection] = (obs, action)
        return action

    def begin_episode(self, sim: Simulation) -> None:
        self._pending.clear()
        self._episode_return = 0.0

    def end_episode(self, sim: Simulation) -> None:
        for intersection, (obs, action) in sorted(self._pending.items()):
            r = reward(sim.state, self.net, intersection, self.qconfig.reward_kind)
            scope = self._scope(intersection)
            self._record(scope, obs, action, r, obs, terminal=True)
        self._pending.clear()
        self.episode_returns.append(self._episode_return)

    # learning ---------------------------------------------------------------

    def _record(
        self, scope: str, obs, action: int, r: float, next_obs, terminal: bool
    ) -> None:
        self._episode_return += r
        buf = self.buffers[scope]
        buf.push(obs, action, r, next_obs, terminal)
        if len(buf) >= self.qconfig.batch_size:
            batch = buf.sample(self.qconfig.batch_size, self.rng)
            _, loss = learn_step(
                self.q_functions[scope],
                self.target_functions[scope],
                batch,
                self.qconfig,
            )
            self.losses.append(loss)
        self.decision_counts[scope] += 1
        if self.decision_counts[scope] % self.qconfig.target_sync_interval == 0:
            self.q_functions[scope].copy_into(self.target_functions[scope])


def train(
    net: RoadNetwork,
    flows: list[FlowSpec],
    config: QLearnerConfig,
    sim_config: Optional[SimConfig] = None,
    t_duration: float = 15.0,
) -> tuple[LearningAgent, list[RunReport]]:
    """Run the full episodic loop; returns the trained agent and one report
    per episode. A divergence aborts but carries the reports gathered so
    far on the raised error."""
    sim_config = sim_config or SimConfig()
    agent = LearningAgent(net, config, t_duration=t_duration)
    controllers = {i.id: agent for i in net.intersections}
    reports: list[RunReport] = []
    for episode in range(config.episodes):
        agent.epsilon = epsilon_for_episode(config, episode)
        if config.greedy_eval and episode >= config.episodes - config.eval_episodes:
            agent.epsilon = 0.0
        try:
            sim = run_episode(net, flows, sim_config, controllers)
        except TrainingDiverged as exc:
            raise TrainingDiverged(str(exc), reports) from None
        reports.append(
            report_from_sim(
                sim,
                scenario="train",
                controller="rl",
                seed=config.seed,
                episode=episode,
            )
        )
    return agent, reports


def evaluation_travel_time(reports: Sequence[RunReport], eval_episodes: int) -> float:
    """Headline metric: mean travel time over the last N episodes, each
    rounded to 6 places as classical cells round theirs."""
    tail = list(reports)[-max(1, eval_episodes):]
    return float(np.mean([round(r.average_travel_time, 6) for r in tail]))


def save_parameters(agent: LearningAgent, path: str | Path) -> None:
    doc = {
        "state_kind": agent.qconfig.state_kind.value,
        "shared_parameters": agent.qconfig.shared_parameters,
        "t_duration": agent.t_duration,
        "scopes": {s: q.to_doc() for s, q in agent.q_functions.items()},
    }
    Path(path).write_text(json.dumps(doc))
