"""Sequential DQN search over serialization-strategy factors, and the
Cost/Rate efficiency metrics that compare it with an exhaustive search.

One decision epoch per factor dimension: epoch t picks an action from the
t-th dimension with an epsilon-greedy policy over a per-epoch Q network (a
three-layer ReLU MLP on one-hot state/action encodings). The terminal update
regresses on the observed reward; intermediate updates regress on the next
epoch's max Q. There is no replay buffer; updates are purely online.

Each decision costs one batched forward pass: a Q function predicts every
option of an epoch at once, and the row computed for epoch t's bootstrap
target is the row epoch t+1 chooses from.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .errors import EmptyFactor, ZeroDenominator
from .generators import DifficultySplit
from .prompts import PromptScheme
from .serialize import SerializationFormat
from .tasks import TaskKind

Combo = tuple[str, ...]
RewardFn = Callable[[Combo], float]

DEFAULT_MODELS = ("llama-3", "llama-3.1", "mistral", "phi-4", "qwen-2.5")


@dataclass(frozen=True)
class FactorSpace:
    """Ordered factor dimensions, each a named finite action set."""

    dims: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        for name, options in self.dims:
            if not options:
                raise EmptyFactor(f"factor {name!r} has no actions")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(options) for _, options in self.dims)

    @property
    def k_total(self) -> int:
        total = 1
        for s in self.sizes:
            total *= s
        return total

    def options(self, t: int) -> tuple[str, ...]:
        return self.dims[t][1]


def default_space(models: Sequence[str] = DEFAULT_MODELS) -> FactorSpace:
    """The T=3 search space: prompt scheme, serialization format, model."""
    return FactorSpace((
        ("prompt_scheme", tuple(s.value for s in PromptScheme)),
        ("serialization", tuple(f.value for f in SerializationFormat)),
        ("model", tuple(models)),
    ))


@dataclass
class EpisodeEntry:
    episode: int
    combo: Combo
    reward: float
    epsilon: float


@dataclass
class SearchResult:
    best_combo: Combo
    best_reward: float
    episodes: int
    explored: int
    log: list[EpisodeEntry] = field(default_factory=list)
    epsilon_mode: str = "multiplicative"

    def to_dict(self) -> dict:
        return {
            "best_combo": list(self.best_combo),
            "best_reward": self.best_reward,
            "episodes": self.episodes,
            "explored": self.explored,
            "epsilon_mode": self.epsilon_mode,
        }


OPTIMIZERS = ("adam", "sgd", "nlms")
DECAY_MODES = ("multiplicative", "linear")


@dataclass
class DQNConfig:
    episodes: int = 80
    learning_rate: float = 0.001
    epsilon: float = 1.0
    epsilon_min: float = 0.01
    epsilon_decay: float = 0.95
    decay_mode: str = "multiplicative"
    hidden: tuple[int, int] = (64, 64)
    optimizer: str = "adam"
    input_skip: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; "
                             f"expected one of {', '.join(OPTIMIZERS)}")
        if self.decay_mode not in DECAY_MODES:
            raise ValueError(f"unknown decay mode {self.decay_mode!r}; "
                             f"expected one of {', '.join(DECAY_MODES)}")


class QFunction(Protocol):
    def predict(self, prefix: Combo, options: Sequence[str]) -> list[float]:
        """Q value of `prefix + (a,)` for every `a` in `options`."""
        ...

    def update(self, prefix: Combo, target: float, lr: float) -> None: ...


def _views(buf: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views into the flat buffer `buf`."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[start:start + size].reshape(shape))
        start += size
    return views


class _QNet:
    """Three-layer ReLU MLP trained online on squared error.

    The output layer starts near zero so initial Q estimates do not drown
    the reward scale. Optimizers: "adam" (default), plain "sgd", and "nlms"
    (steepest descent with an exact line-search step size, so one update
    moves the prediction a fixed fraction of the way to its target; this
    keeps rarely visited actions from lagging). With skip=True a direct
    linear path from the one-hot input to the output is added, which fits
    the additive part of a reward landscape in a handful of updates.

    Weights, biases and the skip vector are views into one flat parameter
    buffer, and their gradients views into a second one, so an optimizer
    step is a few whole-buffer operations. They are element-wise (the NLMS
    norm is still summed array by array), so the step equals the same
    update applied to each array in turn, bit for bit.
    """

    def __init__(self, in_dim: int, hidden: tuple[int, int], rng: np.random.Generator,
                 optimizer: str = "adam", skip: bool = False):
        self.optimizer = optimizer
        sizes = [in_dim, hidden[0], hidden[1], 1]
        layers = len(sizes) - 1
        shapes = list(zip(sizes, sizes[1:])) + [(n,) for n in sizes[1:]]
        if skip:
            shapes.append((in_dim,))
        self._params = np.zeros(sum(math.prod(s) for s in shapes))
        self._grads = np.zeros_like(self._params)
        params = _views(self._params, shapes)
        self._grad_views = _views(self._grads, shapes)
        self.weights = params[:layers]
        self.biases = params[layers:2 * layers]
        self.skip = params[-1] if skip else None
        for i, w in enumerate(self.weights):
            scale = np.sqrt(2.0 / sizes[i]) if i < layers - 1 else 0.01
            w[...] = rng.normal(0.0, scale, size=w.shape)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self._t = 0

    def _forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations for one encoded row (1-D) or a batch of rows (2-D)."""
        acts = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
            acts.append(h)
        if self.skip is not None:
            acts[-1] = acts[-1] + (x @ self.skip)[..., None]
        return acts

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """Q values of a batch of encoded rows, in one forward pass."""
        return self._forward(xs)[-1][:, 0]

    def update(self, x: np.ndarray, target: float, lr: float) -> None:
        acts = self._forward(x)
        pred = float(acts[-1][0])
        err = 2.0 * (pred - target)
        if err == 0.0:
            return
        layers = len(self.weights)
        grads_w, grads_b = self._grad_views[:layers], self._grad_views[layers:2 * layers]
        delta = np.array([err])
        for i in reversed(range(layers)):
            np.outer(acts[i], delta, out=grads_w[i])
            grads_b[i][...] = delta
            if i > 0:
                delta = (self.weights[i] @ delta) * (acts[i] > 0)
        if self.skip is not None:
            np.multiply(err, x, out=self._grad_views[-1])
        self._t += 1
        params, grads = self._params, self._grads
        if self.optimizer == "nlms":
            # Summed array by array: one flat sum would reorder the reduction.
            norm_sq = sum(float((g * g).sum()) for g in self._grad_views) / err ** 2
            step = lr / max(norm_sq, 1e-12)
            params -= step * grads
            return
        if self.optimizer == "sgd":
            params -= lr * grads
            return
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m, v = self._m, self._v
        m *= beta1
        m += (1 - beta1) * grads
        v *= beta2
        v += (1 - beta2) * grads * grads
        m_hat = m / (1 - beta1 ** self._t)
        v_hat = v / (1 - beta2 ** self._t)
        params -= lr * m_hat / (np.sqrt(v_hat) + eps)


class _Encoder:
    """One-hot encoding of the initial state plus chosen-so-far actions."""

    def __init__(self, s0: tuple[str, str], space: FactorSpace):
        tasks = [t.value for t in TaskKind]
        splits = [d.value for d in DifficultySplit]
        self._s0_cols = []
        if s0[0] in tasks:
            self._s0_cols.append(tasks.index(s0[0]))
        if s0[1] in splits:
            self._s0_cols.append(len(tasks) + splits.index(s0[1]))
        # Column where dimension d's one-hot block starts; the last entry is
        # the width of a full combination's encoding.
        self._offsets = list(itertools.accumulate(space.sizes, initial=len(tasks) + len(splits)))
        self._index = [{a: i for i, a in enumerate(options)} for _, options in space.dims]

    def input_dim(self, t: int) -> int:
        return self._offsets[t + 1]

    def encode(self, prefix: Combo, options: Sequence[str]) -> np.ndarray:
        """One row per option: the encoding of `prefix + (a,)`."""
        t = len(prefix)
        rows = np.zeros((len(options), self._offsets[t + 1]))
        cols = self._s0_cols + [self._offsets[d] + self._index[d][a] for d, a in enumerate(prefix)]
        rows[:, cols] = 1.0
        rows[range(len(options)), [self._offsets[t] + self._index[t][a] for a in options]] = 1.0
        return rows


class MLPQ:
    def __init__(self, encoder: _Encoder, t: int, hidden: tuple[int, int],
                 rng: np.random.Generator, optimizer: str = "adam", skip: bool = False):
        self._encoder = encoder
        self._net = _QNet(encoder.input_dim(t), hidden, rng, optimizer=optimizer, skip=skip)

    def predict(self, prefix: Combo, options: Sequence[str]) -> list[float]:
        return self._net.predict(self._encoder.encode(prefix, options)).tolist()

    def update(self, prefix: Combo, target: float, lr: float) -> None:
        self._net.update(self._encoder.encode(prefix[:-1], prefix[-1:])[0], target, lr)


def run_dqn(s0: tuple[str, str], space: FactorSpace, reward_fn: RewardFn,
            cfg: DQNConfig | None = None,
            q_functions: Sequence[QFunction] | None = None) -> SearchResult:
    """Algorithm: per episode, choose actions epsilon-greedily epoch by
    epoch, evaluate the completed combination, and take one squared-error
    gradient step per epoch (terminal target = reward; intermediate target =
    next epoch's max Q). Epsilon decays after each episode, floored at
    epsilon_min. Rewards are memoized per combination, so revisits do not
    re-spend evaluations and `explored` counts distinct combinations.
    """
    cfg = cfg or DQNConfig()
    t_count = len(space.dims)
    rng = random.Random(cfg.seed)
    if q_functions is None:
        encoder = _Encoder(s0, space)
        np_rng = np.random.default_rng(cfg.seed)
        q_functions = [MLPQ(encoder, t, cfg.hidden, np_rng, optimizer=cfg.optimizer,
                            skip=cfg.input_skip) for t in range(t_count)]

    reward_cache: dict[Combo, float] = {}

    def evaluate(combo: Combo) -> float:
        if combo not in reward_cache:
            reward_cache[combo] = float(reward_fn(combo))
        return reward_cache[combo]

    epsilon = cfg.epsilon
    log: list[EpisodeEntry] = []
    best_combo: Combo | None = None
    best_reward = float("-inf")

    for episode in range(1, cfg.episodes + 1):
        prefix: Combo = ()
        # Q values of net t over (prefix, options(t)). The bootstrap target
        # at epoch t computes exactly this row for epoch t+1, and only net t
        # is updated in between, so it is kept for the next greedy choice.
        row: list[float] | None = None
        for t in range(t_count):
            options = space.options(t)
            if rng.random() < epsilon:
                action = options[rng.randrange(len(options))]
            else:
                if row is None:
                    row = q_functions[t].predict(prefix, options)
                action = options[int(np.argmax(row))]
            prefix = prefix + (action,)
            if t == t_count - 1:
                target = evaluate(prefix)
            else:
                row = q_functions[t + 1].predict(prefix, space.options(t + 1))
                target = max(row)
            q_functions[t].update(prefix, target, cfg.learning_rate)
        reward = reward_cache[prefix]
        log.append(EpisodeEntry(episode, prefix, reward, epsilon))
        if reward > best_reward:
            best_reward, best_combo = reward, prefix
        if cfg.decay_mode == "multiplicative":
            epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
        else:
            epsilon = max(cfg.epsilon_min,
                          epsilon - (cfg.epsilon - cfg.epsilon_min) / max(1, cfg.episodes - 1))

    assert best_combo is not None
    return SearchResult(best_combo=best_combo, best_reward=best_reward,
                        episodes=cfg.episodes, explored=len(reward_cache),
                        log=log, epsilon_mode=cfg.decay_mode)


def cost_rate(result: SearchResult, space: FactorSpace, acc_max: float) -> tuple[float, float]:
    """Cost = explored/K; Rate = best found accuracy / best possible."""
    if acc_max <= 0:
        raise ZeroDenominator("acc_max must be positive")
    return result.explored / space.k_total, result.best_reward / acc_max


def table_reward_fn(table: Mapping[Combo, float]) -> RewardFn:
    return lambda combo: table[combo]
