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

from .errors import EmptyFactor, GraphBenchError, ZeroDenominator
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
        if not self.dims:
            raise EmptyFactor("the factor space has no factors")
        for name, options in self.dims:
            if not options:
                raise EmptyFactor(f"factor {name!r} has no actions")
            repeated = sorted({o for o in options if options.count(o) > 1})
            if repeated:
                raise ValueError(f"factor {name!r} lists option(s) {', '.join(repeated)} "
                                 f"more than once")
        repeated = sorted({name for name in self.names if self.names.count(name) > 1})
        if repeated:
            raise ValueError(f"factor(s) {', '.join(repeated)} declared more than once")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(options) for _, options in self.dims)

    @property
    def k_total(self) -> int:
        return math.prod(self.sizes)

    def options(self, t: int) -> tuple[str, ...]:
        return self.dims[t][1]


def default_space() -> FactorSpace:
    """The T=3 search space: prompt scheme, serialization format, model."""
    return FactorSpace((
        ("prompt_scheme", tuple(s.value for s in PromptScheme)),
        ("serialization", tuple(f.value for f in SerializationFormat)),
        ("model", DEFAULT_MODELS),
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
# Epsilon starts at EPSILON_START and decays after each episode (by the factor
# EPSILON_DECAY in multiplicative mode) down to DQNConfig.epsilon_min.
EPSILON_START = 1.0
EPSILON_DECAY = 0.95
# Widths of the two hidden layers of every per-epoch Q network.
HIDDEN = (64, 64)


@dataclass
class DQNConfig:
    episodes: int = 80
    learning_rate: float = 0.001
    epsilon_min: float = 0.01
    decay_mode: str = "multiplicative"
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
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0 <= self.epsilon_min <= 1:
            raise ValueError(f"epsilon_min must be in [0, 1], got {self.epsilon_min!r}")


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


class MLPQ:
    """Q function of one decision epoch: a three-layer ReLU MLP over the
    encoder's one-hot rows of `prefix + (a,)`, trained online on squared
    error.

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
    update applied to each array in turn, bit for bit. A step writes its
    intermediates into two scratch buffers of the parameters' size and
    allocates nothing parameter-sized.
    """

    def __init__(self, encoder: _Encoder, t: int, hidden: tuple[int, int],
                 rng: np.random.Generator, optimizer: str = "adam", skip: bool = False):
        self._encoder = encoder
        self.optimizer = optimizer
        in_dim = encoder.input_dim(t)
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
        self._scratch = (np.empty_like(self._params), np.empty_like(self._params))
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

    def predict(self, prefix: Combo, options: Sequence[str]) -> list[float]:
        """Q values of every option, in one forward pass over their rows."""
        return self._forward(self._encoder.encode(prefix, options))[-1][:, 0].tolist()

    def update(self, prefix: Combo, target: float, lr: float) -> None:
        x = self._encoder.encode(prefix[:-1], prefix[-1:])[0]
        acts = self._forward(x)
        pred = float(acts[-1][0])
        err = 2.0 * (pred - target)
        if err == 0.0:
            return
        layers = len(self.weights)
        grads_w, grads_b = self._grad_views[:layers], self._grad_views[layers:2 * layers]
        delta = np.array([err])
        for i in reversed(range(layers)):
            np.multiply(acts[i][:, None], delta, out=grads_w[i])
            grads_b[i][...] = delta
            if i > 0:
                delta = (self.weights[i] @ delta) * (acts[i] > 0)
        if self.skip is not None:
            np.multiply(err, x, out=self._grad_views[-1])
        self._t += 1
        params, grads = self._params, self._grads
        a, b = self._scratch
        if self.optimizer == "nlms":
            # Summed array by array: one flat sum would reorder the reduction.
            norm_sq = sum(float((g * g).sum()) for g in self._grad_views) / err ** 2
            step = lr / max(norm_sq, 1e-12)
            np.multiply(step, grads, out=a)
            params -= a
            return
        if self.optimizer == "sgd":
            np.multiply(lr, grads, out=a)
            params -= a
            return
        # Adam, with its intermediates in `a` and `b`, in the order of
        # m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g and
        # params -= (lr * (m/c1)) / (sqrt(v/c2) + eps). Any other order, or
        # m * (1/c1) for m/c1, rounds differently and changes the search.
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m, v = self._m, self._v
        m *= beta1
        np.multiply(1 - beta1, grads, out=a)
        m += a
        v *= beta2
        np.multiply(1 - beta2, grads, out=a)
        a *= grads
        v += a
        np.divide(m, 1 - beta1 ** self._t, out=a)
        a *= lr
        np.divide(v, 1 - beta2 ** self._t, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        params -= a


class _Encoder:
    """One-hot encoding of the initial state plus chosen-so-far actions.

    It keeps every encoding it builds, one per (prefix, options), read-only,
    so a search encodes each prefix it visits once.
    """

    def __init__(self, s0: tuple[str, str], space: FactorSpace):
        tasks, splits = list(TaskKind), list(DifficultySplit)
        # TaskKind(...) and DifficultySplit(...) raise ValueError naming a
        # start state they do not know.
        self._s0_cols = [tasks.index(TaskKind(s0[0])),
                         len(tasks) + splits.index(DifficultySplit(s0[1]))]
        # Column where dimension d's one-hot block starts; the last entry is
        # the width of a full combination's encoding.
        self._offsets = list(itertools.accumulate(space.sizes, initial=len(tasks) + len(splits)))
        self._index = [{a: i for i, a in enumerate(options)} for _, options in space.dims]
        self._memo: dict[tuple[Combo, tuple[str, ...]], np.ndarray] = {}

    def input_dim(self, t: int) -> int:
        return self._offsets[t + 1]

    def encode(self, prefix: Combo, options: Sequence[str]) -> np.ndarray:
        """One row per option: the encoding of `prefix + (a,)`. The array is
        read-only; writing to it raises ValueError."""
        key = (prefix, tuple(options))
        rows = self._memo.get(key)
        if rows is None:
            t = len(prefix)
            rows = np.zeros((len(options), self._offsets[t + 1]))
            cols = self._s0_cols + [self._offsets[d] + self._index[d][a]
                                    for d, a in enumerate(prefix)]
            rows[:, cols] = 1.0
            rows[range(len(options)), [self._offsets[t] + self._index[t][a] for a in options]] = 1.0
            rows.flags.writeable = False
            self._memo[key] = rows
        return rows


def _first_max(row: Sequence[float]) -> int:
    """What np.argmax(row) returns, without building an array: the index of
    the first maximum, or of the first NaN when the row holds one."""
    best = 0
    for i, q in enumerate(row):
        if q != q:
            return i
        if q > row[best]:
            best = i
    return best


def run_dqn(s0: tuple[str, str], space: FactorSpace, reward_fn: RewardFn,
            cfg: DQNConfig | None = None,
            q_functions: Sequence[QFunction] | None = None) -> SearchResult:
    """Algorithm: per episode, choose actions epsilon-greedily epoch by
    epoch, evaluate the completed combination, and take one squared-error
    gradient step per epoch (terminal target = reward; intermediate target =
    next epoch's max Q). Epsilon decays after each episode, floored at
    epsilon_min. Rewards are memoized per combination, so revisits do not
    re-spend evaluations and `explored` counts distinct combinations.

    Without `q_functions`, a start state s0 that is not a (TaskKind,
    DifficultySplit) value pair raises ValueError before any reward is
    evaluated. A reward that is not a finite number raises ValueError.
    """
    cfg = cfg or DQNConfig()
    t_count = len(space.dims)
    rng = random.Random(cfg.seed)
    if q_functions is None:
        encoder = _Encoder(s0, space)
        np_rng = np.random.default_rng(cfg.seed)
        q_functions = [MLPQ(encoder, t, HIDDEN, np_rng, optimizer=cfg.optimizer,
                            skip=cfg.input_skip) for t in range(t_count)]

    reward_cache: dict[Combo, float] = {}

    def evaluate(combo: Combo) -> float:
        if combo not in reward_cache:
            reward = float(reward_fn(combo))
            if not math.isfinite(reward):
                raise ValueError(f"reward for {'|'.join(combo)} is {reward}; "
                                 f"a reward must be a finite number")
            reward_cache[combo] = reward
        return reward_cache[combo]

    epsilon = EPSILON_START
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
                action = options[_first_max(row)]
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
            epsilon = max(cfg.epsilon_min, epsilon * EPSILON_DECAY)
        else:
            epsilon = max(cfg.epsilon_min,
                          epsilon - (EPSILON_START - cfg.epsilon_min) / max(1, cfg.episodes - 1))

    assert best_combo is not None
    return SearchResult(best_combo=best_combo, best_reward=best_reward,
                        episodes=cfg.episodes, explored=len(reward_cache),
                        log=log, epsilon_mode=cfg.decay_mode)


def check_acc_max(acc_max: float) -> None:
    """Reject a best possible accuracy that cannot be a Rate's denominator."""
    if not math.isfinite(acc_max):
        raise ValueError(f"acc_max must be a finite number, got {acc_max!r}")
    if acc_max <= 0:
        raise ZeroDenominator(f"acc_max must be positive, got {acc_max!r}")


def cost_rate(result: SearchResult, space: FactorSpace,
              acc_max: float | None = None) -> tuple[float, float | None]:
    """Cost = explored/K; Rate = best found accuracy / best possible, or
    None when the best possible is not given."""
    if acc_max is not None:
        check_acc_max(acc_max)
    return (result.explored / space.k_total,
            None if acc_max is None else result.best_reward / acc_max)


def table_reward_fn(table: Mapping[Combo, float]) -> RewardFn:
    """Reward looked up in a table; a combination it lacks is an error."""
    def reward(combo: Combo) -> float:
        if combo not in table:
            raise GraphBenchError(f"reward table has no entry for {'|'.join(combo)}")
        return table[combo]

    return reward
