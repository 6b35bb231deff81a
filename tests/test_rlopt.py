"""DQN search mechanics: grid search, cost/rate, greedy consistency,
replay determinism, and the episode logs the search is pinned to."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import combos, grid_search, make_planted_landscape, make_tabular_q, scaled_space
from graphbench.errors import EmptyFactor, ZeroDenominator
from graphbench import rlopt
from graphbench.generators import DifficultySplit
from graphbench.rlopt import (MLPQ, DQNConfig, FactorSpace, _Encoder, _first_max, cost_rate,
                              default_space, run_dqn, table_reward_fn)
from graphbench.tasks import TaskKind

S0 = ("diameter", "easy")


def tiny_space():
    return FactorSpace((("a", ("x", "y", "z")), ("b", ("p", "q"))))


def test_space_shapes():
    space = default_space()
    assert space.sizes == (9, 7, 5)
    assert space.k_total == 315
    assert scaled_space().sizes == (9, 7, 5, 10, 10, 3, 4)


def test_empty_factor_rejected():
    with pytest.raises(EmptyFactor):
        FactorSpace((("a", ()),))


def test_a_space_with_no_factor_or_a_repeated_name_is_rejected():
    # A repeated name would let the later factor's option overwrite the
    # earlier one's wherever a combo is read by name. A repeated option is
    # a combination counted twice in K, so Cost could not reach 1 even
    # after every distinct combination was evaluated.
    with pytest.raises(EmptyFactor):
        FactorSpace(())
    with pytest.raises(ValueError, match="factor[(]s[)] model declared more than once"):
        FactorSpace((("model", ("a", "b")), ("case", ("upper",)), ("model", ("c", "d"))))
    with pytest.raises(ValueError, match="factor 'prompt_scheme' lists option[(]s[)] 0-shot "
                                         "more than once"):
        FactorSpace((("prompt_scheme", ("0-shot", "0-shot", "k-shot")), ("model", ("m",))))


@pytest.mark.parametrize("s0,named", [(("nope", "bogus"), "nope"),
                                      (("nope", "easy"), "nope"),
                                      (("diameter", "bogus"), "bogus")],
                         ids=["both", "task", "split"])
def test_unknown_start_state_is_rejected(s0, named):
    """A start state outside TaskKind/DifficultySplit is a ValueError naming
    the bad value, raised before any reward is spent."""
    calls = []
    with pytest.raises(ValueError, match=named):
        run_dqn(s0, tiny_space(), lambda c: calls.append(c) or 0.5, DQNConfig(episodes=3))
    assert calls == []


def test_degenerate_single_combo():
    space = FactorSpace((("a", ("only",)),))
    result = run_dqn(S0, space, lambda c: 0.7, DQNConfig(episodes=5, seed=0))
    assert result.best_combo == ("only",)
    assert result.explored == 1
    cost, rate = cost_rate(result, space, 0.7)
    assert cost == 1.0 and rate == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), float("inf")],
                         ids=["nan", "-inf", "inf"])
def test_a_reward_that_is_not_finite_is_rejected(bad):
    """A NaN or infinite reward is a ValueError naming the combination, not
    an assertion at the end of the search; the search stops at that
    reward."""
    calls = []
    message = r"^reward for \w\|\w is (nan|-?inf); a reward must be a finite number$"
    with pytest.raises(ValueError, match=message):
        run_dqn(S0, tiny_space(), lambda c: calls.append(c) or bad, DQNConfig(episodes=4))
    assert len(calls) == 1


def test_cost_rate_arithmetic():
    space = default_space()
    result = run_dqn(S0, space, lambda c: 0.5, DQNConfig(episodes=3, seed=1))
    result.explored = 79
    result.best_reward = 0.5
    cost, rate = cost_rate(result, space, 0.5)
    assert cost == pytest.approx(79 / 315)
    assert rate == 1.0
    assert cost_rate(result, space) == (cost, None)
    with pytest.raises(ZeroDenominator):
        cost_rate(result, space, 0.0)
    for acc_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="acc_max must be a finite number"):
            cost_rate(result, space, acc_max)


def test_grid_search_is_exhaustive_and_optimal():
    space = tiny_space()
    table = {c: 0.1 for c in combos(space)}
    table[("y", "q")] = 0.9
    result = grid_search(space, table_reward_fn(table))
    assert result.explored == space.k_total
    assert result.best_combo == ("y", "q") and result.best_reward == 0.9
    cost, rate = cost_rate(result, space, 0.9)
    assert cost == 1.0 and rate == 1.0


def test_grid_beats_or_ties_dqn():
    space = default_space()
    table, _ = make_planted_landscape(space, seed=3)
    fn = table_reward_fn(table)
    dqn = run_dqn(S0, space, fn, DQNConfig(seed=3))
    grid = grid_search(space, fn)
    assert grid.best_reward >= dqn.best_reward


@pytest.mark.parametrize("seed", range(5))
def test_greedy_consistency_with_true_table(seed, monkeypatch):
    """With epsilon pinned at 0 and Q functions initialized to the true
    table values, the search walks the argmax path every episode: one
    distinct combination, which is the global optimum."""
    monkeypatch.setattr(rlopt, "EPSILON_START", 0.0)
    space = default_space()
    table, planted = make_planted_landscape(space, seed=seed)
    cfg = DQNConfig(episodes=20, epsilon_min=0.0, seed=seed)
    result = run_dqn(S0, space, table_reward_fn(table), cfg,
                     q_functions=make_tabular_q(space, table))
    assert result.explored == 1
    assert result.best_combo == planted
    assert result.best_reward == 1.0


def test_replay_determinism():
    space = default_space()
    table, _ = make_planted_landscape(space, seed=11)
    fn = table_reward_fn(table)
    cfg = DQNConfig(seed=11)
    a = run_dqn(S0, space, fn, cfg)
    b = run_dqn(S0, space, fn, cfg)
    assert [(e.combo, e.reward, e.epsilon) for e in a.log] == \
        [(e.combo, e.reward, e.epsilon) for e in b.log]
    c = run_dqn(S0, space, fn, DQNConfig(seed=12))
    assert [e.combo for e in c.log] != [e.combo for e in a.log]


def test_explored_counts_distinct_combos():
    space = tiny_space()
    result = run_dqn(S0, space, lambda c: 0.5, DQNConfig(episodes=50, seed=2))
    seen = {e.combo for e in result.log}
    assert result.explored == len(seen) <= space.k_total
    assert result.best_reward == max(e.reward for e in result.log)


def test_epsilon_decay_modes():
    space = tiny_space()
    mult = run_dqn(S0, space, lambda c: 0.5,
                   DQNConfig(episodes=10, seed=0, decay_mode="multiplicative"))
    eps = [e.epsilon for e in mult.log]
    assert eps[0] == 1.0
    assert eps[1] == pytest.approx(0.95)
    lin = run_dqn(S0, space, lambda c: 0.5,
                  DQNConfig(episodes=10, seed=0, decay_mode="linear"))
    leps = [e.epsilon for e in lin.log]
    assert leps[0] == 1.0 and leps[-1] == pytest.approx(0.01)
    # An unknown mode is rejected before any reward is spent on it.
    calls = []
    with pytest.raises(ValueError):
        run_dqn(S0, space, lambda c: calls.append(c) or 0.5,
                DQNConfig(episodes=2, decay_mode="bogus"))
    assert calls == []


@pytest.mark.parametrize("optimizer", ["bogus", "SGD"])
def test_config_rejects_unknown_optimizer(optimizer):
    with pytest.raises(ValueError, match=optimizer):
        DQNConfig(optimizer=optimizer)


@pytest.mark.parametrize("field, value", [("episodes", 0), ("episodes", -1),
                                          ("learning_rate", float("nan")),
                                          ("learning_rate", float("inf")),
                                          ("learning_rate", 0.0), ("learning_rate", -0.001)])
def test_config_rejects_a_setting_a_search_cannot_run_with(field, value):
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        DQNConfig(**{field: value})


def test_cost_band_across_all_task_split_cases():
    """Replaying M=80 searches over every (task, split) initial state lands
    the average exploration cost in the expected band (~0.2 of K=315)."""
    space = default_space()
    tasks = ["connectivity", "cycle", "diameter", "bfs_order", "shortest_path", "triangle"]
    costs = []
    for i, task in enumerate(tasks):
        for j, split in enumerate(["easy", "medium", "hard"]):
            table, _ = make_planted_landscape(space, seed=100 + 3 * i + j)
            result = run_dqn((task, split), space, table_reward_fn(table),
                             DQNConfig(seed=3 * i + j, decay_mode="linear"))
            costs.append(result.explored / space.k_total)
    mean_cost = sum(costs) / len(costs)
    assert 0.10 <= mean_cost <= 0.30


def test_six_factor_scaled_space_runs():
    space = scaled_space()
    assert space.k_total == 315 * 10 * 10 * 3 * 4
    table_fn = lambda combo: 1.0 if combo[-1] == "upper" else 0.2
    result = run_dqn(S0, space, table_fn, DQNConfig(episodes=30, seed=4))
    assert len(result.best_combo) == 7
    assert result.explored <= 30
    assert result.best_reward in (0.2, 1.0)


def test_planted_landscape_properties():
    space = default_space()
    table, planted = make_planted_landscape(space, seed=0, cap=0.5)
    values = sorted(table.values())
    assert table[planted] == 1.0
    assert values[-2] <= 0.5
    median = values[len(values) // 2]
    assert 1.0 - median >= 0.2


def additive_reward(space, seed):
    """A reward over any space without a table: the mean of per-option scores."""
    rng = random.Random(seed)
    scores = [{a: rng.random() for a in options} for _, options in space.dims]
    return lambda combo: round(sum(s[a] for s, a in zip(scores, combo)) / len(scores), 6)


def log_digest(result):
    text = "\n".join(f"{'|'.join(e.combo)} {e.reward!r}" for e in result.log)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of every episode's (combo, reward), recorded from the per-row
# implementation that predicted one prefix at a time and stepped each
# parameter array separately. Any change to a decision changes the digest.
PLANTED_GOLDENS = {
    "adam": "dbd34299f8c5ad73b95fa3af8bb5e726ec0c1a792f20bb236b09aaf697233237",
    "sgd": "0057f9afb0c15ba60029cf348bdec446a368aa120ef22f1f569fd8b8a01390a7",
    "nlms": "08dce8bc8acfd4b08037cb9b864ef7f14f708217c0751cd7f13d350de21e8046",
}
SCALED_GOLDENS = {
    ("adam", False): "e0be06277be7f60653c7ebdac7ba9c0f2a31eebf9daf9c6a9c73aed4c55e8eef",
    ("adam", True): "0a5a7a424c52ff87351aabfac2d212270b1f9d12bb65f0eb8c84a8f0402f8d79",
    ("sgd", False): "331c402a2bdb4c18e5282ce330c161e7a6639737fb99db52993e689829975f72",
    ("sgd", True): "16355b7cc605395ebc3796592ddc08874f24369be0bca3ea289e63635313690a",
    ("nlms", False): "d78584971ff93fa90beaa8f9942140bf67a6f98ea9254cc34d0fae15e2f7f91c",
    ("nlms", True): "834dba34d8d1013c2e55c5dcaf710cc1521830763f08f2008a8432c5b50e25ea",
}


@pytest.mark.parametrize("optimizer", sorted(PLANTED_GOLDENS))
def test_planted_search_matches_golden_log(optimizer):
    space = default_space()
    table, _ = make_planted_landscape(space, seed=7)
    result = run_dqn(S0, space, table_reward_fn(table),
                     DQNConfig(episodes=2000, seed=7, optimizer=optimizer))
    assert log_digest(result) == PLANTED_GOLDENS[optimizer]


@pytest.mark.parametrize("optimizer,skip", sorted(SCALED_GOLDENS))
def test_scaled_search_matches_golden_log(optimizer, skip):
    space = scaled_space()
    result = run_dqn(S0, space, additive_reward(space, 9),
                     DQNConfig(episodes=300, seed=9, optimizer=optimizer, input_skip=skip))
    assert log_digest(result) == SCALED_GOLDENS[(optimizer, skip)]


def one_hot_row(s0, space, combo):
    """The network input for `combo`, built one factor at a time."""
    tasks = [t.value for t in TaskKind]
    splits = [d.value for d in DifficultySplit]
    parts = [np.eye(len(tasks))[tasks.index(s0[0])], np.eye(len(splits))[splits.index(s0[1])]]
    parts += [np.eye(len(options))[options.index(a)] for (_, options), a in zip(space.dims, combo)]
    return np.concatenate(parts)


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("optimizer", ["adam", "sgd", "nlms"])
def test_batched_predict_matches_per_row_forward(optimizer, skip):
    space = default_space()
    encoder = _Encoder(S0, space)
    rng = random.Random(0)
    np_rng = np.random.default_rng(0)
    for t in range(len(space.dims)):
        q = MLPQ(encoder, t, (64, 64), np_rng, optimizer=optimizer, skip=skip)
        for _ in range(50):
            combo = tuple(rng.choice(options) for _, options in space.dims[:t + 1])
            q.update(combo, rng.random(), 0.01)
        for _ in range(20):
            prefix = tuple(rng.choice(options) for _, options in space.dims[:t])
            options = space.options(t)
            batched = q.predict(prefix, options)
            per_row = [float(q._forward(one_hot_row(S0, space, prefix + (a,)))[-1][0])
                       for a in options]
            assert batched == pytest.approx(per_row, rel=0, abs=1e-12)
            assert np.argmax(batched) == np.argmax(per_row)


def test_encodings_are_memoized_and_read_only():
    space = default_space()
    encoder = _Encoder(S0, space)
    prefix = ("k-shot", "edge_list")
    rows = encoder.encode(prefix, space.options(2))
    assert encoder.encode(prefix, list(space.options(2))) is rows
    expected = [one_hot_row(S0, space, prefix + (a,)) for a in space.options(2)]
    assert np.array_equal(rows, np.array(expected))
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0
    with pytest.raises(ValueError):
        rows[0] += 1.0


@pytest.mark.parametrize("row", [
    [0.2, 0.7, 0.7, 0.1], [0.5, 0.5, 0.5], [-1.0, float("-inf"), -1.0],
    [float("nan")] * 3, [0.1, 0.9, float("nan"), 0.9], [float("nan"), 0.9, float("nan")],
    [float("inf"), 0.3, float("inf")], [0.4],
], ids=["tie", "all-equal", "negative", "all-nan", "nan-after-max", "nan-first", "inf", "one"])
def test_first_max_matches_argmax(row):
    assert _first_max(row) == int(np.argmax(row))


def test_an_adam_step_allocates_nothing_parameter_sized():
    """After warm-up, one Adam update peaks below twice the parameter
    buffer. The remainder is numpy's buffer for the outer products."""
    space = default_space()
    q = MLPQ(_Encoder(S0, space), 2, (64, 64), np.random.default_rng(0))
    combo = ("k-shot", "edge_list", "mistral")
    for _ in range(3):
        q.update(combo, 0.5, 0.001)
    tracemalloc.start()
    try:
        q.update(combo, 0.5, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * q._params.nbytes
