"""Property-based checks over randomly drawn graphs."""

import hashlib
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import connected_components, read_back
from graphbench import answer_eval
from graphbench.corpus import build_corpus
from graphbench.gateway import (MAX_TOKENS, TEMPERATURE, TOP_P, CompletionRequest, MockBackend,
                                _word_count)
from graphbench.generators import DifficultySplit
from graphbench.graphs import (Graph, bfs_levels, has_cycle, is_connected, triangle_count,
                               verify_bfs_order)
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TASKS
from graphbench.tasks import TaskKind as T


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("fmt", list(F), ids=lambda f: f.value)
@settings(max_examples=60, deadline=None)
@given(g=graphs())
def test_round_trip_preserves_graph(g, fmt):
    assert read_back(serialize(g, fmt), fmt, g.n) == g


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2))
def test_cycle_matches_component_edge_count(g):
    assert has_cycle(g) == (g.m > g.n - len(connected_components(g)))


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1), st.data())
def test_canonical_bfs_order_always_verifies(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    order = list(bfs_levels(g, s))
    assert verify_bfs_order(g, s, order)
    assert set(order) == set(bfs_levels(g, s))


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=3, max_n=8), st.sampled_from(list(T)), st.randoms(use_true_random=False))
# No edges: one side of the maximum cut is empty and is written "{}".
@example(Graph.from_edges(4, []), T.MAX_CUT, random.Random(0))
def test_gold_answers_always_score_one(g, task, rng):
    """The gold sentence reads back as the gold value, which scores 1."""
    params = {}
    if task is T.BFS_ORDER:
        params = {"start": rng.randrange(g.n)}
    elif task is T.CONNECTIVITY:
        u, v = rng.sample(range(g.n), 2)
        params = {"u": u, "v": v}
    elif task is T.SHORTEST_PATH:
        u = rng.randrange(g.n)
        reachable = sorted(bfs_levels(g, u).keys() - {u})
        assume(reachable)
        params = {"u": u, "v": rng.choice(reachable)}
    elif task is T.DIAMETER:
        assume(is_connected(g))
    spec = TASKS[task]
    gt = spec.oracle(g, params)
    value = spec.gold(g, params, gt)
    extracted = answer_eval.extract(task, spec.render(params, value))
    assert extracted == value
    assert answer_eval.score(task, g, params, gt, extracted) == 1


# Every task x split at two seeds, but hard Hamiltonian: its backtracking
# oracle takes seconds to minutes on those draws. Add that cell when ROADMAP
# item 1 bounds the oracle.
CODEC_CELLS = [(task, split, seed) for task in T for split in DifficultySplit for seed in (0, 1)
               if not (task is T.HAMILTONIAN and split is DifficultySplit.HARD)]


@pytest.mark.parametrize("task,split,seed", CODEC_CELLS,
                         ids=lambda v: v if isinstance(v, int) else v.value)
def test_gold_and_wrong_values_read_back_and_score(task, split, seed):
    """On drawn corpus items the gold value scores 1 and the wrong value
    scores 0, and each is read back from its sentence as the same value of
    the same type."""
    spec = TASKS[task]
    for q in build_corpus([task], [split], None, 12, master_seed=seed):
        gold = spec.gold(q.graph, q.params, q.ground_truth)
        for value, want in ((gold, 1), (spec.wrong(q.n, gold), 0)):
            got = answer_eval.extract(task, spec.render(q.params, value))
            assert got == value and type(got) is type(value), (q.id, value)
            assert answer_eval.score(task, q.graph, q.params, q.ground_truth, got) == want, \
                (q.id, value)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_triangle_count_nonnegative_and_bounded(g):
    count = triangle_count(g)
    assert 0 <= count <= g.n * (g.n - 1) * (g.n - 2) // 6


# Every ASCII character `str.split()` splits on, three non-ASCII spaces it
# also splits on, and letters.
WORD_ALPHABET = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u2003ab"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=WORD_ALPHABET, max_size=40))
@example("")
@example("a")
@example(" a\x1fb\x0b")
@example("a\xa0b")
def test_word_count_is_the_length_of_split(text):
    assert _word_count(text) == len(text.split())


# The formulas a request's cache key and the mock's draw were computed by
# when a request held its prompt as one joined text.
def joined_cache_key(model: str, prompt: str) -> str:
    payload = "\x00".join([model, prompt, repr(TEMPERATURE), repr(TOP_P), repr(MAX_TOKENS)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def joined_draw(seed: int, prompt: str) -> float:
    digest = hashlib.sha256(f"{seed}\x00bernoulli\x00{prompt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# Any text UTF-8 can encode: every character but the lone surrogates.
PROMPT_PART = st.text(alphabet=st.one_of(st.sampled_from(WORD_ALPHABET),
                                        st.characters(exclude_categories=("Cs",))),
                      max_size=40)
MOCK_QUERY = build_corpus([T.CYCLE], [DifficultySplit.EASY], None, 1, master_seed=0)[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), PROMPT_PART.filter(bool)), PROMPT_PART,
       st.text(max_size=8), st.integers(0, 2**64))
@example(None, "", "m", 0)
@example(" a\n", "", "m", 1)
@example("\xe9t\xe9 ", " \u2003b\xa0", "m\xfc", 2)
def test_a_split_prompt_keys_draws_and_counts_as_its_joined_text(head, body, model, seed):
    """The cache key, the mock's Bernoulli draw and `tokens_in` of a
    request that carries a head and a body are those of their joined text."""
    prompt = body if head is None else head + "\n\n" + body
    req = CompletionRequest(model, body, head, query=MOCK_QUERY)
    mock = MockBackend(mode="bernoulli", error_rate=0.5, seed=seed)
    assert req.prompt == prompt
    assert req.cache_key() == joined_cache_key(model, prompt)
    assert mock._unit(req) == joined_draw(seed, prompt)
    assert mock.complete(req).tokens_in == len(prompt.split())


def render_matrix_by_pairs(g: Graph) -> str:
    """The adjacency-matrix text from one `has_edge` test per node pair:
    the reference the serializer's row-by-neighbours rendering must match."""
    if g.n == 0:
        return "[]"
    rows = []
    for u in range(g.n):
        cells = " ".join("1" if g.has_edge(u, v) else "0" for v in range(g.n))
        open_b = "[[" if u == 0 else " ["
        close_b = "]]" if u == g.n - 1 else "]"
        pad = " " if 0 < u < g.n - 1 else ""
        rows.append(f"{open_b}{cells}{close_b}{pad}")
    return "\n".join(rows)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=0, max_n=25))
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
def test_matrix_rendering_matches_the_pairwise_reference(g):
    assert serialize(g, F.ADJACENCY_MATRIX) == render_matrix_by_pairs(g)
