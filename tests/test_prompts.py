"""Prompt composition: question wording, scheme layouts, exemplar banks,
and decoration behavior."""

import random

import pytest

from graphbench import answer_eval
from graphbench.corpus import QuerySpec, build_corpus
from graphbench.errors import EmptyBank, MissingParam
from graphbench.generators import DifficultySplit, GraphFamily
from graphbench.graphs import Graph
from graphbench import prompts
from graphbench.prompts import (CASE_FUNCTIONS, DecorationFactors, ExemplarBank,
                                IDENTITY_DECORATION, PromptScheme, QA_DELIMS, SENTENCE_DELIMS,
                                WORD_DELIMS, build_exemplars, compose_prompt, question_text,
                                render_answer)
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TaskKind, compute_ground_truth


def make_query(task=TaskKind.BFS_ORDER, params=None, graph=None):
    g = graph or Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    params = params if params is not None else {"start": 0}
    gt = compute_ground_truth(task, g, params)
    return QuerySpec(id="t-0", task=task, difficulty=DifficultySplit.EASY,
                     family=GraphFamily.ERM, graph=g, params=params,
                     ground_truth=gt, seed=0)


def test_question_texts():
    assert question_text(TaskKind.CYCLE) == "Is there a cycle in this graph?"
    assert question_text(TaskKind.SHORTEST_PATH, {"u": 5, "v": 8}) == \
        "Give the shortest path from node 5 to node 8."
    assert question_text(TaskKind.DIAMETER) == "What is the diameter of this graph?"
    assert question_text(TaskKind.BFS_ORDER, {"start": 4}) == \
        "Give the bfs traversal order starting from node 4."
    assert question_text(TaskKind.TRIANGLE) == "How many triangles are in this graph?"
    assert question_text(TaskKind.CONNECTIVITY, {"u": 1, "v": 5}) == \
        "Is there a path between node 1 and node 5?"


def test_question_missing_param():
    with pytest.raises(MissingParam):
        question_text(TaskKind.BFS_ORDER, {})
    with pytest.raises(MissingParam):
        question_text(TaskKind.SHORTEST_PATH, {"u": 1})


def test_zero_shot_layout():
    q = make_query(params={"start": 4})
    prompt = compose_prompt(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST)
    assert prompt.startswith(
        "Given a graph, your task is to determine the bfs traversal order of this "
        "graph starting at node 4. And the graph representation of: Adjacency List is \n")
    assert prompt.endswith("Q: Give the bfs traversal order starting from node 4.\n\nA:")


def test_zero_cot_suffix():
    q = make_query()
    prompt = compose_prompt(q, PromptScheme.ZERO_COT, F.ADJACENCY_LIST)
    assert prompt.endswith("A: \n\nLet's think step by step:")


def test_ltm_and_zero_instruct_suffixes():
    q = make_query()
    assert compose_prompt(q, PromptScheme.LTM, F.EDGE_LIST).endswith(
        "A: \n\nLet's break down this problem:")
    assert compose_prompt(q, PromptScheme.ZERO_INSTRUCT, F.EDGE_LIST).endswith(
        "A: \n\nLet's construct a graph with the nodes and edges first:")


def test_zero_algorithm_opens_with_block():
    q = make_query()
    prompt = compose_prompt(q, PromptScheme.ZERO_ALGORITHM, F.ADJACENCY_SET)
    assert prompt.startswith("To determine the BFS (Breadth-First Search) traversal "
                             "order, you need to follow these steps:")
    assert prompt.endswith("A:")


def test_shot_bearing_prepends_exemplar_block_only():
    q = make_query()
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.K_SHOT, k=5)
    shot = compose_prompt(q, PromptScheme.K_SHOT, F.ADJACENCY_LIST, bank=bank)
    zero = compose_prompt(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST)
    assert shot.endswith(zero)
    assert shot != zero
    assert shot.count("\nA: ") >= 5


def test_instruct_inserts_item_line():
    q = make_query()
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.INSTRUCT, k=2)
    prompt = compose_prompt(q, PromptScheme.INSTRUCT, F.ADJACENCY_LIST, bank=bank)
    line = "Let's construct a graph with the nodes and edges first."
    # once per exemplar plus once for the final item
    assert prompt.count(line) == 3
    assert prompt.endswith("A:")


def test_empty_bank_raises():
    q = make_query()
    with pytest.raises(EmptyBank):
        compose_prompt(q, PromptScheme.COT, F.ADJACENCY_LIST, bank=None)


def test_graph_text_is_verbatim_substring():
    rng = random.Random(3)
    q = make_query()
    for fmt in F:
        rendered = serialize(q.graph, fmt)
        for deco in (IDENTITY_DECORATION,
                     DecorationFactors(sentence_delim=" || ", qa_delim=" - ",
                                       word_delim="\t", case="upper")):
            prompt = compose_prompt(q, PromptScheme.ZERO_COT, fmt, deco=deco)
            assert rendered in prompt


def test_final_item_carries_query_graph():
    """The query's serialized graph appears verbatim in the final item, the
    one a responder must answer, after every exemplar."""
    decos = (IDENTITY_DECORATION, DecorationFactors(word_delim="\t"),
             DecorationFactors(qa_delim=" :: "),
             DecorationFactors(sentence_delim=" \n", qa_delim=" \n\t", word_delim="  ",
                               case="title"))
    for q in build_corpus(list(TaskKind), [DifficultySplit.EASY], None, 1, master_seed=4):
        bank = build_exemplars(q.task, PromptScheme.K_SHOT, k=3)
        for fmt in F:
            rendered = serialize(q.graph, fmt)
            for deco in decos:
                assert rendered in compose_prompt(q, PromptScheme.ZERO_SHOT, fmt, deco=deco)
                shot = compose_prompt(q, PromptScheme.K_SHOT, fmt, bank=bank, deco=deco)
                last_answer = deco.a_marker(deco.text(bank.exemplars[-1].answer))
                final_item = shot[shot.rindex(last_answer) + len(last_answer):]
                assert rendered in final_item, (q.task, fmt, deco)


def test_identity_decoration_is_byte_identical():
    q = make_query()
    for scheme in (PromptScheme.ZERO_SHOT, PromptScheme.ZERO_ALGORITHM, PromptScheme.LTM):
        undecorated = compose_prompt(q, scheme, F.GMOL)
        identity = compose_prompt(q, scheme, F.GMOL, deco=DecorationFactors())
        assert undecorated == identity


def test_decoration_pool_membership():
    with pytest.raises(ValueError):
        DecorationFactors(sentence_delim="~~")
    with pytest.raises(ValueError):
        DecorationFactors(case="sPoNgE")
    for pool, field in ((SENTENCE_DELIMS, "sentence_delim"), (QA_DELIMS, "qa_delim"),
                        (WORD_DELIMS, "word_delim"), (CASE_FUNCTIONS, "case")):
        for value in pool:
            DecorationFactors(**{field: value})


def test_decorated_markers():
    q = make_query()
    deco = DecorationFactors(qa_delim=" ::: ", case="lower")
    prompt = compose_prompt(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST, deco=deco)
    assert "Q ::: give the bfs traversal order starting from node 0." in prompt
    assert prompt.endswith("A ::: ")


@pytest.mark.parametrize("task", list(TaskKind))
@pytest.mark.parametrize("scheme", [PromptScheme.K_SHOT, PromptScheme.COT,
                                    PromptScheme.ALGORITHM])
def test_exemplar_answers_score_one(task, scheme):
    bank = build_exemplars(task, scheme, k=5)
    assert len(bank) == 5
    for ex in bank.exemplars:
        gt = compute_ground_truth(task, ex.graph, ex.params)
        ans = answer_eval.extract(task, ex.answer)
        assert answer_eval.score(task, ex.graph, ex.params, gt, ans) == 1, \
            (task, scheme, ex.answer)


def test_exemplar_bank_determinism():
    a = build_exemplars(TaskKind.TRIANGLE, PromptScheme.K_SHOT, k=5)
    b = build_exemplars(TaskKind.TRIANGLE, PromptScheme.K_SHOT, k=5)
    assert [(e.graph, e.params, e.answer) for e in a.exemplars] == \
        [(e.graph, e.params, e.answer) for e in b.exemplars]


def test_bank_renders_each_exemplar_once_per_format_and_decoration(monkeypatch):
    """Prompts from a reused bank equal those from a fresh one, whatever the
    order of formats, decorations and schemes, and each exemplar graph is
    serialized once per format."""
    queries = build_corpus([TaskKind.CYCLE], [DifficultySplit.EASY], None, 4, master_seed=2)
    bank = build_exemplars(TaskKind.CYCLE, PromptScheme.INSTRUCT, k=3)
    cells = [(scheme, fmt, deco)
             for deco in (IDENTITY_DECORATION, DecorationFactors(case="upper", qa_delim=" :: "))
             for scheme in (PromptScheme.INSTRUCT, PromptScheme.K_SHOT)
             for fmt in (F.EDGE_LIST, F.GMOL)]
    fresh = [compose_prompt(q, scheme, fmt, ExemplarBank(bank.task, bank.scheme, bank.exemplars),
                            deco) for q in queries for scheme, fmt, deco in cells]
    calls = []
    monkeypatch.setattr(prompts, "serialize", lambda g, fmt: calls.append(fmt) or serialize(g, fmt))
    reused = [compose_prompt(q, scheme, fmt, bank, deco)
              for q in queries for scheme, fmt, deco in cells]
    assert reused == fresh
    # One call per prompt for the query graph, and one per exemplar for
    # each of the 8 (scheme, format, decoration) keys.
    assert len(calls) == len(fresh) + len(cells) * len(bank)


def test_kshot_bfs_answer_phrase():
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.K_SHOT, k=3)
    for ex in bank.exemplars:
        assert ex.answer.startswith(
            f"The BFS traversal order starting from node {ex.params['start']} is ")


ANSWER_VALUES = {
    TaskKind.CYCLE: [True, False],
    TaskKind.CONNECTIVITY: [True, False],
    TaskKind.DIAMETER: [0, 7],
    TaskKind.TRIANGLE: [0, 1024],
    TaskKind.BFS_ORDER: [[2], [2, 0, 1]],
    TaskKind.SHORTEST_PATH: [[1], [1, 0, 3]],
    TaskKind.HAMILTONIAN: [False, True, [0, 1, 2, 0]],
    TaskKind.MAX_CUT: [{"size": 3, "partition": None},
                       {"size": 0, "partition": [[0, 1], []]},
                       {"size": 2, "partition": [[0], [1, 2]]}],
}


@pytest.mark.parametrize("task", list(TaskKind), ids=lambda t: t.value)
def test_render_answer_round_trips_through_extract(task):
    params = {"start": 2, "u": 1, "v": 3}
    for value in ANSWER_VALUES[task]:
        text = render_answer(task, params, value)
        got = answer_eval.extract(task, text)
        assert got == value and type(got) is type(value), (value, text)
