"""Prompt composition: question wording, scheme layouts, exemplar banks,
and decoration behavior."""

import hashlib
import random
from collections import Counter

import pytest

from graphbench import answer_eval
from graphbench.corpus import QuerySpec, build_corpus
from graphbench.corpus import MAX_QUERY_ATTEMPTS
from graphbench.errors import ExhaustedAttempts, MissingParam
from graphbench.gateway import Gateway, MockBackend
from graphbench.generators import DifficultySplit, GraphFamily
from graphbench.graphs import Graph
from graphbench.pipeline import compose_cells, run_evaluation
from graphbench import prompts
from graphbench.prompts import (CASE_FUNCTIONS, DecorationFactors, IDENTITY_DECORATION,
                                PromptScheme, QA_DELIMS, Renderer, SENTENCE_DELIMS, WORD_DELIMS,
                                build_exemplars, compose_prompt, join_prompt, task_sentence)
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TASKS, TaskKind


def prompt_text(*args, **kwargs) -> str:
    """The prompt `compose_prompt` composes, as one text."""
    return join_prompt(*compose_prompt(*args, **kwargs))


def make_query(task=TaskKind.BFS_ORDER, params=None, graph=None):
    g = graph or Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    params = params if params is not None else {"start": 0}
    gt = TASKS[task].oracle(g, params)
    return QuerySpec(id="t-0", task=task, difficulty=DifficultySplit.EASY,
                     family=GraphFamily.ERM, graph=g, params=params,
                     ground_truth=gt, seed=0)


def test_question_texts():
    assert task_sentence(TaskKind.CYCLE, "question", {}) == "Is there a cycle in this graph?"
    assert task_sentence(TaskKind.SHORTEST_PATH, "question", {"u": 5, "v": 8}) == \
        "Give the shortest path from node 5 to node 8."
    assert task_sentence(TaskKind.DIAMETER, "question", {}) == \
        "What is the diameter of this graph?"
    assert task_sentence(TaskKind.BFS_ORDER, "question", {"start": 4}) == \
        "Give the bfs traversal order starting from node 4."
    assert task_sentence(TaskKind.TRIANGLE, "question", {}) == \
        "How many triangles are in this graph?"
    assert task_sentence(TaskKind.CONNECTIVITY, "question", {"u": 1, "v": 5}) == \
        "Is there a path between node 1 and node 5?"


def test_question_missing_param():
    with pytest.raises(MissingParam):
        task_sentence(TaskKind.BFS_ORDER, "question", {})
    with pytest.raises(MissingParam):
        task_sentence(TaskKind.SHORTEST_PATH, "question", {"u": 1})


@pytest.mark.parametrize("part", ["question", "framing"])
def test_a_missing_parameter_is_named_with_the_sentence_that_needs_it(part):
    with pytest.raises(MissingParam) as err:
        task_sentence(TaskKind.BFS_ORDER, part, {})
    assert str(err.value) == f"bfs_order {part} needs parameter 'start'"


def test_each_scheme_is_one_row():
    """Token, shot-bearing, narrated, algorithm block, instruct items and
    suffix, per scheme."""
    rows = {s: (s.value, s.shot_bearing, s.narrated, s.has_algorithm_block, s.instruct_items,
                s.suffix) for s in PromptScheme}
    assert rows == {
        PromptScheme.ZERO_SHOT: ("0-shot", False, False, False, False, None),
        PromptScheme.ZERO_COT: ("0-CoT", False, False, False, False,
                                "Let's think step by step:"),
        PromptScheme.ZERO_INSTRUCT: ("0-Instruct", False, False, False, False,
                                     "Let's construct a graph with the nodes and edges first:"),
        PromptScheme.ZERO_ALGORITHM: ("0-Algorithm", False, False, True, False, None),
        PromptScheme.LTM: ("LTM", False, False, False, False, "Let's break down this problem:"),
        PromptScheme.K_SHOT: ("k-shot", True, False, False, False, None),
        PromptScheme.COT: ("CoT", True, True, False, False, None),
        PromptScheme.INSTRUCT: ("Instruct", True, True, False, True, None),
        PromptScheme.ALGORITHM: ("Algorithm", True, True, True, False, None),
    }
    assert [PromptScheme(row[0]) for row in rows.values()] == list(PromptScheme)


def test_zero_shot_layout():
    q = make_query(params={"start": 4})
    prompt = prompt_text(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST)
    assert prompt.startswith(
        "Given a graph, your task is to determine the bfs traversal order of this "
        "graph starting at node 4. And the graph representation of: Adjacency List is \n")
    assert prompt.endswith("Q: Give the bfs traversal order starting from node 4.\n\nA:")


def test_zero_cot_suffix():
    q = make_query()
    prompt = prompt_text(q, PromptScheme.ZERO_COT, F.ADJACENCY_LIST)
    assert prompt.endswith("A: \n\nLet's think step by step:")


def test_ltm_and_zero_instruct_suffixes():
    q = make_query()
    assert prompt_text(q, PromptScheme.LTM, F.EDGE_LIST).endswith(
        "A: \n\nLet's break down this problem:")
    assert prompt_text(q, PromptScheme.ZERO_INSTRUCT, F.EDGE_LIST).endswith(
        "A: \n\nLet's construct a graph with the nodes and edges first:")


def test_zero_algorithm_opens_with_block():
    q = make_query()
    prompt = prompt_text(q, PromptScheme.ZERO_ALGORITHM, F.ADJACENCY_SET)
    assert prompt.startswith("To determine the BFS (Breadth-First Search) traversal "
                             "order, you need to follow these steps:")
    assert prompt.endswith("A:")


def test_shot_bearing_prepends_exemplar_block_only():
    q = make_query()
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.K_SHOT)
    shot = prompt_text(q, PromptScheme.K_SHOT, F.ADJACENCY_LIST)
    zero = prompt_text(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST)
    assert shot.endswith(zero)
    assert shot != zero
    assert shot.count("\nA: ") >= len(bank) == prompts.EXEMPLARS_PER_BANK == 5


def test_instruct_inserts_item_line():
    q = make_query()
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.INSTRUCT)
    prompt = prompt_text(q, PromptScheme.INSTRUCT, F.ADJACENCY_LIST)
    line = "Let's construct a graph with the nodes and edges first."
    # once per exemplar plus once for the final item
    assert prompt.count(line) == len(bank) + 1
    assert prompt.endswith("A:")


def test_graph_text_is_verbatim_substring():
    rng = random.Random(3)
    q = make_query()
    for fmt in F:
        rendered = serialize(q.graph, fmt)
        for deco in (IDENTITY_DECORATION,
                     DecorationFactors(sentence_delim=" || ", qa_delim=" - ",
                                       word_delim="\t", case="upper")):
            prompt = prompt_text(q, PromptScheme.ZERO_COT, fmt, deco=deco)
            assert rendered in prompt


def test_final_item_carries_query_graph():
    """The query's serialized graph appears verbatim in the final item, the
    one a responder must answer, after every exemplar."""
    decos = (IDENTITY_DECORATION, DecorationFactors(word_delim="\t"),
             DecorationFactors(qa_delim=" :: "),
             DecorationFactors(sentence_delim=" \n", qa_delim=" \n\t", word_delim="  ",
                               case="title"))
    for q in build_corpus(list(TaskKind), [DifficultySplit.EASY], None, 1, master_seed=4):
        renderer = Renderer()
        bank = build_exemplars(q.task, PromptScheme.K_SHOT)
        for fmt in F:
            rendered = serialize(q.graph, fmt)
            for deco in decos:
                assert rendered in prompt_text(q, PromptScheme.ZERO_SHOT, fmt, deco=deco)
                shot = prompt_text(q, PromptScheme.K_SHOT, fmt, renderer=renderer, deco=deco)
                last_answer = deco.a_marker(deco.text(bank[-1].answer))
                final_item = shot[shot.rindex(last_answer) + len(last_answer):]
                assert rendered in final_item, (q.task, fmt, deco)


def test_identity_decoration_is_byte_identical():
    q = make_query()
    for scheme in (PromptScheme.ZERO_SHOT, PromptScheme.ZERO_ALGORITHM, PromptScheme.LTM):
        undecorated = prompt_text(q, scheme, F.GMOL)
        identity = prompt_text(q, scheme, F.GMOL, deco=DecorationFactors())
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
    prompt = prompt_text(q, PromptScheme.ZERO_SHOT, F.ADJACENCY_LIST, deco=deco)
    assert "Q ::: give the bfs traversal order starting from node 0." in prompt
    assert prompt.endswith("A ::: ")


@pytest.mark.parametrize("task", list(TaskKind))
@pytest.mark.parametrize("scheme", [PromptScheme.K_SHOT, PromptScheme.COT,
                                    PromptScheme.ALGORITHM])
def test_exemplar_answers_score_one(task, scheme):
    bank = build_exemplars(task, scheme)
    assert len(bank) == 5
    for ex in bank:
        gt = TASKS[task].oracle(ex.graph, ex.params)
        ans = answer_eval.extract(task, ex.answer)
        assert answer_eval.score(task, ex.graph, ex.params, gt, ans) == 1, \
            (task, scheme, ex.answer)


def test_exemplar_bank_determinism():
    a = build_exemplars(TaskKind.TRIANGLE, PromptScheme.K_SHOT)
    b = build_exemplars(TaskKind.TRIANGLE, PromptScheme.K_SHOT)
    assert [(e.graph, e.params, e.answer) for e in a] == \
        [(e.graph, e.params, e.answer) for e in b]


def test_bank_renders_each_exemplar_once_per_format_and_decoration(monkeypatch):
    """Prompts from a reused renderer equal those from a fresh one per
    prompt, whatever the order of formats, decorations and schemes, and
    each distinct graph, query or exemplar, is serialized once per format."""
    queries = build_corpus([TaskKind.CYCLE], [DifficultySplit.EASY], None, 4, master_seed=2)
    schemes = (PromptScheme.INSTRUCT, PromptScheme.K_SHOT)
    formats = (F.EDGE_LIST, F.GMOL)
    cells = [(scheme, fmt, deco)
             for deco in (IDENTITY_DECORATION, DecorationFactors(case="upper", qa_delim=" :: "))
             for scheme in schemes for fmt in formats]
    fresh = [prompt_text(q, scheme, fmt, Renderer(), deco)
             for q in queries for scheme, fmt, deco in cells]
    calls = []
    monkeypatch.setattr(prompts, "serialize", lambda g, fmt: calls.append((g, fmt))
                        or serialize(g, fmt))
    renderer = Renderer()
    reused = [prompt_text(q, scheme, fmt, renderer, deco)
              for q in queries for scheme, fmt, deco in cells]
    assert reused == fresh
    graphs = {q.graph for q in queries} | {ex.graph for scheme in schemes
                                           for ex in build_exemplars(TaskKind.CYCLE, scheme)}
    # One call per distinct graph and format: 4 query graphs and two banks
    # of 5 exemplars, in 2 formats.
    assert Counter(calls) == Counter((g, fmt) for g in graphs for fmt in formats)
    assert len(calls) == 28


# Per task, sha256 over the prompts test_prompts_match_the_pinned_digest
# composes for that task's query, in order, each followed by a NUL byte.
PROMPT_DIGESTS = {
    "connectivity": "66f6c9b113e3f0a5f86e7614abf3a6c510ffa4bac93e60feab7f0cd9980bf37a",
    "cycle": "e3a8bd694e74c7cb35b8a9b00521d0d4802982ef1c78a7a9c69fcb7b91677ced",
    "diameter": "47a1720e5ef60e82c214bed79e0bc4036a9d0c5c656dd536be6065ef72e1ad8d",
    "bfs_order": "998241ed4899610a43765417c81779d9534e544fd808ca4ebf4fe86ef34d5f2b",
    "shortest_path": "173ba8e124600dc813ed3c706107548172ac35a8ce7993675516e51890da716a",
    "triangle": "ded207a2d919219f42f46b410389b47f69da28573f3e43308cf1f7ed9bfa5562",
    "hamiltonian": "96574889df1a143d7180945823779bb54c5c67e12bf57214146a5078a51972ea",
    "max_cut": "0df95737fbdd49d9f5d7765f96104db08148da902e09c4163747e297b973bba8",
}


def prompt_digests() -> dict[str, str]:
    queries = build_corpus(list(TaskKind), [DifficultySplit.EASY], None, 1, master_seed=0)
    decos = (IDENTITY_DECORATION, DecorationFactors(sentence_delim=" <sep> ", qa_delim=" :: ",
                                                    word_delim="\t", case="upper"))
    renderer = Renderer()
    digests = {}
    for q in queries:
        digest = hashlib.sha256()
        for deco in decos:
            for scheme in PromptScheme:
                for fmt in F:
                    prompt = prompt_text(q, scheme, fmt, renderer, deco)
                    digest.update(prompt.encode("utf-8") + b"\x00")
        digests[q.task.value] = digest.hexdigest()
    return digests


def test_prompts_match_the_pinned_digest():
    """Every scheme x format x decoration prompt for one easy query per task
    is byte-identical to the pinned rendering."""
    assert prompt_digests() == PROMPT_DIGESTS


def test_an_exemplar_that_cannot_be_drawn_names_its_task_scheme_and_family(monkeypatch):
    """A bank's attempts all draw from its one reserved stream, and the
    exemplar that cannot be drawn is named with the scheme and the family
    whose turn it is: the third of shortest_path's sorted families."""
    spec, streams = TASKS[TaskKind.SHORTEST_PATH], []
    sample_params = spec.sample_params

    def usable_twice(g, rng):
        streams.append(rng)
        if len(streams) > 2:
            raise ExhaustedAttempts("no usable parameters")
        return sample_params(g, rng)

    monkeypatch.setattr(spec, "sample_params", usable_twice)
    with pytest.raises(ExhaustedAttempts) as exc:
        build_exemplars(TaskKind.SHORTEST_PATH, PromptScheme.COT)
    assert str(exc.value) == (f"could not draw shortest_path/easy/berm CoT exemplar 2: "
                              f"{MAX_QUERY_ATTEMPTS} attempts were unusable")
    assert len(streams) == 2 + MAX_QUERY_ATTEMPTS
    assert len({id(rng) for rng in streams}) == 1


def test_every_bank_follows_the_corpus_draw_rules():
    """No exemplar bank repeats an edge set, and no Hamiltonian exemplar has
    an isolated vertex, which the edge-only formats would render as a
    different graph than the one its answer is about."""
    for task in TaskKind:
        for scheme in (s for s in PromptScheme if s.shot_bearing):
            graphs = [ex.graph for ex in build_exemplars(task, scheme)]
            assert len({g.edges for g in graphs}) == len(graphs), (task, scheme)
            if task is TaskKind.HAMILTONIAN:
                assert all(g.degree(u) > 0 for g in graphs for u in range(g.n)), scheme


def test_run_evaluation_renders_each_graph_once_per_format(monkeypatch):
    """Whatever the number of schemes, every graph (query or exemplar) is
    serialized once per format."""
    queries = build_corpus(list(TaskKind), [DifficultySplit.EASY], None, 1, master_seed=5)
    calls = Counter()
    monkeypatch.setattr(prompts, "serialize", lambda g, fmt: calls.update([(id(g), fmt)])
                        or serialize(g, fmt))
    records = list(run_evaluation(queries, list(PromptScheme), list(F),
                                  Gateway(MockBackend())))
    assert len(records) == len(queries) * len(PromptScheme) * len(F) == 504
    assert all(r["score"] == 1 for r in records)
    assert [calls[id(q.graph), fmt] for q in queries for fmt in F] == [1] * (8 * 7)
    assert set(calls.values()) == {1}


def counted_banks(monkeypatch) -> Counter:
    """Count every exemplar bank the renderer builds, by (task, scheme)."""
    built, build = Counter(), prompts.build_exemplars

    def counted(task, scheme):
        built[task, scheme] += 1
        return build(task, scheme)

    monkeypatch.setattr(prompts, "build_exemplars", counted)
    return built


def test_a_batch_keeps_only_its_own_tasks_banks_and_heads(monkeypatch):
    """Composing a batch of task A, then one of task B, leaves the renderer
    holding nothing of A: composing A again builds its banks again (a
    head of A still held would need no bank), and its prompts are the
    same."""
    a = build_corpus([TaskKind.CYCLE], [DifficultySplit.EASY], None, 2, master_seed=3)
    b = build_corpus([TaskKind.TRIANGLE], [DifficultySplit.EASY], None, 2, master_seed=3)
    shot = [s for s in PromptScheme if s.shot_bearing]
    built = counted_banks(monkeypatch)
    renderer = Renderer()
    first = list(compose_cells(a, list(PromptScheme), list(F), renderer=renderer))
    list(compose_cells(b, list(PromptScheme), list(F), renderer=renderer))
    assert built == Counter((task, s) for task in (TaskKind.CYCLE, TaskKind.TRIANGLE)
                            for s in shot)
    again = list(compose_cells(a, list(PromptScheme), list(F), renderer=renderer))
    assert again == first
    assert built == Counter({(TaskKind.CYCLE, s): 2 for s in shot}
                            | {(TaskKind.TRIANGLE, s): 1 for s in shot})


def test_a_task_major_run_in_chunks_builds_each_bank_once(monkeypatch):
    """A 9 x 7 run over a task-major corpus, as `generate` writes, composed
    a few queries at a time, builds each (task, scheme) bank once, though
    its chunks keep no bank of a task they lack: after the run, the first
    task's banks are built again."""
    queries = build_corpus(list(TaskKind), [DifficultySplit.EASY], None, 2, master_seed=1)
    tasks = [q.task for q in queries]
    assert tasks == sorted(tasks, key=tasks.index)
    built = counted_banks(monkeypatch)
    renderer = Renderer()
    gateway = Gateway(MockBackend(error_rate=0.5, seed=2))
    for start in range(0, len(queries), 3):
        records = list(run_evaluation(queries[start:start + 3], list(PromptScheme), list(F),
                                      gateway, renderer=renderer))
        assert len(records) == len(queries[start:start + 3]) * 63
    shot = [s for s in PromptScheme if s.shot_bearing]
    assert built == Counter((task, s) for task in TaskKind for s in shot)
    list(compose_cells(queries[:1], list(PromptScheme), list(F), renderer=renderer))
    assert built[queries[0].task, PromptScheme.K_SHOT] == 2


def test_kshot_bfs_answer_phrase():
    bank = build_exemplars(TaskKind.BFS_ORDER, PromptScheme.K_SHOT)
    for ex in bank:
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
        text = TASKS[task].render(params, value)
        got = answer_eval.extract(task, text)
        assert got == value and type(got) is type(value), (value, text)
