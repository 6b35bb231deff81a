"""Prompt composition: the nine schemes, few-shot exemplar banks, and the
decoration factors for the extended search space.

A composed prompt is [algorithm block] + [exemplar items] + final item, where
every item is framing + serialized graph + "Q:" question + "A:" (+ answer for
exemplars, + cue suffix for the zero-shot variants that carry one). The
serialized graph substring is never touched by decoration.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from . import templates
from .errors import EmptyBank, ExhaustedAttempts, MissingParam
from .generators import DifficultySplit, admissible_families, derive_rng, generate, generate_connected, sample_n
from .graphs import Graph, bfs_levels, shortest_path, triangles
from .serialize import SerializationFormat, serialize
from .tasks import TaskKind, compute_ground_truth, sample_params

if TYPE_CHECKING:
    from .corpus import QuerySpec


class PromptScheme(enum.Enum):
    ZERO_SHOT = "0-shot"
    ZERO_COT = "0-CoT"
    ZERO_INSTRUCT = "0-Instruct"
    ZERO_ALGORITHM = "0-Algorithm"
    LTM = "LTM"
    K_SHOT = "k-shot"
    COT = "CoT"
    INSTRUCT = "Instruct"
    ALGORITHM = "Algorithm"

    @property
    def shot_bearing(self) -> bool:
        return self in (PromptScheme.K_SHOT, PromptScheme.COT,
                        PromptScheme.INSTRUCT, PromptScheme.ALGORITHM)

    @property
    def has_algorithm_block(self) -> bool:
        return self in (PromptScheme.ZERO_ALGORITHM, PromptScheme.ALGORITHM)

    @property
    def suffix(self) -> str | None:
        return templates.SUFFIXES.get(self.value)

    @property
    def instruct_items(self) -> bool:
        return self is PromptScheme.INSTRUCT


# RL-Scale decoration pools.
SENTENCE_DELIMS = (" -- ", " <sep> ", " , ", " \n ", " \n", "\t", " ; \n", " ", " . ", " || ")
QA_DELIMS = (" \n\t", " \n ", " : ", " :: ", " \t", " ::", " ", " - ", " :", " ::: ")
WORD_DELIMS = (" ", "  ", "\t")
CASE_FUNCTIONS = ("none", "title", "upper", "lower")


@dataclass(frozen=True)
class DecorationFactors:
    """Optional text decorations; None fields leave the canonical rendering
    untouched, so DecorationFactors() is the identity."""

    sentence_delim: str | None = None
    qa_delim: str | None = None
    word_delim: str | None = None
    case: str | None = None

    def __post_init__(self):
        if self.sentence_delim is not None and self.sentence_delim not in SENTENCE_DELIMS:
            raise ValueError(f"sentence delimiter {self.sentence_delim!r} not in pool")
        if self.qa_delim is not None and self.qa_delim not in QA_DELIMS:
            raise ValueError(f"QA delimiter {self.qa_delim!r} not in pool")
        if self.word_delim is not None and self.word_delim not in WORD_DELIMS:
            raise ValueError(f"word delimiter {self.word_delim!r} not in pool")
        if self.case is not None and self.case not in CASE_FUNCTIONS:
            raise ValueError(f"case function {self.case!r} not in pool")

    def text(self, sentence: str) -> str:
        """Decorate one natural-language block, line by line."""
        if self.word_delim is None and self.case in (None, "none"):
            return sentence
        lines = []
        for line in sentence.split("\n"):
            if self.word_delim is not None:
                line = self.word_delim.join(line.split(" "))
            if self.case == "title":
                line = line.title()
            elif self.case == "upper":
                line = line.upper()
            elif self.case == "lower":
                line = line.lower()
            lines.append(line)
        return "\n".join(lines)

    def join(self, sentences: list[str]) -> str:
        delim = " " if self.sentence_delim is None else self.sentence_delim
        return delim.join(self.text(s) for s in sentences)

    def q_marker(self, question: str) -> str:
        delim = ": " if self.qa_delim is None else self.qa_delim
        return f"Q{delim}{self.text(question)}"

    def a_marker(self, payload: str | None = None) -> str:
        if self.qa_delim is None:
            return "A:" if payload is None else f"A: {payload}"
        return f"A{self.qa_delim}" if payload is None else f"A{self.qa_delim}{payload}"


IDENTITY_DECORATION = DecorationFactors()


def question_text(task: TaskKind, params: dict[str, int] | None = None) -> str:
    """The task's question sentence with node parameters substituted."""
    try:
        return templates.QUESTIONS[task].format(**(params or {}))
    except KeyError as exc:
        raise MissingParam(f"{task.value} question needs parameter {exc}") from None


def framing_text(task: TaskKind, params: dict[str, int] | None = None) -> str:
    try:
        return templates.FRAMINGS[task].format(**(params or {}))
    except KeyError as exc:
        raise MissingParam(f"{task.value} framing needs parameter {exc}") from None


@dataclass
class Exemplar:
    """One worked example: graph, task parameters, and its gold answer text."""

    graph: Graph
    params: dict[str, int]
    answer: str


@dataclass
class ExemplarBank:
    """Frozen per-(task, scheme) list of oracle-validated worked examples."""

    task: TaskKind
    scheme: PromptScheme
    exemplars: list[Exemplar]
    # Rendered items per (task, format, decoration, instruct line).
    _items: dict[tuple, list[str]] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.exemplars)

    def items(self, task: TaskKind, fmt: SerializationFormat, deco: DecorationFactors,
              instruct_line: bool) -> list[str]:
        """The exemplars as prompt items, rendered once per key."""
        key = (task, fmt, deco, instruct_line)
        if key not in self._items:
            self._items[key] = [_item_text(task, fmt, serialize(ex.graph, fmt), ex.params,
                                           deco, instruct_line, ex.answer, None)
                                for ex in self.exemplars]
        return self._items[key]


def _seq(nodes: list[int]) -> str:
    return ",".join(map(str, nodes))


def gold_value(task: TaskKind, g: Graph, params: dict[str, int], gt: Any) -> Any:
    """The correct answer value, in the form `answer_eval.extract` returns."""
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY, TaskKind.DIAMETER, TaskKind.TRIANGLE):
        return gt
    if task is TaskKind.BFS_ORDER:
        return list(bfs_levels(g, params["start"]))
    if task is TaskKind.SHORTEST_PATH:
        return shortest_path(g, params["u"], params["v"])
    if task is TaskKind.HAMILTONIAN:
        return [*gt["witness"], gt["witness"][0]] if gt["exists"] else False
    if task is TaskKind.MAX_CUT:
        side_a = sorted(gt["partition"])
        side_b = sorted(set(range(g.n)) - set(side_a))
        return {"size": gt["size"], "partition": [side_a, side_b]}
    raise ValueError(f"unknown task {task!r}")


def render_answer(task: TaskKind, params: dict[str, int], value: Any) -> str:
    """Terse sentence stating an answer value, leading with the scoring key
    phrase; `answer_eval.extract` reads the value back."""
    t = templates.GOLD_ANSWERS[task]
    if task is TaskKind.BFS_ORDER:
        return t["answer"].format(start=params["start"], seq=_seq(value))
    if task is TaskKind.SHORTEST_PATH:
        return t["answer"].format(u=params["u"], v=params["v"], seq=_seq(value))
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY):
        return t["yes" if value else "no"].format(**params)
    if task is TaskKind.DIAMETER or task is TaskKind.TRIANGLE:
        return t["answer"].format(value=value)
    if task is TaskKind.HAMILTONIAN:
        if isinstance(value, list):
            return f"{t['yes']} {t['tour'].format(seq=_seq(value))}"
        return t["yes" if value else "no"]
    if task is TaskKind.MAX_CUT:
        text = t["answer"].format(size=value["size"])
        if value["partition"] is None:
            return text
        side_a, side_b = (", ".join(map(str, side)) for side in value["partition"])
        return f"{text} {t['partition'].format(side_a=side_a, side_b=side_b)}"
    raise ValueError(f"unknown task {task!r}")


def gold_answer(task: TaskKind, g: Graph, params: dict[str, int], gt: Any) -> str:
    """Terse gold-answer sentence: the correct value, rendered."""
    return render_answer(task, params, gold_value(task, g, params, gt))


def narrated_answer(task: TaskKind, g: Graph, params: dict[str, int], gt: Any) -> str:
    """Stepwise worked answer for the CoT/Instruct/Algorithm exemplar styles.

    The narration always closes with the terse gold sentence so that rule
    extraction lands on the final statement.
    """
    final = gold_answer(task, g, params, gt)
    if task is TaskKind.BFS_ORDER:
        s = params["start"]
        steps = []
        seen = {s}
        for u in bfs_levels(g, s):
            fresh = [v for v in g.neighbors(u) if v not in seen]
            seen.update(fresh)
            if fresh:
                steps.append(f"Dequeue node {u}. The unvisited neighbors are "
                             f"[{', '.join(map(str, fresh))}], so enqueue them in order.")
            else:
                steps.append(f"Dequeue node {u}. All of its neighbors are already visited.")
        return " ".join(steps) + f" The traversal ends. {final}"
    if task is TaskKind.SHORTEST_PATH:
        u, v = params["u"], params["v"]
        path = shortest_path(g, u, v)
        hops = " -> ".join(map(str, path))
        return (f"We run a breadth-first search from node {u} and reach node {v} "
                f"after {len(path) - 1} steps via {hops}. {final}")
    if task is TaskKind.CYCLE:
        if gt:
            return ("Following the edges, a walk returns to an already visited node "
                    f"without reusing an edge, which closes a loop. {final}")
        return f"Every component here is a tree, so no walk can return to its start. {final}"
    if task is TaskKind.CONNECTIVITY:
        u, v = params["u"], params["v"]
        levels = bfs_levels(g, u)
        if gt:
            return (f"A breadth-first search from node {u} reaches node {v} "
                    f"after {levels[v]} steps. {final}")
        reach = ", ".join(map(str, sorted(levels)))
        return (f"A breadth-first search from node {u} visits only "
                f"{{{reach}}}, which does not include node {v}. {final}")
    if task is TaskKind.DIAMETER:
        return (f"Running BFS from every node and taking the longest of the shortest "
                f"paths gives {gt}. {final}")
    if task is TaskKind.TRIANGLE:
        listing = ", ".join(str(t) for t in triangles(g)[:6]) or "none"
        return (f"Checking every connected triple for all three edges finds: {listing}. {final}")
    if task is TaskKind.HAMILTONIAN:
        if gt["exists"]:
            return f"Backtracking extends a path node by node until it closes into a tour. {final}"
        return f"Backtracking exhausts every extension without closing a tour. {final}"
    if task is TaskKind.MAX_CUT:
        return (f"Comparing bipartitions by their crossing-edge counts, the best split "
                f"cuts {gt['size']} edges. {final}")
    raise ValueError(f"unknown task {task!r}")


def build_exemplars(task: TaskKind, scheme: PromptScheme, k: int = 5,
                    rng: random.Random | None = None) -> ExemplarBank:
    """Build k oracle-validated exemplars on Easy-split graphs.

    Exemplar graphs come from a reserved seed stream so they never collide
    with evaluation graphs.
    """
    if rng is None:
        rng = derive_rng("exemplar-bank", task.value, scheme.value, k)
    families = sorted(admissible_families(task), key=lambda f: f.value)
    narrated = scheme in (PromptScheme.COT, PromptScheme.INSTRUCT, PromptScheme.ALGORITHM)
    exemplars = []
    for i in range(k):
        family = families[i % len(families)]
        for _ in range(100):
            n = sample_n(DifficultySplit.EASY, rng)
            try:
                if task is TaskKind.DIAMETER:
                    g = generate_connected(family, n, rng)
                else:
                    g = generate(family, n, rng)
                    if task is TaskKind.SHORTEST_PATH and g.m == 0:
                        continue
                params = sample_params(task, g, rng)
            except ExhaustedAttempts:
                continue
            break
        else:
            raise ValueError(f"could not build an exemplar for {task.value}/{family.value}")
        gt = compute_ground_truth(task, g, params)
        answer = narrated_answer(task, g, params, gt) if narrated else gold_answer(task, g, params, gt)
        exemplars.append(Exemplar(graph=g, params=params, answer=answer))
    return ExemplarBank(task=task, scheme=scheme, exemplars=exemplars)


def _item_text(task: TaskKind, fmt: SerializationFormat, graph_text: str,
               params: dict[str, int], deco: DecorationFactors,
               instruct_line: bool, answer: str | None, suffix: str | None) -> str:
    head = deco.join([framing_text(task, params),
                      templates.GRAPH_CONNECTOR.format(fmt=fmt.display_name)])
    parts = [f"{head} \n{graph_text}\n\n"]
    if instruct_line:
        parts.append(f"{deco.text(templates.INSTRUCT_ITEM_LINE)}\n\n")
    parts.append(f"{deco.q_marker(question_text(task, params))}\n\n")
    if answer is not None:
        parts.append(deco.a_marker(deco.text(answer)))
    elif suffix is not None:
        parts.append(f"{deco.a_marker()} \n\n{deco.text(suffix)}")
    else:
        parts.append(deco.a_marker())
    return "".join(parts)


def compose_prompt(query: "QuerySpec", scheme: PromptScheme, fmt: SerializationFormat,
                   bank: ExemplarBank | None = None,
                   deco: DecorationFactors = IDENTITY_DECORATION) -> str:
    """Assemble the full prompt for one query under (scheme, format, deco)."""
    blocks: list[str] = []
    if scheme.has_algorithm_block:
        blocks.append(deco.text(templates.ALGORITHM_BLOCKS[query.task]))
    if scheme.shot_bearing:
        if bank is None or len(bank) == 0:
            raise EmptyBank(f"scheme {scheme.value} needs exemplars for task {query.task.value}")
        blocks.extend(bank.items(query.task, fmt, deco, scheme.instruct_items))
    blocks.append(_item_text(query.task, fmt, serialize(query.graph, fmt),
                             query.params, deco, scheme.instruct_items, None, scheme.suffix))
    return "\n\n".join(blocks)
