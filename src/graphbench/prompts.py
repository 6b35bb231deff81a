"""Prompt composition: the nine schemes, few-shot exemplar banks, the
decoration factors for the extended search space, and `Renderer`, which
keeps the prompt parts of the batch a command composes.

A composed prompt is [algorithm block] + [exemplar items] + final item, where
every item is framing + serialized graph + "Q:" question + "A:" (+ answer for
exemplars, + cue suffix for the zero-shot variants that carry one). The
serialized graph substring is never touched by decoration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .corpus import MAX_QUERY_ATTEMPTS, QuerySpec, draw_item
from .errors import ExhaustedAttempts, MissingParam
from .generators import DifficultySplit, derive_rng
from .graphs import Graph
from .serialize import SerializationFormat, serialize
from .tasks import TASKS, TaskKind

# Instruct (the shot-bearing variant) inserts this line between the graph
# and the question of every item instead of using a trailing cue.
INSTRUCT_ITEM_LINE = "Let's construct a graph with the nodes and edges first."

# Sentence that introduces the serialized graph; {fmt} is the display name.
GRAPH_CONNECTOR = "And the graph representation of: {fmt} is"


class PromptScheme(enum.Enum):
    """The nine prompting schemes. `value` is the CLI/JSONL token. A
    shot-bearing scheme opens with exemplar items, whose answers are
    narrated for a narrated scheme. A scheme with an algorithm block opens
    with it. With instruct items, every item carries INSTRUCT_ITEM_LINE.
    `suffix` is the cue line that ends the query's item, or None."""

    # One row per scheme: token, shot-bearing, narrated, algorithm block,
    # instruct items, suffix.
    ZERO_SHOT =      ("0-shot",      False, False, False, False, None)
    ZERO_COT =       ("0-CoT",       False, False, False, False, "Let's think step by step:")
    ZERO_INSTRUCT =  ("0-Instruct",  False, False, False, False,
                      "Let's construct a graph with the nodes and edges first:")
    ZERO_ALGORITHM = ("0-Algorithm", False, False, True,  False, None)
    LTM =            ("LTM",         False, False, False, False, "Let's break down this problem:")
    K_SHOT =         ("k-shot",      True,  False, False, False, None)
    COT =            ("CoT",         True,  True,  False, False, None)
    INSTRUCT =       ("Instruct",    True,  True,  False, True,  None)
    ALGORITHM =      ("Algorithm",   True,  True,  True,  False, None)

    def __new__(cls, token, shot_bearing, narrated, has_algorithm_block, instruct_items, suffix):
        member = object.__new__(cls)
        member._value_ = token
        member.shot_bearing = shot_bearing
        member.narrated = narrated
        member.has_algorithm_block = has_algorithm_block
        member.instruct_items = instruct_items
        member.suffix = suffix
        return member


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
        return TASKS[task].question.format(**(params or {}))
    except KeyError as exc:
        raise MissingParam(f"{task.value} question needs parameter {exc}") from None


def framing_text(task: TaskKind, params: dict[str, int] | None = None) -> str:
    try:
        return TASKS[task].framing.format(**(params or {}))
    except KeyError as exc:
        raise MissingParam(f"{task.value} framing needs parameter {exc}") from None


# Worked examples in every shot-bearing prompt.
EXEMPLARS_PER_BANK = 5


@dataclass
class Exemplar:
    """One worked example: graph, task parameters, and its gold answer text."""

    graph: Graph
    params: dict[str, int]
    answer: str


def build_exemplars(task: TaskKind, scheme: PromptScheme) -> list[Exemplar]:
    """Build EXEMPLARS_PER_BANK oracle-validated exemplars on Easy-split
    graphs, drawn by the corpus's own `draw_item` rules.

    Exemplar graphs come from a reserved seed stream, derived from the task,
    the scheme and the bank size, so they never collide with evaluation
    graphs; no bank repeats an edge set.
    """
    rng = derive_rng("exemplar-bank", task.value, scheme.value, EXEMPLARS_PER_BANK)
    spec = TASKS[task]
    families = sorted(spec.families, key=lambda f: f.value)
    seen: set[frozenset] = set()
    exemplars = []
    for i in range(EXEMPLARS_PER_BANK):
        family = families[i % len(families)]
        for _ in range(MAX_QUERY_ATTEMPTS):
            try:
                g, params, gt = draw_item(task, DifficultySplit.EASY, family, rng, seen)
            except ExhaustedAttempts:
                continue
            break
        else:
            raise ExhaustedAttempts(
                f"could not build an exemplar for {task.value}/{family.value}")
        answer = (spec.narrate(g, params, gt) if scheme.narrated
                  else spec.render(params, spec.gold(g, params, gt)))
        exemplars.append(Exemplar(graph=g, params=params, answer=answer))
    return exemplars


def _item_text(task: TaskKind, fmt: SerializationFormat, graph_text: str,
               params: dict[str, int], deco: DecorationFactors,
               instruct_line: bool, answer: str | None, suffix: str | None) -> str:
    head = deco.join([framing_text(task, params),
                      GRAPH_CONNECTOR.format(fmt=fmt.display_name)])
    parts = [f"{head} \n{graph_text}\n\n"]
    if instruct_line:
        parts.append(f"{deco.text(INSTRUCT_ITEM_LINE)}\n\n")
    parts.append(f"{deco.q_marker(question_text(task, params))}\n\n")
    if answer is not None:
        parts.append(deco.a_marker(deco.text(answer)))
    elif suffix is not None:
        parts.append(f"{deco.a_marker()} \n\n{deco.text(suffix)}")
    else:
        parts.append(deco.a_marker())
    return "".join(parts)


# What joins a prompt's head to its body: a blank line.
HEAD_SEPARATOR = "\n\n"


def join_prompt(head: str | None, body: str) -> str:
    """The prompt text of a head (None for none) and a body."""
    return body if head is None else f"{head}{HEAD_SEPARATOR}{body}"


class Renderer:
    """The one memo for the prompt parts a command renders: each graph's
    text per format, each (task, scheme) exemplar bank and each prompt
    head. A command makes one. Everything it keeps follows the batch being
    composed (see `keep`), not the corpus or the command: graph texts are
    kept for the batch's graphs, and banks and heads for the batch's
    tasks. Within a batch every text, bank and head is rendered once, and
    equal graphs share a text. A task that comes back after a batch
    without it has its banks rebuilt from their fixed seed streams and
    its heads rendered again, so the prompts are the same."""

    def __init__(self):
        self._texts: dict[tuple[Graph, SerializationFormat], str] = {}
        self._banks: dict[tuple[TaskKind, PromptScheme], list[Exemplar]] = {}
        self._heads: dict[tuple, str | None] = {}

    def keep(self, queries: Iterable[QuerySpec]) -> None:
        """Open a batch over these queries: drop the text of every other
        graph, an exemplar's included, and the banks and heads of every
        task none of them has. Costs one pass over what the previous
        batch left."""
        graphs, tasks = set(), set()
        for query in queries:
            graphs.add(query.graph)
            tasks.add(query.task)
        self._texts = {key: text for key, text in self._texts.items() if key[0] in graphs}
        self._banks = {key: bank for key, bank in self._banks.items() if key[0] in tasks}
        self._heads = {key: head for key, head in self._heads.items() if key[0] in tasks}

    def text(self, g: Graph, fmt: SerializationFormat) -> str:
        """The graph's canonical text in the format."""
        text = self._texts.get((g, fmt))
        if text is None:
            text = self._texts[g, fmt] = serialize(g, fmt)
        return text

    def head(self, task: TaskKind, scheme: PromptScheme, fmt: SerializationFormat,
             deco: DecorationFactors) -> str | None:
        """What opens every prompt of the key before the query's own item:
        the algorithm block and the exemplar items, or None when the
        scheme has neither."""
        key = (task, scheme, fmt, deco)
        if key not in self._heads:
            blocks = [deco.text(TASKS[task].algorithm)] if scheme.has_algorithm_block else []
            if scheme.shot_bearing:
                if (task, scheme) not in self._banks:
                    self._banks[task, scheme] = build_exemplars(task, scheme)
                blocks += [_item_text(task, fmt, self.text(ex.graph, fmt), ex.params, deco,
                                      scheme.instruct_items, ex.answer, None)
                           for ex in self._banks[task, scheme]]
            self._heads[key] = "\n\n".join(blocks) if blocks else None
        return self._heads[key]


def compose_prompt(query: QuerySpec, scheme: PromptScheme, fmt: SerializationFormat,
                   renderer: Renderer | None = None,
                   deco: DecorationFactors = IDENTITY_DECORATION,
                   finals: dict[tuple, str] | None = None) -> tuple[str | None, str]:
    """The full prompt for one query under (scheme, format, deco), as its
    two parts: the head (see `Renderer.head`) and the query's own item.
    `join_prompt` joins them into the prompt text. The head is the
    renderer's own string, shared by every prompt of its key, so a caller
    that keeps the parts holds no copy of it per prompt.

    The query's item depends on the scheme only through its instruct line
    and its suffix, so nine schemes end in five distinct items. `finals`,
    when given, keeps the items rendered so far, keyed on the graph text,
    the format and those two; the caller passes one dict for all the calls
    of one query and one decoration (see `pipeline.compose_cells`)."""
    renderer = renderer or Renderer()
    head = renderer.head(query.task, scheme, fmt, deco)
    graph_text = renderer.text(query.graph, fmt)
    instruct_line, suffix = scheme.instruct_items, scheme.suffix
    key = (graph_text, fmt, instruct_line, suffix)
    final = None if finals is None else finals.get(key)
    if final is None:
        final = _item_text(query.task, fmt, graph_text, query.params, deco,
                           instruct_line, None, suffix)
        if finals is not None:
            finals[key] = final
    return head, final
