"""Prompt composition: the nine schemes, few-shot exemplar banks, and the
decoration factors for the extended search space.

A composed prompt is [algorithm block] + [exemplar items] + final item, where
every item is framing + serialized graph + "Q:" question + "A:" (+ answer for
exemplars, + cue suffix for the zero-shot variants that carry one). The
serialized graph substring is never touched by decoration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .corpus import MAX_QUERY_ATTEMPTS, QuerySpec, draw_item
from .errors import EmptyBank, ExhaustedAttempts, MissingParam
from .generators import DifficultySplit, derive_rng
from .graphs import Graph
from .serialize import SerializationFormat, serialize
from .tasks import TASKS, TaskKind

# Trailing cue line per zero-shot scheme variant that carries one.
SUFFIXES = {
    "0-CoT": "Let's think step by step:",
    "LTM": "Let's break down this problem:",
    "0-Instruct": "Let's construct a graph with the nodes and edges first:",
}

# Instruct (the shot-bearing variant) inserts this line between the graph
# and the question of every item instead of using a trailing cue.
INSTRUCT_ITEM_LINE = "Let's construct a graph with the nodes and edges first."

# Sentence that introduces the serialized graph; {fmt} is the display name.
GRAPH_CONNECTOR = "And the graph representation of: {fmt} is"


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
        return SUFFIXES.get(self.value)

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


@dataclass
class ExemplarBank:
    """Frozen per-(task, scheme) list of oracle-validated worked examples.

    `head` renders the part of a prompt the bank fixes, everything before
    the query's own item, once per key and keeps it."""

    exemplars: list[Exemplar]
    # The rendered head per (task, format, decoration, instruct line,
    # algorithm block).
    _heads: dict[tuple, str] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.exemplars)

    def head(self, task: TaskKind, fmt: SerializationFormat, deco: DecorationFactors,
             instruct_line: bool, algorithm: bool) -> str:
        """The algorithm block (when `algorithm`) and the exemplar items,
        joined as they open the prompt, rendered once per key."""
        key = (task, fmt, deco, instruct_line, algorithm)
        head = self._heads.get(key)
        if head is None:
            blocks = [deco.text(TASKS[task].algorithm)] if algorithm else []
            blocks += [_item_text(task, fmt, serialize(ex.graph, fmt), ex.params,
                                  deco, instruct_line, ex.answer, None)
                       for ex in self.exemplars]
            head = self._heads[key] = "\n\n".join(blocks)
        return head


def build_exemplars(task: TaskKind, scheme: PromptScheme) -> ExemplarBank:
    """Build EXEMPLARS_PER_BANK oracle-validated exemplars on Easy-split
    graphs, drawn by the corpus's own `draw_item` rules.

    Exemplar graphs come from a reserved seed stream, derived from the task,
    the scheme and the bank size, so they never collide with evaluation
    graphs; no bank repeats an edge set.
    """
    rng = derive_rng("exemplar-bank", task.value, scheme.value, EXEMPLARS_PER_BANK)
    spec = TASKS[task]
    families = sorted(spec.families, key=lambda f: f.value)
    narrated = scheme in (PromptScheme.COT, PromptScheme.INSTRUCT, PromptScheme.ALGORITHM)
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
        answer = spec.narrate(g, params, gt) if narrated else spec.render(params, spec.gold(g, params, gt))
        exemplars.append(Exemplar(graph=g, params=params, answer=answer))
    return ExemplarBank(exemplars)


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


def compose_prompt(query: QuerySpec, scheme: PromptScheme, fmt: SerializationFormat,
                   bank: ExemplarBank | None = None,
                   deco: DecorationFactors = IDENTITY_DECORATION,
                   finals: dict[tuple, str] | None = None) -> tuple[str | None, str]:
    """The full prompt for one query under (scheme, format, deco), as its
    two parts: the head (the bank's, for a shot-bearing scheme; else the
    algorithm block, if the scheme has one; else None) and the query's own
    item. `join_prompt` joins them into the prompt text. The head is the
    bank's own string, shared by every prompt of its bank and format, so
    a caller that keeps the parts holds no copy of it per prompt.

    The query's item depends on the scheme only through its instruct line
    and its suffix, so nine schemes end in five distinct items. `finals`,
    when given, keeps the items rendered so far, keyed on the graph text,
    the format and those two; the caller passes one dict for all the calls
    of one query and one decoration (see `pipeline.compose_cells`)."""
    if scheme.shot_bearing:
        if bank is None or len(bank) == 0:
            raise EmptyBank(f"scheme {scheme.value} needs exemplars for task {query.task.value}")
        head = bank.head(query.task, fmt, deco, scheme.instruct_items,
                         scheme.has_algorithm_block)
    elif scheme.has_algorithm_block:
        head = deco.text(TASKS[query.task].algorithm)
    else:
        head = None
    graph_text = serialize(query.graph, fmt)
    instruct_line, suffix = scheme.instruct_items, scheme.suffix
    key = (graph_text, fmt, instruct_line, suffix)
    final = None if finals is None else finals.get(key)
    if final is None:
        final = _item_text(query.task, fmt, graph_text, query.params, deco,
                           instruct_line, None, suffix)
        if finals is not None:
            finals[key] = final
    return head, final
