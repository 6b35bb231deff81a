"""Glue that runs queries end to end: compose prompts, submit through the
gateway, extract and score answers, and emit result records; and the live
reward a search calls, which evaluates one factor combination this way.
The token rule for enum-valued flags and factor options is here too, so
both give the same errors.

Result records carry the JSONL fields plus the query's task / difficulty /
graph_type so reports can pivot without a separate join. A record's
`extracted` field is the answer value `answer_eval.extract` returned,
stored as is (None for a failed request).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, TypeVar

from . import answer_eval, corpus
from .corpus import QuerySpec
from .errors import GraphBenchError
from .gateway import CompletionRequest, Gateway
from .generators import DifficultySplit, GraphFamily
from .prompts import DecorationFactors, IDENTITY_DECORATION, PromptScheme, Renderer, compose_prompt
from .serialize import SerializationFormat
from .tasks import TaskKind

if TYPE_CHECKING:
    from .rlopt import Combo, FactorSpace, RewardFn

E = TypeVar("E", bound=enum.Enum)


# What an unknown token of each comma-list flag or factor option is called
# in its error.
_KINDS = {TaskKind: "task", DifficultySplit: "difficulty", GraphFamily: "graph type",
          PromptScheme: "prompt scheme", SerializationFormat: "format"}


def _parse_list(enum_cls: type[E], spec: str, flag: str) -> list[E]:
    """Members named by a comma-separated flag value, matched on their
    values without regard to case. A member named twice is an error."""
    by_value = {m.value.lower(): m for m in enum_cls}
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() not in by_value:
            raise ValueError(f"unknown {_KINDS[enum_cls]} {tok!r}; expected one of "
                             f"{', '.join(m.value for m in enum_cls)}")
        member = by_value[tok.lower()]
        if member in out:
            raise ValueError(f"{flag} names {_KINDS[enum_cls]} {member.value!r} twice, "
                             f"in {spec!r}")
        out.append(member)
    return out


def parse_names(enum_cls: type[E], spec: str, flag: str) -> list[E]:
    """`_parse_list`, for a flag that must name at least one member."""
    members = _parse_list(enum_cls, spec, flag)
    if not members:
        raise ValueError(f"{flag} names no {_KINDS[enum_cls]}, got {spec!r}")
    return members


def parse_one(enum_cls: type[E], spec: str, flag: str) -> E:
    members = _parse_list(enum_cls, spec, flag)
    if len(members) != 1:
        raise ValueError(f"{flag} takes one {_KINDS[enum_cls]}, got {spec!r}")
    return members[0]


def score_response(query: QuerySpec, response_text: str) -> tuple[Any, int]:
    """Extract and score one response; returns (answer value, score)."""
    ans = answer_eval.extract(query.task, response_text)
    return ans, answer_eval.score(query.task, query.graph, query.params,
                                  query.ground_truth, ans)


def compose_cells(queries: Sequence[QuerySpec], schemes: Sequence[PromptScheme],
                  formats: Sequence[SerializationFormat],
                  deco: DecorationFactors = IDENTITY_DECORATION,
                  renderer: Renderer | None = None,
                  ) -> Iterator[tuple[QuerySpec, PromptScheme, SerializationFormat,
                                      str | None, str]]:
    """Every (query, scheme, format) cell with its prompt's head and body
    (see `compose_prompt`), in query, then scheme, then format order. The
    cells of one (task, scheme, format) share one head string, and the
    schemes that end a query's prompts alike share one rendering of its
    item.

    The queries are one batch: the renderer drops the text of every graph
    outside them, and the banks and heads of every task outside them
    (`Renderer.keep`). So a caller that composes its corpus a chunk at a
    time holds one chunk's graph texts, banks and heads. A task-major
    corpus, as `generate` writes, builds each bank once; a task that comes
    back after a chunk without it has its banks and heads built again."""
    renderer = renderer or Renderer()
    renderer.keep(queries)
    for query in queries:
        finals: dict[tuple, str] = {}
        for scheme in schemes:
            for fmt in formats:
                yield query, scheme, fmt, *compose_prompt(query, scheme, fmt, renderer,
                                                          deco, finals)


def run_evaluation(queries: Sequence[QuerySpec], schemes: Sequence[PromptScheme],
                   formats: Sequence[SerializationFormat], gateway: Gateway,
                   model: str = "mock", max_in_flight: int = 4,
                   deco: DecorationFactors = IDENTITY_DECORATION,
                   renderer: Renderer | None = None) -> Iterator[dict[str, Any]]:
    """Evaluate every (query, scheme, format) cell and return its result
    records, in `compose_cells` order.

    The call composes the cells and runs the gateway batch; the records
    it returns are an iterator that extracts and scores each answer as it
    is reached, so a caller that writes them as they come holds one record
    at a time, and one that needs a list calls `list()`. Each distinct
    response text to a query is extracted and scored once, and the
    query's cells that repeat it share that answer value and score. No
    prompt is joined: a request carries its head and body, so the batch
    holds one copy of each distinct part, not one of each prompt."""
    cells = list(compose_cells(queries, schemes, formats, deco=deco, renderer=renderer))
    results = gateway.run_batch([CompletionRequest(model, body, head, query=query)
                                 for query, _, _, head, body in cells],
                                max_in_flight=max_in_flight)
    return _records(cells, results, schemes, formats, model)


def _records(cells, results, schemes, formats, model: str) -> Iterator[dict[str, Any]]:
    """The result record of each cell and its gateway result, scored as
    it is reached."""
    # Field values that are fixed per scheme, per format or per query,
    # read once each: the enum members by identity, the query when it
    # changes. So are the query's scored responses, by text.
    names = {id(member): member.value for member in (*schemes, *formats)}
    last = None
    for (query, scheme, fmt, _, _), item in zip(cells, results):
        if query is not last:
            last = query
            task, difficulty, graph_type = (query.task.value, query.difficulty.value,
                                            query.family.value)
            scored: dict[str, tuple[Any, int]] = {}
        rec: dict[str, Any] = {
            "query_id": query.id,
            "model": model,
            "prompt_scheme": names[id(scheme)],
            "serialization": names[id(fmt)],
            "task": task,
            "difficulty": difficulty,
            "graph_type": graph_type,
        }
        if item.ok:
            text = item.response.text
            if text not in scored:
                scored[text] = score_response(query, text)
            extracted, s = scored[text]
            rec.update({
                "response": text,
                "extracted": extracted,
                "score": s,
                "tokens_in": item.response.tokens_in,
                "tokens_out": item.response.tokens_out,
                "latency_ms": item.response.latency_ms,
            })
        else:
            rec.update({"response": None, "extracted": None, "score": 0,
                        "tokens_in": None, "tokens_out": None,
                        "latency_ms": None, "error": item.error})
        yield rec


def accuracy(records: Iterable[dict[str, Any]]) -> float:
    records = list(records)
    if not records:
        return 0.0
    return sum(r["score"] for r in records) / len(records)


# The factors a live reward applies: the two whose options name a member,
# the model, and one per decoration field.
_MEMBER_DIMS = {"prompt_scheme": PromptScheme, "serialization": SerializationFormat}
_DECORATION_DIMS = tuple(f.name for f in dataclasses.fields(DecorationFactors))
_LIVE_DIMS = (*_MEMBER_DIMS, "model", *_DECORATION_DIMS)


def live_reward_fn(space: FactorSpace, gateway: Gateway, *, task: TaskKind,
                   split: DifficultySplit, samples: int, seed: int, model: str,
                   max_in_flight: int) -> RewardFn:
    """Reward = accuracy over `samples` generated graphs of (task, split)
    for the combo's settings.

    Every factor of the space is applied to the evaluation; a setting the
    space has no factor for keeps its default (`0-shot`, `adjacency_list`,
    `model`, no decoration). The call checks every factor name and option,
    and raises ValueError for a name the evaluation has no setting for,
    an option it cannot apply, or two options of one factor that name the
    same setting. It builds and sends nothing: the corpus is built at the
    first reward. A batch with a failed request raises GraphBenchError
    rather than score the failure as a wrong answer.
    """
    unknown = [name for name in space.names if name not in _LIVE_DIMS]
    if unknown:
        raise ValueError(f"live reward cannot apply factor(s) {', '.join(unknown)}; "
                         f"known factors: {', '.join(_LIVE_DIMS)}")
    options = dict(space.dims)
    # The setting each option names, per factor: a member for a scheme or
    # a format, the option itself for a model or a decoration field.
    settings: dict[str, dict[str, Any]] = {name: {} for name in _LIVE_DIMS}
    for name, named in settings.items():
        for option in options.get(name, ()):
            value = (parse_one(_MEMBER_DIMS[name], option, f"{name} option")
                     if name in _MEMBER_DIMS else option)
            if name in _DECORATION_DIMS:
                DecorationFactors(**{name: option})
            other = next((o for o, v in named.items() if v == value), None)
            if other is not None:
                raise ValueError(f"{name} options {other!r} and {option!r} name the same setting")
            named[option] = value
    renderer = Renderer()
    names = space.names
    queries = None

    def reward(combo: Combo) -> float:
        nonlocal queries
        if queries is None:
            queries = corpus.build_corpus([task], [split], None, samples, master_seed=seed)
        by = {name: settings[name][option] for name, option in zip(names, combo)}
        deco = DecorationFactors(**{d: by[d] for d in _DECORATION_DIMS if d in by})
        records = list(run_evaluation(
            queries, [by.get("prompt_scheme", PromptScheme.ZERO_SHOT)],
            [by.get("serialization", SerializationFormat.ADJACENCY_LIST)], gateway,
            model=by.get("model", model), deco=deco, max_in_flight=max_in_flight,
            renderer=renderer))
        failed = [r["error"] for r in records if "error" in r]
        if failed:
            raise GraphBenchError(f"live reward for combo {'|'.join(combo)}: {len(failed)} of "
                                  f"{len(records)} requests failed (first: {failed[0]})")
        return accuracy(records)

    return reward
