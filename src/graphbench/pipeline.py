"""Glue that runs queries end to end: compose prompts, submit through the
gateway, extract and score answers, and emit result records.

Result records carry the JSONL fields plus the query's task / difficulty /
graph_type so reports can pivot without a separate join. A record's
`extracted` field is the answer value `answer_eval.extract` returned,
stored as is (None for a failed request).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from . import answer_eval
from .corpus import QuerySpec
from .gateway import CompletionRequest, Gateway
from .prompts import DecorationFactors, IDENTITY_DECORATION, PromptScheme, Renderer, compose_prompt
from .serialize import SerializationFormat


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
    outside them (`Renderer.keep`), so a caller that composes its corpus
    a chunk at a time holds one chunk's graph texts."""
    renderer = renderer or Renderer()
    renderer.keep(query.graph for query in queries)
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
