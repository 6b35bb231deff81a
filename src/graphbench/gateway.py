"""Submission layer for rendered prompts: a chat-completions HTTP backend,
a deterministic mock backend for desk-scale testing, a content-addressed
SQLite cache, and bounded-concurrency batch execution.

This is the only concurrent module; everything it calls into is pure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import requests

from . import prompts as prompt_mod
from .errors import MalformedResponse, RateLimited, TransportError
from .tasks import TaskKind

if TYPE_CHECKING:
    from .corpus import QuerySpec

ENDPOINT_ENV = "GRAPHBENCH_ENDPOINT"
API_KEY_ENV = "GRAPHBENCH_API_KEY"
CACHE_DIR_ENV = "GRAPHBENCH_CACHE_DIR"
# The one database file a Gateway keeps under its cache_dir.
CACHE_FILE = "cache.sqlite3"


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int | None = None
    # The query the prompt was composed from. Only the mock backend reads it;
    # it is not part of the cache key.
    query: QuerySpec | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def cache_key(self) -> str:
        payload = "\x00".join([self.model, self.prompt, repr(self.temperature),
                               repr(self.top_p), repr(self.max_tokens)])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CompletionResponse:
    text: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    latency_ms: float = 0.0
    backend: str = ""
    cached: bool = False


class Backend(Protocol):
    name: str
    # Every setting that changes the answers; the cache keys on it.
    identity: str

    def complete(self, req: CompletionRequest) -> CompletionResponse: ...


class HttpBackend:
    """POST to a chat-completions style endpoint.

    The endpoint URL and key come from arguments or the GRAPHBENCH_ENDPOINT /
    GRAPHBENCH_API_KEY environment variables.
    """

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 timeout: float = 120.0, session: requests.Session | None = None):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not self.endpoint:
            raise TransportError(f"no endpoint configured (set {ENDPOINT_ENV})")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.session = session or requests.Session()
        self.name = "http"
        self.identity = f"http\x00{self.endpoint}"

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        body = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.temperature,
            "top_p": req.top_p,
        }
        if req.max_tokens is not None:
            body["max_tokens"] = req.max_tokens
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        start = time.monotonic()
        try:
            resp = self.session.post(self.endpoint, json=body, headers=headers,
                                     timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        latency = (time.monotonic() - start) * 1000.0
        if resp.status_code == 429:
            raise RateLimited(f"429 from {self.endpoint}")
        if resp.status_code >= 400:
            raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            data = resp.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected response shape: {exc}") from exc
        usage = data.get("usage") or {}
        return CompletionResponse(
            text=text,
            tokens_in=usage.get("prompt_tokens"),
            tokens_out=usage.get("completion_tokens"),
            latency_ms=latency,
            backend=self.name,
        )


def _wrong_value(task: TaskKind, n: int, gold):
    """The gold answer value, changed so that it scores 0 on an n-node graph."""
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY):
        return not gold
    if task in (TaskKind.DIAMETER, TaskKind.TRIANGLE):
        return gold + 1
    if task is TaskKind.BFS_ORDER:
        # Swap the first two nodes; a lone start node is repeated instead.
        return [*gold[1:2], gold[0], *gold[2:]] if len(gold) > 1 else gold * 2
    if task is TaskKind.SHORTEST_PATH:
        return gold[:1]
    if task is TaskKind.HAMILTONIAN:
        return False if gold else [*range(n), 0]
    if task is TaskKind.MAX_CUT:
        return {**gold, "size": gold["size"] + 1}
    raise ValueError(f"unknown task {task!r}")


class MockBackend:
    """Deterministic responder that answers the request's query in the
    canonical phrasing, from the query's stored ground truth.

    A wrong answer is the gold answer value changed (a bool negated, a
    number plus one, the first two BFS nodes swapped, a path cut to its
    start, the Hamiltonian decision flipped, the cut size plus one) and
    rendered by the same `prompts.render_answer` as the gold one.

    mode="oracle" always answers correctly; mode="bernoulli" answers
    incorrectly with probability error_rate, decided by a stable hash of the
    prompt so repeats (and cache hits) agree. An optional rate_limit_prob
    makes the first attempt for a matching prompt fail with RateLimited, for
    retry testing. A request without a query cannot be answered and raises
    ValueError.
    """

    def __init__(self, mode: str = "oracle", error_rate: float = 0.0, seed: int = 0,
                 fixed_tokens_out: int | None = None, rate_limit_prob: float = 0.0):
        if mode not in ("oracle", "bernoulli"):
            raise ValueError(f"unknown mock mode {mode!r}")
        self.mode = mode
        self.error_rate = error_rate
        self.seed = seed
        self.fixed_tokens_out = fixed_tokens_out
        self.rate_limit_prob = rate_limit_prob
        self.name = f"mock-{mode}"
        self.identity = f"mock\x00{mode}\x00{error_rate!r}\x00{seed!r}"
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _unit(self, prompt: str, salt: str) -> float:
        digest = hashlib.sha256(f"{self.seed}\x00{salt}\x00{prompt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        q = req.query
        if q is None:
            raise ValueError("the mock backend answers from the request's query, "
                             "and this request carries none")
        if self.rate_limit_prob > 0:
            with self._lock:
                attempt = self._attempts.get(req.prompt, 0)
                self._attempts[req.prompt] = attempt + 1
            if attempt == 0 and self._unit(req.prompt, "ratelimit") < self.rate_limit_prob:
                raise RateLimited("injected rate limit")
        wrong = (self.mode == "bernoulli"
                 and self._unit(req.prompt, "bernoulli") < self.error_rate)
        value = prompt_mod.gold_value(q.task, q.graph, q.params, q.ground_truth)
        if wrong:
            value = _wrong_value(q.task, q.graph.n, value)
        text = prompt_mod.render_answer(q.task, q.params, value)
        tokens_out = self.fixed_tokens_out
        if tokens_out is None:
            tokens_out = len(text.split())
        return CompletionResponse(text=text, tokens_in=len(req.prompt.split()),
                                  tokens_out=tokens_out, latency_ms=0.0,
                                  backend=self.name)


@dataclass
class BatchResult:
    request: CompletionRequest
    response: CompletionResponse | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None


class Gateway:
    """Caching, retrying front door to a backend.

    The cache is one SQLite file, `cache_dir/cache.sqlite3`, keyed on the
    backend's identity and the request, so identical requests never hit the
    network twice and one backend's answers are never served for another's.
    Each completion is committed as soon as it arrives, so a run that stops
    part-way keeps every finished entry and a rerun resumes from them; two
    processes may fill one cache at once. Caches from the older one-file-per-
    entry layout are not read. Without a `cache_dir` nothing is cached and
    nothing is created; the CLI resolves it from `--cache-dir`, then
    GRAPHBENCH_CACHE_DIR, then the config file.
    """

    def __init__(self, backend: Backend, cache_dir: str | Path | None = None,
                 max_retries: int = 5, backoff_base: float = 0.5,
                 backoff_cap: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.sleep = sleep
        self.network_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()
        # Opened on first use, and only with a cache_dir; used under _lock.
        self._db: sqlite3.Connection | None = None

    def _cache_key(self, req: CompletionRequest) -> str | None:
        if self.cache_dir is None:
            return None
        payload = f"{self.backend.identity}\x00{req.cache_key()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _cache(self) -> sqlite3.Connection:
        if self._db is None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Autocommit: every INSERT is its own committed transaction.
            db = sqlite3.connect(self.cache_dir / CACHE_FILE, timeout=60.0,
                                 isolation_level=None, check_same_thread=False)
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute("CREATE TABLE IF NOT EXISTS completions "
                       "(key TEXT PRIMARY KEY, payload TEXT NOT NULL) WITHOUT ROWID")
            self._db = db
        return self._db

    def _cache_read(self, key: str | None) -> CompletionResponse | None:
        if key is None:
            return None
        with self._lock:
            row = self._cache().execute("SELECT payload FROM completions WHERE key = ?",
                                        (key,)).fetchone()
        if row is None:
            return None
        data = json.loads(row[0])
        return CompletionResponse(text=data["text"], tokens_in=data.get("tokens_in"),
                                  tokens_out=data.get("tokens_out"),
                                  latency_ms=data.get("latency_ms", 0.0),
                                  backend=data.get("backend", ""), cached=True)

    def _cache_write(self, key: str | None, resp: CompletionResponse) -> None:
        if key is None:
            return
        payload = {"text": resp.text, "tokens_in": resp.tokens_in,
                   "tokens_out": resp.tokens_out, "latency_ms": resp.latency_ms,
                   "backend": resp.backend}
        with self._lock:
            self._cache().execute("INSERT OR REPLACE INTO completions VALUES (?, ?)",
                                  (key, json.dumps(payload)))

    def close(self) -> None:
        """Close the cache database, if one is open; later use reopens it."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        key = self._cache_key(req)
        cached = self._cache_read(key)
        if cached is not None:
            with self._lock:
                self.cache_hits += 1
            return cached
        delay = self.backoff_base
        for attempt in range(self.max_retries + 1):
            with self._lock:
                self.network_calls += 1
            try:
                resp = self.backend.complete(req)
                break
            except RateLimited:
                if attempt == self.max_retries:
                    raise
                self.sleep(min(delay, self.backoff_cap))
                delay *= 2
        self._cache_write(key, resp)
        return resp

    def run_batch(self, requests_in: Sequence[CompletionRequest],
                  max_in_flight: int = 4) -> list[BatchResult]:
        """Complete every request with at most max_in_flight outstanding.

        Output order matches input order; per-item failures are recorded in
        place and never abort the batch. Equal requests in one batch that
        carry the same query object (or none) are completed once and share
        that response or error, so however often one repeats it counts one
        network call (plus retries) or one cache hit.
        """
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        results = [BatchResult(request=r) for r in requests_in]
        keys = [(r, id(r.query)) for r in requests_in]
        first: dict[tuple[CompletionRequest, int], int] = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)

        def work(i: int) -> None:
            try:
                results[i].response = self.complete(requests_in[i])
            except Exception as exc:
                results[i].error = f"{type(exc).__name__}: {exc}"

        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            list(pool.map(work, first.values()))
        for res, key in zip(results, keys):
            done = results[first[key]]
            res.response, res.error = done.response, done.error
        return results
