"""Submission layer for rendered prompts: a chat-completions HTTP backend,
a deterministic mock backend for desk-scale testing, a content-addressed
SQLite cache, and bounded-concurrency batch execution.

This is the only concurrent module; everything it calls into is pure.
Each heavy module is imported where it is used, so a command loads only
what it needs: `requests` when an `HttpBackend` is made or sends, `sqlite3`
when a cache is first opened, and `concurrent.futures` when a batch has
misses for a backend that waits on I/O.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

from . import prompts as prompt_mod
from .errors import MalformedResponse, RateLimited, TransportError
from .tasks import TASKS

if TYPE_CHECKING:
    import sqlite3

    from .corpus import QuerySpec

ENDPOINT_ENV = "GRAPHBENCH_ENDPOINT"
API_KEY_ENV = "GRAPHBENCH_API_KEY"
CACHE_DIR_ENV = "GRAPHBENCH_CACHE_DIR"
# The one database file a Gateway keeps under its cache_dir.
CACHE_FILE = "cache.sqlite3"
# A rate-limited request is retried MAX_RETRIES times, waiting BACKOFF_BASE
# seconds, then twice as long each time, never more than BACKOFF_CAP.
MAX_RETRIES = 5
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0
# Keys per cache SELECT: under 999, the smallest default limit on one
# SQLite statement's parameters.
READ_SLICE = 500
# Seconds an HTTP request may take before it fails as a TransportError.
HTTP_TIMEOUT = 120.0
# Sampling settings sent with every request; MAX_TOKENS None sends no cap.
# All three are part of the cache key, so changing one invalidates every
# cached completion.
TEMPERATURE = 0.7
TOP_P = 0.9
MAX_TOKENS = None


@dataclass(frozen=True, slots=True)
class CompletionRequest:
    """One prompt for one model, kept as the two parts it is composed of:
    `head`, the part many prompts share (the algorithm block and exemplar
    items of `prompts.Renderer.head`; None when there is none), and
    `body`, the query's own item. The prompt is the two joined by a blank
    line (`prompts.join_prompt`); `CompletionRequest(model, text)` is a
    prompt with no head.

    The joined text is built only by `prompt`, which the HTTP backend
    sends. The cache key and the mock's draw hash the two parts in order
    and the mock counts their words apart, so each is what it would be on
    the joined text. Equality covers the model, the head and the body.
    """

    model: str
    body: str
    head: str | None = None
    # The query the prompt was composed from. Only the mock backend reads it;
    # it is not part of the cache key.
    query: QuerySpec | None = field(default=None, compare=False, repr=False)

    @property
    def prompt(self) -> str:
        return prompt_mod.join_prompt(self.head, self.body)

    def prompt_sha256(self, before: str, after: str = ""):
        """sha256 over `before`, the prompt and `after`, fed part by part,
        so the joined prompt is never built."""
        digest = hashlib.sha256(before.encode("utf-8"))
        if self.head is not None:
            digest.update(self.head.encode("utf-8"))
            digest.update(prompt_mod.HEAD_SEPARATOR.encode("utf-8"))
        digest.update(self.body.encode("utf-8"))
        digest.update(after.encode("utf-8"))
        return digest

    def cache_key(self) -> str:
        settings = "".join(f"\x00{value!r}" for value in (TEMPERATURE, TOP_P, MAX_TOKENS))
        return self.prompt_sha256(f"{self.model}\x00", settings).hexdigest()


@dataclass
class CompletionResponse:
    text: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    latency_ms: float = 0.0


class Backend(Protocol):
    """What `Gateway` needs of a backend.

    A backend may also set `waits_on_io`: whether `complete` spends its time
    waiting outside the interpreter (on a socket, say). Only then do worker
    threads overlap requests; for a backend that computes its answers in
    Python they would only take turns holding the GIL, so `run_batch` calls
    it on the calling thread instead. A backend that does not say counts as
    waiting.
    """

    # Every setting that changes the answers; the cache keys on it.
    identity: str

    def complete(self, req: CompletionRequest) -> CompletionResponse: ...


class HttpBackend:
    """POST to a chat-completions style endpoint.

    The endpoint URL and key come from arguments or the GRAPHBENCH_ENDPOINT /
    GRAPHBENCH_API_KEY environment variables. A request that takes longer
    than HTTP_TIMEOUT seconds fails as a TransportError.

    `requests` is imported here and nowhere else, so only a command that
    talks HTTP loads it and its stack (urllib3, ssl, ...). `session` is a
    `requests.Session`, made here when none is given.
    """

    waits_on_io = True

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 session: Any = None):
        import requests

        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not self.endpoint:
            raise TransportError(f"no endpoint configured (set {ENDPOINT_ENV})")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        self.session = session or requests.Session()
        self.identity = f"http\x00{self.endpoint}"

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        import requests

        body = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": TEMPERATURE,
            "top_p": TOP_P,
        }
        if MAX_TOKENS is not None:
            body["max_tokens"] = MAX_TOKENS
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        start = time.monotonic()
        try:
            resp = self.session.post(self.endpoint, json=body, headers=headers,
                                     timeout=HTTP_TIMEOUT)
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
        )


class MockBackend:
    """Deterministic responder that answers the request's query in the
    canonical phrasing, from the query's stored ground truth.

    A wrong answer is the gold answer value changed (a bool negated, a
    number plus one, the first two BFS nodes swapped, a path cut to its
    start, the Hamiltonian decision flipped, the cut size plus one) and
    rendered by the same `render` of the query's task as the gold one
    (see `tasks.Task.wrong`).

    It answers incorrectly with probability error_rate, decided by a
    stable hash of the prompt and the seed so repeats (and cache hits)
    agree; the hash never falls below 0, so at error_rate 0 (the default,
    and `--backend mock-oracle`) it always answers correctly. Its identity
    names the draw, the error rate and the seed. It reports the words of the
    prompt as input tokens and the words of the answer as output tokens, and
    never fails a request, except that one without a query cannot be
    answered and raises ValueError. An error_rate outside [0, 1], NaN
    included, is rejected.

    A query has only two answers, the right one and the wrong one, so the
    mock keeps them for the last query it answered (matched by identity;
    a query is not changed once built): the gold value, and each answer's
    text and word count once rendered. `run_evaluation` sends a query's
    cells one after another, so each answer is rendered once per query.

    It answers in Python, without waiting on anything, so `run_batch` calls
    it on the calling thread.
    """

    waits_on_io = False

    def __init__(self, error_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"the mock's error rate must be in [0, 1], got {error_rate!r}")
        self.error_rate = error_rate
        self.seed = seed
        self.identity = f"mock\x00bernoulli\x00{error_rate!r}\x00{seed!r}"
        # (query, gold value, {wrong: (answer text, its word count)}).
        self._memo: tuple[QuerySpec, Any, dict[bool, tuple[str, int]]] | None = None

    def _unit(self, req: CompletionRequest) -> float:
        digest = req.prompt_sha256(f"{self.seed}\x00bernoulli\x00").digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        q = req.query
        if q is None:
            raise ValueError("the mock backend answers from the request's query, "
                             "and this request carries none")
        wrong = self._unit(req) < self.error_rate
        memo = self._memo
        spec = TASKS[q.task]
        if memo is None or memo[0] is not q:
            memo = self._memo = (q, spec.gold(q.graph, q.params, q.ground_truth), {})
        answers = memo[2]
        if wrong not in answers:
            value = spec.wrong(q.graph.n, memo[1]) if wrong else memo[1]
            text = spec.render(q.params, value)
            answers[wrong] = (text, len(text.split()))
        text, tokens_out = answers[wrong]
        # The blank line between head and body ends a word, so the two
        # counts add up to the joined prompt's.
        tokens_in = _word_count(req.body)
        if req.head is not None:
            tokens_in += _word_count(req.head)
        return CompletionResponse(text=text, tokens_in=tokens_in,
                                  tokens_out=tokens_out, latency_ms=0.0)


# Per byte of ASCII text: 0 where `str.split()` splits (whitespace), else 1.
_WORD_BYTES = bytes(0 if chr(b).isspace() else 1 for b in range(256))


def _word_count(text: str) -> int:
    """len(text.split()), counted without building the words: an ASCII
    text is marked byte by byte, and each word start (a 1 at the start or
    after a 0) is one word."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WORD_BYTES)
    return marks.count(b"\x00\x01") + (marks[:1] == b"\x01")


@dataclass
class BatchResult:
    response: CompletionResponse | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.response is not None


class Gateway:
    """Caching, retrying front door to a backend.

    The cache is one SQLite file, `cache_dir/cache.sqlite3`, keyed on the
    backend's identity and the request, so identical requests never hit the
    network twice and one backend's answers are never served for another's.
    `run_batch` is its one reader and one writer, both on the calling
    thread; `complete` only talks to the backend. For a backend that waits
    on I/O, worker threads pull misses from one queue and take only the
    counter lock, never the one that guards the cache, so no worker waits
    behind a commit; a backend that answers in process (the mock) is called
    on the calling thread, with no worker. Completions are committed,
    in one transaction per group, before the calling thread next waits for
    the backend, so a run that stops part-way keeps every finished entry
    and a rerun resumes from them; an interrupted batch sends nothing new.
    Two processes may fill one cache at once.
    `sqlite3` is imported when the cache is first opened, and the worker
    pool's `concurrent.futures` only when a backend that waits on I/O has
    misses, so a mock run without a cache loads neither.
    Caches from the older one-file-per-entry layout are not read. Without a
    `cache_dir` nothing is cached and nothing is created; the CLI resolves
    it from `--cache-dir`, then GRAPHBENCH_CACHE_DIR, then the config file.

    A backend call that raises RateLimited is retried up to MAX_RETRIES
    times, after waits of BACKOFF_BASE seconds doubling up to BACKOFF_CAP;
    `sleep` performs each wait.
    """

    def __init__(self, backend: Backend, cache_dir: str | Path | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.sleep = sleep
        # Both counters are changed under _count_lock, held for one increment.
        self.network_calls = 0
        self.cache_hits = 0
        self._count_lock = threading.Lock()
        # Opened on first use, and only with a cache_dir; used under
        # _cache_lock, which only the calling threads of run_batch and close
        # take, never a worker.
        self._db: sqlite3.Connection | None = None
        self._cache_lock = threading.Lock()

    def _cache_key(self, req: CompletionRequest) -> str:
        payload = f"{self.backend.identity}\x00{req.cache_key()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _cache(self) -> sqlite3.Connection:
        """The cache connection, opened on first use; `sqlite3` is imported
        here, so a gateway that never opens its cache never loads it."""
        if self._db is None:
            import sqlite3

            self.cache_dir.mkdir(parents=True, exist_ok=True)
            timeout = 60.0
            # Autocommit: a write outside BEGIN is its own transaction.
            db = sqlite3.connect(self.cache_dir / CACHE_FILE, timeout=timeout,
                                 isolation_level=None, check_same_thread=False)
            try:
                _switch_to_wal(db, time.monotonic() + timeout)
                db.execute("PRAGMA synchronous=NORMAL")
                db.execute("CREATE TABLE IF NOT EXISTS completions "
                           "(key TEXT PRIMARY KEY, payload TEXT NOT NULL) WITHOUT ROWID")
            except BaseException:
                db.close()
                raise
            self._db = db
        return self._db

    def _cache_read(self, keys: Sequence[str]) -> dict[str, CompletionResponse | Exception]:
        """The cached response of each key that has one, read with one
        SELECT per slice of at most READ_SLICE keys; a key not cached is
        left out. A slice whose statement or one of whose rows fails to
        decode is read again key by key, and a key whose own read fails maps
        to its exception, so a bad entry fails only its own item. No keys
        open no database."""
        found: dict[str, CompletionResponse | Exception] = {}
        if not keys:
            return found
        with self._cache_lock:
            db = self._cache()
            for start in range(0, len(keys), READ_SLICE):
                part = keys[start:start + READ_SLICE]
                marks = ",".join("?" * len(part))
                try:
                    rows = db.execute("SELECT key, payload FROM completions "
                                      f"WHERE key IN ({marks})", part).fetchall()
                    found.update({key: _decode(payload) for key, payload in rows})
                except Exception:
                    for key in part:
                        try:
                            row = db.execute("SELECT payload FROM completions WHERE key = ?",
                                             (key,)).fetchone()
                            if row is not None:
                                found[key] = _decode(row[0])
                        except Exception as exc:
                            found[key] = exc
        return found

    def _cache_write(self, entries: Sequence[tuple[str, CompletionResponse]]) -> None:
        """Store (key, response) entries in one transaction, or none of them."""
        rows = [(key, json.dumps({"text": resp.text, "tokens_in": resp.tokens_in,
                                  "tokens_out": resp.tokens_out,
                                  "latency_ms": resp.latency_ms}))
                for key, resp in entries]
        with self._cache_lock:
            db = self._cache()
            db.execute("BEGIN IMMEDIATE")
            try:
                db.executemany("INSERT OR REPLACE INTO completions VALUES (?, ?)", rows)
                db.execute("COMMIT")
            except BaseException:
                if db.in_transaction:
                    db.execute("ROLLBACK")
                raise

    def close(self) -> None:
        """Close the cache database, if one is open; later use reopens it."""
        with self._cache_lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        """Send one request to the backend, retrying RateLimited. It neither
        reads nor writes the cache: `run_batch` does both."""
        delay = BACKOFF_BASE
        for attempt in range(MAX_RETRIES + 1):
            with self._count_lock:
                self.network_calls += 1
            try:
                resp = self.backend.complete(req)
                break
            except RateLimited:
                if attempt == MAX_RETRIES:
                    raise
                self.sleep(min(delay, BACKOFF_CAP))
                delay *= 2
        return resp

    def run_batch(self, requests_in: Sequence[CompletionRequest],
                  max_in_flight: int = 4) -> list[BatchResult]:
        """Complete every request with at most max_in_flight outstanding.

        Output order matches input order; per-item failures are recorded in
        place and never abort the batch. Equal requests in one batch that
        carry the same query object (or none) are completed once and share
        that response or error, so however often one repeats it counts one
        network call (plus retries) or one cache hit.

        This is the one place the cache is read and written, both on the
        calling thread, under a key computed once per distinct request.
        The batch's distinct keys are looked up together, one SELECT per
        slice of READ_SLICE keys (see `_cache_read`); only the misses go on
        one queue, emptied one request at a time through `complete`. For a
        backend that waits on I/O (see `Backend`), up to max_in_flight
        worker threads empty it, and no pool is started (nor
        `concurrent.futures` imported) when nothing missed; the calling
        thread takes the completions as the workers finish them and commits
        every one that has arrived in one transaction before it waits
        again. A backend that does not wait is
        called on the calling thread, which then commits the batch's
        completions in one transaction. A cache read that fails is an
        error on its item, which is not sent; a commit that fails is an
        error on each answered item of its group. A backend that raises a
        BaseException other than an Exception (SystemExit, ...) fails the
        batch: the calling thread raises it once its group is committed. If
        the calling thread leaves by an exception, the unsent misses are
        dropped, so the workers finish only the requests they are sending.
        """
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        items = [(r, id(r.query)) for r in requests_in]
        outcome: dict[tuple[CompletionRequest, int], tuple] = {}
        misses: dict[tuple[CompletionRequest, int], str | None] = {}
        if self.cache_dir is None:
            misses = dict.fromkeys(items)
        else:
            keys = {item: self._cache_key(item[0]) for item in dict.fromkeys(items)}
            distinct = list(dict.fromkeys(keys.values()))
            try:
                found = self._cache_read(distinct)
            except Exception as exc:
                found = dict.fromkeys(distinct, exc)
            for item, key in keys.items():
                cached = found.get(key)
                if cached is None:
                    misses[item] = key
                elif isinstance(cached, Exception):
                    outcome[item] = (None, _describe(cached))
                else:
                    outcome[item] = (cached, None)
        with self._count_lock:
            self.cache_hits += sum(resp is not None for resp, _ in outcome.values())

        todo: queue.SimpleQueue = queue.SimpleQueue()
        for item in misses:
            todo.put(item)
        done: queue.SimpleQueue = queue.SimpleQueue()
        stop = threading.Event()

        def pull() -> None:
            while not stop.is_set():
                try:
                    item = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    done.put((item, self.complete(item[0]), None))
                except Exception as exc:
                    done.put((item, None, _describe(exc)))
                except BaseException as exc:
                    # Not an item failure (SystemExit, KeyboardInterrupt):
                    # this loop stops, and the calling thread raises it
                    # once its group is committed.
                    done.put((item, None, exc))
                    return

        if misses:
            with contextlib.ExitStack() as stack:
                if getattr(self.backend, "waits_on_io", True):
                    from concurrent.futures import ThreadPoolExecutor

                    workers = min(max_in_flight, len(misses))
                    pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
                    # After an exception, the workers take no more misses.
                    stack.callback(stop.set)
                    for _ in range(workers):
                        pool.submit(pull)
                else:
                    # Workers would only take turns with this thread for
                    # the GIL; `done` then holds the whole batch, or every
                    # completion up to a backend's BaseException.
                    pull()
                waiting = len(misses)
                while waiting:
                    group = [done.get()]
                    while not done.empty():
                        group.append(done.get())
                    waiting -= len(group)
                    answered = [(misses[item], resp) for item, resp, _ in group
                                if resp is not None]
                    if self.cache_dir is not None and answered:
                        try:
                            self._cache_write(answered)
                        except Exception as exc:
                            group = [(item, None,
                                      _describe(exc) if resp is not None else error)
                                     for item, resp, error in group]
                    for item, resp, error in group:
                        if isinstance(error, BaseException):
                            raise error
                    outcome.update((item, (resp, error)) for item, resp, error in group)
        return [BatchResult(*outcome[item]) for item in items]


def _decode(payload: str) -> CompletionResponse:
    data = json.loads(payload)
    return CompletionResponse(text=data["text"], tokens_in=data.get("tokens_in"),
                              tokens_out=data.get("tokens_out"),
                              latency_ms=data.get("latency_ms", 0.0))


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _switch_to_wal(db: sqlite3.Connection, deadline: float) -> None:
    """Put the database in WAL mode, retrying until `deadline` (a
    time.monotonic() value) while another connection holds the lock.

    Two connections that open a fresh file at once can both fail the
    switch with "database is locked": SQLite answers BUSY at once there,
    without waiting out the busy timeout, to avoid a deadlock. Whichever
    gets through switches the file for both. The error class is read from
    the connection, so this module need not import `sqlite3`."""
    while True:
        try:
            db.execute("PRAGMA journal_mode=WAL")
            return
        except db.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        if db.execute("PRAGMA journal_mode").fetchone()[0] == "wal":
            return
        time.sleep(0.001)
