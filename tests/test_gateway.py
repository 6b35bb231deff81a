"""Gateway behavior: caching, ordered bounded-concurrency batches, retry,
and the mock backends."""

import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import requests

import graphbench
import graphbench.gateway as gateway_mod
from graphbench import answer_eval
from conftest import CannedBackend, RateLimitedMock, cache_entries
from graphbench.corpus import build_corpus
from graphbench.errors import MalformedResponse, RateLimited, TransportError
from graphbench.gateway import (BACKOFF_BASE, CACHE_FILE, MAX_RETRIES, CompletionRequest,
                                CompletionResponse, Gateway, HttpBackend, MockBackend)
from graphbench.generators import DifficultySplit as D
from graphbench.pipeline import accuracy, compose_cells, run_evaluation, score_response
from graphbench.prompts import DecorationFactors
from graphbench.prompts import PromptScheme as S
from graphbench.prompts import Renderer, build_exemplars, compose_prompt, join_prompt
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TASKS
from graphbench.tasks import TaskKind as T


def sample_prompt(task=T.CYCLE, fmt=F.ADJACENCY_LIST, seed=3):
    q = build_corpus([task], [D.EASY], None, 1, master_seed=seed)[0]
    return q, join_prompt(*compose_prompt(q, S.ZERO_SHOT, fmt))


class CountingBackend:
    """Records peak concurrency and the prompts it was sent, in order."""

    def __init__(self, delay=0.01):
        self.identity = "counting"
        self.delay = delay
        self.active = 0
        self.peak = 0
        self.calls = 0
        self.prompts = []
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.active += 1
            self.calls += 1
            self.prompts.append(req.prompt)
            self.peak = max(self.peak, self.active)
        time.sleep(self.delay)
        with self._lock:
            self.active -= 1
        return CompletionResponse(text=f"echo:{req.prompt}")


def test_cache_hit_skips_network(tmp_path):
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)
    req = CompletionRequest(model="m", body="hello")
    first = gw.run_batch([req])[0].response
    second = gw.run_batch([req])[0].response
    assert backend.prompts == ["hello"]
    assert (gw.cache_hits, gw.network_calls) == (1, 1)
    assert second.text == first.text


def test_cache_resumes_across_gateways(tmp_path):
    backend = CountingBackend(delay=0)
    Gateway(backend, cache_dir=tmp_path).run_batch([CompletionRequest("m", "p1")])
    gw2 = Gateway(backend, cache_dir=tmp_path)
    gw2.run_batch([CompletionRequest("m", "p1")])
    assert backend.calls == 1
    assert gw2.network_calls == 0


def test_a_cached_batch_reads_each_distinct_request_once(tmp_path, monkeypatch):
    """`run_batch` is the one cache reader: every distinct request of a
    batch with hits, misses and duplicates is looked up once, and a miss is
    not looked up again on its way to the backend."""
    backend = CountingBackend(delay=0)
    Gateway(backend, cache_dir=tmp_path).run_batch([CompletionRequest("m", "h1"),
                                                    CompletionRequest("m", "h2")])
    gw = Gateway(backend, cache_dir=tmp_path)
    read, reads = gw._cache_read, []

    def counting_read(keys):
        reads.extend(keys)
        return read(keys)

    monkeypatch.setattr(gw, "_cache_read", counting_read)
    prompts = ["m1", "h1", "m2", "h1", "m1", "h2", "m3"]
    results = gw.run_batch([CompletionRequest("m", p) for p in prompts], max_in_flight=2)
    assert [r.response.text for r in results] == [f"echo:{p}" for p in prompts]
    assert sorted(reads) == sorted(gw._cache_key(CompletionRequest("m", p))
                                   for p in set(prompts))
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (2, 3, 5)


def test_complete_never_touches_the_cache(tmp_path, monkeypatch):
    """`complete` is the send path only: it neither keys, reads, writes nor
    opens the cache, so nothing it sends is stored; `run_batch` stores it."""
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)

    def forbidden(*args):
        raise AssertionError("complete touched the cache")

    with monkeypatch.context() as m:
        for name in ("_cache_key", "_cache_read", "_cache_write", "_cache"):
            m.setattr(gw, name, forbidden)
        resp = gw.complete(CompletionRequest("m", "p"))
    assert resp.text == "echo:p"
    assert (backend.prompts, gw.network_calls) == (["p"], 1)
    assert list(tmp_path.iterdir()) == []
    gw.run_batch([CompletionRequest("m", "p")])
    assert cache_entries(tmp_path) == 1
    fresh = Gateway(backend, cache_dir=tmp_path)
    served = fresh.run_batch([CompletionRequest("m", "p")])
    assert served[0].response.text == "echo:p"
    assert (backend.prompts, fresh.cache_hits, fresh.network_calls) == (["p", "p"], 1, 0)


def test_library_gateway_ignores_cache_dir_env(tmp_path, monkeypatch):
    """Only the CLI reads GRAPHBENCH_CACHE_DIR; a Gateway built without a
    cache_dir caches nothing, whatever the environment says."""
    monkeypatch.setenv("GRAPHBENCH_CACHE_DIR", str(tmp_path))
    gw = Gateway(MockBackend())
    assert gw.cache_dir is None
    q, prompt = sample_prompt()
    assert gw.run_batch([CompletionRequest("m", prompt, query=q)])[0].ok
    assert gw.network_calls == 1
    assert list(tmp_path.iterdir()) == []


def test_identical_requests_in_flight_both_write_the_cache(tmp_path):
    """Two gateways on one cache miss the same key together and both write
    it; the store keeps one entry, which a fresh gateway serves. (One
    gateway sends equal requests of a batch once, so the race needs two
    writers.)"""
    both_called = threading.Barrier(2)

    class MeetingBackend:
        identity = "meeting"

        def complete(self, req):
            both_called.wait(timeout=10)
            return CompletionResponse(text="answer")

    req = CompletionRequest("m", "p")
    gateways = [Gateway(MeetingBackend(), cache_dir=tmp_path) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        batches = list(pool.map(lambda gw: gw.run_batch([req]), gateways))
    assert [[r.response.text for r in batch] for batch in batches] == [["answer"]] * 2
    assert [gw.network_calls for gw in gateways] == [1, 1]
    assert cache_entries(tmp_path) == 1
    fresh = Gateway(MeetingBackend(), cache_dir=tmp_path)
    assert fresh.run_batch([req])[0].response.text == "answer"
    assert (fresh.cache_hits, fresh.network_calls) == (1, 0)
    # The one database and SQLite's side files: no shards, no temp files.
    assert {p.name for p in tmp_path.iterdir()} <= {
        CACHE_FILE, f"{CACHE_FILE}-wal", f"{CACHE_FILE}-shm"}


def test_cache_resumes_after_a_partial_batch(tmp_path):
    """A batch whose backend fails half-way keeps every completion it got,
    and a fresh gateway serves each of them from the cache."""

    class FailsHalfway(CountingBackend):
        def complete(self, req):
            if self.calls == 5:
                raise TransportError("connection lost")
            return super().complete(req)

    reqs = [CompletionRequest("m", f"p{i}") for i in range(10)]
    first = Gateway(FailsHalfway(delay=0), cache_dir=tmp_path).run_batch(reqs, max_in_flight=1)
    assert [r.ok for r in first] == [True] * 5 + [False] * 5
    assert cache_entries(tmp_path) == 5
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)
    again = gw.run_batch(reqs, max_in_flight=2)
    assert sorted(backend.prompts) == [f"p{i}" for i in range(5, 10)]
    assert [r.response.text for r in again] == [f"echo:p{i}" for i in range(10)]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (5, 5, 5)


def test_a_failed_group_write_fails_only_its_own_items(tmp_path, monkeypatch):
    """When a group's transaction raises, each answered item of that group
    becomes an error and stores nothing; other groups keep their answers,
    a backend error keeps its own message, and nothing is sent twice."""

    class FailsOnBad(CountingBackend):
        def complete(self, req):
            resp = super().complete(req)
            if req.prompt == "bad":
                raise TransportError("connection lost")
            return resp

    backend = FailsOnBad(delay=0.002)
    gw = Gateway(backend, cache_dir=tmp_path)
    write, failed_keys = gw._cache_write, []

    def fails_once(entries):
        if not failed_keys:
            failed_keys.extend(key for key, _ in entries)
            raise sqlite3.OperationalError("disk I/O error")
        return write(entries)

    monkeypatch.setattr(gw, "_cache_write", fails_once)
    prompts = ["bad", *(f"p{i}" for i in range(8))]
    reqs = [CompletionRequest("m", p) for p in prompts]
    results = gw.run_batch(reqs + reqs[:3], max_in_flight=2)
    assert failed_keys
    expected = ["TransportError: connection lost" if p == "bad"
                else "OperationalError: disk I/O error" if gw._cache_key(r) in failed_keys
                else None for p, r in zip(prompts, reqs)]
    assert [r.error for r in results] == expected + expected[:3]
    assert [r.ok for r in results] == [e is None for e in expected + expected[:3]]
    assert sorted(backend.prompts) == sorted(prompts)
    assert gw.network_calls == len(prompts)
    assert None in expected and cache_entries(tmp_path) == expected.count(None)
    fresh = CountingBackend(delay=0)
    again = Gateway(fresh, cache_dir=tmp_path).run_batch(reqs)
    assert all(r.ok for r in again)
    assert sorted(fresh.prompts) == sorted(
        p for p, e in zip(prompts, expected) if e is not None)


def test_every_completion_is_committed_before_the_next_wait(tmp_path):
    """The calling thread commits each completion that has reached it
    before it waits for the next: the sixth request is answered only once
    a second connection sees the first five committed."""

    class WaitsForFive(CountingBackend):
        def complete(self, req):
            if req.prompt == "p5":
                deadline = time.monotonic() + 10
                while cache_entries(tmp_path) < 5:
                    if time.monotonic() > deadline:
                        raise TimeoutError("the first five were not committed")
                    time.sleep(0.005)
            return super().complete(req)

    reqs = [CompletionRequest("m", f"p{i}") for i in range(8)]
    results = Gateway(WaitsForFive(delay=0), cache_dir=tmp_path).run_batch(reqs, max_in_flight=1)
    assert [r.error for r in results] == [None] * 8
    assert cache_entries(tmp_path) == 8


def test_a_commit_in_progress_does_not_hold_up_the_workers(tmp_path, monkeypatch):
    """While the first commit is held open, the one worker keeps sending:
    the commit's `_cache()` call returns only once the backend has received
    the last prompt."""
    backend = CountingBackend(delay=0.01)
    gw = Gateway(backend, cache_dir=tmp_path)
    cache, write = gw._cache, gw._cache_write
    writes, held = [], []

    def counting_write(entries):
        writes.append(len(entries))
        return write(entries)

    def holding_cache():
        if len(writes) == 1 and not held:
            deadline = time.monotonic() + 5
            while "p2" not in backend.prompts and time.monotonic() < deadline:
                time.sleep(0.002)
            held.append("p2" in backend.prompts)
        return cache()

    monkeypatch.setattr(gw, "_cache_write", counting_write)
    monkeypatch.setattr(gw, "_cache", holding_cache)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(3)]
    results = gw.run_batch(reqs, max_in_flight=1)
    assert held == [True], "the worker waited for the commit"
    assert [r.response.text for r in results] == ["echo:p0", "echo:p1", "echo:p2"]
    assert cache_entries(tmp_path) == 3


def test_one_task_per_worker(monkeypatch):
    """A batch hands the pool one pull loop per worker, not one task per
    request."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", CountingPool)
    backend = CountingBackend(delay=0)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(50)]
    results = Gateway(backend).run_batch(reqs, max_in_flight=3)
    assert [r.response.text for r in results] == [f"echo:p{i}" for i in range(50)]
    assert backend.calls == 50
    assert 1 <= len(submitted) <= 3


def test_many_workers_send_each_miss_once_and_count_every_call(tmp_path):
    """Under frequent thread switches, more workers than cores take every
    miss off the one queue exactly once, and no counter update is lost."""
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = gw.run_batch(reqs, max_in_flight=8)
    finally:
        sys.setswitchinterval(interval)
    assert [r.response.text for r in results] == [f"echo:p{i}" for i in range(400)]
    assert sorted(backend.prompts) == sorted(r.prompt for r in reqs)
    assert gw.network_calls == 400 and cache_entries(tmp_path) == 400


def test_an_interrupted_batch_stops_sending(tmp_path, monkeypatch):
    """When the calling thread leaves `run_batch` by an exception, the
    unsent requests are dropped: the workers finish the ones they are
    sending and take no more."""
    backend = CountingBackend(delay=0.02)
    gw = Gateway(backend, cache_dir=tmp_path)

    def interrupted(entries):
        raise KeyboardInterrupt

    monkeypatch.setattr(gw, "_cache_write", interrupted)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(40)]
    with pytest.raises(KeyboardInterrupt):
        gw.run_batch(reqs, max_in_flight=2)
    assert backend.calls <= 4, f"{backend.calls} of 40 requests were sent"
    assert backend.active == 0


def test_a_backend_base_exception_fails_the_batch_instead_of_hanging(tmp_path):
    """A backend that raises a BaseException that is not an Exception
    (here SystemExit) makes `run_batch` raise it on the calling thread. The
    batch runs in a daemon thread, so a hang fails the test, not the run."""
    class Exits:
        identity = "exits"

        def complete(self, req):
            raise SystemExit(3)

    gw = Gateway(Exits(), cache_dir=tmp_path)
    raised = []

    def call():
        try:
            gw.run_batch([CompletionRequest("m", "p")], max_in_flight=1)
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(5)
    assert not caller.is_alive(), "run_batch hung on a backend's SystemExit"
    assert len(raised) == 1 and isinstance(raised[0], SystemExit)
    assert raised[0].code == 3


def test_two_gateways_open_a_fresh_cache_at_once(tmp_path):
    """Opening a new cache file from two connections at the same moment
    switches it to WAL for both; neither fails with "database is locked"."""
    failures = []
    for i in range(200):
        gateways = [Gateway(CountingBackend(), cache_dir=tmp_path / str(i)) for _ in range(2)]
        meet = threading.Barrier(2)

        def open_cache(gw):
            meet.wait(timeout=10)
            return gw._cache().execute("PRAGMA journal_mode").fetchone()[0]

        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                modes = list(pool.map(open_cache, gateways))
            assert modes == ["wal", "wal"]
        except sqlite3.OperationalError as exc:
            failures.append(f"{i}: {exc}")
        finally:
            for gw in gateways:
                gw.close()
    assert failures == []


FILL_CACHE = """
import os, sys
from graphbench.gateway import CompletionRequest, CompletionResponse, Gateway

class Echo:
    identity = "counting"

    def complete(self, req):
        return CompletionResponse(text="echo:" + req.prompt)

cache_dir, step = sys.argv[1], int(sys.argv[2])
reqs = [CompletionRequest("m", f"p{i}") for i in range(200)[::step]]
results = Gateway(Echo(), cache_dir=cache_dir).run_batch(reqs, max_in_flight=2)
assert all(r.ok for r in results), [r.error for r in results if not r.ok]
os._exit(0)  # no clean close: committed entries must already be durable
"""


def test_two_processes_fill_one_cache(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(graphbench.__file__).parents[1])}
    procs = [subprocess.Popen([sys.executable, "-c", FILL_CACHE, str(tmp_path), step],
                              env=env, stderr=subprocess.PIPE, text=True)
             for step in ("1", "-1")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert cache_entries(tmp_path) == 200
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)
    results = gw.run_batch([CompletionRequest("m", f"p{i}") for i in range(200)])
    assert [r.response.text for r in results] == [f"echo:p{i}" for i in range(200)]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (200, 0, 0)


def test_legacy_per_file_entries_are_never_served(tmp_path):
    """A cache_dir left by the one-file-per-entry layout is not read."""
    backend = CountingBackend(delay=0)
    req = CompletionRequest("m", "p")
    key = hashlib.sha256(f"{backend.identity}\x00{req.cache_key()}".encode()).hexdigest()
    legacy = tmp_path / key[:2] / f"{key}.json"
    legacy.parent.mkdir()
    legacy.write_text(json.dumps({"text": "stale", "tokens_in": None, "tokens_out": None,
                                  "latency_ms": 0.0, "backend": "counting"}), "utf-8")
    gw = Gateway(backend, cache_dir=tmp_path)
    resp = gw.run_batch([req])[0].response
    assert resp.text == "echo:p" and backend.prompts == ["p"]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (0, 1, 1)


def test_equal_requests_in_one_batch_call_the_backend_once():
    backend = CountingBackend(delay=0)
    gw = Gateway(backend)
    req = CompletionRequest("m", "p")
    a, b = gw.run_batch([req, CompletionRequest("m", "p")], max_in_flight=2)
    assert (backend.calls, gw.network_calls) == (1, 1)
    assert a.response is b.response and a.response.text == "echo:p"
    bare = CompletionRequest("m", "p")
    failed = Gateway(MockBackend()).run_batch([bare, bare])
    assert failed[0].error == failed[1].error and "query" in failed[0].error


def test_cache_key_covers_params(monkeypatch):
    key = CompletionRequest("m", "p").cache_key()
    assert CompletionRequest("n", "p").cache_key() != key
    assert CompletionRequest("m", "q").cache_key() != key
    for name, value in (("TEMPERATURE", 0.0), ("TOP_P", 1.0), ("MAX_TOKENS", 64)):
        with monkeypatch.context() as m:
            m.setattr(gateway_mod, name, value)
            assert CompletionRequest("m", "p").cache_key() != key


def test_cache_key_is_stable():
    """The key of a fixed request is pinned, so caches that are already
    filled keep hitting."""
    req = CompletionRequest("mock", "Q: is there a cycle?\nA:")
    assert req.cache_key() == "6389949a954a1b982208acaf607673a5a4bbfb20e98a1f8d8169b85c7e4fa722"


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_all_hit_batch_runs_on_the_calling_thread(tmp_path, monkeypatch):
    """A batch served wholly from the cache starts no worker pool and calls
    no backend, and keeps input order, duplicates included."""
    backend = CountingBackend(delay=0)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(6)]
    Gateway(backend, cache_dir=tmp_path).run_batch(reqs)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    fresh = CountingBackend(delay=0)
    gw = Gateway(fresh, cache_dir=tmp_path)
    batch = reqs[::-1] + reqs[:2]
    results = gw.run_batch(batch, max_in_flight=2)
    assert [r.response.text for r in results] == [f"echo:{r.prompt}" for r in batch]
    assert (backend.calls, fresh.prompts, gw.cache_hits, gw.network_calls) == (6, [], 6, 0)


def test_mixed_batch_sends_only_misses_to_the_pool(tmp_path, monkeypatch):
    """Hits are read on the calling thread; each distinct miss goes once
    through `complete` in a worker, and order and counts are as before."""
    backend = CountingBackend(delay=0)
    Gateway(backend, cache_dir=tmp_path).run_batch([CompletionRequest("m", "h1"),
                                                    CompletionRequest("m", "h2")])
    gw = Gateway(backend, cache_dir=tmp_path)
    read, complete = gw._cache_read, gw.complete
    hit_threads, completed = [], []

    def recording_read(keys):
        found = read(keys)
        hit_threads.extend(threading.current_thread() for _ in found)
        return found

    def recording_complete(req):
        completed.append((req.prompt, threading.current_thread()))
        return complete(req)

    monkeypatch.setattr(gw, "_cache_read", recording_read)
    monkeypatch.setattr(gw, "complete", recording_complete)
    prompts = ["m1", "h1", "m2", "h1", "m1", "h2", "m3"]
    results = gw.run_batch([CompletionRequest("m", p) for p in prompts], max_in_flight=2)
    assert [r.response.text for r in results] == [f"echo:{p}" for p in prompts]
    assert sorted(backend.prompts[2:]) == ["m1", "m2", "m3"]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (2, 3, 5)
    assert hit_threads == [threading.main_thread()] * 2
    assert sorted(p for p, _ in completed) == ["m1", "m2", "m3"]
    assert threading.main_thread() not in {t for _, t in completed}


def test_failed_cache_read_is_an_item_error(tmp_path, monkeypatch):
    """A cache read that raises fails its own item (and that item's
    duplicates) only; the item is not sent to the backend."""
    backend = CountingBackend(delay=0)
    good, bad = CompletionRequest("m", "good"), CompletionRequest("m", "bad")
    Gateway(backend, cache_dir=tmp_path).run_batch([good, bad])
    gw = Gateway(backend, cache_dir=tmp_path)
    bad_key, read = gw._cache_key(bad), gw._cache_read

    def failing_read(keys):
        found = read([key for key in keys if key != bad_key])
        if bad_key in keys:
            found[bad_key] = sqlite3.DatabaseError("database disk image is malformed")
        return found

    monkeypatch.setattr(gw, "_cache_read", failing_read)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    first, failed, again, failed_again = gw.run_batch([good, bad, good, bad])
    assert first.response.text == "echo:good" and again.response is first.response
    assert sorted(backend.prompts) == ["bad", "good"]
    assert [failed.error, failed_again.error] == [
        "DatabaseError: database disk image is malformed"] * 2
    assert not failed.ok and not failed_again.ok
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (1, 0, 2)


def mock_requests(count=6, seed=5):
    """Requests for `count` cycle queries, two prompts each, with their
    queries attached, as the mock backend needs."""
    queries = build_corpus([T.CYCLE], [D.EASY], None, count, master_seed=seed)
    return [CompletionRequest("m", join_prompt(*compose_prompt(q, scheme, F.EDGE_LIST)), query=q)
            for q in queries for scheme in (S.ZERO_SHOT, S.ZERO_COT)]


def test_a_batch_of_mock_misses_starts_no_thread_and_commits_every_completion(
        tmp_path, monkeypatch):
    """The mock answers in process, so `run_batch` calls it on the calling
    thread, starts no thread, and commits every completion, duplicates
    sent once."""
    reqs = mock_requests()
    caller, threads = threading.current_thread(), []

    class Recording(MockBackend):
        def complete(self, req):
            threads.append(threading.current_thread())
            return super().complete(req)

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    gw = Gateway(Recording(error_rate=0.5, seed=2), cache_dir=tmp_path)
    results = gw.run_batch(reqs + reqs[:3], max_in_flight=4)
    monkeypatch.undo()
    expected = [MockBackend(error_rate=0.5, seed=2).complete(r)
                for r in reqs + reqs[:3]]
    assert [r.response for r in results] == expected
    assert threads == [caller] * len(reqs)
    assert (gw.network_calls, gw.cache_hits, cache_entries(tmp_path)) == (len(reqs), 0, len(reqs))


def test_an_interrupt_from_an_in_process_backend_is_raised_after_the_finished_are_committed(
        tmp_path):
    """A KeyboardInterrupt out of the mock, on the calling thread, stops
    the batch: the completions finished before it are committed, nothing
    after it is sent, and a rerun sends only the rest."""
    reqs = mock_requests()
    caller, sent = threading.current_thread(), []

    class Interrupted(MockBackend):
        def complete(self, req):
            assert threading.current_thread() is caller
            sent.append(req)
            if len(sent) == 5:
                raise KeyboardInterrupt
            return super().complete(req)

    with pytest.raises(KeyboardInterrupt):
        Gateway(Interrupted(), cache_dir=tmp_path).run_batch(reqs, max_in_flight=2)
    assert sent == reqs[:5]
    assert cache_entries(tmp_path) == 4
    gw = Gateway(MockBackend(), cache_dir=tmp_path)
    assert all(r.ok for r in gw.run_batch(reqs))
    assert (gw.cache_hits, gw.network_calls) == (4, len(reqs) - 4)


def test_run_evaluation_scores_each_distinct_response_once(monkeypatch):
    """Cells that repeat a (query, response) pair share one extraction and
    one score; the same text answering another query is scored again."""
    queries = build_corpus([T.CYCLE, T.CONNECTIVITY], [D.EASY], None, 3, master_seed=1)
    extract, calls = answer_eval.extract, []

    def counting_extract(task, text):
        calls.append((task, text))
        return extract(task, text)

    monkeypatch.setattr(answer_eval, "extract", counting_extract)
    records = list(run_evaluation(queries, [S.ZERO_SHOT, S.ZERO_COT], list(F),
                                  Gateway(MockBackend(error_rate=0.5, seed=4))))
    monkeypatch.undo()
    by_id = {q.id: q for q in queries}
    pairs = {(r["query_id"], r["response"]) for r in records}
    assert len(calls) == len(pairs) < len(records)
    assert len(pairs) > len({text for _, text in pairs})
    for r in records:
        assert (r["extracted"], r["score"]) == score_response(by_id[r["query_id"]],
                                                               r["response"])


def test_a_warm_batch_reads_the_cache_with_one_select_per_slice(tmp_path):
    """The distinct keys of a batch are looked up together, one SELECT per
    slice of at most READ_SLICE keys: 1,200 hits take three."""
    backend = CountingBackend(delay=0)
    assert Gateway(backend, cache_dir=tmp_path / "unused").run_batch([]) == []
    assert not (tmp_path / "unused").exists()
    reqs = [CompletionRequest("m", f"p{i}") for i in range(1200)]
    Gateway(backend, cache_dir=tmp_path).run_batch(reqs)
    gw = Gateway(backend, cache_dir=tmp_path)
    statements = []
    gw._cache().set_trace_callback(statements.append)
    results = gw.run_batch(reqs + reqs[:7])
    assert [r.response.text for r in results] == [f"echo:{r.prompt}" for r in reqs + reqs[:7]]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (1200, 0, 1200)
    selects = [st for st in statements if st.startswith("SELECT")]
    assert len(selects) == 3 == -(-1200 // gateway_mod.READ_SLICE)


def test_an_entry_that_cannot_be_decoded_fails_only_its_own_item(tmp_path):
    """A slice with one unreadable entry is read again key by key: that
    item is an error, not sent, and every other hit in the slice is served."""
    backend = CountingBackend(delay=0)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(600)]
    gw = Gateway(backend, cache_dir=tmp_path)
    gw.run_batch(reqs)
    gw.close()
    with sqlite3.connect(tmp_path / CACHE_FILE) as db:
        db.execute("UPDATE completions SET payload = 'not json' WHERE key = ?",
                   (gw._cache_key(reqs[42]),))
    db.close()
    fresh = Gateway(backend, cache_dir=tmp_path)
    results = fresh.run_batch(reqs)
    assert [i for i, r in enumerate(results) if not r.ok] == [42]
    assert results[42].error.startswith("JSONDecodeError: ")
    assert all(r.response.text == f"echo:p{i}" for i, r in enumerate(results) if i != 42)
    assert (fresh.cache_hits, fresh.network_calls, backend.calls) == (599, 0, 600)


def test_a_mock_counts_the_words_of_every_prompt():
    """`tokens_in` is the prompt's word count as `str.split()` makes it,
    for every task, scheme and format, decorated or not."""
    queries = build_corpus(list(T), [D.EASY], None, 1, master_seed=6)
    backend = MockBackend(error_rate=0.5, seed=1)
    for deco in (DecorationFactors(), DecorationFactors(word_delim="\t", case="upper",
                                                        sentence_delim=" \n ", qa_delim=" \t")):
        for query, _, _, head, body in compose_cells(queries, list(S), list(F), deco=deco):
            resp = backend.complete(CompletionRequest("m", body, head, query=query))
            assert resp.tokens_in == len(join_prompt(head, body).split())
            assert resp.tokens_out == len(resp.text.split())


def test_the_mock_renders_each_querys_answers_once(monkeypatch):
    """A 9 x 7 run asks for each query's gold value once and renders each
    of its two answers at most once, and answers as a fresh mock would."""
    queries = build_corpus(list(T), [D.EASY], None, 1, master_seed=2)
    renderer = Renderer()
    cells = list(compose_cells(queries, list(S), list(F), renderer=renderer))
    calls = {"gold": [], "render": []}
    for spec in TASKS.values():
        for name, log in calls.items():
            original = getattr(spec, name)
            monkeypatch.setattr(spec, name, lambda *a, _f=original, _log=log, _task=spec.kind:
                                _log.append(_task) or _f(*a))
    records = list(run_evaluation(queries, list(S), list(F),
                                  Gateway(MockBackend(error_rate=0.5, seed=3)),
                                  renderer=renderer))
    monkeypatch.undo()
    assert calls["gold"] == [q.task for q in queries]
    assert len(calls["render"]) <= 2 * len(queries)
    fresh = [MockBackend(error_rate=0.5, seed=3).complete(
        CompletionRequest("mock", join_prompt(head, body), query=q))
        for q, _, _, head, body in cells]
    assert [r["response"] for r in records] == [resp.text for resp in fresh]
    assert [r["tokens_in"] for r in records] == [resp.tokens_in for resp in fresh]
    assert len({r["score"] for r in records}) == 2


def test_a_shot_bearing_run_holds_each_prompt_part_once():
    """A request carries its prompt's head and body, never the two joined,
    so a shot-bearing grid's batch holds each bank's head once per format,
    not once per prompt: it peaks below half the joined prompts' size."""
    queries = build_corpus([T.SHORTEST_PATH], [D.EASY], None, 20, master_seed=4)
    schemes = [s for s in S if s.shot_bearing]
    renderer = Renderer()
    gw = Gateway(MockBackend(error_rate=0.5))
    # A first pass builds the banks and their heads, which every pass shares.
    first = list(run_evaluation(queries, schemes, list(F), gw, renderer=renderer))
    joined = sum(len(join_prompt(head, body)) for *_, head, body in
                 compose_cells(queries, schemes, list(F), renderer=renderer))
    tracemalloc.start()
    try:
        again = list(run_evaluation(queries, schemes, list(F), gw, renderer=renderer))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first and len(first) == 20 * len(schemes) * len(F)
    assert peak < joined / 2, (peak, joined)


def test_cache_key_ignores_query():
    q, prompt = sample_prompt()
    bare = CompletionRequest("m", prompt)
    with_query = CompletionRequest("m", prompt, query=q)
    assert with_query.cache_key() == bare.cache_key()
    assert with_query == bare


def test_http_identity_covers_endpoint():
    a = HttpBackend(endpoint="http://localhost:1/v1/chat/completions")
    b = HttpBackend(endpoint="http://localhost:2/v1/chat/completions")
    assert a.identity != b.identity


class StubSession:
    """Stands in for `requests.Session`: records each post and answers it
    with a canned status and JSON body, or raises a canned exception."""

    def __init__(self, status=200, body=None, exc=None):
        self.status, self.body, self.exc = status, body, exc
        self.posts = []

    def post(self, url, json, headers, timeout):
        self.posts.append((url, json, headers, timeout))
        if self.exc is not None:
            raise self.exc
        return StubResponse(self.status, self.body)


class StubResponse:
    def __init__(self, status_code, body):
        self.status_code, self.body = status_code, body
        self.text = json.dumps(body)

    def json(self):
        if self.body is None:
            raise ValueError("no JSON body")
        return self.body


ENDPOINT = "http://localhost:1/v1/chat/completions"


def test_http_backend_posts_a_chat_request_and_reads_the_answer():
    session = StubSession(body={"choices": [{"message": {"content": "Yes."}}],
                                "usage": {"prompt_tokens": 12, "completion_tokens": 2}})
    resp = HttpBackend(endpoint=ENDPOINT, api_key="k", session=session).complete(
        CompletionRequest("m", "Is there a cycle?"))
    assert (resp.text, resp.tokens_in, resp.tokens_out) == ("Yes.", 12, 2)
    [(url, body, headers, timeout)] = session.posts
    assert url == ENDPOINT and timeout == gateway_mod.HTTP_TIMEOUT
    assert body["model"] == "m"
    assert body["messages"] == [{"role": "user", "content": "Is there a cycle?"}]
    assert headers["Authorization"] == "Bearer k"


@pytest.mark.parametrize("session, error", [
    (StubSession(exc=requests.ConnectionError("refused")), TransportError),
    (StubSession(status=429, body={}), RateLimited),
    (StubSession(status=503, body={}), TransportError),
    (StubSession(body={"choices": []}), MalformedResponse),
    (StubSession(body=None), MalformedResponse),
], ids=["connection", "429", "503", "no-choice", "not-json"])
def test_http_backend_maps_failures_to_its_errors(session, error):
    with pytest.raises(error):
        HttpBackend(endpoint=ENDPOINT, session=session).complete(CompletionRequest("m", "p"))


def test_run_batch_preserves_order():
    backend = CountingBackend(delay=0)
    gw = Gateway(backend)
    reqs = [CompletionRequest("m", f"prompt-{i}") for i in range(100)]
    results = gw.run_batch(reqs, max_in_flight=8)
    assert len(results) == 100
    assert all(r.ok for r in results)
    assert [r.response.text for r in results] == [f"echo:prompt-{i}" for i in range(100)]


def test_bounded_concurrency():
    backend = CountingBackend(delay=0.02)
    gw = Gateway(backend)
    reqs = [CompletionRequest("m", f"p{i}") for i in range(32)]
    gw.run_batch(reqs, max_in_flight=4)
    assert backend.peak <= 4
    backend2 = CountingBackend(delay=0.005)
    Gateway(backend2).run_batch(reqs, max_in_flight=1)
    assert backend2.peak == 1


def test_retry_on_rate_limit():
    q, prompt = sample_prompt()
    backend = RateLimitedMock(1.0)
    sleeps = []
    gw = Gateway(backend, sleep=sleeps.append)
    resp = gw.complete(CompletionRequest("m", prompt, query=q))
    assert resp.text
    assert sleeps == [BACKOFF_BASE] == [0.5]
    assert backend.attempts[prompt] == gw.network_calls == 2


def test_retry_budget_exhausted():
    class AlwaysLimited:
        identity = "limited"

        def complete(self, req):
            raise RateLimited("always")

    sleeps = []
    gw = Gateway(AlwaysLimited(), sleep=sleeps.append)
    with pytest.raises(RateLimited):
        gw.complete(CompletionRequest("m", "p"))
    assert gw.network_calls == MAX_RETRIES + 1 == 6
    assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0]
    results = gw.run_batch([CompletionRequest("m", "p")], max_in_flight=2)
    assert not results[0].ok and "RateLimited" in results[0].error


def test_batch_fault_injection_all_succeed():
    qs = build_corpus([T.CYCLE], [D.EASY], None, 10, master_seed=8)
    backend = RateLimitedMock(0.4)
    gw = Gateway(backend, sleep=lambda s: None)
    reqs = [CompletionRequest("m", join_prompt(*compose_prompt(q, S.ZERO_SHOT, F.EDGE_LIST)),
                              query=q)
            for q in qs]
    results = gw.run_batch(reqs, max_in_flight=4)
    assert all(r.ok for r in results)
    assert len(reqs) < gw.network_calls < 2 * len(reqs)


def test_mock_oracle_scores_one():
    for task in T:
        q, prompt = sample_prompt(task=task)
        resp = MockBackend().complete(CompletionRequest("m", prompt, query=q))
        _, s = score_response(q, resp.text)
        assert s == 1, (task, resp.text)


def test_mock_bernoulli_is_deterministic_per_prompt():
    q, prompt = sample_prompt()
    backend = MockBackend(error_rate=0.5, seed=7)
    texts = {backend.complete(CompletionRequest("m", prompt, query=q)).text for _ in range(5)}
    assert len(texts) == 1


def test_mock_wrong_answers_score_zero():
    backend = MockBackend(error_rate=1.0, seed=0)
    for task in T:
        q, prompt = sample_prompt(task=task, seed=9)
        resp = backend.complete(CompletionRequest("m", prompt, query=q))
        _, s = score_response(q, resp.text)
        assert s == 0, (task, resp.text)


def test_mock_fixed_token_reporting():
    q, prompt = sample_prompt()
    resp = MockBackend().complete(CompletionRequest("m", prompt, query=q))
    assert resp.tokens_out == len(resp.text.split()) > 0
    assert resp.tokens_in == len(prompt.split())



def test_parse_prompt_round_trip_all_formats():
    """The prompt carries its query's graph in every format, and the oracle
    mock answers that query, params included, without parsing the prompt."""
    for fmt in F:
        for task in (T.BFS_ORDER, T.CONNECTIVITY, T.DIAMETER, T.MAX_CUT):
            q, prompt = sample_prompt(task=task, fmt=fmt, seed=4)
            assert serialize(q.graph, fmt) in prompt
            resp = MockBackend().complete(CompletionRequest("m", prompt, query=q))
            _, s = score_response(q, resp.text)
            assert s == 1, (task, fmt, resp.text)


def test_parse_prompt_uses_last_item():
    """A k-shot prompt's final item holds the query's graph, and the mock
    answers that query rather than an exemplar."""
    q, _ = sample_prompt(task=T.TRIANGLE)
    bank = build_exemplars(T.TRIANGLE, S.K_SHOT)
    shot = join_prompt(*compose_prompt(q, S.K_SHOT, F.ADJACENCY_LIST))
    last_answer = bank[-1].answer
    assert serialize(q.graph, F.ADJACENCY_LIST) in shot[shot.rindex(last_answer):]
    resp = MockBackend().complete(CompletionRequest("m", shot, query=q))
    answer, s = score_response(q, resp.text)
    assert s == 1 and answer == q.ground_truth

def test_mock_without_query_is_an_item_error():
    q, prompt = sample_prompt()
    gw = Gateway(MockBackend())
    results = gw.run_batch([CompletionRequest("m", prompt),
                            CompletionRequest("m", prompt, query=q)])
    assert not results[0].ok and "query" in results[0].error
    assert results[1].ok


@pytest.mark.parametrize("deco", [DecorationFactors(word_delim="\t"),
                                  DecorationFactors(qa_delim=" :: ")],
                         ids=["word_delim_tab", "qa_delim_double_colon"])
def test_mock_oracle_answers_decorated_prompts(deco):
    queries = build_corpus(list(T), [D.EASY], None, 1, master_seed=0)
    records = list(run_evaluation(queries, [S.ZERO_SHOT, S.K_SHOT], list(F),
                                  Gateway(MockBackend()), deco=deco))
    assert len(records) == len(queries) * 2 * len(F)
    assert [r["error"] for r in records if "error" in r] == []
    assert accuracy(records) == 1.0


def test_canned_backend(tmp_path):
    known = CompletionRequest("m", "question?")
    gw = Gateway(CannedBackend({known.cache_key(): "stored answer"}), cache_dir=tmp_path)
    hit, miss = gw.run_batch([known, CompletionRequest("m", "unknown")])
    assert hit.ok and hit.response.text == "stored answer"
    assert not miss.ok and miss.error.startswith("MalformedResponse: ")
    assert gw.network_calls == 2


def test_request_validation():
    with pytest.raises(ValueError):
        Gateway(CountingBackend()).run_batch([], max_in_flight=0)
