"""Gateway behavior: caching, ordered bounded-concurrency batches, retry,
and the mock backends."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import graphbench
from conftest import CannedBackend, cache_entries
from graphbench.corpus import build_corpus
from graphbench.errors import RateLimited, TransportError
from graphbench.gateway import (CACHE_FILE, CompletionRequest, CompletionResponse, Gateway,
                                HttpBackend, MockBackend)
from graphbench.generators import DifficultySplit as D
from graphbench.pipeline import accuracy, run_evaluation, score_response
from graphbench.prompts import DecorationFactors
from graphbench.prompts import PromptScheme as S
from graphbench.prompts import build_exemplars, compose_prompt
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TaskKind as T


def sample_prompt(task=T.CYCLE, fmt=F.ADJACENCY_LIST, seed=3):
    q = build_corpus([task], [D.EASY], None, 1, master_seed=seed)[0]
    return q, compose_prompt(q, S.ZERO_SHOT, fmt)


class CountingBackend:
    """Records peak concurrency and call order."""

    def __init__(self, delay=0.01):
        self.name = "counting"
        self.identity = "counting"
        self.delay = delay
        self.active = 0
        self.peak = 0
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.active += 1
            self.calls += 1
            self.peak = max(self.peak, self.active)
        time.sleep(self.delay)
        with self._lock:
            self.active -= 1
        return CompletionResponse(text=f"echo:{req.prompt}", backend=self.name)


def test_cache_hit_skips_network(tmp_path):
    backend = CountingBackend(delay=0)
    gw = Gateway(backend, cache_dir=tmp_path)
    req = CompletionRequest(model="m", prompt="hello")
    first = gw.complete(req)
    second = gw.complete(req)
    assert backend.calls == 1
    assert gw.cache_hits == 1
    assert second.text == first.text and second.cached


def test_cache_resumes_across_gateways(tmp_path):
    backend = CountingBackend(delay=0)
    Gateway(backend, cache_dir=tmp_path).complete(CompletionRequest("m", "p1"))
    gw2 = Gateway(backend, cache_dir=tmp_path)
    gw2.complete(CompletionRequest("m", "p1"))
    assert backend.calls == 1
    assert gw2.network_calls == 0


def test_library_gateway_ignores_cache_dir_env(tmp_path, monkeypatch):
    """Only the CLI reads GRAPHBENCH_CACHE_DIR; a Gateway built without a
    cache_dir caches nothing, whatever the environment says."""
    monkeypatch.setenv("GRAPHBENCH_CACHE_DIR", str(tmp_path))
    gw = Gateway(MockBackend())
    assert gw.cache_dir is None
    q, prompt = sample_prompt()
    gw.complete(CompletionRequest("m", prompt, query=q))
    assert gw.network_calls == 1
    assert list(tmp_path.iterdir()) == []


def test_identical_requests_in_flight_both_write_the_cache(tmp_path):
    """Two gateways on one cache miss the same key together and both write
    it; the store keeps one entry, which a fresh gateway serves. (One
    gateway sends equal requests of a batch once and writes under its lock,
    so the race needs two writers.)"""
    both_called = threading.Barrier(2)

    class MeetingBackend:
        name = identity = "meeting"

        def complete(self, req):
            both_called.wait(timeout=10)
            return CompletionResponse(text="answer", backend=self.name)

    req = CompletionRequest("m", "p")
    gateways = [Gateway(MeetingBackend(), cache_dir=tmp_path) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        texts = [r.text for r in pool.map(lambda gw: gw.complete(req), gateways)]
    assert texts == ["answer", "answer"]
    assert [gw.network_calls for gw in gateways] == [1, 1]
    assert cache_entries(tmp_path) == 1
    assert Gateway(MeetingBackend(), cache_dir=tmp_path).complete(req).cached
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
    assert [r.response.cached for r in again] == [True] * 5 + [False] * 5
    assert [r.response.text for r in again] == [f"echo:p{i}" for i in range(10)]
    assert (gw.cache_hits, gw.network_calls, backend.calls) == (5, 5, 5)


FILL_CACHE = """
import os, sys
from graphbench.gateway import CompletionRequest, CompletionResponse, Gateway

class Echo:
    name = identity = "counting"

    def complete(self, req):
        return CompletionResponse(text="echo:" + req.prompt, backend=self.name)

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
    resp = gw.complete(req)
    assert resp.text == "echo:p" and not resp.cached
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


def test_cache_key_covers_params():
    a = CompletionRequest("m", "p", temperature=0.7)
    b = CompletionRequest("m", "p", temperature=0.0)
    assert a.cache_key() != b.cache_key()


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
    backend = MockBackend(mode="oracle", rate_limit_prob=1.0)
    sleeps = []
    gw = Gateway(backend, max_retries=3, backoff_base=0.25, sleep=sleeps.append)
    resp = gw.complete(CompletionRequest("m", prompt, query=q))
    assert resp.text
    assert sleeps == [0.25]


def test_retry_budget_exhausted():
    class AlwaysLimited:
        name = identity = "limited"

        def complete(self, req):
            raise RateLimited("always")

    gw = Gateway(AlwaysLimited(), max_retries=2, sleep=lambda s: None)
    with pytest.raises(RateLimited):
        gw.complete(CompletionRequest("m", "p"))
    results = gw.run_batch([CompletionRequest("m", "p")], max_in_flight=2)
    assert not results[0].ok and "RateLimited" in results[0].error


def test_batch_fault_injection_all_succeed():
    qs = build_corpus([T.CYCLE], [D.EASY], None, 10, master_seed=8)
    backend = MockBackend(mode="oracle", rate_limit_prob=0.4, seed=2)
    gw = Gateway(backend, max_retries=4, sleep=lambda s: None)
    reqs = [CompletionRequest("m", compose_prompt(q, S.ZERO_SHOT, F.EDGE_LIST), query=q)
            for q in qs]
    results = gw.run_batch(reqs, max_in_flight=4)
    assert all(r.ok for r in results)


def test_mock_oracle_scores_one():
    for task in T:
        q, prompt = sample_prompt(task=task)
        resp = MockBackend(mode="oracle").complete(CompletionRequest("m", prompt, query=q))
        _, s = score_response(q, resp.text)
        assert s == 1, (task, resp.text)


def test_mock_bernoulli_is_deterministic_per_prompt():
    q, prompt = sample_prompt()
    backend = MockBackend(mode="bernoulli", error_rate=0.5, seed=7)
    texts = {backend.complete(CompletionRequest("m", prompt, query=q)).text for _ in range(5)}
    assert len(texts) == 1


def test_mock_wrong_answers_score_zero():
    backend = MockBackend(mode="bernoulli", error_rate=1.0, seed=0)
    for task in T:
        q, prompt = sample_prompt(task=task, seed=9)
        resp = backend.complete(CompletionRequest("m", prompt, query=q))
        _, s = score_response(q, resp.text)
        assert s == 0, (task, resp.text)


def test_mock_fixed_token_reporting():
    q, prompt = sample_prompt()
    backend = MockBackend(mode="oracle", fixed_tokens_out=100)
    resp = backend.complete(CompletionRequest("m", prompt, query=q))
    assert resp.tokens_out == 100 and resp.tokens_in == len(prompt.split())



def test_parse_prompt_round_trip_all_formats():
    """The prompt carries its query's graph in every format, and the oracle
    mock answers that query, params included, without parsing the prompt."""
    for fmt in F:
        for task in (T.BFS_ORDER, T.CONNECTIVITY, T.DIAMETER, T.MAX_CUT):
            q, prompt = sample_prompt(task=task, fmt=fmt, seed=4)
            assert serialize(q.graph, fmt) in prompt
            resp = MockBackend(mode="oracle").complete(CompletionRequest("m", prompt, query=q))
            _, s = score_response(q, resp.text)
            assert s == 1, (task, fmt, resp.text)


def test_parse_prompt_uses_last_item():
    """A k-shot prompt's final item holds the query's graph, and the mock
    answers that query rather than an exemplar."""
    q, _ = sample_prompt(task=T.TRIANGLE)
    bank = build_exemplars(T.TRIANGLE, S.K_SHOT, k=3)
    shot = compose_prompt(q, S.K_SHOT, F.ADJACENCY_LIST, bank=bank)
    last_answer = bank.exemplars[-1].answer
    assert serialize(q.graph, F.ADJACENCY_LIST) in shot[shot.rindex(last_answer):]
    resp = MockBackend(mode="oracle").complete(CompletionRequest("m", shot, query=q))
    answer, s = score_response(q, resp.text)
    assert s == 1 and answer == q.ground_truth

def test_mock_without_query_is_an_item_error():
    q, prompt = sample_prompt()
    gw = Gateway(MockBackend(mode="oracle"))
    results = gw.run_batch([CompletionRequest("m", prompt),
                            CompletionRequest("m", prompt, query=q)])
    assert not results[0].ok and "query" in results[0].error
    assert results[1].ok


@pytest.mark.parametrize("deco", [DecorationFactors(word_delim="\t"),
                                  DecorationFactors(qa_delim=" :: ")],
                         ids=["word_delim_tab", "qa_delim_double_colon"])
def test_mock_oracle_answers_decorated_prompts(deco):
    queries = build_corpus(list(T), [D.EASY], None, 1, master_seed=0)
    records = run_evaluation(queries, [S.ZERO_SHOT, S.K_SHOT], list(F),
                             Gateway(MockBackend(mode="oracle")), deco=deco)
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
        CompletionRequest("m", "p", temperature=-1)
    with pytest.raises(ValueError):
        Gateway(CountingBackend()).run_batch([], max_in_flight=0)
