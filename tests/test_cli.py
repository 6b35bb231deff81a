"""CLI contracts: subcommand behavior, determinism, and exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import graphbench
from graphbench import cli, pipeline, prompts
from graphbench.cli import main
from graphbench.corpus import build_corpus, read_jsonl, write_jsonl
from graphbench.errors import TransportError
from graphbench.gateway import CACHE_DIR_ENV, CACHE_FILE, Gateway, MockBackend
from graphbench.generators import DifficultySplit, GraphFamily
from graphbench.prompts import CASE_FUNCTIONS, PromptScheme, Renderer
from conftest import cache_entries, combos, make_planted_landscape
from graphbench.rlopt import FactorSpace, default_space
from graphbench.serialize import SerializationFormat
from graphbench.tasks import TaskKind


def run_cli(*argv) -> int:
    return main(list(argv))


def test_generate_count_contract(tmp_path):
    out = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", "cycle", "--difficulty", "easy",
                   "--count", "10", "--seed", "7", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 10


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run_cli("generate", "--task", "bfs_order,triangle", "--difficulty",
                       "easy,medium", "--count", "6", "--seed", "3",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_selfcheck_clean_and_corrupted(tmp_path, capsys):
    out = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "triangle", "--difficulty", "easy",
            "--count", "8", "--seed", "1", "--out", str(out))
    assert run_cli("selfcheck", str(out)) == 0

    records = list(read_jsonl(out))
    records[3]["ground_truth"] += 2
    bad = tmp_path / "bad.jsonl"
    with open(bad, "w", encoding="utf-8") as fh:
        write_jsonl(records, fh)
    capsys.readouterr()
    assert run_cli("selfcheck", str(bad)) == 1
    printed = capsys.readouterr().out
    assert records[3]["id"] in printed


def test_run_and_report(tmp_path, capsys):
    q = tmp_path / "q.jsonl"
    r = tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle,diameter", "--difficulty", "easy",
            "--count", "6", "--seed", "2", "--out", str(q))
    assert run_cli("run", "--queries", str(q), "--schemes", "0-shot,0-CoT",
                   "--formats", "adjacency_list,edge_list", "--backend",
                   "mock-oracle", "--out", str(r)) == 0
    records = list(read_jsonl(r))
    assert len(records) == 12 * 4
    assert all(rec["score"] == 1 for rec in records)
    capsys.readouterr()
    assert run_cli("report", "--results", str(r), "--pivot", "scheme") == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == \
        "prompt_scheme,mean,ci95,combinations,records,mean_tokens_out"
    assert "1.0000" in printed


def test_report_csv_quotes_a_model_name_with_a_comma(tmp_path, capsys):
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "4", "--seed", "0", "--out", str(q))
    run_cli("run", "--queries", str(q), "--model", "a,b", "--out", str(r))
    capsys.readouterr()
    assert run_cli("report", "--results", str(r), "--pivot", "model") == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["model", "mean", "ci95", "combinations", "records", "mean_tokens_out"]
    tokens = [rec["tokens_out"] for rec in read_jsonl(r)]
    assert rows == [["a,b", "1.0000", "0.0000", "4", "4",
                     f"{sum(tokens) / len(tokens):.4f}"]]


def test_report_rejects_a_file_that_is_not_results(tmp_path, capsys):
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "2", "--seed", "0", "--out", str(q))
    capsys.readouterr()
    assert run_cli("report", "--results", str(q)) == 1
    assert capsys.readouterr().err.startswith(f"error: {q}: record 1 has no 'score'")
    run_cli("run", "--queries", str(q), "--out", str(r))
    records = list(read_jsonl(r))
    del records[1]["score"]
    with open(r, "w", encoding="utf-8") as fh:
        write_jsonl(records, fh)
    capsys.readouterr()
    assert run_cli("report", "--results", str(r)) == 1
    assert capsys.readouterr().err.startswith(f"error: {r}: record 2 has no 'score'")
    r.write_text(r.read_text().splitlines()[0] + "\nnull\n")
    assert run_cli("report", "--results", str(r)) == 1
    assert capsys.readouterr().err.startswith(f"error: {r}: record 2 has no 'score'")


def test_render_and_run_compose_the_same_cells(tmp_path, monkeypatch):
    """`render` writes, and `run` sends, the same (query, scheme, format,
    prompt) cells in the same order."""
    q, p, r = tmp_path / "q.jsonl", tmp_path / "p.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle,shortest_path", "--difficulty", "easy",
            "--count", "3", "--seed", "4", "--out", str(q))
    cells = ["--schemes", "0-shot,k-shot,CoT", "--formats", "adjacency_list,edge_list,gmal"]
    assert run_cli("render", "--queries", str(q), *cells, "--out", str(p)) == 0
    rendered = [(row["query_id"], row["prompt_scheme"], row["serialization"],
                 row["prompt_text"]) for row in read_jsonl(p)]
    sent, run_batch = [], Gateway.run_batch

    def recording_run_batch(self, reqs, max_in_flight=4):
        sent.extend(reqs)
        return run_batch(self, reqs, max_in_flight)

    monkeypatch.setattr(Gateway, "run_batch", recording_run_batch)
    assert run_cli("run", "--queries", str(q), *cells, "--out", str(r)) == 0
    records = list(read_jsonl(r))
    assert len(rendered) == len(sent) == len(records) == 6 * 3 * 3
    assert [(rec["query_id"], rec["prompt_scheme"], rec["serialization"], req.prompt)
            for rec, req in zip(records, sent)] == rendered
    assert [req.query.id for req in sent] == [cell[0] for cell in rendered]


def test_run_uses_cache(tmp_path, capsys):
    q = tmp_path / "q.jsonl"
    r = tmp_path / "r.jsonl"
    cache = tmp_path / "cache"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "4", "--seed", "4", "--out", str(q))
    run_cli("run", "--queries", str(q), "--backend", "mock-oracle",
            "--cache-dir", str(cache), "--out", str(r))
    first = (tmp_path / "r.jsonl").read_bytes()
    capsys.readouterr()
    run_cli("run", "--queries", str(q), "--backend", "mock-oracle",
            "--cache-dir", str(cache), "--out", str(r))
    printed = capsys.readouterr().out
    assert "network calls 0" in printed
    assert (tmp_path / "r.jsonl").read_bytes() == first


def test_run_caches_to_env_dir_without_flag(tmp_path, monkeypatch, capsys):
    q, cache = tmp_path / "q.jsonl", tmp_path / "cache"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "2", "--seed", "0", "--out", str(q))
    monkeypatch.setenv("GRAPHBENCH_CACHE_DIR", str(cache))
    assert run_cli("run", "--queries", str(q), "--out", str(tmp_path / "r1.jsonl")) == 0
    # `run` closes the cache, which folds SQLite's side files into the one file.
    assert [p.name for p in cache.iterdir()] == [CACHE_FILE]
    assert cache_entries(cache) == 2
    assert run_cli("run", "--queries", str(q), "--out", str(tmp_path / "r2.jsonl")) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("network calls 0, cache hits 2)")


def test_run_summary_counts_failed_records(tmp_path, monkeypatch, capsys):
    # A failed request scores 0, so the summary must show the outage too.
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "4", "--seed", "0", "--out", str(q))
    failing = {rec["id"] for rec in list(read_jsonl(q))[:3:2]}

    class FailsSome(MockBackend):
        def complete(self, req):
            if req.query.id in failing:
                raise TransportError("connection refused")
            return super().complete(req)

    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(FailsSome()))
    assert run_cli("run", "--queries", str(q), "--formats", "adjacency_list,edge_list",
                   "--out", str(r)) == 0
    records = list(read_jsonl(r))
    assert sum("error" in rec for rec in records) == 4
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "(accuracy 0.5000, errors 4, network calls 8, cache hits 0)")


# Every scheme x format: 63 cells per query, the most one query can have.
EVERY_CELL = ("--schemes", ",".join(s.value for s in PromptScheme),
              "--formats", ",".join(f.value for f in SerializationFormat))
POLY_TASKS = "connectivity,cycle,diameter,bfs_order,shortest_path,triangle"


def make_corpus(path, count: int) -> list[str]:
    """`count` easy queries of each polynomial task at seed 11; their ids."""
    assert run_cli("generate", "--task", POLY_TASKS, "--difficulty", "easy",
                   "--count", str(count), "--seed", "11", "--out", str(path)) == 0
    return [rec["id"] for rec in read_jsonl(path)]


class CountingMock(MockBackend):
    def __init__(self):
        super().__init__()
        self.sent = []

    def complete(self, req):
        self.sent.append(req)
        return super().complete(req)


# sha256 of `generate --per-cell --count 2 --seed 11` over every family a
# task draws from: the six polynomial tasks at every split, and the two
# NP-hard tasks at easy and medium. Recorded from the generators that drew
# the bipartite families apart from the Erdos-Renyi ones.
EVERY_FAMILY_GOLDENS = {
    ("connectivity,cycle,diameter,bfs_order,shortest_path,triangle", "easy,medium,hard"):
        "d3801856e4a44c1ea7a1de5a0e6f97b163f6cc22906df6a2f8e3d268cab84079",
    ("hamiltonian,max_cut", "easy,medium"):
        "f89ffc4f877e692f0df4fac67402d0d02637db8473d7c8cced621db042fbe3f2",
}


@pytest.mark.parametrize("tasks, splits", sorted(EVERY_FAMILY_GOLDENS))
def test_generate_matches_golden_for_every_family_and_split(tmp_path, tasks, splits):
    out = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", tasks, "--difficulty", splits, "--per-cell",
                   "--count", "2", "--seed", "11", "--out", str(out)) == 0
    assert {rec["graph_type"] for rec in read_jsonl(out)} == {f.value for f in GraphFamily}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVERY_FAMILY_GOLDENS[(tasks, splits)]


# The corpus of make_corpus(count=4) and the sha256 of `run`'s results on
# it: mock-bernoulli at error rate 0.2 and seed 3, every cell, at
# --max-in-flight 2, where its 24 queries make three chunks. Recorded from
# the `run` that evaluated the whole corpus before it wrote a line.
RUN_GOLDEN_CORPUS = "7d1147fd29f86a27fda6a5f3f68fcfea3e5fb181f3604f3ed222f83095c9a3c0"
RUN_GOLDEN = "8fd0f3626a355ff9c41fdcd29c86739ba03be5bbf0075b3ea5642f3907574a0e"


def test_run_matches_golden_cold_and_warm(tmp_path, capsys):
    q, cache = tmp_path / "q.jsonl", tmp_path / "cache"
    make_corpus(q, 4)
    assert hashlib.sha256(q.read_bytes()).hexdigest() == RUN_GOLDEN_CORPUS
    summaries = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.jsonl"
        capsys.readouterr()
        assert run_cli("run", "--queries", str(q), *EVERY_CELL, "--backend", "mock-bernoulli",
                       "--error-rate", "0.2", "--seed", "3", "--max-in-flight", "2",
                       "--cache-dir", str(cache), "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_GOLDEN
        summaries.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert summaries == [
        "wrote 1512 results to <out> (accuracy 0.7923, errors 0, network calls 1512, "
        "cache hits 0)\n",
        "wrote 1512 results to <out> (accuracy 0.7923, errors 0, network calls 0, "
        "cache hits 1512)\n"]


def test_run_on_an_empty_corpus(tmp_path, capsys):
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    q.write_text("")
    r.write_text("stale\n")
    assert run_cli("run", "--queries", str(q), "--out", str(r)) == 0
    assert r.read_text() == ""
    assert capsys.readouterr().out == (f"wrote 0 results to {r} (accuracy 0.0000, errors 0, "
                                       f"network calls 0, cache hits 0)\n")


def test_run_sends_nothing_when_out_cannot_be_written(tmp_path, monkeypatch, capsys):
    q = tmp_path / "q.jsonl"
    make_corpus(q, 1)
    backend = CountingMock()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    out = tmp_path / "missing" / "r.jsonl"
    assert run_cli("run", "--queries", str(q), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
    assert backend.sent == []


@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_rejects_max_in_flight_below_one_before_opening_out(tmp_path, monkeypatch,
                                                                capsys, value):
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    make_corpus(q, 1)
    r.write_text("kept\n")
    backend = CountingMock()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    assert run_cli("run", "--queries", str(q), "--max-in-flight", value, "--out", str(r)) == 1
    assert capsys.readouterr().err == f"error: --max-in-flight must be >= 1, got {value}\n"
    assert r.read_text() == "kept\n"
    assert backend.sent == []


def test_an_interrupted_run_keeps_whole_queries_and_a_rerun_sends_the_rest(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    q, full, cut, cache = (tmp_path / "q.jsonl", tmp_path / "full.jsonl",
                           tmp_path / "cut.jsonl", tmp_path / "cache")
    ids = make_corpus(q, 2)
    per_chunk = -(-cli._CHUNK_CELLS_PER_WORKER // 63)
    assert 2 * per_chunk < len(ids)
    argv = ("run", "--queries", str(q), *EVERY_CELL, "--backend", "mock-bernoulli",
            "--max-in-flight", "1")
    assert run_cli(*argv, "--out", str(full)) == 0
    full_lines = full.read_text().splitlines()
    stop_at = ids[2 * per_chunk]  # the first query of the third chunk

    class Interrupted(MockBackend):
        def complete(self, req):
            if req.query.id == stop_at:
                raise KeyboardInterrupt
            return super().complete(req)

    backend = Interrupted(error_rate=0.2)
    monkeypatch.setattr(cli, "_make_gateway",
                        lambda args, config: Gateway(backend, cache_dir=cache))
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv, "--out", str(cut))
    lines = cut.read_text().splitlines()
    assert all(isinstance(json.loads(line), dict) for line in lines)
    assert len(lines) == 2 * per_chunk * 63
    assert lines == full_lines[:len(lines)]

    monkeypatch.undo()
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    cached = cache_entries(cache)
    assert cached >= len(lines)
    capsys.readouterr()
    assert run_cli(*argv, "--cache-dir", str(cache), "--out", str(cut)) == 0
    assert cut.read_bytes() == full.read_bytes()
    assert capsys.readouterr().out.endswith(
        f"network calls {len(full_lines) - cached}, cache hits {cached})\n")


def test_an_interrupt_while_scoring_keeps_the_queries_already_scored(
        tmp_path, monkeypatch, capsys):
    """`run` writes each query's records as soon as its last one is scored,
    so an interrupt while a chunk's second query is scored leaves the
    earlier chunks and that chunk's first query in `--out`: whole queries,
    line for line what a full run writes. The chunk's answers are already
    cached, so a rerun sends nothing and completes the file."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    q, full, cut, cache = (tmp_path / "q.jsonl", tmp_path / "full.jsonl",
                           tmp_path / "cut.jsonl", tmp_path / "cache")
    ids = make_corpus(q, 2)
    per_chunk = -(-cli._CHUNK_CELLS_PER_WORKER // 63)
    assert 2 * per_chunk + 1 < len(ids)
    argv = ("run", "--queries", str(q), *EVERY_CELL, "--backend", "mock-bernoulli",
            "--max-in-flight", "1", "--cache-dir", str(cache))
    assert run_cli(*argv[:-2], "--out", str(full)) == 0
    full_lines = full.read_text().splitlines()
    stop_at = ids[2 * per_chunk + 1]  # the second query of the third chunk
    score_response = pipeline.score_response

    def interrupted(query, text):
        if query.id == stop_at:
            raise KeyboardInterrupt
        return score_response(query, text)

    monkeypatch.setattr(pipeline, "score_response", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv, "--out", str(cut))
    lines = cut.read_text().splitlines()
    assert len(lines) % 63 == 0
    assert len(lines) == (2 * per_chunk + 1) * 63
    assert lines == full_lines[:len(lines)]

    monkeypatch.undo()
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(cut)) == 0
    assert cut.read_bytes() == full.read_bytes()
    assert capsys.readouterr().out.endswith(
        f"network calls 0, cache hits {cache_entries(cache)})\n")


@pytest.mark.parametrize("command, use, kept", [
    ("run", "evaluated", 0), ("run", "evaluated", 1), ("run", "evaluated", 3),
    ("render", "composed", 0), ("render", "composed", 1), ("render", "composed", 3),
], ids=["none", "fewer", "more", "render-none", "render-fewer", "render-more"])
def test_a_corpus_that_changes_between_the_two_reads_is_an_error(tmp_path, monkeypatch,
                                                                  capsys, command, use, kept):
    """`run` and `render` check and count their corpus, then read it again
    to evaluate or compose it. A file rewritten in between with another
    number of records, or a pipe, which yields none the second time, exits
    1 with an `error:` line naming the file."""
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--count", "2", "--out", str(q))
    lines = q.read_text().splitlines(keepends=True)
    load, reads = cli.corpus_mod.load_queries, []

    def rewritten_after_the_check(path):
        reads.append(path)
        if len(reads) == 2:
            q.write_text("".join((lines * 2)[:kept]))
        return load(path)

    monkeypatch.setattr(cli.corpus_mod, "load_queries", rewritten_after_the_check)
    capsys.readouterr()
    assert run_cli(command, "--queries", str(q), "--out", str(r)) == 1
    assert capsys.readouterr() == ("", f"error: {q}: the corpus held 2 records when checked "
                                       f"but {kept} when {use}; `{command}` reads it twice, so "
                                       f"it must be a file that does not change while "
                                       f"`{command}` reads it\n")


@pytest.mark.parametrize("command", ["run", "render"])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_out_that_is_the_corpus_is_refused_and_the_corpus_kept(tmp_path, monkeypatch, capsys,
                                                               command, spelling):
    """Opening `--out` would empty the corpus before its second read, so
    `run` and `render` refuse an `--out` that is the `--queries` file,
    however it is spelled, before writing or sending anything."""
    monkeypatch.chdir(tmp_path)
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "cycle", "--count", "3", "--out", str(q))
    corpus = q.read_bytes()
    out = {"same": str(q), "dotted": "./q.jsonl", "symlink": str(tmp_path / "link.jsonl")}
    (tmp_path / "link.jsonl").symlink_to(q)
    backend = CountingMock()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    capsys.readouterr()
    assert run_cli(command, "--queries", str(q), "--out", out[spelling]) == 1
    assert capsys.readouterr() == ("", f"error: --out {out[spelling]} is the corpus --queries "
                                       f"{q} names; `{command}` would empty it before "
                                       f"reading it\n")
    assert q.read_bytes() == corpus
    assert backend.sent == []


# Commands whose output flag names one of their own input files: the
# argument list ("{d}" is the directory of the inputs), the input's file
# name, and the refusal. The inputs are `q.jsonl`, a corpus; `r.jsonl`, its
# results; `c.json`, an empty config; `f.json`, a one-factor space; and
# `t.json`, that space's reward table.
OVERWRITES = {
    "report-results": (["report", "--results", "{d}/r.jsonl", "--csv-out", "{d}/r.jsonl"],
                       "r.jsonl", "--csv-out {d}/r.jsonl is the results --results "
                                  "{d}/r.jsonl names; `report` would write over it"),
    "baseline-corpus": (["baseline", "--queries", "{d}/q.jsonl", "--csv-out", "{d}/q.jsonl"],
                        "q.jsonl", "--csv-out {d}/q.jsonl is the corpus --queries "
                                   "{d}/q.jsonl names; `baseline` would write over it"),
    "run-config": (["run", "--queries", "{d}/q.jsonl", "--config", "{d}/c.json",
                    "--out", "{d}/c.json"],
                   "c.json", "--out {d}/c.json is the config --config {d}/c.json names; "
                             "`run` would write over it"),
    "rlopt-factors": (["rlopt", "--factors-file", "{d}/f.json", "--reward", "table:{d}/t.json",
                       "--episodes", "3", "--episodes-csv", "{d}/f.json"],
                      "f.json", "--episodes-csv {d}/f.json is the factors --factors-file "
                                "{d}/f.json names; `rlopt` would write over it"),
    "rlopt-table": (["rlopt", "--factors-file", "{d}/f.json", "--reward", "table:{d}/t.json",
                     "--episodes", "3", "--episodes-csv", "{d}/t.json"],
                    "t.json", "--episodes-csv {d}/t.json is the reward table --reward "
                              "table:{d}/t.json names; `rlopt` would write over it"),
    "rlopt-config": (["rlopt", "--reward", "live", "--config", "{d}/c.json", "--samples", "2",
                      "--episodes", "3", "--episodes-csv", "{d}/c.json"],
                     "c.json", "--episodes-csv {d}/c.json is the config --config "
                               "{d}/c.json names; `rlopt` would write over it"),
}


@pytest.mark.parametrize("case", OVERWRITES)
def test_no_command_writes_over_a_file_it_reads(tmp_path, monkeypatch, capsys, case):
    """An output that is one of the command's inputs, however the command
    reads it, is refused with exit 1 before it is opened: the input keeps
    its bytes and nothing is sent."""
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--count", "3", "--out", str(q))
    run_cli("run", "--queries", str(q), "--out", str(r))
    (tmp_path / "c.json").write_text("{}")
    (tmp_path / "f.json").write_text(json.dumps([{"name": "prompt_scheme",
                                                  "options": ["0-shot", "k-shot"]}]))
    (tmp_path / "t.json").write_text(json.dumps({"0-shot": 0.4, "k-shot": 0.6}))
    argv, name, message = OVERWRITES[case]
    kept = (tmp_path / name).read_bytes()
    backend = CountingMock()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    capsys.readouterr()
    assert run_cli(*(a.format(d=tmp_path) for a in argv)) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(d=tmp_path)}\n")
    assert (tmp_path / name).read_bytes() == kept
    assert backend.sent == []


def test_run_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    """`run` holds the prompts and records of one chunk at a time, so a
    corpus four times larger peaks at about the same traced memory."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    make_corpus(small, 2)
    make_corpus(large, 8)
    argv = ("run", *EVERY_CELL, "--backend", "mock-bernoulli", "--max-in-flight", "1",
            "--out", str(tmp_path / "r.jsonl"))
    # A first run builds what every run shares (exemplar tables, imports).
    assert run_cli(*argv, "--queries", str(small)) == 0
    peaks = []
    for corpus in (small, large):
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--queries", str(corpus)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.5, peaks


def test_run_memory_does_not_grow_with_the_corpus_it_reads(tmp_path, monkeypatch):
    """`run` reads its corpus a chunk at a time and writes each query's
    records as they are scored, so a corpus twenty chunks long, read
    inside the traced region, peaks at about the traced memory of its
    first chunk alone."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", POLY_TASKS, "--difficulty", "medium", "--count", "30",
            "--seed", "2", "--out", str(q))
    # One query of each task in turn, so the first chunk builds every
    # task's heads, and the largest graphs first, so no later chunk is
    # larger than the first.
    by_task = {}
    for line in sorted(q.read_text().splitlines(keepends=True), key=len, reverse=True):
        by_task.setdefault(json.loads(line)["task"], []).append(line)
    lines = [line for row in zip(*by_task.values()) for line in row]
    per_chunk = -(-2 * cli._CHUNK_CELLS_PER_WORKER // 63)
    assert len(lines) == 20 * per_chunk == 180
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text("".join(lines[:per_chunk]))
    large.write_text("".join(lines))
    argv = ("run", *EVERY_CELL, "--backend", "mock-bernoulli", "--max-in-flight", "2",
            "--out", str(tmp_path / "r.jsonl"), "--queries")
    # A first run builds what every run shares (exemplar tables, imports).
    assert run_cli(*argv, str(small)) == 0
    peaks = []
    for corpus in (small, large):
        tracemalloc.start()
        try:
            assert run_cli(*argv, str(corpus)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.1, peaks


def test_render_memory_does_not_grow_with_the_corpus_it_reads(tmp_path):
    """`render` reads its corpus one query at a time and writes each prompt
    as it is composed, so a corpus twenty times longer, read inside the
    traced region, peaks at about the traced memory of its first queries
    alone."""
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "shortest_path", "--difficulty", "medium", "--count", "60",
            "--seed", "2", "--out", str(q))
    # The largest graphs first, so no later query is larger than the first.
    lines = sorted(q.read_text().splitlines(keepends=True), key=len, reverse=True)
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text("".join(lines[:3]))
    large.write_text("".join(lines))
    argv = ("render", *EVERY_CELL, "--out", str(tmp_path / "p.jsonl"), "--queries")
    # A first render imports what every render shares.
    assert run_cli(*argv, str(small)) == 0
    peaks = []
    for corpus in (small, large):
        tracemalloc.start()
        try:
            assert run_cli(*argv, str(corpus)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.1, peaks


def test_baseline_output(tmp_path, capsys):
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "bfs_order", "--difficulty", "easy",
            "--count", "5", "--seed", "5", "--out", str(q))
    capsys.readouterr()
    assert run_cli("baseline", "--queries", str(q)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["task,difficulty,queries,analytic", "bfs_order,easy,5,0.0000"]
    # The baselines are exact, so --seed (still accepted) changes nothing.
    assert run_cli("baseline", "--queries", str(q), "--seed", "0") == 0
    seed0 = capsys.readouterr().out
    assert run_cli("baseline", "--queries", str(q), "--seed", "1") == 0
    assert capsys.readouterr().out == seed0


def test_rlopt_table_mode(tmp_path, capsys):
    space = default_space()
    table, planted = make_planted_landscape(space, seed=5)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"|".join(k): v for k, v in table.items()}))
    csv_path = tmp_path / "eps.csv"
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--seed", "5",
                   "--episodes", "40", "--acc-max", "1.0",
                   "--episodes-csv", str(csv_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["episodes"] == 40
    assert 0 < payload["cost"] <= 40 / 315
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "episode,prompt_scheme,serialization,model,reward,epsilon"
    assert len(lines) == 41


def live_reward(space, gateway, samples=5):
    """`pipeline.live_reward_fn` with `rlopt`'s default settings."""
    return pipeline.live_reward_fn(space, gateway, task=TaskKind.CYCLE,
                                   split=DifficultySplit.EASY, samples=samples, seed=0,
                                   model="mock", max_in_flight=4)


def test_live_reward_applies_decoration_factors(tmp_path):
    # Each case option changes every prompt, so no combo may be served from
    # another combo's cache entries.
    space = FactorSpace((("case", CASE_FUNCTIONS),))
    gateway = Gateway(MockBackend(), cache_dir=tmp_path)
    reward = live_reward(space, gateway)
    assert [reward(combo) for combo in combos(space)] == [1.0] * 4
    assert (gateway.network_calls, gateway.cache_hits) == (20, 0)


def test_live_reward_builds_and_sends_nothing_until_the_first_reward(monkeypatch):
    """Making the reward checks the space and nothing more, so a caller can
    check its other settings in between; the corpus is built once, at the
    first reward, and shared by every later one."""
    built, backend = [], CountingMock()
    build_corpus = cli.corpus_mod.build_corpus
    monkeypatch.setattr(cli.corpus_mod, "build_corpus",
                        lambda *a, **k: built.append(a) or build_corpus(*a, **k))
    reward = live_reward(default_space(), Gateway(backend), samples=3)
    assert (built, backend.sent) == ([], [])
    reward(("0-shot", "edge_list", "mistral"))
    assert (len(built), len(backend.sent)) == (1, 3)
    reward(("k-shot", "gmol", "phi-4"))
    assert (len(built), len(backend.sent)) == (1, 6)
    assert [req.query.id for req in backend.sent[:3]] == [req.query.id for req in backend.sent[3:]]


@pytest.mark.parametrize("setting, message", [
    ({"samples": 0}, "samples must be >= 1, got 0"),
    ({"samples": -2}, "samples must be >= 1, got -2"),
    ({"max_in_flight": 0}, "max_in_flight must be >= 1, got 0"),
])
def test_live_reward_refuses_a_setting_below_one_when_it_is_made(monkeypatch, setting, message):
    """With no samples every combination would score 0, and with no
    requests in flight the first reward would fail; either is refused when
    the reward is made, before a corpus is built or a request sent."""
    built, backend = [], CountingMock()
    build_corpus = cli.corpus_mod.build_corpus
    monkeypatch.setattr(cli.corpus_mod, "build_corpus",
                        lambda *a, **k: built.append(a) or build_corpus(*a, **k))
    settings = {"task": TaskKind.CYCLE, "split": DifficultySplit.EASY, "samples": 5, "seed": 0,
                "model": "mock", "max_in_flight": 4, **setting}
    with pytest.raises(ValueError) as err:
        pipeline.live_reward_fn(default_space(), Gateway(backend), **settings)
    assert str(err.value) == message
    assert (built, backend.sent) == ([], [])


def test_live_reward_refuses_failed_requests(monkeypatch, capsys):
    # An outage must stop the search, not teach it that every combo scores 0.
    class Down:
        identity = "down"

        def complete(self, req):
            raise TransportError("connection refused")

    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(Down()))
    assert run_cli("rlopt", "--samples", "2", "--episodes", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: live reward for combo ")
    assert "2 of 2 requests failed (first: TransportError: connection refused)" in err


def test_live_reward_rejects_unknown_factor(tmp_path, capsys):
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps([{"name": "temperature", "options": ["0.1", "0.9"]}]))
    assert run_cli("rlopt", "--factors-file", str(factors), "--samples", "1",
                   "--episodes", "1") == 1
    assert "temperature" in capsys.readouterr().err


@pytest.mark.parametrize("name, options, message", [
    ("prompt_scheme", ["0-shot", ""], "prompt_scheme option takes one prompt scheme, got ''"),
    ("serialization", ["edge_list", "adjacency_list,edge_list"],
     "serialization option takes one format, got 'adjacency_list,edge_list'"),
    ("serialization", ["yaml", "edge_list", "adjacency_list", "gmol"], "unknown format 'yaml'"),
    ("case", ["shout", "upper"], "case function 'shout' not in pool"),
    ("prompt_scheme", ["0-shot", "0-SHOT", "k-shot"],
     "prompt_scheme options '0-shot' and '0-SHOT' name the same setting"),
    ("serialization", ["gmol", "edge_list", " GMOL"],
     "serialization options 'gmol' and ' GMOL' name the same setting"),
], ids=["empty-scheme", "two-formats", "unknown-format", "unknown-case", "one-scheme-twice",
        "one-format-twice"])
def test_live_reward_rejects_an_unusable_option_before_any_request(
        tmp_path, monkeypatch, capsys, name, options, message):
    # An option the evaluation cannot apply must stop the search before it
    # starts, not run as another option or fail midway through.
    sent = []

    class Recording(MockBackend):
        def complete(self, req):
            sent.append(req.prompt)
            return super().complete(req)

    monkeypatch.setattr(cli, "_make_gateway",
                        lambda args, config: Gateway(Recording()))
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps([{"name": name, "options": options}]))
    assert run_cli("rlopt", "--factors-file", str(factors), "--samples", "2",
                   "--episodes", "8") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sent == []


FACTOR_NEEDS = 'needs a string "name" and a list of strings "options"'


@pytest.mark.parametrize("spec, message", [
    ([{"name": "model", "options": ["m"]}, {"name": "serialization"}],
     f'factor {{"name": "serialization"}} {FACTOR_NEEDS}'),
    ([{"name": "model", "options": "m"}],
     f'factor {{"name": "model", "options": "m"}} {FACTOR_NEEDS}'),
    ([{"name": 3, "options": ["m"]}], f'factor {{"name": 3, "options": ["m"]}} {FACTOR_NEEDS}'),
    ([{"name": "model", "options": [1, 2]}],
     f'factor {{"name": "model", "options": [1, 2]}} {FACTOR_NEEDS}'),
    (["model"], f'factor "model" {FACTOR_NEEDS}'),
    ({"name": "model", "options": ["m"]}, "expected a JSON list of factors"),
])
def test_rlopt_rejects_a_malformed_factors_file(tmp_path, capsys, spec, message):
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps(spec))
    assert run_cli("rlopt", "--factors-file", str(factors), "--samples", "1",
                   "--episodes", "1") == 1
    assert capsys.readouterr().err == f"error: {factors}: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ([], "the factor space has no factors"),
    ([{"name": "model", "options": ["a", "b"]}, {"name": "model", "options": ["c", "d"]}],
     "factor(s) model declared more than once"),
    ([{"name": "prompt_scheme", "options": ["0-shot", "0-shot", "k-shot"]},
      {"name": "model", "options": ["m"]}],
     "factor 'prompt_scheme' lists option(s) 0-shot more than once"),
], ids=["empty", "repeated-name", "repeated-option"])
def test_rlopt_rejects_a_space_with_no_factor_or_a_repeated_name(tmp_path, monkeypatch,
                                                                 capsys, spec, message):
    """Neither space can be searched as declared: an empty one has no combo,
    and a repeated name would apply only one of its factors."""
    backend = Recording()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps(spec))
    assert run_cli("rlopt", "--factors-file", str(factors), "--samples", "1",
                   "--episodes", "1") == 1
    assert capsys.readouterr().err == f"error: {factors}: {message}\n"
    assert backend.calls == 0


def test_rlopt_rejects_an_option_that_contains_the_combination_separator(tmp_path, capsys):
    """`|` separates the options of a combination in a reward table's keys,
    so with a table reward an option holding it could never be looked up:
    the search is refused before the episodes CSV is opened."""
    factors, table = tmp_path / "factors.json", tmp_path / "table.json"
    factors.write_text(json.dumps([{"name": "a", "options": ["x|y", "z"]}]))
    table.write_text(json.dumps({"x|y": 1.0, "z": 0.0}))
    episodes = tmp_path / "old.csv"
    episodes.write_text("kept\n")
    assert run_cli("rlopt", "--factors-file", str(factors), "--reward", f"table:{table}",
                   "--episodes", "3", "--episodes-csv", str(episodes)) == 1
    assert capsys.readouterr() == ("", f"error: {factors}: factor 'a' option 'x|y' contains "
                                       f"'|', which separates the options in a reward table's "
                                       f"keys\n")
    assert episodes.read_text() == "kept\n"


@pytest.mark.parametrize("flag", ["--factors-file", "--reward"])
def test_rlopt_names_a_file_that_is_not_json(tmp_path, monkeypatch, capsys, flag):
    backend = Recording()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    path = tmp_path / "settings.json"
    path.write_text("not json")
    value = str(path) if flag == "--factors-file" else f"table:{path}"
    assert run_cli("rlopt", flag, value, "--samples", "1", "--episodes", "1") == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: Expecting value: line 1 column 1 (char 0)\n")
    assert backend.calls == 0


@pytest.mark.parametrize("command", ["run", "rlopt"])
@pytest.mark.parametrize("text, message", [
    ("[1]", "expected a JSON object of settings"),
    ("{cache_dir: 1}", "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"),
], ids=["not-an-object", "not-json"])
def test_a_config_that_is_not_a_json_object_is_an_error_naming_the_file(
        tmp_path, capsys, command, text, message):
    q, config = tmp_path / "q.jsonl", tmp_path / "config.json"
    assert run_cli("generate", "--task", "cycle", "--count", "1", "--out", str(q)) == 0
    config.write_text(text)
    argv = {"run": ["run", "--queries", str(q), "--out", str(tmp_path / "r.jsonl")],
            "rlopt": ["rlopt", "--samples", "1", "--episodes", "1"]}[command]
    capsys.readouterr()
    assert run_cli(*argv, "--config", str(config)) == 1
    assert capsys.readouterr() == ("", f"error: {config}: {message}\n")


class Recording:
    """A backend that records each request and answers none of them."""

    identity = "recording"

    def __init__(self):
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        raise TransportError("not expected")


@pytest.mark.parametrize("flag, value, message", [
    ("--episodes", "0", "error: episodes must be >= 1, got 0"),
    ("--episodes", "-3", "error: episodes must be >= 1, got -3"),
    ("--learning-rate", "nan", "error: learning rate must be finite and positive, got nan"),
    ("--learning-rate", "inf", "error: learning rate must be finite and positive, got inf"),
    ("--learning-rate", "0", "error: learning rate must be finite and positive, got 0.0"),
    ("--learning-rate", "-0.1", "error: learning rate must be finite and positive, got -0.1"),
    ("--samples", "0", "error: --samples must be >= 1, got 0"),
    ("--samples", "-1", "error: --samples must be >= 1, got -1"),
    ("--epsilon-min", "nan", "error: epsilon_min must be in [0, 1], got nan"),
    ("--epsilon-min", "-0.1", "error: epsilon_min must be in [0, 1], got -0.1"),
    ("--epsilon-min", "2", "error: epsilon_min must be in [0, 1], got 2.0"),
], ids=["no-episodes", "negative-episodes", "nan-rate", "inf-rate", "zero-rate",
        "negative-rate", "no-samples", "negative-samples", "nan-epsilon-min",
        "negative-epsilon-min", "epsilon-min-above-one"])
def test_rlopt_rejects_a_setting_a_search_cannot_run_with(monkeypatch, capsys, flag, value,
                                                          message):
    """No episodes, a learning rate that is not finite and positive, or no
    graphs per combo exit 1 with an `error:` line before any request."""
    backend = Recording()
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    assert run_cli("rlopt", "--backend", "mock-bernoulli", "--samples", "2",
                   "--episodes", "3", flag, value) == 1
    assert capsys.readouterr().err == message + "\n"
    assert backend.calls == 0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_rlopt_rejects_max_in_flight_below_one_before_touching_the_csv(tmp_path, monkeypatch,
                                                                       capsys, value):
    """A live search checks --max-in-flight with its other settings: an
    existing episodes CSV is left as it was, no corpus is built and
    nothing is sent."""
    episodes = tmp_path / "old.csv"
    episodes.write_text("kept\n")
    backend, built = Recording(), []
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    monkeypatch.setattr(cli.corpus_mod, "build_corpus",
                        lambda *a, **k: built.append(a) or build_corpus(*a, **k))
    assert run_cli("rlopt", "--backend", "mock-bernoulli", "--samples", "2", "--episodes", "3",
                   "--max-in-flight", value, "--episodes-csv", str(episodes)) == 1
    assert capsys.readouterr().err == f"error: --max-in-flight must be >= 1, got {value}\n"
    assert episodes.read_text() == "kept\n"
    assert built == [] and backend.calls == 0


# sha256 of `rlopt --reward live --backend mock-bernoulli` stdout for
# shortest_path/medium, 5 samples and 300 episodes, recorded from the
# implementation that re-encoded every prefix on each step. It covers the
# whole live path: corpus, prompts, mock answers, scoring and the search.
LIVE_SEARCH_GOLDENS = {
    (0, "adam"): "d517d09a142d7952e5d35f5f0fbf32054480f33e0cf900926a29f6db095ec242",
    (1, "adam"): "9c75ad4cfd0b644a6b917a62dea369043dd3e36fb5720389253c0c13118526ec",
    (0, "nlms"): "5cf8d1a295aa2f2af14012a7a96b69a85d970bc37be7827a00ab402763a9e3b7",
    (1, "nlms"): "8ddb5e5790afe38d7e7d5d44b815551086f19cf330fa3296dfb55b7d2c833600",
}


@pytest.mark.parametrize("seed, optimizer", sorted(LIVE_SEARCH_GOLDENS))
def test_live_search_matches_golden_stdout(monkeypatch, capsys, seed, optimizer):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    extra = ["--optimizer", "nlms", "--input-skip"] if optimizer == "nlms" else []
    capsys.readouterr()
    assert run_cli("rlopt", "--reward", "live", "--backend", "mock-bernoulli",
                   "--task", "shortest_path", "--difficulty", "medium", "--samples", "5",
                   "--episodes", "300", "--seed", str(seed), *extra) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIVE_SEARCH_GOLDENS[(seed, optimizer)]


def test_rlopt_order_rejects_unknown_factor(capsys):
    assert run_cli("rlopt", "--order", "prompt_scheme,nope", "--samples", "1",
                   "--episodes", "1") == 1
    assert "error:" in capsys.readouterr().err


def test_rlopt_order_takes_a_declared_name_before_an_alias(tmp_path, capsys):
    # `format` is an alias of `serialization` only where no factor is
    # declared under that name.
    factors, table, episodes = (tmp_path / "factors.json", tmp_path / "table.json",
                                tmp_path / "episodes.csv")
    factors.write_text(json.dumps([{"name": "format", "options": ["a", "b"]},
                                   {"name": "model", "options": ["m"]}]))
    table.write_text(json.dumps({"m|a": 0.25, "m|b": 0.75}))
    assert run_cli("rlopt", "--factors-file", str(factors), "--reward", f"table:{table}",
                   "--order", "model,format", "--episodes", "20",
                   "--episodes-csv", str(episodes)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["best_combo"] == ["m", "b"]
    assert episodes.read_text().splitlines()[0] == "episode,model,format,reward,epsilon"


def test_rlopt_order_must_name_every_factor(capsys):
    # Leaving `model` out would silently search a smaller space.
    assert run_cli("rlopt", "--order", "prompt_scheme,serialization", "--samples", "1",
                   "--episodes", "1") == 1
    assert "model" in capsys.readouterr().err


def test_cache_never_serves_another_backends_answers(tmp_path):
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "6", "--seed", "4", "--out", str(q))
    common = ("run", "--queries", str(q), "--formats", "adjacency_list,edge_list")
    shared = tmp_path / "shared"
    run_cli(*common, "--backend", "mock-oracle", "--cache-dir", str(shared),
            "--out", str(tmp_path / "oracle.jsonl"))
    bernoulli = ("--backend", "mock-bernoulli", "--error-rate", "0.5")
    run_cli(*common, *bernoulli, "--cache-dir", str(shared), "--out", str(tmp_path / "a.jsonl"))
    run_cli(*common, *bernoulli, "--cache-dir", str(tmp_path / "fresh"),
            "--out", str(tmp_path / "b.jsonl"))
    assert any(rec["score"] == 0 for rec in read_jsonl(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_report_sensitivity_errors_are_validation_errors(tmp_path, capsys):
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "2", "--seed", "0", "--out", str(q))
    run_cli("run", "--queries", str(q), "--formats", "adjacency_list,edge_list",
            "--out", str(r))
    capsys.readouterr()
    # No --task or no --split: rejected before any record is read.
    assert run_cli("report", "--results", str(r), "--pivot", "sensitivity") == 1
    assert capsys.readouterr().err == "error: --pivot sensitivity needs --task and --split\n"
    assert run_cli("report", "--results", str(r), "--pivot", "sensitivity",
                   "--task", "cycle") == 1
    assert capsys.readouterr().err == "error: --pivot sensitivity needs --task and --split\n"
    # One scheme only (InsufficientCoverage).
    assert run_cli("report", "--results", str(r), "--pivot", "sensitivity",
                   "--task", "cycle", "--split", "easy") == 1
    assert capsys.readouterr().err.startswith("error: ")


# A field value that stands for deleting the field.
MISSING = object()


@pytest.mark.parametrize("pivot, field, value, message", [
    ("sensitivity", "prompt_scheme", MISSING, "prompt_scheme is missing"),
    ("scheme", "score", None, "score null is not a number"),
    ("scheme", "score", "x", 'score "x" is not a number'),
    ("scheme", "prompt_scheme", ["0-shot"], 'prompt_scheme ["0-shot"] is not a string'),
    ("model", "tokens_out", "7", 'tokens_out "7" is not a number'),
    ("sensitivity", "tokens_out", "7", 'tokens_out "7" is not a number'),
], ids=["no-scheme", "null-score", "string-score", "list-scheme", "string-tokens",
        "sensitivity-string-tokens"])
def test_report_names_the_file_and_record_it_cannot_fold_in(tmp_path, capsys, pivot, field,
                                                            value, message):
    """A results record whose field `report` reads is missing or of the
    wrong kind exits 1 with one `error:` line naming the file and the
    record, and prints no table."""
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "2", "--seed", "0", "--out", str(q))
    run_cli("run", "--queries", str(q), "--schemes", "0-shot,0-CoT",
            "--formats", "adjacency_list,edge_list", "--out", str(r))
    records = list(read_jsonl(r))
    if value is MISSING:
        del records[2][field]
    else:
        records[2][field] = value
    with open(r, "w", encoding="utf-8") as fh:
        write_jsonl(records, fh)
    capsys.readouterr()
    argv = ["report", "--results", str(r), "--pivot", pivot]
    if pivot == "sensitivity":
        argv += ["--task", "cycle", "--split", "easy"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {r}: record 3: {message}\n")


def test_report_task_and_split_follow_the_token_rule(tmp_path, capsys):
    """`report --task`/`--split` match values in any case, as every other
    enum flag does, and an unknown value exits 1 listing the valid ones."""
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    run_cli("generate", "--task", "cycle,diameter", "--difficulty", "easy,medium",
            "--count", "3", "--seed", "0", "--out", str(q))
    run_cli("run", "--queries", str(q), "--schemes", "0-shot,0-CoT",
            "--formats", "adjacency_list,edge_list", "--out", str(r))
    cycle_easy = [rec for rec in read_jsonl(r)
                  if (rec["task"], rec["difficulty"]) == ("cycle", "easy")]
    capsys.readouterr()
    assert run_cli("report", "--results", str(r), "--pivot", "scheme",
                   "--task", "cycle", "--split", "easy") == 0
    expected = capsys.readouterr().out
    assert run_cli("report", "--results", str(r), "--pivot", "scheme",
                   "--task", "Cycle", "--split", "EASY") == 0
    out = capsys.readouterr().out
    assert out == expected
    rows = list(csv.DictReader(out.splitlines()))
    assert sum(int(row["records"]) for row in rows) == len(cycle_easy) == 3 * 4
    assert run_cli("report", "--results", str(r), "--task", "cycl") == 1
    assert capsys.readouterr() == (
        "", "error: unknown task 'cycl'; expected one of "
            f"{', '.join(t.value for t in TaskKind)}\n")


def test_report_memory_does_not_grow_with_the_records(tmp_path):
    """`report` folds each record into its pivot as it reads it, so ten
    times the records peak at about the same traced memory."""
    q, small, large = tmp_path / "q.jsonl", tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    run_cli("generate", "--task", ",".join(t.value for t in TaskKind), "--difficulty", "easy",
            "--count", "7", "--seed", "2", "--out", str(q))
    run_cli("run", "--queries", str(q), *EVERY_CELL, "--backend", "mock-bernoulli",
            "--out", str(small))
    large.write_text(small.read_text() * 10)
    assert len(small.read_text().splitlines()) == 3528
    argv = ("report", "--pivot", "scheme", "--results")
    # A first report imports what every report shares.
    assert run_cli(*argv, str(small)) == 0
    peaks = []
    for results in (small, large):
        tracemalloc.start()
        try:
            assert run_cli(*argv, str(results)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 1.2, peaks


@pytest.mark.parametrize("command", ["run", "render"])
def test_graph_texts_follow_the_batch_not_the_corpus(tmp_path, monkeypatch, command):
    """`run` composes its corpus a chunk at a time and `render` a query at a
    time, and the renderer drops the texts of the graphs outside the batch.
    So four times the queries hold no more graph texts at once, and peak at
    about the same traced memory beyond the loaded corpus."""
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", POLY_TASKS, "--difficulty", "medium", "--count", "8",
            "--seed", "2", "--out", str(q))
    # One query of each task in turn, so the first chunk of either corpus
    # builds every task's heads, and the largest graphs first, so the large
    # corpus adds queries, not a larger batch.
    by_task = {}
    for line in sorted(q.read_text().splitlines(keepends=True), key=len, reverse=True):
        by_task.setdefault(json.loads(line)["task"], []).append(line)
    lines = [line for row in zip(*by_task.values()) for line in row]
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    small.write_text("".join(lines[:12]))
    large.write_text("".join(lines))
    assert len(lines) == 48
    # Both corpora are loaded, with the adjacency each graph caches, before
    # tracing starts.
    loaded = {str(path): list(cli.corpus_mod.load_queries(path)) for path in (small, large)}
    for query in loaded[str(large)] + loaded[str(small)]:
        query.graph.adjacency
    monkeypatch.setattr(cli.corpus_mod, "load_queries", loaded.__getitem__)
    held = []

    class Holding(Renderer):
        def text(self, g, fmt):
            text = super().text(g, fmt)
            held[-1] = max(held[-1], len(self._texts))
            return text

    monkeypatch.setattr(cli, "Renderer", Holding)
    monkeypatch.setattr(pipeline, "Renderer", Holding)
    argv = (command, *EVERY_CELL, "--out", str(tmp_path / "out.jsonl"),
            *(["--max-in-flight", "1"] if command == "run" else []), "--queries")
    # A first pass imports what every pass shares.
    held.append(0)
    assert run_cli(*argv, str(small)) == 0
    held, peaks = [], []
    for queries in (small, large):
        held.append(0)
        tracemalloc.start()
        try:
            assert run_cli(*argv, str(queries)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert held[0] == held[1], held
    assert peaks[1] / peaks[0] <= 1.2, peaks


def test_a_live_search_renders_each_graph_text_once(monkeypatch, capsys):
    """Every batch of a live search composes the same --samples queries,
    so their texts survive from one combination to the next: each (sample
    graph, format) is serialized once, and each bank graph once per format
    when its head is built."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    calls, serialize = [], prompts.serialize
    monkeypatch.setattr(prompts, "serialize",
                        lambda g, fmt: calls.append((g, fmt)) or serialize(g, fmt))
    assert run_cli("rlopt", "--reward", "live", "--backend", "mock-bernoulli",
                   "--task", "shortest_path", "--difficulty", "medium", "--samples", "5",
                   "--episodes", "300", "--seed", "0") == 0
    capsys.readouterr()
    samples = {q.graph for q in build_corpus([TaskKind.SHORTEST_PATH],
                                             [DifficultySplit.MEDIUM], None, 5, master_seed=0)}
    banks = {ex.graph for scheme in PromptScheme if scheme.shot_bearing
             for ex in prompts.build_exemplars(TaskKind.SHORTEST_PATH, scheme)}
    formats = {fmt for _, fmt in calls}
    assert len(formats) > 1 and len(calls) == len(set(calls))
    assert {(g, fmt) for g, fmt in calls if g in samples} == {(g, fmt) for g in samples
                                                              for fmt in formats}
    assert {g for g, _ in calls} - samples <= banks
    assert {g for g, _ in calls} & banks


@pytest.mark.parametrize("flag, value, message", [
    ("--task", "nope", "error: unknown task 'nope'; expected one of "),
    ("--difficulty", "bogus", "error: unknown difficulty 'bogus'; expected one of "),
    ("--task", "cycle,diameter", "error: --task takes one task, got 'cycle,diameter'"),
    ("--difficulty", ",", "error: --difficulty takes one difficulty, got ','"),
], ids=["unknown-task", "unknown-difficulty", "two-tasks", "no-difficulty"])
def test_rlopt_validates_task_and_difficulty(tmp_path, capsys, flag, value, message):
    """Table mode builds no corpus, so only the flag parser can reject an
    unknown task or difficulty before the search starts."""
    table, _ = make_planted_landscape(default_space(), seed=5)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"|".join(k): v for k, v in table.items()}))
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--episodes", "2",
                   flag, value) == 1
    assert capsys.readouterr().err.startswith(message)


def test_rlopt_table_without_a_visited_combo_is_an_error(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"0-shot|edge_list|mock": 0.5}))
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--episodes", "2",
                   "--seed", "5") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reward table has no entry for ")
    assert len(err.removeprefix("error: reward table has no entry for ").split("|")) == 3


@pytest.mark.parametrize("value", ["NaN", "-Infinity", "Infinity", '"high"', "null"])
def test_rlopt_table_rejects_a_reward_that_is_not_a_finite_number(tmp_path, capsys, value):
    # Every entry is bad: a search on them would find no best combination.
    keys = ["|".join(combo) for combo in combos(default_space())]
    table_path = tmp_path / "table.json"
    table_path.write_text("{" + ", ".join(f"{json.dumps(k)}: {value}" for k in keys) + "}")
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--episodes", "2") == 1
    assert capsys.readouterr().err == (f"error: {table_path}: the reward of {keys[0]!r} is "
                                       f"{value}, not a finite number\n")


@pytest.mark.parametrize("acc_max", ["-1", "0"])
def test_rlopt_rejects_nonpositive_acc_max(tmp_path, capsys, acc_max):
    space = default_space()
    table, _ = make_planted_landscape(space, seed=5)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"|".join(k): v for k, v in table.items()}))
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--episodes", "2",
                   "--acc-max", acc_max) == 1
    assert capsys.readouterr().err.startswith("error: acc_max must be positive")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_generate_rejects_a_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", "cycle", "--count", count, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("tasks", ["diameter", "connectivity,diameter"])
def test_generate_rejects_a_task_that_draws_from_none_of_the_graph_types(tmp_path, capsys,
                                                                        tasks):
    """A task left with no family to draw from is an error, not an empty
    or partial corpus."""
    out = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", tasks, "--graph-types", "baf",
                   "--out", str(out)) == 1
    assert capsys.readouterr() == ("", "error: task diameter draws from none of the requested "
                                       "graph types; it draws from bag, erm, erp, sf\n")
    assert not out.exists()


@pytest.mark.parametrize("task, graph_types, unused", [
    ("cycle", "baf,erm", "baf"),
    ("connectivity,hamiltonian", "sf,bag,erm", "sf"),
    ("diameter", "berp,bag,berm", "berm, berp"),
])
def test_generate_rejects_a_graph_type_that_no_task_draws_from(tmp_path, capsys, task,
                                                               graph_types, unused):
    """A requested family left out of the corpus is an error, not a silent
    corpus of the other families."""
    out = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", task, "--graph-types", graph_types,
                   "--count", "4", "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: no requested task draws from graph type(s) "
                                       f"{unused}\n")
    assert not out.exists()


@pytest.mark.parametrize("acc_max, message", [
    ("0", "acc_max must be positive, got 0.0"),
    ("-0.5", "acc_max must be positive, got -0.5"),
    ("nan", "acc_max must be a finite number, got nan"),
    ("inf", "acc_max must be a finite number, got inf"),
])
def test_rlopt_checks_acc_max_before_it_builds_or_sends_anything(monkeypatch, capsys,
                                                                 acc_max, message):
    built, sent = [], []
    build_corpus, complete = cli.corpus_mod.build_corpus, MockBackend.complete
    monkeypatch.setattr(cli.corpus_mod, "build_corpus",
                        lambda *a, **k: built.append(a) or build_corpus(*a, **k))
    monkeypatch.setattr(MockBackend, "complete",
                        lambda self, req: sent.append(req) or complete(self, req))
    assert run_cli("rlopt", "--reward", "live", "--samples", "2", "--episodes", "3",
                   "--acc-max", acc_max) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert (built, sent) == ([], [])


def test_rlopt_checks_the_episodes_csv_path_before_it_builds_or_sends_anything(
        tmp_path, monkeypatch, capsys):
    built, backend = [], CountingMock()
    build_corpus = cli.corpus_mod.build_corpus
    monkeypatch.setattr(cli.corpus_mod, "build_corpus",
                        lambda *a, **k: built.append(a) or build_corpus(*a, **k))
    monkeypatch.setattr(cli, "_make_gateway", lambda args, config: Gateway(backend))
    episodes = tmp_path / "missing" / "episodes.csv"
    capsys.readouterr()
    assert run_cli("rlopt", "--reward", "live", "--samples", "2", "--episodes", "3",
                   "--episodes-csv", str(episodes)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 2] No such file or directory")
    assert err.count("\n") == 1 and str(episodes) in err
    assert (built, backend.sent) == ([], [])


@pytest.mark.parametrize("command", ["run", "rlopt"])
@pytest.mark.parametrize("rate", ["1.5", "-0.5", "nan"])
def test_mock_error_rate_outside_zero_to_one_is_rejected(tmp_path, monkeypatch, capsys,
                                                         command, rate):
    q, out, cache = tmp_path / "q.jsonl", tmp_path / "r.jsonl", tmp_path / "cache"
    make_corpus(q, 1)
    sent, complete = [], MockBackend.complete
    monkeypatch.setattr(MockBackend, "complete",
                        lambda self, req: sent.append(req) or complete(self, req))
    argv = {"run": ("run", "--queries", str(q), "--out", str(out)),
            "rlopt": ("rlopt", "--reward", "live", "--samples", "2", "--episodes", "3")}
    capsys.readouterr()
    assert run_cli(*argv[command], "--backend", "mock-bernoulli", "--error-rate", rate,
                   "--cache-dir", str(cache)) == 1
    assert capsys.readouterr() == (
        "", f"error: the mock's error rate must be in [0, 1], got {float(rate)!r}\n")
    assert sent == [] and not out.exists() and not cache.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["generate"])  # missing required flags
    assert exc.value.code == 2


def test_unknown_scheme_is_validation_error(tmp_path):
    q = tmp_path / "q.jsonl"
    run_cli("generate", "--task", "cycle", "--difficulty", "easy",
            "--count", "2", "--seed", "0", "--out", str(q))
    assert run_cli("run", "--queries", str(q), "--schemes", "nope",
                   "--out", str(tmp_path / "r.jsonl")) == 1


@pytest.mark.parametrize("command, flag, enum_cls, kind, valid", [
    ("generate", "--task", TaskKind, "task", "CYCLE"),
    ("generate", "--difficulty", DifficultySplit, "difficulty", "Easy"),
    ("generate", "--graph-types", GraphFamily, "graph type", "ERM"),
    ("render", "--schemes", PromptScheme, "prompt scheme", "0-cot"),
    ("render", "--formats", SerializationFormat, "format", "Edge_List"),
    ("run", "--schemes", PromptScheme, "prompt scheme", "K-SHOT"),
    ("run", "--formats", SerializationFormat, "format", "gmol"),
])
def test_comma_list_flags(tmp_path, capsys, command, flag, enum_cls, kind, valid):
    q = tmp_path / "q.jsonl"
    argv = {"generate": ["generate", "--task", "cycle", "--count", "1", "--out", str(q)],
            "render": ["render", "--queries", str(q), "--out", str(tmp_path / "p.jsonl")],
            "run": ["run", "--queries", str(q), "--out", str(tmp_path / "r.jsonl")]}
    assert run_cli(*argv["generate"]) == 0
    # Values match without regard to case, and empty tokens are skipped.
    assert run_cli(*argv[command], flag, f"{valid}, ,") == 0
    capsys.readouterr()
    # A value that names nothing is an error, and no file is written.
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert run_cli(*argv[command], flag, " , ") == 1
    assert capsys.readouterr().err == f"error: {flag} names no {kind}, got ' , '\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files
    assert run_cli(*argv[command], flag, f"{valid},nope") == 1
    expected = ", ".join(m.value for m in enum_cls)
    assert capsys.readouterr().err == f"error: unknown {kind} 'nope'; expected one of {expected}\n"
    # So is a value named twice, which would write each item or cell twice.
    twice = f"{valid},{valid.swapcase()}"
    member = next(m.value for m in enum_cls if m.value.lower() == valid.lower())
    assert run_cli(*argv[command], flag, twice) == 1
    assert capsys.readouterr().err == f"error: {flag} names {kind} {member!r} twice, in {twice!r}\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


# A corpus line that `load_queries` cannot read, and the end of its error.
_GOOD_RECORD = {"id": "x", "task": "connectivity", "difficulty": "easy", "graph_type": "erm",
                "n": 3, "edges": [[0, 1]], "params": {"u": 0, "v": 2},
                "ground_truth": False, "seed": 0}
MALFORMED_RECORDS = {
    "missing-field": ('{"id": "x", "task": "cycle"}', "missing field 'difficulty'"),
    "not-an-object": ("[1, 2]", "expected a JSON object, got [1, 2]"),
    "bad-value": (json.dumps({**_GOOD_RECORD, "params": {"u": "q", "v": 2}}),
                  "invalid literal for int() with base 10: 'q'"),
    "missing-param": (json.dumps({**_GOOD_RECORD, "params": {"u": 0}}),
                      "connectivity takes params u, v, got u"),
    "param-not-a-node": (json.dumps({**_GOOD_RECORD, "params": {"u": 0, "v": 3}}),
                         "param v = 3 is not a node of the 3-node graph"),
}


@pytest.mark.parametrize("case", MALFORMED_RECORDS)
@pytest.mark.parametrize("command", ["run", "render", "baseline", "selfcheck"])
def test_a_malformed_corpus_record_is_an_error_naming_the_file_and_record(
        tmp_path, capsys, command, case):
    """Every command that reads a corpus exits 1 with one `error:` line
    naming the file and the record, not a traceback, and writes nothing."""
    q = tmp_path / "q.jsonl"
    assert run_cli("generate", "--task", "cycle", "--count", "2", "--out", str(q)) == 0
    line, message = MALFORMED_RECORDS[case]
    with open(q, "a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")
    out = tmp_path / "out.jsonl"
    argv = {"run": ["run", "--queries", str(q), "--out", str(out)],
            "render": ["render", "--queries", str(q), "--out", str(out)],
            "baseline": ["baseline", "--queries", str(q)],
            "selfcheck": ["selfcheck", str(q)]}[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {q}: record 3: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["run", "render", "baseline", "selfcheck", "report"])
def test_a_line_that_is_not_json_is_an_error_naming_the_file_and_record(tmp_path, capsys,
                                                                         command):
    """A corpus or results line that is not JSON exits 1 with one `error:`
    line naming the file, the record and the column on its line."""
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
    bad.write_text('{"id": 1\n')
    argv = {"run": ["run", "--queries", str(bad), "--out", str(out)],
            "render": ["render", "--queries", str(bad), "--out", str(out)],
            "baseline": ["baseline", "--queries", str(bad)],
            "selfcheck": ["selfcheck", str(bad)],
            "report": ["report", "--results", str(bad)]}[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == (
        "", f"error: {bad}: record 1: not JSON: Expecting ',' delimiter at column 9\n")
    assert not out.exists()


def test_python_m_graphbench_runs_the_cli(tmp_path):
    """`python -m graphbench` is the `graphbench` command: `--help` exits 0,
    and a `generate` writes its corpus without importing `requests`."""
    src = str(Path(graphbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("GRAPHBENCH_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "graphbench", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: graphbench")
    q = tmp_path / "q.jsonl"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "graphbench", "generate",
                           "--task", "cycle", "--count", "2", "--out", str(q)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 2 queries to {q}\n"
    assert len(q.read_text().splitlines()) == 2
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "graphbench.cli" in imported
    assert {name for name in imported if name.split(".")[0] in ("requests", "urllib3")} == set()
