"""CLI contracts: subcommand behavior, determinism, and exit codes."""

import json

import pytest

from graphbench.cli import _live_reward_fn, build_parser, main
from graphbench.corpus import read_jsonl, write_jsonl
from graphbench.gateway import CACHE_FILE, Gateway, MockBackend
from graphbench.prompts import CASE_FUNCTIONS
from conftest import cache_entries, combos, make_planted_landscape
from graphbench.rlopt import FactorSpace, default_space


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
    write_jsonl(records, bad)
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
    assert run_cli("report", "--results", str(r), "--queries", str(q),
                   "--pivot", "scheme") == 0
    printed = capsys.readouterr().out
    assert "prompt_scheme" in printed and "1.0000" in printed


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


def test_live_reward_applies_decoration_factors(tmp_path):
    # Each case option changes every prompt, so no combo may be served from
    # another combo's cache entries.
    args = build_parser().parse_args(["rlopt", "--task", "cycle", "--samples", "5"])
    space = FactorSpace((("case", CASE_FUNCTIONS),))
    gateway = Gateway(MockBackend(mode="oracle"), cache_dir=tmp_path)
    reward = _live_reward_fn(args, space, gateway)
    assert [reward(combo) for combo in combos(space)] == [1.0] * 4
    assert (gateway.network_calls, gateway.cache_hits) == (20, 0)


def test_live_reward_rejects_unknown_factor(tmp_path, capsys):
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps([{"name": "temperature", "options": ["0.1", "0.9"]}]))
    assert run_cli("rlopt", "--factors-file", str(factors), "--samples", "1",
                   "--episodes", "1") == 1
    assert "temperature" in capsys.readouterr().err


def test_rlopt_order_rejects_unknown_factor(capsys):
    assert run_cli("rlopt", "--order", "prompt_scheme,nope", "--samples", "1",
                   "--episodes", "1") == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("acc_max", ["-1", "0"])
def test_rlopt_rejects_nonpositive_acc_max(tmp_path, capsys, acc_max):
    space = default_space()
    table, _ = make_planted_landscape(space, seed=5)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"|".join(k): v for k, v in table.items()}))
    assert run_cli("rlopt", "--reward", f"table:{table_path}", "--episodes", "2",
                   "--acc-max", acc_max) == 1
    assert capsys.readouterr().err.startswith("error: acc_max must be positive")


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
