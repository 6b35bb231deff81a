"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced; each must pass its
output checks and emit exactly the metrics BENCHMARK.json names, with the
units it names. The metric tables in the code must agree with
BENCHMARK.json on unit and direction.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def test_spec_matches_code():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in SPEC["end_to_end"])


def test_layer_names_match_program():
    sys.path.insert(0, str(ROOT / "src"))
    from graphbench.generators import DifficultySplit
    from graphbench.tasks import TaskKind

    assert tracing.TASKS == tuple(t.value for t in TaskKind)
    assert tracing.SPLITS == tuple(s.value for s in DifficultySplit)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    meta = json.loads(meta_line)["meta"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_rev", "seed", "params", "trace"):
        assert key in meta
    assert meta["trace"] is (trace == "1")
    if trace == "1":
        assert "trace_overhead_s" in meta


def test_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "eval-cold", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_metrics_cover_spec():
    names = {name for name, _, _ in tracing.PER_LAYER} - set(tracing.RUN_LEVEL)
    assert set(tracing.layer_metrics([])) == names


def test_failed_record_fails_the_check():
    records = [{"query_id": f"q{i}", "prompt_scheme": "0-shot", "serialization": "edge_list",
                "extracted": None, "score": i % 5 != 0} for i in range(100)]
    run.checks.eval_fingerprint(records, 100)
    records[3]["error"] = "backend raised"
    with pytest.raises(run.checks.CheckFailed):
        run.checks.eval_fingerprint(records, 100)


def test_self_times_subtract_children():
    spans = [tracing.Span(0, "a", 0.0, 10.0, None, None, None, True),
             tracing.Span(1, "b", 1.0, 4.0, 0, None, None, True),
             tracing.Span(2, "b", 3.0, 6.0, 0, None, None, True)]
    assert tracing.self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)["status"] == "better"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)["status"] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)["status"] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["status"] == "unresolved"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "higher", 0.1)["status"] == "better"
