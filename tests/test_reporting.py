"""Aggregation with token cost, sensitivity metrics, and CSV output."""

import csv
import functools
import itertools
import math
import operator
import random

import pytest

from graphbench.errors import EmptyGroup, InsufficientCoverage
from graphbench.reporting import aggregate, rows_to_csv, sensitivity


def make_records(score_fn, models=("m1", "m2"), schemes=("0-shot", "CoT"),
                 formats=("edge_list", "gmol"), families=("erm", "bag"),
                 per_cell=4, task="cycle", difficulty="easy"):
    records = []
    for model, scheme, fmt, family in itertools.product(models, schemes, formats, families):
        for i in range(per_cell):
            records.append({
                "query_id": f"q{i}", "model": model, "prompt_scheme": scheme,
                "serialization": fmt, "graph_type": family, "task": task,
                "difficulty": difficulty,
                "score": score_fn(model, scheme, fmt, family, i),
                "tokens_out": 100,
            })
    return records


def test_oracle_run_every_pivot_is_one():
    records = make_records(lambda *a: 1)
    for dim in ("model", "prompt_scheme", "serialization", "graph_type"):
        for row in aggregate(records, [dim]):
            assert row["mean"] == 1.0 and row["ci95"] == 0.0


def test_single_combination_margin_zero():
    records = make_records(lambda *a: 1, models=("m1",), schemes=("0-shot",),
                           formats=("edge_list",), families=("erm",))
    rows = aggregate(records, ["model"])
    assert rows[0]["combinations"] == 1 and rows[0]["ci95"] == 0.0


def test_ci_unit_is_combination_mean():
    # one combo scores all 1, the other all 0 -> mean 0.5 regardless of
    # per-combo record counts
    def score(model, scheme, fmt, family, i):
        return 1 if scheme == "0-shot" else 0
    records = make_records(score, models=("m1",), formats=("edge_list",),
                           families=("erm",))
    rows = aggregate(records, ["model"])
    assert rows[0]["mean"] == 0.5
    assert rows[0]["combinations"] == 2
    expected_margin = 1.96 * (0.5 * math.sqrt(2)) / math.sqrt(2)
    assert math.isclose(rows[0]["ci95"], expected_margin)


def test_bernoulli_records_near_expected():
    rng = random.Random(1)
    records = make_records(lambda *a: int(rng.random() >= 0.1), per_cell=80)
    overall = aggregate(records, [])
    n = len(records)
    sigma = math.sqrt(0.9 * 0.1 / n)
    assert abs(overall[0]["mean"] - 0.9) <= 3 * sigma


def test_aggregation_permutation_invariant():
    rng = random.Random(2)
    records = make_records(lambda *a: rng.randint(0, 1))
    rows = aggregate(records, ["model"])
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert aggregate(shuffled, ["model"]) == rows


def test_collapsed_group_matches_overall_mean():
    rng = random.Random(3)
    records = make_records(lambda *a: rng.randint(0, 1))
    # With no grouping, every factor combination is one unit; the design is
    # balanced, so the mean of the 16 combination means is the record mean.
    (row,) = aggregate(records, [])
    assert (row["combinations"], row["records"]) == (16, len(records))
    assert math.isclose(row["mean"], sum(r["score"] for r in records) / len(records))


def left_to_right_sum(values):
    """The values added from 0, left to right, as the fold adds them (a
    plain `sum()` of floats compensates its rounding since Python 3.12)."""
    return functools.reduce(operator.add, values, 0)


def test_one_pass_folds_match_sums_over_the_records():
    """Both pivots read a one-shot stream, and their running sums equal, to
    the bit, the records' float scores added left to right, in record
    order."""
    rng = random.Random(4)
    records = make_records(lambda *a: rng.random(), per_cell=7)
    rows = aggregate(iter(records), ["model"])
    for row in rows:
        recs = [r for r in records if r["model"] == row["model"]]
        combos = {}
        for r in recs:
            key = (r["prompt_scheme"], r["serialization"], r["graph_type"])
            combos.setdefault(key, []).append(float(r["score"]))
        means = [left_to_right_sum(v) / len(v) for v in combos.values()]
        assert row["mean"] == sum(means) / len(means)
        assert row["records"] == len(recs) and row["combinations"] == len(means)
    for row in sensitivity(iter(records), "cycle", "easy"):
        scores = [float(r["score"]) for r in records if r["graph_type"] == row["graph_type"]]
        assert row["mean"] == left_to_right_sum(scores) / len(scores)


def test_empty_group():
    with pytest.raises(EmptyGroup):
        aggregate([], ["model"])


def test_sensitivity_identical_accuracy_is_robust():
    records = make_records(lambda *a: 1)
    rows = sensitivity(records, "cycle", "easy")
    assert all(r["s_p"] == 0 and r["s_f"] == 0 for r in rows)
    assert all(r["quadrant"] == "Robust" for r in rows)


def test_sensitivity_scheme_only_variation():
    # accuracy depends only on the prompt scheme: S_p > 0, S_f = 0
    def score(model, scheme, fmt, family, i):
        return 1 if scheme == "CoT" else 0
    records = make_records(score, families=("erm", "bag", "sf"))
    rows = sensitivity(records, "cycle", "easy")
    assert all(r["s_f"] == 0 for r in rows)
    assert all(r["s_p"] == 0.5 for r in rows)


def test_sensitivity_hand_computed_values():
    # one family: cell accuracies scheme x format = [[1, 0], [1, 1]]
    cells = {("0-shot", "edge_list"): 1, ("0-shot", "gmol"): 0,
             ("CoT", "edge_list"): 1, ("CoT", "gmol"): 1}
    records = []
    for (scheme, fmt), s in cells.items():
        for family in ("erm", "bag"):
            records.append({"model": "m", "prompt_scheme": scheme, "serialization": fmt,
                            "graph_type": family, "task": "cycle", "difficulty": "easy",
                            "score": s, "tokens_out": None})
    rows = sensitivity(records, "cycle", "easy")
    # S_p: std across schemes per format -> [0, 0.5], mean 0.25
    # S_f: std across formats per scheme -> [0.5, 0], mean 0.25
    for r in rows:
        assert math.isclose(r["s_p"], 0.25)
        assert math.isclose(r["s_f"], 0.25)


def test_sensitivity_requires_coverage():
    records = make_records(lambda *a: 1, schemes=("0-shot",))
    with pytest.raises(InsufficientCoverage):
        sensitivity(records, "cycle", "easy")
    with pytest.raises(EmptyGroup):
        sensitivity(records, "diameter", "easy")


def test_aggregate_mean_tokens_out_when_every_record_reports():
    records = make_records(lambda *a: 1)
    rows = aggregate(records, ["model"])
    assert [list(row) for row in rows] == [
        ["model", "mean", "ci95", "combinations", "records", "mean_tokens_out"]] * 2
    assert [row["mean_tokens_out"] for row in rows] == [100.0, 100.0]


def test_aggregate_mean_tokens_out_when_some_or_none_report():
    records = make_records(lambda *a: 1, per_cell=2)
    for r in records:
        r["tokens_out"] = None
    rows = aggregate(records, ["model"])
    assert [(row["records"], row["mean_tokens_out"]) for row in rows] == [(16, None)] * 2
    records[0]["tokens_out"] = 40
    records[1]["tokens_out"] = 60
    (row,) = aggregate(records, [])
    assert (row["records"], row["mean_tokens_out"]) == (len(records), 50.0)


def test_rows_to_csv():
    rows = [{"a": 1, "b": 0.5, "c": None}, {"a": 2, "b": 0.25, "c": 7.0}]
    assert rows_to_csv(rows) == "a,b,c\n1,0.5000,\n2,0.2500,7.0000\n"
    assert rows_to_csv([]) == ""


def test_rows_to_csv_quotes_cells_that_hold_a_delimiter():
    rows = [{"model": "a,b", "note": 'say "hi"', "mean": 1.0}]
    text = rows_to_csv(rows)
    assert text == 'model,note,mean\n"a,b","say ""hi""",1.0000\n'
    assert list(csv.reader(text.splitlines())) == [["model", "note", "mean"],
                                                    ["a,b", 'say "hi"', "1.0000"]]
