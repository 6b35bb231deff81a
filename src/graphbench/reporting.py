"""Aggregation of evaluation records into pivot tables, each row with its
accuracy, a confidence interval and its mean output tokens, and
prompt/format sensitivity metrics.

Records are plain dicts (one JSONL row each). The confidence-interval unit
is the factor combination, not the raw query: per-group accuracies are first
computed per combination of the remaining factors, then averaged.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from typing import Any, Iterable, Mapping, Sequence

from .errors import EmptyGroup, InsufficientCoverage

# The adjustable factor dimensions a record can carry.
FACTOR_DIMS = ("model", "prompt_scheme", "serialization", "graph_type")


def _group_key(rec: Mapping[str, Any], dims: Sequence[str]) -> tuple:
    return tuple(rec.get(d) for d in dims)


def aggregate(records: Sequence[Mapping[str, Any]],
              group_by: Sequence[str]) -> list[dict[str, Any]]:
    """Mean accuracy with a 95% CI margin, and mean output tokens, per group.

    Within each group, records are bucketed by the remaining factor
    dimensions; the margin is 1.96 * stdev(combination means) / sqrt(#combos).
    `mean_tokens_out` is the plain mean of `tokens_out` over the group's
    records that report it, or None when none does.
    """
    if not records:
        raise EmptyGroup("no records to aggregate")
    group_by = list(group_by)
    combo_dims = [d for d in FACTOR_DIMS if d not in group_by]
    groups: dict[tuple, list[Mapping[str, Any]]] = {}
    for rec in records:
        groups.setdefault(_group_key(rec, group_by), []).append(rec)

    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        recs = groups[key]
        combos: dict[tuple, list[float]] = {}
        for r in recs:
            combos.setdefault(_group_key(r, combo_dims), []).append(float(r["score"]))
        values = [sum(v) / len(v) for v in combos.values()]
        mean = sum(values) / len(values)
        margin = 0.0
        if len(values) > 1:
            margin = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        tokens = [r["tokens_out"] for r in recs if r.get("tokens_out") is not None]
        row = dict(zip(group_by, key))
        row.update({"mean": mean, "ci95": margin, "combinations": len(values),
                    "records": len(recs),
                    "mean_tokens_out": sum(tokens) / len(tokens) if tokens else None})
        rows.append(row)
    return rows


def _std(values: Iterable[float]) -> float:
    vals = list(values)
    mean = sum(vals) / len(vals)
    return math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))


def sensitivity(records: Sequence[Mapping[str, Any]], task: str,
                difficulty: str) -> list[dict[str, Any]]:
    """Per-graph-type prompt sensitivity S_p and format sensitivity S_f.

    S_p: for each serialization format, the standard deviation of accuracy
    across prompt schemes, averaged over formats. S_f is the symmetric
    quantity. Quadrants come from median splits of each axis across the
    graph types present.
    """
    picked = [r for r in records
              if r.get("task") == task and r.get("difficulty") == difficulty]
    if not picked:
        raise EmptyGroup(f"no records for {task}/{difficulty}")
    schemes = {r["prompt_scheme"] for r in picked}
    formats = {r["serialization"] for r in picked}
    if len(schemes) < 2 or len(formats) < 2:
        raise InsufficientCoverage(
            f"need >=2 schemes and >=2 formats, have {len(schemes)}/{len(formats)}")

    rows = []
    for family in sorted({r["graph_type"] for r in picked}):
        fam = [r for r in picked if r["graph_type"] == family]
        acc: dict[tuple, list[float]] = {}
        for r in fam:
            acc.setdefault((r["prompt_scheme"], r["serialization"]), []).append(float(r["score"]))
        cell = {k: sum(v) / len(v) for k, v in acc.items()}
        by_fmt = []
        for f in sorted({k[1] for k in cell}):
            col = [cell[k] for k in cell if k[1] == f]
            if len(col) > 1:
                by_fmt.append(_std(col))
        by_scheme = []
        for s in sorted({k[0] for k in cell}):
            row_vals = [cell[k] for k in cell if k[0] == s]
            if len(row_vals) > 1:
                by_scheme.append(_std(row_vals))
        s_p = sum(by_fmt) / len(by_fmt) if by_fmt else 0.0
        s_f = sum(by_scheme) / len(by_scheme) if by_scheme else 0.0
        mean = sum(float(r["score"]) for r in fam) / len(fam)
        rows.append({"graph_type": family, "s_p": s_p, "s_f": s_f, "mean": mean})

    med_p = statistics.median([r["s_p"] for r in rows])
    med_f = statistics.median([r["s_f"] for r in rows])
    for r in rows:
        high_p = r["s_p"] > med_p
        high_f = r["s_f"] > med_f
        r["quadrant"] = {
            (False, False): "Robust",
            (True, False): "Prompt-Critical",
            (False, True): "Format-Critical",
            (True, True): "Both Critical",
        }[(high_p, high_f)]
    return rows


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render report rows as CSV text (header from the first row's keys).

    Floats are written with four decimals and None as an empty cell; a
    value that holds a comma or a quote is quoted.
    """
    if not rows:
        return ""
    cols = list(rows[0].keys())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([f"{v:.4f}" if isinstance(v, float) else v
                         for v in (row.get(c, "") for c in cols)])
    return out.getvalue()
