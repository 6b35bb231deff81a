"""Aggregation of evaluation records into pivot tables, each row with its
accuracy, a confidence interval and its mean output tokens, and
prompt/format sensitivity metrics.

Records are plain dicts (one JSONL row each), read once as a stream: each
is checked and folded into running sums as it arrives, so a report holds
its pivot, not its records. The confidence-interval unit is the factor
combination, not the raw query: per-group accuracies are first computed per
combination of the remaining factors, then averaged.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from typing import Any, Iterable, Mapping, Sequence

from .errors import BadRecord, EmptyGroup, InsufficientCoverage

# The adjustable factor dimensions a record can carry.
FACTOR_DIMS = ("model", "prompt_scheme", "serialization", "graph_type")


def _show(value: Any) -> str:
    return json.dumps(value, default=repr)


def _number(rec: Mapping[str, Any], name: str, required: bool) -> int | float | None:
    """The record's `name` field: a number or, unless `required`, null or
    missing (None)."""
    value = rec.get(name)
    if value is None and not required:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadRecord(f"{name} {_show(value)} is not a number")
    return value


def _keys(rec: Mapping[str, Any], dims: Sequence[str], required: bool) -> tuple:
    """The record's values of `dims`, each a string or, unless `required`,
    null or missing (None)."""
    values = tuple(rec.get(d) for d in dims)
    for d, value in zip(dims, values):
        if value is None:
            if required:
                raise BadRecord(f"{d} is missing")
        elif not isinstance(value, str):
            raise BadRecord(f"{d} {_show(value)} is not a string")
    return values


def aggregate(records: Iterable[Mapping[str, Any]],
              group_by: Sequence[str]) -> list[dict[str, Any]]:
    """Mean accuracy with a 95% CI margin, and mean output tokens, per group.

    Within each group, records are bucketed by the remaining factor
    dimensions (the combinations), and the group's mean is the mean of its
    combination means. `ci95` is 1.96 * stdev(combination means) /
    sqrt(#combos): an interval over combinations, not over queries, and
    0.0 for a group with a single combination. `mean_tokens_out` is the
    plain mean of `tokens_out` over the group's records that report it, or
    None when none does.

    The records are read once, in order, and each is folded into running
    sums and counts per group and per combination, so memory follows the
    number of combinations, not of records. The sums start at 0 and add in
    record order, as `sum()` would over the same values. A record whose
    score is not a number, whose `tokens_out` is neither a number nor null,
    or whose value of a grouping or factor field is neither a string nor
    null raises BadRecord.
    """
    group_by = list(group_by)
    dims = [*group_by, *(d for d in FACTOR_DIMS if d not in group_by)]
    cut = len(group_by)
    # Per group: [records, tokens_out sum, tokens_out count,
    #             {combination: [score sum, records]}].
    groups: dict[tuple, list] = {}
    for rec in records:
        score = float(_number(rec, "score", required=True))
        tokens = _number(rec, "tokens_out", required=False)
        values = _keys(rec, dims, required=False)
        key = values[:cut]
        group = groups.get(key)
        if group is None:
            group = groups[key] = [0, 0, 0, {}]
        group[0] += 1
        if tokens is not None:
            group[1] += tokens
            group[2] += 1
        combo = values[cut:]
        totals = group[3].get(combo)
        if totals is None:
            totals = group[3][combo] = [0, 0]
        totals[0] += score
        totals[1] += 1
    if not groups:
        raise EmptyGroup("no records to aggregate")

    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        n, tokens_sum, tokens_n, combos = groups[key]
        values = [total / count for total, count in combos.values()]
        mean = sum(values) / len(values)
        margin = 0.0
        if len(values) > 1:
            margin = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        row = dict(zip(group_by, key))
        row.update({"mean": mean, "ci95": margin, "combinations": len(values),
                    "records": n,
                    "mean_tokens_out": tokens_sum / tokens_n if tokens_n else None})
        rows.append(row)
    return rows


def _std(values: Iterable[float]) -> float:
    vals = list(values)
    mean = sum(vals) / len(vals)
    return math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))


# The factors a sensitivity record must name.
_SENSITIVITY_DIMS = ("prompt_scheme", "serialization", "graph_type")


def sensitivity(records: Iterable[Mapping[str, Any]], task: str,
                difficulty: str) -> list[dict[str, Any]]:
    """Per-graph-type prompt sensitivity S_p and format sensitivity S_f,
    over the records of one task and difficulty.

    S_p: for each serialization format, the standard deviation of accuracy
    across prompt schemes, averaged over formats. S_f is the symmetric
    quantity. Quadrants come from median splits of each axis across the
    graph types present.

    The records are read once, in order, and each of the task and
    difficulty is folded into running sums and counts per graph type and
    per (scheme, format) cell, so memory follows the number of cells, not
    of records; the sums add in record order, as `sum()` would. Such a
    record whose score is not a number, or that lacks a scheme, format or
    graph type or holds one that is not a string, raises BadRecord.
    """
    schemes: set[str] = set()
    formats: set[str] = set()
    # Per graph type: [score sum, records, {(scheme, format): [score sum, records]}].
    families: dict[str, list] = {}
    for rec in records:
        if rec.get("task") != task or rec.get("difficulty") != difficulty:
            continue
        score = float(_number(rec, "score", required=True))
        scheme, fmt, family = _keys(rec, _SENSITIVITY_DIMS, required=True)
        schemes.add(scheme)
        formats.add(fmt)
        fam = families.get(family)
        if fam is None:
            fam = families[family] = [0, 0, {}]
        fam[0] += score
        fam[1] += 1
        totals = fam[2].get((scheme, fmt))
        if totals is None:
            totals = fam[2][(scheme, fmt)] = [0, 0]
        totals[0] += score
        totals[1] += 1
    if not families:
        raise EmptyGroup(f"no records for {task}/{difficulty}")
    if len(schemes) < 2 or len(formats) < 2:
        raise InsufficientCoverage(
            f"need >=2 schemes and >=2 formats, have {len(schemes)}/{len(formats)}")

    rows = []
    for family in sorted(families):
        total, n, cells = families[family]
        cell = {k: s / count for k, (s, count) in cells.items()}
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
        rows.append({"graph_type": family, "s_p": s_p, "s_f": s_f, "mean": total / n})

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
