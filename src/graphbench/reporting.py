"""Aggregation of evaluation records into pivot tables, each row with its
accuracy, a confidence interval and its mean output tokens, and
prompt/format sensitivity metrics.

Records are plain dicts (one JSONL row each), read once as a stream by one
fold, `_fold`: each is checked and folded into running sums as it arrives,
so a report holds its pivot, not its records, and every report rejects the
same records. The confidence-interval unit is the factor combination, not
the raw query: per-group accuracies are first computed per combination of
the remaining factors, then averaged.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from typing import Any, Iterable, Mapping, Sequence

from .errors import BadRecord, EmptyGroup, InsufficientCoverage

# The factor dimensions a record can carry: each `report --pivot` value and
# the record field it groups by.
FACTOR_DIMS = {"model": "model", "scheme": "prompt_scheme",
               "format": "serialization", "graph-type": "graph_type"}


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


def _fold(records: Iterable[Mapping[str, Any]], group_by: Sequence[str],
          cell_by: Sequence[str], required: bool) -> dict[tuple, list]:
    """The records folded into running sums per group (its values of
    `group_by`): [records, score sum, tokens_out sum, tokens_out count,
    {cell (its values of `cell_by`): [score sum, records]}].

    The records are read once, in order, so memory follows the number of
    cells, not of records. Every sum starts at 0 and adds left to right, in
    record order. A record whose score is not a number, whose `tokens_out`
    is neither a number nor null, or whose value of a group or cell field is
    not a string (nor, unless `required`, null or missing) raises BadRecord.
    """
    cut = len(group_by)
    dims = [*group_by, *cell_by]
    groups: dict[tuple, list] = {}
    for rec in records:
        score = float(_number(rec, "score", required=True))
        tokens = _number(rec, "tokens_out", required=False)
        values = _keys(rec, dims, required)
        group = groups.get(values[:cut])
        if group is None:
            group = groups[values[:cut]] = [0, 0, 0, 0, {}]
        group[0] += 1
        group[1] += score
        if tokens is not None:
            group[2] += tokens
            group[3] += 1
        cell = group[4].get(values[cut:])
        if cell is None:
            cell = group[4][values[cut:]] = [0, 0]
        cell[0] += score
        cell[1] += 1
    return groups


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

    The records are read once through `_fold`, which also says which
    records raise BadRecord; a grouping or factor field may be null.
    """
    group_by = list(group_by)
    groups = _fold(records, group_by,
                   [d for d in FACTOR_DIMS.values() if d not in group_by], required=False)
    if not groups:
        raise EmptyGroup("no records to aggregate")

    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        n, _, tokens_sum, tokens_n, combos = groups[key]
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


def _spread(cell: Mapping[tuple, float], axis: int) -> float:
    """For each value along `axis` of the (scheme, format) cells, the
    standard deviation of accuracy across the other axis, averaged over
    the values that hold more than one cell (0.0 when none does)."""
    lines = [[acc for k, acc in cell.items() if k[axis] == v]
             for v in sorted({k[axis] for k in cell})]
    stds = [_std(line) for line in lines if len(line) > 1]
    return sum(stds) / len(stds) if stds else 0.0


def sensitivity(records: Iterable[Mapping[str, Any]], task: str,
                difficulty: str) -> list[dict[str, Any]]:
    """Per-graph-type prompt sensitivity S_p and format sensitivity S_f,
    over the records of one task and difficulty.

    S_p: for each serialization format, the standard deviation of accuracy
    across prompt schemes, averaged over formats. S_f is the symmetric
    quantity. Quadrants come from median splits of each axis across the
    graph types present.

    The records of the task and difficulty are read once through `_fold`,
    which also says which records raise BadRecord; each must name a
    scheme, a format and a graph type.
    """
    families = _fold((r for r in records
                      if r.get("task") == task and r.get("difficulty") == difficulty),
                     ["graph_type"], ["prompt_scheme", "serialization"], required=True)
    if not families:
        raise EmptyGroup(f"no records for {task}/{difficulty}")
    cells = {k for fam in families.values() for k in fam[4]}
    schemes, formats = {s for s, _ in cells}, {f for _, f in cells}
    if len(schemes) < 2 or len(formats) < 2:
        raise InsufficientCoverage(
            f"need >=2 schemes and >=2 formats, have {len(schemes)}/{len(formats)}")

    rows = []
    for key in sorted(families):
        n, total, _, _, sums = families[key]
        cell = {k: s / count for k, (s, count) in sums.items()}
        rows.append({"graph_type": key[0], "s_p": _spread(cell, 1),
                     "s_f": _spread(cell, 0), "mean": total / n})

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
