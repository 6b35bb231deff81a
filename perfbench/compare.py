#!/usr/bin/env python3
"""Compare two checkouts of graphbench with the pairs rule.

    python3 perfbench/compare.py --parent ../parent --change . --workload eval-warm

Both sides are measured with this directory's run.py (identical benchmark
code), each pointed at its checkout's `src/` with `--root`. Pair i runs both
sides on seed `--seed + i`, alternating which side goes first. For every
end-to-end metric it reports each side's median and quartiles and the share
of pairs the change won (ties count for neither), then a verdict:

- better: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile distance, or every change run beat
  every parent run;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (quartile distance / median) exceeds
  the bound, so neither "same" nor "worse" can be told apart;
- same: none of the above.

The last line of stdout is a JSON object with the per-metric table. Exits 1
when any metric is "worse", else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root: Path, workload: str, seed: int, seconds: int, size: str) -> dict[str, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{root}: run failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if all_better or (wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1):
        status = "better"
    elif worse_by > bound and spread <= bound:
        status = "worse"
    elif spread > bound:
        status = "unresolved"
    else:
        status = "same"
    return {"parent": {"median": pm, "q1": p1, "q3": p3}, "change": {"median": cm, "q1": c1, "q3": c3},
            "pairs_won": wins / len(parent), "parent_spread": spread, "worse_by": worse_by,
            "bound": bound, "status": status}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--size", default="default")
    ap.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            root = (args.parent if side == "parent" else args.change).resolve()
            runs[side].append(run_once(root, args.workload, args.seed + i, seconds, args.size))
            print(f"pair {i} {side}: {runs[side][-1]}", file=sys.stderr)

    table = {}
    for m in metrics:
        name = m["name"]
        table[name] = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                              m["better"], m["bound"])
        t = table[name]
        print(f"{name:12s} parent {t['parent']['median']:.6g} [{t['parent']['q1']:.6g}, "
              f"{t['parent']['q3']:.6g}]  change {t['change']['median']:.6g} "
              f"[{t['change']['q1']:.6g}, {t['change']['q3']:.6g}]  won {t['pairs_won']:.0%}  "
              f"{t['status']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
                      "seconds": seconds, "metrics": table}))
    return 1 if any(t["status"] == "worse" for t in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
