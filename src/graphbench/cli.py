"""Command-line entry point wiring the pipeline together:
generate -> render -> run -> baseline -> rlopt -> report -> selfcheck.

Configuration precedence: flags > environment > --config JSON file.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import baselines as baselines_mod
from . import corpus as corpus_mod
from . import reporting
from . import rlopt
from .errors import GraphBenchError
from .gateway import CACHE_DIR_ENV, Gateway, HttpBackend, MockBackend
from .generators import DifficultySplit, parse_families
from .pipeline import BankStore, accuracy, run_evaluation
from .prompts import DecorationFactors, PromptScheme
from .serialize import SerializationFormat, parse_formats, serialize
from .tasks import TaskKind


def _parse_tasks(spec: str) -> list[TaskKind]:
    return [TaskKind(tok.strip().lower()) for tok in spec.split(",") if tok.strip()]


def _parse_splits(spec: str) -> list[DifficultySplit]:
    return [DifficultySplit(tok.strip().lower()) for tok in spec.split(",") if tok.strip()]


def _parse_schemes(spec: str) -> list[PromptScheme]:
    by_value = {s.value.lower(): s for s in PromptScheme}
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        scheme = by_value.get(tok.lower())
        if scheme is None:
            raise ValueError(f"unknown prompt scheme {tok!r}")
        out.append(scheme)
    return out


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text("utf-8"))


def _make_gateway(args, config: dict) -> Gateway:
    backend_name = getattr(args, "backend", "mock-oracle")
    if backend_name == "http":
        backend = HttpBackend(endpoint=config.get("endpoint"), api_key=config.get("api_key"))
    elif backend_name == "mock-oracle":
        backend = MockBackend(mode="oracle")
    elif backend_name == "mock-bernoulli":
        backend = MockBackend(mode="bernoulli", error_rate=getattr(args, "error_rate", 0.2),
                              seed=getattr(args, "seed", 0))
    else:
        raise ValueError(f"unknown backend {backend_name!r}")
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV) \
        or config.get("cache_dir")
    return Gateway(backend, cache_dir=cache_dir)


def cmd_generate(args) -> int:
    tasks = _parse_tasks(args.task)
    splits = _parse_splits(args.difficulty)
    families = parse_families(args.graph_types) if args.graph_types else None
    queries = corpus_mod.build_corpus(tasks, splits, families, args.count,
                                      master_seed=args.seed, per_cell=args.per_cell)
    n = corpus_mod.write_jsonl((q.to_record() for q in queries), args.out)
    print(f"wrote {n} queries to {args.out}")
    return 0


def cmd_render(args) -> int:
    queries = corpus_mod.load_queries(args.queries)
    schemes = _parse_schemes(args.schemes)
    formats = parse_formats(args.formats)
    bank_store = BankStore()
    from .prompts import compose_prompt

    rows = []
    for q in queries:
        for scheme in schemes:
            bank = bank_store.get(q.task, scheme)
            for fmt in formats:
                rows.append({
                    "query_id": q.id,
                    "prompt_scheme": scheme.value,
                    "serialization": fmt.value,
                    "prompt_text": compose_prompt(q, scheme, fmt, bank=bank),
                })
    n = corpus_mod.write_jsonl(rows, args.out)
    print(f"wrote {n} prompts to {args.out}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config)
    queries = corpus_mod.load_queries(args.queries)
    schemes = _parse_schemes(args.schemes)
    formats = parse_formats(args.formats)
    gateway = _make_gateway(args, config)
    try:
        records = run_evaluation(queries, schemes, formats, gateway, model=args.model,
                                 max_in_flight=args.max_in_flight)
    finally:
        gateway.close()
    n = corpus_mod.write_jsonl(records, args.out)
    print(f"wrote {n} results to {args.out} (accuracy {accuracy(records):.4f}, "
          f"network calls {gateway.network_calls}, cache hits {gateway.cache_hits})")
    return 0


def cmd_baseline(args) -> int:
    queries = corpus_mod.load_queries(args.queries)
    cells: dict[tuple, list] = {}
    for q in queries:
        cells.setdefault((q.task, q.difficulty), []).append(q)
    rows = []
    for (task, split) in sorted(cells, key=lambda k: (k[0].value, k[1].value)):
        sub = cells[(task, split)]
        rows.append({"task": task.value, "difficulty": split.value, "queries": len(sub),
                     "analytic": baselines_mod.random_baseline(sub)})
    text = reporting.rows_to_csv(rows)
    if args.csv_out:
        Path(args.csv_out).write_text(text, "utf-8")
    print(text, end="")
    return 0


def cmd_rlopt(args) -> int:
    if args.factors_file:
        spec = json.loads(Path(args.factors_file).read_text("utf-8"))
        space = rlopt.FactorSpace(tuple((d["name"], tuple(d["options"])) for d in spec))
    else:
        space = rlopt.default_space()
    if args.order:
        aliases = {"prompt": "prompt_scheme", "scheme": "prompt_scheme",
                   "format": "serialization"}
        wanted = [aliases.get(tok.strip(), tok.strip()) for tok in args.order.split(",")]
        by_name = dict(space.dims)
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            raise ValueError(f"--order names unknown factor(s) {', '.join(unknown)}; "
                             f"declared factors: {', '.join(space.names)}")
        if sorted(wanted) != sorted(by_name):
            raise ValueError(f"--order must name every declared factor exactly once: "
                             f"{', '.join(space.names)}")
        space = rlopt.FactorSpace(tuple((n, by_name[n]) for n in wanted))

    gateway = None
    if args.reward.startswith("table:"):
        table_path = args.reward.split(":", 1)[1]
        raw = json.loads(Path(table_path).read_text("utf-8"))
        table = {tuple(k.split("|")): float(v) for k, v in raw.items()}
        reward_fn = rlopt.table_reward_fn(table)
    elif args.reward == "live":
        config = _load_config(args.config)
        gateway = _make_gateway(args, config)
        reward_fn = _live_reward_fn(args, space, gateway)
    else:
        raise ValueError(f"unknown reward spec {args.reward!r}")

    cfg = rlopt.DQNConfig(episodes=args.episodes, seed=args.seed,
                          decay_mode=args.epsilon_decay_mode,
                          learning_rate=args.learning_rate,
                          epsilon_min=args.epsilon_min,
                          optimizer=args.optimizer, input_skip=args.input_skip)
    try:
        result = rlopt.run_dqn((args.task, args.difficulty), space, reward_fn, cfg)
    finally:
        if gateway is not None:
            gateway.close()
    if args.acc_max is not None:
        cost, rate = rlopt.cost_rate(result, space, args.acc_max)
    else:
        cost, rate = result.explored / space.k_total, None
    payload = result.to_dict()
    payload.update({"cost": cost, "rate": rate})
    print(json.dumps(payload, indent=2))
    if args.episodes_csv:
        with open(args.episodes_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", *space.names, "reward", "epsilon"])
            for entry in result.log:
                writer.writerow([entry.episode, *entry.combo, f"{entry.reward:.6f}",
                                 f"{entry.epsilon:.4f}"])
    return 0


_DECORATION_DIMS = tuple(f.name for f in dataclasses.fields(DecorationFactors))
_LIVE_DIMS = ("prompt_scheme", "serialization", "model", *_DECORATION_DIMS)


def _live_reward_fn(args, space: rlopt.FactorSpace, gateway: Gateway):
    """Reward = accuracy over N generated graphs for the combo's settings.

    Every factor is applied to the evaluation; a factor name the evaluation
    has no setting for is rejected before anything runs.
    """
    unknown = [name for name in space.names if name not in _LIVE_DIMS]
    if unknown:
        raise ValueError(f"live reward cannot apply factor(s) {', '.join(unknown)}; "
                         f"known factors: {', '.join(_LIVE_DIMS)}")
    task = TaskKind(args.task)
    split = DifficultySplit(args.difficulty)
    queries = corpus_mod.build_corpus([task], [split], None, args.samples,
                                      master_seed=args.seed)
    bank_store = BankStore()
    names = space.names

    def reward(combo):
        by = dict(zip(names, combo))
        scheme = _parse_schemes(by.get("prompt_scheme", "0-shot"))[0]
        fmt = parse_formats(by.get("serialization", "adjacency_list"))[0]
        deco = DecorationFactors(**{d: by[d] for d in _DECORATION_DIMS if d in by})
        records = run_evaluation(queries, [scheme], [fmt], gateway,
                                 model=by.get("model", args.model), deco=deco,
                                 max_in_flight=args.max_in_flight,
                                 bank_store=bank_store)
        return accuracy(records)

    return reward


def cmd_report(args) -> int:
    if args.pivot == "sensitivity" and not (args.task and args.split):
        raise ValueError("--pivot sensitivity needs --task and --split")
    records = list(corpus_mod.read_jsonl(args.results))
    if args.queries:
        meta = {q.id: q for q in corpus_mod.load_queries(args.queries)}
        for r in records:
            q = meta.get(r.get("query_id"))
            if q is not None:
                r.setdefault("task", q.task.value)
                r.setdefault("difficulty", q.difficulty.value)
                r.setdefault("graph_type", q.family.value)
    if args.task:
        records = [r for r in records if r.get("task") == args.task]
    if args.split:
        records = [r for r in records if r.get("difficulty") == args.split]
    if not records:
        print("no records after filtering", file=sys.stderr)
        return 1

    pivot_map = {"model": "model", "scheme": "prompt_scheme",
                 "format": "serialization", "graph-type": "graph_type"}
    if args.pivot == "sensitivity":
        rows = reporting.sensitivity(records, args.task, args.split)
    elif args.pivot == "tokens":
        rows = reporting.token_report(records, ["model"])["rows"]
    else:
        rows = reporting.aggregate(records, [pivot_map[args.pivot]])
    text = reporting.rows_to_csv(rows)
    if args.csv_out:
        Path(args.csv_out).write_text(text, "utf-8")
    print(text, end="")
    return 0


def cmd_selfcheck(args) -> int:
    failures = []
    for path in args.corpus:
        queries = corpus_mod.load_queries(path)
        bad = corpus_mod.selfcheck(queries)
        for qid in bad:
            failures.append(f"{path}: {qid}")
    golden_bad = _check_serializer_goldens()
    failures.extend(golden_bad)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 1
    print("selfcheck ok")
    return 0


def _check_serializer_goldens() -> list[str]:
    """Re-render the reference graph and compare against frozen texts."""
    from .graphs import Graph

    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    expected = {
        SerializationFormat.EDGE_LIST: "0 1\n1 2\n3 4\n4 5",
        SerializationFormat.ADJACENCY_LIST:
            "{0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3, 5], 5: [4]}",
        SerializationFormat.ADJACENCY_MATRIX:
            "[[0 1 0 0 0 0]\n [1 0 1 0 0 0] \n [0 1 0 0 0 0] \n"
            " [0 0 0 0 1 0] \n [0 0 0 1 0 1] \n [0 0 0 0 1 0]]",
    }
    bad = []
    for fmt, want in expected.items():
        if serialize(g, fmt) != want:
            bad.append(f"serializer golden: {fmt.value}")
    return bad


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbench",
                                     description="Graph-reasoning benchmark factory and harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a query corpus")
    p.add_argument("--task", required=True, help="comma-separated task names")
    p.add_argument("--difficulty", default="easy", help="comma-separated splits")
    p.add_argument("--graph-types", default=None,
                   help="comma-separated families (default: all admissible)")
    p.add_argument("--count", type=int, default=10,
                   help="queries per (task, difficulty); per cell with --per-cell")
    p.add_argument("--per-cell", action="store_true",
                   help="interpret --count per (task, difficulty, family) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="compose prompts for a corpus")
    p.add_argument("--queries", required=True)
    p.add_argument("--schemes", default="0-shot")
    p.add_argument("--formats", default="adjacency_list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("run", help="evaluate a corpus against a backend")
    p.add_argument("--queries", required=True)
    p.add_argument("--schemes", default="0-shot")
    p.add_argument("--formats", default="adjacency_list")
    p.add_argument("--model", default="mock")
    p.add_argument("--backend", default="mock-oracle",
                   choices=["mock-oracle", "mock-bernoulli", "http"])
    p.add_argument("--error-rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="random baselines per (task, split)")
    p.add_argument("--queries", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: the baselines are exact; kept for existing scripts")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rlopt", help="DQN search over factor combinations")
    p.add_argument("--task", default="diameter")
    p.add_argument("--difficulty", default="easy")
    p.add_argument("--episodes", type=int, default=80)
    p.add_argument("--order", default=None, help="factor order, e.g. prompt_scheme,serialization,model")
    p.add_argument("--factors-file", default=None)
    p.add_argument("--reward", default="live", help="table:<path> or live")
    p.add_argument("--samples", type=int, default=30, help="graphs per combo in live mode")
    p.add_argument("--model", default="mock")
    p.add_argument("--backend", default="mock-oracle",
                   choices=["mock-oracle", "mock-bernoulli", "http"])
    p.add_argument("--error-rate", type=float, default=0.2)
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--epsilon-decay-mode", default="multiplicative",
                   choices=rlopt.DECAY_MODES)
    p.add_argument("--epsilon-min", type=float, default=0.01)
    p.add_argument("--optimizer", default="adam", choices=rlopt.OPTIMIZERS)
    p.add_argument("--input-skip", action="store_true")
    p.add_argument("--acc-max", type=float, default=None)
    p.add_argument("--episodes-csv", default=None)
    p.set_defaults(func=cmd_rlopt)

    p = sub.add_parser("report", help="aggregate result records")
    p.add_argument("--results", required=True)
    p.add_argument("--queries", default=None, help="join task/difficulty/graph_type metadata")
    p.add_argument("--pivot", default="model",
                   choices=["model", "scheme", "format", "graph-type", "sensitivity", "tokens"])
    p.add_argument("--task", default=None)
    p.add_argument("--split", default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selfcheck", help="revalidate corpora and serializer goldens")
    p.add_argument("corpus", nargs="+")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphBenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
