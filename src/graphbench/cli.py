"""Command-line entry point wiring the pipeline together:
generate -> render -> run -> baseline -> rlopt -> report -> selfcheck.

Configuration precedence: flags > environment > --config JSON file.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterator, TextIO

from . import baselines as baselines_mod
from . import corpus as corpus_mod
from . import reporting
from . import rlopt
from .errors import BadRecord, EmptyFactor, EmptyGroup, GraphBenchError
from .gateway import CACHE_DIR_ENV, Gateway, HttpBackend, MockBackend
from .generators import DifficultySplit, GraphFamily
from .pipeline import compose_cells, live_reward_fn, parse_names, parse_one, run_evaluation
from .prompts import PromptScheme, Renderer, join_prompt
from .serialize import SerializationFormat, serialize
from .tasks import TaskKind

def _load_json(path: str):
    """The JSON value in the file; text that is not JSON raises a
    ValueError that names the file."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = _load_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: expected a JSON object of settings")
    return config


def _make_gateway(args, config: dict) -> Gateway:
    if args.backend == "http":
        backend = HttpBackend(endpoint=config.get("endpoint"), api_key=config.get("api_key"))
    elif args.backend == "mock-oracle":
        backend = MockBackend()
    else:
        backend = MockBackend(error_rate=args.error_rate, seed=args.seed)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or config.get("cache_dir")
    return Gateway(backend, cache_dir=cache_dir)


def _create(args, flag: str, newline: str | None = None) -> TextIO:
    """The file the output flag `flag` names, emptied and opened for
    writing; every file a command writes is opened here. A path that is
    one of the command's input files, however it is spelled, raises
    ValueError before anything is opened, so no command writes over a
    file it reads. `run` and `render` read their `--queries` corpus again
    after opening `--out`; every other input is read before the output is
    opened."""
    out = getattr(args, flag[2:].replace("-", "_"))
    reward = getattr(args, "reward", "")
    # Each file the command may read: what it holds, the text before its
    # path on the command line, and the path (None when not given).
    inputs = (("corpus", "--queries ", getattr(args, "queries", None)),
              ("results", "--results ", getattr(args, "results", None)),
              ("config", "--config ", getattr(args, "config", None)),
              ("factors", "--factors-file ", getattr(args, "factors_file", None)),
              ("reward table", "--reward table:",
               reward.removeprefix("table:") if reward.startswith("table:") else None))
    for what, named, path in inputs:
        if path and os.path.exists(path) and os.path.exists(out) and os.path.samefile(path, out):
            fate = ("empty it before reading it" if (flag, what) == ("--out", "corpus")
                    else "write over it")
            raise ValueError(f"{flag} {out} is the {what} {named}{path} names; "
                             f"`{args.command}` would {fate}")
    return open(out, "w", encoding="utf-8", newline=newline)


def cmd_generate(args) -> int:
    tasks = parse_names(TaskKind, args.task, "--task")
    splits = parse_names(DifficultySplit, args.difficulty, "--difficulty")
    families = (parse_names(GraphFamily, args.graph_types, "--graph-types")
                if args.graph_types is not None else None)
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    queries = corpus_mod.build_corpus(tasks, splits, families, args.count,
                                      master_seed=args.seed, per_cell=args.per_cell)
    with _create(args, "--out") as out:
        n = corpus_mod.write_jsonl((q.to_record() for q in queries), out)
    print(f"wrote {n} queries to {args.out}")
    return 0


def _read_twice(args, use: str) -> Iterator[corpus_mod.QuerySpec]:
    """The queries of the `--queries` corpus, for a command that must not
    start on a corpus with a bad record. This call reads the file once,
    checking and counting every record, so a bad one raises before the
    command opens its output or sends anything. The iterator it returns
    reads the file again one query at a time; a second read that ends with
    a different number of records (a pipe, or a file rewritten in between)
    raises ValueError, naming the command and what it did with the
    records."""
    path, command = args.queries, args.command
    total = sum(1 for _ in corpus_mod.load_queries(path))

    def again() -> Iterator[corpus_mod.QuerySpec]:
        read = 0
        for read, query in enumerate(corpus_mod.load_queries(path), 1):
            yield query
        if read != total:
            raise ValueError(f"{path}: the corpus held {total} records when checked but "
                             f"{read} when {use}; `{command}` reads it twice, so it must be "
                             f"a file that does not change while `{command}` reads it")

    return again()


def cmd_render(args) -> int:
    """Write the prompt of every (query, scheme, format) cell.

    The corpus is read twice (see `_read_twice`): a bad record writes
    nothing, and `render` holds one query at a time, never the whole
    corpus. Each query is composed as a batch of its own, so the renderer
    holds one query's graph texts and its task's banks and heads; a task
    that comes back after another has its banks and heads built again,
    which a task-major corpus, as `generate` writes, never does. Each
    prompt is written as it is composed, so only one joined prompt is held
    at a time."""
    queries = _read_twice(args, "composed")
    schemes = parse_names(PromptScheme, args.schemes, "--schemes")
    formats = parse_names(SerializationFormat, args.formats, "--formats")
    renderer = Renderer()
    rows = ({"query_id": query.id, "prompt_scheme": scheme.value, "serialization": fmt.value,
             "prompt_text": join_prompt(head, body)}
            for query in queries
            for _, scheme, fmt, head, body in compose_cells([query], schemes, formats,
                                                            renderer=renderer))
    with _create(args, "--out") as out:
        n = corpus_mod.write_jsonl(rows, out)
    print(f"wrote {n} prompts to {args.out}")
    return 0


# `run` evaluates its corpus one chunk at a time: the fewest whole queries
# that reach this many cells per --max-in-flight slot. Memory then follows
# the chunk, not the corpus. For an HTTP backend, scaling with
# --max-in-flight keeps each worker's share of a chunk fixed, and 256
# requests each make a chunk's own costs (starting its workers, looking up
# its cache entries, the tail where workers idle while the last requests
# finish) small next to its work. The mock answers on the calling thread,
# with no workers; there the constant only sets the chunk size, and with
# it how many answers one commit holds.
_CHUNK_CELLS_PER_WORKER = 256


def cmd_run(args) -> int:
    """Evaluate every (query, scheme, format) cell of the corpus and write
    one result record per cell, in `render`'s order.

    The corpus is read twice (see `_read_twice`): a bad record costs
    nothing, and the second read builds the queries one chunk at a time,
    so `run` holds one chunk of queries and requests, that chunk's graph
    texts and its tasks' banks and heads, and one query's records, never
    the whole corpus. A task that comes back after a chunk without it has
    its banks and heads built again, which a task-major corpus, as
    `generate` writes, never does. Each query's records are written as
    soon as its last one is scored, and the file is flushed once per
    chunk, so an interrupted run leaves whole queries in `--out`."""
    config = _load_config(args.config)
    queries = _read_twice(args, "evaluated")
    schemes = parse_names(PromptScheme, args.schemes, "--schemes")
    formats = parse_names(SerializationFormat, args.formats, "--formats")
    if args.max_in_flight < 1:
        raise ValueError(f"--max-in-flight must be >= 1, got {args.max_in_flight}")
    per_query = len(schemes) * len(formats)
    per_chunk = math.ceil(_CHUNK_CELLS_PER_WORKER * args.max_in_flight / per_query)
    renderer = Renderer()
    n = score = errors = 0
    gateway = _make_gateway(args, config)
    try:
        with _create(args, "--out") as out:
            while chunk := list(itertools.islice(queries, per_chunk)):
                records = run_evaluation(chunk, schemes, formats, gateway, model=args.model,
                                         max_in_flight=args.max_in_flight, renderer=renderer)
                # A query's records are written once its last one is scored,
                # without waiting for the next query's first.
                while query_records := list(itertools.islice(records, per_query)):
                    n += corpus_mod.write_jsonl(query_records, out)
                    score += sum(rec["score"] for rec in query_records)
                    errors += sum("error" in rec for rec in query_records)
                # Complete lines reach the file before the next chunk is sent.
                out.flush()
    finally:
        gateway.close()
    print(f"wrote {n} results to {args.out} (accuracy {score / n if n else 0.0:.4f}, "
          f"errors {errors}, network calls {gateway.network_calls}, "
          f"cache hits {gateway.cache_hits})")
    return 0


def cmd_baseline(args) -> int:
    cells: dict[tuple, list] = {}
    for q in corpus_mod.load_queries(args.queries):
        cells.setdefault((q.task, q.difficulty), []).append(q)
    rows = []
    for (task, split) in sorted(cells, key=lambda k: (k[0].value, k[1].value)):
        sub = cells[(task, split)]
        rows.append({"task": task.value, "difficulty": split.value, "queries": len(sub),
                     "analytic": baselines_mod.random_baseline(sub)})
    return _emit_csv(args, rows)


def _emit_csv(args, rows: list[dict]) -> int:
    """Print the rows as CSV, and write the same text to `--csv-out` if given."""
    text = reporting.rows_to_csv(rows)
    if args.csv_out:
        with _create(args, "--csv-out") as out:
            out.write(text)
    print(text, end="")
    return 0


def cmd_rlopt(args) -> int:
    task = parse_one(TaskKind, args.task, "--task")
    split = parse_one(DifficultySplit, args.difficulty, "--difficulty")
    if args.acc_max is not None:
        rlopt.check_acc_max(args.acc_max)
    if args.factors_file:
        spec = _load_json(args.factors_file)
        if not isinstance(spec, list):
            raise ValueError(f"{args.factors_file}: expected a JSON list of factors")
        for d in spec:
            if not (isinstance(d, dict) and isinstance(d.get("name"), str)
                    and isinstance(d.get("options"), list)
                    and all(isinstance(o, str) for o in d["options"])):
                raise ValueError(f"{args.factors_file}: factor {json.dumps(d)} needs a "
                                 f"string \"name\" and a list of strings \"options\"")
        try:
            space = rlopt.FactorSpace(tuple((d["name"], tuple(d["options"])) for d in spec))
        except (EmptyFactor, ValueError) as exc:
            raise ValueError(f"{args.factors_file}: {exc}") from None
    else:
        space = rlopt.default_space()
    if args.order:
        # An alias stands for a default factor's name unless it is itself
        # a declared name.
        aliases = {"prompt": "prompt_scheme", "scheme": "prompt_scheme",
                   "format": "serialization"}
        by_name = dict(space.dims)
        wanted = [tok if tok in by_name else aliases.get(tok, tok)
                  for tok in (tok.strip() for tok in args.order.split(","))]
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            raise ValueError(f"--order names unknown factor(s) {', '.join(unknown)}; "
                             f"declared factors: {', '.join(space.names)}")
        if sorted(wanted) != sorted(by_name):
            raise ValueError(f"--order must name every declared factor exactly once: "
                             f"{', '.join(space.names)}")
        space = rlopt.FactorSpace(tuple((n, by_name[n]) for n in wanted))

    cfg = rlopt.DQNConfig(episodes=args.episodes, seed=args.seed,
                          decay_mode=args.epsilon_decay_mode,
                          learning_rate=args.learning_rate,
                          epsilon_min=args.epsilon_min,
                          optimizer=args.optimizer, input_skip=args.input_skip)
    gateway = None
    if args.reward.startswith("table:"):
        # A table key joins a combination's options with `|`, so an option
        # that holds one could never be looked up. Live options may: the
        # sentence-delimiter pool holds " || ".
        for name, options in space.dims:
            piped = [o for o in options if "|" in o]
            if piped:
                raise ValueError(f"{args.factors_file}: factor {name!r} option {piped[0]!r} "
                                 f"contains '|', which separates the options in a reward "
                                 f"table's keys")
        table_path = args.reward.split(":", 1)[1]
        raw = _load_json(table_path)
        if not isinstance(raw, dict):
            raise ValueError(f"{table_path}: expected a JSON object of rewards")
        table = {}
        for key, value in raw.items():
            try:
                reward = float(value)
            except (TypeError, ValueError):
                reward = math.nan
            if not math.isfinite(reward):
                raise ValueError(f"{table_path}: the reward of {key!r} is {json.dumps(value)}, "
                                 f"not a finite number")
            table[tuple(key.split("|"))] = reward
        reward_fn = rlopt.table_reward_fn(table)
    elif args.reward == "live":
        gateway = _make_gateway(args, _load_config(args.config))
        if args.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {args.samples}")
        if args.max_in_flight < 1:
            raise ValueError(f"--max-in-flight must be >= 1, got {args.max_in_flight}")
        # Checks the factors now; builds its corpus at the first reward.
        reward_fn = live_reward_fn(space, gateway, task=task, split=split,
                                   samples=args.samples, seed=args.seed, model=args.model,
                                   max_in_flight=args.max_in_flight)
    else:
        raise ValueError(f"unknown reward spec {args.reward!r}")

    with contextlib.ExitStack() as stack:
        if gateway is not None:
            stack.callback(gateway.close)
        # Opened (and emptied) once every setting is checked, but before the
        # live corpus is built or a request is sent, so a path that cannot
        # be written costs nothing.
        episodes = (stack.enter_context(_create(args, "--episodes-csv", newline=""))
                    if args.episodes_csv else None)
        result = rlopt.run_dqn((task.value, split.value), space, reward_fn, cfg)
        cost, rate = rlopt.cost_rate(result, space, args.acc_max)
        print(json.dumps({**result.to_dict(), "cost": cost, "rate": rate}, indent=2))
        if episodes is not None:
            writer = csv.writer(episodes)
            writer.writerow(["episode", *space.names, "reward", "epsilon"])
            for entry in result.log:
                writer.writerow([entry.episode, *entry.combo, f"{entry.reward:.6f}",
                                 f"{entry.epsilon:.4f}"])
    return 0


def cmd_report(args) -> int:
    if args.pivot == "sensitivity" and not (args.task and args.split):
        raise ValueError("--pivot sensitivity needs --task and --split")
    task = args.task and parse_one(TaskKind, args.task, "--task").value
    split = args.split and parse_one(DifficultySplit, args.split, "--split").value
    # The number of the record read last: the one being folded in when the
    # fold finds it bad, since `reporting` reads the stream one at a time.
    at = 0

    def records():
        nonlocal at
        for at, rec in enumerate(corpus_mod.read_jsonl(args.results), 1):
            if not isinstance(rec, dict) or "score" not in rec:
                raise ValueError(f"{args.results}: record {at} has no 'score'; "
                                 f"report reads the result records `run` writes")
            if ((task and rec.get("task") != task)
                    or (split and rec.get("difficulty") != split)):
                continue
            yield rec

    try:
        if args.pivot == "sensitivity":
            rows = reporting.sensitivity(records(), task, split)
        else:
            rows = reporting.aggregate(records(), [reporting.FACTOR_DIMS[args.pivot]])
    except BadRecord as exc:
        raise ValueError(f"{args.results}: record {at}: {exc}") from None
    except EmptyGroup:
        print("no records after filtering", file=sys.stderr)
        return 1
    return _emit_csv(args, rows)


def cmd_selfcheck(args) -> int:
    failures = [f"{path}: {qid}" for path in args.corpus
                for qid in corpus_mod.selfcheck(corpus_mod.load_queries(path))]
    failures += _check_serializer_goldens()
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
    return [f"serializer golden: {fmt.value}" for fmt, want in expected.items()
            if serialize(g, fmt) != want]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbench",
                                     description="Graph-reasoning benchmark factory and harness")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags `run` and `rlopt` share: the backend, model and cache.
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--model", default="mock")
    backend.add_argument("--backend", default="mock-oracle",
                         choices=["mock-oracle", "mock-bernoulli", "http"])
    backend.add_argument("--error-rate", type=float, default=0.2)
    backend.add_argument("--seed", type=int, default=0)
    backend.add_argument("--max-in-flight", type=int, default=4,
                         help="concurrent HTTP requests; the mock backends answer on the "
                              "calling thread, and for `run` this also sizes the chunks")
    backend.add_argument("--cache-dir", default=None)
    backend.add_argument("--config", default=None)

    # The flags `render` and `run` share: the corpus, the cells of each
    # query, and the output file.
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--queries", required=True)
    cells.add_argument("--schemes", default="0-shot")
    cells.add_argument("--formats", default="adjacency_list")
    cells.add_argument("--out", required=True)

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

    p = sub.add_parser("render", parents=[cells], help="compose prompts for a corpus")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("run", parents=[backend, cells],
                       help="evaluate a corpus against a backend")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="random baselines per (task, split)")
    p.add_argument("--queries", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: the baselines are exact; kept for existing scripts")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rlopt", parents=[backend], help="DQN search over factor combinations")
    p.add_argument("--task", default="diameter")
    p.add_argument("--difficulty", default="easy")
    p.add_argument("--episodes", type=int, default=80)
    p.add_argument("--order", default=None, help="factor order, e.g. prompt_scheme,serialization,model")
    p.add_argument("--factors-file", default=None)
    p.add_argument("--reward", default="live", help="table:<path> or live")
    p.add_argument("--samples", type=int, default=30, help="graphs per combo in live mode")
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
    p.add_argument("--pivot", default="model", choices=[*reporting.FACTOR_DIMS, "sensitivity"])
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
