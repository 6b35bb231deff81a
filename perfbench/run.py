#!/usr/bin/env python3
"""graphbench benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload eval-warm --seed 0 --seconds 30 --trace 0

The program is driven in-process through `graphbench.cli.main`, imported
from `<root>/src` (root defaults to the checkout holding this file). Each
run sets up several times and reports the median set-up time, then repeats
the workload's timed phase until `--seconds` of timed work is done and
reports medians. The output checks run after all measurement. `--trace 1`
runs one traced set-up and alternates untraced and traced repetitions
instead; it reports the per-layer metrics of `tracing.PER_LAYER` and the
tracing overhead. The last line of stdout is the result object; the line
before it holds the run's metadata.

Exit codes: 0 success, 1 an output check failed, 2 the program is missing.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

# name -> (unit, better); the per-layer ones live in tracing.PER_LAYER.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "throughput": ("items/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

SCHEMES = "0-shot,0-CoT,0-Instruct,0-Algorithm,LTM,k-shot,CoT,Instruct,Algorithm"
FORMATS = "adjacency_matrix,adjacency_list,adjacency_set,edge_list,edge_set,gmol,gmal"
POLY_TASKS = "connectivity,cycle,diameter,bfs_order,shortest_path,triangle"
ALL_TASKS = POLY_TASKS + ",hamiltonian,max_cut"
MAX_IN_FLIGHT = 2
SETUPS = 3  # at least; more while set-ups total under SETUP_SECONDS
SETUP_SECONDS = 1.0
# The search's cost depends on how many combinations its seed explores
# (43-69 on 2,000 episodes), so a search run cycles over this many seeds.
SEARCH_SEEDS = 4
ERROR_RATE = 0.2

# Corpus plans are lists of `generate` calls: (tasks, splits, count).
SIZES = {
    "tiny": {
        "eval_corpus": [(ALL_TASKS, "easy", 1)],
        "gen_corpus": [(ALL_TASKS, "easy", 2)],
        "search": {"episodes": 20, "samples": 3},
    },
    "default": {
        "eval_corpus": [(POLY_TASKS, "easy,medium", 4), ("hamiltonian,max_cut", "easy", 4)],
        "gen_corpus": [(ALL_TASKS, "easy,medium,hard", 14)],
        "search": {"episodes": 2000, "samples": 30},
    },
}


class Program:
    """A fresh import of graphbench and a way to run its CLI in-process."""

    def __init__(self, src: Path):
        src = str(src)
        if sys.path[0] != src:
            sys.path.insert(0, src)
        for name in [n for n in sys.modules if n == "graphbench" or n.startswith("graphbench.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("graphbench.cli")

    def __call__(self, *argv: object) -> str:
        out, err = io.StringIO(), io.StringIO()
        argv = [str(a) for a in argv]
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, reported as such
            raise checks.CheckFailed(f"graphbench {argv[0]} raised {exc!r}") from exc
        if rc != 0:
            raise checks.CheckFailed(f"graphbench {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()


def build_corpus(program: Program, plan, seed: int, out: Path) -> bytes:
    """Run `generate` once per plan entry and concatenate the corpora."""
    parts = []
    for i, (tasks, splits, count) in enumerate(plan):
        part = out.with_name(f"{out.stem}-{i}.jsonl")
        program("generate", "--task", tasks, "--difficulty", splits, "--count", count,
                "--seed", seed, "--out", part)
        parts.append(part.read_bytes())
    data = b"".join(parts)
    out.write_bytes(data)
    return data


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Workload:
    """One benchmark workload, set up and repeated in directories of its own.

    `build` is the traced part of set-up, `prime` the untraced rest; `rep`
    is the timed phase and returns its item count, leaving its outputs in
    its directory or in `self.out[d]`. After all measurement, `check_setup`
    and `check_rep` run on each directory in order, then `finish`; they
    raise CheckFailed.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.failed = 0
        self.out: dict[Path, Any] = {}

    def params(self) -> dict:
        return {}

    def build(self, program: Program, d: Path) -> None:
        pass

    def prime(self, program: Program, d: Path) -> None:
        pass

    def check_setup(self, d: Path) -> None:
        pass

    def rep(self, program: Program, d: Path) -> int:
        raise NotImplementedError

    def check_rep(self, d: Path) -> None:
        pass

    def finish(self, program: Program, d: Path) -> None:
        pass


def fingerprint(wl: Workload, results: Path, expected: int) -> list[tuple]:
    """Check one `run` output (see checks.eval_fingerprint), counting its
    failed records into the workload's failures."""
    records = read_jsonl(results)
    wl.failed += sum(1 for r in records if r.get("error"))
    return checks.eval_fingerprint(records, expected, 1 - ERROR_RATE)


class Generate(Workload):
    name = "generate"
    why = "oracles and generators: build a corpus of all tasks and splits, then its baselines"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.plan = size["gen_corpus"]
        self.reference: tuple[str, str] | None = None

    def params(self):
        return {"corpus": self.plan, "baseline_trials": 10_000}

    def rep(self, program, d):
        corpus = d / "corpus.jsonl"
        data = build_corpus(program, self.plan, self.seed, corpus)
        self.out[d] = program("baseline", "--queries", corpus, "--seed", self.seed)
        return data.count(b"\n")

    def check_rep(self, d):
        corpus = d / "corpus.jsonl"
        got = (hashlib.sha256(corpus.read_bytes()).hexdigest(), self.out[d])
        if self.reference is None:
            checks.check_corpus(read_jsonl(corpus))
            self.reference = got
        checks.require(got[0] == self.reference[0], "corpus sha256 differs between repeats")
        checks.require(got[1] == self.reference[1], "baseline table differs between repeats")


class Eval(Workload):
    """`run` over every scheme x format on a corpus built in set-up."""

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.plan = size["eval_corpus"]
        self.digest: str | None = None
        self.reference: list[tuple] | None = None

    def params(self):
        return {"corpus": self.plan, "schemes": SCHEMES, "formats": FORMATS,
                "backend": "mock-bernoulli", "error_rate": ERROR_RATE,
                "max_in_flight": MAX_IN_FLIGHT, "sensitivity_cell": "shortest_path/easy"}

    def build(self, program, d):
        data = build_corpus(program, self.plan, self.seed, d / "corpus.jsonl")
        self.corpus = d / "corpus.jsonl"
        self.requests = data.count(b"\n") * len(SCHEMES.split(",")) * len(FORMATS.split(","))

    def check_setup(self, d):
        corpus = d / "corpus.jsonl"
        digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
        if self.digest is None:
            checks.check_corpus(read_jsonl(corpus))
            self.digest = digest
        checks.require(digest == self.digest, "corpus sha256 differs between set-ups")

    def run(self, program, cache: Path, out: Path) -> None:
        program("run", "--queries", self.corpus, "--schemes", SCHEMES, "--formats", FORMATS,
                "--backend", "mock-bernoulli", "--error-rate", ERROR_RATE, "--seed", self.seed,
                "--max-in-flight", MAX_IN_FLIGHT, "--cache-dir", cache, "--out", out)

    def check_rep(self, d):
        got = fingerprint(self, d / "results.jsonl", self.requests)
        if self.reference is None:
            self.reference = got
        checks.require(got == self.reference, "results differ between repeats or cache states")


class EvalCold(Eval):
    name = "eval-cold"
    why = "cache misses: every request runs the mock and writes an empty disk cache, then reports"

    def cache_dir(self, d: Path) -> Path:
        return d / "cache"

    def rep(self, program, d):
        results = d / "results.jsonl"
        self.run(program, self.cache_dir(d), results)
        program("report", "--results", results, "--pivot", "scheme")
        program("report", "--results", results, "--pivot", "sensitivity",
                "--task", "shortest_path", "--split", "easy")
        program("baseline", "--queries", self.corpus, "--seed", self.seed)
        return self.requests

    def check_rep(self, d):
        super().check_rep(d)
        self.last_rep = d

    def finish(self, program, d):
        # Cache fidelity: a warm pass over the last cold cache must agree.
        self.run(program, self.last_rep / "cache", d / "warm.jsonl")
        checks.require(fingerprint(self, d / "warm.jsonl", self.requests) == self.reference,
                       "warm-cache results differ from the cold pass")


class EvalWarm(EvalCold):
    """The same timed phase as eval-cold, on a cache that set-up filled."""

    name = "eval-warm"
    why = "cache hits: the same requests served from a disk cache filled in set-up, then reports"

    def prime(self, program, d):
        self.cache = d / "cache"
        self.run(program, self.cache, d / "results.jsonl")

    def check_setup(self, d):
        super().check_setup(d)
        # The cold pass that filled the cache is the reference for every hit.
        self.check_rep(d)

    def cache_dir(self, d):
        return self.cache

    def finish(self, program, d):
        pass


class Search(Workload):
    name = "search"
    why = "DQN search: live rewards from small uncached batches through the gateway"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.cfg = size["search"]
        self.seeds = [seed * SEARCH_SEEDS + j for j in range(SEARCH_SEEDS)]
        self.reps = 0
        self.reference: dict[int, tuple] = {}

    def params(self):
        return {"task": "shortest_path", "difficulty": "medium", "space": "default",
                "reward": "live", "backend": "mock-bernoulli", "error_rate": ERROR_RATE,
                "max_in_flight": MAX_IN_FLIGHT, "search_seeds": self.seeds, **self.cfg}

    def rep(self, program, d):
        seed = self.seeds[self.reps % len(self.seeds)]
        self.reps += 1
        out = program("rlopt", "--reward", "live", "--backend", "mock-bernoulli",
                      "--error-rate", ERROR_RATE, "--task", "shortest_path",
                      "--difficulty", "medium", "--samples", self.cfg["samples"],
                      "--episodes", self.cfg["episodes"], "--max-in-flight", MAX_IN_FLIGHT,
                      "--seed", seed)
        self.out[d] = (seed, out)
        return self.cfg["episodes"]

    def check_rep(self, d):
        seed, out = self.out[d]
        p = json.loads(out)
        got = (tuple(p["best_combo"]), p["explored"], p["best_reward"])
        checks.require(1 <= p["explored"] <= p["episodes"] and 0 <= p["best_reward"] <= 1,
                       f"implausible search result {got}")
        checks.require(self.reference.setdefault(seed, got) == got,
                       f"best_combo/explored differ between repeats of seed {seed}")

    def finish(self, program, d):
        # The reward is only an accuracy, in which a failed request counts
        # as a wrong answer. So `run` the search's requests once: each
        # seed's samples under every scheme and format of the default space,
        # the models spread over the seeds; no record may fail.
        samples = self.cfg["samples"]
        space = dict(program.cli.rlopt.default_space().dims)
        schemes, formats = space["prompt_scheme"], space["serialization"]
        for i, model in enumerate(space["model"]):
            seed = self.seeds[i % len(self.seeds)]
            corpus = d / f"samples-{seed}.jsonl"
            if not corpus.exists():
                program("generate", "--task", "shortest_path", "--difficulty", "medium",
                        "--count", samples, "--seed", seed, "--out", corpus)
            out = d / f"{model}.jsonl"
            program("run", "--queries", corpus, "--schemes", ",".join(schemes),
                    "--formats", ",".join(formats), "--model", model,
                    "--backend", "mock-bernoulli", "--error-rate", ERROR_RATE,
                    "--seed", seed, "--max-in-flight", MAX_IN_FLIGHT, "--out", out)
            fingerprint(self, out, samples * len(schemes) * len(formats))


WORKLOADS = {w.name: w for w in (Generate, EvalCold, EvalWarm, Search)}


def git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the machine's speed
    at this moment, recorded next to each repetition to explain drift."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def fresh(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def measure(wl: Workload, root: Path, work: Path, seconds: float, trace: bool) -> dict:
    """Set up, repeat the timed phase, then check outputs; returns raw timings."""
    src = root / "src"
    setup_walls: list[float] = []
    setup_dirs: list[Path] = []
    recorder = tracing.Recorder() if trace else None
    while len(setup_walls) < (1 if trace else SETUPS) or (
            not trace and sum(setup_walls) < SETUP_SECONDS):
        d = fresh(work / f"setup-{len(setup_walls)}")
        gc.collect()
        start = time.perf_counter()
        program = Program(src)
        restore = tracing.install(recorder) if recorder else None
        try:
            wl.build(program, d)
        finally:
            if restore:
                restore()
        wl.prime(program, d)
        setup_walls.append(time.perf_counter() - start)
        setup_dirs.append(d)

    walls: list[float] = []
    rep_dirs: list[Path] = []
    probes: list[float] = []
    traced_walls: list[float] = []
    items = 0
    reps = 0
    while sum(walls) + sum(traced_walls) < seconds or not walls or (trace and not traced_walls):
        traced = trace and reps % 2 == 1
        d = fresh(work / f"rep-{reps}")
        if traced and traced_walls:
            recorder_now = tracing.Recorder()  # only the first traced rep is kept
        else:
            recorder_now = recorder
        restore = tracing.install(recorder_now) if traced else None
        gc.collect()
        probes.append(reference_loop())
        start = time.perf_counter()
        try:
            n = wl.rep(program, d)
        finally:
            wall = time.perf_counter() - start
            if restore:
                restore()
        (traced_walls if traced else walls).append(wall)
        rep_dirs.append(d)
        items += n
        reps += 1
    # The peak so far is the program's work plus the harness's imports; the
    # checks below hold results in memory, so they come after it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for d in setup_dirs:
        wl.check_setup(d)
    for d in rep_dirs:
        wl.check_rep(d)
    wl.finish(program, fresh(work / "finish"))
    return {"setup_walls": setup_walls, "walls": walls, "traced_walls": traced_walls,
            "items": items, "reps": reps, "reference_loop_s": probes,
            "peak_rss_mb": peak_rss_mb, "spans": recorder.spans if recorder else []}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="default")
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="checkout whose src/graphbench is measured")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "graphbench" / "cli.py").is_file():
        print(f"error: no graphbench program under {root / 'src'}", file=sys.stderr)
        return 2
    import numpy

    wl = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    work = root / ".perfbench_work" / str(os.getpid())
    attempted = 0
    trace = bool(args.trace)
    try:
        raw = measure(wl, root, work, args.seconds, trace)
        correct, error = True, None
    except checks.CheckFailed as exc:
        raw, correct, error = None, False, str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    meta = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "params": wl.params(), "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": getattr(checks.networkx(), "__version__", None),
        "git_rev": git_rev(root), "error": error,
    }
    metrics: dict[str, dict] = {}
    if raw is not None:
        attempted = raw["items"]
        meta.update({k: raw[k] for k in ("setup_walls", "walls", "traced_walls", "reps",
                                         "reference_loop_s")})
        wall = statistics.median(raw["walls"])
        if trace:
            overhead = statistics.median(raw["traced_walls"]) - wall
            meta["trace_overhead_s"] = overhead
            values = tracing.layer_metrics(raw["spans"])
            values.update({"error_share": wl.failed / attempted,
                           "trace.overhead_s": overhead,
                           "trace.overhead_ratio": overhead / wall})
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            values = {"setup_s": statistics.median(raw["setup_walls"]), "wall_s": wall,
                      "throughput": (attempted / raw["reps"]) / wall,
                      "peak_rss_mb": raw["peak_rss_mb"]}
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": wl.failed or int(not correct), "metrics": metrics}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
