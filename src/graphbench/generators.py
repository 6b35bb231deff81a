"""Synthetic graph generators for the seven families, the difficulty splits'
node-count sampler and per-item seed derivation.

Each family is one row of `GraphFamily` (token, generator, smallest n) and
each split one row of `DifficultySplit` (token, node-count band).

Every generator is a pure function of its seeded stream, so corpus
construction parallelizes without changing output.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from typing import TYPE_CHECKING

from .errors import ExhaustedAttempts, InvalidN
from .graphs import NP_NODE_CAP, Graph, is_connected

if TYPE_CHECKING:
    from .tasks import Task


class DifficultySplit(enum.Enum):
    """The three splits. `value` is the CLI/JSONL token and `node_range`
    the split's inclusive node-count band."""

    # One row per split: token, smallest n, largest n.
    EASY =   ("easy",   5, 10)
    MEDIUM = ("medium", 10, 20)
    HARD =   ("hard",   20, 30)

    def __new__(cls, token, lo, hi):
        member = object.__new__(cls)
        member._value_ = token
        member.node_range = (lo, hi)
        return member


def derive_seed(*parts: object) -> int:
    """Stable child seed from a tuple of identifying parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def derive_rng(*parts: object) -> random.Random:
    return random.Random(derive_seed(*parts))


def sample_n(task: "Task", split: DifficultySplit, rng: random.Random) -> int:
    """Node count drawn uniformly from the split's band; NP-hard tasks stop
    at NP_NODE_CAP, where their exact oracles refuse larger graphs."""
    lo, hi = split.node_range
    if task.np_hard:
        hi = min(hi, NP_NODE_CAP)
    return rng.randint(lo, hi)


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _weighted_choice(rng: random.Random, weights: list[int]) -> int:
    """Index drawn proportionally to integer weights (at least one positive)."""
    total = sum(weights)
    r = rng.randrange(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def _sample_pairs(n: int, pairs: list[tuple[int, int]], rng: random.Random) -> Graph:
    """m ~ U{1..len(pairs)} of the pairs, drawn without replacement."""
    return Graph.from_edges(n, rng.sample(pairs, rng.randint(1, len(pairs))))


def _keep_pairs(n: int, pairs: list[tuple[int, int]], rng: random.Random) -> Graph:
    """Each pair kept with one probability p ~ U[0, 1)."""
    p = rng.random()
    return Graph.from_edges(n, [pair for pair in pairs if rng.random() < p])


def _bipartite_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Every pair across a random split of the nodes into a left and a
    right side; each side gets at least 2 nodes so the structure is
    nontrivial."""
    left = rng.randint(2, n - 2)
    return [(u, v) for u in range(left) for v in range(left, n)]


def _gen_erm(n: int, rng: random.Random) -> Graph:
    return _sample_pairs(n, _all_pairs(n), rng)


def _gen_erp(n: int, rng: random.Random) -> Graph:
    return _keep_pairs(n, _all_pairs(n), rng)


def _gen_berm(n: int, rng: random.Random) -> Graph:
    return _sample_pairs(n, _bipartite_pairs(n, rng), rng)


def _gen_berp(n: int, rng: random.Random) -> Graph:
    return _keep_pairs(n, _bipartite_pairs(n, rng), rng)


def _gen_bag(n: int, rng: random.Random) -> Graph:
    """Preferential attachment over a complete seed graph.

    m0 ~ U{2..max(2, n//3)}; each new node attaches m = min(m0+1, existing)
    distinct targets with probability proportional to degree. The cap at the
    existing node count keeps the rule feasible right after the seed.
    """
    m0 = rng.randint(2, max(2, n // 3))
    edges = set(_all_pairs(m0))
    degree = [m0 - 1] * m0 + [0] * (n - m0)
    for v in range(m0, n):
        m = min(m0 + 1, v)
        targets: set[int] = set()
        while len(targets) < m:
            t = _weighted_choice(rng, degree[:v])
            targets.add(t)
        for t in targets:
            edges.add((t, v))
            degree[t] += 1
            degree[v] += 1
    return Graph.from_edges(n, edges)


def _gen_baf(n: int, rng: random.Random) -> Graph:
    """Preferential-attachment forest: m0 isolated roots, then one edge per
    new node with target weight degree+1. Yields exactly n - m0 edges."""
    m0 = rng.randint(2, max(2, n // 3))
    edges = []
    degree = [0] * n
    for v in range(m0, n):
        t = _weighted_choice(rng, [d + 1 for d in degree[:v]])
        edges.append((t, v))
        degree[t] += 1
        degree[v] += 1
    return Graph.from_edges(n, edges)


def _gen_sf(n: int, rng: random.Random) -> Graph:
    """Degree-weighted random edge insertion over a fixed node set.

    The edge budget U{n..ceil(1.5n)} matches the sparse edge/node ratios this
    family is meant to produce; degree+1 weights bootstrap from the empty
    graph. Duplicate and self edges are rejected and redrawn.
    """
    target = rng.randint(n, math.ceil(1.5 * n))
    target = min(target, n * (n - 1) // 2)
    edges: set[tuple[int, int]] = set()
    degree = [0] * n
    attempts = 0
    max_attempts = 100 * target
    while len(edges) < target and attempts < max_attempts:
        attempts += 1
        u = _weighted_choice(rng, [d + 1 for d in degree])
        v = _weighted_choice(rng, [d + 1 for d in degree])
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    return Graph.from_edges(n, edges)


class GraphFamily(enum.Enum):
    """The seven generator families. `value` is the CLI/JSONL token, `gen`
    the construction `generate` calls and `min_n` the smallest node count
    it accepts."""

    # One row per family: token, generator, smallest n.
    ERM =  ("erm",  _gen_erm,  2)
    ERP =  ("erp",  _gen_erp,  2)
    BERM = ("berm", _gen_berm, 4)
    BERP = ("berp", _gen_berp, 4)
    BAG =  ("bag",  _gen_bag,  3)
    BAF =  ("baf",  _gen_baf,  3)
    SF =   ("sf",   _gen_sf,   2)

    def __new__(cls, token, gen, min_n):
        member = object.__new__(cls)
        member._value_ = token
        member.gen = gen
        member.min_n = min_n
        return member


# Draws generate_connected makes before it gives up.
MAX_CONNECTED_ATTEMPTS = 200


def generate(family: GraphFamily, n: int, rng: random.Random) -> Graph:
    """Generate one graph of exactly n nodes from the family's construction."""
    if n < family.min_n:
        raise InvalidN(f"{family.value} needs n >= {family.min_n}, got {n}")
    return family.gen(n, rng)


def generate_connected(family: GraphFamily, n: int, rng: random.Random) -> Graph:
    """Resample until the graph is connected (needed for diameter queries);
    raises ExhaustedAttempts after MAX_CONNECTED_ATTEMPTS draws."""
    for _ in range(MAX_CONNECTED_ATTEMPTS):
        g = generate(family, n, rng)
        if is_connected(g):
            return g
    raise ExhaustedAttempts(
        f"no connected {family.value} graph with n={n} in {MAX_CONNECTED_ATTEMPTS} attempts")
