"""Undirected simple graph plus the exact algorithms used as ground-truth
oracles and answer verifiers.

Nodes are dense integers 0..n-1 and distances are hop counts; every function
here is a pure function of an immutable Graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraph, TooLarge

# Largest graph the exact NP-hard solvers accept; NP-task corpora never
# draw more nodes than this.
NP_NODE_CAP = 25


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on nodes 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative node count {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{self.n - 1} or not normalized")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing endpoint order and dropping duplicates."""
        return cls(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per node."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges sorted lexicographically with u < v (canonical order)."""
        return sorted(self.edges)

    def check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"node {u} out of range for n={self.n}")


def bfs_levels(g: Graph, s: int) -> dict[int, int]:
    """Hop-distance map over exactly the nodes reachable from s.

    Keys are in canonical BFS visit order (neighbours in ascending index
    order), so `list(bfs_levels(g, s))` is the canonical BFS traversal.
    """
    g.check_node(s)
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected(g: Graph, u: int, v: int) -> bool:
    """True iff v is reachable from u."""
    return shortest_distance(g, u, v) is not None


def is_connected(g: Graph) -> bool:
    """True iff the whole graph is one component (vacuously true for n<=1)."""
    if g.n <= 1:
        return True
    return len(bfs_levels(g, 0)) == g.n


def shortest_distance(g: Graph, u: int, v: int) -> int | None:
    """BFS hop distance from u to v, or None when unreachable."""
    g.check_node(u)
    g.check_node(v)
    if u == v:
        return 0
    return bfs_levels(g, u).get(v)


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """One shortest u-v path along BFS parents.

    Walking back from v, each step takes the neighbour one level closer to u
    that BFS from u reached first, which is the node that discovered it.
    """
    dist = bfs_levels(g, u)
    if v not in dist:
        raise ValueError(f"no path from {u} to {v}")
    rank = {x: i for i, x in enumerate(dist)}
    path = [v]
    while path[-1] != u:
        x = path[-1]
        closer = (y for y in g.neighbors(x) if dist.get(y) == dist[x] - 1)
        path.append(min(closer, key=rank.__getitem__))
    return path[::-1]


def has_cycle(g: Graph) -> bool:
    """A simple graph is a forest exactly when m = n - c, where c is its
    number of components, so it has a cycle exactly when m > n - c."""
    seen: set[int] = set()
    components = 0
    for root in range(g.n):
        if root not in seen:
            seen.update(bfs_levels(g, root))
            components += 1
    return g.m > g.n - components


def diameter(g: Graph) -> int:
    """Longest shortest path over all node pairs.

    Raises DisconnectedGraph when any pair is unreachable (including the
    degenerate n=0 case, which has no finite eccentricity).
    """
    if g.n == 0:
        raise DisconnectedGraph("empty graph has no diameter")
    best = 0
    for s in range(g.n):
        dist = bfs_levels(g, s)
        if len(dist) != g.n:
            raise DisconnectedGraph(f"node {s} does not reach all nodes")
        best = max(best, max(dist.values()))
    return best


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Every triangle as (a, b, c) with a < b < c, in lexicographic order.

    Each triangle is found once, at its smallest edge (a, b), by
    intersecting b's sorted neighbors above b with a's neighbors.
    """
    adj_sets = [set(a) for a in g.adjacency]
    return [(u, v, w) for u, v in g.edge_list()
            for w in g.neighbors(v) if w > v and w in adj_sets[u]]


def triangle_count(g: Graph) -> int:
    """Number of unordered vertex triples with all three edges present."""
    return len(triangles(g))


def hamiltonian_cycle(g: Graph) -> tuple[bool, list[int] | None]:
    """Decide Hamiltonian-cycle existence by backtracking with degree pruning.

    Returns (True, witness tour) or (False, None). The witness visits every
    node exactly once, starting at 0, with a closing edge back to 0.
    """
    if g.n > NP_NODE_CAP:
        raise TooLarge(f"n={g.n} exceeds node cap {NP_NODE_CAP}")
    if g.n < 3:
        return False, None
    if any(g.degree(u) < 2 for u in range(g.n)):
        return False, None
    if not is_connected(g):
        return False, None

    path = [0]
    used = [False] * g.n
    used[0] = True

    def extend() -> bool:
        if len(path) == g.n:
            return g.has_edge(path[-1], 0)
        for v in g.neighbors(path[-1]):
            if used[v]:
                continue
            used[v] = True
            path.append(v)
            if extend():
                return True
            path.pop()
            used[v] = False
        return False

    if extend():
        return True, list(path)
    return False, None


def verify_hamiltonian_tour(g: Graph, seq: Sequence[int]) -> bool:
    """Check a claimed Hamiltonian tour; a repeated closing node is allowed."""
    tour = list(seq)
    if len(tour) >= 2 and tour[0] == tour[-1]:
        tour = tour[:-1]
    if g.n < 3 or len(tour) != g.n:
        return False
    if sorted(tour) != list(range(g.n)):
        return False
    return all(g.has_edge(tour[i], tour[(i + 1) % g.n]) for i in range(g.n))


def verify_bfs_order(g: Graph, s: int, seq: Sequence[int]) -> bool:
    """Queue-simulation check that seq is a realizable BFS order from s.

    seq must start at s, be a permutation of exactly the nodes reachable
    from s, and at each pop the popped node's unvisited neighbors must equal,
    as a set, the next block of seq of that size (which then joins the queue
    in seq's order).
    """
    g.check_node(s)
    seq = list(seq)
    if not seq or seq[0] != s or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= v < g.n for v in seq):
        return False
    visited = {s}
    frontier = 1
    for u in seq:
        fresh = {v for v in g.neighbors(u) if v not in visited}
        block = seq[frontier:frontier + len(fresh)]
        if set(block) != fresh:
            return False
        visited.update(fresh)
        frontier += len(fresh)
    return frontier == len(seq)


def verify_shortest_path(g: Graph, u: int, v: int, seq: Sequence[int]) -> bool:
    """seq is a simple u-v walk along edges whose length equals the BFS
    distance."""
    g.check_node(u)
    g.check_node(v)
    seq = list(seq)
    if not seq or seq[0] != u or seq[-1] != v or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= x < g.n for x in seq):
        return False
    if any(not g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
        return False
    return len(seq) - 1 == shortest_distance(g, u, v)


def max_cut(g: Graph) -> tuple[int, set[int]]:
    """Exact maximum cut over all 2^(n-1) bipartitions.

    Node 0 is pinned to side A; bit v-1 of a mask puts node v on side B.
    The int16 table of every mask's cut size is built node by node: adding
    node v doubles it, and each entry gains the number of v's earlier
    neighbours on the other side, which is itself a doubled table over
    those nodes' bits. The work is about 2^n table entries whatever the
    edge count. The first largest entry in ascending mask order wins.
    Returns (crossing edge count, side-A node set).
    """
    if g.n > NP_NODE_CAP:
        raise TooLarge(f"n={g.n} exceeds node cap {NP_NODE_CAP}")
    if g.n == 0:
        return 0, set()
    sizes = np.zeros(1, dtype=np.int16)
    for v in range(1, g.n):
        earlier = [u for u in g.neighbors(v) if u < v]
        # How many of v's earlier neighbours each mask puts on side B.
        on_b = np.zeros(1, dtype=np.int16)
        for u in range(1, v):
            on_b = np.concatenate((on_b, on_b + (u in earlier)))
        half = len(sizes)
        grown = np.empty(2 * half, dtype=np.int16)
        np.add(sizes, on_b, out=grown[:half])
        np.subtract(sizes, on_b, out=grown[half:])
        grown[half:] += len(earlier)
        sizes = grown
    best_mask = int(np.argmax(sizes))
    side_a = {0} | {v for v in range(1, g.n) if not (best_mask >> (v - 1)) & 1}
    return int(sizes[best_mask]), side_a


def cut_size(g: Graph, side: set[int]) -> int:
    """Crossing-edge count of the bipartition (side, V - side)."""
    return sum(1 for u, v in g.edges if (u in side) != (v in side))
