import ast
import random
import re

import pytest

from graphbench.errors import MalformedResponse
from graphbench.gateway import CompletionResponse
from graphbench.graphs import Graph, bfs_levels
from graphbench.serialize import SerializationFormat as F


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    """Erdos-Renyi style helper used by the oracle-equivalence suites."""
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Sorted node lists of the components, in order of their smallest node."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = sorted(bfs_levels(g, s))
        seen.update(comp)
        comps.append(comp)
    return comps


def is_bipartite(g: Graph) -> bool:
    """Two-coloring check, used by the generator property tests."""
    color: dict[int, int] = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def read_back(text: str, fmt: F, n: int) -> Graph:
    """Graph read from serialized text by readers independent of the package.

    The node-carrying formats give their own node count; `n` only fills in
    the isolated nodes that the edge list and edge set cannot express.
    """
    if fmt in (F.ADJACENCY_LIST, F.ADJACENCY_SET):
        adj = ast.literal_eval(text)
        return Graph.from_edges(len(adj), [(u, v) for u, vs in adj.items() for v in vs])
    if fmt is F.EDGE_SET:
        return Graph.from_edges(n, ast.literal_eval(text))
    if fmt is F.EDGE_LIST:
        return Graph.from_edges(n, [tuple(map(int, line.split())) for line in text.splitlines()])
    if fmt is F.ADJACENCY_MATRIX:
        rows = [[int(c) for c in row.split()] for row in re.findall(r"\[([01 ]*)\]", text)]
        rows = [row for row in rows if row]
        size = len(rows)
        assert all(len(row) == size and row[i] == 0 for i, row in enumerate(rows))
        assert all(rows[u][v] == rows[v][u] for u in range(size) for v in range(size))
        return Graph.from_edges(size, [(u, v) for u in range(size)
                                       for v in range(u + 1, size) if rows[u][v]])
    nx = pytest.importorskip("networkx")
    if fmt is F.GMOL:
        h = nx.parse_gml(text, label="id")
    else:
        h = nx.parse_graphml(text.replace("GMaL", "graphml"), node_type=int)
    return Graph.from_edges(h.number_of_nodes(), h.edges())


class CannedBackend:
    """Replays stored transcripts keyed by the request's cache key or raw
    prompt; unknown prompts raise MalformedResponse."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses
        self.name = "canned"
        self.identity = "canned"

    def complete(self, req):
        text = self.responses.get(req.cache_key(), self.responses.get(req.prompt))
        if text is None:
            raise MalformedResponse(f"no canned response for prompt {req.prompt[:60]!r}...")
        return CompletionResponse(text=text, tokens_out=len(text.split()),
                                  backend=self.name)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def reference_graph():
    """The six-node, four-edge graph used for all serializer goldens."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
