"""Core graph algorithms against independent brute-force oracles."""

import itertools
import random
from collections import deque

import pytest

from conftest import connected_components, random_graph
from graphbench.errors import DisconnectedGraph, TooLarge
from graphbench.graphs import (Graph, bfs_levels, connected, cut_size, diameter,
                               has_cycle, hamiltonian_cycle, max_cut, shortest_distance,
                               shortest_path, triangle_count, triangles,
                               verify_hamiltonian_tour)

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TWO_PATHS = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


# -- brute-force oracles -----------------------------------------------------

def brute_triangle_list(g: Graph) -> list[tuple[int, int, int]]:
    return [(a, b, c) for a, b, c in itertools.combinations(range(g.n), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)]


def brute_triangles(g: Graph) -> int:
    return len(brute_triangle_list(g))


def floyd_warshall_diameter(g: Graph) -> int | None:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    best = max(max(row) for row in dist) if g.n else 0
    return None if best == inf else int(best)


def brute_hamiltonian(g: Graph) -> bool:
    if g.n < 3:
        return False
    nodes = list(range(1, g.n))
    for perm in itertools.permutations(nodes):
        tour = [0, *perm]
        if all(g.has_edge(tour[i], tour[(i + 1) % g.n]) for i in range(g.n)):
            return True
    return False


def brute_max_cut(g: Graph) -> tuple[int, set[int]]:
    """Largest cut and the side A of the first mask in ascending order that
    reaches it, where bit v-1 of a mask puts node v on side B."""
    best, best_side = -1, set()
    for bits in range(1 << max(g.n - 1, 0)):
        side = {v for v in range(g.n) if v == 0 or not bits >> (v - 1) & 1}
        if cut_size(g, side) > best:
            best, best_side = cut_size(g, side), side
    return best, best_side


def queue_bfs(g: Graph, s: int) -> tuple[list[int], dict[int, int | None]]:
    """Visit order and first-discovery parents from an explicit FIFO queue."""
    order, parent, queue = [s], {s: None}, deque([s])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    return order, parent


# -- examples ----------------------------------------------------------------

def test_has_cycle_examples():
    assert has_cycle(TRIANGLE) is True
    assert has_cycle(PATH3) is False
    assert has_cycle(TWO_PATHS) is False


def test_connected_examples():
    assert connected(PATH3, 0, 2) is True
    assert connected(TWO_PATHS, 0, 3) is False
    assert connected(TWO_PATHS, 4, 4) is True
    with pytest.raises(IndexError):
        connected(PATH3, 0, 7)


def test_bfs_levels_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert bfs_levels(star, 0) == {0: 0, 1: 1, 2: 1, 3: 1}
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_levels(path, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
    baf = Graph.from_edges(11, [(3, 2), (4, 1), (5, 2), (6, 5), (7, 0), (8, 2), (9, 7), (10, 3)])
    assert bfs_levels(baf, 7) == {7: 0, 0: 1, 9: 1}


def test_diameter_examples():
    assert diameter(PATH3) == 2
    near_complete = Graph.from_edges(
        9, [(u, v) for u in range(9) for v in range(u + 1, 9) if {u, v} != {1, 3}])
    assert diameter(near_complete) == 2
    with pytest.raises(DisconnectedGraph):
        diameter(TWO_PATHS)


def test_triangle_count_examples():
    k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
    assert triangle_count(k4) == 4
    adj = {1: [0], 0: [1, 2, 3, 6], 2: [0, 7], 3: [0, 4, 5, 6], 4: [3, 6],
           5: [3], 6: [0, 3, 4, 8], 7: [2], 8: [6]}
    g = Graph.from_edges(9, [(u, v) for u, vs in adj.items() for v in vs])
    assert triangle_count(g) == 2


def test_shortest_distance_examples():
    star = Graph.from_edges(9, [(0, k) for k in (8, 4, 3, 2, 5, 1, 6)])
    assert shortest_distance(star, 5, 8) == 2
    assert shortest_distance(star, 4, 4) == 0
    assert shortest_distance(star, 0, 8) == 1
    assert shortest_distance(TWO_PATHS, 0, 5) is None


def test_shortest_path_examples():
    square = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(square, 0, 3) == [0, 1, 3]
    assert shortest_path(square, 3, 0) == [3, 1, 0]
    assert shortest_path(TWO_PATHS, 0, 2) == [0, 1, 2]
    assert shortest_path(TWO_PATHS, 4, 4) == [4]
    with pytest.raises(ValueError):
        shortest_path(TWO_PATHS, 0, 5)


def test_hamiltonian_examples():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    exists, tour = hamiltonian_cycle(c5)
    assert exists and verify_hamiltonian_tour(c5, tour)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert hamiltonian_cycle(star) == (False, None)
    with pytest.raises(TooLarge):
        hamiltonian_cycle(Graph.from_edges(30, [(i, i + 1) for i in range(29)]))


def test_max_cut_examples():
    assert max_cut(Graph.from_edges(2, [(0, 1)]))[0] == 1
    size, side = max_cut(TRIANGLE)
    assert size == 2 and cut_size(TRIANGLE, side) == 2
    k23 = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    size, side = max_cut(k23)
    assert size == 6
    assert side in ({0, 1}, {2, 3, 4})
    with pytest.raises(TooLarge):
        max_cut(Graph.from_edges(30, [(i, i + 1) for i in range(29)]))


# -- oracle equivalence ------------------------------------------------------

def test_triangle_count_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 12))
        assert triangles(g) == brute_triangle_list(g)
        assert triangle_count(g) == brute_triangles(g)


def test_diameter_matches_floyd_warshall():
    rng = random.Random(8)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randint(2, 10))
        fw = floyd_warshall_diameter(g)
        if fw is None:
            with pytest.raises(DisconnectedGraph):
                diameter(g)
        else:
            assert diameter(g) == fw
            checked += 1


def test_hamiltonian_matches_permutation_brute_force():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 7))
        exists, tour = hamiltonian_cycle(g)
        assert exists == brute_hamiltonian(g)
        if exists:
            assert verify_hamiltonian_tour(g, tour)


def test_max_cut_matches_subset_brute_force():
    rng = random.Random(10)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9))
        size, side = max_cut(g)
        assert size == brute_max_cut(g)[0]
        assert cut_size(g, side) == size


def test_max_cut_witness_is_first_maximal_mask():
    """The side-A witness is pinned, not only the size: stored gold answers
    carry it, so another maximal cut would change the corpora."""
    rng = random.Random(11)
    graphs = [Graph(0), Graph(1), Graph.from_edges(4, []), TRIANGLE, TWO_PATHS]
    graphs += [random_graph(rng, rng.randint(2, 12)) for _ in range(60)]
    for g in graphs:
        assert max_cut(g) == brute_max_cut(g), g


# -- invariants --------------------------------------------------------------

def test_cycle_iff_edges_exceed_forest_bound():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.05, 0.5))
        forest_bound = g.n - len(connected_components(g))
        assert has_cycle(g) == (g.m > forest_bound)


def test_bfs_levels_are_contiguous():
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12))
        levels = bfs_levels(g, 0)
        for v, lvl in levels.items():
            if lvl == 0:
                continue
            neighbor_levels = {levels[u] for u in g.neighbors(v) if u in levels}
            assert lvl - 1 in neighbor_levels
            assert not any(nl < lvl - 1 for nl in neighbor_levels)


def test_bfs_order_and_paths_match_queue_reference():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.05, 0.6))
        s = rng.randrange(g.n)
        order, parent = queue_bfs(g, s)
        assert list(bfs_levels(g, s)) == order
        for v in range(g.n):
            if v not in parent:
                with pytest.raises(ValueError):
                    shortest_path(g, s, v)
                continue
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            assert shortest_path(g, s, v) == path[::-1]


def test_diameter_dominates_pairwise_distances():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        g = random_graph(rng, rng.randint(2, 10), p=0.5)
        try:
            d = diameter(g)
        except DisconnectedGraph:
            continue
        dists = [shortest_distance(g, u, v)
                 for u in range(g.n) for v in range(g.n)]
        assert d == max(dists)
        checked += 1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 5)}))
    g = Graph.from_edges(3, [(2, 0), (0, 2)])
    assert g.edges == frozenset({(0, 2)})
