"""Key-phrase extraction and the rule-based verifiers, including the
exhaustive BFS-order oracle."""

import itertools
import random

from conftest import random_graph
from graphbench.answer_eval import extract, score
from graphbench.graphs import Graph, verify_bfs_order, verify_shortest_path
from graphbench.tasks import TaskKind as T


# -- extraction --------------------------------------------------------------

def test_extract_triangle_number():
    text = ("To count triangles, list each triple {i,j,k} with i<j<k and check all "
            "three edges. Doing so yields these 17 distinct triangles: ... "
            "So the number of triangles is 17.")
    assert extract(T.TRIANGLE, text) == 17


def test_extract_bfs_sequence():
    text = "The BFS traversal order starting from node 7 is 7,4,0,1,2,3,6,8,5"
    assert extract(T.BFS_ORDER, text) == [7, 4, 0, 1, 2, 3, 6, 8, 5]


def test_extract_bfs_sequence_with_spaces():
    text = "Thus, the BFS traversal order starting from node 7 is 7, 0, 9"
    assert extract(T.BFS_ORDER, text) == [7, 0, 9]


def test_extract_arrow_sequence():
    text = "Reconstructing the path gives 1 -> 0 -> 2.\n\nThe shortest path from node 1 to node 2 is 1,0,2."
    assert extract(T.SHORTEST_PATH, text) == [1, 0, 2]


def test_extract_not_found():
    assert extract(T.CYCLE, "I cannot determine this.") is None
    assert extract(T.TRIANGLE, "Hard to say.") is None


def test_extract_number_normalization():
    assert extract(T.DIAMETER, "The diameter is 4.0") == 4
    assert extract(T.DIAMETER, "the diameter of this graph is **4**.") == 4
    assert extract(T.DIAMETER, "the diameter of the given graph is 7.") == 7
    assert extract(T.TRIANGLE, "The number of triangles is 1,024.") == 1024


def test_last_occurrence_wins():
    text = ("At first glance the diameter is 3. After rechecking the distances, "
            "the diameter is 5.")
    assert extract(T.DIAMETER, text) == 5
    contradictory = ("Yes, there is a cycle in this graph. Wait, on reflection, "
                     "no, there is no cycle in this graph.")
    assert extract(T.CYCLE, contradictory) is False


def test_extract_bool_variants():
    assert extract(T.CYCLE, "yes, there is a cycle in this graph.") is True
    assert extract(T.CYCLE, "The graph is acyclic.") is False
    assert extract(T.CONNECTIVITY, "so the answer is: yes") is True
    assert extract(T.CONNECTIVITY, "there is no path between them") is False


def test_extract_hamiltonian_forms():
    yes_tour = "Yes, there is a Hamiltonian cycle in this graph. The cycle is 0,1,2,3,0."
    assert extract(T.HAMILTONIAN, yes_tour) == [0, 1, 2, 3, 0]
    yes_bare = "Yes, there is a Hamiltonian cycle in this graph."
    assert extract(T.HAMILTONIAN, yes_bare) is True
    no = "No, there is no Hamiltonian cycle in this graph."
    assert extract(T.HAMILTONIAN, no) is False
    assert extract(T.HAMILTONIAN, "The tour is 0,1,2,0.") is None


def test_extract_max_cut():
    text = "The maximum cut size is 6. The bipartition is {0, 1} and {2, 3, 4}."
    got = extract(T.MAX_CUT, text)
    assert got == {"size": 6, "partition": [[0, 1], [2, 3, 4]]}
    size_only = "The maximum cut size is 6."
    assert extract(T.MAX_CUT, size_only) == {"size": 6, "partition": None}
    repeated = "The maximum cut size is 6. The bipartition is {1, 0, 1} and {4, 2, 3}."
    assert extract(T.MAX_CUT, repeated)["partition"] == [[0, 1], [2, 3, 4]]
    edgeless = "The maximum cut size is 0. The bipartition is {0, 1, 2} and {}."
    assert extract(T.MAX_CUT, edgeless) == {"size": 0, "partition": [[0, 1, 2], []]}


# -- BFS-order verifier ------------------------------------------------------

def enumerate_bfs_orders(g: Graph, s: int) -> set[tuple[int, ...]]:
    """All sequences realizable by BFS over every neighbor permutation."""
    results: set[tuple[int, ...]] = set()

    def step(order: tuple[int, ...], queue: tuple[int, ...], visited: frozenset[int]):
        if not queue:
            results.add(order)
            return
        u, rest = queue[0], queue[1:]
        fresh = [v for v in g.neighbors(u) if v not in visited]
        if not fresh:
            step(order, rest, visited)
            return
        for perm in itertools.permutations(fresh):
            step(order + perm, rest + perm, visited | set(perm))

    step((s,), (s,), frozenset({s}))
    return results


def test_bfs_star_orders():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for perm in itertools.permutations((1, 2, 3)):
        assert verify_bfs_order(star, 0, (0, *perm))
    assert not verify_bfs_order(star, 0, (1, 0, 2, 3))


def test_bfs_path_is_forced():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_bfs_order(path, 0, (0, 1, 2))
    for seq in itertools.permutations(range(3)):
        if seq != (0, 1, 2):
            assert not verify_bfs_order(path, 0, seq)


def test_bfs_reachable_set_only():
    baf = Graph.from_edges(11, [(3, 2), (4, 1), (5, 2), (6, 5), (7, 0), (8, 2), (9, 7), (10, 3)])
    assert verify_bfs_order(baf, 7, (7, 0, 9))
    assert verify_bfs_order(baf, 7, (7, 9, 0))
    assert not verify_bfs_order(baf, 7, (7, 0))          # incomplete
    assert not verify_bfs_order(baf, 7, (7, 0, 9, 1))    # unreachable extra


def test_bfs_verifier_equals_enumeration_small():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        s = rng.randrange(n)
        valid = enumerate_bfs_orders(g, s)
        reachable = sorted(next(iter(valid)))
        for perm in itertools.permutations(reachable):
            assert verify_bfs_order(g, s, perm) == (perm in valid)


def test_bfs_verifier_accepts_all_enumerated_and_rejects_mutants():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, p=0.35)
        s = rng.randrange(n)
        valid = enumerate_bfs_orders(g, s)
        for seq in itertools.islice(iter(valid), 50):
            assert verify_bfs_order(g, s, seq)
            from graphbench.graphs import bfs_levels
            levels = bfs_levels(g, s)
            mutated = None
            for i in range(len(seq) - 1):
                for j in range(i + 1, len(seq)):
                    if levels[seq[i]] != levels[seq[j]]:
                        swapped = list(seq)
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        mutated = tuple(swapped)
                        break
                if mutated:
                    break
            if mutated:
                assert not verify_bfs_order(g, s, mutated)


# -- shortest-path verifier --------------------------------------------------

def test_shortest_path_examples():
    star = Graph.from_edges(9, [(0, k) for k in (8, 4, 3, 2, 5, 1, 6)])
    assert verify_shortest_path(star, 5, 8, (5, 0, 8))
    assert not verify_shortest_path(star, 5, 8, (5, 0, 4, 8))  # not edges/detour
    assert verify_shortest_path(star, 4, 4, (4,))
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not verify_shortest_path(g, 0, 2, (0, 1, 1, 2))  # repeats
    assert not verify_shortest_path(g, 0, 2, (0, 3, 2, 1))  # wrong endpoint


def test_shortest_path_length_must_be_minimal():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    # both directions around the cycle; 0->2 via 1 is minimal (2 hops)
    assert verify_shortest_path(g, 0, 2, (0, 1, 2))
    assert not verify_shortest_path(g, 0, 2, (0, 4, 3, 2))


# -- scoring -----------------------------------------------------------------

def test_score_exact_numbers():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert score(T.DIAMETER, g, {}, 2, 2) == 1
    assert score(T.DIAMETER, g, {}, 2, 3) == 0
    assert score(T.TRIANGLE, g, {}, 16, 17) == 0
    assert score(T.TRIANGLE, g, {}, 0, None) == 0
    assert score(T.DIAMETER, g, {}, 1, True) == 0


def test_score_bool_tasks():
    g = Graph.from_edges(3, [(0, 1)])
    assert score(T.CYCLE, g, {}, False, False) == 1
    assert score(T.CYCLE, g, {}, False, True) == 0
    assert score(T.CONNECTIVITY, g, {"u": 0, "v": 1}, True, True) == 1
    assert score(T.CONNECTIVITY, g, {"u": 0, "v": 1}, True, 1) == 0


def test_score_sequences():
    baf = Graph.from_edges(11, [(3, 2), (4, 1), (5, 2), (6, 5), (7, 0), (8, 2), (9, 7), (10, 3)])
    assert score(T.BFS_ORDER, baf, {"start": 7}, {"start": 7},
                 [7, 0, 9]) == 1
    assert score(T.BFS_ORDER, baf, {"start": 7}, {"start": 7},
                 [0, 7, 9]) == 0


def test_score_hamiltonian():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gt_true = {"exists": True, "witness": [0, 1, 2, 3]}
    assert score(T.HAMILTONIAN, c4, {}, gt_true, [0, 1, 2, 3, 0]) == 1
    assert score(T.HAMILTONIAN, c4, {}, gt_true, [0, 2, 1, 3]) == 0
    assert score(T.HAMILTONIAN, c4, {}, gt_true, True) == 0  # no witness
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    gt_false = {"exists": False, "witness": None}
    assert score(T.HAMILTONIAN, star, {}, gt_false, False) == 1
    assert score(T.HAMILTONIAN, star, {}, gt_false, True) == 0


def test_score_max_cut_needs_size_and_partition():
    k23 = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    gt = {"size": 6, "partition": [0, 1]}
    good = {"size": 6, "partition": [[0, 1], [2, 3, 4]]}
    assert score(T.MAX_CUT, k23, {}, gt, good) == 1
    assert score(T.MAX_CUT, k23, {}, gt, {"size": 6, "partition": None}) == 0
    bad_partition = {"size": 6, "partition": [[0, 2], [1, 3, 4]]}
    assert score(T.MAX_CUT, k23, {}, gt, bad_partition) == 0
    wrong_size = {"size": 5, "partition": [[0, 1], [2, 3, 4]]}
    assert score(T.MAX_CUT, k23, {}, gt, wrong_size) == 0
    overlapping = {"size": 6, "partition": [[0, 1, 2], [2, 3, 4]]}
    assert score(T.MAX_CUT, k23, {}, gt, overlapping) == 0
    edgeless = Graph.from_edges(3, [])
    gt0 = {"size": 0, "partition": [0, 1, 2]}
    assert score(T.MAX_CUT, edgeless, {}, gt0, {"size": 0, "partition": [[0, 1, 2], []]}) == 1


def test_score_is_pure():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ans = extract(T.DIAMETER, "the diameter is 2")
    assert all(score(T.DIAMETER, g, {}, 2, ans) == 1 for _ in range(3))
