"""Benchmark tasks, each declared once.

Each task is a `Task` subclass, and `TASKS` maps every `TaskKind` to its one
instance; the rest of the package looks a task up there instead of branching
on its kind. A task holds everything that differs between tasks:
  - the graph families it draws from and how (the NP node cap, a connected
    draw);
  - its prompt wording: question, framing, algorithm block and answer
    sentences;
  - its parameter sampler, its oracle and the check of a stored ground truth;
  - its answer codec: gold value, rendering, extraction, scoring, a wrong
    value and a narrated worked answer;
  - its guessing baseline.

An answer is a plain JSON value, the same one result records store in
`extracted`; `render` writes it as a sentence and `extract` reads it back:
  - cycle, connectivity: bool;
  - diameter, triangle: int;
  - bfs_order, shortest_path: list of node ids;
  - hamiltonian: the tour as a list of node ids, or a bool for "no" and for
    a "yes" without a readable tour;
  - max_cut: {"size": int, "partition": [sorted side, sorted side] | None};
  - None when nothing is found, which scores 0.

Extraction scans the response case-insensitively for task-specific key
phrases loaded from data/answer_patterns.txt; when a phrase occurs more than
once the last occurrence wins (models tend to restate their final answer at
the end). Scoring is strictly 0/1 against the query's ground truth, with
verifiers for the tasks that have more than one valid answer.

Oracles are called through the `graphs` module (`graphs.diameter(g)`), so a
tracer that rebinds the module's functions sees every call.
"""

from __future__ import annotations

import enum
import math
import random
import re
from importlib import resources
from typing import TYPE_CHECKING, Any, Sequence

from . import graphs
from .errors import ExhaustedAttempts
from .generators import DifficultySplit, GraphFamily
from .graphs import Graph

if TYPE_CHECKING:
    from .corpus import QuerySpec


class TaskKind(enum.Enum):
    """The six canonical tasks plus the two NP-hard extensions.

    Values are the tokens used in CLI flags and JSONL records.
    """

    CONNECTIVITY = "connectivity"
    CYCLE = "cycle"
    DIAMETER = "diameter"
    BFS_ORDER = "bfs_order"
    SHORTEST_PATH = "shortest_path"
    TRIANGLE = "triangle"
    HAMILTONIAN = "hamiltonian"
    MAX_CUT = "max_cut"


def _load_patterns() -> dict[tuple[str, str], list[re.Pattern]]:
    table: dict[tuple[str, str], list[re.Pattern]] = {}
    text = resources.files("graphbench").joinpath("data/answer_patterns.txt").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        task, kind, pattern = line.split("\t", 2)
        table.setdefault((task, kind), []).append(re.compile(pattern, re.IGNORECASE))
    return table


_PATTERNS = _load_patterns()

# Value parsing after a matched key phrase.
_NUMBER_AFTER = re.compile(r"[\s*_`:~\[]*([0-9][0-9,]*(?:\.[0-9]+)?)")
_SEQ_TOKEN = re.compile(r"\d+")
_SET_RE = re.compile(r"\{\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\}")


def _strip_markup(text: str) -> str:
    return text.replace("**", "").replace("__", "").replace("`", "")


def _parse_number(tail: str) -> int | None:
    """A nonnegative integer immediately following a key phrase.

    Normalizes markdown emphasis, thousands separators, and a float form
    with an integral value ("4.0" -> 4).
    """
    m = _NUMBER_AFTER.match(_strip_markup(tail))
    if not m:
        return None
    token = m.group(1).replace(",", "")
    value = float(token)
    if value != int(value):
        return None
    return int(value)


def _parse_sequence(tail: str) -> list[int] | None:
    """A run of integers separated by commas, arrows, or spaces."""
    tail = _strip_markup(tail)
    run = re.match(r"[\s:]*((?:\d+\s*(?:,|->|→|-->|=>|\s)\s*)*\d+)", tail)
    if not run:
        return None
    return [int(t) for t in _SEQ_TOKEN.findall(run.group(1))]


def _last_match(patterns: list[re.Pattern], text: str) -> re.Match | None:
    """Highest-priority pattern wins; within it, the last occurrence."""
    for pat in patterns:
        matches = list(pat.finditer(text))
        if matches:
            return matches[-1]
    return None


def _extract_bool(task_token: str, text: str) -> bool | None:
    """Resolve yes/no from the latest affirmation or negation phrase."""
    best: tuple[int, bool] | None = None
    for kind, value in (("yes", True), ("no", False)):
        for pat in _PATTERNS.get((task_token, kind), []):
            for m in pat.finditer(text):
                if best is None or m.end() > best[0]:
                    best = (m.end(), value)
    return best[1] if best else None


def _extract_number(task_token: str, text: str) -> int | None:
    m = _last_match(_PATTERNS.get((task_token, "number"), []), text)
    if m is None:
        return None
    if "value" in m.re.groupindex:
        return _parse_number(m.group("value"))
    return _parse_number(text[m.end():])


def _extract_sequence(task_token: str, text: str) -> list[int] | None:
    m = _last_match(_PATTERNS.get((task_token, "sequence"), []), text)
    if m is None:
        return None
    return _parse_sequence(text[m.end():])


def _extract_partition(text: str) -> list[list[int]] | None:
    """The last two brace-delimited integer sets in the response, each
    deduplicated and sorted; "{}" is an empty side."""
    sets = _SET_RE.findall(text)
    if len(sets) < 2:
        return None
    return [sorted({int(t) for t in _SEQ_TOKEN.findall(s)}) for s in sets[-2:]]


def _seq(nodes: list[int]) -> str:
    return ",".join(map(str, nodes))


class Task:
    """One benchmark task. A subclass sets the class attributes below and
    defines:
      - `oracle(g, params)`: the ground truth, JSON-serializable and
        re-derivable from (task, edges, params), which is what the corpus
        selfcheck relies on;
      - `render(params, value)`: a terse sentence stating an answer value,
        leading with the key phrase `extract` matches on;
      - `extract(response)`: the answer value in free-form response text,
        None when nothing is found (not an error: it simply scores 0);
      - `score(g, params, gt, ans)`: the 0/1 score of an answer value, 0
        for a value of the wrong type for the task (None included);
      - `wrong(n, gold)`: the gold value changed so that it scores 0 on an
        n-node graph;
      - `steps(g, params, gt)`: the worked reasoning `narrate` puts before
        the answer.
    The other methods' defaults suit a task whose parameters are none,
    whose gold value is its ground truth and whose answers are too many to
    guess."""

    kind: TaskKind
    # The generator families the task draws from.
    families: frozenset[GraphFamily]
    # Whether node counts stop at graphs.NP_NODE_CAP, above which the
    # task's exact oracle refuses a graph.
    np_hard = False
    # Whether a draw is redrawn until the graph is connected.
    connected = False
    # The question sentence and the framing sentence that opens each
    # prompt item, with node placeholders, and the procedural block of the
    # Algorithm-style schemes.
    question: str
    framing: str
    algorithm: str

    @property
    def param_names(self) -> set[str]:
        """The names of the task's node parameters: its question's
        placeholders."""
        return set(re.findall(r"\{(\w+)\}", self.question))

    def sample_params(self, g: Graph, rng: random.Random) -> dict[str, int]:
        """The task's node parameters, drawn from `rng`; raises
        ExhaustedAttempts for a graph the task cannot use."""
        return {}

    def truth_matches(self, g: Graph, params: dict[str, int], stored: Any) -> bool:
        """Whether a stored ground truth agrees with a fresh oracle run."""
        return stored == self.oracle(g, params)

    def gold(self, g: Graph, params: dict[str, int], gt: Any) -> Any:
        """The correct answer value, in the form `extract` returns."""
        return gt

    def narrate(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        """Stepwise worked answer for the CoT/Instruct/Algorithm exemplar
        styles. It closes with the terse gold sentence so that rule
        extraction lands on the final statement."""
        return f"{self.steps(g, params, gt)} {self.render(params, self.gold(g, params, gt))}"

    def baseline(self, corpus: Sequence["QuerySpec"]) -> float:
        """Exact expected accuracy of guessing on a corpus of this task;
        0 for answers too many to guess (node sequences, a cut with its
        partition)."""
        return 0.0


class YesNoTask(Task):
    """A task answered yes or no; the guessing policy answers yes."""

    yes: str
    no: str

    def label(self, gt: Any) -> bool:
        """The yes/no answer a ground truth states."""
        return gt

    def render(self, params: dict[str, int], value: Any) -> str:
        return (self.yes if value else self.no).format(**params)

    def extract(self, response: str) -> Any:
        return _extract_bool(self.kind.value, response)

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        return int(type(ans) is bool and ans == gt)

    def wrong(self, n: int, gold: Any) -> Any:
        return not gold

    def baseline(self, corpus: Sequence["QuerySpec"]) -> float:
        """Answering yes is right on the corpus's yes-labelled share."""
        return sum(bool(self.label(q.ground_truth)) for q in corpus) / len(corpus)


class CountTask(Task):
    """A task answered with one count; the guessing policy draws it
    uniformly from [1, guess_bound(query)], a bound each subclass defines."""

    answer: str

    def render(self, params: dict[str, int], value: Any) -> str:
        return self.answer.format(value=value)

    def extract(self, response: str) -> Any:
        return _extract_number(self.kind.value, response)

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        return int(type(ans) is int and ans == gt)

    def wrong(self, n: int, gold: Any) -> Any:
        return gold + 1

    def baseline(self, corpus: Sequence["QuerySpec"]) -> float:
        total = 0.0
        for q in corpus:
            bound = self.guess_bound(q)
            if 1 <= q.ground_truth <= bound:
                total += 1.0 / bound
        return total / len(corpus)


class Connectivity(YesNoTask):
    kind = TaskKind.CONNECTIVITY
    # BAG is connected by construction, so its answer would always be yes.
    families = frozenset({GraphFamily.BAF, GraphFamily.BERM, GraphFamily.BERP,
                          GraphFamily.ERM, GraphFamily.ERP})
    question = "Is there a path between node {u} and node {v}?"
    framing = "Determine if there is a path between two nodes in the graph."
    algorithm = (
        "To determine if there is a path between two nodes in an undirected graph, "
        "we can use a Breadth-First Search (BFS) algorithm.\n"
        "BFS is an algorithm that starts at one node and explores all of its neighbors "
        "before moving on to the next level of neighbors.\n"
        "By exploring each node in the graph, the algorithm can determine if there is "
        "a path between two nodes."
    )
    yes = "Yes, there is a path between node {u} and node {v}."
    no = "No, there is no path between node {u} and node {v}."

    def sample_params(self, g: Graph, rng: random.Random) -> dict[str, int]:
        u, v = rng.sample(range(g.n), 2)
        return {"u": u, "v": v}

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        return graphs.connected(g, params["u"], params["v"])

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        u, v = params["u"], params["v"]
        levels = graphs.bfs_levels(g, u)
        if gt:
            return f"A breadth-first search from node {u} reaches node {v} after {levels[v]} steps."
        reach = ", ".join(map(str, sorted(levels)))
        return (f"A breadth-first search from node {u} visits only "
                f"{{{reach}}}, which does not include node {v}.")


class Cycle(YesNoTask):
    kind = TaskKind.CYCLE
    # BAF is a forest by construction, so its answer would always be no.
    families = frozenset({GraphFamily.BAG, GraphFamily.BERM, GraphFamily.BERP,
                          GraphFamily.ERM, GraphFamily.ERP, GraphFamily.SF})
    question = "Is there a cycle in this graph?"
    framing = "Given a graph representation, your task is to determine whether the graph has a cycle."
    algorithm = (
        "To determine whether or not there is a cycle in an undirected graph, "
        "you can use a depth-first search algorithm to traverse the graph.\n"
        "If the algorithm ever returns to a node it has already visited, "
        "then it has detected a cycle in the graph."
    )
    yes = "Yes, there is a cycle in this graph."
    no = "No, there is no cycle in this graph."

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        return graphs.has_cycle(g)

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        if gt:
            return ("Following the edges, a walk returns to an already visited node "
                    "without reusing an edge, which closes a loop.")
        return "Every component here is a tree, so no walk can return to its start."


class Diameter(CountTask):
    kind = TaskKind.DIAMETER
    connected = True
    # Distances must be finite: draws are redrawn until connected, and the
    # forest and the bipartite families are left out.
    families = frozenset({GraphFamily.BAG, GraphFamily.ERM, GraphFamily.ERP, GraphFamily.SF})
    question = "What is the diameter of this graph?"
    framing = "Given a graph, your task is to determine the diameter of this graph."
    algorithm = (
        "To calculate the diameter of the graph, you can use BFS based on the following tips\n"
        "1. identify all nodes in the graph.\n"
        "2. For each node in the graph , perform BFS to compute the shortest path from that node "
        "to all other nodes.\n"
        "3. calculate the shortest path from node u to all other nodes.\n"
        "4. Find the longest shortest path.\n"
        "5. Repeat the process and update the diameter of the graph.\n"
        "6. Return the diameter of the graph."
    )
    answer = "The diameter of this graph is {value}."

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        return graphs.diameter(g)

    def guess_bound(self, query: "QuerySpec") -> int:
        # The true diameter of a connected graph lies in [1, N].
        return query.n

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        return (f"Running BFS from every node and taking the longest of the shortest "
                f"paths gives {gt}.")


class BfsOrder(Task):
    kind = TaskKind.BFS_ORDER
    families = frozenset(GraphFamily)
    question = "Give the bfs traversal order starting from node {start}."
    framing = ("Given a graph, your task is to determine the bfs traversal order "
               "of this graph starting at node {start}.")
    algorithm = (
        "To determine the BFS (Breadth-First Search) traversal order, you need to follow these steps:\n"
        "1. Initialize: Start by choosing a starting node and enqueue it into a queue.\n"
        "2. Mark visited: Mark the starting node as visited to avoid reprocessing.\n"
        "3. Traverse: While the queue is not empty: Dequeue a node and add it to the traversal order. "
        "For each unvisited neighboring node of the dequeued node, enqueue it and mark it as visited.\n"
        "4.Continue the process until all reachable nodes are visited."
    )
    answer = "The BFS traversal order starting from node {start} is {seq}"

    def sample_params(self, g: Graph, rng: random.Random) -> dict[str, int]:
        return {"start": rng.randrange(g.n)}

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        return {"start": params["start"]}

    def gold(self, g: Graph, params: dict[str, int], gt: Any) -> Any:
        return list(graphs.bfs_levels(g, params["start"]))

    def render(self, params: dict[str, int], value: Any) -> str:
        return self.answer.format(start=params["start"], seq=_seq(value))

    def extract(self, response: str) -> Any:
        return _extract_sequence(self.kind.value, response)

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        return int(isinstance(ans, list) and graphs.verify_bfs_order(g, params["start"], ans))

    def wrong(self, n: int, gold: Any) -> Any:
        # Swap the first two nodes; a lone start node is repeated instead.
        return [*gold[1:2], gold[0], *gold[2:]] if len(gold) > 1 else gold * 2

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        s = params["start"]
        steps = []
        seen = {s}
        for u in graphs.bfs_levels(g, s):
            fresh = [v for v in g.neighbors(u) if v not in seen]
            seen.update(fresh)
            if fresh:
                steps.append(f"Dequeue node {u}. The unvisited neighbors are "
                             f"[{', '.join(map(str, fresh))}], so enqueue them in order.")
            else:
                steps.append(f"Dequeue node {u}. All of its neighbors are already visited.")
        return " ".join(steps) + " The traversal ends."


class ShortestPath(Task):
    kind = TaskKind.SHORTEST_PATH
    families = frozenset(GraphFamily)
    question = "Give the shortest path from node {u} to node {v}."
    framing = ("Given a graph representation, your task is to compute shortest path "
               "between the specified two nodes.")
    algorithm = (
        "We can use a Depth-First Search (DFS) algorithm to find the shortest path "
        "between two given nodes in an undirected graph.\n"
        "The basic idea is to start at one of the nodes and use DFS to explore all of its "
        "adjacent nodes. At each node, you can keep track of the distance it takes to reach "
        "that node from the starting node.\n"
        "Once you have explored all the adjacent nodes, you can backtrack and pick the node "
        "which has the shortest distance to reach the destination node."
    )
    answer = "The shortest path from node {u} to node {v} is {seq}."

    def sample_params(self, g: Graph, rng: random.Random) -> dict[str, int]:
        """A node pair redrawn until it is connected; an edgeless graph,
        which has none, raises ExhaustedAttempts before drawing anything."""
        if g.m == 0:
            raise ExhaustedAttempts("an edgeless graph has no connected node pair")
        for _ in range(1000):
            u, v = rng.sample(range(g.n), 2)
            if graphs.connected(g, u, v):
                return {"u": u, "v": v}
        raise ExhaustedAttempts("no connected node pair found")

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        u, v = params["u"], params["v"]
        dist = graphs.shortest_distance(g, u, v)
        if dist is None:
            raise ValueError(f"shortest-path query over unreachable pair ({u}, {v})")
        return {"src": u, "dst": v, "dist": dist}

    def gold(self, g: Graph, params: dict[str, int], gt: Any) -> Any:
        return graphs.shortest_path(g, params["u"], params["v"])

    def render(self, params: dict[str, int], value: Any) -> str:
        return self.answer.format(u=params["u"], v=params["v"], seq=_seq(value))

    def extract(self, response: str) -> Any:
        return _extract_sequence(self.kind.value, response)

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        return int(isinstance(ans, list)
                   and graphs.verify_shortest_path(g, params["u"], params["v"], ans))

    def wrong(self, n: int, gold: Any) -> Any:
        return gold[:1]

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        u, v = params["u"], params["v"]
        path = graphs.shortest_path(g, u, v)
        hops = " -> ".join(map(str, path))
        return (f"We run a breadth-first search from node {u} and reach node {v} "
                f"after {len(path) - 1} steps via {hops}.")


class Triangle(CountTask):
    kind = TaskKind.TRIANGLE
    # The bipartite families and the forest cannot form a triangle.
    families = frozenset({GraphFamily.BAG, GraphFamily.ERM, GraphFamily.ERP, GraphFamily.SF})
    question = "How many triangles are in this graph?"
    framing = "Given a graph, your task is to determine how many triangles in this graph."
    algorithm = (
        "To count the triangles in an undirected graph, you can check every set of three nodes:\n"
        "1. Enumerate: Go through each combination of three distinct nodes in the graph.\n"
        "2. Check edges: For each combination, verify that all three connecting edges exist.\n"
        "3. Count: Increase the count by one for every combination whose three edges are all present.\n"
        "4. Return the final count once every combination has been checked."
    )
    answer = "The number of triangles is {value}."
    # The guessing policy's largest count per split, below the node count's
    # C(N, 3).
    caps = {DifficultySplit.EASY: 50, DifficultySplit.MEDIUM: 120, DifficultySplit.HARD: 300}

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        return graphs.triangle_count(g)

    def guess_bound(self, query: "QuerySpec") -> int:
        return max(1, min(math.comb(query.n, 3), self.caps[query.difficulty]))

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        listing = ", ".join(str(t) for t in graphs.triangles(g)[:6]) or "none"
        return f"Checking every connected triple for all three edges finds: {listing}."


class Hamiltonian(YesNoTask):
    kind = TaskKind.HAMILTONIAN
    np_hard = True
    # The families whose draws often have a Hamiltonian cycle. Their labels
    # are far from balanced: most hard items are "yes".
    families = frozenset({GraphFamily.ERM, GraphFamily.ERP, GraphFamily.BAG})
    question = "Is there a Hamiltonian cycle in this graph?"
    framing = ("Given a graph representation, your task is to determine whether "
               "the graph has a Hamiltonian cycle.")
    algorithm = (
        "To determine whether an undirected graph has a Hamiltonian cycle, "
        "you can use backtracking over candidate tours:\n"
        "1. Start a path at any node.\n"
        "2. Extend: Repeatedly move to an unvisited neighbor of the last node in the path.\n"
        "3. Check closure: When the path contains every node, verify an edge returns to the start.\n"
        "4. Backtrack whenever the path cannot be extended, and report the cycle if one is found."
    )
    yes = "Yes, there is a Hamiltonian cycle in this graph."
    no = "No, there is no Hamiltonian cycle in this graph."
    # The second sentence of a "yes" that states a tour.
    tour = "The cycle is {seq}."

    def sample_params(self, g: Graph, rng: random.Random) -> dict[str, int]:
        """None. A graph with an isolated vertex raises ExhaustedAttempts:
        it is trivially non-Hamiltonian, and the edge-only serializations
        cannot even express it."""
        if any(g.degree(u) == 0 for u in range(g.n)):
            raise ExhaustedAttempts("Hamiltonian draw has an isolated vertex")
        return {}

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        exists, tour = graphs.hamiltonian_cycle(g)
        return {"exists": exists, "witness": tour}

    def truth_matches(self, g: Graph, params: dict[str, int], stored: Any) -> bool:
        """Only the decision must agree: any valid witness is acceptable,
        and the stored one must verify when existence is claimed."""
        fresh = self.oracle(g, params)
        if not isinstance(stored, dict) or stored.get("exists") != fresh["exists"]:
            return False
        if stored.get("exists"):
            return graphs.verify_hamiltonian_tour(g, stored.get("witness") or [])
        return True

    def label(self, gt: Any) -> bool:
        return gt["exists"]

    def gold(self, g: Graph, params: dict[str, int], gt: Any) -> Any:
        return [*gt["witness"], gt["witness"][0]] if gt["exists"] else False

    def render(self, params: dict[str, int], value: Any) -> str:
        if isinstance(value, list):
            return f"{self.yes} {self.tour.format(seq=_seq(value))}"
        return super().render(params, value)

    def extract(self, response: str) -> Any:
        decision = super().extract(response)
        if decision:
            return _extract_sequence(self.kind.value, response) or True
        return decision

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        if gt["exists"]:
            # A correct positive needs the explicit decision and a tour that
            # actually verifies; the extractor only yields a tour when the
            # decision was affirmative.
            return int(isinstance(ans, list) and graphs.verify_hamiltonian_tour(g, ans))
        return int(ans is False)

    def wrong(self, n: int, gold: Any) -> Any:
        return False if gold else [*range(n), 0]

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        if gt["exists"]:
            return "Backtracking extends a path node by node until it closes into a tour."
        return "Backtracking exhausts every extension without closing a tour."


class MaxCut(Task):
    kind = TaskKind.MAX_CUT
    np_hard = True
    families = frozenset(GraphFamily)
    question = "Give the maximum cut size and the corresponding bipartition of this graph."
    framing = "Given a graph, your task is to determine the maximum cut of this graph."
    algorithm = (
        "To find the maximum cut of an undirected graph, you can evaluate bipartitions:\n"
        "1. Split the nodes into two groups.\n"
        "2. Count: For each split, count the edges whose endpoints fall in different groups.\n"
        "3. Compare: Track the split with the largest crossing-edge count seen so far.\n"
        "4. Return the best count and its two groups after checking the possible splits."
    )
    answer = "The maximum cut size is {size}."
    # The second sentence of an answer that states its partition.
    partition = "The bipartition is {{{side_a}}} and {{{side_b}}}."

    def oracle(self, g: Graph, params: dict[str, int]) -> Any:
        size, side = graphs.max_cut(g)
        return {"size": size, "partition": sorted(side)}

    def truth_matches(self, g: Graph, params: dict[str, int], stored: Any) -> bool:
        """The stored witness need only achieve the fresh maximum size."""
        fresh = self.oracle(g, params)
        if not isinstance(stored, dict) or stored.get("size") != fresh["size"]:
            return False
        side = set(stored.get("partition") or [])
        return graphs.cut_size(g, side) == fresh["size"]

    def gold(self, g: Graph, params: dict[str, int], gt: Any) -> Any:
        side_a = sorted(gt["partition"])
        side_b = sorted(set(range(g.n)) - set(side_a))
        return {"size": gt["size"], "partition": [side_a, side_b]}

    def render(self, params: dict[str, int], value: Any) -> str:
        text = self.answer.format(size=value["size"])
        if value["partition"] is None:
            return text
        side_a, side_b = (", ".join(map(str, side)) for side in value["partition"])
        return f"{text} {self.partition.format(side_a=side_a, side_b=side_b)}"

    def extract(self, response: str) -> Any:
        size = _extract_number(self.kind.value, response)
        if size is None:
            return None
        return {"size": size, "partition": _extract_partition(response)}

    def score(self, g: Graph, params: dict[str, int], gt: Any, ans: Any) -> int:
        """The claimed sides must be disjoint, stay inside the node set, and
        cover every node that carries an edge (isolated nodes cannot change
        the cut and may be omitted, e.g. when the prompt's serialization hid
        them). The claimed size and the recomputed crossing count must both
        equal the ground-truth size."""
        if not isinstance(ans, dict) or ans["size"] != gt["size"] or ans["partition"] is None:
            return 0
        side_a, side_b = (set(side) for side in ans["partition"])
        if side_a & side_b:
            return 0
        nodes = set(range(g.n))
        listed = side_a | side_b
        non_isolated = {u for u in nodes if g.degree(u) > 0}
        if not listed <= nodes or not non_isolated <= listed:
            return 0
        return 1 if graphs.cut_size(g, side_a) == gt["size"] else 0

    def wrong(self, n: int, gold: Any) -> Any:
        return {**gold, "size": gold["size"] + 1}

    def steps(self, g: Graph, params: dict[str, int], gt: Any) -> str:
        return (f"Comparing bipartitions by their crossing-edge counts, the best split "
                f"cuts {gt['size']} edges.")


TASKS: dict[TaskKind, Task] = {task.kind: task for task in (
    Connectivity(), Cycle(), Diameter(), BfsOrder(), ShortestPath(), Triangle(),
    Hamiltonian(), MaxCut())}
