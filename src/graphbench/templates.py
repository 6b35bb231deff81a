"""Canonical prompt wording: task framings, questions, algorithm blocks,
scheme suffixes, and answer sentence templates.

Where the source corpus shows small wording drift between worked examples,
one variant is fixed here; composition code never hardcodes prose.
"""

from __future__ import annotations

from .tasks import TaskKind

# One question sentence per task, with node placeholders.
QUESTIONS: dict[TaskKind, str] = {
    TaskKind.BFS_ORDER: "Give the bfs traversal order starting from node {start}.",
    TaskKind.CYCLE: "Is there a cycle in this graph?",
    TaskKind.CONNECTIVITY: "Is there a path between node {u} and node {v}?",
    TaskKind.DIAMETER: "What is the diameter of this graph?",
    TaskKind.SHORTEST_PATH: "Give the shortest path from node {u} to node {v}.",
    TaskKind.TRIANGLE: "How many triangles are in this graph?",
    TaskKind.HAMILTONIAN: "Is there a Hamiltonian cycle in this graph?",
    TaskKind.MAX_CUT: "Give the maximum cut size and the corresponding bipartition of this graph.",
}

# Task framing sentence that opens each prompt item.
FRAMINGS: dict[TaskKind, str] = {
    TaskKind.BFS_ORDER: ("Given a graph, your task is to determine the bfs traversal order "
                         "of this graph starting at node {start}."),
    TaskKind.CYCLE: "Given a graph representation, your task is to determine whether the graph has a cycle.",
    TaskKind.CONNECTIVITY: "Determine if there is a path between two nodes in the graph.",
    TaskKind.DIAMETER: "Given a graph, your task is to determine the diameter of this graph.",
    TaskKind.SHORTEST_PATH: ("Given a graph representation, your task is to compute shortest path "
                             "between the specified two nodes."),
    TaskKind.TRIANGLE: "Given a graph, your task is to determine how many triangles in this graph.",
    TaskKind.HAMILTONIAN: ("Given a graph representation, your task is to determine whether "
                           "the graph has a Hamiltonian cycle."),
    TaskKind.MAX_CUT: "Given a graph, your task is to determine the maximum cut of this graph.",
}

# Sentence that introduces the serialized graph; {fmt} is the display name.
GRAPH_CONNECTOR = "And the graph representation of: {fmt} is"

# Procedural description blocks for the Algorithm-style schemes. The first
# five are the established wordings for these tasks; the last three follow
# the same register.
ALGORITHM_BLOCKS: dict[TaskKind, str] = {
    TaskKind.BFS_ORDER: (
        "To determine the BFS (Breadth-First Search) traversal order, you need to follow these steps:\n"
        "1. Initialize: Start by choosing a starting node and enqueue it into a queue.\n"
        "2. Mark visited: Mark the starting node as visited to avoid reprocessing.\n"
        "3. Traverse: While the queue is not empty: Dequeue a node and add it to the traversal order. "
        "For each unvisited neighboring node of the dequeued node, enqueue it and mark it as visited.\n"
        "4.Continue the process until all reachable nodes are visited."
    ),
    TaskKind.CONNECTIVITY: (
        "To determine if there is a path between two nodes in an undirected graph, "
        "we can use a Breadth-First Search (BFS) algorithm.\n"
        "BFS is an algorithm that starts at one node and explores all of its neighbors "
        "before moving on to the next level of neighbors.\n"
        "By exploring each node in the graph, the algorithm can determine if there is "
        "a path between two nodes."
    ),
    TaskKind.CYCLE: (
        "To determine whether or not there is a cycle in an undirected graph, "
        "you can use a depth-first search algorithm to traverse the graph.\n"
        "If the algorithm ever returns to a node it has already visited, "
        "then it has detected a cycle in the graph."
    ),
    TaskKind.DIAMETER: (
        "To calculate the diameter of the graph, you can use BFS based on the following tips\n"
        "1. identify all nodes in the graph.\n"
        "2. For each node in the graph , perform BFS to compute the shortest path from that node "
        "to all other nodes.\n"
        "3. calculate the shortest path from node u to all other nodes.\n"
        "4. Find the longest shortest path.\n"
        "5. Repeat the process and update the diameter of the graph.\n"
        "6. Return the diameter of the graph."
    ),
    TaskKind.SHORTEST_PATH: (
        "We can use a Depth-First Search (DFS) algorithm to find the shortest path "
        "between two given nodes in an undirected graph.\n"
        "The basic idea is to start at one of the nodes and use DFS to explore all of its "
        "adjacent nodes. At each node, you can keep track of the distance it takes to reach "
        "that node from the starting node.\n"
        "Once you have explored all the adjacent nodes, you can backtrack and pick the node "
        "which has the shortest distance to reach the destination node."
    ),
    TaskKind.TRIANGLE: (
        "To count the triangles in an undirected graph, you can check every set of three nodes:\n"
        "1. Enumerate: Go through each combination of three distinct nodes in the graph.\n"
        "2. Check edges: For each combination, verify that all three connecting edges exist.\n"
        "3. Count: Increase the count by one for every combination whose three edges are all present.\n"
        "4. Return the final count once every combination has been checked."
    ),
    TaskKind.HAMILTONIAN: (
        "To determine whether an undirected graph has a Hamiltonian cycle, "
        "you can use backtracking over candidate tours:\n"
        "1. Start a path at any node.\n"
        "2. Extend: Repeatedly move to an unvisited neighbor of the last node in the path.\n"
        "3. Check closure: When the path contains every node, verify an edge returns to the start.\n"
        "4. Backtrack whenever the path cannot be extended, and report the cycle if one is found."
    ),
    TaskKind.MAX_CUT: (
        "To find the maximum cut of an undirected graph, you can evaluate bipartitions:\n"
        "1. Split the nodes into two groups.\n"
        "2. Count: For each split, count the edges whose endpoints fall in different groups.\n"
        "3. Compare: Track the split with the largest crossing-edge count seen so far.\n"
        "4. Return the best count and its two groups after checking the possible splits."
    ),
}

# Trailing cue line per zero-shot scheme variant that carries one.
SUFFIXES = {
    "0-CoT": "Let's think step by step:",
    "LTM": "Let's break down this problem:",
    "0-Instruct": "Let's construct a graph with the nodes and edges first:",
}

# Instruct (the shot-bearing variant) inserts this line between the graph
# and the question of every item instead of using a trailing cue.
INSTRUCT_ITEM_LINE = "Let's construct a graph with the nodes and edges first."

# Terse answer sentences, one per answer value (see prompts.render_answer);
# these lead with the exact key phrases the answer extractor matches on. A
# Hamiltonian tour and a max-cut partition are a second sentence after the
# first, separated by one space.
GOLD_ANSWERS: dict[TaskKind, dict[str, str]] = {
    TaskKind.BFS_ORDER: {"answer": "The BFS traversal order starting from node {start} is {seq}"},
    TaskKind.SHORTEST_PATH: {"answer": "The shortest path from node {u} to node {v} is {seq}."},
    TaskKind.CYCLE: {
        "yes": "Yes, there is a cycle in this graph.",
        "no": "No, there is no cycle in this graph.",
    },
    TaskKind.CONNECTIVITY: {
        "yes": "Yes, there is a path between node {u} and node {v}.",
        "no": "No, there is no path between node {u} and node {v}.",
    },
    TaskKind.DIAMETER: {"answer": "The diameter of this graph is {value}."},
    TaskKind.TRIANGLE: {"answer": "The number of triangles is {value}."},
    TaskKind.HAMILTONIAN: {
        "yes": "Yes, there is a Hamiltonian cycle in this graph.",
        "tour": "The cycle is {seq}.",
        "no": "No, there is no Hamiltonian cycle in this graph.",
    },
    TaskKind.MAX_CUT: {
        "answer": "The maximum cut size is {size}.",
        "partition": "The bipartition is {{{side_a}}} and {{{side_b}}}.",
    },
}
