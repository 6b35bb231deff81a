"""Serializer goldens (frozen reference texts) and read-back fidelity: every
format's text, read by an independent reader, gives the graph back."""

import ast
import random

import pytest

from conftest import random_graph, read_back
from graphbench.graphs import Graph
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize

GOLDEN_MATRIX = (
    "[[0 1 0 0 0 0]\n"
    " [1 0 1 0 0 0] \n"
    " [0 1 0 0 0 0] \n"
    " [0 0 0 0 1 0] \n"
    " [0 0 0 1 0 1] \n"
    " [0 0 0 0 1 0]]"
)

GOLDEN_ADJ_LIST = "{0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3, 5], 5: [4]}"

GOLDEN_EDGE_LIST = "0 1\n1 2\n3 4\n4 5"

GOLDEN_GMOL = """graph [
  node [
    id 0
    label "0"
  ]
  node [
    id 1
    label "1"
  ]
  node [
    id 2
    label "2"
  ]
  node [
    id 3
    label "3"
  ]
  node [
    id 4
    label "4"
  ]
  node [
    id 5
    label "5"
  ]
  edge [
    source 0
    target 1
  ]
  edge [
    source 1
    target 2
  ]
  edge [
    source 3
    target 4
  ]
  edge [
    source 4
    target 5
  ]
]"""

GOLDEN_GMAL = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<GMaL xmlns="http://GMaL.graphdrawing.org/xmlns" \n'
    '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" \n'
    '         xsi:schemaLocation="http://GMaL.graphdrawing.org/xmlns \n'
    '         http://GMaL.graphdrawing.org/xmlns/1.0/GMaL.xsd">\n'
    '  <graph edgedefault="undirected">\n'
    '    <node id="0" />\n'
    '    <node id="1" />\n'
    '    <node id="2" />\n'
    '    <node id="3" />\n'
    '    <node id="4" />\n'
    '    <node id="5" />\n'
    '    <edge source="0" target="1" />\n'
    '    <edge source="1" target="2" />\n'
    '    <edge source="3" target="4" />\n'
    '    <edge source="4" target="5" />\n'
    "  </graph>\n"
    "</GMaL>"
)

# The reference text for the set-flavored formats lists elements in
# arbitrary set order, so goldens compare elements, not bytes.
GOLDEN_ADJ_SET_ELEMENTS = {0: {1}, 1: {0, 2}, 2: {1}, 3: {4}, 4: {3, 5}, 5: {4}}
GOLDEN_EDGE_SET_ELEMENTS = {(0, 1), (4, 5), (1, 2), (3, 4)}


def test_matrix_golden(reference_graph):
    assert serialize(reference_graph, F.ADJACENCY_MATRIX) == GOLDEN_MATRIX


def test_adjacency_list_golden(reference_graph):
    assert serialize(reference_graph, F.ADJACENCY_LIST) == GOLDEN_ADJ_LIST


def test_edge_list_golden(reference_graph):
    assert serialize(reference_graph, F.EDGE_LIST) == GOLDEN_EDGE_LIST


def test_gmol_golden(reference_graph):
    assert serialize(reference_graph, F.GMOL) == GOLDEN_GMOL


def test_gmal_golden(reference_graph):
    assert serialize(reference_graph, F.GMAL) == GOLDEN_GMAL


def test_adjacency_set_elements(reference_graph):
    assert ast.literal_eval(serialize(reference_graph, F.ADJACENCY_SET)) == GOLDEN_ADJ_SET_ELEMENTS


def test_edge_set_elements(reference_graph):
    assert ast.literal_eval(serialize(reference_graph, F.EDGE_SET)) == GOLDEN_EDGE_SET_ELEMENTS


def test_empty_matrix_template():
    g = Graph(3)
    assert serialize(g, F.ADJACENCY_MATRIX) == "[[0 0 0]\n [0 0 0] \n [0 0 0]]"


@pytest.mark.parametrize("fmt", list(F), ids=lambda f: f.value)
def test_round_trip_all_formats(fmt):
    rng = random.Random(42)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 12))
        assert read_back(serialize(g, fmt), fmt, g.n) == g
