"""Graph -> text conversion for the seven serialization formats.

Each format is one row of `SerializationFormat`: its token, its prompt
wording and its renderer, so no format lacks a renderer. Rendering is
canonical and deterministic: nodes ascending, adjacency lists ascending,
edges lexicographic with u < v. The text is written for the model to read;
nothing in the package reads a graph back from it.
"""

from __future__ import annotations

import enum

from .graphs import Graph


def _render_matrix(g: Graph) -> str:
    if g.n == 0:
        return "[]"
    rows = []
    for u in range(g.n):
        row = ["0"] * g.n
        for v in g.neighbors(u):
            row[v] = "1"
        cells = " ".join(row)
        open_b = "[[" if u == 0 else " ["
        close_b = "]]" if u == g.n - 1 else "]"
        # Middle rows carry one trailing space, matching the reference text.
        pad = " " if 0 < u < g.n - 1 else ""
        rows.append(f"{open_b}{cells}{close_b}{pad}")
    return "\n".join(rows)


def _render_adjacency_list(g: Graph) -> str:
    items = ", ".join(f"{u}: [{', '.join(map(str, g.neighbors(u)))}]" for u in range(g.n))
    return "{" + items + "}"


def _render_adjacency_set(g: Graph) -> str:
    items = ", ".join(f"{u}: {{{', '.join(map(str, g.neighbors(u)))}}}" for u in range(g.n))
    return "{" + items + "}"


def _render_edge_list(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edge_list())


def _render_edge_set(g: Graph) -> str:
    return "{" + ", ".join(f"({u}, {v})" for u, v in g.edge_list()) + "}"


def _render_gmol(g: Graph) -> str:
    parts = ["graph ["]
    for u in range(g.n):
        parts.append(f"  node [\n    id {u}\n    label \"{u}\"\n  ]")
    for u, v in g.edge_list():
        parts.append(f"  edge [\n    source {u}\n    target {v}\n  ]")
    parts.append("]")
    return "\n".join(parts)


# Header reproduced verbatim from the reference rendering, including the
# attribute value that wraps across lines and the trailing blanks before
# each line break.
_GMAL_HEADER = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<GMaL xmlns="http://GMaL.graphdrawing.org/xmlns" \n'
    '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" \n'
    '         xsi:schemaLocation="http://GMaL.graphdrawing.org/xmlns \n'
    '         http://GMaL.graphdrawing.org/xmlns/1.0/GMaL.xsd">\n'
    '  <graph edgedefault="undirected">\n'
)


def _render_gmal(g: Graph) -> str:
    out = [_GMAL_HEADER]
    for u in range(g.n):
        out.append(f'    <node id="{u}" />\n')
    for u, v in g.edge_list():
        out.append(f'    <edge source="{u}" target="{v}" />\n')
    out.append("  </graph>\n</GMaL>")
    return "".join(out)


class SerializationFormat(enum.Enum):
    """The seven formats. `value` is the CLI/JSONL token, `display_name` the
    prompt wording and `render` the function that writes a graph's text."""

    # One row per format: token, display name, renderer.
    ADJACENCY_MATRIX = ("adjacency_matrix", "Adjacency Matrix",         _render_matrix)
    ADJACENCY_LIST =   ("adjacency_list",   "Adjacency List",           _render_adjacency_list)
    ADJACENCY_SET =    ("adjacency_set",    "Adjacency Set",            _render_adjacency_set)
    EDGE_LIST =        ("edge_list",        "Edge List",                _render_edge_list)
    EDGE_SET =         ("edge_set",         "Edge Set",                 _render_edge_set)
    GMOL =             ("gmol",             "Graph Modelling Language", _render_gmol)
    GMAL =             ("gmal",             "GraphML",                  _render_gmal)

    def __new__(cls, token, display_name, render):
        member = object.__new__(cls)
        member._value_ = token
        member.display_name = display_name
        member.render = render
        return member


def serialize(g: Graph, fmt: SerializationFormat) -> str:
    """Deterministic canonical text for the graph in the given format.

    A pure function: a caller that needs a text more than once keeps it
    (`prompts.Renderer` does, for every prompt a command composes).
    """
    return fmt.render(g)
