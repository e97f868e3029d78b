"""Rules on the package source itself."""

import ast
from pathlib import Path

import spanforge

SOURCES = sorted(Path(spanforge.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips asserts; invariants must raise real exceptions.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_only_graph_module_reads_the_edges_view():
    # WeightedGraph.edges builds a list of m tuples on every read, so the
    # rest of the package reads the u, v and w columns instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]
    assert found == []
