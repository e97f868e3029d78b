"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_no_module_reads_the_edges_view():
    # WeightedGraph.edges builds a list of m tuples on every read, so the
    # package, graph.py included, reads the u, v and w columns instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]
    assert found == []


def test_no_module_calls_build_graph():
    # build_graph checks Python triples one at a time; the generators and
    # the loader hand their columns to the normaliser behind it directly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "build_graph" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_package_imports_only_the_standard_library_numpy_and_itself():
    # numpy is the one declared dependency; anything else installed in a
    # test environment (scipy, say) would pass here and break installs.
    allowed = set(sys.stdlib_module_names) | {"numpy", "spanforge"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_only_cli_main_writes_to_stderr():
    # Commands raise; main alone maps an exception to its exit code and
    # its one stderr line.
    tree = ast.parse(next(p for p in SOURCES if p.name == "cli.py").read_text(encoding="utf-8"))
    found = sorted({
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    })
    assert found == ["main"]


def test_the_cli_and_gen_gnp_leave_numpy_random_unloaded():
    # Importing numpy.random costs about 10 ms and 5 MiB of resident memory;
    # gen_gnp reads the Mersenne Twister words of random.Random instead.
    src = str(Path(spanforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, spanforge.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "spanforge.gen_gnp(30, 0.2, ('uniform', 1.0, 2.0), 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_the_build_path_has_no_stable_sort():
    # numpy's stable sort of floats is a timsort, several times slower than
    # its default sort.  weight_order alone gives a stable order, and only
    # where the default sort leaves ties.
    found = []
    for path in SOURCES:
        if path.name not in {"graph.py", "spanner.py", "clustering.py"}:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for top in ast.walk(tree)
            if isinstance(top, ast.FunctionDef) and top.name == "weight_order"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            for kw in node.keywords:
                value = getattr(kw.value, "value", None)
                if (kw.arg == "kind" and value in ("stable", "mergesort")) or (
                    kw.arg == "return_index" and value is not False
                ):
                    found.append(f"{path.name}:{node.lineno} {kw.arg}={value!r}")
    assert SOURCES
    assert found == []


def test_check_radius_measures_the_trees_without_the_construction():
    # The radius certificate re-measures depths from parent pointers, so it
    # must not trust the stored depth or reuse the code that built the trees.
    tree = ast.parse(next(p for p in SOURCES if p.name == "clustering.py").read_text(encoding="utf-8"))
    body = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "check_radius")
    found = [
        f"line {node.lineno}"
        for node in ast.walk(body)
        if (isinstance(node, ast.Attribute) and node.attr == "depth")
        or (isinstance(node, ast.Name) and node.id in {"compose", "contract", "grow_clusters"})
    ]
    assert found == []


def test_bellman_ford_relaxes_the_edge_columns_without_the_arc_table():
    # bellman_ford is the cross-check of the Dijkstra and BFS oracles, so it
    # must not read the arc table that they all share.
    tree = ast.parse(next(p for p in SOURCES if p.name == "oracles.py").read_text(encoding="utf-8"))
    body = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "bellman_ford")
    found = [
        f"line {node.lineno}"
        for node in ast.walk(body)
        if isinstance(node, ast.Name) and node.id in {"arcs", "Arcs", "_batched_dijkstra", "_dijkstra_on"}
    ]
    assert found == []
