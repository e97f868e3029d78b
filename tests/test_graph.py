import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanforge
import spanforge.graph
from spanforge import (
    DomainError,
    EdgeListError,
    WeightedGraph,
    build_graph,
    component_labels,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_path,
    gen_star,
    load_edge_list,
    parse_generator_spec,
    write_edge_list,
)


def roundtrip(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    return load_edge_list(io.StringIO(buf.getvalue()))


def test_load_basic():
    g = load_edge_list(io.StringIO("0 1 1.0\n1 2 2.0\n"))
    assert g.n == 3 and g.m == 2
    assert g.edges[0] == (0, 1, 1.0)
    assert g.edges[1] == (1, 2, 2.0)


def test_load_drops_self_loop():
    g = load_edge_list(io.StringIO("0 0 1.0\n"))
    assert g.n == 1 and g.m == 0


def test_load_collapses_parallel_edges():
    g = load_edge_list(io.StringIO("0 1 5\n0 1 2\n"))
    assert g.m == 1
    assert g.edges[0] == (0, 1, 2.0)


def test_load_malformed_line_reports_number():
    with pytest.raises(EdgeListError) as err:
        load_edge_list(io.StringIO("0 1 1.0\nnot an edge\n"))
    assert err.value.line == 2


def test_load_negative_weight_is_domain_error():
    with pytest.raises(DomainError):
        load_edge_list(io.StringIO("0 1 -2\n"))


def test_load_remaps_sparse_ids():
    g = load_edge_list(io.StringIO("10 40 1.5\n40 7 2.5\n"))
    assert g.n == 3
    # sorted distinct ids 7, 10, 40 -> 0, 1, 2
    assert sorted((u, v) for u, v, _ in g.edges) == [(0, 2), (1, 2)]


def test_header_preserves_isolated_vertices():
    g = load_edge_list(io.StringIO("# 3 0\n"))
    assert g.n == 3 and g.m == 0
    again = roundtrip(g)
    assert again.n == 3 and again.m == 0


def test_header_range_enforced():
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("# 2 1\n0 5 1.0\n"))


def test_roundtrip_is_idempotent_normalization():
    raw = "3 1 2.0\n1 3 1.0\n2 2 9\n0 1 4\n"
    once = load_edge_list(io.StringIO(raw))
    assert roundtrip(once).edges == once.edges
    assert roundtrip(once).n == once.n


def test_roundtrip_weighted_gnp_exact():
    g = gen_gnp(20, 0.3, ("uniform", 1, 10), seed=7)
    h = roundtrip(g)
    assert h.n == g.n and h.edges == g.edges


def test_gnp_edge_cases():
    assert gen_gnp(10, 0.0, "unit", 1).m == 0
    assert gen_gnp(5, 1.0, "unit", 1).m == 10


def test_gnp_deterministic():
    a = gen_gnp(100, 0.1, "unit", 42)
    b = gen_gnp(100, 0.1, "unit", 42)
    assert a.edges == b.edges
    c = gen_gnp(100, 0.1, "unit", 43)
    assert a.edges != c.edges


def test_gnp_rejects_bad_p():
    with pytest.raises(DomainError):
        gen_gnp(10, 1.5, "unit", 0)


def test_generators_satisfy_invariants():
    for g in [
        gen_gnp(30, 0.2, ("uniform", 0, 5), 3),
        gen_path(7),
        gen_cycle(5),
        gen_star(6),
        gen_complete(6),
        gen_grid(3, 4),
    ]:
        g.validate()


def test_grid_shape():
    g = gen_grid(3, 4)
    assert g.n == 12
    assert g.m == 2 * 12 - 3 - 4  # w*h horizontal + vertical edges


def test_component_labels():
    g = build_graph(5, [(0, 1, 1.0), (2, 3, 1.0)])
    labels = component_labels(g)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3


def test_parse_generator_spec():
    for spec in ["gnp:50:0.2:unit", "gnp:50:0.2:uniform(1,9)", "grid:4:3", "path:10"]:
        desc, make = parse_generator_spec(spec)
        g = make(0)
        g.validate()
        assert desc == spec
    for bad in ["gnp:50", "ring:5", "gnp:50:0.2:normal", "grid:4", "", "grid:-2:-3",
                "gnp:10:0.5:uniform(nan,5)", "gnp:10:0.5:uniform(0,inf)"]:
        with pytest.raises(DomainError):
            parse_generator_spec(bad)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_load_write_load_identity(triples):
    text = "".join(f"{u} {v} {w!r}\n" for u, v, w in triples)
    first = load_edge_list(io.StringIO(text))
    second = roundtrip(first)
    assert second.n == first.n
    assert second.edges == first.edges
    first.validate()


def test_vertex_cap_on_header_and_generator_specs(monkeypatch):
    monkeypatch.setattr(spanforge.graph, "MAX_VERTICES", 100)
    assert load_edge_list(io.StringIO("# 100 0\n")).n == 100
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("# 101 0\n"))
    for spec in ("gnp:100:0.1:unit", "grid:10:10", "path:100"):
        parse_generator_spec(spec)
    for spec in ("gnp:101:0.1:unit", "grid:11:10", "path:101"):
        with pytest.raises(DomainError, match="limit 100"):
            parse_generator_spec(spec)


def test_header_error_names_the_header_line():
    with pytest.raises(EdgeListError, match="line 3: header vertex count 0") as exc:
        load_edge_list(io.StringIO("# comment\n\n# 0 0\n"))
    assert exc.value.line == 3


def test_validate_raises_value_error():
    with pytest.raises(ValueError, match="weight"):
        WeightedGraph(2, [0], [1], [-1.0]).validate()
    with pytest.raises(ValueError, match="not 0 <= u < v < n"):
        WeightedGraph(2, [1], [0], [1.0]).validate()
    with pytest.raises(ValueError, match="parallel"):
        WeightedGraph(2, [0, 0], [1, 1], [1.0, 2.0]).validate()
    with pytest.raises(ValueError, match="one length"):
        WeightedGraph(3, [0, 1], [1, 2], [1.0]).validate()


def test_validate_raises_under_python_O(tmp_path):
    # Under -O a bare assert would vanish and both broken inputs would pass.
    script = (
        "from spanforge import WeightedGraph, singleton_clustering\n"
        "g = WeightedGraph(2, [1], [0], [-1.0])\n"
        "c = singleton_clustering(WeightedGraph(2, [], [], []))\n"
        "c.cluster_of[1] = 0\n"
        "for check in (g.validate, c.validate):\n"
        "    try:\n"
        "        check()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(spanforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["edge 0 endpoints (1, 0) not 0 <= u < v < n", "root 1 not in own cluster"]


def reference_build_graph(n, raw_edges):
    """build_graph as a dict loop over the triples: the reference for the
    sort-based one.  Returns the edge list."""
    if n < 1:
        raise DomainError(f"vertex count must be >= 1, got {n}")
    index = {}
    edges = []
    for u, v, w in raw_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) out of range for n={n}")
        w = float(w)
        if not math.isfinite(w):
            raise DomainError(f"edge ({u},{v}) has non-finite weight")
        if w < 0:
            raise DomainError(f"edge ({u},{v}) has negative weight {w}")
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        at = index.get(key)
        if at is None:
            index[key] = len(edges)
            edges.append((key[0], key[1], w))
        elif w < edges[at][2]:
            edges[at] = (key[0], key[1], w)
    return edges


@st.composite
def raw_triples(draw):
    """(n, triples) over a few vertices, so that self-loops, reversed and
    repeated pairs and equal weights are common; in about half the
    examples a run of possibly bad triples (an id out of range or beyond
    int64, a NaN, infinite or negative weight) is inserted."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(0, 10)
    triples = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=30))
    if draw(st.booleans()):
        bad_id = vertex | st.sampled_from([-1, n, 2**31, 2**63, 2**64, -(2**63) - 1])
        bad_weight = weight | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.5])
        at = draw(st.integers(0, len(triples)))
        triples[at:at] = draw(st.lists(st.tuples(bad_id, bad_id, bad_weight), min_size=1, max_size=3))
    return n, triples


@settings(max_examples=300)
@given(raw_triples())
def test_build_graph_matches_the_reference(case):
    n, triples = case
    try:
        expected = reference_build_graph(n, triples)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            build_graph(n, iter(triples))
        assert str(got.value) == str(exc)
        return
    g = build_graph(n, iter(triples))
    assert g.n == n
    assert g.edges == expected
    assert [math.copysign(1, w) for _, _, w in g.edges] == [math.copysign(1, w) for _, _, w in expected]
    g.validate()


def test_graph_columns_are_read_only_int32_int32_float64():
    g = gen_gnp(30, 0.3, ("uniform", 1, 9), seed=2)
    assert (g.u.dtype, g.v.dtype, g.w.dtype) == (np.int32, np.int32, np.float64)
    assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())) == g.edges
    for column in (g.u, g.v, g.w):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            column += 1
    # The constructor copies: the caller's arrays stay writable and apart.
    w = np.array([1.0])
    h = WeightedGraph(2, np.array([0]), np.array([1]), w)
    w[0] = 5.0
    assert h.edges == [(0, 1, 1.0)] and w.flags.writeable
    with pytest.raises(DomainError, match="int32"):
        build_graph(2**31 + 1, [])


@pytest.mark.parametrize("offset", [0, 2**62])
def test_sort_pairs_orders_by_major_then_minor(offset):
    # With the offset the packed values would overflow int64, so the sort
    # takes its lexsort path; both must give the same order.
    rng = np.random.default_rng(4)
    major = rng.integers(0, 50, 300) + offset
    minor = rng.integers(0, 7, 300)
    expected = sorted(zip(major.tolist(), minor.tolist()))
    spanforge.graph.sort_pairs(major, minor, 7)
    assert list(zip(major.tolist(), minor.tolist())) == expected
