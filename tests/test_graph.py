import io
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from component_dfs import dfs_component_labels
from line_writer import line_write_edge_list


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


def test_load_non_utf8_input_is_an_edge_list_error(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xff\xfe0 1 1.0\n")
    with pytest.raises(EdgeListError, match="^input is not utf-8 text: ") as err:
        load_edge_list(path)
    assert err.value.line is None


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


@st.composite
def edge_subsets(draw):
    """A graph with up to 30 vertices, some of them isolated, and a list
    of its edge ids with repeats."""
    n = draw(st.integers(min_value=1, max_value=30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    g = build_graph(n, [(a, b, draw(weight)) for a, b in draw(st.lists(pairs, max_size=40))])
    eids = draw(st.lists(st.integers(0, g.m - 1), max_size=50)) if g.m else []
    return g, eids


@settings(max_examples=200)
@given(edge_subsets())
def test_component_labels_equal_the_depth_first_search(case):
    g, eids = case
    assert component_labels(g) == dfs_component_labels(g)
    assert component_labels(g, eids) == dfs_component_labels(g, eids)
    assert component_labels(g, []) == list(range(g.n))


def test_component_labels_on_a_long_path_with_shuffled_vertex_ids():
    # Root hooking needs more rounds when the vertex ids along a path are
    # out of order; every 997th edge left out splits it into components.
    n = 10**5
    order = list(range(n))
    random.Random(5).shuffle(order)
    g = build_graph(n, [(a, b, 1.0) for a, b in zip(order, order[1:])])
    cut = [e for e in range(g.m) if e % 997]
    assert component_labels(g) == dfs_component_labels(g) == [0] * n
    labels = component_labels(g, cut)
    assert labels == dfs_component_labels(g, cut)
    assert max(labels) == g.m - len(cut)


def arc_listing(table, n):
    """Each vertex's (head, weight) arcs of an arc table, sorted."""
    first, head, w = (a.tolist() for a in table)
    return [sorted(zip(head[first[x]:first[x + 1]], w[first[x]:first[x + 1]])) for x in range(n)]


def edge_listing(g, eids):
    """Each vertex's (other end, weight) pairs over the edges eids, sorted."""
    listing = [[] for _ in range(g.n)]
    us, vs, ws = g.u.tolist(), g.v.tolist(), g.w.tolist()
    for e in eids:
        listing[us[e]].append((vs[e], ws[e]))
        listing[vs[e]].append((us[e], ws[e]))
    return [sorted(pairs) for pairs in listing]


GNP40 = gen_gnp(40, 0.2, ("uniform", 1, 5), 3)
# Vertices 0 and 7 to 9 have no edge, the last of them trailing.
TRAILING = build_graph(10, [(1, 2, 0.5), (2, 3, 0.0), (3, 6, 2.0), (1, 6, 1.0)])


@settings(max_examples=200)
@given(edge_subsets())
@example(case=(GNP40, None))
@example(case=(GNP40, [7, 0, 7, 3, 3, 3]))
@example(case=(GNP40, []))
@example(case=(TRAILING, None))
@example(case=(TRAILING, [3, 1]))
def test_arcs_list_both_arcs_of_each_edge_by_tail(case):
    g, eids = case
    table = spanforge.graph.arcs(g, eids)
    ids = range(g.m) if eids is None else eids
    assert arc_listing(table, g.n) == edge_listing(g, ids)
    assert table.first[0] == 0 and len(table.first) == g.n + 1
    assert table.first[-1] == len(table.head) == len(table.w) == 2 * len(ids)


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


def test_vertex_cap_holds_for_files_with_edges(monkeypatch):
    monkeypatch.setattr(spanforge.graph, "MAX_VERTICES", 100)
    assert load_edge_list(io.StringIO("# 100 1\n0 99 1.0\n")).n == 100
    with pytest.raises(EdgeListError, match=r"^line 1: header vertex count 101 outside \[1, 100\]$"):
        load_edge_list(io.StringIO("# 101 1\n0 1 1.0\n"))
    with pytest.raises(EdgeListError, match=r"header vertex count 0 outside \[1, 100\]$"):
        load_edge_list(io.StringIO("0 1 1.0\n"), n=0)


def test_a_callers_vertex_count_out_of_range_names_no_line():
    # With no header line the count is the caller's n, which no line holds.
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(io.StringIO("0 1 1.0\n"), n=0)
    assert exc.value.line is None
    assert str(exc.value) == f"header vertex count 0 outside [1, {spanforge.graph.MAX_VERTICES}]"


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
# Pair keys near 2**62 times three triples overflow int64, so build_graph's
# sort takes sort_pairs' lexsort path.
@example((2**31, [(2**31 - 1, 2**31 - 2, 2.0), (0, 1, 1.0), (2**31 - 2, 2**31 - 1, 1.0)]))
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



@st.composite
def sorted_pair_triples(draw):
    """(n, triples) whose vertex pairs ascend strictly, as the generators
    emit them; some triples name the higher end first."""
    n = draw(st.integers(2, 8))
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] < pair[1]))))
    weight = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0, 10)
    triples = []
    for a, b in pairs:
        triples.append((b, a, draw(weight)) if draw(st.booleans()) else (a, b, draw(weight)))
    return n, triples


def assert_edges_equal(g, expected):
    assert g.edges == expected
    assert [math.copysign(1, w) for _, _, w in g.edges] == [math.copysign(1, w) for _, _, w in expected]


@settings(max_examples=200)
@given(sorted_pair_triples(), st.randoms(use_true_random=False))
def test_sorted_input_skips_the_sort_and_builds_the_reference_graph(case, rng):
    n, triples = case
    at = rng.randint(0, len(triples))
    looped = triples[:at] + [(at % n, at % n, 3.0)] + triples[at:]

    def no_sort(*args):
        raise AssertionError("sorted input was sorted")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spanforge.graph, "sort_pairs", no_sort)
        for sorted_input in (triples, looped):  # a self-loop leaves the other pairs ascending
            assert_edges_equal(build_graph(n, sorted_input), reference_build_graph(n, sorted_input))
    shuffled = rng.sample(triples, len(triples))
    variants = [shuffled, shuffled[:at] + [(at % n, at % n, 3.0)] + shuffled[at:]]
    if triples:
        a, b, w = rng.choice(triples)
        for weight in (w, w / 2, w + 1):
            variants.append(triples[:at] + [(b, a, weight)] + triples[at:])  # a parallel edge
    for raw in variants:
        assert_edges_equal(build_graph(n, raw), reference_build_graph(n, raw))

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


@st.composite
def weight_columns(draw):
    """Weights with heavy ties, 0.0 and -0.0 among them, in random, sorted
    or reversed order, with distinct ids."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(0, 10), min_size=1, max_size=4))
    w = np.array(draw(st.lists(st.sampled_from(pool), max_size=40)), np.float64)
    shape = draw(st.sampled_from(["as drawn", "sorted", "reversed"]))
    if shape != "as drawn":
        w = np.sort(w)[:: 1 if shape == "sorted" else -1].copy()
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=len(w), max_size=len(w), unique=True))
    return w, np.array(ids, np.int64)


@settings(max_examples=300)
@given(weight_columns())
@example((np.zeros(0), np.zeros(0, np.int64)))
@example((np.array([-0.0]), np.array([7])))
@example((np.array([0.0, -0.0, 0.0, -0.0]), np.array([3, 2, 1, 0])))
@example((np.array([2.0, 1.0, 1.0, 1.0]), np.array([0, 3, 1, 2])))
def test_weight_order_is_the_stable_argsort(columns):
    w, ids = columns
    assert spanforge.graph.weight_order(w).tolist() == np.argsort(w, kind="stable").tolist()
    assert spanforge.graph.weight_order(w, ids).tolist() == np.lexsort((ids, w)).tolist()


def test_generators_check_the_vertex_count_before_building():
    for make in (lambda: gen_gnp(0, 0.5), lambda: gen_path(0), lambda: gen_cycle(0),
                 lambda: gen_complete(0), lambda: gen_star(0), lambda: gen_grid(0, 3)):
        with pytest.raises(DomainError):
            make()
    # Checked only after the edges were made, these would draw or
    # allocate for billions of vertices first.
    for make in (lambda: gen_gnp(2**31 + 1, 0.5), lambda: gen_grid(2**16, 2**16)):
        with pytest.raises(DomainError, match=r"<= 2\*\*31"):
            make()


GENERATORS = {"grid": gen_grid, "gnp": gen_gnp, "path": gen_path, "cycle": gen_cycle,
              "star": gen_star, "complete": gen_complete}
GENERATOR_CASES = (
    [("grid", (w, h)) for w, h in [(1, 1), (1, 5), (5, 1), (2, 2), (7, 6)]]
    + [(kind, (n,)) for kind, smallest in [("path", 1), ("cycle", 3), ("star", 1), ("complete", 1)]
       for n in (smallest, 9)]
    + [("gnp", (30, 0.2, weights, seed)) for weights in ("unit", ("uniform", 1.0, 10.0)) for seed in range(5)]
)


def generator_triples(kind, *args):
    """(n, triples): a generator's edges written out as the (u, v, w)
    triples it once fed to build_graph, in the same order."""
    if kind == "grid":
        width, height = args
        triples = []
        for r in range(height):
            for c in range(width):
                x = r * width + c
                if c + 1 < width:
                    triples.append((x, x + 1, 1.0))
                if r + 1 < height:
                    triples.append((x, x + width, 1.0))
        return width * height, triples
    if kind == "gnp":
        n, p, weights, seed = args
        rng = random.Random(seed)  # one draw per pair, then a weight draw per edge
        return n, [(i, j, 1.0 if weights == "unit" else rng.uniform(weights[1], weights[2]))
                   for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    (n,) = args
    return n, {
        "path": [(i, i + 1, 1.0) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n, 1.0) for i in range(n)],
        "star": [(0, i, 1.0) for i in range(1, n)],
        "complete": [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)],
    }[kind]


def assert_same_graph(g, expected):
    assert g.n == expected.n
    for column in ("u", "v", "w"):
        assert getattr(g, column).tobytes() == getattr(expected, column).tobytes()


@pytest.mark.parametrize("kind, args", GENERATOR_CASES, ids=[f"{kind}{args}" for kind, args in GENERATOR_CASES])
def test_generators_equal_build_graph_over_their_triples(kind, args):
    assert_same_graph(GENERATORS[kind](*args), build_graph(*generator_triples(kind, *args)))


GNP_WEIGHTS = ("unit", ("uniform", 1.0, 10.0))
GNP_CASES = [(n, p, weights, seed) for weights in GNP_WEIGHTS for p in (0, 0.01, 0.5, 1)
             for n in (1, 2, 3, 30, 300) for seed in (0, 1, 2**40 + 3)]


@pytest.mark.parametrize("n, p, weights, seed", GNP_CASES)
def test_gen_gnp_equals_the_per_pair_loop(n, p, weights, seed):
    expected = build_graph(*generator_triples("gnp", n, p, weights, seed))
    assert_same_graph(gen_gnp(n, p, weights, seed), expected)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("weights", GNP_WEIGHTS)
def test_gen_gnp_chunks_split_edges_from_their_weights(monkeypatch, chunk, weights):
    # With chunks of 1 to 3 draws, a weighted edge's draw and its weight's
    # draw often fall in different chunks.
    monkeypatch.setattr(spanforge.graph, "_DRAW_CHUNK", chunk)
    for n, p, seed in [(n, p, seed) for n in (2, 3, 30) for p in (0.01, 0.5, 1) for seed in (0, 1, 7)]:
        expected = build_graph(*generator_triples("gnp", n, p, weights, seed))
        assert_same_graph(gen_gnp(n, p, weights, seed), expected)


@st.composite
def edge_list_texts(draw):
    """(text, expected): an edge-list text with or without a header, with
    comments, blank lines, self-loops, repeated pairs, ids to remap or out
    of range and now and then a negative weight, in LF or CRLF; expected
    is build_graph over its triples, or the error that loading raises.

    Some tokens and separators are ones that np.loadtxt reads differently
    from int() and float(), or not at all: tab, \x0b, \x0c and \xa0
    between fields, underscores, full-width digits, 1.0 as an id, nan and
    inf, ids beyond int64 and a comment after an edge."""
    n = draw(st.none() | st.integers(1, 6))
    if n is None:
        vertex = st.integers(-3, 6) | st.sampled_from([10**30, -(10**25), 2**63])
    else:
        vertex = st.integers(0, n - 1) | st.sampled_from([-1, n, 10**30])
    vertex = vertex.map(str) | st.sampled_from(["1_0", "\uff11", "1.0"])
    weight = st.sampled_from(
        ["0.0", "-0.0", "1", "2.5", "-1.5", "nan", "inf", "2_5", "\uff12.\uff15"]
    ) | st.floats(0, 10).map(repr)
    separator = st.sampled_from([" ", " ", "\t", "\x0b", "\x0c", "\xa0", " \t "])
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=12))
    filler = st.sampled_from(["", "   ", "# a comment", "#"])
    lines = draw(st.lists(filler, max_size=2))
    if n is not None:
        lines.append(f"# {n} {len(edges)}")
    triples = []
    for fields in edges:
        lines += draw(st.lists(filler, max_size=1))
        line = draw(separator).join(fields[:2]) + draw(separator) + fields[2]
        line += draw(st.sampled_from(["", "", "", " # c"]))
        lines.append(line)
        if len(line.split()) != 3:
            return text_of(draw, lines), EdgeListError(f"expected 'u v w', got {line!r}", len(lines))
        try:
            u, v, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            return text_of(draw, lines), EdgeListError(f"could not parse 'u v w' from {line!r}", len(lines))
        if not math.isfinite(w):
            return text_of(draw, lines), EdgeListError(f"non-finite weight {fields[2]!r}", len(lines))
        if w < 0:
            return text_of(draw, lines), DomainError(f"line {len(lines)}: negative weight {w}")
        triples.append((u, v, w))
    text = text_of(draw, lines)
    if n is not None:
        for u, v, _ in triples:
            if not (0 <= u < n and 0 <= v < n):
                return text, EdgeListError(f"vertex id out of range [0,{n}) in edge ({u},{v})")
        return text, build_graph(n, triples)
    ids = sorted({x for u, v, _ in triples for x in (u, v)})
    if not ids:
        return text, EdgeListError("no vertices found (empty input needs a '# n m' header)")
    remap = {x: i for i, x in enumerate(ids)}
    return text, build_graph(len(ids), [(remap[u], remap[v], w) for u, v, w in triples])


def text_of(draw, lines):
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300)
@given(edge_list_texts())
@example(("# 3 1\n0 1 2.5\n", build_graph(3, [(0, 1, 2.5)])))  # a one-line body
@example(("# 3 0\n# c\n\n", build_graph(3, [])))  # a body with no edges
@example(("0\t1\x0b2\n1\x0c2\xa03\n", build_graph(3, [(0, 1, 2.0), (1, 2, 3.0)])))
@example(("1_0 \uff11 2_5\n", build_graph(2, [(1, 0, 25.0)])))
@example(("0 1 2 # c\n", EdgeListError("expected 'u v w', got '0 1 2 # c'", 1)))
@example(("0 1 nan\n", EdgeListError("non-finite weight 'nan'", 1)))
@example((f"# 3 1\n0 {2**63} 1.0\n", EdgeListError(f"vertex id out of range [0,3) in edge (0,{2**63})")))
def test_load_edge_list_equals_build_graph_over_its_triples(case):
    text, expected = case
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as got:
            load_edge_list(io.StringIO(text))
        assert str(got.value) == str(expected)
    else:
        assert_same_graph(load_edge_list(io.StringIO(text)), expected)


def test_load_from_a_file_that_next_has_read_from(tmp_path):
    # Such a file cannot tell its position, so it cannot be read twice.
    path = tmp_path / "g.txt"
    path.write_text("# 3 2\n0 1 1.0\n1 2 2.0\n")
    with open(path) as fh:
        next(fh)
        assert load_edge_list(fh, n=3).edges == [(0, 1, 1.0), (1, 2, 2.0)]


def test_written_edge_lists_load_without_the_line_parser(tmp_path, monkeypatch):
    # What write_edge_list writes is what loadtxt reads; only the line
    # parser's speed is at stake here, not the graph.
    g = gen_gnp(60, 0.2, ("uniform", 0, 5), 3)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    headerless = "".join(path.read_text().splitlines(keepends=True)[1:])

    def no_line_parser(source, n):
        raise AssertionError("took the line parser")

    monkeypatch.setattr(spanforge.graph, "_parse_lines", no_line_parser)
    assert_same_graph(load_edge_list(path), g)
    assert_same_graph(load_edge_list(io.StringIO(headerless), n=g.n), g)


@pytest.mark.parametrize("text, expected", [
    ("# 3 1\n0 1 2\n", [(0, 1, 2.0)]),
    ("# 3 1\n0 1.0 2\n", EdgeListError("could not parse 'u v w' from '0 1.0 2'", 2)),
])
def test_loader_takes_the_line_parser_when_loadtxt_warns(monkeypatch, text, expected):
    # numpy 1.24-1.26 read "1.0" as the int 1 with a DeprecationWarning; a
    # loadtxt that warns and still returns columns must not be believed.
    calls = []

    def lenient_loadtxt(source, dtype, **kwargs):
        calls.append(source)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
        return np.array([(1, 2, 5.0)], dtype)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the loader alone must turn the warning into a fallback
        if isinstance(expected, Exception):
            with pytest.raises(EdgeListError) as got:
                load_edge_list(io.StringIO(text))
            assert str(got.value) == str(expected)
        else:
            assert load_edge_list(io.StringIO(text)).edges == expected
    assert len(calls) == 1


def test_headerless_ids_beyond_int64_are_remapped():
    g = load_edge_list(io.StringIO(f"{10**30} 5 1.0\n5 {-(10**25)} 2.0"))
    assert g.n == 3
    assert g.edges == [(1, 2, 1.0), (0, 1, 2.0)]


def test_header_range_check_reports_ids_beyond_int64():
    with pytest.raises(EdgeListError) as err:
        load_edge_list(io.StringIO(f"# 3 1\n0 {10**30} 1.0\n"))
    assert str(err.value) == "vertex id out of range [0,3) in edge (0,1000000000000000000000000000000)"


# ----------------------------- the writer ----------------------------------

# Ids and weights at the edges of their formats: digit counts, the largest
# int32, signed zero, the least subnormal, exponent forms, the largest float.
EDGE_IDS = [0, 9, 10, 99, 100, 2**31 - 1]
EDGE_WEIGHTS = [0.0, -0.0, 5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308]


def line_text(g):
    buf = io.StringIO()
    line_write_edge_list(g, buf)
    return buf.getvalue()


def written_text(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


@st.composite
def writable_graphs(draw):
    """Graphs built without validate: nonnegative int32 ids on either end,
    past n too, and weights that tie often."""
    vertex = st.sampled_from(EDGE_IDS) | st.integers(0, 2**31 - 1)
    weight = st.sampled_from([0.0, -0.0, 1.0]) | st.sampled_from(EDGE_WEIGHTS) | st.floats(0, allow_infinity=False)
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=40))
    u, v, w = zip(*edges) if edges else ((), (), ())
    return WeightedGraph(draw(st.integers(1, 200)), u, v, w)


@settings(max_examples=300)
@given(writable_graphs())
@example(WeightedGraph(1, EDGE_IDS, EDGE_IDS[::-1], EDGE_WEIGHTS[:6]))
@example(WeightedGraph(2, [5], [123456], [1.0]))  # ids past n
def test_written_bytes_equal_the_line_writer(g):
    assert written_text(g) == line_text(g)


def writable_graph(m, seed):
    """m edges with ids of 1 to 10 digits, half of them one of a few tied
    weights and half distinct."""
    rng = np.random.default_rng(seed)
    ends = np.minimum(rng.integers(0, 10 ** rng.integers(1, 11, (2, m))), 2**31 - 1)
    w = np.where(rng.random(m) < 0.5, rng.choice(EDGE_WEIGHTS, m), rng.random(m) * 10.0 ** rng.integers(-8, 9, m))
    return WeightedGraph(int(ends.max(initial=0)) + 1, ends[0], ends[1], w)


CHUNK = spanforge.graph._WRITE_CHUNK


@pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_written_bytes_equal_the_line_writer_across_chunks(m):
    g = writable_graph(m, seed=m)
    assert written_text(g) == line_text(g)


@pytest.mark.parametrize("sink", ["path", "text file", "StringIO"])
def test_every_sink_gets_the_line_writers_bytes(tmp_path, sink):
    g = writable_graph(CHUNK + 1, seed=7)
    path = tmp_path / "g.txt"
    if sink == "path":
        write_edge_list(g, path)
    elif sink == "text file":
        with open(path, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
    else:
        path.write_bytes(written_text(g).encode("ascii"))
    assert path.read_bytes() == line_text(g).encode("ascii")


@pytest.mark.parametrize("u, v, eid", [([-1, 0], [1, 2], 0), ([0, 1], [1, -(2**31)], 1)])
def test_writer_rejects_a_negative_id_before_writing(tmp_path, u, v, eid):
    # Only a graph built without validate can hold one; the format cannot.
    g = WeightedGraph(3, u, v, [1.0, 2.0])
    path, buf = tmp_path / "g.txt", io.StringIO()
    for sink in (path, buf):
        with pytest.raises(DomainError, match=rf"^edge {eid} has a negative vertex id \({u[eid]}, {v[eid]}\)$"):
            write_edge_list(g, sink)
    assert not path.exists() and buf.getvalue() == ""
