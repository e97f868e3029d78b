"""The exact oracles' paths: batched label-setting Dijkstra on a block
of sources at a time for the audit and for weighted apsp_matrix, and
one BFS from all sources at once for apsp_matrix on unit weights.

All must give heap Dijkstra's floats.  The heap dijkstra() reads the
same arc table as the batched paths, which test_graph checks against the
edge columns; bellman_ford() relaxes the edge columns themselves, so it
is the cross-check that shares no adjacency code with them.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanforge import (
    DomainError,
    apsp_matrix,
    audit_stretch,
    bellman_ford,
    build_graph,
    component_labels,
    dijkstra,
    gen_complete,
    gen_gnp,
    gen_grid,
    gen_path,
    gen_star,
    general_spanner,
    two_phase_spanner,
)
from spanforge import oracles
from spanforge.graph import arcs
from spanforge.oracles import _batched_dijkstra, _dijkstra_on


def unit_cycle(vertices):
    """Unit-weight edges of one cycle through vertices, in order."""
    vertices = list(vertices)
    return [(a, b, 1.0) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


# apsp_matrix packs 64 sources to a word: n = 63, 64, 65 and 129 straddle
# word boundaries, and vertices with no edge get no reduceat segment.
UNIT_GRAPHS = {
    "gnp": lambda: gen_gnp(200, 0.04, "unit", 5),
    "grid": lambda: gen_grid(15, 12),
    "path": lambda: gen_path(60),
    "n1": lambda: gen_path(1),
    "n2": lambda: gen_path(2),
    "gnp63": lambda: gen_gnp(63, 0.08, "unit", 1),
    "gnp64": lambda: gen_gnp(64, 0.08, "unit", 2),
    "gnp65": lambda: gen_gnp(65, 0.08, "unit", 3),
    "gnp129": lambda: gen_gnp(129, 0.03, "unit", 4),
    "isolated": lambda: build_graph(70, [(i, i + 1, 1.0) for i in range(10, 40)]),
    "two-components": lambda: build_graph(  # a path on 0..63 and a cycle on 64..129
        130, [(i, i + 1, 1.0) for i in range(129) if i != 63] + [(64, 129, 1.0)]
    ),
    "star": lambda: gen_star(100),
    "complete": lambda: gen_complete(70),
    # Levels are kept as bit planes: more than 255 levels take a ninth
    # plane and 16-bit levels.
    "path300": lambda: gen_path(300),
    # Words that stop at different levels in one block: a star on 0..63
    # (3 levels), a path on 64..127 (64) and a cycle on 128..200 (37).
    "staggered": lambda: build_graph(
        201,
        [(0, i, 1.0) for i in range(1, 64)]
        + [(i, i + 1, 1.0) for i in range(64, 127)]
        + unit_cycle(range(128, 201)),
    ),
    # Vertices with no edge in every word: a cycle through the others.
    "isolated-words": lambda: build_graph(140, unit_cycle([x for x in range(140) if x % 17])),
}

SUBGRAPHS = {
    "graph": lambda g: None,
    "spanner": lambda g: general_spanner(g, 3, 1, 7).spanner_edges,
    "empty": lambda g: [],
    "repeated": lambda g: [e for e in reversed(range(g.m)) for _ in range(2)],
}


def heap_rows(g, eids):
    table = arcs(g, eids)
    return np.array([_dijkstra_on(table, s) for s in range(g.n)], dtype=np.float64)


def heap_audit(g, spanner):
    """audit_stretch's ratios from one heap Dijkstra per source."""
    spanner = set(spanner)
    table = arcs(g, spanner)
    rows = {}
    ratios = [1.0] * g.m
    for e, (u, v, w) in enumerate(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())):
        if e not in spanner:
            if u not in rows:
                rows[u] = _dijkstra_on(table, u)
            d = rows[u][v]
            ratios[e] = d / w if w > 0 else (1.0 if d == 0 else math.inf)
    return ratios


def reweighted(g, weights, seed):
    """g's edges with weights drawn from `weights`."""
    rng = random.Random(seed)
    return build_graph(g.n, [(u, v, rng.choice(weights)) for u, v in zip(g.u.tolist(), g.v.tolist())])


@pytest.mark.parametrize("subgraph", sorted(SUBGRAPHS))
@pytest.mark.parametrize("name", sorted(UNIT_GRAPHS))
def test_bfs_rows_equal_heap_dijkstra(name, subgraph):
    g = UNIT_GRAPHS[name]()
    eids = SUBGRAPHS[subgraph](g)
    assert apsp_matrix(g, eids).tobytes() == heap_rows(g, eids).tobytes()
    spanner = range(g.m) if eids is None else eids
    assert audit_stretch(g, spanner, 100.0).ratios == heap_audit(g, spanner)


@pytest.mark.parametrize("name", ["gnp129", "two-components", "complete", "isolated-words", "path300"])
def test_all_sources_bfs_in_small_blocks_and_steps(name, monkeypatch):
    # One word per block, so that the loop over blocks runs many times on
    # a small graph and each block is written as soon as its word stops.
    monkeypatch.setattr(oracles, "_GATHER_WORDS", 1)
    g = UNIT_GRAPHS[name]()
    assert apsp_matrix(g).tobytes() == heap_rows(g, None).tobytes()


def test_all_sources_bfs_allocates_less_than_twice_its_output():
    # A vertex with no edge makes the BFS spread its levels to n rows.
    # Spread through an n-wide float temporary, the peak was 2.5 times
    # the output; one scatter per level into the output peaked at 1.74.
    g = gen_gnp(1000, 0.01, "unit", 1)
    keep = np.flatnonzero((g.u != 500) & (g.v != 500))
    g = build_graph(g.n, zip(g.u[keep].tolist(), g.v[keep].tolist(), g.w[keep].tolist()))
    tracemalloc.start()
    try:
        out = apsp_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isinf(out[500]).sum() == g.n - 1
    assert peak < 2 * out.nbytes


def test_bfs_rows_equal_bellman_ford_on_random_unit_graphs():
    rng = random.Random(3)
    for _ in range(40):
        g = gen_gnp(rng.randint(2, 12), rng.choice([0.2, 0.5, 0.9]), "unit", rng.getrandbits(32))
        eids = [e for e in range(g.m) if rng.random() < 0.7]
        matrix = apsp_matrix(g, eids)
        for s in range(g.n):
            assert matrix[s].tolist() == bellman_ford(g, s, eids)


def test_equal_weights_other_than_one_take_dijkstra():
    # Ten steps of 0.1 sum to 0.9999999999999999, not 10 * 0.1 == 1.0.
    g = build_graph(11, [(i, i + 1, 0.1) for i in range(10)] + [(0, 10, 1.0)])
    path = list(range(10))
    matrix = apsp_matrix(g, path)
    assert matrix[0, 10] == sum([0.1] * 10) == 0.9999999999999999
    assert matrix.tobytes() == heap_rows(g, path).tobytes()
    assert audit_stretch(g, path, 1.0).ratios[10] == 0.9999999999999999


def test_one_weight_just_above_one_takes_dijkstra():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0000000000000002), (2, 3, 1.0)])
    matrix = apsp_matrix(g)
    assert matrix[1, 2] == 1.0000000000000002
    assert matrix.tobytes() == heap_rows(g, None).tobytes()
    for s in range(g.n):
        assert matrix[s].tolist() == bellman_ford(g, s)


def test_unit_weight_twophase_audit_matches_heap_dijkstra():
    g = gen_grid(30, 30)
    build = two_phase_spanner(g, 9, 1)
    assert np.all(g.w[build.spanner_edges] == 1.0)
    assert audit_stretch(g, build.spanner_edges, 100.0).ratios == heap_audit(g, build.spanner_edges)


# Weighted inputs, which take the batched Dijkstra.  Zero weights make
# ties that settle in the same round; tiny minimum weights make rounds
# that settle little; 0.1 sums are not level * w.
WEIGHTED_GRAPHS = {
    "uniform": lambda: gen_gnp(150, 0.05, ("uniform", 1, 10), 5),
    "zero": lambda: reweighted(gen_gnp(120, 0.06, "unit", 6), [0.0, 0.0, 0.5, 2.0, 3.0], 1),
    "tiny": lambda: gen_gnp(120, 0.06, ("uniform", 0.001, 10), 7),
    "tenth": lambda: reweighted(gen_grid(9, 11), [0.1], 0),
    "isolated": lambda: build_graph(50, [(i, i + 1, 0.5 + i % 3) for i in range(10, 30)]),
    "two-components": lambda: build_graph(
        40, [(i, i + 1, 1.0 + i % 4) for i in range(39) if i != 19] + [(0, 19, 2.5), (20, 39, 0.0)]
    ),
    "n1": lambda: build_graph(1, []),
}


@pytest.mark.parametrize("subgraph", sorted(SUBGRAPHS))
@pytest.mark.parametrize("name", sorted(WEIGHTED_GRAPHS))
def test_batched_rows_equal_heap_dijkstra(name, subgraph):
    g = WEIGHTED_GRAPHS[name]()
    eids = SUBGRAPHS[subgraph](g)
    assert apsp_matrix(g, eids).tobytes() == heap_rows(g, eids).tobytes()
    spanner = range(g.m) if eids is None else eids
    assert audit_stretch(g, spanner, 100.0).ratios == heap_audit(g, spanner)


@pytest.mark.parametrize("name", ["zero", "tiny", "tenth", "two-components"])
def test_batched_rows_equal_bellman_ford(name):
    g = WEIGHTED_GRAPHS[name]()
    matrix = apsp_matrix(g)
    for s in range(0, g.n, 7):
        assert matrix[s].tolist() == bellman_ford(g, s)


@pytest.mark.parametrize("name", ["uniform", "zero", "two-components"])
def test_batched_dijkstra_in_one_row_blocks_and_small_scatters(name, monkeypatch):
    # One source per block and one relaxation per scatter, so that the
    # block and scatter loops run many times on a small graph.
    monkeypatch.setattr(oracles, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(oracles, "_SCATTER", 1)
    g = WEIGHTED_GRAPHS[name]()
    spanner = general_spanner(g, 3, 1, 7).spanner_edges
    assert apsp_matrix(g, spanner).tobytes() == heap_rows(g, spanner).tobytes()
    assert audit_stretch(g, spanner, 100.0).ratios == heap_audit(g, spanner)


def test_batched_dijkstra_yields_each_source_once_with_its_targets_final():
    # Repeated sources and targets, a source that is its own target, and
    # an unreachable target: every row is yielded once, and is exact at
    # its targets even when it stops before its other vertices settle.
    g = WEIGHTED_GRAPHS["two-components"]()
    expected = heap_rows(g, None)
    sources = [3, 3, 25, 0, 39, 3]
    targets = [np.array(t) for t in ([4], [4, 4, 30], [21], [0], [20, 39], [18])]
    seen = []
    for done, rows in _batched_dijkstra(arcs(g), sources, targets):
        for i, row in zip(done.tolist(), rows):
            seen.append(i)
            assert row[targets[i]].tobytes() == expected[sources[i], targets[i]].tobytes()
    assert sorted(seen) == list(range(len(sources)))
    assert list(_batched_dijkstra(arcs(g), [], [])) == []


def test_weighted_disconnected_spanner_audits_to_an_infinite_ratio():
    g = build_graph(5, [(0, 1, 2.5), (1, 2, 0.5), (2, 3, 4.0), (3, 4, 1.5), (0, 4, 3.0)])
    audit = audit_stretch(g, [0, 1, 3], 100.0)  # 3-4 is cut off from 0-1-2
    assert not audit.passed
    assert audit.max_ratio == math.inf
    assert [f["edge"] for f in audit.failing_edges] == [2, 4]
    assert audit.ratios == heap_audit(g, [0, 1, 3])


@st.composite
def weighted_subgraphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 1e-3]), st.floats(min_value=0.0, max_value=10.0))
    g = build_graph(n, [(u, v, draw(weight)) for u, v in chosen])
    eids = draw(st.lists(st.integers(min_value=0, max_value=g.m - 1))) if g.m else []
    return g, eids


@given(case=weighted_subgraphs())
def test_batched_dijkstra_property(case):
    g, eids = case
    assert apsp_matrix(g, eids).tobytes() == heap_rows(g, eids).tobytes()
    assert audit_stretch(g, eids, 100.0).ratios == heap_audit(g, eids)


ORACLES = {
    "dijkstra": lambda g, eids: dijkstra(g, 0, eids),
    "bellman_ford": lambda g, eids: bellman_ford(g, 0, eids),
    "apsp_matrix": apsp_matrix,
    "component_labels": component_labels,
    "audit_stretch": lambda g, eids: audit_stretch(g, eids, 3.0),
}


@pytest.mark.parametrize("bad", ["-1", "m", "0.5"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_reject_edge_ids_outside_the_graph(oracle, bad):
    # Without the check, -1 silently read the last edge and m raised
    # IndexError; 0.5 was read as edge 0 by apsp_matrix and raised
    # TypeError in dijkstra and component_labels.
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    eid = {"-1": -1, "m": g.m, "0.5": 0.5}[bad]
    with pytest.raises(DomainError, match=f"edge id {eid} not in graph"):
        ORACLES[oracle](g, [0, eid])
