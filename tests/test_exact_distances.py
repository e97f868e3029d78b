"""The exact oracles' paths: BFS on unit weights (one source at a time
for the audit, all sources at once for apsp_matrix), heap Dijkstra else.

All must give the same floats.  The public dijkstra() and bellman_ford()
stay heap-based and relaxation-based, so they are the cross-checks here.
"""

import random

import numpy as np
import pytest

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
from spanforge.graph import neighbour_lists
from spanforge.oracles import _bfs_on, _dijkstra_on

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
}

SUBGRAPHS = {
    "graph": lambda g: None,
    "spanner": lambda g: general_spanner(g, 3, 1, 7).spanner_edges,
    "empty": lambda g: [],
    "repeated": lambda g: [e for e in reversed(range(g.m)) for _ in range(2)],
}


def heap_rows(g, eids):
    adj = neighbour_lists(g, eids, weighted=True)
    return np.array([_dijkstra_on(adj, s) for s in range(g.n)], dtype=np.float64)


@pytest.mark.parametrize("subgraph", sorted(SUBGRAPHS))
@pytest.mark.parametrize("name", sorted(UNIT_GRAPHS))
def test_bfs_rows_equal_heap_dijkstra(name, subgraph):
    g = UNIT_GRAPHS[name]()
    eids = SUBGRAPHS[subgraph](g)
    expected = heap_rows(g, eids).tobytes()
    nbrs = neighbour_lists(g, eids)
    bfs = np.array([_bfs_on(nbrs, s) for s in range(g.n)], dtype=np.float64)
    assert bfs.tobytes() == expected
    assert apsp_matrix(g, eids).tobytes() == expected


@pytest.mark.parametrize("name", ["gnp129", "two-components", "complete"])
def test_all_sources_bfs_in_small_blocks_and_steps(name, monkeypatch):
    # One word per block and per unpacking step, so that the loops over
    # blocks and steps run many times on a small graph.
    monkeypatch.setattr(oracles, "_GATHER_WORDS", 1)
    monkeypatch.setattr(oracles, "_EXTRACT_WORDS", 1)
    g = UNIT_GRAPHS[name]()
    assert apsp_matrix(g).tobytes() == heap_rows(g, None).tobytes()


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
    spanner = set(build.spanner_edges)
    adj = neighbour_lists(g, spanner, weighted=True)
    assert all(g.edges[e][2] == 1.0 for e in spanner)
    expected = [1.0] * g.m
    for e, (u, v, w) in enumerate(g.edges):
        if e not in spanner:
            expected[e] = _dijkstra_on(adj, u)[v] / w
    assert audit_stretch(g, build.spanner_edges, 100.0).ratios == expected


ORACLES = {
    "dijkstra": lambda g, eids: dijkstra(g, 0, eids),
    "bellman_ford": lambda g, eids: bellman_ford(g, 0, eids),
    "apsp_matrix": apsp_matrix,
    "component_labels": component_labels,
    "audit_stretch": lambda g, eids: audit_stretch(g, eids, 3.0),
}


@pytest.mark.parametrize("bad", ["-1", "m"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_reject_edge_ids_outside_the_graph(oracle, bad):
    # Without the check, -1 silently read the last edge and m raised IndexError.
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    eid = -1 if bad == "-1" else g.m
    with pytest.raises(DomainError, match=f"edge id {eid} not in graph"):
        ORACLES[oracle](g, [0, eid])
