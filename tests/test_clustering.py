import math
import random

import pytest

from spanforge import (
    Clustering,
    build_graph,
    check_radius,
    compose,
    contract,
    gen_gnp,
    gen_star,
    grow_clusters,
    identity_quotient,
    sample_clusters,
    singleton_clustering,
)


def test_singleton_clustering_on_graph():
    g = gen_star(4)
    c = singleton_clustering(g)
    assert c.clusters() == [0, 1, 2, 3]
    assert all(d == 0 for d in c.depth_of)
    c.validate()
    cert = check_radius(g, c, range(g.m), 0)
    assert cert.passed  # depth-0 trees have empty root paths


def test_singleton_clustering_on_quotient():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    inner = singleton_clustering(g)
    base = identity_quotient(g)
    two = Clustering(
        node_count=4,
        cluster_of=[0, 0, 2, 2],
        center_of={0: 0, 2: 2},
        parent=[None, (0, 0), None, (2, 1)],
        depth_of=[0, 1, 0, 1],
    )
    q, _ = contract(base, two, [], g)
    c = singleton_clustering(q)
    assert len(c.clusters()) == 2


def test_sample_clusters_extremes():
    c = singleton_clustering(gen_star(8))
    rng = random.Random(1)
    assert sample_clusters(c, 0.0, rng) == set()
    assert sample_clusters(c, 1.0, rng) == set(range(8))


def test_sample_clusters_deterministic_stream():
    c = singleton_clustering(gen_star(50))
    a = sample_clusters(c, 0.4, random.Random(9))
    b = sample_clusters(c, 0.4, random.Random(9))
    assert a == b


def test_sample_clusters_binomial_concentration():
    # 10000 singleton clusters at p=0.3: the count should land within
    # 3 * sqrt(p(1-p)/N) of p as a fraction.
    g = build_graph(10000, [])
    c = singleton_clustering(g)
    got = len(sample_clusters(c, 0.3, random.Random(42)))
    tol = 3 * math.sqrt(0.3 * 0.7 / 10000)
    assert abs(got / 10000 - 0.3) <= tol


def test_grow_identity_when_all_sampled():
    c = singleton_clustering(gen_star(5))
    grown = grow_clusters(c, set(c.clusters()), {})
    assert grown.cluster_of == c.cluster_of
    assert grown.depth_of == c.depth_of


def test_grow_two_singletons():
    g = build_graph(2, [(0, 1, 1.0)])
    c = singleton_clustering(g)
    grown = grow_clusters(c, {0}, {1: (0, 0)})
    assert grown.clusters() == [0]
    assert grown.cluster_of == [0, 0]
    assert grown.depth_of == [0, 1]
    assert grown.parent[1] == (0, 0)
    grown.validate()


def test_grow_star_five_merges():
    g = gen_star(6)
    c = singleton_clustering(g)
    grown = grow_clusters(c, {0}, {i: (0, i - 1) for i in range(1, 6)})
    assert grown.clusters() == [0]
    assert grown.max_depth() == 1
    assert sum(1 for p in grown.parent if p is not None) == 5
    grown.validate()


def test_grow_attach_below_deep_host():
    # Path 0-1-2-3: cluster {0, 1} rooted at 0 is sampled, cluster {2, 3}
    # is not.  Node 2 hangs below the depth-1 node 1; node 3 is not
    # attached and leaves with the rest of its cluster.
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    c = Clustering(4, [0, 0, 2, 2], {0: 0, 2: 2}, [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    grown = grow_clusters(c, {0}, {2: (1, 1)})
    assert grown.cluster_of == [0, 0, 0, None]
    assert grown.parent == [None, (0, 0), (1, 1), None]
    assert grown.depth_of == [0, 1, 2, None]
    assert grown.clusters() == [0]
    grown.validate()


def test_grow_unsampled_unabsorbed_goes_inactive():
    g = build_graph(3, [(0, 1, 1.0)])
    c = singleton_clustering(g)
    grown = grow_clusters(c, {0}, {1: (0, 0)})
    assert grown.cluster_of[2] is None
    assert grown.active_count() == 2


def test_grow_contract_violations():
    g = gen_star(4)
    c = singleton_clustering(g)
    with pytest.raises(ValueError):  # host not sampled
        grow_clusters(c, {0}, {2: (1, 1)})
    with pytest.raises(ValueError):  # attaching node is sampled
        grow_clusters(c, {0, 1}, {1: (0, 0)})
    grown = grow_clusters(c, {0}, {1: (0, 0)})
    with pytest.raises(ValueError):  # attaching node is inactive
        grow_clusters(grown, {0}, {2: (0, 1)})


def test_contract_singletons_isomorphic():
    g = gen_gnp(12, 0.4, "unit", 5)
    q, dropped = contract(g, singleton_clustering(g), range(g.m), g)
    assert q.super_count == g.n
    assert dropped == []
    assert q.super_of == list(range(g.n))


def test_contract_triangle_to_point():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    one = Clustering(3, [0, 0, 0], {0: 0}, [None, (0, 0), (0, 2)], [0, 1, 1])
    q, dropped = contract(g, one, [], g)
    assert q.super_count == 1
    assert q.super_of == [0, 0, 0]
    assert dropped == []


def test_contract_four_cycle_keeps_min_crossing():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)])
    two = Clustering(4, [0, 0, 2, 2], {0: 0, 2: 2}, [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    crossing = [eid for eid, (u, v, _) in enumerate(g.edges) if two.cluster_of[u] != two.cluster_of[v]]
    expected_w = min(g.edges[e][2] for e in crossing)  # brute force over crossings
    q, dropped = contract(g, two, crossing, g)
    kept = set(crossing) - set(dropped)
    assert len(kept) == 1
    assert g.edges[kept.pop()][2] == expected_w
    assert dropped == [max(crossing, key=lambda e: g.edges[e][2])]


def test_contract_rejects_internal_edge():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    one = Clustering(3, [0, 0, 2], {0: 0, 2: 2}, [None, (0, 0), None], [0, 1, 0])
    with pytest.raises(ValueError):
        contract(g, one, [0], g)


def test_contract_minimality_bruteforce():
    # Exactly one surviving edge is kept per super-node pair, and it is the
    # minimum (w, edge id) among the surviving edges of that pair.
    g = gen_gnp(20, 0.35, ("uniform", 1, 9), seed=11)
    c = singleton_clustering(g)
    rng = random.Random(3)
    sampled = sample_clusters(c, 0.4, rng)
    attach = {}
    for eid, (u, v, _) in enumerate(g.edges):
        if u in sampled and v not in sampled and v not in attach:
            attach[v] = (u, eid)
    grown = grow_clusters(c, sampled, attach)
    surviving = [
        eid
        for eid, (u, v, _) in enumerate(g.edges)
        if grown.cluster_of[u] is not None
        and grown.cluster_of[v] is not None
        and grown.cluster_of[u] != grown.cluster_of[v]
    ]
    q, dropped = contract(g, grown, surviving, g)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in surviving:
        u, v, _ = g.edges[eid]
        by_pair.setdefault(tuple(sorted((q.super_of[u], q.super_of[v]))), []).append(eid)
    kept = set(surviving) - set(dropped)
    assert len(kept) == len(by_pair)
    for eids in by_pair.values():
        assert kept & set(eids) == {min(eids, key=lambda e: (g.edges[e][2], e))}
    assert dropped == sorted(dropped)


def _two_block_setup(root2=2):
    # Path 0-1-2-3 with blocks {0,1} and {2,3}; second block rooted at root2.
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    if root2 == 2:
        inner = Clustering(4, [0, 0, 2, 2], {0: 0, 2: 2}, [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    else:
        inner = Clustering(4, [0, 0, 3, 3], {0: 0, 3: 3}, [None, (0, 0), (3, 2), None], [0, 1, 1, 0])
    q, _ = contract(g, inner, [1], g)
    return g, inner, q


def test_compose_outer_singletons_is_inner():
    g, inner, q = _two_block_setup()
    outer = singleton_clustering(q)
    composed = compose(outer, inner, q, g)
    assert composed.cluster_of == inner.cluster_of
    assert composed.parent == inner.parent
    assert composed.depth_of == inner.depth_of


def test_compose_inner_singletons_matches_outer():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inner = singleton_clustering(g)
    q = identity_quotient(g)
    outer = Clustering(3, [0, 0, 0], {0: 0}, [None, (0, 0), (1, 1)], [0, 1, 2])
    composed = compose(outer, inner, q, g)
    assert composed.cluster_of == outer.cluster_of
    assert composed.depth_of == outer.depth_of


def test_compose_reroots_absorbed_block():
    g, inner, q = _two_block_setup(root2=3)
    # Outer: super 1 (block {2,3}) hangs under super 0 via edge 1 = (1, 2).
    outer = Clustering(2, [0, 0], {0: 0}, [None, (0, 1)], [0, 1])
    composed = compose(outer, inner, q, g)
    composed.validate()
    assert composed.clusters() == [0]
    assert composed.parent[2] == (1, 1)  # entry vertex rerooted onto the attach edge
    assert composed.parent[3] == (2, 2)  # old parent pointer reversed
    assert composed.depth_of == [0, 1, 2, 3]


def test_compose_depth_bound_depth1_over_depth1():
    # Depth-1 outer over depth-1 inner blocks: composed depth measured by
    # tree walk must stay within outer*(2*inner+1) + inner = 4.
    g = build_graph(
        6,
        [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (1, 2, 1.0), (3, 4, 1.0)],
    )
    inner = Clustering(
        6,
        [0, 0, 2, 2, 4, 4],
        {0: 0, 2: 2, 4: 4},
        [None, (0, 0), None, (2, 1), None, (4, 2)],
        [0, 1, 0, 1, 0, 1],
    )
    q, _ = contract(g, inner, [3, 4], g)
    s0, s1 = q.super_of[0], q.super_of[2]
    outer_d1 = Clustering(3, [s0, s0, None], {s0: s0}, [None, (s0, 3), None], [0, 1, None])
    composed = compose(outer_d1, inner, q, g)
    composed.validate()
    assert composed.max_depth() <= 1 * (2 * 1 + 1) + 1


def test_check_radius_property_a_violation():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    chain = Clustering(3, [0, 0, 0], {0: 0}, [None, (0, 0), (1, 1)], [0, 1, 2])
    cert = check_radius(g, chain, [], 1)
    assert not cert.passed
    assert cert.violation["property"] == "A"
    assert cert.max_depth == 2


def test_check_radius_property_b_violation():
    # Root path weights (3, 5) at the depth-2 vertex; boundary edge weight 4.
    g = build_graph(4, [(0, 1, 3.0), (1, 2, 5.0), (2, 3, 4.0)])
    chain = Clustering(
        4, [0, 0, 0, None], {0: 0}, [None, (0, 0), (1, 1), None], [0, 1, 2, None]
    )
    cert = check_radius(g, chain, [2], 2)
    assert not cert.passed
    assert cert.violation["property"] == "B"
    assert cert.violation["path_weight"] == 5.0
    assert cert.violation["edge_weight"] == 4.0
    assert cert.edge_max_path_weight[2] == 5.0


def test_check_radius_passes_with_light_tree():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    chain = Clustering(
        4, [0, 0, 0, None], {0: 0}, [None, (0, 0), (1, 1), None], [0, 1, 2, None]
    )
    cert = check_radius(g, chain, [2], 2)
    assert cert.passed


def test_validate_raises_value_error():
    c = singleton_clustering(gen_star(3))
    c.cluster_of[1], c.parent[1], c.depth_of[1] = 0, (0, 0), 1
    del c.center_of[1]
    c.validate()
    c.parent[0] = (1, 0)  # the root hangs below its own child
    with pytest.raises(ValueError, match="depth does not drop"):
        c.validate()
    c.parent[0] = None
    c.depth_of[1] = 2
    with pytest.raises(ValueError, match="depth does not drop"):
        c.validate()
    c.depth_of[1] = 1
    c.cluster_of[2] = 0
    with pytest.raises(ValueError, match="root 2 not in own cluster"):
        c.validate()
