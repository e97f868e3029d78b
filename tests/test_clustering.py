import math
import random

import numpy as np
import pytest
from cluster_lists import clustering, parent_pairs

from spanforge import (
    DomainError,
    WeightedGraph,
    build_graph,
    check_radius,
    compose,
    contract,
    gen_gnp,
    gen_grid,
    gen_path,
    general_spanner,
    gen_star,
    grow_clusters,
    identity_quotient,
    sample_clusters,
    singleton_clustering,
)


def test_singleton_clustering_on_graph():
    g = gen_star(4)
    c = singleton_clustering(g)
    assert c.clusters().tolist() == [0, 1, 2, 3]
    assert all(d == 0 for d in c.depth)
    c.validate()
    cert = check_radius(g, c, range(g.m), 0)
    assert cert.passed  # depth-0 trees have empty root paths


def test_singleton_clustering_on_quotient():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    inner = singleton_clustering(g)
    base = identity_quotient(g)
    two = clustering([0, 0, 2, 2], [None, (0, 0), None, (2, 1)], [0, 1, 0, 1])
    q, _ = contract(base, two, [], g)
    c = singleton_clustering(q)
    assert len(c.clusters()) == 2


def test_sample_clusters_extremes():
    c = singleton_clustering(gen_star(8))
    rng = random.Random(1)
    assert sample_clusters(c, 0.0, rng).tolist() == []
    assert sample_clusters(c, 1.0, rng).tolist() == list(range(8))


def test_sample_clusters_deterministic_stream():
    c = singleton_clustering(gen_star(50))
    a = sample_clusters(c, 0.4, random.Random(9))
    b = sample_clusters(c, 0.4, random.Random(9))
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("clusters", [0, 1, 7, 500])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_sample_clusters_draws_one_random_call_per_cluster(clusters, p):
    # The ids one rng.random() call per cluster picks, and the stream left
    # where those calls leave it; zero clusters draw nothing.
    if clusters:
        c = singleton_clustering(build_graph(clusters, []))
    else:  # three inactive nodes
        c = clustering([None] * 3, [None] * 3, [None] * 3)
    seed = 100 * clusters + int(10 * p)
    rng, twin = random.Random(seed), random.Random(seed)
    expected = [cid for cid in c.clusters().tolist() if twin.random() < p]
    assert sample_clusters(c, p, rng).tolist() == expected
    assert rng.random() == twin.random()


def test_sample_clusters_binomial_concentration():
    # 10000 singleton clusters at p=0.3: the count should land within
    # 3 * sqrt(p(1-p)/N) of p as a fraction.
    g = build_graph(10000, [])
    c = singleton_clustering(g)
    got = len(sample_clusters(c, 0.3, random.Random(42)))
    tol = 3 * math.sqrt(0.3 * 0.7 / 10000)
    assert abs(got / 10000 - 0.3) <= tol


def _attach(pairs):
    """grow_clusters' nodes, hosts and edges from {node: (host, edge)}."""
    nodes = list(pairs)
    return nodes, [pairs[v][0] for v in nodes], [pairs[v][1] for v in nodes]


def test_grow_identity_when_all_sampled():
    c = singleton_clustering(gen_star(5))
    grown = grow_clusters(c, c.clusters(), *_attach({}))
    assert grown.cluster_of.tolist() == c.cluster_of.tolist()
    assert grown.depth.tolist() == c.depth.tolist()


def test_grow_two_singletons():
    g = build_graph(2, [(0, 1, 1.0)])
    c = singleton_clustering(g)
    grown = grow_clusters(c, [0], *_attach({1: (0, 0)}))
    assert grown.clusters().tolist() == [0]
    assert grown.cluster_of.tolist() == [0, 0]
    assert grown.depth.tolist() == [0, 1]
    assert parent_pairs(grown)[1] == (0, 0)
    grown.validate()


def test_grow_star_five_merges():
    g = gen_star(6)
    c = singleton_clustering(g)
    grown = grow_clusters(c, [0], *_attach({i: (0, i - 1) for i in range(1, 6)}))
    assert grown.clusters().tolist() == [0]
    assert grown.depth.max() == 1
    assert sum(1 for p in parent_pairs(grown) if p is not None) == 5
    grown.validate()


def test_grow_attach_below_deep_host():
    # Path 0-1-2-3: cluster {0, 1} rooted at 0 is sampled, cluster {2, 3}
    # is not.  Node 2 hangs below the depth-1 node 1; node 3 is not
    # attached and leaves with the rest of its cluster.
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    c = clustering([0, 0, 2, 2], [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    grown = grow_clusters(c, [0], *_attach({2: (1, 1)}))
    assert grown.cluster_of.tolist() == [0, 0, 0, -1]
    assert parent_pairs(grown) == [None, (0, 0), (1, 1), None]
    assert grown.depth.tolist() == [0, 1, 2, -1]
    assert grown.clusters().tolist() == [0]
    grown.validate()


def test_grow_unsampled_unabsorbed_goes_inactive():
    g = build_graph(3, [(0, 1, 1.0)])
    c = singleton_clustering(g)
    grown = grow_clusters(c, [0], *_attach({1: (0, 0)}))
    assert grown.cluster_of[2] == -1
    assert sum(c >= 0 for c in grown.cluster_of) == 2


def test_grow_contract_violations():
    g = gen_star(4)
    c = singleton_clustering(g)
    with pytest.raises(ValueError, match="attach point 1"):  # host not sampled
        grow_clusters(c, [0], *_attach({2: (1, 1)}))
    with pytest.raises(ValueError, match="node 1 cannot attach"):  # attaching node is sampled
        grow_clusters(c, [0, 1], *_attach({1: (0, 0)}))
    grown = grow_clusters(c, [0], *_attach({1: (0, 0)}))
    with pytest.raises(ValueError, match="node 2 cannot attach"):  # attaching node is inactive
        grow_clusters(grown, [0], *_attach({2: (0, 1)}))
    with pytest.raises(ValueError, match="sampled cluster 1 does not exist"):
        grow_clusters(grown, [0, 1], *_attach({}))


def test_contract_singletons_isomorphic():
    g = gen_gnp(12, 0.4, "unit", 5)
    q, dropped = contract(identity_quotient(g), singleton_clustering(g), range(g.m), g)
    assert q.super_count == g.n
    assert dropped.tolist() == []
    assert q.super_of.tolist() == list(range(g.n))


def test_contract_triangle_to_point():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    one = clustering([0, 0, 0], [None, (0, 0), (0, 2)], [0, 1, 1])
    q, dropped = contract(identity_quotient(g), one, [], g)
    assert q.super_count == 1
    assert q.super_of.tolist() == [0, 0, 0]
    assert dropped.tolist() == []


def test_contract_four_cycle_keeps_min_crossing():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)])
    two = clustering([0, 0, 2, 2], [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    crossing = [eid for eid, (u, v, _) in enumerate(g.edges) if two.cluster_of[u] != two.cluster_of[v]]
    expected_w = min(g.edges[e][2] for e in crossing)  # brute force over crossings
    q, dropped = contract(identity_quotient(g), two, crossing, g)
    kept = set(crossing) - set(dropped)
    assert len(kept) == 1
    assert g.edges[kept.pop()][2] == expected_w
    assert dropped.tolist() == [max(crossing, key=lambda e: g.edges[e][2])]


def test_contract_rejects_internal_edge():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    one = clustering([0, 0, 2], [None, (0, 0), None], [0, 1, 0])
    with pytest.raises(ValueError):
        contract(identity_quotient(g), one, [0], g)


@pytest.mark.parametrize("seed", range(4))
def test_contract_breaks_weight_ties_by_edge_id(seed):
    # Few distinct weights, so most pairs hold tied edges, and the surviving
    # edges come shuffled, so contract must sort them itself.
    rng = random.Random(seed)
    cluster_of = [v - v % 4 for v in range(24)]  # six paths of four vertices
    g = build_graph(24, [
        (u, v, rng.choice([1.0, 2.0, 2.0, 3.0]))
        for u in range(24) for v in range(u + 1, 24)
        if (v == u + 1 and v % 4) or (cluster_of[u] != cluster_of[v] and rng.random() < 0.6)
    ])
    tree_edge = {v: eid for eid, (u, v, _) in enumerate(g.edges) if v == u + 1 and v % 4}
    paths = clustering(cluster_of, [(v - 1, tree_edge[v]) if v % 4 else None for v in range(24)],
                       [v % 4 for v in range(24)])
    surviving = [eid for eid, (u, v, _) in enumerate(g.edges) if cluster_of[u] != cluster_of[v]]
    rng.shuffle(surviving)
    q, dropped = contract(identity_quotient(g), paths, surviving, g)
    assert q.super_count == 6
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in surviving:
        u, v, _ = g.edges[eid]
        by_pair.setdefault((cluster_of[u], cluster_of[v]), []).append(eid)
    kept = {min(eids, key=lambda e: (g.edges[e][2], e)) for eids in by_pair.values()}
    assert any(len({g.edges[e][2] for e in eids}) < len(eids) for eids in by_pair.values())
    assert dropped.tolist() == sorted(set(surviving) - kept)


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
    grown = grow_clusters(c, sampled, *_attach(attach))
    surviving = [
        eid
        for eid, (u, v, _) in enumerate(g.edges)
        if grown.cluster_of[u] >= 0
        and grown.cluster_of[v] >= 0
        and grown.cluster_of[u] != grown.cluster_of[v]
    ]
    q, dropped = contract(identity_quotient(g), grown, surviving, g)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in surviving:
        u, v, _ = g.edges[eid]
        by_pair.setdefault(tuple(sorted((q.super_of[u], q.super_of[v]))), []).append(eid)
    kept = set(surviving) - set(dropped)
    assert len(kept) == len(by_pair)
    for eids in by_pair.values():
        assert kept & set(eids) == {min(eids, key=lambda e: (g.edges[e][2], e))}
    assert dropped.tolist() == sorted(dropped.tolist())


def _two_block_setup(root2=2):
    # Path 0-1-2-3 with blocks {0,1} and {2,3}; second block rooted at root2.
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    if root2 == 2:
        inner = clustering([0, 0, 2, 2], [None, (0, 0), None, (2, 2)], [0, 1, 0, 1])
    else:
        inner = clustering([0, 0, 3, 3], [None, (0, 0), (3, 2), None], [0, 1, 1, 0])
    q, _ = contract(identity_quotient(g), inner, [1], g)
    return g, inner, q


def test_compose_outer_singletons_is_inner():
    g, inner, q = _two_block_setup()
    outer = singleton_clustering(q)
    composed = compose(outer, inner, q, g)
    assert composed.cluster_of.tolist() == inner.cluster_of.tolist()
    assert parent_pairs(composed) == parent_pairs(inner)
    assert composed.depth.tolist() == inner.depth.tolist()


def test_compose_inner_singletons_matches_outer():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inner = singleton_clustering(g)
    q = identity_quotient(g)
    outer = clustering([0, 0, 0], [None, (0, 0), (1, 1)], [0, 1, 2])
    composed = compose(outer, inner, q, g)
    assert composed.cluster_of.tolist() == outer.cluster_of.tolist()
    assert composed.depth.tolist() == outer.depth.tolist()


def test_compose_reroots_absorbed_block():
    g, inner, q = _two_block_setup(root2=3)
    # Outer: super 1 (block {2,3}) hangs under super 0 via edge 1 = (1, 2).
    outer = clustering([0, 0], [None, (0, 1)], [0, 1])
    composed = compose(outer, inner, q, g)
    composed.validate()
    assert composed.clusters().tolist() == [0]
    assert parent_pairs(composed)[2] == (1, 1)  # entry vertex rerooted onto the attach edge
    assert parent_pairs(composed)[3] == (2, 2)  # old parent pointer reversed
    assert composed.depth.tolist() == [0, 1, 2, 3]


def test_compose_depth_bound_depth1_over_depth1():
    # Depth-1 outer over depth-1 inner blocks: composed depth measured by
    # tree walk must stay within outer*(2*inner+1) + inner = 4.
    g = build_graph(
        6,
        [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (1, 2, 1.0), (3, 4, 1.0)],
    )
    inner = clustering(
        [0, 0, 2, 2, 4, 4],
        [None, (0, 0), None, (2, 1), None, (4, 2)],
        [0, 1, 0, 1, 0, 1],
    )
    q, _ = contract(identity_quotient(g), inner, [3, 4], g)
    s0, s1 = q.super_of[0], q.super_of[2]
    outer_d1 = clustering([s0, s0, None], [None, (s0, 3), None], [0, 1, None])
    composed = compose(outer_d1, inner, q, g)
    composed.validate()
    assert composed.depth.max() <= 1 * (2 * 1 + 1) + 1


def test_check_radius_property_a_violation():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    chain = clustering([0, 0, 0], [None, (0, 0), (1, 1)], [0, 1, 2])
    cert = check_radius(g, chain, [], 1)
    assert not cert.passed
    assert cert.violation["property"] == "A"
    assert cert.max_depth == 2


def test_check_radius_property_b_violation():
    # Root path weights (3, 5) at the depth-2 vertex; boundary edge weight 4.
    g = build_graph(4, [(0, 1, 3.0), (1, 2, 5.0), (2, 3, 4.0)])
    chain = clustering([0, 0, 0, None], [None, (0, 0), (1, 1), None], [0, 1, 2, None])
    cert = check_radius(g, chain, [2], 2)
    assert not cert.passed
    assert cert.violation["property"] == "B"
    assert cert.violation == {
        "property": "B", "edge": 2, "endpoint": 2, "path_weight": 5.0, "edge_weight": 4.0
    }
    assert {type(x) for x in cert.violation.values()} == {str, int, float}


def test_check_radius_reports_the_u_end_and_its_heaviest_ancestor_edge():
    # Boundary edge 2 = (2, 3) weighs 4.  Vertex 2's parent edge weighs 3
    # but its grandparent edge 5; vertex 3's parent edge weighs 6.  Both
    # ends break (B), and the u end is reported with its whole path.
    g = build_graph(5, [(0, 1, 5.0), (1, 2, 3.0), (2, 3, 4.0), (3, 4, 6.0)])
    trees = clustering([0, 0, 0, 4, 4], [None, (0, 0), (1, 1), (4, 3), None], [0, 1, 2, 1, 0])
    cert = check_radius(g, trees, [2], 2)
    assert cert.violation == {
        "property": "B", "edge": 2, "endpoint": 2, "path_weight": 5.0, "edge_weight": 4.0
    }


def test_check_radius_passes_with_light_tree():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    chain = clustering([0, 0, 0, None], [None, (0, 0), (1, 1), None], [0, 1, 2, None])
    cert = check_radius(g, chain, [2], 2)
    assert cert.passed


def test_validate_raises_value_error():
    c = singleton_clustering(gen_star(3))
    c.cluster_of[1], c.parent[1], c.parent_edge[1], c.depth[1] = 0, 0, 0, 1
    c.validate()
    c.parent[0], c.parent_edge[0] = 1, 0  # the root hangs below its own child
    with pytest.raises(ValueError, match="depth does not drop"):
        c.validate()
    c.parent[0] = c.parent_edge[0] = -1
    c.depth[1] = 2
    with pytest.raises(ValueError, match="depth does not drop"):
        c.validate()
    c.depth[1] = 1
    c.cluster_of[2] = 0
    with pytest.raises(ValueError, match="root 2 not in own cluster"):
        c.validate()
    c.cluster_of[2] = 2
    c.parent_edge[1] = -1
    with pytest.raises(ValueError, match="node 1 has a parent without an edge"):
        c.validate()


def test_check_radius_rejects_a_parent_cycle():
    # Nodes 0 and 1 are each other's parent, so no walk reaches a root.
    cycle = clustering([0, 0], [(1, 0), (0, 0)], [0, 1])
    with pytest.raises(ValueError, match="parent cycle"):
        check_radius(gen_path(2), cycle, [], 3)


def test_check_radius_names_the_first_active_node_whose_walk_never_ends():
    # 2 and 3 are each other's parent; active 1 hangs below 2 and inactive
    # 0 below 1, so 1 is the smallest node whose certificate needs a walk
    # that never reaches a root.  Node 4 is a root.
    rho = clustering(
        [None, 4, 4, 4, 4], [(1, 0), (2, 1), (3, 2), (2, 2), None], [None, 3, 2, 1, 0]
    )
    with pytest.raises(ValueError, match=r"^parent cycle through 1$"):
        check_radius(gen_path(5), rho, [], 3)


@pytest.mark.parametrize("cluster_of, node, cid", [([0, 0, 1], 2, 1), ([0, 0, 7], 2, 7)])
def test_check_radius_rejects_a_node_outside_every_cluster(cluster_of, node, cid):
    chain = clustering(cluster_of, [None, (0, 0), (1, 1)], [0, 1, 2])
    with pytest.raises(ValueError, match=rf"^node {node} in unregistered cluster {cid}$"):
        check_radius(gen_path(3), chain, [], 3)


@pytest.mark.parametrize("eid", [-1, 2, 2**40, 0.5])
def test_check_radius_rejects_boundary_ids_outside_the_graph(eid):
    # -1 would read the last edge, m would overrun the columns and 0.5
    # would be truncated to edge 0.
    chain = clustering([0, 0, 0], [None, (0, 0), (1, 1)], [0, 1, 2])
    with pytest.raises(DomainError, match=rf"^edge id {eid} not in graph$"):
        check_radius(gen_path(3), chain, [0, eid], 3)


def root_walks(g, c):
    """Each active node's depth and heaviest root-path edge weight, by
    walking its parent pointers."""
    depth, heaviest = {}, {}
    for x in np.flatnonzero(c.cluster_of >= 0).tolist():
        node, steps, top = x, 0, 0.0
        while c.parent[node] >= 0:
            top = max(top, float(g.w[c.parent_edge[node]]))
            node, steps = int(c.parent[node]), steps + 1
        depth[x], heaviest[x] = steps, top
    return depth, heaviest


def reference_certificate(g, c, walks, boundary, r):
    """(passed, bound, max depth, violation) from root_walks, as the
    certificate is defined."""
    depth, heaviest = walks
    cluster_depth = {cid: 0 for cid in c.clusters().tolist()}
    for x, d in depth.items():
        cid = int(c.cluster_of[x])
        cluster_depth[cid] = max(cluster_depth[cid], d)
    max_depth = max(cluster_depth.values(), default=0)
    deep = [cid for cid, d in sorted(cluster_depth.items()) if d > r]
    if deep:
        violation = {"property": "A", "cluster": deep[0], "depth": cluster_depth[deep[0]], "bound": r}
        return False, r, max_depth, violation
    for eid in sorted(boundary):
        w = float(g.w[eid])
        for end in (int(g.u[eid]), int(g.v[eid])):
            if end in heaviest and heaviest[end] > w:
                violation = {
                    "property": "B", "edge": eid, "endpoint": end, "path_weight": heaviest[end], "edge_weight": w
                }
                return False, r, max_depth, violation
    return True, r, max_depth, None


def test_check_radius_equals_a_root_walk_at_every_bound(monkeypatch):
    # The engine's own certificates supply composed clusterings and their
    # live boundary edges; weight-permuted copies of each graph keep the
    # trees but break property (B).  Each boundary edge alone, at the
    # largest bound, checks the heaviest root-path edge at both its ends.
    import spanforge.spanner

    cases = []

    def record(g, c, boundary, r):
        cases.append((g, c, np.asarray(boundary).tolist(), r))
        return check_radius(g, c, boundary, r)

    monkeypatch.setattr(spanforge.spanner, "check_radius", record)
    for g, k, t in [
        (gen_gnp(120, 0.08, ("uniform", 1, 10), 1), 8, 2),
        (gen_gnp(120, 0.08, "unit", 2), 4, 1),
        (gen_grid(10, 10), 9, 2),
    ]:
        general_spanner(g, k, t, 3, radius_checks=True)
    rng = random.Random(5)
    kinds = set()
    for g, c, boundary, r in cases:
        permuted = WeightedGraph(g.n, g.u, g.v, rng.sample(g.w.tolist(), g.m))
        for graph in (g, permuted):
            walks = root_walks(graph, c)
            checks = [(boundary, bound) for bound in range(r + 1)] + [([eid], r) for eid in boundary]
            for edges, bound in checks:
                cert = check_radius(graph, c, edges, bound)
                got = (cert.passed, cert.radius_bound, cert.max_depth, cert.violation)
                assert got == reference_certificate(graph, c, walks, edges, bound)
                kinds.add(cert.violation and cert.violation["property"])
    assert len(cases) >= 5
    assert kinds == {None, "A", "B"}


@pytest.mark.parametrize(
    "inner, outer, message",
    [
        # The outer clustering has a third super-node, which the quotient lacks.
        (None, [[0, 1, 2], [None] * 3, [0, 0, 0]], "super-node 2 has no member vertices"),
        # Super-node 0 = {0, 1} holds two inner singletons.
        ([[0, 1, 2, 3], [None] * 4, [0] * 4], None, "super-node 0 does not match one inner"),
        # Super-node 1 hangs below super-node 0 by edge 0 = (0, 1), inside super-node 0.
        (None, [[0, 0], [None, (0, 0)], [0, 1]], "attach edge 0 inconsistent"),
        # Vertex 2 of cluster 3 hangs below vertex 1 of cluster 0.
        ([[0, 0, 3, 3], [None, (0, 0), (1, 1), None], [0, 1, 1, 0]], None, "disconnected at vertex 2"),
        # Vertices 2 and 3 are each other's parent: once as they are, once
        # re-rooted at 2 below vertex 1.
        ([[0, 0, 3, 3], [None, (0, 0), (3, 2), (2, 2)], [0, 1, 1, 0]], None, "cyclic"),
        ([[0, 0, 3, 3], [None, (0, 0), (3, 2), (2, 2)], [0, 1, 1, 0]],
         [[0, 0], [None, (0, 1)], [0, 1]], "cyclic"),
    ],
)
def test_compose_rejects_inconsistent_input(inner, outer, message):
    g, blocks, q = _two_block_setup(root2=3)
    inner = blocks if inner is None else clustering(*inner)
    outer = singleton_clustering(q) if outer is None else clustering(*outer)
    with pytest.raises(ValueError, match=message):
        compose(outer, inner, q, g)

