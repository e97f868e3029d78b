"""Rooted-tree clusterings, quotient-graph contraction, and radius checking.

A clustering partitions the active nodes of some level (original vertices,
or super-nodes of a contracted graph) into rooted trees.  Tree edges are
always recorded as original edge ids, so composing a clustering on a
quotient graph back onto the original vertices never loses provenance.

The radius notion checked here is two-sided: a clustering has radius r
with respect to a boundary edge set when (A) every tree has depth at most
r and (B) for every boundary edge (x, y) with x in a tree, every edge on
x's root path weighs at most the boundary edge.  Property (B) is what
makes tree detours affordable in weighted graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import DomainError, WeightedGraph, sort_pairs


@dataclass
class Clustering:
    """Partition of active nodes into rooted trees, one int32 entry per node.

    ``cluster_of[v]`` is the id of v's cluster, which is the id of its root,
    or -1 for a node that is no longer active.  ``parent[v]`` is v's parent
    node and ``parent_edge[v]`` the original edge id to it, both -1 at a
    root or an inactive node.  ``depth[v]`` is v's depth in its tree, -1
    for an inactive node.
    """

    cluster_of: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    depth: np.ndarray

    def clusters(self) -> np.ndarray:
        """The cluster ids, ascending: the nodes that are their own cluster."""
        return np.flatnonzero(self.cluster_of == np.arange(len(self.cluster_of)))

    def validate(self) -> None:
        """Tree consistency: parent walks reach the cluster's root in depth
        steps with strictly decreasing depth; every root is its own cluster;
        clusters partition the active nodes.  Raises ValueError on breakage."""
        cluster_of, parent, parent_edge, depth = (
            a.tolist() for a in (self.cluster_of, self.parent, self.parent_edge, self.depth)
        )
        n = len(cluster_of)
        for v in range(n):
            cid = cluster_of[v]
            if cid < 0:
                if parent[v] >= 0 or parent_edge[v] >= 0 or depth[v] >= 0:
                    raise ValueError(f"inactive node {v} has a parent or depth")
                continue
            if (parent[v] < 0) != (parent_edge[v] < 0):
                raise ValueError(f"node {v} has a parent without an edge or an edge without a parent")
            if parent[v] < 0 and cid != v:
                raise ValueError(f"root {v} not in own cluster")
            if cid >= n or cluster_of[cid] != cid:
                raise ValueError(f"node {v} in unregistered cluster {cid}")
            node, steps = v, 0
            while parent[node] >= 0:
                nxt = parent[node]
                if cluster_of[nxt] != cid:
                    raise ValueError(f"parent walk leaves cluster at {node}")
                if depth[nxt] != depth[node] - 1:
                    raise ValueError(f"depth does not drop by one from {node} to {nxt}")
                node, steps = nxt, steps + 1
                if steps > n:
                    raise ValueError(f"parent cycle through {v}")
            if node != cid:
                raise ValueError(f"walk from {v} missed center: cluster id {cid} != root {node}")
            if steps != depth[v]:
                raise ValueError(f"depth mismatch at {v}")


@dataclass(frozen=True)
class QuotientGraph:
    """Contracted view of a graph.

    super_of maps every original vertex to its super-node id, as int32 with
    -1 once the vertex has left the active part of the construction.  The
    surviving edges between super-nodes are not stored here; contract
    reports the duplicates it drops, and the caller keeps the rest.
    """

    super_count: int
    super_of: np.ndarray


def identity_quotient(g: WeightedGraph) -> QuotientGraph:
    """Level-zero quotient: every vertex is its own super-node."""
    return QuotientGraph(super_count=g.n, super_of=np.arange(g.n, dtype=np.int32))


@dataclass
class RadiusCertificate:
    """Outcome of a radius check, with the first violation witnessed."""

    passed: bool
    radius_bound: int
    max_depth: int
    cluster_depths: dict[int, int]
    edge_max_path_weight: dict[int, float]
    violation: dict | None = None


def _lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """table[ids] as int32, -1 where an id is -1 (numpy would read the last
    entry, or fail on an empty table)."""
    out = np.full(len(ids), -1, np.int32)
    valid = ids >= 0
    out[valid] = table[ids[valid]]
    return out


def singleton_clustering(target: WeightedGraph | QuotientGraph) -> Clustering:
    """Every active node of the graph or quotient is its own depth-0 cluster."""
    if isinstance(target, WeightedGraph):
        count = target.n
    else:
        count = target.super_count
    return Clustering(
        cluster_of=np.arange(count, dtype=np.int32),
        parent=np.full(count, -1, np.int32),
        parent_edge=np.full(count, -1, np.int32),
        depth=np.zeros(count, np.int32),
    )


def sample_clusters(clustering: Clustering, p: float, rng: random.Random) -> np.ndarray:
    """Independently include each cluster with probability p; returns the
    sampled cluster ids, ascending.

    Clusters are visited in ascending cluster id and one uniform draw is
    consumed per cluster, so results are reproducible for a fixed rng
    stream position.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"sampling probability {p} outside [0, 1]")
    cids = clustering.clusters()
    return cids[np.array([rng.random() for _ in range(len(cids))]) < p]


def grow_clusters(
    clustering: Clustering,
    sampled: np.ndarray,
    nodes: np.ndarray,
    hosts: np.ndarray,
    edges: np.ndarray,
) -> Clustering:
    """Extend sampled clusters by single nodes in one pass.

    Node ``nodes[i]`` joins through original edge ``edges[i]`` to
    ``hosts[i]``, which lies in a sampled cluster.  Nodes of sampled
    clusters keep their cluster, parent and depth; a joining node takes its
    host's cluster, hangs below the host via the edge and sits one level
    deeper.  Every other node leaves the clustering.  Raises ValueError for
    a sampled cluster that does not exist, a joining node that is inactive
    or in a sampled cluster, or a host outside the sampled clusters.
    """
    cluster_of = clustering.cluster_of
    n = len(cluster_of)
    sampled = np.asarray(sampled, np.intp)
    exists = (sampled >= 0) & (sampled < n)
    exists[exists] = cluster_of[sampled[exists]] == sampled[exists]
    if not exists.all():
        raise ValueError(f"sampled cluster {sampled[exists.argmin()]} does not exist")
    in_sampled = np.zeros(n, bool)
    in_sampled[sampled] = True
    # A node stays if its cluster is sampled; an inactive node's id of -1
    # reads the last entry of in_sampled, which the mask overrides.
    stays = in_sampled[cluster_of] & (cluster_of >= 0)
    bad = (cluster_of[nodes] < 0) | stays[nodes]
    if bad.any():
        raise ValueError(
            f"node {nodes[bad.argmax()]} cannot attach: it is inactive or in a sampled cluster"
        )
    bad = ~stays[hosts]
    if bad.any():
        raise ValueError(f"attach point {hosts[bad.argmax()]} is not in a sampled cluster")

    grown = Clustering(
        *(np.where(stays, a, np.int32(-1)) for a in
          (cluster_of, clustering.parent, clustering.parent_edge, clustering.depth))
    )
    grown.cluster_of[nodes] = cluster_of[hosts]
    grown.parent[nodes] = hosts
    grown.parent_edge[nodes] = edges
    grown.depth[nodes] = clustering.depth[hosts] + 1
    return grown


def contract(
    quotient: QuotientGraph,
    clustering: Clustering,
    surviving_edges: Sequence[int] | np.ndarray,
    g: WeightedGraph,
) -> tuple[QuotientGraph, np.ndarray]:
    """Contract each cluster of ``clustering``, a clustering of the
    quotient's super-nodes, to a super-node, keeping one edge per pair.

    ``surviving_edges`` are edge ids of ``g`` whose endpoints must lie in
    distinct clusters of ``clustering`` (an edge inside a cluster is a
    contract violation).  Per unordered super-node pair exactly the
    minimum-weight edge is kept, ties broken by smaller edge id.  Returns
    the quotient and the sorted dropped duplicates, so the caller can mark
    them discarded; the kept edges are the surviving ones not dropped.
    """
    cids = clustering.clusters()
    index_of = np.full(len(clustering.cluster_of), -1, np.int32)
    index_of[cids] = np.arange(len(cids))
    # Vertex -> previous super-node -> cluster -> new super-node.
    super_of = _lookup(index_of, _lookup(clustering.cluster_of, quotient.super_of))

    eids = np.asarray(surviving_edges, np.intp)
    a, b = super_of[g.u[eids]], super_of[g.v[eids]]
    bad = (a < 0) | (b < 0) | (a == b)
    if bad.any():
        raise ValueError(f"surviving edge {eids[bad.argmax()]} does not cross two clusters")
    # Sorted by super-node pair, then (w, edge id): all but a pair's first edge drop.
    by_weight = np.argsort(eids)
    by_weight = by_weight[np.argsort(g.w[eids[by_weight]], kind="stable")]
    pair = np.minimum(a, b)[by_weight].astype(np.int64) * len(cids) + np.maximum(a, b)[by_weight]
    rank = np.arange(len(eids))
    sort_pairs(pair, rank, max(len(eids), 1))
    repeat = rank[1:][pair[1:] == pair[:-1]]
    return QuotientGraph(len(cids), super_of), np.sort(eids[by_weight[repeat]])


def compose(
    outer: Clustering, inner: Clustering, quotient: QuotientGraph, g: WeightedGraph
) -> Clustering:
    """Expand a clustering of quotient super-nodes onto original vertices.

    Each super-node in an outer tree is replaced by its inner tree.  The
    inner tree of a non-root super-node is re-rooted at the original
    endpoint of the edge that attached it, so the composed structure is
    again a forest of rooted trees on original vertices.  The composed
    cluster of a vertex is the inner cluster of its outer root super-node.
    Raises ValueError for an outer super-node with no members or spanning
    more than one inner cluster, an attach edge inconsistent with the
    quotient, and a composed tree that is disconnected or cyclic.
    """
    super_of = quotient.super_of
    n = len(super_of)
    outer_cid = _lookup(outer.cluster_of, super_of)
    member = np.flatnonzero(outer_cid >= 0)
    member_super = super_of[member]
    # Each super-node's inner cluster, as read from any one member; it
    # stays -1 only for a super-node without members.
    inner_cid = inner.cluster_of[member]
    inner_of = np.full(len(outer.cluster_of), -1, np.int32)
    inner_of[member_super] = inner_cid
    split = (inner_cid < 0) | (inner_cid != inner_of[member_super])
    if split.any():
        raise ValueError(f"super-node {member_super[split.argmax()]} does not match one inner cluster")
    empty = (outer.cluster_of >= 0) & (inner_of < 0)
    if empty.any():
        raise ValueError(f"super-node {empty.argmax()} has no member vertices")

    cluster_c = np.full(n, -1, np.int32)
    cluster_c[member] = inner_of[outer_cid[member]]
    parent_c = np.full(n, -1, np.int32)
    parent_c[member] = inner.parent[member]
    edge_c = np.full(n, -1, np.int32)
    edge_c[member] = inner.parent_edge[member]

    # Each non-root super-node s hangs below its outer parent by an edge
    # (x, y) with y in s; s's inner tree is re-rooted at y, reversing the
    # parent pointers on y's inner root path, all trees one level at a time.
    attached = np.flatnonzero(outer.parent >= 0)
    eid = outer.parent_edge[attached]
    x, y = g.u[eid], g.v[eid]
    swap = super_of[y] != attached
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    bad = (super_of[y] != attached) | (super_of[x] != outer.parent[attached])
    if bad.any():
        raise ValueError(f"attach edge {eid[bad.argmax()]} inconsistent with quotient")
    cur, carry, carry_edge = y, x, eid
    for _ in range(n + 1):
        if not len(cur):
            break
        up, up_edge = inner.parent[cur], inner.parent_edge[cur]
        parent_c[cur], edge_c[cur] = carry, carry_edge
        more = up >= 0
        cur, carry, carry_edge = up[more], cur[more], up_edge[more]
    else:
        raise ValueError("composed tree is cyclic: an inner root path does not end")

    # Depths by pointer jumping: top[v] is an ancestor depth_c[v] steps up,
    # and each round doubles the distance until every top is a root.
    top = np.where(parent_c >= 0, parent_c, np.arange(n, dtype=np.int32))
    depth_c = (parent_c >= 0).astype(np.int32)
    for _ in range(n.bit_length() + 1):
        if not np.any(parent_c[top] >= 0):
            break
        depth_c += depth_c[top]
        top = top[top]
    else:
        raise ValueError("composed tree is cyclic")
    cut = (cluster_c >= 0) & (top != cluster_c)
    if cut.any():
        raise ValueError(f"composed tree disconnected at vertex {cut.argmax()}")
    depth_c[cluster_c < 0] = -1
    return Clustering(cluster_c, parent_c, edge_c, depth_c)


def check_radius(
    g: WeightedGraph,
    clustering: Clustering,
    boundary_edges: Iterable[int],
    r: int,
) -> RadiusCertificate:
    """Measure a clustering against radius bound r and a boundary edge set.

    Passes iff every cluster's measured depth is at most r and, for every
    boundary edge (x, y) with a clustered endpoint, all edges on that
    endpoint's root path weigh at most the boundary edge.  Depths are
    re-measured by walking parent pointers, independent of depth.  Raises
    ValueError on a parent cycle.
    """
    cluster_of, parent, parent_edge = (
        a.tolist() for a in (clustering.cluster_of, clustering.parent, clustering.parent_edge)
    )
    us, vs, ws = g.u.tolist(), g.v.tolist(), g.w.tolist()
    n = len(cluster_of)
    depth: list[int | None] = [None] * n
    maxw: list[float | None] = [None] * n

    def resolve(v: int) -> None:
        chain = []
        node = v
        while depth[node] is None:
            if parent[node] < 0:
                depth[node] = 0
                maxw[node] = 0.0
                break
            if len(chain) == n:
                raise ValueError(f"parent cycle through {v}")
            chain.append(node)
            node = parent[node]
        for node in reversed(chain):
            pnode = parent[node]
            depth[node] = depth[pnode] + 1
            maxw[node] = max(maxw[pnode], ws[parent_edge[node]])

    cluster_depths: dict[int, int] = {cid: 0 for cid in clustering.clusters().tolist()}
    for v in range(n):
        cid = cluster_of[v]
        if cid < 0:
            continue
        resolve(v)
        if depth[v] > cluster_depths[cid]:
            cluster_depths[cid] = depth[v]

    max_depth = max(cluster_depths.values(), default=0)
    violation = None
    if max_depth > r:
        worst = min(cid for cid, d in cluster_depths.items() if d > r)
        violation = {
            "property": "A",
            "cluster": worst,
            "depth": cluster_depths[worst],
            "bound": r,
        }

    edge_max: dict[int, float] = {}
    for eid in sorted(boundary_edges):
        x, y, w = us[eid], vs[eid], ws[eid]
        worst_path = 0.0
        for end in (x, y):
            if cluster_of[end] < 0:
                continue
            resolve(end)
            worst_path = max(worst_path, maxw[end])
            if maxw[end] > w and violation is None:
                violation = {
                    "property": "B",
                    "edge": eid,
                    "endpoint": end,
                    "path_weight": maxw[end],
                    "edge_weight": w,
                }
        edge_max[eid] = worst_path

    return RadiusCertificate(
        passed=violation is None,
        radius_bound=r,
        max_depth=max_depth,
        cluster_depths=cluster_depths,
        edge_max_path_weight=edge_max,
        violation=violation,
    )
