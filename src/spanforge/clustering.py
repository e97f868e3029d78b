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
from typing import Iterable

from .graph import DomainError, WeightedGraph


@dataclass
class Clustering:
    """Partition of active nodes into rooted trees.

    Cluster ids equal their root node id.  ``cluster_of[v]`` is None for
    nodes that are no longer active.  ``parent[v]`` is ``(parent_node,
    edge_id)`` with edge ids referring to the original graph's edge list.
    """

    node_count: int
    cluster_of: list[int | None]
    center_of: dict[int, int]
    parent: list[tuple[int, int] | None]
    depth_of: list[int | None]

    def clusters(self) -> list[int]:
        return sorted(self.center_of)

    def active_count(self) -> int:
        return sum(1 for c in self.cluster_of if c is not None)

    def max_depth(self) -> int:
        depths = [d for d in self.depth_of if d is not None]
        return max(depths, default=0)

    def validate(self) -> None:
        """Tree consistency: parent walks reach the recorded center in
        depth_of steps with strictly decreasing depth; clusters partition
        the active nodes.  Raises ValueError on breakage."""
        for cid, root in self.center_of.items():
            if cid != root:
                raise ValueError(f"cluster id {cid} != root {root}")
            if self.cluster_of[root] != cid:
                raise ValueError(f"root {root} not in own cluster")
        for v in range(self.node_count):
            cid = self.cluster_of[v]
            if cid is None:
                if self.parent[v] is not None or self.depth_of[v] is not None:
                    raise ValueError(f"inactive node {v} has a parent or depth")
                continue
            if cid not in self.center_of:
                raise ValueError(f"node {v} in unregistered cluster {cid}")
            node, steps = v, 0
            while self.parent[node] is not None:
                nxt, _ = self.parent[node]
                if self.cluster_of[nxt] != cid:
                    raise ValueError(f"parent walk leaves cluster at {node}")
                if self.depth_of[nxt] != self.depth_of[node] - 1:
                    raise ValueError(f"depth does not drop by one from {node} to {nxt}")
                node, steps = nxt, steps + 1
                if steps > self.node_count:
                    raise ValueError(f"parent cycle through {v}")
            if node != self.center_of[cid]:
                raise ValueError(f"walk from {v} missed center")
            if steps != self.depth_of[v]:
                raise ValueError(f"depth mismatch at {v}")


@dataclass(frozen=True)
class QuotientGraph:
    """Contracted view of a graph.

    super_of maps every original vertex to its super-node id (None once the
    vertex has left the active part of the construction).  The surviving
    edges between super-nodes are not stored here; contract reports the
    duplicates it drops, and the caller keeps the rest.
    """

    super_count: int
    super_of: list[int | None]


def identity_quotient(g: WeightedGraph) -> QuotientGraph:
    """Level-zero quotient: every vertex is its own super-node."""
    return QuotientGraph(super_count=g.n, super_of=list(range(g.n)))


@dataclass
class RadiusCertificate:
    """Outcome of a radius check, with the first violation witnessed."""

    passed: bool
    radius_bound: int
    max_depth: int
    cluster_depths: dict[int, int]
    edge_max_path_weight: dict[int, float]
    violation: dict | None = None


def singleton_clustering(target: WeightedGraph | QuotientGraph) -> Clustering:
    """Every active node of the graph or quotient is its own depth-0 cluster."""
    if isinstance(target, WeightedGraph):
        count = target.n
    else:
        count = target.super_count
    return Clustering(
        node_count=count,
        cluster_of=list(range(count)),
        center_of={v: v for v in range(count)},
        parent=[None] * count,
        depth_of=[0] * count,
    )


def sample_clusters(clustering: Clustering, p: float, rng: random.Random) -> set[int]:
    """Independently include each cluster with probability p.

    Clusters are visited in ascending cluster id and one uniform draw is
    consumed per cluster, so results are reproducible for a fixed rng
    stream position.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"sampling probability {p} outside [0, 1]")
    return {cid for cid in clustering.clusters() if rng.random() < p}


def grow_clusters(
    clustering: Clustering, sampled: set[int], attach: dict[int, tuple[int, int]]
) -> Clustering:
    """Extend sampled clusters by single nodes in one pass.

    ``attach`` maps each joining node to ``(host_node, edge)``, where the
    host lies in a sampled cluster.  Nodes of sampled clusters keep their
    cluster, parent and depth; an attaching node takes its host's cluster,
    hangs below the host via the edge and sits one level deeper.  Every
    other node leaves the clustering.  Raises ValueError for a sampled
    cluster that does not exist, an attaching node that is inactive or in
    a sampled cluster, or a host outside the sampled clusters.
    """
    for cid in sampled:
        if cid not in clustering.center_of:
            raise ValueError(f"sampled cluster {cid} does not exist")
    n = clustering.node_count
    cluster_of: list[int | None] = [None] * n
    parent: list[tuple[int, int] | None] = [None] * n
    depth_of: list[int | None] = [None] * n
    for v in range(n):
        if clustering.cluster_of[v] in sampled:
            cluster_of[v] = clustering.cluster_of[v]
            parent[v] = clustering.parent[v]
            depth_of[v] = clustering.depth_of[v]
    for v, (host, eid) in attach.items():
        cid = clustering.cluster_of[v]
        if cid is None or cid in sampled:
            raise ValueError(f"node {v} cannot attach: it is inactive or in a sampled cluster")
        if clustering.cluster_of[host] not in sampled:
            raise ValueError(f"attach point {host} is not in a sampled cluster")
        cluster_of[v] = cluster_of[host]
        parent[v] = (host, eid)
        depth_of[v] = depth_of[host] + 1
    return Clustering(n, cluster_of, {cid: cid for cid in sorted(sampled)}, parent, depth_of)


def contract(
    base: WeightedGraph | QuotientGraph,
    clustering: Clustering,
    surviving_edges: Iterable[int],
    g: WeightedGraph,
) -> tuple[QuotientGraph, list[int]]:
    """Contract each cluster to a super-node, keeping one edge per pair.

    ``surviving_edges`` are original edge ids whose endpoints must lie in
    distinct clusters of ``clustering`` (an edge inside a cluster is a
    contract violation).  Per unordered super-node pair exactly the
    minimum-weight edge is kept, ties broken by smaller edge id.  Returns
    the quotient and the sorted dropped duplicates, so the caller can mark
    them discarded; the kept edges are the surviving ones not dropped.
    """
    prev = identity_quotient(g) if isinstance(base, WeightedGraph) else base
    cids = clustering.clusters()
    idmap = {cid: i for i, cid in enumerate(cids)}

    super_of: list[int | None] = [None] * g.n
    for v in range(g.n):
        s = prev.super_of[v]
        if s is None:
            continue
        cid = clustering.cluster_of[s]
        if cid is not None:
            super_of[v] = idmap[cid]

    best: dict[tuple[int, int], tuple[float, int]] = {}
    dropped: list[int] = []
    for eid in surviving_edges:
        u, v, w = g.edges[eid]
        a, b = super_of[u], super_of[v]
        if a is None or b is None or a == b:
            raise ValueError(f"surviving edge {eid} does not cross two clusters")
        key = (a, b) if a < b else (b, a)
        cur = best.get(key)
        if cur is None or (w, eid) < cur:
            if cur is not None:
                dropped.append(cur[1])
            best[key] = (w, eid)
        else:
            dropped.append(eid)

    dropped.sort()
    return QuotientGraph(len(cids), super_of), dropped


def compose(
    outer: Clustering, inner: Clustering, quotient: QuotientGraph, g: WeightedGraph
) -> Clustering:
    """Expand a clustering of quotient super-nodes onto original vertices.

    Each super-node in an outer tree is replaced by its inner tree.  The
    inner tree of a non-root super-node is re-rooted at the original
    endpoint of the edge that attached it, so the composed structure is
    again a forest of rooted trees on original vertices.  The composed
    center of a cluster is the inner center of the outer root super-node.
    """
    n = g.n
    members: dict[int, list[int]] = {}
    for v in range(n):
        s = quotient.super_of[v]
        if s is not None:
            members.setdefault(s, []).append(v)

    def inner_cid(s: int) -> int:
        vs = members.get(s)
        if not vs:
            raise ValueError(f"super-node {s} has no member vertices")
        cid = inner.cluster_of[vs[0]]
        if cid is None or any(inner.cluster_of[v] != cid for v in vs):
            raise ValueError(f"super-node {s} does not match one inner cluster")
        return cid

    cluster_c: list[int | None] = [None] * n
    parent_c: list[tuple[int, int] | None] = [None] * n
    depth_c: list[int | None] = [None] * n
    center_c: dict[int, int] = {}

    outer_children: dict[int, list[int]] = {}
    for s in range(outer.node_count):
        pe = outer.parent[s]
        if pe is not None:
            outer_children.setdefault(pe[0], []).append(s)

    for ocid in outer.clusters():
        root_super = outer.center_of[ocid]
        composed_root = inner.center_of[inner_cid(root_super)]
        center_c[composed_root] = composed_root
        stack = [root_super]
        while stack:
            s = stack.pop()
            for v in members[s]:
                cluster_c[v] = composed_root
                parent_c[v] = inner.parent[v]
            pe = outer.parent[s]
            if pe is not None:
                parent_super, eid = pe
                x, y = g.endpoints(eid)
                if quotient.super_of[y] != s:
                    x, y = y, x
                if quotient.super_of[y] != s or quotient.super_of[x] != parent_super:
                    raise ValueError(f"attach edge {eid} inconsistent with quotient")
                # Re-root the inner tree of s at its entry vertex y.
                carry: tuple[int, int] | None = (x, eid)
                cur = y
                while True:
                    old = inner.parent[cur]
                    parent_c[cur] = carry
                    if old is None:
                        break
                    pnode, peid = old
                    carry = (cur, peid)
                    cur = pnode
            stack.extend(outer_children.get(s, ()))

    # Depths by traversal from each composed root.
    children_c: dict[int, list[int]] = {}
    for v in range(n):
        pe = parent_c[v]
        if pe is not None:
            children_c.setdefault(pe[0], []).append(v)
    for root in center_c:
        stack2 = [(root, 0)]
        while stack2:
            node, d = stack2.pop()
            depth_c[node] = d
            for ch in children_c.get(node, ()):
                stack2.append((ch, d + 1))
    for v in range(n):
        if cluster_c[v] is not None and depth_c[v] is None:
            raise ValueError(f"composed tree disconnected at vertex {v}")

    return Clustering(
        node_count=n,
        cluster_of=cluster_c,
        center_of=center_c,
        parent=parent_c,
        depth_of=depth_c,
    )


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
    re-measured by walking parent pointers, independent of depth_of.
    """
    n = clustering.node_count
    depth = [None] * n
    maxw: list[float | None] = [None] * n

    def resolve(v: int) -> None:
        chain = []
        node = v
        while depth[node] is None:
            pe = clustering.parent[node]
            if pe is None:
                depth[node] = 0
                maxw[node] = 0.0
                break
            chain.append(node)
            node = pe[0]
        for node in reversed(chain):
            pnode, peid = clustering.parent[node]
            depth[node] = depth[pnode] + 1
            maxw[node] = max(maxw[pnode], g.weight(peid))

    cluster_depths: dict[int, int] = {cid: 0 for cid in clustering.clusters()}
    for v in range(n):
        if clustering.cluster_of[v] is None:
            continue
        resolve(v)
        cid = clustering.cluster_of[v]
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
        x, y, w = g.edges[eid]
        worst_path = 0.0
        for end in (x, y):
            if clustering.cluster_of[end] is None:
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
