"""Brute-force oracles and statistical checks for spanner builds.

Everything here is deliberately independent of the construction code:
distances come from plain Dijkstra, or BFS when every edge weighs exactly
1.0 (both cross-checked by Bellman-Ford),
stretch is audited edge by edge on the spanner subgraph, and size claims
are measured over repeated seeded runs rather than trusted.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import (
    DomainError,
    WeightedGraph,
    component_labels,
    edge_id_list,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_path,
    gen_star,
    neighbour_lists,
    parse_generator_spec,
)
from .spanner import (
    SpannerBuild,
    baswana_sen,
    cluster_merge_spanner,
    general_spanner,
    stretch_bound,
    two_phase_spanner,
)

INF = math.inf


def _dijkstra_on(adj: list[list[tuple[int, float]]], source: int) -> list[float]:
    dist = [INF] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in adj[x]:
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def _bfs_on(nbrs: list[list[int]], source: int) -> list[float]:
    """Unit-weight distances by levels; the same floats as _dijkstra_on,
    because every sum of 1.0s below 2**53 is exact."""
    dist = [INF] * len(nbrs)
    dist[source] = 0.0
    frontier = [source]
    level = 0.0
    while frontier:
        level += 1.0
        reached = []
        for x in frontier:
            for y in nbrs[x]:
                if dist[y] == INF:
                    dist[y] = level
                    reached.append(y)
        frontier = reached
    return dist


def _shortest_paths(g: WeightedGraph, edge_ids: Iterable[int] | None) -> Callable[[int], list[float]]:
    """Exact single-source distances on the subgraph on edge_ids.

    BFS when every edge weighs exactly 1.0; heap Dijkstra otherwise.
    Other equal weights keep Dijkstra: its running sums (0.1 + 0.1 + ...)
    are not level * w.
    """
    eids = edge_id_list(g, edge_ids)
    ws = g.w.tolist()
    if all(ws[eid] == 1.0 for eid in eids):
        nbrs = neighbour_lists(g, eids)
        return lambda source: _bfs_on(nbrs, source)
    adj = neighbour_lists(g, eids, weighted=True)
    return lambda source: _dijkstra_on(adj, source)


def dijkstra(g: WeightedGraph, source: int, edge_ids: Iterable[int] | None = None) -> list[float]:
    """Exact single-source distances by heap Dijkstra on any weights;
    unreachable vertices get +inf.

    With edge_ids, distances are computed on that subgraph only.
    """
    if not (0 <= source < g.n):
        raise DomainError(f"source {source} out of range")
    return _dijkstra_on(neighbour_lists(g, edge_ids, weighted=True), source)


def bellman_ford(g: WeightedGraph, source: int, edge_ids: Iterable[int] | None = None) -> list[float]:
    """Independent re-computation of single-source distances by relaxation."""
    if not (0 <= source < g.n):
        raise DomainError(f"source {source} out of range")
    eids = edge_id_list(g, edge_ids)
    us, vs, ws = g.u.tolist(), g.v.tolist(), g.w.tolist()
    dist = [INF] * g.n
    dist[source] = 0.0
    for _ in range(max(1, g.n - 1)):
        changed = False
        for eid in eids:
            u, v, w = us[eid], vs[eid], ws[eid]
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


@dataclass
class StretchAudit:
    """Per-edge stretch audit of a spanner edge set.

    ratios[eid] is d_spanner(u, v) / w for edges outside the spanner and
    1.0 for spanner members (they span themselves).  Passing means no
    ratio exceeds the bound.
    """

    bound: float
    ratios: list[float]
    max_ratio: float
    failing_edges: list[dict]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "edges": len(self.ratios),
            "max_ratio": self.max_ratio,
            "failing": self.failing_edges,
            "passed": self.passed,
        }

    def csv_rows(self, g: WeightedGraph, spanner: set[int]) -> list[dict]:
        rows = []
        for eid, (u, v, w) in enumerate(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())):
            rows.append(
                {
                    "edge": eid,
                    "u": u,
                    "v": v,
                    "w": w,
                    "in_spanner": int(eid in spanner),
                    "ratio": self.ratios[eid],
                }
            )
        return rows


def audit_stretch(g: WeightedGraph, spanner_edges: Iterable[int], bound: float) -> StretchAudit:
    """Check d_spanner(u, v) <= bound * w for every original edge (u, v, w).

    Distances are exact on the spanner subgraph (BFS when every spanner
    edge weighs 1.0, Dijkstra otherwise), one run per distinct source
    endpoint of a non-spanner edge; each run's ratios are taken before the
    next run starts, so one distance list is held at a time.  Unreachable endpoints fail with an infinite ratio (a spanner
    must preserve connectivity).
    """
    spanner = set(spanner_edges)
    distances = _shortest_paths(g, spanner)
    us, vs, ws = g.u.tolist(), g.v.tolist(), g.w.tolist()
    ratios = [1.0] * g.m
    by_source: dict[int, list[int]] = {}
    for eid in range(g.m):
        if eid not in spanner:
            by_source.setdefault(us[eid], []).append(eid)

    for src, eids in by_source.items():
        dist = distances(src)
        for eid in eids:
            d, w = dist[vs[eid]], ws[eid]
            if w > 0:
                ratios[eid] = d / w
            else:
                ratios[eid] = 1.0 if d == 0 else INF

    max_ratio = max(ratios, default=1.0)
    failing = [
        {"edge": eid, "u": us[eid], "v": vs[eid], "w": ws[eid], "ratio": r}
        for eid, r in enumerate(ratios)
        if r > bound
    ]
    return StretchAudit(
        bound=bound,
        ratios=ratios,
        max_ratio=max_ratio,
        failing_edges=failing,
        passed=not failing,
    )


ALGORITHMS: dict[str, Callable[..., SpannerBuild]] = {
    "bs": lambda g, k, t, seed: baswana_sen(g, k, seed),
    "merge": lambda g, k, t, seed: cluster_merge_spanner(g, k, seed),
    "twophase": lambda g, k, t, seed: two_phase_spanner(g, k, seed),
    "general": lambda g, k, t, seed: general_spanner(g, k, t, seed),
}


@dataclass
class SizeStats:
    """Measured sizes and cluster-count trajectories over repeated runs."""

    trials: int
    sizes: list[int]
    mean_size: float
    epoch_clusters: list[list[int]]
    epoch_cluster_means: list[float]
    size_reference: float
    cluster_references: list[float]
    generator: str
    algorithm: str
    k: int
    t: int

    def as_dict(self) -> dict:
        return {
            "generator": self.generator,
            "algorithm": self.algorithm,
            "params": {"k": self.k, "t": self.t},
            "trials": self.trials,
            "sizes": self.sizes,
            "mean_size": self.mean_size,
            "epoch_clusters": self.epoch_clusters,
            "epoch_cluster_means": self.epoch_cluster_means,
            "references": {
                "size": self.size_reference,
                "clusters": self.cluster_references,
            },
        }


def size_study(
    gen_spec: str,
    k: int,
    t: int,
    trials: int,
    seed0: int = 0,
    algorithm: str = "general",
) -> SizeStats:
    """Run the algorithm over `trials` fresh instances and collect sizes.

    Trial i regenerates the graph and reruns the algorithm with seed
    seed0 + i.  Reported references are n**(1+1/k)*(t+log2 k) for the
    size and n**(1-((t+1)**i-1)/k) for the post-epoch-i cluster count,
    where t is the one the builds ran with (build.t: the given t for
    general, k for bs, 1 for merge, ceil(sqrt k) for twophase).  Raises
    DomainError when a reference overflows a float.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if algorithm not in ALGORITHMS:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    _, make = parse_generator_spec(gen_spec)
    run = ALGORITHMS[algorithm]

    sizes: list[int] = []
    trajectories: list[list[int]] = []
    n = None
    for trial in range(trials):
        g = make(seed0 + trial)
        n = g.n
        build = run(g, k, t, seed0 + trial)
        sizes.append(build.size)
        trajectories.append([ep.clusters_end for ep in build.epochs])

    depth = max((len(tr) for tr in trajectories), default=0)
    means = []
    for i in range(depth):
        vals = [tr[i] for tr in trajectories if len(tr) > i]
        means.append(sum(vals) / len(vals))

    t = build.t
    try:
        size_ref = n ** (1 + 1 / k) * (t + math.log2(k))
        cluster_refs = [n ** (1 - ((t + 1) ** (i + 1) - 1) / k) for i in range(depth)]
    except OverflowError:
        raise DomainError(f"size references overflow a float at k = {k}: t is too large") from None
    return SizeStats(
        trials=trials,
        sizes=sizes,
        mean_size=sum(sizes) / trials,
        epoch_clusters=trajectories,
        epoch_cluster_means=means,
        size_reference=size_ref,
        cluster_references=cluster_refs,
        generator=gen_spec,
        algorithm=algorithm,
        k=k,
        t=t,
    )


@dataclass
class RepetitionResult:
    """Outcome of a parallel-repetition selection.

    fallback is True when no repetition met the per-iteration sampled-
    cluster and added-edge thresholds, in which case the smallest spanner
    is returned instead.
    """

    build: SpannerBuild
    chosen: int
    fallback: bool
    runs: list[dict]

    def as_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "fallback": self.fallback,
            "runs": self.runs,
        }


def parallel_repetition(
    g: WeightedGraph,
    k: int,
    t: int,
    seed: int,
    repetitions: int,
    c_clusters: float = 4.0,
    c_edges: float = 4.0,
) -> RepetitionResult:
    """Run `repetitions` builds seeded seed, seed + 1, ... and select a good one.

    A run passes when every sampling iteration stayed within
    c_clusters * |C| * p sampled clusters (checked only while |C| * p >=
    log2 n, where concentration applies) and within c_edges * |C| / p
    added edges.  The first passing run wins; if none passes the smallest
    spanner is returned, flagged as a fallback.
    """
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    if c_clusters < 1 or c_edges < 1:
        raise DomainError("slack constants must be >= 1")

    log_n = math.log2(g.n) if g.n > 1 else 0.0
    builds: list[SpannerBuild] = []
    runs: list[dict] = []
    chosen: int | None = None
    for r in range(repetitions):
        build = general_spanner(g, k, t, seed + r)
        violations = []
        for ep in build.epochs:
            for idx, it in enumerate(ep.iterations):
                expected = it.clusters_before * ep.p
                if expected >= log_n and it.sampled > c_clusters * expected:
                    violations.append(
                        {"epoch": ep.epoch, "iteration": idx + 1, "check": "clusters"}
                    )
                if ep.p > 0 and it.added > c_edges * it.clusters_before / ep.p:
                    violations.append(
                        {"epoch": ep.epoch, "iteration": idx + 1, "check": "edges"}
                    )
        passed = not violations
        builds.append(build)
        runs.append(
            {
                "repetition": r,
                "seed": seed + r,
                "size": build.size,
                "passed": passed,
                "violations": violations,
            }
        )
        if passed and chosen is None:
            chosen = r

    if chosen is not None:
        return RepetitionResult(builds[chosen], chosen, False, runs)
    smallest = min(range(repetitions), key=lambda r: (builds[r].size, r))
    return RepetitionResult(builds[smallest], smallest, True, runs)


def _named_small_family(max_n: int) -> list[tuple[str, WeightedGraph]]:
    graphs: list[tuple[str, WeightedGraph]] = []
    for n in range(2, max_n + 1):
        graphs.append((f"path-{n}", gen_path(n)))
    for n in range(3, max_n + 1):
        graphs.append((f"cycle-{n}", gen_cycle(n)))
    for n in range(2, max_n + 1):
        graphs.append((f"complete-{n}", gen_complete(n)))
    for n in range(2, max_n + 1):
        graphs.append((f"star-{n}", gen_star(n)))
    return graphs


def bruteforce_equivalence_suite(max_n: int, random_graphs: int = 100, seed: int = 0) -> dict:
    """Cross-check every algorithm on an exhaustive small-graph family.

    Over paths, cycles, cliques and stars up to max_n plus `random_graphs`
    seeded G(n, p) instances, each algorithm must pass audit_stretch at
    its theoretical bound and the spanner must induce exactly the same
    connected components as the input.
    """
    if max_n > 12:
        raise DomainError("max_n must be <= 12 (brute-force family)")
    if max_n < 2:
        raise DomainError("max_n must be >= 2")

    graphs = _named_small_family(max_n)
    rng = random.Random(seed)
    for idx in range(random_graphs):
        n = rng.randint(4, max_n)
        p = rng.choice([0.3, 0.5, 0.8])
        graphs.append((f"gnp-{idx}", gen_gnp(n, p, "unit", seed=rng.getrandbits(32))))

    cases = [
        ("bs", 2, 1),
        ("bs", 3, 1),
        ("merge", 2, 1),
        ("merge", 4, 1),
        ("general", 4, 2),
        ("twophase", 4, 1),
    ]

    failures: list[dict] = []
    run_count = 0
    for name, g in graphs:
        base_components = component_labels(g)
        for algo, k, t in cases:
            run_count += 1
            build = ALGORITHMS[algo](g, k, t, seed=run_count)
            audit = audit_stretch(g, build.spanner_edges, stretch_bound(algo, k, t))
            if not audit.passed:
                failures.append({"graph": name, "algo": algo, "k": k, "t": t, "why": "stretch"})
            if component_labels(g, build.spanner_edges) != base_components:
                failures.append({"graph": name, "algo": algo, "k": k, "t": t, "why": "components"})
    return {"graphs": len(graphs), "runs": run_count, "failures": failures}
