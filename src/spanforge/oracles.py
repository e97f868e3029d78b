"""Brute-force oracles and statistical checks for spanner builds.

Everything here is deliberately independent of the construction code:
distances come from label-setting Dijkstra, run on a block of sources
at once for the audit and for all-pairs rows and one heap at a time
for dijkstra(), and from one BFS from all sources at once, its levels
kept as bit planes, for all-pairs rows whose edges all weigh exactly
1.0; all-pairs distances stream as blocks of source rows.  All three
read the subgraph through one arc table, graph.arcs; Bellman-Ford,
their cross-check, relaxes the edge columns themselves.  Stretch is
audited edge by edge on the spanner subgraph, and size claims are
measured over repeated seeded runs rather than trusted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import Arcs, DomainError, WeightedGraph, arcs, edge_id_array, parse_generator_spec
from .spanner import (
    SpannerBuild,
    baswana_sen,
    cluster_merge_spanner,
    general_spanner,
    two_phase_spanner,
)

INF = math.inf


def _dijkstra_on(table: Arcs, source: int) -> list[float]:
    first, heads, ws = table.first.tolist(), table.head.tolist(), table.w.tolist()
    dist = [INF] * (len(first) - 1)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for i in range(first[x], first[x + 1]):
            nd = d + ws[i]
            if nd < dist[y := heads[i]]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


# Bound on the all-sources BFS's gather of the frontier over every arc,
# in 64-bit words; a pass runs at least one row block's words.
_GATHER_WORDS = 2**20
_WORD = np.dtype("<u8")  # little-endian, so the uint8 view is host-independent


def _bfs_blocks(table: Arcs, height: int) -> Iterator[tuple[int, np.ndarray]]:
    """Unit-weight distance rows of the subgraph whose arcs are table, by
    one BFS from every source at once, as (lo, rows) blocks of height
    rows (a multiple of 64).

    Bit s % 64 of word s // 64 stands for source s, as in Then et al.,
    "The More the Merrier: Efficient Multi-Source Graph Traversal" (VLDB
    2014).  Per level, each vertex ORs its neighbours' frontier words and
    keeps the bits it has not seen; a word drops out once its sources
    reach nothing new.  Level L ORs those new bits into bit plane b for
    each set bit b of L, so a level costs a few word operations and the
    planes hold every distance in binary.  A pass runs a whole number of
    row blocks' words; after it, each row block is unpacked from the
    planes into floats on its own, so only one block is ever floats.
    Levels are heap Dijkstra's floats, since every sum of 1.0s below
    2**53 is exact; a vertex a source never reached gets inf.
    """
    n = len(table.first) - 1
    if not len(table.head):
        for lo in range(0, n, height):
            yield lo, _unreached_rows(n, lo, min(n, lo + height) - lo)
        return
    # One reduceat segment per vertex with an arc: a vertex with none has
    # no segment, since reduceat over an empty one returns an element.
    # Every head is also a tail, so vertices are indexed by their
    # position in `dest` from here on.
    dest = np.flatnonzero(np.diff(table.first))
    starts = table.first[dest]
    head_pos = np.searchsorted(dest, table.head)
    words = -(-n // 64)
    per_block = height // 64
    step = per_block * max(1, _GATHER_WORDS // len(head_pos) // per_block)
    for first in range(0, words, step):
        count = min(words, first + step) - first
        own = np.arange(*np.searchsorted(dest, [64 * first, 64 * (first + count)]))
        visited = np.zeros((count, len(dest)), _WORD)
        visited[dest[own] // 64 - first, own] = np.uint64(1) << (dest[own] % 64).astype(_WORD)
        frontier = visited.copy()
        # Rows of the pass's words that are still going, their planes,
        # and the planes and visited bits of each word once it stops.
        rows = np.arange(count)
        planes: list[np.ndarray] = []
        done_planes: list[np.ndarray] = []
        done_visited = np.empty_like(visited)
        level = 0
        while len(rows):
            level += 1
            new = np.bitwise_or.reduceat(frontier[:, head_pos], starts, axis=1)
            new &= ~visited
            visited |= new
            if level == 1 << len(planes):
                planes.append(new.copy())
                done_planes.append(np.zeros_like(done_visited))
            else:
                for b in range(len(planes)):
                    if level >> b & 1:
                        planes[b] |= new
            going = new.any(axis=1)
            if not going.all():
                stop = ~going
                done_visited[rows[stop]] = visited[stop]
                for plane, done in zip(planes, done_planes):
                    done[rows[stop]] = plane[stop]
                rows, visited, new = rows[going], visited[going], new[going]
                planes = [plane[going] for plane in planes]
            frontier = new
        for w in range(0, count, per_block):
            lo = 64 * (first + w)
            block = slice(w, w + per_block)
            yield lo, _block_rows(
                [plane[block] for plane in done_planes], done_visited[block], dest, n, lo, min(n, lo + height) - lo
            )


def _unreached_rows(n: int, lo: int, sources: int) -> np.ndarray:
    """Rows of sources lo, lo + 1, ... that reach no vertex but their own."""
    rows = np.full((sources, n), INF)
    rows[np.arange(sources), np.arange(lo, lo + sources)] = 0.0
    return rows


def _unpack_sources(words: np.ndarray, sources: int) -> np.ndarray:
    """The bits of (word, vertex) uint64s as (vertex, source) 0/1 uint8s,
    source 64 * word + bit, for the first `sources` sources.  Unpacking
    along the contiguous last axis is several times faster than along a
    strided one."""
    as_bytes = np.ascontiguousarray(words.T, _WORD).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=sources, bitorder="little")


def _block_rows(
    planes: list[np.ndarray], visited: np.ndarray, dest: np.ndarray, n: int, lo: int, sources: int
) -> np.ndarray:
    """Distance rows of sources lo, lo + 1, ... from one row block's bit
    planes and visited bits over the vertices dest.  The planes unpack
    to (vertex, source) levels; distances are symmetric, so their
    transpose is the sources' rows."""
    reached = _levels(planes, sources).T.astype(np.float64, order="C")
    np.copyto(reached, INF, where=_unpack_sources(~visited, sources).view(bool).T)
    if len(dest) == n:
        return reached
    rows = _unreached_rows(n, lo, sources)
    rows[:, dest] = reached
    return rows


def _levels(planes: list[np.ndarray], sources: int) -> np.ndarray:
    """(vertex, source) integers whose bit b is bit plane b's bit."""
    # One byte per 8 planes, little-endian so that byte b // 8 holds bit b.
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= len(planes))
    level = np.zeros((planes[0].shape[1], sources), f"<u{size}")
    level_bytes = level.view(np.uint8).reshape(*level.shape, size)
    for b, plane in enumerate(planes):
        bits = _unpack_sources(plane, sources)
        bits *= 1 << (b & 7)  # numpy multiplies uint8s faster than it shifts them
        level_bytes[..., b >> 3] |= bits
    return level


# Bounds on the batched Dijkstra's temporaries: cells (sources x vertices)
# of one block's distance matrix, and relaxations in one scatter.
_BLOCK_CELLS = 2**15
_SCATTER = 2**14


def _min_weights(table: Arcs) -> np.ndarray:
    """The lightest arc at each vertex; 0, not inf, at a vertex with
    none, so that an unreached vertex (D = inf) never passes the
    batched Dijkstra's settling test while m is finite."""
    minw = np.full(len(table.first) - 1, INF)
    np.minimum.at(minw, table.head, table.w)
    minw[np.diff(table.first) == 0] = 0.0
    return minw


def _batched_dijkstra(
    table: Arcs,
    sources: Sequence[int],
    targets: Sequence[np.ndarray] | None = None,
    minw: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact distances on the subgraph whose arcs are table from each of
    sources, by label-setting rounds over a block of sources at once.

    Yields (i, rows) per block, i the next run of consecutive indices:
    rows[j] holds the distances from sources[i[j]], final at every
    vertex of targets[i[j]] (at every vertex when targets is None);
    other entries may still be tentative.

    Each round, a row whose least unsettled distance is m settles every
    vertex y with D[y] <= m + minw[y], minw[y] being the lightest edge at
    y (the IN criterion of Crauser, Mehlhorn, Meyer and Sanders, "A
    parallelization of Dijkstra's shortest path algorithm", MFCS 1998),
    then relaxes their edges.  fl(a + w) is monotone and every unsettled
    distance ends >= m, so no later relaxation goes below a settled
    value, and each vertex gets min over its neighbours x of fl(d_x + w):
    heap Dijkstra's floats, zero weights included.  A row stops once its
    targets are settled or m is inf; the block runs until all have.
    minw is _min_weights(table), computed here when not given.
    """
    n = len(table.first) - 1
    if minw is None:
        minw = _min_weights(table)
    src = np.asarray(sources, dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(src), rows):
        i = np.arange(lo, min(len(src), lo + rows))
        dist = np.full((len(i), n), INF)
        dist[np.arange(len(i)), src[i]] = 0.0
        settled = np.zeros(dist.shape, dtype=bool)
        if targets is not None:
            need = np.zeros(dist.shape, dtype=bool)
            for r, s in enumerate(i.tolist()):
                need[r, targets[s]] = True
        live = np.ones(len(i), dtype=bool)
        while live.any():
            open_ = np.where(settled, INF, dist)
            least = open_.min(axis=1)
            frontier = open_ <= least[:, None] + minw
            settled |= frontier
            live &= least < INF
            if targets is not None:
                live &= (need & ~settled).any(axis=1)
            frontier[~live] = False
            _relax(dist, frontier, table)
        yield i, dist


def _relax(dist: np.ndarray, frontier: np.ndarray, table: Arcs) -> None:
    """dist[r, y] = min(dist[r, y], dist[r, x] + w) for every arc (x, y, w)
    out of each frontier cell (r, x).  Scatters take whole cells, cut
    where the running arc count passes a multiple of _SCATTER, so each
    holds its first cell's arcs and fewer than _SCATTER more."""
    n = dist.shape[1]
    cells = np.flatnonzero(frontier)
    x = cells % n
    first = table.first[x]
    deg = table.first[x + 1] - first
    ends = np.cumsum(deg)
    shift = first - (ends - deg)  # arc = relaxation index + shift
    flat = dist.reshape(-1)  # a view: dist is C-contiguous
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_SCATTER, total, _SCATTER), side="right")
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(cells)]):
        if a == b:
            continue
        arc = np.arange(ends[a] - deg[a], ends[b - 1]) + np.repeat(shift[a:b], deg[a:b])
        at = np.repeat(cells[a:b] - x[a:b], deg[a:b]) + table.head[arc]
        np.minimum.at(flat, at, np.repeat(flat[cells[a:b]], deg[a:b]) + table.w[arc])


# Bound on the cells of the row blocks that apsp_blocks yields.  A block
# is a whole number of 64-source words, so past n = _ROW_CELLS / 64 it is
# one word of 64 rows.
_ROW_CELLS = 2**16


def apsp_blocks(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """All-pairs distances of the subgraph on edge_ids (all edges when
    None) as consecutive blocks of source rows; +inf when unreachable.

    Yields (lo, rows), rows[i] holding the distances from vertex lo + i.
    The block height, 64 * max(1, _ROW_CELLS // (64 * n)), depends on n
    alone, so two streams over one graph's vertices align whichever
    kernel each takes.  When every edge weighs exactly 1.0, one BFS runs
    from all sources at once, 64 sources to a machine word; otherwise
    batched label-setting Dijkstra runs each block's sources.  Both give
    the same floats as heap Dijkstra would.  Other equal weights keep
    Dijkstra: its running sums (0.1 + 0.1 + ...) are not level * w.
    The edge ids are checked, and the arc table built, before the call
    returns.
    """
    table = arcs(g, edge_ids)
    height = 64 * max(1, _ROW_CELLS // (64 * g.n))
    if np.all(table.w == 1.0):
        return _bfs_blocks(table, height)
    return _dijkstra_blocks(table, height)


def _dijkstra_blocks(table: Arcs, height: int) -> Iterator[tuple[int, np.ndarray]]:
    """apsp_blocks' rows by batched Dijkstra, one row block at a time."""
    n = len(table.first) - 1
    minw = _min_weights(table)
    for lo in range(0, n, height):
        rows = np.empty((min(n, lo + height) - lo, n))
        for i, part in _batched_dijkstra(table, range(lo, lo + len(rows)), minw=minw):
            rows[i] = part
        yield lo, rows


def apsp_matrix(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> np.ndarray:
    """All-pairs distance matrix of the subgraph on edge_ids (all edges
    when None): apsp_blocks' rows in one n x n array."""
    out = np.empty((g.n, g.n))
    for lo, rows in apsp_blocks(g, edge_ids):
        out[lo : lo + len(rows)] = rows
    return out


def dijkstra(g: WeightedGraph, source: int, edge_ids: Iterable[int] | None = None) -> list[float]:
    """Exact single-source distances by heap Dijkstra on any weights;
    unreachable vertices get +inf.

    With edge_ids, distances are computed on that subgraph only.
    """
    if not (0 <= source < g.n):
        raise DomainError(f"source {source} out of range")
    return _dijkstra_on(arcs(g, edge_ids), source)


def bellman_ford(g: WeightedGraph, source: int, edge_ids: Iterable[int] | None = None) -> list[float]:
    """Independent re-computation of single-source distances by relaxation
    over the edge columns, without the arc table."""
    if not (0 <= source < g.n):
        raise DomainError(f"source {source} out of range")
    eids = edge_id_array(g, edge_ids).tolist()
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

    Distances are exact on the spanner subgraph, from each distinct source
    endpoint of a non-spanner edge, by batched Dijkstra on a bounded block
    of sources at once; each row stops once its edges' far endpoints are
    settled.  Unreachable endpoints fail with an infinite ratio (a spanner
    must preserve connectivity).
    """
    ids = edge_id_array(g, spanner_edges)
    in_spanner = np.zeros(g.m, bool)
    in_spanner[ids] = True
    # The edges outside the spanner grouped by their u end, the source:
    # sources[i]'s edges are edge[start[i]:start[i + 1]].
    outside = np.flatnonzero(~in_spanner)
    edge = outside[np.argsort(g.u[outside])]
    tail, far = g.u[edge], g.v[edge]
    start = np.flatnonzero(np.diff(tail, prepend=-1, append=g.n))
    sources = tail[start[:-1]]
    row = np.repeat(np.arange(len(sources)), np.diff(start))
    d = np.empty(len(edge))
    for done, rows in _batched_dijkstra(arcs(g, ids), sources, np.split(far, start[1:-1])):
        part = slice(start[done[0]], start[done[-1] + 1])
        d[part] = rows[row[part] - done[0], far[part]]
    w = g.w[edge]
    ratio = np.ones(g.m)
    ratio[edge] = np.divide(d, w, out=np.where(d == 0, 1.0, INF), where=w > 0)
    bad = np.flatnonzero(ratio > bound)
    failing = [
        {"edge": eid, "u": u, "v": v, "w": x, "ratio": r}
        for eid, u, v, x, r in zip(*(a.tolist() for a in (bad, g.u[bad], g.v[bad], g.w[bad], ratio[bad])))
    ]
    ratios = ratio.tolist()
    max_ratio = max(ratios, default=1.0)
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
