"""Spanner constructions built around repeated cluster growth and contraction.

All four algorithms share one iteration engine.  An iteration samples a
subset of the current clusters, lets every super-node outside the sampled
clusters either join its closest sampled neighbor (keeping one minimum
edge per processed neighbor cluster) or settle by keeping one minimum
edge to every neighboring cluster, grows the sampled clusters by the
attach edges, and drops edges that became internal to a cluster.  Epochs
contract the grown clusters to super-nodes and lower the sampling
probability before the next round of iterations.

The trade-off parameter t is the number of growth iterations per epoch:
t=1 contracts after every growth step (fastest schedule, weakest
stretch), larger t grows clusters longer before contracting, and t=k
never contracts, reproducing the classic randomized (2k-1)-spanner
construction of Baswana and Sen.

Every build returns a SpannerBuild carrying the spanner edge ids, a
disposition for each original edge, and a per-epoch trace of cluster and
edge counts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Sequence

from .clustering import (
    Clustering,
    QuotientGraph,
    RadiusCertificate,
    check_radius,
    compose,
    contract,
    grow_clusters,
    identity_quotient,
    sample_clusters,
    singleton_clustering,
)
from .graph import DomainError, WeightedGraph

# Disposition rule tags for discarded edges.
RULE_JOIN = "join"                 # superseded while joining a sampled neighbor
RULE_SETTLE = "settle"             # superseded while settling with no sampled neighbor
RULE_INTRA = "intra-cluster"       # became internal to a grown cluster
RULE_DEDUP = "contract-dedup"      # lost the per-super-pair minimum at contraction
RULE_COMPLETION = "completion"     # superseded in the final completion sweep
STAGE2 = "stage2-"                 # prefix of every twophase stage-two rule


@dataclass(frozen=True)
class Params:
    """Run parameters: stretch k, iterations-per-epoch t, and the rng seed."""

    k: int
    t: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.t < 1:
            raise DomainError(f"t must be >= 1, got {self.t}")


def stretch_exponent(t: int) -> float:
    """Exponent s with final stretch 2*k**s: ln(2t+1)/ln(t+1)."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    return math.log(2 * t + 1) / math.log(t + 1)


def _ceil_sqrt(k: int) -> int:
    r = math.isqrt(k)
    return r if r * r == k else r + 1


def stretch_bound(algo: str, k: int, t: int = 1) -> float:
    """Stretch guarantee of an algorithm's build.

    bs: 2k-1.  twophase: the hop bound 2r + (2r+1)(2r-1) + 2r with
    r = ceil(sqrt(k)).  Both are ints.  general: 2*k**stretch_exponent(t);
    merge is general with t=1.  t is read by general only.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if algo == "bs":
        return 2 * k - 1
    if algo == "twophase":
        r = _ceil_sqrt(k)
        return 2 * r + (2 * r + 1) * (2 * r - 1) + 2 * r
    if algo == "merge":
        t = 1
    elif algo != "general":
        raise DomainError(f"unknown algorithm {algo!r}")
    return 2 * k ** stretch_exponent(t)


def epoch_count(k: int, t: int) -> int:
    """Number of epochs: smallest l >= 1 with (t+1)**l >= k.

    Equals ceil(ln k / ln(t+1)) for k >= 2, computed in exact integer
    arithmetic to avoid float boundary errors at exact powers.
    """
    if k < 1 or t < 1:
        raise DomainError("k and t must be >= 1")
    l = 1
    power = t + 1
    while power < k:
        power *= t + 1
        l += 1
    return l


def epoch_schedule(k: int, t: int, n: int) -> list[tuple[int, float, int]]:
    """Formal epoch plan: (epoch index, sampling probability, t iterations).

    Epoch i samples with probability n**(-(t+1)**(i-1)/k), clamped to
    [0, 1].  The actual runs may stop the tail iterations early once the
    cumulative sampling exponent reaches (k-1)/k; see general_spanner.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    l = epoch_count(k, t)
    out = []
    for i in range(1, l + 1):
        power = (t + 1) ** (i - 1)
        p = min(1.0, n ** (-power / k))
        out.append((i, p, t))
    return out


@dataclass
class IterationTrace:
    clusters_before: int
    sampled: int
    added: int
    discarded: int


@dataclass
class EpochTrace:
    epoch: int
    p: float
    iterations: list[IterationTrace]
    clusters_end: int
    contract_discarded: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SpannerBuild:
    """Result of one spanner construction.

    disposition(eid) is ("in_spanner",), ("discarded", epoch, iteration,
    rule) or ("unprocessed",); after a completed run no edge is
    unprocessed.  Identical (graph, params, seed) produce byte-identical
    to_json() output.
    """

    n: int
    m: int
    k: int
    t: int
    seed: int
    spanner_edges: list[int]
    epochs: list[EpochTrace]
    phase2_added: int
    phase2_discarded: int
    final_clustering: Clustering
    radius_checks: list[RadiusCertificate] | None
    _state: bytearray
    _discards: dict[int, tuple[int, int | None, str]]

    LIVE, IN, OUT = 0, 1, 2

    def disposition(self, eid: int):
        s = self._state[eid]
        if s == self.IN:
            return ("in_spanner",)
        if s == self.OUT:
            epoch, iteration, rule = self._discards[eid]
            return ("discarded", epoch, iteration, rule)
        return ("unprocessed",)

    @property
    def size(self) -> int:
        return len(self.spanner_edges)

    def spanner_set(self) -> set[int]:
        return set(self.spanner_edges)

    def discard_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for _, _, rule in self._discards.values():
            hist[rule] = hist.get(rule, 0) + 1
        return hist

    def as_dict(self) -> dict:
        return {
            "graph": {"n": self.n, "m": self.m},
            "params": {"k": self.k, "t": self.t, "seed": self.seed},
            "size": self.size,
            "spanner_edges": self.spanner_edges,
            "dispositions": {
                "in_spanner": self.size,
                "discarded": self.discard_histogram(),
                "unprocessed": sum(1 for s in self._state if s == self.LIVE),
            },
            "epochs": [ep.as_dict() for ep in self.epochs],
            "phase2": {"added": self.phase2_added, "discarded": self.phase2_discarded},
            "radius_checks": None
            if self.radius_checks is None
            else [
                {
                    "epoch": i + 1,
                    "bound": c.radius_bound,
                    "max_depth": c.max_depth,
                    "passed": c.passed,
                }
                for i, c in enumerate(self.radius_checks)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


class _EdgeLedger:
    """Tracks each edge's fate while an algorithm runs."""

    def __init__(self, g: WeightedGraph):
        self.state = bytearray(g.m)  # SpannerBuild.LIVE
        self.discards: dict[int, tuple[int, int | None, str]] = {}
        self.added = 0

    def is_live(self, eid: int) -> bool:
        return self.state[eid] == SpannerBuild.LIVE

    def add(self, eid: int) -> None:
        if self.state[eid] == SpannerBuild.LIVE:
            self.state[eid] = SpannerBuild.IN
            self.added += 1

    def discard(self, eid: int, epoch: int, iteration: int | None, rule: str) -> None:
        if self.state[eid] == SpannerBuild.LIVE:
            self.state[eid] = SpannerBuild.OUT
            self.discards[eid] = (epoch, iteration, rule)

    def counts(self) -> tuple[int, int]:
        return self.added, len(self.discards)


def _incident(
    g: WeightedGraph, node_of: Sequence[int | None], live: list[int]
) -> dict[int, list[int]]:
    """Each node's live edges (node_of[v] for a vertex v), in live order."""
    incident: dict[int, list[int]] = {}
    for eid in live:
        u, v, _ = g.edges[eid]
        incident.setdefault(node_of[u], []).append(eid)
        incident.setdefault(node_of[v], []).append(eid)
    return incident


def _lightest_by_cluster(
    g: WeightedGraph, x: int, eids: list[int], node_of: Sequence[int | None],
    cluster_of: list[int | None],
) -> tuple[list[int], dict[int, int]]:
    """For node x's edges eids: the cluster at each edge's far end, and x's
    lightest edge into each such cluster.  Ties go to the edge that comes
    first in eids."""
    far: list[int] = []
    best: dict[int, int] = {}
    for eid in eids:
        a, b, w = g.edges[eid]
        c = cluster_of[node_of[b] if node_of[a] == x else node_of[a]]
        if c is None:
            raise RuntimeError(f"live edge {eid} has an endpoint outside the clustering")
        far.append(c)
        e1 = best.get(c)
        if e1 is None or w < g.edges[e1][2]:
            best[c] = eid
    return far, best


def _run_iteration(
    g: WeightedGraph,
    ledger: _EdgeLedger,
    super_of: list[int | None],
    d: Clustering,
    sampled: set[int],
    live: list[int],
    epoch: int,
    iteration: int,
    prefix: str,
) -> tuple[Clustering, list[int], IterationTrace]:
    """One sample/join/settle/grow/prune step on the current quotient.

    Super-nodes are visited in ascending id; weight ties go to the edge
    that comes first in live.  prefix is put before every discard rule."""
    added0, disc0 = ledger.counts()
    attach: dict[int, tuple[int, int]] = {}
    pending: list[tuple[int, str]] = []

    incident = _incident(g, super_of, live)
    for s in sorted(incident):
        eids = incident[s]
        far, best = _lightest_by_cluster(g, s, eids, super_of, d.cluster_of)
        cid = d.cluster_of[s]
        if cid is None or cid in best:
            raise RuntimeError(f"a live edge of node {s} lies inside its cluster or outside any")
        if cid in sampled:
            continue
        joins = [eid for eid, c in zip(eids, far) if c in sampled]
        if joins:
            e0 = min(joins, key=g.weight)
            w0 = g.weight(e0)
            x, y = g.endpoints(e0)
            attach[s] = (super_of[x] if super_of[x] != s else super_of[y], e0)
            # Join e0's cluster; strictly cheaper neighbor clusters also keep one edge.
            rule = prefix + RULE_JOIN
            kept = {c for c, e1 in best.items() if e1 == e0 or g.weight(e1) < w0}
        else:
            rule = prefix + RULE_SETTLE
            kept = best
        for c in kept:
            ledger.add(best[c])
        pending.extend((eid, rule) for eid, c in zip(eids, far) if c in kept and eid != best[c])

    for eid, rule in pending:
        ledger.discard(eid, epoch, iteration, rule)

    d_next = grow_clusters(d, sampled, attach)

    intra = prefix + RULE_INTRA
    survivors: list[int] = []
    for eid in live:
        if not ledger.is_live(eid):
            continue
        u, v, _ = g.edges[eid]
        cu = d_next.cluster_of[super_of[u]]
        cv = d_next.cluster_of[super_of[v]]
        if cu is None or cv is None:
            raise RuntimeError(f"live edge {eid} has an endpoint that left the clustering")
        if cu == cv:
            ledger.discard(eid, epoch, iteration, intra)
        else:
            survivors.append(eid)

    added1, disc1 = ledger.counts()
    trace = IterationTrace(
        clusters_before=len(d.center_of),
        sampled=len(sampled),
        added=added1 - added0,
        discarded=disc1 - disc0,
    )
    return d_next, survivors, trace


def _run_epoch(
    g: WeightedGraph, ledger: _EdgeLedger, quotient: QuotientGraph, live: list[int],
    p: float, steps: int, rng: random.Random, epoch: int, prefix: str = "",
) -> tuple[Clustering, list[int], list[IterationTrace]]:
    """Grow singleton clusters of the quotient's super-nodes for steps
    iterations at sampling probability p; returns the final clustering,
    the edges still live and the iteration traces."""
    if steps < 1:
        raise RuntimeError(f"epoch {epoch} ran no iteration")
    d = singleton_clustering(quotient)
    iterations: list[IterationTrace] = []
    for j in range(1, steps + 1):
        sampled = sample_clusters(d, p, rng)
        d, live, trace = _run_iteration(
            g, ledger, quotient.super_of, d, sampled, live, epoch, j, prefix
        )
        iterations.append(trace)
    return d, live, iterations


def _contract(
    g: WeightedGraph, ledger: _EdgeLedger, quotient: QuotientGraph, d: Clustering,
    live: list[int], epoch: int, iteration: int,
) -> tuple[QuotientGraph, list[int], int]:
    """Contract d's clusters and discard the duplicate edges contract drops;
    returns the new quotient, the edges still live and the drop count."""
    quotient, dropped = contract(quotient, d, live, g)
    for eid in dropped:
        ledger.discard(eid, epoch, iteration, RULE_DEDUP)
    return quotient, [e for e in live if ledger.is_live(e)], len(dropped)


def _completion_sweep(
    g: WeightedGraph,
    ledger: _EdgeLedger,
    final: Clustering,
    node_of: Sequence[int | None],
    live: list[int],
    epoch: int,
    rule: str,
) -> tuple[int, int]:
    """Final pass: every node (node_of[v] for a vertex v) on a remaining
    edge keeps its lightest edge into each adjacent cluster of final; the
    rest are superseded.

    Nodes are visited in ascending id, each skipping the edges an earlier
    node already decided, and weight ties go to the edge that comes first
    in live, so the sweep is deterministic.
    """
    added0, disc0 = ledger.counts()
    incident = _incident(g, node_of, live)
    for x in sorted(incident):
        eids = [eid for eid in incident[x] if ledger.is_live(eid)]
        far, best = _lightest_by_cluster(g, x, eids, node_of, final.cluster_of)
        for eid, c in zip(eids, far):
            if eid == best[c]:
                ledger.add(eid)
            else:
                ledger.discard(eid, epoch, None, rule)
    added1, disc1 = ledger.counts()
    return added1 - added0, disc1 - disc0


def _finish(
    g: WeightedGraph,
    ledger: _EdgeLedger,
    k: int,
    t: int,
    seed: int,
    epochs: list[EpochTrace],
    phase2: tuple[int, int],
    final: Clustering,
    certs: list[RadiusCertificate] | None,
) -> SpannerBuild:
    if SpannerBuild.LIVE in ledger.state:
        raise RuntimeError("unprocessed edges remain")
    spanner = sorted(e for e in range(g.m) if ledger.state[e] == SpannerBuild.IN)
    return SpannerBuild(
        n=g.n,
        m=g.m,
        k=k,
        t=t,
        seed=seed,
        spanner_edges=spanner,
        epochs=epochs,
        phase2_added=phase2[0],
        phase2_discarded=phase2[1],
        final_clustering=final,
        radius_checks=certs,
        _state=ledger.state,
        _discards=ledger.discards,
    )


def _take_all(
    g: WeightedGraph, k: int, t: int, seed: int, radius_checks: bool = False
) -> SpannerBuild:
    """Stretch-1 output: the spanner is the whole graph."""
    ledger = _EdgeLedger(g)
    for eid in range(g.m):
        ledger.add(eid)
    certs: list[RadiusCertificate] | None = [] if radius_checks else None
    return _finish(g, ledger, k, t, seed, [], (0, 0), singleton_clustering(g), certs)


def general_spanner(
    g: WeightedGraph, k: int, t: int, seed: int, radius_checks: bool = False
) -> SpannerBuild:
    """Epoch-parameterized spanner with stretch at most 2*k**s, where
    s = ln(2t+1)/ln(t+1).

    Runs epoch_count(k, t) epochs.  Epoch i samples clusters with
    probability n**(-(t+1)**(i-1)/k) for up to t iterations; iterations
    stop (only relevant for t >= 2) once the cumulative sampling exponent
    reaches (k-1)/k, the budget after which the expected cluster count has
    already dropped to n**(1/k) and further growth would only inflate the
    radius.  With t=k this leaves exactly k-1 growth iterations plus the
    completion sweep, the classic (2k-1)-stretch construction.  Clusters
    are contracted between epochs; the completion sweep runs directly on
    the last epoch's clustering.

    With radius_checks=True the composed clustering at the end of each
    epoch i is certified against radius ((2t+1)**i - 1)/2 and property (B)
    over the edges still unprocessed at that point.
    """
    if k < 1 or t < 1:
        raise DomainError("k and t must be >= 1")
    if k == 1:
        return _take_all(g, k, t, seed, radius_checks)

    rng = random.Random(seed)
    ledger = _EdgeLedger(g)
    quotient = identity_quotient(g)
    composed = singleton_clustering(g)
    live = list(range(g.m))
    epochs: list[EpochTrace] = []
    certs: list[RadiusCertificate] | None = [] if radius_checks else None

    schedule = epoch_schedule(k, t, g.n)
    last_epoch = schedule[-1][0]
    spent = 0  # cumulative sampling exponent, in units of 1/k

    for i, p, _ in schedule:
        power = (t + 1) ** (i - 1)
        steps = 0
        while steps < t and spent < k - 1:
            steps, spent = steps + 1, spent + power
        d, live, iterations = _run_epoch(g, ledger, quotient, live, p, steps, rng, i)

        composed = compose(d, composed, quotient, g)
        if certs is not None:
            bound = ((2 * t + 1) ** i - 1) // 2
            certs.append(check_radius(g, composed, live, bound))

        dedup = 0
        if i < last_epoch:
            quotient, live, dedup = _contract(g, ledger, quotient, d, live, i, steps)
        epochs.append(EpochTrace(i, p, iterations, len(d.center_of), dedup))

    phase2 = _completion_sweep(g, ledger, composed, range(g.n), live, last_epoch, RULE_COMPLETION)
    return _finish(g, ledger, k, t, seed, epochs, phase2, composed, certs)


def baswana_sen(g: WeightedGraph, k: int, seed: int) -> SpannerBuild:
    """Classic randomized (2k-1)-spanner: the t=k extreme of the general
    construction (a single epoch, no contraction)."""
    return general_spanner(g, k, k, seed)


def cluster_merge_spanner(
    g: WeightedGraph, k: int, seed: int, radius_checks: bool = False
) -> SpannerBuild:
    """Contract-every-iteration spanner: stretch at most 2*k**log2(3) in
    ceil(log2 k) epochs.  Identical to general_spanner with t=1."""
    return general_spanner(g, k, 1, seed, radius_checks=radius_checks)


def two_phase_spanner(g: WeightedGraph, k: int, seed: int) -> SpannerBuild:
    """Two-stage spanner for unweighted graphs with O(k) hop stretch.

    Stage one (epoch 1) runs t = ceil(sqrt(k)) growth iterations at
    sampling probability n**(-1/k) and contracts the resulting clusters.
    Stage two (epoch 2) builds the classic (2t-1)-spanner of the contracted
    graph on the same engine: t-1 iterations at probability
    super_count**(-1/t) and the completion sweep over super-nodes, with
    its discard rules prefixed "stage2-".  Hop stretch is at most
    2t + (2t+1)(2t-1) + 2t.
    """
    if any(w != 1.0 for _, _, w in g.edges):
        raise DomainError("two-phase spanner requires an unweighted graph (unit weights)")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k == 1:
        return _take_all(g, k, 1, seed)

    t = _ceil_sqrt(k)
    rng = random.Random(seed)
    ledger = _EdgeLedger(g)
    quotient = identity_quotient(g)
    live = list(range(g.m))
    p = min(1.0, g.n ** (-1.0 / k))
    d, live, iterations = _run_epoch(g, ledger, quotient, live, p, t, rng, 1)
    composed = compose(d, singleton_clustering(g), quotient, g)
    quotient, live, dedup = _contract(g, ledger, quotient, d, live, 1, t)
    epochs = [EpochTrace(1, p, iterations, len(d.center_of), dedup)]
    if not live:
        return _finish(g, ledger, k, t, seed, epochs, (0, 0), composed, None)

    # contract left one live edge per super-node pair.  Stage two lists
    # them by that pair, so unit-weight ties go to the smaller pair.
    super_of = quotient.super_of
    live.sort(key=lambda e: sorted((super_of[g.edges[e][0]], super_of[g.edges[e][1]])))
    p2 = min(1.0, quotient.super_count ** (-1.0 / t))
    rng2 = random.Random(rng.getrandbits(63))
    d2, live, iterations = _run_epoch(g, ledger, quotient, live, p2, t - 1, rng2, 2, STAGE2)
    epochs.append(EpochTrace(2, p2, iterations, len(d2.center_of)))
    phase2 = _completion_sweep(g, ledger, d2, super_of, live, 2, STAGE2 + RULE_COMPLETION)
    final = compose(d2, composed, quotient, g)
    return _finish(g, ledger, k, t, seed, epochs, phase2, final, None)
