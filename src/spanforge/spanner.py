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

import numpy as np

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
from .graph import DomainError, WeightedGraph, sort_pairs

# Disposition rule tags for discarded edges.
RULE_JOIN = "join"                 # superseded while joining a sampled neighbor
RULE_SETTLE = "settle"             # superseded while settling with no sampled neighbor
RULE_INTRA = "intra-cluster"       # became internal to a grown cluster
RULE_DEDUP = "contract-dedup"      # lost the per-super-pair minimum at contraction
RULE_COMPLETION = "completion"     # superseded in the final completion sweep
STAGE2 = "stage2-"                 # prefix of every twophase stage-two rule


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


def epoch_schedule(k: int, t: int, n: int) -> list[tuple[int, float]]:
    """Formal epoch plan: (epoch index, sampling probability) pairs.

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
        out.append((i, p))
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
    _ledger: _EdgeLedger

    LIVE, IN, OUT = 0, 1, 2

    def disposition(self, eid: int):
        ledger = self._ledger
        s = ledger.state[eid]
        if s == self.IN:
            return ("in_spanner",)
        if s == self.OUT:
            return ("discarded",) + ledger.records[ledger.record[eid]]
        return ("unprocessed",)

    @property
    def size(self) -> int:
        return len(self.spanner_edges)

    def discard_histogram(self) -> dict[str, int]:
        ledger = self._ledger
        out = ledger.state == self.OUT
        counts = np.bincount(ledger.record[out], minlength=len(ledger.records))
        hist: dict[str, int] = {}
        for (_, _, rule), count in zip(ledger.records, counts.tolist()):
            if count:
                hist[rule] = hist.get(rule, 0) + count
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
                "unprocessed": int(np.count_nonzero(self._ledger.state == self.LIVE)),
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
    """Each edge's fate while an algorithm runs: its state and, once
    discarded, the index of its (epoch, iteration, rule) record."""

    def __init__(self, m: int):
        self.state = np.zeros(m, np.uint8)  # SpannerBuild.LIVE
        self.record = np.zeros(m, np.int32)
        self.records: list[tuple[int, int | None, str]] = []
        self._codes: dict[tuple[int, int | None, str], int] = {}

    def code(self, epoch: int, iteration: int | None, rule: str) -> int:
        """The index of the record (epoch, iteration, rule), made on first use."""
        key = (epoch, iteration, rule)
        if key not in self._codes:
            self._codes[key] = len(self.records)
            self.records.append(key)
        return self._codes[key]

    def add(self, eids: np.ndarray) -> None:
        """Put the live edges among eids into the spanner."""
        self.state[eids[self.state[eids] == SpannerBuild.LIVE]] = SpannerBuild.IN

    def discard(self, eids: np.ndarray, code: int | np.ndarray) -> None:
        """Discard the live edges among eids under a record code, or one
        code per eid; an edge listed twice takes the code of its first
        listing."""
        eids, first = np.unique(eids, return_index=True)
        live = self.state[eids] == SpannerBuild.LIVE
        eids = eids[live]
        self.state[eids] = SpannerBuild.OUT
        self.record[eids] = code if np.isscalar(code) else code[first[live]]

    def decided(self, eids: np.ndarray) -> tuple[int, int]:
        """How many of eids are in the spanner and how many are discarded."""
        state = self.state[eids]
        return (
            int(np.count_nonzero(state == SpannerBuild.IN)),
            int(np.count_nonzero(state == SpannerBuild.OUT)),
        )


def _check_weight_order(g: WeightedGraph, live: np.ndarray) -> None:
    """The engine breaks weight ties by position in live, which therefore
    lists the live edges by weight."""
    w = g.w[live]
    if np.any(w[1:] < w[:-1]):
        raise RuntimeError("live edges are not sorted by weight")


def _group_starts(key: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted key column where a new value starts."""
    starts = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return starts


def _run_iteration(
    g: WeightedGraph,
    ledger: _EdgeLedger,
    super_of: np.ndarray,
    d: Clustering,
    sampled: np.ndarray,
    live: np.ndarray,
    epoch: int,
    iteration: int,
    prefix: str,
) -> tuple[Clustering, np.ndarray, IterationTrace]:
    """One sample/join/settle/grow/prune step on the current quotient.

    live lists the live edges by weight, ties in the order that breaks
    them.  Each live edge gives an arc from each end node (super_of of a
    vertex) to the cluster at the other end.  The arcs of nodes outside the
    sampled clusters are sorted once by (node, far cluster, live position),
    which is (node, far cluster, weight, live position); the first arc of
    each (node, cluster) group is the node's lightest edge into that
    cluster.  A node joins through the first of its groups in live order
    that leads into a sampled cluster and keeps the groups strictly lighter
    than it; a node with no sampled neighbour settles and keeps every group.
    The other edges of kept groups are discarded after all adds, an edge
    discarded from both ends taking the smaller node's rule.  prefix is put
    before every discard rule."""
    _check_weight_order(g, live)
    a, b = super_of[g.u[live]], super_of[g.v[live]]
    if np.any((a < 0) | (b < 0)):
        raise RuntimeError("a live edge has an end outside the quotient")
    ca, cb = d.cluster_of[a], d.cluster_of[b]
    if np.any((ca < 0) | (cb < 0) | (ca == cb)):
        raise RuntimeError("a live edge lies inside one cluster or has an end outside any")

    # The arcs of nodes outside the sampled clusters as (group, live
    # position) rows, group = node * n_ids + far cluster, sorted.
    n_ids = len(d.cluster_of)
    in_sampled = np.zeros(n_ids, bool)
    in_sampled[sampled] = True
    sides = [(a, cb, ~in_sampled[ca]), (b, ca, ~in_sampled[cb])]
    del ca, cb
    rows = sum(np.count_nonzero(keep) for _, _, keep in sides)
    group, pos = np.empty(rows, np.int64), np.empty(rows, np.int32)
    start = 0
    for node, far, keep in sides:
        end = start + np.count_nonzero(keep)
        group[start:end] = node[keep]
        group[start:end] *= n_ids
        group[start:end] += far[keep]
        pos[start:end] = np.flatnonzero(keep)
        start = end
    del a, b, sides, node, far, keep
    sort_pairs(group, pos, max(len(live), 1))

    # Per row: its node, its live position and whether it leads into a
    # sampled cluster.  A group's first row is its lightest edge.
    first = _group_starts(group)
    far = np.empty(rows, np.int32)
    np.divmod(group, n_ids, out=(group, far))
    into_sampled = in_sampled[far]
    node = group.astype(np.int32)
    del group, far
    best_node, best_pos = node[first], pos[first]

    # A joining node's join edge is its earliest best edge into a sampled
    # cluster; it keeps that group and the groups strictly lighter, which
    # start before the first live position of the join edge's weight.
    best_into = into_sampled[first]
    del into_sampled
    no_join = len(live)
    join_pos = np.full(n_ids, no_join, np.int32)
    np.minimum.at(join_pos, best_node[best_into], best_pos[best_into])
    joiner = np.flatnonzero(join_pos < no_join)
    limit = np.full(n_ids, no_join, np.int32)
    limit[joiner] = np.searchsorted(g.w[live], g.w[live[join_pos[joiner]]])
    kept = (best_pos < limit[best_node]) | (best_pos == join_pos[best_node])
    del best_into, best_node, limit

    # Each row's group is kept or not: a running sum of the change in
    # kept from one group to the next, taken at the group starts.
    ledger.add(live[best_pos[kept]])
    change = np.zeros(rows, np.int8)
    change[first] = np.diff(kept.view(np.int8), prepend=np.int8(0))
    superseded = np.cumsum(change, dtype=np.int8).view(bool)
    superseded &= ~first
    joined = join_pos[node[superseded]] < no_join
    code = np.where(joined, ledger.code(epoch, iteration, prefix + RULE_JOIN),
                    ledger.code(epoch, iteration, prefix + RULE_SETTLE))
    ledger.discard(live[pos[superseded]], code)
    del node, pos, first, change, superseded, best_pos, kept

    join_edge = live[join_pos[joiner]]
    hosts = super_of[g.u[join_edge]] + super_of[g.v[join_edge]] - joiner  # other end
    d_next = grow_clusters(d, sampled, joiner, hosts, join_edge)

    cluster_of = d_next.cluster_of
    rest = live[ledger.state[live] == SpannerBuild.LIVE]
    ca, cb = cluster_of[super_of[g.u[rest]]], cluster_of[super_of[g.v[rest]]]
    if np.any((ca < 0) | (cb < 0)):
        raise RuntimeError("a live edge has an endpoint that left the clustering")
    inside = ca == cb
    ledger.discard(rest[inside], ledger.code(epoch, iteration, prefix + RULE_INTRA))
    survivors = rest[~inside]

    added, discarded = ledger.decided(live)
    trace = IterationTrace(
        clusters_before=len(d.clusters()),
        sampled=len(sampled),
        added=added,
        discarded=discarded,
    )
    return d_next, survivors, trace


def _run_epoch(
    g: WeightedGraph, ledger: _EdgeLedger, quotient: QuotientGraph, live: np.ndarray,
    p: float, steps: int, rng: random.Random, epoch: int, prefix: str = "",
) -> tuple[Clustering, np.ndarray, list[IterationTrace]]:
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
    live: np.ndarray, epoch: int, iteration: int,
) -> tuple[QuotientGraph, np.ndarray, int]:
    """Contract d's clusters and discard the duplicate edges contract drops;
    returns the new quotient, the edges still live and the drop count."""
    quotient, dropped = contract(quotient, d, live, g)
    ledger.discard(dropped, ledger.code(epoch, iteration, RULE_DEDUP))
    return quotient, live[ledger.state[live] == SpannerBuild.LIVE], len(dropped)


def _completion_sweep(
    g: WeightedGraph,
    ledger: _EdgeLedger,
    final: Clustering,
    node_of: np.ndarray,
    live: np.ndarray,
    epoch: int,
    rule: str,
) -> tuple[int, int]:
    """Final pass: every node (node_of[v] for a vertex v) on a remaining
    edge keeps its lightest edge into each adjacent cluster of final; the
    rest are superseded.

    Nodes are visited in ascending id, each skipping the edges an earlier
    node already decided, so each edge belongs to its smaller end node.
    live lists the edges by weight, so sorting them stably by (that node,
    the cluster at the other end) orders each group by (weight, live
    position), and the first of each group is kept.
    """
    _check_weight_order(g, live)
    a, b = node_of[g.u[live]], node_of[g.v[live]]
    group = np.minimum(a, b).astype(np.int64)
    if np.any(group < 0):
        raise RuntimeError("a live edge has an end outside the quotient")
    far = final.cluster_of[np.maximum(a, b)]
    if np.any(far < 0):
        raise RuntimeError("a live edge has an endpoint outside the clustering")
    group *= len(final.cluster_of)
    group += far
    pos = np.arange(len(live))
    sort_pairs(group, pos, max(len(live), 1))
    first = _group_starts(group)
    ledger.add(live[pos[first]])
    ledger.discard(live[pos[~first]], ledger.code(epoch, None, rule))
    return ledger.decided(live)


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
    if np.any(ledger.state == SpannerBuild.LIVE):
        raise RuntimeError("unprocessed edges remain")
    return SpannerBuild(
        n=g.n,
        m=g.m,
        k=k,
        t=t,
        seed=seed,
        spanner_edges=np.flatnonzero(ledger.state == SpannerBuild.IN).tolist(),
        epochs=epochs,
        phase2_added=phase2[0],
        phase2_discarded=phase2[1],
        final_clustering=final,
        radius_checks=certs,
        _ledger=ledger,
    )


def _take_all(
    g: WeightedGraph, k: int, t: int, seed: int, radius_checks: bool = False
) -> SpannerBuild:
    """Stretch-1 output: the spanner is the whole graph."""
    ledger = _EdgeLedger(g.m)
    ledger.add(np.arange(g.m))
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
    ledger = _EdgeLedger(g.m)
    quotient = identity_quotient(g)
    composed = singleton_clustering(g)
    # Weight order, ties by edge id; every later step keeps this order.
    live = np.argsort(g.w, kind="stable")
    epochs: list[EpochTrace] = []
    certs: list[RadiusCertificate] | None = [] if radius_checks else None

    schedule = epoch_schedule(k, t, g.n)
    last_epoch = schedule[-1][0]
    spent = 0  # cumulative sampling exponent, in units of 1/k

    for i, p in schedule:
        power = (t + 1) ** (i - 1)
        steps = 0
        while steps < t and spent < k - 1:
            steps, spent = steps + 1, spent + power
        d, live, iterations = _run_epoch(g, ledger, quotient, live, p, steps, rng, i)

        composed = compose(d, composed, quotient, g)
        if certs is not None:
            bound = ((2 * t + 1) ** i - 1) // 2
            certs.append(check_radius(g, composed, live.tolist(), bound))

        dedup = 0
        if i < last_epoch:
            quotient, live, dedup = _contract(g, ledger, quotient, d, live, i, steps)
        epochs.append(EpochTrace(i, p, iterations, len(d.clusters()), dedup))

    phase2 = _completion_sweep(
        g, ledger, composed, np.arange(g.n), live, last_epoch, RULE_COMPLETION
    )
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
    if np.any(g.w != 1.0):
        raise DomainError("two-phase spanner requires an unweighted graph (unit weights)")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k == 1:
        return _take_all(g, k, 1, seed)

    t = _ceil_sqrt(k)
    rng = random.Random(seed)
    ledger = _EdgeLedger(g.m)
    quotient = identity_quotient(g)
    live = np.arange(g.m)  # unit weights, so already in weight order
    p = min(1.0, g.n ** (-1.0 / k))
    d, live, iterations = _run_epoch(g, ledger, quotient, live, p, t, rng, 1)
    composed = compose(d, singleton_clustering(g), quotient, g)
    quotient, live, dedup = _contract(g, ledger, quotient, d, live, 1, t)
    epochs = [EpochTrace(1, p, iterations, len(d.clusters()), dedup)]
    if not len(live):
        return _finish(g, ledger, k, t, seed, epochs, (0, 0), composed, None)

    # contract left one live edge per super-node pair.  Stage two lists
    # them by that pair, so unit-weight ties go to the smaller pair.
    super_of = quotient.super_of
    a, b = super_of[g.u[live]], super_of[g.v[live]]
    live = live[np.lexsort((np.maximum(a, b), np.minimum(a, b)))]
    p2 = min(1.0, quotient.super_count ** (-1.0 / t))
    rng2 = random.Random(rng.getrandbits(63))
    d2, live, iterations = _run_epoch(g, ledger, quotient, live, p2, t - 1, rng2, 2, STAGE2)
    epochs.append(EpochTrace(2, p2, iterations, len(d2.clusters())))
    phase2 = _completion_sweep(g, ledger, d2, super_of, live, 2, STAGE2 + RULE_COMPLETION)
    final = compose(d2, composed, quotient, g)
    return _finish(g, ledger, k, t, seed, epochs, phase2, final, None)
