"""Approximate all-pairs shortest paths answered from a spanner alone.

Build a near-linear-size spanner once, then compute every pairwise
distance on the spanner subgraph.  The exact oracle is one bit-parallel
BFS from all sources at once on unit weights and batched label-setting
Dijkstra, a block of sources at a time, otherwise, which is adequate at
the guarded instance sizes; comparing the two matrices measures the
realized approximation factor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import DomainError, WeightedGraph
from .oracles import apsp_matrix
from .spanner import general_spanner, stretch_bound

EXACT_APSP_GUARD = 2000
COORDINATOR_FACTOR = 8.0


class ApspBoundError(RuntimeError):
    """The realized APSP ratio exceeded the schedule's stretch bound."""


def coordinator_budget(n: int) -> float:
    """Reference memory budget COORDINATOR_FACTOR * n * log2(log2 n) for
    holding the spanner on one coordinator; reported, never enforced."""
    inner = max(2.0, math.log2(max(2, n)))
    return COORDINATOR_FACTOR * n * math.log2(inner)


@dataclass
class ApspReport:
    """Spanner-vs-exact distance comparison for one run.

    Wall-time fields are measured but kept out of the canonical dict so
    reports from identical seeds stay byte-identical.  query_seconds
    times the all-pairs sweep on the spanner alone, not the exact one
    that checks it.
    """

    k: int
    t: int
    seed: int
    n: int
    spanner_size: int
    max_ratio: float
    mean_ratio: float
    pairs: int
    memory_budget: float
    build_seconds: float
    query_seconds: float

    def as_dict(self, with_timing: bool = False) -> dict:
        out = {
            "k": self.k,
            "t": self.t,
            "seed": self.seed,
            "n": self.n,
            "spanner_size": self.spanner_size,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "pairs": self.pairs,
            "memory_budget": self.memory_budget,
            "within_budget": self.spanner_size <= self.memory_budget,
        }
        if with_timing:
            out["timing"] = {"build": self.build_seconds, "query": self.query_seconds}
        return out


# Bound on the cells of the row block that pair_ratios reads at a time.
_RATIO_CELLS = 2**15


def pair_ratios(exact: np.ndarray, approx: np.ndarray) -> tuple[float, float, int]:
    """Max and mean of approx/exact over connected off-diagonal pairs.

    The pairs are those of the upper triangle, in row-major order, read
    a bounded block of rows at a time into one array of their ratios.
    """
    n = exact.shape[0]
    step = max(1, _RATIO_CELLS // max(n, 1))
    # Sized for every pair; the pages past the connected pairs are never
    # written, so a disconnected graph does not pay for them in memory.
    ratios = np.empty(n * (n - 1) // 2)
    pairs = 0
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        connected = (np.arange(n) > np.arange(lo, hi)[:, None]) & np.isfinite(exact[lo:hi])
        e, a = exact[lo:hi][connected], approx[lo:hi][connected]
        zero = e == 0
        out = ratios[pairs : pairs + len(e)]
        np.divide(a, e, out=out, where=~zero)
        out[zero] = np.where(a[zero] == 0, 1.0, math.inf)
        pairs += len(e)
    if pairs == 0:
        return 1.0, 1.0, 0
    ratios = ratios[:pairs]
    return float(ratios.max()), float(ratios.mean()), pairs


def apsp_experiment(g: WeightedGraph, k: int, t: int, seed: int) -> ApspReport:
    """Build a spanner, answer all pairs from it, and report the realized
    approximation factor against exact distances.

    Refuses graphs with more than 2000 vertices: the exact oracle is
    quadratic in memory and this harness targets desk-scale instances.
    Raises ApspBoundError when the max ratio exceeds the bound 2*k**s.
    """
    if g.n > EXACT_APSP_GUARD:
        raise DomainError(
            f"exact APSP oracle is guarded at n <= {EXACT_APSP_GUARD}; got n = {g.n}"
        )
    t0 = time.perf_counter()
    build = general_spanner(g, k, t, seed)
    t1 = time.perf_counter()
    exact = apsp_matrix(g)
    t2 = time.perf_counter()
    approx = apsp_matrix(g, build.spanner_edges)
    t3 = time.perf_counter()

    max_ratio, mean_ratio, pairs = pair_ratios(exact, approx)
    bound = stretch_bound("general", k, t)
    if not max_ratio <= bound:  # NaN fails too
        raise ApspBoundError(f"APSP ratio {max_ratio} exceeds bound {bound}")
    return ApspReport(
        k=k,
        t=t,
        seed=seed,
        n=g.n,
        spanner_size=build.size,
        max_ratio=max_ratio,
        mean_ratio=mean_ratio,
        pairs=pairs,
        memory_budget=coordinator_budget(g.n),
        build_seconds=t1 - t0,
        query_seconds=t3 - t2,
    )
