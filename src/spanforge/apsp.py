"""Approximate all-pairs shortest paths answered from a spanner alone.

Build a near-linear-size spanner once, then compute every pairwise
distance on the spanner subgraph.  Exact and spanner distances stream
side by side as aligned blocks of source rows (oracles.apsp_blocks:
bit-parallel BFS on unit weights, batched label-setting Dijkstra
otherwise), and each block's pair ratios are kept as soon as it is
made, so no n x n matrix is ever held; comparing the two measures the
realized approximation factor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .graph import DomainError, WeightedGraph
# apsp_matrix stays importable from here, where perfbench/layers.py wraps it.
from .oracles import apsp_blocks, apsp_matrix
from .spanner import general_spanner, stretch_bound

EXACT_APSP_GUARD = 2000
COORDINATOR_FACTOR = 8.0


class ApspBoundError(RuntimeError):
    """The realized APSP ratio exceeded the schedule's stretch bound."""


def check_apsp_guard(n: int) -> None:
    """Refuse n > EXACT_APSP_GUARD vertices with a DomainError: the pair
    ratios are an array of n(n - 1)/2 floats, and the two all-pairs
    sweeps take time quadratic in n and more."""
    if n > EXACT_APSP_GUARD:
        raise DomainError(f"exact APSP oracle is guarded at n <= {EXACT_APSP_GUARD}; got n = {n}")


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
    that checks it nor the ratios.
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


Blocks = Iterable[tuple[int, np.ndarray]]


def pair_ratios(exact: Blocks, approx: Blocks) -> tuple[float, float, int]:
    """Max and mean of approx/exact over connected off-diagonal pairs.

    exact and approx are aligned streams of (lo, rows) blocks, rows[i]
    holding the distances from vertex lo + i, as apsp_blocks yields
    them.  Each block's upper-triangle pairs are written, in row-major
    order, into one array of their ratios as soon as the block arrives.
    """
    ratios = None
    pairs = 0
    for (lo, e_rows), (a_lo, a_rows) in zip(exact, approx, strict=True):
        if a_lo != lo or a_rows.shape != e_rows.shape:
            raise ValueError(f"misaligned row blocks: {e_rows.shape} at {lo}, {a_rows.shape} at {a_lo}")
        n = e_rows.shape[1]
        if ratios is None:
            # Sized for every pair; the pages past the connected pairs are
            # never written, so a disconnected graph does not pay for them
            # in memory.
            ratios = np.empty(n * (n - 1) // 2)
        connected = (np.arange(n) > np.arange(lo, lo + len(e_rows))[:, None]) & np.isfinite(e_rows)
        e, a = e_rows[connected], a_rows[connected]
        zero = e == 0
        out = ratios[pairs : pairs + len(e)]
        np.divide(a, e, out=out, where=~zero)
        out[zero] = np.where(a[zero] == 0, 1.0, math.inf)
        pairs += len(e)
    if pairs == 0:
        return 1.0, 1.0, 0
    ratios = ratios[:pairs]
    return float(ratios.max()), float(ratios.mean()), pairs


def _timed(make: Callable[[], Blocks], spent: list[float]) -> Iterator[tuple[int, np.ndarray]]:
    """make()'s blocks, adding the time spent in make() and in producing
    each block to spent[0]; the consumer's time between blocks is not
    counted."""
    start = time.perf_counter()
    blocks = iter(make())
    while True:
        block = next(blocks, None)
        spent[0] += time.perf_counter() - start
        if block is None:
            return
        yield block
        start = time.perf_counter()


def apsp_experiment(g: WeightedGraph, k: int, t: int, seed: int) -> ApspReport:
    """Build a spanner, answer all pairs from it, and report the realized
    approximation factor against exact distances.

    Refuses graphs with more than EXACT_APSP_GUARD = 2000 vertices (see
    check_apsp_guard): the ratio array and the run time are quadratic in
    n, and this harness targets desk-scale instances.  Distances are
    never held as matrices: the exact and spanner row blocks are folded
    into the ratios as they are made.  query_seconds is the time spent
    producing the spanner's blocks.  Raises ApspBoundError when the max
    ratio exceeds the bound 2*k**s.
    """
    check_apsp_guard(g.n)
    t0 = time.perf_counter()
    build = general_spanner(g, k, t, seed)
    t1 = time.perf_counter()
    query = [0.0]
    answers = _timed(lambda: apsp_blocks(g, build.spanner_edges), query)
    max_ratio, mean_ratio, pairs = pair_ratios(apsp_blocks(g), answers)
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
        query_seconds=query[0],
    )
