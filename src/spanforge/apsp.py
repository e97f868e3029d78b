"""Approximate all-pairs shortest paths answered from a spanner alone.

Build a near-linear-size spanner once, then compute every pairwise
distance on the spanner subgraph.  Exact and spanner distances stream
side by side as aligned blocks of source rows (oracles.apsp_blocks:
bit-parallel BFS on unit weights, batched label-setting Dijkstra
otherwise), and each block pair's ratios are folded into a running
maximum, a sum and a pair count and then freed, so neither an n x n
matrix nor an array of the n(n - 1)/2 pair ratios is ever held;
comparing the two measures the realized approximation factor.  The
mean ratio is math.fsum of the per-block sums over the pair count.
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
    """Refuse n > EXACT_APSP_GUARD vertices with a DomainError.  The
    guard bounds time: the two all-pairs sweeps take time quadratic in n
    and more (on unit weights, times the diameter).  Memory is one row
    block per stream plus the BFS pass, whose gather and bit planes
    oracles._GATHER_WORDS bounds, so it does not grow with n squared."""
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
    them: the first block starts at row 0, each starts where the one
    before it ended, and the last ends at the row length n.  Anything
    else raises ValueError.  Each block pair's upper-triangle pairs are
    folded into a maximum, a sum (np.sum) and a count, and the pair is
    freed before the next one is pulled from the streams, so no
    n(n - 1)/2 array exists.  The mean is math.fsum of the block sums
    over the count: for a one-block stream it is bit for bit numpy's
    mean of the whole triangle's ratios, and with more blocks it may
    differ from that in the last bits.  With no connected pair, the
    ratios are (1.0, 1.0, 0).
    """
    exact, approx = iter(exact), iter(approx)
    maxima: list[float] = []
    sums: list[float] = []
    pairs = end = 0
    n = None
    # Each pair is pulled into _fold's frame alone, so its arrays are
    # freed when the call returns.
    while (folded := _fold(next(exact, None), next(approx, None), end, n)) is not None:
        n, end, count, top, total = folded
        if count:
            pairs += count
            maxima.append(top)
            sums.append(total)
    if n is not None and end != n:
        raise ValueError(f"misaligned row blocks: the streams end at row {end} of {n}")
    if pairs == 0:
        return 1.0, 1.0, 0
    return float(np.max(maxima)), math.fsum(sums) / pairs, pairs


def _fold(
    e_block: tuple[int, np.ndarray] | None, a_block: tuple[int, np.ndarray] | None, end: int, n: int | None
) -> tuple[int, int, int, float, float] | None:
    """(n, the block's end row, pair count, max ratio, ratio sum) of one
    block pair that must start at row end and, unless n is None, have n
    columns; None when both streams have ended."""
    if e_block is None and a_block is None:
        return None
    if e_block is None or a_block is None:
        raise ValueError(f"misaligned row blocks: one stream ends at row {end}, the other goes on")
    (lo, e_rows), (a_lo, a_rows) = e_block, a_block
    n = e_rows.shape[1] if n is None else n
    stop = lo + len(e_rows)
    if lo != end or a_lo != end or a_rows.shape != e_rows.shape or e_rows.shape[1] != n or stop > n:
        raise ValueError(f"misaligned row blocks: {e_rows.shape} at {lo}, {a_rows.shape} at {a_lo}, after row {end}")
    # Columns from lo + 1 on: row i's pairs are its columns i and up.
    e_rows, a_rows = e_rows[:, lo + 1 :], a_rows[:, lo + 1 :]
    connected = (np.arange(e_rows.shape[1]) >= np.arange(len(e_rows))[:, None]) & np.isfinite(e_rows)
    e, a = e_rows[connected], a_rows[connected]
    if not len(e):
        return n, stop, 0, 1.0, 0.0
    zero = e == 0
    ratios = np.divide(a, e, out=np.empty_like(e), where=~zero)
    ratios[zero] = np.where(a[zero] == 0, 1.0, math.inf)
    return n, stop, len(ratios), float(ratios.max()), float(np.sum(ratios))


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
    check_apsp_guard): the run time is quadratic in n and more, and this
    harness targets desk-scale instances.  Neither distances nor ratios
    are held for all pairs: each exact and spanner row block pair is
    folded by pair_ratios as it is made.  query_seconds is the time spent
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
