"""A fixed reference kernel that gauges how fast the machine runs Python now.

The benchmark runs on a few cores of a shared host whose speed drifts by
1.5-2x over tens of seconds, so raw wall times of identical jobs spread
further than any useful bound.  The kernel below is pure Python owned by
the benchmark (it shares no code with spanforge and no program change can
alter it): sorting and allocating tuples, a union-find, dict counting and
a heapq Dijkstra, the same mix of work the program does.  Timing it between
jobs and scaling each job by ``REFERENCE_S / kernel time`` turns wall
time into seconds on a machine that runs the kernel in ``REFERENCE_S``
seconds.  On a machine that runs it at that speed the
scaled times are wall times.

``gauge()`` runs the kernel in a helper process, so its memory never
counts towards the peak RSS of the process that runs the jobs.

Usage as a helper: python3 calibrate.py  (one kernel time per input line)
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import math
import random
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Iterator

# Kernel time on the reference machine (2 shared vCPUs, Python 3.11.7).
REFERENCE_S = 0.25
# A job is scaled by the mean of the kernel times that bracket it and of
# those WINDOW jobs to either side.  One kernel time alone is off by about
# 15% from the speed over the job next to it; the mean over six follows
# the drift over tens of seconds without that noise.
WINDOW = 2


def _sort_tuples(rng: random.Random) -> None:
    for _ in range(3):
        rows = [(i, rng.random(), [i]) for i in range(30_000)]
        rows.sort(key=lambda row: row[1])
        {row[0] for row in rows[::2]}


def _union_find(rng: random.Random) -> None:
    n = 50_000
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    draw = rng.randrange
    for _ in range(60_000):
        a, b = find(draw(n)), find(draw(n))
        if a != b:
            parent[max(a, b)] = min(a, b)


def _count(rng: random.Random) -> None:
    counts: dict[int, int] = {}
    draw = rng.randrange
    for i in range(100_000):
        key = draw(50_000)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())


def _dijkstra(rng: random.Random) -> None:
    n = 2000
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for _ in range(8000):
        u, v, w = rng.randrange(n), rng.randrange(n), rng.uniform(1, 10)
        adj[u].append((v, w))
        adj[v].append((u, w))
    for source in range(6):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for y, w in adj[x]:
                nd = d + w
                if nd < dist.get(y, math.inf):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))


KERNELS = (_sort_tuples, _union_find, _count, _dijkstra)


def kernel_s() -> float:
    """Wall time of one pass over every kernel, each with a fixed seed.

    The cyclic garbage collector is off meanwhile: the kernel makes no
    cycles, so a collection would only add the size of the caller's heap
    to its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for kernel in KERNELS:
            kernel(random.Random(12345))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def gauge() -> Iterator[Callable[[], float]]:
    """A function that times the kernel once in a helper process.

    The helper ends when its input closes; leaving the block waits for it.
    """
    with subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as helper:
        def measure() -> float:
            helper.stdin.write("\n")
            helper.stdin.flush()
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"kernel helper exited with {helper.wait()}")
            return float(line)

        yield measure


def scaled(walls: list[float], kernels: list[float]) -> list[float]:
    """Job wall times in reference seconds; kernels[i] and kernels[i + 1]
    are the kernel times just before and just after walls[i]."""
    return [
        wall * REFERENCE_S / statistics.fmean(kernels[max(0, i - WINDOW):i + 2 + WINDOW])
        for i, wall in enumerate(walls)
    ]


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel_s(), flush=True)
