"""The benchmark's workloads: one CLI job shape each, seeded per job.

Every job's seed derives from the workload seed and the job's index, so
a run is reproducible from its ``--seed``.  ``build-gnp`` reads a file
this module writes (``write_gnm``), so a change to spanforge's own
generators cannot change that input.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

GNM_N = 4000
GNM_M = 120_000
GNM_WEIGHTS = (1.0, 10.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algo: str       # schedule whose stretch bound the outputs are checked against
    k: int
    t: int
    gen: str | None  # generator spec the program expands, or None for the written input
    # An untraced run starts at least this many jobs, fewer than fit in a
    # 20 s run here; the output-quality metrics are taken over exactly
    # these, so they depend on the seed alone and average out per-seed
    # variation.
    quality_jobs: int
    # Vertices per job whose discarded edges get a stretch check; None
    # checks them all.
    stretch_sources: int | None = None
    audit: bool = False  # build with --audit auto
    apsp: bool = False   # study --apsp instead of build

    def argv(self, job_dir: Path, seed: int, input_path: Path | None) -> list[str]:
        report = str(job_dir / "report.json")
        if self.apsp:
            return [
                "study", "--apsp", "--gen", self.gen, "--k", str(self.k), "--t", str(self.t),
                "--trials", "1", "--seed0", str(seed), "--json", report,
                "--out", str(job_dir / "trials.csv"),
            ]
        source = ["--gen", self.gen] if self.gen else ["--input", str(input_path)]
        argv = ["build", *source, "--algo", self.algo, "--k", str(self.k)]
        if self.algo == "general":
            argv += ["--t", str(self.t)]
        if self.audit:
            argv += ["--audit", "auto"]
        return argv + [
            "--seed", str(seed), "--out", report, "--spanner-out", str(job_dir / "spanner.txt"),
        ]

    def bound(self) -> float:
        """The schedule's stretch bound, written out here independently of
        the program's own formulas."""
        if self.algo == "twophase":
            t = math.isqrt(self.k)
            t += t * t < self.k
            return 2 * t + (2 * t + 1) * (2 * t - 1) + 2 * t
        s = math.log(2 * self.t + 1) / math.log(self.t + 1)
        return 2 * self.k ** s


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "build-gnp",
            "per-edge engine on a dense weighted file input (n=4000, m=120000): grouping, "
            "selection and contraction dedup; no oracle work",
            "general", 8, 2, None, quality_jobs=5, stretch_sources=12,
        ),
        Workload(
            "build-grid",
            "engine on a node-heavy unit-weight grid (40000 vertices) where every weight ties, "
            "with twophase's contract-and-recurse stage",
            "twophase", 9, 3, "grid:200:200", quality_jobs=10,
        ),
        Workload(
            "audit-gnp",
            "inline Dijkstra stretch audit (one run per source, n=1000) dominates; control "
            "for engine changes",
            "general", 8, 2, "gnp:1000:0.01:uniform(1,10)", quality_jobs=8, stretch_sources=12,
            audit=True,
        ),
        Workload(
            "apsp-gnp",
            "two all-pairs Dijkstra sweeps into n x n matrices on unit weights with the t=1 "
            "schedule; the only workload that reaches the apsp layer",
            "general", 9, 1, "gnp:1000:0.01:unit", quality_jobs=6, apsp=True,
        ),
    ]
}


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int, float]]:
    """m distinct vertex pairs drawn uniformly, with uniform(1, 10) weights.

    Rejection sampling of pairs is expected O(m) while m is well below
    n(n-1)/2.  Each pair is normalised to u < v, so the program's edge id
    of a pair is its line number.
    """
    if m > n * (n - 1) // 4:
        raise ValueError(f"m={m} too dense for rejection sampling on n={n}")
    rng = random.Random(seed)
    seen: set[int] = set()
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        key = u * n + v
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v, rng.uniform(*GNM_WEIGHTS)))
    return edges


def write_gnm(path: Path, n: int, m: int, seed: int) -> tuple[list[tuple[int, int, float]], str]:
    """Write a gnm input in the edge-list format; returns (edges, sha256).

    Weights are written with ``repr`` so they parse back bit-exactly.
    """
    edges = gnm_edges(n, m, seed)
    text = f"# {n} {m}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)
    data = text.encode()
    path.write_bytes(data)
    return edges, hashlib.sha256(data).hexdigest()
