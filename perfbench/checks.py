"""Output checks for benchmark jobs.

The connectivity and stretch checks own their union-find and Dijkstra,
so they share no code with the construction or with spanforge's oracles.
Each check returns a list of problems; an empty list means the job's
outputs are correct.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from pathlib import Path

Edge = tuple[int, int, float]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def check_connectivity(n: int, edges: list[Edge], spanner: list[int]) -> list[str]:
    """Every input edge's endpoints must be joined by the spanner."""
    uf = UnionFind(n)
    for eid in spanner:
        u, v, _ = edges[eid]
        uf.union(u, v)
    for eid, (u, v, _) in enumerate(edges):
        if uf.find(u) != uf.find(v):
            return [f"spanner disconnects edge {eid} ({u},{v})"]
    return []


def spanner_distances(
    adj: list[list[tuple[int, float]]], source: int, targets: set[int], limit: float
) -> dict[int, float]:
    """Dijkstra from source until every target is settled or the frontier
    passes limit; targets left unsettled are absent from the result."""
    dist = {source: 0.0}
    done: dict[int, float] = {}
    heap = [(0.0, source)]
    remaining = set(targets)
    while heap and remaining:
        d, x = heapq.heappop(heap)
        if d > limit:
            break
        if d > dist[x]:
            continue
        if x in remaining:
            remaining.discard(x)
            done[x] = d
        for y, w in adj[x]:
            nd = d + w
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return done


def sampled_stretch(
    n: int,
    edges: list[Edge],
    spanner: list[int],
    bound: float,
    sources: int | None,
    rng: random.Random,
) -> dict[int, float]:
    """Stretch d_S(u, v) / w of every discarded edge at a sample of vertices.

    ``sources`` vertices (all of them if None) are drawn from those with a
    discarded incident edge; one bounded Dijkstra on the spanner per vertex measures all of
    its discarded edges.  The search stops past bound times the largest
    weight, so an edge it leaves unsettled gets ratio inf.
    """
    kept = set(spanner)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for eid in kept:
        u, v, w = edges[eid]
        adj[u].append((v, w))
        adj[v].append((u, w))
    incident: dict[int, list[int]] = {}
    for eid, (u, v, _) in enumerate(edges):
        if eid not in kept:
            incident.setdefault(u, []).append(eid)
            incident.setdefault(v, []).append(eid)
    candidates = sorted(incident)
    chosen = candidates if sources is None else rng.sample(candidates, min(sources, len(candidates)))
    ratios: dict[int, float] = {}
    for x in chosen:
        eids = [e for e in incident[x] if e not in ratios]
        far = {e: edges[e][1] if edges[e][0] == x else edges[e][0] for e in eids}
        limit = bound * (1 + 1e-9) * max((edges[e][2] for e in eids), default=0.0)
        dist = spanner_distances(adj, x, set(far.values()), limit)
        for e in eids:
            d, w = dist.get(far[e], math.inf), edges[e][2]
            ratios[e] = d / w if w > 0 else (1.0 if d == 0 else math.inf)
    return ratios


def check_stretch(ratios: dict[int, float], bound: float, cap: float | None = None) -> list[str]:
    """Each sampled ratio must be <= bound and, if given, <= cap (the
    program's own reported maximum, with a relative float slack)."""
    problems = [f"edge {e} stretch {r} > bound {bound}" for e, r in ratios.items() if r > bound]
    if cap is not None:
        problems += [
            f"edge {e} stretch {r} > reported max_ratio {cap}"
            for e, r in ratios.items()
            if r > cap * (1 + 1e-9)
        ]
    return problems[:5]


def check_dispositions(report: dict) -> list[str]:
    """in_spanner plus every discard must equal m, with none unprocessed."""
    disp = report["dispositions"]
    m, spanner = report["graph"]["m"], report["spanner_edges"]
    problems = []
    if disp["unprocessed"] != 0:
        problems.append(f"{disp['unprocessed']} edges unprocessed")
    if disp["in_spanner"] + sum(disp["discarded"].values()) != m:
        problems.append("in_spanner + discarded != m")
    if disp["in_spanner"] != len(spanner) or report["size"] != len(spanner):
        problems.append("size, in_spanner and spanner_edges disagree")
    if not all(type(e) is int for e in spanner) or spanner != sorted(set(spanner)) or (
        spanner and not 0 <= spanner[0] <= spanner[-1] < m
    ):
        problems.append("spanner_edges not integers, sorted, unique and in [0, m)")
    return problems


def check_spanner_file(path: Path, n: int, edges: list[Edge], spanner: list[int]) -> list[str]:
    """The --spanner-out file must hold exactly the spanner_edges."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split() != ["#", str(n), str(len(spanner))]:
        return [f"spanner file header {lines[:1]} != '# {n} {len(spanner)}'"]
    got = []
    for line in lines[1:]:
        u, v, w = line.split()
        got.append((int(u), int(v), float(w)))
    if len(got) != len(spanner) or set(got) != {edges[e] for e in spanner}:
        return ["spanner file edges differ from spanner_edges"]
    return []


def schema_validator(root: Path):
    """A validator for the report.schema.json that spanforge ships."""
    import jsonschema

    schema = json.loads((root / "src" / "spanforge" / "report.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_schema(report: dict, validator) -> list[str]:
    """Validate a build or study report against the shipped schema.

    A build's ``spanner_edges`` reaches the validator cut to one item:
    the schema's rule for its items (integers >= 0) is implied by
    ``check_dispositions``, which checks every item, and jsonschema would
    otherwise spend more time on that list than on all other checks.
    """
    if "spanner_edges" in report:
        report = dict(report, spanner_edges=report["spanner_edges"][:1])
    error = next(iter(validator.iter_errors(report)), None)
    return [] if error is None else [f"report fails report.schema.json: {error.message}"]
