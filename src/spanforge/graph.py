"""Weighted undirected graphs: construction, random generators, edge-list I/O.

Vertices are dense ids 0..n-1 and edges live in an indexed list; every
other module refers to edges by their index (edge id), which stays stable
through cluster contraction and spanner extraction.

Edge-list text format:
    # n m            optional header (keeps isolated vertices)
    u v w            one edge per line; '#' starts a comment

Without a header, vertex ids may be arbitrary integers and are remapped to
0..n-1 in sorted order, unless the caller gives n.  With a header, or with
n given, ids must already lie in [0, n).
Self-loops are dropped and parallel edges collapse to the single
minimum-weight edge, so loading is idempotent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np


# Largest vertex count taken from outside input: an edge-list header or a
# generator spec.  Every build allocates per-vertex lists up front (the
# quotient map, clusterings, component labels), so a one-line header could
# otherwise ask for gigabytes.
MAX_VERTICES = 1_000_000


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable undirected graph with nonnegative edge weights.

    edges: list of (u, v, w) with u < v, no self-loops, no parallel edges.
    """

    n: int
    edges: list[tuple[int, int, float]]

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight(self, eid: int) -> float:
        return self.edges[eid][2]

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on breakage."""
        if self.n < 1:
            raise ValueError(f"vertex count {self.n} < 1")
        seen_pairs = set()
        for eid, (u, v, w) in enumerate(self.edges):
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge {eid} endpoints ({u}, {v}) not 0 <= u < v < n")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"edge {eid} weight")
            if (u, v) in seen_pairs:
                raise ValueError(f"parallel edge {eid}")
            seen_pairs.add((u, v))


def build_graph(n: int, raw_edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Normalize raw (u, v, w) triples into a WeightedGraph.

    Drops self-loops, collapses parallel edges to the minimum weight
    (first occurrence wins ties), and rejects negative or non-finite
    weights.
    """
    if n < 1:
        raise DomainError(f"vertex count must be >= 1, got {n}")
    index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, float]] = []
    for u, v, w in raw_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) out of range for n={n}")
        w = float(w)
        if not math.isfinite(w):
            raise DomainError(f"edge ({u},{v}) has non-finite weight")
        if w < 0:
            raise DomainError(f"edge ({u},{v}) has negative weight {w}")
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        at = index.get(key)
        if at is None:
            index[key] = len(edges)
            edges.append((key[0], key[1], w))
        elif w < edges[at][2]:
            edges[at] = (key[0], key[1], w)
    return WeightedGraph(n=n, edges=edges)


class EdgeArrays(NamedTuple):
    """A graph's edges as columns indexed by edge id: endpoints u < v
    (int32) and weights w (float64)."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def edge_arrays(g: WeightedGraph) -> EdgeArrays:
    """Column view of g.edges, built once per construction."""
    m = g.m
    return EdgeArrays(
        np.fromiter(map(itemgetter(0), g.edges), np.int32, m),
        np.fromiter(map(itemgetter(1), g.edges), np.int32, m),
        np.fromiter(map(itemgetter(2), g.edges), np.float64, m),
    )


def sort_pairs(major: np.ndarray, minor: np.ndarray, bound: int) -> None:
    """Sort the pairs (major[i], minor[i]) in place, ascending.

    major is int64 and minor int32 or int64, with major >= 0 and
    0 <= minor < bound.  While every pair packs into one int64 as
    major * bound + minor, one plain sort of the packed values does it,
    with no index array; otherwise a lexsort does.
    """
    if len(major) and (int(major.max()) + 1) * bound > 2**63:
        order = np.lexsort((minor, major))
        major[:], minor[:] = major[order], minor[order]
        return
    major *= bound
    major += minor
    major.sort()
    np.remainder(major, bound, out=minor)
    major //= bound


def edge_id_list(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> Sequence[int]:
    """edge_ids as a sequence in their given order (all edges when None).

    Raises DomainError for an id outside [0, m): a negative id would
    otherwise index from the end of g.edges without an error.
    """
    if edge_ids is None:
        return range(g.m)
    eids = list(edge_ids)
    for eid in eids:
        if not 0 <= eid < g.m:
            raise DomainError(f"edge id {eid} not in graph")
    return eids


def neighbour_lists(
    g: WeightedGraph, edge_ids: Iterable[int] | None = None, weighted: bool = False
) -> list[list]:
    """Adjacency of the subgraph on edge_ids (all edges when None).

    nbrs[x] lists, in edge_ids order, the other end y of each edge at x,
    or (y, w) when weighted.  Edge ids are checked by edge_id_list.
    """
    nbrs: list[list] = [[] for _ in range(g.n)]
    edges = g.edges
    for eid in edge_id_list(g, edge_ids):
        u, v, w = edges[eid]
        if weighted:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def component_labels(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> list[int]:
    """Connected-component label per vertex, over all edges or a subset."""
    nbr = neighbour_lists(g, edge_ids)
    label = [-1] * g.n
    current = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        stack = [start]
        label[start] = current
        while stack:
            x = stack.pop()
            for y in nbr[x]:
                if label[y] == -1:
                    label[y] = current
                    stack.append(y)
        current += 1
    return label


# ----------------------------- file I/O ------------------------------------


def load_edge_list(source: str | Path | IO[str], n: int | None = None) -> WeightedGraph:
    """Parse an edge-list text stream or file path into a WeightedGraph.

    n stands in for a missing header, so the ids of a file that has none
    are read as given and checked against [0, n) instead of remapped.  A
    header, when present, still sets the vertex count.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, n)

    header_n: int | None = None
    header_line = 0
    triples: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header_n is None and not triples:
                parts = line[1:].split()
                if len(parts) == 2:
                    try:
                        header_n = int(parts[0])
                        int(parts[1])
                        header_line = lineno
                    except ValueError:
                        header_n = None  # plain comment
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListError(f"expected 'u v w', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise EdgeListError(f"could not parse 'u v w' from {line!r}", line=lineno)
        if not math.isfinite(w):
            raise EdgeListError(f"non-finite weight {parts[2]!r}", line=lineno)
        if w < 0:
            raise DomainError(f"line {lineno}: negative weight {w}")
        triples.append((u, v, w))

    if header_n is None:
        header_n = n
    if header_n is not None:
        if not 1 <= header_n <= MAX_VERTICES:
            raise EdgeListError(
                f"header vertex count {header_n} outside [1, {MAX_VERTICES}]", line=header_line
            )
        for u, v, _ in triples:
            if not (0 <= u < header_n and 0 <= v < header_n):
                raise EdgeListError(
                    f"vertex id out of range [0,{header_n}) in edge ({u},{v})"
                )
        return build_graph(header_n, triples)

    ids = sorted({u for u, _, _ in triples} | {v for _, v, _ in triples})
    if not ids:
        raise EdgeListError("no vertices found (empty input needs a '# n m' header)")
    remap = {orig: i for i, orig in enumerate(ids)}
    return build_graph(len(ids), [(remap[u], remap[v], w) for u, v, w in triples])


def write_edge_list(g: WeightedGraph, sink: str | Path | IO[str]) -> None:
    """Write a graph in the edge-list format; round-trips bit-exactly."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    sink.write(f"# {g.n} {g.m}\n")
    for u, v, w in g.edges:
        sink.write(f"{u} {v} {w!r}\n")


# ----------------------------- generators ----------------------------------

WeightSpec = str | tuple[str, float, float]


def _check_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise DomainError(f"{name} must be >= 1, got {size}")


def _check_gnp(n: int, p: float, weights: WeightSpec) -> None:
    """gen_gnp's domain; parse_generator_spec checks specs with it too."""
    _check_sizes(n=n)
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must be in [0, 1], got {p}")
    if weights == "unit":
        return
    if not (isinstance(weights, tuple) and len(weights) == 3 and weights[0] == "uniform"):
        raise DomainError(f"unknown weight distribution {weights!r}")
    lo, hi = float(weights[1]), float(weights[2])
    if not 0 <= lo <= hi < math.inf:
        raise DomainError(f"bad uniform weight range ({lo},{hi})")


def gen_gnp(n: int, p: float, weights: WeightSpec = "unit", seed: int = 0) -> WeightedGraph:
    """Erdős–Rényi G(n, p) with unit or uniform(lo, hi) weights.

    A pure function of (n, p, weights, seed): the same arguments always
    produce the same graph.
    """
    _check_gnp(n, p, weights)
    unit = weights == "unit"
    if not unit:
        lo, hi = float(weights[1]), float(weights[2])
    rng = random.Random(seed)

    def triples():
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    yield i, j, 1.0 if unit else rng.uniform(lo, hi)

    return build_graph(n, triples())


def gen_path(n: int) -> WeightedGraph:
    _check_sizes(n=n)
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def gen_cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def gen_complete(n: int) -> WeightedGraph:
    return build_graph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def gen_star(n: int) -> WeightedGraph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    return build_graph(n, [(0, i, 1.0) for i in range(1, n)])


def gen_grid(width: int, height: int) -> WeightedGraph:
    _check_sizes(width=width, height=height)

    def triples():
        for r in range(height):
            for c in range(width):
                v = r * width + c
                if c + 1 < width:
                    yield v, v + 1, 1.0
                if r + 1 < height:
                    yield v, v + width, 1.0

    return build_graph(width * height, triples())


def parse_generator_spec(spec: str):
    """Parse the CLI generator mini-grammar into (description, seed -> graph).

    Supported forms:
        gnp:<n>:<p>:unit
        gnp:<n>:<p>:uniform(<lo>,<hi>)
        grid:<w>:<h>
        path:<n>

    A malformed spec, or one outside its generator's domain or over
    MAX_VERTICES vertices, raises DomainError.
    """
    kind, *args = spec.split(":")
    try:
        if kind == "gnp" and len(args) == 3:
            n, p, wspec = int(args[0]), float(args[1]), args[2]
            if wspec == "unit":
                weights: WeightSpec = "unit"
            elif wspec.startswith("uniform(") and wspec.endswith(")"):
                lo, hi = wspec[len("uniform("):-1].split(",")
                weights = ("uniform", float(lo), float(hi))
            else:
                raise ValueError
            _check_gnp(n, p, weights)
            vertices, make = n, lambda seed: gen_gnp(n, p, weights, seed)
        elif kind == "grid" and len(args) == 2:
            w, h = int(args[0]), int(args[1])
            _check_sizes(width=w, height=h)
            vertices, make = w * h, lambda seed: gen_grid(w, h)
        elif kind == "path" and len(args) == 1:
            n = int(args[0])
            _check_sizes(n=n)
            vertices, make = n, lambda seed: gen_path(n)
        else:
            raise ValueError
    except DomainError:
        raise
    except ValueError:
        raise DomainError(f"bad generator spec {spec!r}") from None
    if vertices > MAX_VERTICES:
        raise DomainError(
            f"generator spec {spec!r} asks for {vertices} vertices, over the limit {MAX_VERTICES}"
        )
    return spec, make
