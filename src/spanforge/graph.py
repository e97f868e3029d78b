"""Weighted undirected graphs: construction, random generators, edge-list I/O.

Vertices are dense ids 0..n-1 and edges are numpy columns indexed by edge
id; every other module refers to edges by that index, which stays stable
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
from pathlib import Path
from typing import IO, Iterable, Sequence

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


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable undirected graph with nonnegative edge weights.

    u, v and w are read-only columns indexed by edge id: endpoints u < v
    (int32) and weights w (float64), with no self-loops and no parallel
    edges.  The constructor copies them.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, dtype in (("u", np.int32), ("v", np.int32), ("w", np.float64)):
            column = np.array(getattr(self, name), dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The edges as (u, v, w) tuples in edge-id order, built anew on
        every call, so each call costs O(m)."""
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on breakage."""
        if self.n < 1:
            raise ValueError(f"vertex count {self.n} < 1")
        if not (self.u.ndim == self.v.ndim == self.w.ndim == 1 and self.m == len(self.v) == len(self.w)):
            raise ValueError("edge columns must be 1-d and of one length")
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
    weights, naming the first bad triple.  Edge ids follow the first
    occurrence of each vertex pair.
    """
    if n < 1:
        raise DomainError(f"vertex count must be >= 1, got {n}")
    if n > 2**31:
        raise DomainError(f"vertex count must be <= 2**31 (ids are int32), got {n}")
    triples = list(raw_edges)
    try:
        columns = np.fromiter(triples, [("u", np.int64), ("v", np.int64), ("w", float)], len(triples))
        u, v, w = columns["u"], columns["v"], columns["w"]
        valid = bool(np.all((0 <= u) & (u < n) & (0 <= v) & (v < n) & np.isfinite(w) & (w >= 0)))
    except (OverflowError, ValueError):  # e.g. an id beyond int64; found below
        valid = False
    if not valid:
        for a, b, x in triples:
            if not (0 <= a < n and 0 <= b < n):
                raise DomainError(f"edge ({a},{b}) out of range for n={n}")
            x = float(x)
            if not math.isfinite(x):
                raise DomainError(f"edge ({a},{b}) has non-finite weight")
            if x < 0:
                raise DomainError(f"edge ({a},{b}) has negative weight {x}")
    del triples  # often the last reference to the tuples: free them before sorting

    pos = np.flatnonzero(u != v)  # input positions of the non-loops
    lo, hi, w = np.minimum(u[pos], v[pos]), np.maximum(u[pos], v[pos]), w[pos]
    pair = lo * n + hi
    # By pair, then weight, then input position: lexsort is stable.
    order = np.lexsort((w, pair))
    start = np.flatnonzero(np.diff(pair[order], prepend=-1))
    # Each pair's lightest triple, earliest among equals, is put at the
    # slot of the pair's first triple.
    slot = np.full(len(pos), -1, np.intp)
    slot[np.minimum.reduceat(order, start)] = order[start]
    ids = slot[slot >= 0]
    return WeightedGraph(n, lo[ids], hi[ids], w[ids])


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
    otherwise index from the end of the columns without an error.
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
    us, vs, ws = g.u.tolist(), g.v.tolist(), g.w.tolist()
    for eid in edge_id_list(g, edge_ids):
        u, v, w = us[eid], vs[eid], ws[eid]
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
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header_n is None and not us:
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
        us.append(u)
        vs.append(v)
        ws.append(w)

    if header_n is None:
        header_n = n
    if header_n is not None:
        if not 1 <= header_n <= MAX_VERTICES:
            raise EdgeListError(
                f"header vertex count {header_n} outside [1, {MAX_VERTICES}]", line=header_line
            )
        for u, v in zip(us, vs):
            if not (0 <= u < header_n and 0 <= v < header_n):
                raise EdgeListError(
                    f"vertex id out of range [0,{header_n}) in edge ({u},{v})"
                )
        return build_graph(header_n, zip(us, vs, ws))

    ids = sorted(set(us) | set(vs))
    if not ids:
        raise EdgeListError("no vertices found (empty input needs a '# n m' header)")
    remap = {orig: i for i, orig in enumerate(ids)}
    return build_graph(len(ids), zip(map(remap.get, us), map(remap.get, vs), ws))


def write_edge_list(g: WeightedGraph, sink: str | Path | IO[str]) -> None:
    """Write a graph in the edge-list format; round-trips bit-exactly."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    sink.write(f"# {g.n} {g.m}\n")
    # A slice at a time, so that only one slice's Python numbers are alive.
    for start in range(0, g.m, 4096):
        part = slice(start, start + 4096)
        for u, v, w in zip(g.u[part].tolist(), g.v[part].tolist(), g.w[part].tolist()):
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
