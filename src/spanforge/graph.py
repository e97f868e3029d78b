"""Weighted undirected graphs: construction, random generators, edge-list I/O.

Vertices are dense ids 0..n-1 and edges are numpy columns indexed by edge
id; every other module refers to edges by that index, which stays stable
through cluster contraction and spanner extraction.  The generators and
the loader hand int64/float64 edge columns to one normaliser; build_graph
is the checking front end that turns Python (u, v, w) triples into them.
The oracles take edge ids through edge_id_array, which checks them, and
read a subgraph through arcs, its one arc table grouped by tail.

Edge-list text format:
    # n m            optional header (keeps isolated vertices)
    u v w            one edge per line; '#' starts a comment

Without a header, vertex ids may be arbitrary integers and are remapped to
0..n-1 in sorted order, unless the caller gives n.  With a header, or with
n given, ids must already lie in [0, n).  Self-loops are dropped and
parallel edges collapse to the single minimum-weight edge, so loading is
idempotent.
"""

from __future__ import annotations

import io
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, NamedTuple

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
        """Check all structural invariants; raises ValueError naming the first bad edge."""
        if self.n < 1:
            raise ValueError(f"vertex count {self.n} < 1")
        if not (self.u.ndim == self.v.ndim == self.w.ndim == 1 and self.m == len(self.v) == len(self.w)):
            raise ValueError("edge columns must be 1-d and of one length")
        u, v, w = self.u, self.v, self.w
        bad_ends = ~((0 <= u) & (u < v) & (v < min(self.n, 2**31)))
        bad_weight = ~(np.isfinite(w) & (w >= 0))
        pair = u.astype(np.int64) << 32 | v.view(np.uint32)
        order = weight_order(pair)  # by pair, then edge id
        pair = pair[order]
        repeat = np.zeros(self.m, bool)  # the pair is on an earlier edge
        repeat[order[1:][pair[1:] == pair[:-1]]] = True
        for eid in np.flatnonzero(bad_ends | bad_weight | repeat)[:1].tolist():
            if bad_ends[eid]:
                raise ValueError(f"edge {eid} endpoints ({u[eid]}, {v[eid]}) not 0 <= u < v < n")
            raise ValueError(f"edge {eid} weight" if bad_weight[eid] else f"parallel edge {eid}")


def build_graph(n: int, raw_edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Normalize raw (u, v, w) triples into a WeightedGraph.

    Checks the triples in one pass, naming the first with an id outside
    [0, n) or a negative or non-finite weight.  Drops self-loops, collapses
    parallel edges to the minimum weight (first occurrence wins ties), and
    numbers edges by the first occurrence of each vertex pair.
    """
    _check_sizes(n=n)
    us, vs, ws = [], [], []
    for a, b, x in raw_edges:
        if not (0 <= a < n and 0 <= b < n):
            raise DomainError(f"edge ({a},{b}) out of range for n={n}")
        if not 0 <= x < math.inf:
            problem = f"negative weight {float(x)}" if math.isfinite(x) else "non-finite weight"
            raise DomainError(f"edge ({a},{b}) has {problem}")
        us.append(a)
        vs.append(b)
        ws.append(x)
    return _from_columns(n, us, vs, ws)


def _from_columns(n: int, u, v, w) -> WeightedGraph:
    """build_graph's normalization of columns u, v, w, for a checked n and ids that fit int64.

    One sort of the packed (vertex pair, input position) pairs lists each
    pair's triples in input order, with no sort by weight: a running
    minimum over each pair's run finds its lightest weight, and a second
    one its earliest triple of that weight.  When the non-loops' pairs
    already ascend strictly, as every generator emits them, each triple
    is its pair's only one, so one O(m) check replaces the sort.
    """
    u, v, w = np.asarray(u, np.int64), np.asarray(v, np.int64), np.asarray(w, np.float64)
    if not np.all((0 <= u) & (u < n) & (0 <= v) & (v < n) & (0 <= w) & (w < math.inf)):
        raise DomainError(f"edge columns hold an id outside [0,{n}) or a bad weight")
    pos = np.flatnonzero(u != v)  # input positions of the non-loops
    if len(pos) < len(u):
        u, v, w = u[pos], v[pos], w[pos]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    del u, v, pos  # free them before the sort
    pair = lo * n + hi
    if not np.any(pair[1:] <= pair[:-1]):
        return WeightedGraph(n, lo, hi, w)  # already sorted, each pair once
    order = np.arange(len(w))
    sort_pairs(pair, order, max(len(w), 1))
    start = np.flatnonzero(np.diff(pair, prepend=-1))
    del pair
    run_w = w[order]
    lightest = run_w == np.repeat(np.minimum.reduceat(run_w, start), np.diff(start, append=len(w)))
    del run_w
    # Each pair's lightest triple, earliest among equals, is put at the
    # slot of the pair's first triple, so edges number the pairs by their
    # first occurrence.
    slot = np.full(len(w), -1, np.intp)
    slot[order[start]] = np.minimum.reduceat(np.where(lightest, order, len(w)), start)
    del order, lightest
    ids = slot[slot >= 0]
    return WeightedGraph(n, lo[ids], hi[ids], w[ids])


def sort_pairs(major: np.ndarray, minor: np.ndarray, bound: int) -> None:
    """Sort the pairs (major[i], minor[i]) in place, ascending.

    major is int64 and minor int32 or int64, with major >= 0 and
    0 <= minor < bound.  While every pair packs into one int64 as
    major * bound + minor, one plain sort of the packed values does it,
    with no index array; equal packed values are equal pairs, so numpy's
    default sort needs no stability.  Otherwise a lexsort does.

    It is the one sort of the build path past weight_order's:
    _from_columns sorts (vertex pair, input position), weight_order
    (weight rank, position or id) when weights tie, the engine (node and
    far cluster, live position) and contract (super-node pair, rank in
    weight order).
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


def weight_order(w: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """The positions of w, finite numbers, in ascending order, ties by
    position: the order np.argsort(w, kind="stable") gives.  With ids,
    distinct ints, ties go by id instead: the order np.lexsort((ids, w))
    gives.

    numpy's stable float sort is a timsort, several times slower than its
    default sort.  So w already in that order costs one O(m) check, other
    w one default sort, and only when some values are equal does one
    sort_pairs of packed (value rank, position or id rank) pairs put each
    run of equal values in order.
    """
    m = len(w)
    down = w[1:] < w[:-1]
    if ids is not None:
        down |= (w[1:] == w[:-1]) & (ids[1:] < ids[:-1])
    if not down.any():
        return np.arange(m)
    del down
    order = np.argsort(w)
    run_w = w[order]
    new = run_w[1:] != run_w[:-1]
    del run_w
    if new.all():
        return order
    rank = np.zeros(m, np.int64)
    np.cumsum(new, out=rank[1:])
    del new
    if ids is None:
        sort_pairs(rank, order, m)
        return order
    by_id = np.argsort(ids)
    id_rank = np.empty(m, np.intp)
    id_rank[by_id] = np.arange(m)
    tie = id_rank[order]
    sort_pairs(rank, tie, m)
    return by_id[tie]


def edge_id_array(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> np.ndarray:
    """edge_ids as an intp array in their given order (all edges when None).

    Raises DomainError naming the first id, as given, that is not an
    integer in [0, m): a negative id would otherwise index from the end
    of the columns, and a fraction would be truncated to an edge.
    """
    if edge_ids is None:
        return np.arange(g.m)
    given = edge_ids if isinstance(edge_ids, np.ndarray) else list(edge_ids)
    ids = np.asarray(given)
    if ids.dtype.kind in "iu" and ids.ndim == 1:
        bad = np.flatnonzero((ids < 0) | (ids >= g.m))
        if not len(bad):
            return ids.astype(np.intp, copy=False)
        first = ids[bad[0]]
    elif not ids.size:
        return np.zeros(0, np.intp)  # np.asarray([]) is a float array
    else:  # fractions, bools, ints past 64 bits, or not a flat sequence
        not_id = (x for x in given if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < g.m)
        first = next(not_id, given[0])
    raise DomainError(f"edge id {first} not in graph")


class Arcs(NamedTuple):
    """Both arcs (x, y) and (y, x) of each edge of a subgraph, grouped by
    tail: vertex x's arcs are first[x]:first[x + 1] of head and w.  Their
    order within a vertex is unspecified."""

    first: np.ndarray
    head: np.ndarray
    w: np.ndarray


def arcs(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> Arcs:
    """The arc table of the subgraph on edge_ids (all edges when None,
    repeats allowed), ids checked by edge_id_array."""
    ids = edge_id_array(g, edge_ids)
    tails = np.concatenate((g.u[ids], g.v[ids]))
    order = np.argsort(tails)
    first = np.zeros(g.n + 1, np.intp)
    np.cumsum(np.bincount(tails, minlength=g.n), out=first[1:])
    return Arcs(first, np.concatenate((g.v[ids], g.u[ids]))[order], np.tile(g.w[ids], 2)[order])


def component_labels(g: WeightedGraph, edge_ids: Iterable[int] | None = None) -> list[int]:
    """Connected-component label per vertex, over all edges or a subset;
    components are numbered in the order of their least vertex.

    Each round hooks every root to the least root across its edges and
    pointer-jumps until every vertex points at its root, after Shiloach
    and Vishkin, "An O(log n) parallel connectivity algorithm" (J.
    Algorithms, 1982).  A root only ever hooks to a smaller one, so each
    component ends rooted at its least vertex.
    """
    ids = edge_id_array(g, edge_ids)
    a, b = g.u[ids], g.v[ids]
    root = np.arange(g.n)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb  # an edge inside one tree stays inside it
        if not cross.any():
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    is_root = root == np.arange(g.n)
    return (np.cumsum(is_root) - 1)[root].tolist()


# ----------------------------- file I/O ------------------------------------


def load_edge_list(source: str | Path | IO[str], n: int | None = None) -> WeightedGraph:
    """Parse an edge-list text stream or file path into a WeightedGraph.

    n stands in for a missing header, so the ids of a file that has none
    are read as given and checked against [0, n) instead of remapped.  A
    header, when present, still sets the vertex count.

    A seekable stream's edge lines go to np.loadtxt first; if it or any
    check on its columns fails, the whole stream is read again by the
    line parser, which alone raises, so the graph and every error are
    the line parser's.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, n)
    start = _rewind_point(source)
    if start is not None:
        try:
            return _load_columns(source, n)
        except (ValueError, Warning):
            source.seek(start)
    return _parse_lines(source, n)


def _rewind_point(source: Iterable[str]) -> int | None:
    """The position to read a stream again from, or None when it cannot
    seek back: not a seekable stream, or a text file that next() has read
    from, which cannot tell its position."""
    if isinstance(source, io.IOBase) and source.seekable():
        try:
            return source.tell()
        except OSError:
            pass
    return None


# One edge line as np.loadtxt reads it.
_EDGE_ROW = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])


def _load_columns(source: IO[str], n: int | None) -> WeightedGraph:
    """load_edge_list's fast path: the head (blank lines, comments and the
    header) line by line, then every line from the first edge on through
    np.loadtxt.  Raises a ValueError or a Warning whenever the line parser
    must decide: no edge line, a vertex count out of range, a line that
    loadtxt rejects or warns about, or a bad id or weight (DomainError
    from _from_columns)."""
    header_n = None
    while True:
        body = source.tell()
        raw = source.readline()
        if not raw:
            raise ValueError("no edge line")
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        if line and header_n is None:
            header_n = _header_count(line)
    if header_n is not None:
        n = header_n
    if n is not None and not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range")
    source.seek(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(source, _EDGE_ROW, comments=None, ndmin=1)
    u, v = rows["u"], rows["v"]
    if n is None:
        ids, ends = np.unique(np.concatenate((u, v)), return_inverse=True)
        n, u, v = len(ids), ends[: len(u)], ends[len(u):]
    return _from_columns(n, u, v, rows["w"])


def _header_count(comment: str) -> int | None:
    """The n of a '# n m' header line, or None for any other comment."""
    parts = comment[1:].split()
    if len(parts) == 2:
        try:
            count = int(parts[0])
            int(parts[1])
            return count
        except ValueError:
            pass
    return None


def _parse_lines(source: Iterable[str], n: int | None) -> WeightedGraph:
    """load_edge_list's line parser: one line at a time, raising on the
    first bad one."""
    header_n: int | None = None
    header_line: int | None = None  # stays None for a caller's n
    us, vs, ws = [], [], []
    try:
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_n is None and not us:
                    header_n = _header_count(line)
                    if header_n is not None:
                        header_line = lineno
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
    except UnicodeDecodeError as exc:
        # Text streams decode in chunks, so the failing line is not known.
        raise EdgeListError(f"input is not {exc.encoding} text: {exc.reason}") from None

    if header_n is None:
        header_n = n
    if header_n is not None:
        if not 1 <= header_n <= MAX_VERTICES:
            raise EdgeListError(
                f"header vertex count {header_n} outside [1, {MAX_VERTICES}]", line=header_line
            )
        for u, v in zip(us, vs):
            if not (0 <= u < header_n and 0 <= v < header_n):
                raise EdgeListError(f"vertex id out of range [0,{header_n}) in edge ({u},{v})")
        return _from_columns(header_n, us, vs, ws)

    ids = sorted(set(us) | set(vs))
    if not ids:
        raise EdgeListError("no vertices found (empty input needs a '# n m' header)")
    remap = {orig: i for i, orig in enumerate(ids)}
    return _from_columns(len(ids), list(map(remap.get, us)), list(map(remap.get, vs)), ws)


# Edges that write_edge_list formats at once, as one byte matrix of a few
# dozen bytes an edge.
_WRITE_CHUNK = 2**14


def write_edge_list(g: WeightedGraph, sink: str | Path | IO[str]) -> None:
    """Write a graph in the edge-list format; round-trips bit-exactly.

    Each edge is written as the line f"{u} {v} {w!r}".  A chunk of edges
    at a time becomes one ASCII byte matrix, a row per line, written with
    one call: repr runs once per distinct weight of the chunk, and the
    ids are cut into decimal digits in numpy.  Raises DomainError naming
    the first edge with a negative id, which the format cannot hold (a
    graph built without validate may have one), before writing anything.
    """
    for eid in np.flatnonzero((g.u < 0) | (g.v < 0))[:1].tolist():
        raise DomainError(f"edge {eid} has a negative vertex id ({g.u[eid]}, {g.v[eid]})")
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    sink.write(f"# {g.n} {g.m}\n")
    for start in range(0, g.m, _WRITE_CHUNK):
        part = slice(start, start + _WRITE_CHUNK)
        sink.write(_edge_lines(g.u[part], g.v[part], g.w[part]))


def _edge_lines(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> str:
    """The lines f"{u} {v} {w!r}\\n" of nonnegative ids u, v and weights w.

    Each row of one zero-filled uint8 matrix holds a line: u's digits, a
    space, v's digits, a space, w's repr and a newline, with NUL for the
    leading zeros of the ids and the padding of shorter weights.  No line
    has a NUL, so dropping them leaves the text.  The weights' bit
    patterns are their keys, so -0.0 and 0.0 stay apart.
    """
    bits, which = np.unique(w.view(np.uint64), return_inverse=True)
    tokens = np.array([repr(x) for x in bits.view(np.float64).tolist()], "S")
    width = len(str(max(int(u.max()), int(v.max()))))
    cells = np.zeros((len(w), 2 * width + 3 + tokens.itemsize), np.uint8)
    _digits(u.astype(np.uint32), cells[:, :width])
    _digits(v.astype(np.uint32), cells[:, width + 1 : 2 * width + 1])
    cells[:, [width, 2 * width + 1]] = ord(" ")
    cells[:, 2 * width + 2 : -1] = tokens[which].view(np.uint8).reshape(len(w), -1)
    cells[:, -1] = ord("\n")
    return cells[cells != 0].tobytes().decode("ascii")


def _digits(x: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal digits of uint32 x into the rows of the uint8
    block out, right-aligned, as ASCII, with NUL for leading zeros.  The
    division by a scalar 10 keeps numpy on its fast unsigned path."""
    for col in reversed(range(out.shape[1])):
        quotient = x // 10
        out[:, col] = x - quotient * 10 + ord("0")
        if col < out.shape[1] - 1:
            out[x == 0, col] = 0
        x = quotient


# ----------------------------- generators ----------------------------------

WeightSpec = str | tuple[str, float, float]


def _check_sizes(**sizes: int) -> None:
    """Each size >= 1, and their product, the vertex count, <= 2**31."""
    for name, size in sizes.items():
        if size < 1:
            raise DomainError(f"{name} must be >= 1, got {size}")
    if (n := math.prod(sizes.values())) > 2**31:
        raise DomainError(f"vertex count must be <= 2**31 (ids are int32), got {n}")


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


# Draws of one chunk of gen_gnp's stream.  A chunk's temporaries take a
# few dozen bytes a draw; at 2**16 draws they raised a job's peak resident
# memory by about 1 MiB, at 2**14 not measurably, and ran no slower.
_DRAW_CHUNK = 2**14


def _draws(rng: random.Random, count: int) -> np.ndarray:
    """The next count values of rng.random(), bit for bit.

    Each takes two 32-bit words of rng's Mersenne Twister, a and b, as
    (a >> 5) * 2**26 + (b >> 6) over 2**53.  getrandbits(64 * count)
    holds those words in the order drawn, the first one lowest.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def gen_gnp(n: int, p: float, weights: WeightSpec = "unit", seed: int = 0) -> WeightedGraph:
    """Erdős–Rényi G(n, p) with unit or uniform(lo, hi) weights.

    A pure function of (n, p, weights, seed): the same arguments always
    produce the same graph.  Pair (i, j), i < j, in row-major order takes
    one draw of random.Random(seed).random() and is an edge if the draw
    is below p; a weighted edge then takes the next draw d as the weight
    lo + (hi - lo) * d, as random.Random.uniform would.  The draws are
    made a chunk at a time by _draws.
    """
    _check_gnp(n, p, weights)
    unit = weights == "unit"
    rng = random.Random(seed)
    pairs = n * (n - 1) // 2
    hits, weight_draws = [], []  # per chunk: edge pair indices, weight draws
    k = 0  # the pair index of the next pair draw
    weigh = False  # the next draw is the last edge's weight
    while k < pairs or weigh:
        d = _draws(rng, min(_DRAW_CHUNK, pairs - k + weigh))
        below = np.flatnonzero(d < p)
        if unit:
            hits.append(below + k)
            k += len(d)
            continue
        # A draw below p at offset j >= first is an edge, and the draw after
        # it, here or first in the next chunk, is its weight.
        carried, first, edge_at = int(weigh), int(weigh), []
        for j in below.tolist():
            if j >= first:
                edge_at.append(j)
                first = j + 2
        at = np.array(edge_at, np.int64)
        weigh = first > len(d)
        # Each earlier edge's weight draw sits between the pair draws.
        hits.append(k + at - carried - np.arange(len(at)))
        weight_at = np.append(np.zeros(carried, np.int64), at + 1)
        weight_draws.append(d[weight_at[weight_at < len(d)]])
        k += len(d) - carried - len(at) + weigh
    hit = np.concatenate(hits or [np.zeros(0, np.int64)])
    # Row i's pairs start at index start[i] = i(2n - i - 1)/2.
    rows = np.arange(n, dtype=np.int64)
    start = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(start, hit, side="right") - 1
    v = hit - start[u] + u + 1
    if unit:
        w = np.ones(len(hit))
    else:
        lo, hi = float(weights[1]), float(weights[2])
        w = lo + (hi - lo) * np.concatenate(weight_draws or [np.zeros(0)])
    return _from_columns(n, u, v, w)


def gen_path(n: int) -> WeightedGraph:
    _check_sizes(n=n)
    ids = np.arange(n - 1, dtype=np.int64)
    return _from_columns(n, ids, ids + 1, np.ones(n - 1))


def gen_cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    _check_sizes(n=n)
    ids = np.arange(n, dtype=np.int64)
    return _from_columns(n, ids, (ids + 1) % n, np.ones(n))


def gen_complete(n: int) -> WeightedGraph:
    _check_sizes(n=n)
    u, v = np.triu_indices(n, 1)
    return _from_columns(n, u, v, np.ones(len(u)))


def gen_star(n: int) -> WeightedGraph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    _check_sizes(n=n)
    return _from_columns(n, np.zeros(n - 1, np.int64), np.arange(1, n, dtype=np.int64), np.ones(n - 1))


def gen_grid(width: int, height: int) -> WeightedGraph:
    """Edge ids go row-major by vertex, the right edge (column 0) before the down edge."""
    _check_sizes(width=width, height=height)
    n = width * height
    ids = np.arange(n, dtype=np.int64)
    keep = np.stack([ids % width < width - 1, ids < n - width], axis=1)
    ends = np.stack([ids + 1, ids + width], axis=1)
    return _from_columns(n, np.repeat(ids, 2)[keep.ravel()], ends[keep], np.ones(int(keep.sum())))


def parse_generator_spec(spec: str):
    """(description, seed -> graph) for a generator spec: the spec itself
    and parse_generator's graph maker."""
    return spec, parse_generator(spec)[1]


def parse_generator(spec: str) -> tuple[int, Callable[[int], WeightedGraph]]:
    """Parse the CLI generator mini-grammar into (vertex count, seed ->
    graph), so that a caller can refuse a size before generating.

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
    return vertices, make
