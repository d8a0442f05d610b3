"""Immutable simple graphs on at most 32 labeled vertices.

Adjacency is stored as one bitmask row per vertex, which keeps complementation,
neighborhood tests and component searches to a handful of integer operations.
The module also provides the named graph builders and ``BlowUp``, the form
of every family the bound checkers name (cells that are cliques or
cocliques, each pair joined completely or not at all, of ``int`` sizes or of
sizes in a commutative ring, such as polynomials in n: its complement, its
Q-quotient in the ring of the sizes and, for ``int`` sizes, its graph), the usual operators (complement,
union, join, Cartesian product), the graph6 text codec, whose decoder takes a
batch of lines and unpacks their payloads with numpy, and one routine per
vertex structure: ``component_colorings`` walks and 2-colors the components
once for every bipartiteness predicate, and ``_connected`` is the one
connectivity walk, a breadth-first closure of vertex 0 over adjacency rows
(a graph's rows, or its complement's without building the graph).  Every
structure test reads the rows alone.  ``from_edges`` and the edge methods
raise ``ValueError`` on a vertex outside 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_VERTICES = 32

GRAPH6_HEADER = ">>graph6<<"


class CapacityError(ValueError):
    """Raised when an operation would exceed the 32-vertex bitset capacity."""


class Graph6Error(ValueError):
    """Raised on malformed graph6 input."""


def _check_order(n: int) -> None:
    """Raise ``CapacityError`` unless a graph may have ``n`` vertices."""
    if not 1 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 1..{MAX_VERTICES}")


def _check_vertices(n: int, u: int, v: int) -> None:
    """Raise ``ValueError`` unless ``u`` and ``v`` are vertices of a graph of order ``n``."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex {v if 0 <= u < n else u} outside 0..{n - 1}")


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Instances are immutable and hashable; all operators return new graphs.
    ``rows[v]`` is the neighborhood of ``v`` as a bitmask.  The hash of
    ``(n, rows)`` is computed once, when the graph is built.
    """

    __slots__ = ("n", "rows", "m", "_hash")

    def __init__(self, n: int, rows: Sequence[int]):
        _check_order(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", sum(r.bit_count() for r in rows) // 2)
        object.__setattr__(self, "_hash", hash((n, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, g6={to_graph6(self)!r})"

    def __reduce__(self):
        return (_graph_unchecked, (self.n, self.rows))

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertices(self.n, u, v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        _check_vertices(self.n, v, v)
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order (d_1 >= ... >= d_n)."""
        return tuple(sorted(self.degrees(), reverse=True))

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertices(self.n, v, v)
        return tuple(bits(self.rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    def with_edge(self, u: int, v: int) -> "Graph":
        _check_vertices(self.n, u, v)
        if u == v:
            raise ValueError("no self-loops")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        _check_vertices(self.n, u, v)
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)


def _graph_unchecked(n: int, rows: tuple[int, ...]) -> Graph:
    """Build a Graph skipping invariant validation; rows must already be valid."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    object.__setattr__(g, "m", sum(map(int.bit_count, rows)) // 2)
    object.__setattr__(g, "_hash", hash((n, rows)))
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        _check_vertices(n, u, v)
        if u == v:
            raise ValueError("no self-loops")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# Operators


def _complement_rows(g: Graph) -> tuple[int, ...]:
    full = (1 << g.n) - 1
    return tuple(full ^ r ^ (1 << v) for v, r in enumerate(g.rows))


def complement(g: Graph) -> Graph:
    return _graph_unchecked(g.n, _complement_rows(g))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise CapacityError(f"union would have {n} > {MAX_VERTICES} vertices")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """All-edges join: the disjoint union plus every cross edge."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise CapacityError(f"join would have {n} > {MAX_VERTICES} vertices")
    hi = ((1 << h.n) - 1) << g.n
    lo = (1 << g.n) - 1
    rows = [r | hi for r in g.rows] + [(r << g.n) | lo for r in h.rows]
    return Graph(n, rows)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,x)~(b,y) iff (a=b and x~y) or (x=y and a~b)."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise CapacityError(f"product would have {n} > {MAX_VERTICES} vertices")
    idx = lambda a, x: a * h.n + x
    rows = [0] * n
    for a in range(g.n):
        for x in range(h.n):
            i = idx(a, x)
            for y in bits(h.rows[x]):
                rows[i] |= 1 << idx(a, y)
            for b in bits(g.rows[a]):
                rows[i] |= 1 << idx(b, x)
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# Named families


def empty_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path(n: int) -> Graph:
    _check_order(n)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    _check_order(n)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 1 or t < 1:
        raise ValueError("parts must be nonempty")
    n = s + t
    if n > MAX_VERTICES:
        raise CapacityError(f"K_{{{s},{t}}} exceeds {MAX_VERTICES} vertices")
    right = ((1 << t) - 1) << s
    left = (1 << s) - 1
    return Graph(n, tuple(right if v < s else left for v in range(n)))


def star(n: int) -> Graph:
    """The star K_{1,n-1} with the center labeled 0."""
    return complete_bipartite(1, n - 1)


@dataclass(frozen=True)
class BlowUp:
    """A graph on cells, consecutive vertex ranges of the positive ``sizes``: a cell is a
    clique where ``cliques`` flags it, else a coclique, and ``joins`` holds the pairs
    (i, j), i < j, of cells joined by every edge; the other pairs have none.  A size may be
    a ring element, unchecked, such as a ``polys.MPoly`` in n: a family at a symbolic order,
    which ``at`` names at an integer one."""

    sizes: tuple
    cliques: tuple[bool, ...]
    joins: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        k = len(self.sizes)
        if (len(self.cliques) != k or any(isinstance(s, int) and s < 1 for s in self.sizes)
                or not all(0 <= i < j < k for i, j in self.joins)):
            raise ValueError("a blow-up needs positive cell sizes, a clique flag per cell and pairs i < j of cells")

    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The vertex blocks, one consecutive range per cell; ``ValueError`` on a size that is not an ``int``."""
        if not all(isinstance(size, int) for size in self.sizes):
            raise ValueError("a blow-up with a cell size that is not an int has no vertices")
        return tuple(tuple(range(end - size, end)) for size, end in zip(self.sizes, accumulate(self.sizes)))

    def graph(self) -> Graph:
        """The blown-up graph; up to 32 vertices."""
        n = sum(self.sizes)
        if isinstance(n, int) and n > MAX_VERTICES:
            raise CapacityError(f"order {n} exceeds {MAX_VERTICES}")
        cells = self.cells()
        masks = [((1 << len(cell)) - 1) << cell[0] for cell in cells]
        outside = [0] * len(cells)
        for i, j in self.joins:
            outside[i] |= masks[j]
            outside[j] |= masks[i]
        return _graph_unchecked(n, tuple(outside[i] | (mask ^ (1 << v) if clique else 0)
                                         for i, (cell, mask, clique) in enumerate(zip(cells, masks, self.cliques))
                                         for v in cell))

    def at(self, n: int) -> Optional["BlowUp"]:
        """This blow-up at the order n, each size that is not an ``int`` evaluated at n by its
        ``at``; None unless every cell is nonempty and the sizes sum to n."""
        sizes = tuple(size if isinstance(size, int) else size.at(n) for size in self.sizes)
        return BlowUp(sizes, self.cliques, self.joins) if all(s > 0 for s in sizes) and sum(sizes) == n else None

    def complement(self) -> "BlowUp":
        """The blow-up of the complement: clique and coclique cells swap, as do joined and unjoined pairs."""
        k = len(self.sizes)
        pairs = frozenset((i, j) for i in range(k) for j in range(i + 1, k))
        return BlowUp(self.sizes, tuple(not c for c in self.cliques), pairs - self.joins)

    def quotient(self) -> tuple[tuple, ...]:
        """The Q-quotient over the cells, in the ring of the sizes: entry (i, j), i != j, is
        s_j if the cells are joined, else 0, and entry (i, i) the degree of a vertex of
        cell i plus its neighbours inside the cell (s_i - 1 in a clique).  The entries take
        only + and *, so over ``polys.MPoly`` sizes in n this is the quotient at every n."""
        sizes, k = self.sizes, len(self.sizes)
        rows = [[0] * k for _ in range(k)]
        for i, j in self.joins:
            rows[i][j], rows[j][i] = sizes[j], sizes[i]
        for i, row in enumerate(rows):
            row[i] = sum(row) + 2 * (sizes[i] - 1) * self.cliques[i]
        return tuple(map(tuple, rows))


def double_hub(s0, s1, s2) -> BlowUp:
    """The bipartite blow-up on cocliques S0, S1, S2 and two hubs u, v, its cells
    in that order with the empty ones dropped: u is joined to S0 and S1, v to S0
    and S2, and u is not joined to v.  A size may be a ring element (``BlowUp``)."""
    if any(isinstance(s, int) and s < 0 for s in (s0, s1, s2)) or not any((s0, s1, s2)):
        raise ValueError("block sizes must be nonnegative with positive total")
    sizes = (s0, s1, s2, 1, 1)
    index = {old: new for new, old in enumerate(i for i, size in enumerate(sizes) if size)}
    joins = frozenset((index[i], index[j]) for i, j in ((0, 3), (0, 4), (1, 3), (2, 4)) if i in index)
    return BlowUp(tuple(size for size in sizes if size), (False,) * len(index), joins)


def h_graph(s0: int, s1: int, s2: int) -> Graph:
    """The graph of ``double_hub(s0, s1, s2)``: vertices S0, S1, S2, u, v in order."""
    return double_hub(s0, s1, s2).graph()


# ---------------------------------------------------------------------------
# Connectivity and bipartite structure


def _connected(rows: Sequence[int]) -> bool:
    """Whether the breadth-first closure of vertex 0 over the adjacency ``rows`` is every vertex."""
    reached = frontier = 1
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= rows[u]
        frontier = nxt & ~reached
        reached |= frontier
    return reached == (1 << len(rows)) - 1


def is_connected(g: Graph) -> bool:
    return _connected(g.rows)


def component_colorings(rows: Sequence[int]) -> list[Optional[tuple[int, int]]]:
    """Per component of the graph with adjacency ``rows``, by least vertex: its two color
    classes as masks, the least vertex's class first, or None when it has an odd cycle.

    The classes are the even and odd breadth-first layers from the least
    vertex; an edge inside one of them closes an odd cycle.
    """
    seen = 0
    out: list[Optional[tuple[int, int]]] = []
    for v in range(len(rows)):
        if seen >> v & 1:
            continue
        classes = [1 << v, 0]
        frontier = 1 << v
        side = 0
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= rows[u]
            side ^= 1
            frontier = nxt & ~(classes[0] | classes[1])
            classes[side] |= frontier
        seen |= classes[0] | classes[1]
        odd = any(rows[u] & cls for cls in classes for u in bits(cls))
        out.append(None if odd else (classes[0], classes[1]))
    return out


def is_bipartite(g: Graph) -> bool:
    return None not in component_colorings(g.rows)


def is_regular(g: Graph) -> bool:
    degs = g.degrees()
    return min(degs) == max(degs)


def is_semiregular_bipartite(g: Graph) -> bool:
    """Bipartite with constant degree on each side of some proper 2-coloring.

    If such a coloring exists, so does one with the lower-degree class of
    every component on the same side (an isolated vertex, of degree 0, is
    a class of its own), so only that coloring is tested.
    """
    colorings = component_colorings(g.rows)
    if None in colorings:
        return False
    low: set[int] = set()
    high: set[int] = set()
    for a, b in colorings:
        da, db = ({g.degree(v) for v in bits(cls)} for cls in (a, b))
        if db and min(db) < min(da):
            da, db = db, da
        low |= da
        high |= db
    return len(low) <= 1 and len(high) <= 1


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62 in the format; capped at 32 here)


def to_graph6(g: Graph) -> str:
    chars = [chr(g.n + 63)]
    buf = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            buf = (buf << 1) | (g.rows[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(buf + 63))
                buf = 0
                nbits = 0
    if nbits:
        chars.append(chr((buf << (6 - nbits)) + 63))
    return "".join(chars)


def _graph6_body(text: str) -> str:
    """A graph6 line without surrounding blanks or the optional ``>>graph6<<`` header."""
    s = text.strip()
    return s[len(GRAPH6_HEADER):].strip() if s.startswith(GRAPH6_HEADER) else s


def graph6_order(text: str) -> Optional[int]:
    """The order a graph6 line declares in its first character, None for a blank line.

    Reads one character and validates nothing; ``decode_graph6`` decodes and checks.
    """
    s = _graph6_body(text)
    return ord(s[0]) - 63 if s else None


def _graph6_checked(text: str) -> tuple[str, int]:
    """The body of a graph6 line and its order, after every check but the padding bits."""
    s = _graph6_body(text)
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise Graph6Error(f"character out of graph6 range in {text!r}")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error("long-form vertex counts (>62) are not supported")
    if not 1 <= n <= MAX_VERTICES:
        raise CapacityError(f"graph6 order {n} outside 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(f"expected {need} payload characters for n={n}, got {len(s) - 1}")
    return s, n


@lru_cache(maxsize=MAX_VERTICES)
def _pair_weights(n: int) -> np.ndarray:
    """The (pairs, n) matrix that turns the upper-triangle bits of order n into rows.

    Payload bit i is the i-th pair of the upper triangle, column by column
    (column c holds the pairs (0, c), ..., (c - 1, c)); the pair (r, c) adds
    1 << c to row r and 1 << r to row c.
    """
    weights = np.zeros((n * (n - 1) // 2, n), dtype=np.int64)
    i = 0
    for col in range(1, n):
        for row in range(col):
            weights[i, row] = 1 << col
            weights[i, col] = 1 << row
            i += 1
    return weights


def decode_graph6(lines: Iterable[str]) -> list[Graph]:
    """Decode graph6 lines, the payloads of each order as one numpy batch.

    Every line gets the checks of ``from_graph6``, which is this decoder on a
    batch of one; a batch with a malformed line raises the error of its
    first malformed line.
    """
    checked: list[tuple[str, int]] = []
    error = None
    for text in lines:
        try:
            checked.append(_graph6_checked(text))
        except ValueError as exc:
            error = exc
            break
    positions: dict[int, list[int]] = {}
    for i, (_, n) in enumerate(checked):
        positions.setdefault(n, []).append(i)
    graphs: list = [None] * len(checked)
    for n, where in positions.items():
        pairs = n * (n - 1) // 2
        text = "".join(checked[i][0] for i in where).encode("ascii")
        codes = np.frombuffer(text, dtype=np.uint8).reshape(len(where), -1)[:, 1:] - 63
        # each payload character is six bits, most significant first
        payload = np.unpackbits(codes[:, :, None], axis=2)[:, :, 2:].reshape(len(where), -1)
        if payload[:, pairs:].any():
            # every checked line comes before the line of ``error``
            raise Graph6Error("nonzero padding bits")
        rows = payload[:, :pairs].astype(np.int64) @ _pair_weights(n)
        for i, row in zip(where, rows.tolist()):
            graphs[i] = _graph_unchecked(n, tuple(row))
    if error is not None:
        raise error
    return graphs


def from_graph6(text: str) -> Graph:
    return decode_graph6((text,))[0]
