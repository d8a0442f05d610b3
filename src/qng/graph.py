"""Immutable simple graphs on at most 32 labeled vertices.

Adjacency is stored as one bitmask row per vertex, which keeps complementation,
neighborhood tests and component searches to a handful of integer operations.
The module also provides the named graph families used throughout the bound
checkers, the usual operators (complement, union, join, Cartesian product),
structural predicates around bipartiteness and the graph6 text codec.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 32

GRAPH6_HEADER = ">>graph6<<"


class CapacityError(ValueError):
    """Raised when an operation would exceed the 32-vertex bitset capacity."""


class Graph6Error(ValueError):
    """Raised on malformed graph6 input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Instances are immutable and hashable; all operators return new graphs.
    ``rows[v]`` is the neighborhood of ``v`` as a bitmask.
    """

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows: Sequence[int]):
        if not 1 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 1..{MAX_VERTICES}")
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

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, g6={to_graph6(self)!r})"

    def __reduce__(self):
        return (_graph_unchecked, (self.n, self.rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order (d_1 >= ... >= d_n)."""
        return tuple(sorted(self.degrees(), reverse=True))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("no self-loops")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
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
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("no self-loops")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """Relabel so that new vertex ``i`` is old vertex ``order[i]``."""
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    rows = [0] * n
    for i, v in enumerate(order):
        for u in bits(g.rows[v]):
            rows[i] |= 1 << pos[u]
    return Graph(n, rows)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled to 0..len-1 in given order."""
    pos = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for v, i in pos.items():
        for u in bits(g.rows[v]):
            j = pos.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(vertices), rows)


# ---------------------------------------------------------------------------
# Operators


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _graph_unchecked(g.n, tuple(full ^ r ^ (1 << v) for v, r in enumerate(g.rows)))


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
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
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


def h_graph(s0: int, s1: int, s2: int) -> Graph:
    """Bipartite graph on independent blocks S0, S1, S2 plus two hubs u, v.

    u is adjacent to S0 and S1, v to S0 and S2, and u is not adjacent to v.
    Vertices are laid out in the order S0, S1, S2, u, v so that the block
    partition of the vertex set is deterministic.
    """
    if min(s0, s1, s2) < 0 or s0 + s1 + s2 < 1:
        raise ValueError("block sizes must be nonnegative with positive total")
    n = s0 + s1 + s2 + 2
    if n > MAX_VERTICES:
        raise CapacityError(f"order {n} exceeds {MAX_VERTICES}")
    u, v = n - 2, n - 1
    edges = [(w, u) for w in range(s0)] + [(w, v) for w in range(s0)]
    edges += [(s0 + w, u) for w in range(s1)]
    edges += [(s0 + s1 + w, v) for w in range(s2)]
    return from_edges(n, edges)


def h_graph_blocks(s0: int, s1: int, s2: int) -> tuple[tuple[int, ...], ...]:
    """Vertex partition (S0, S1, S2, {u}, {v}) of h_graph, empty blocks dropped."""
    u, v = s0 + s1 + s2, s0 + s1 + s2 + 1
    blocks = [
        tuple(range(s0)),
        tuple(range(s0, s0 + s1)),
        tuple(range(s0 + s1, s0 + s1 + s2)),
        (u,),
        (v,),
    ]
    return tuple(b for b in blocks if b)


_FAMILY_ALIASES = {
    "K": "complete",
    "E": "empty",
    "P": "path",
    "C": "cycle",
    "Kst": "complete_bipartite",
    "star": "star",
    "H": "h_graph",
}


def family(name: str, *params: int) -> Graph:
    """Build a named family member, e.g. family('C', 4) or family('H', 2, 1, 1)."""
    kind = _FAMILY_ALIASES.get(name, name)
    builders = {
        "complete": complete,
        "empty": empty_graph,
        "path": path,
        "cycle": cycle,
        "complete_bipartite": complete_bipartite,
        "star": star,
        "h_graph": h_graph,
    }
    if kind not in builders:
        raise ValueError(f"unknown family {name!r}")
    return builders[kind](*params)


# ---------------------------------------------------------------------------
# Connectivity and bipartite structure


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, ordered by least vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def components(g: Graph) -> list[Graph]:
    return [induced_subgraph(g, list(bits(mask))) for mask in component_masks(g)]


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1


def _two_color_component(g: Graph, start: int) -> Optional[tuple[int, int]]:
    """Breadth-first 2-coloring of the component of ``start``.

    Returns the two color-class masks, or None if an odd cycle is hit.
    """
    color0 = 1 << start
    color1 = 0
    frontier = 1 << start
    side = 0
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.rows[u]
        nxt &= ~(color0 | color1)
        if side == 0:
            color1 |= nxt
        else:
            color0 |= nxt
        frontier = nxt
        side ^= 1
    for u in bits(color0):
        if g.rows[u] & color0:
            return None
    for u in bits(color1):
        if g.rows[u] & color1:
            return None
    return color0, color1


def bipartition(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A proper 2-coloring (A, B) of the whole graph, or None if not bipartite."""
    part_a = 0
    part_b = 0
    for mask in component_masks(g):
        start = (mask & -mask).bit_length() - 1
        colored = _two_color_component(g, start)
        if colored is None:
            return None
        part_a |= colored[0]
        part_b |= colored[1]
    return tuple(bits(part_a)), tuple(bits(part_b))


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def count_bipartite_components(g: Graph) -> int:
    """Number of bipartite components; an isolated vertex counts as one."""
    count = 0
    for mask in component_masks(g):
        start = (mask & -mask).bit_length() - 1
        if _two_color_component(g, start) is not None:
            count += 1
    return count


def has_balanced_bipartite_component(g: Graph) -> bool:
    """True if some component is bipartite with equal color classes.

    An isolated vertex has classes of sizes (1, 0) and is never balanced.
    """
    for mask in component_masks(g):
        start = (mask & -mask).bit_length() - 1
        colored = _two_color_component(g, start)
        if colored is not None and colored[0].bit_count() == colored[1].bit_count():
            return True
    return False


def is_regular(g: Graph) -> bool:
    degs = g.degrees()
    return min(degs) == max(degs)


def is_semiregular_bipartite(g: Graph) -> bool:
    """Bipartite with constant degree on each side of some proper 2-coloring."""
    parts = bipartition(g)
    if parts is None:
        return False
    for side in parts:
        if side and len({g.degree(v) for v in side}) != 1:
            return False
    return True


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


#: Each graph6 payload character as its six bits, most significant first.
_GRAPH6_BITS = {63 + v: f"{v:06b}" for v in range(64)}


def _graph6_body(text: str) -> str:
    """A graph6 line without surrounding blanks or the optional ``>>graph6<<`` header."""
    s = text.strip()
    return s[len(GRAPH6_HEADER):].strip() if s.startswith(GRAPH6_HEADER) else s


def graph6_order(text: str) -> Optional[int]:
    """The order a graph6 line declares in its first character, None for a blank line.

    Reads one character and validates nothing; ``from_graph6`` decodes and checks.
    """
    s = _graph6_body(text)
    return ord(s[0]) - 63 if s else None


def from_graph6(text: str) -> Graph:
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
    body = s[1:]
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} payload characters for n={n}, got {len(body)}"
        )
    # Bit i of the payload is the i-th bit of the upper triangle, column by
    # column: column c holds the pairs (0, c), ..., (c - 1, c).
    payload = int(body.translate(_GRAPH6_BITS)[::-1] or "0", 2)
    if payload >> pairs:
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    for col in range(1, n):
        below = payload & ((1 << col) - 1)
        payload >>= col
        rows[col] = below
        for row in bits(below):
            rows[row] |= 1 << col
    return _graph_unchecked(n, tuple(rows))

