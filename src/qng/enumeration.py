"""Isomorph-free generation of small graphs, canonical forms and scan drivers.

The canonical form of a graph (``canonical_form``) is the smallest graph6
string obtainable by relabeling, where the minimum is searched over
labelings compatible with iterated color refinement
(individualization-refinement).  A refinement round ranks each vertex by its
old color and then by its full vector of neighbor counts per color, so cells
keep their order; the root coloring refines the one-cell coloring, whose
first round ranks degrees.  The search prunes on bit-string prefixes and, at
every depth, on orbits of known automorphisms: a known automorphism that
preserves a node's coloring maps one child subtree onto another, so one
child per orbit is searched.  The transpositions of twins (``_twins``, the
one twin kernel: vertices with equal open or equal closed neighborhoods) are
known before the search starts; the others are found at leaves with equal
codes, and after each the search resumes at the deepest node shared with the
best leaf.  Canonical forms, isomorphism witnesses and scan keys cover every
graph ``graph.Graph`` can hold (up to ``graph.MAX_VERTICES`` vertices);
vertex-transitive graphs such as K32, E32 or K16,16 take a few milliseconds.
``isomorphism_witness`` composes two canonical labelings and checks the map
edge by edge; for graphs of equal order and size that check alone decides
isomorphism.

Generation is canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  An order is passed on as the rows of
its representatives alone.  Its parents are cut into slices of at most
``_PAIRS`` (parent, subset) pairs, the unit of generation work, and a
slice's parents are extended at once, in one int64 array, by one vertex
joined to a neighbor subset that holds, with each vertex, every earlier twin
of it (one subset per orbit of the twin transpositions).  A child is kept
only if its new vertex lies in the automorphism orbit of an invariantly
chosen deletion vertex: the first vertex, in canonical order, of the last
cell of the root coloring.  Three tests of rising cost decide this.  The new
vertex must have maximum degree, read off the parent's degrees.  It must lie
in that last cell: the slice's children are root-colored in one numpy pass
whose rounds rank full count vectors packed into int64 keys.  Then those
left are labeled together (``_block_forms``): their search trees grow
breadth-first, one batched refinement per level, each node branching on one
vertex per twin class of its cell, and a leaf of least column code is the
canonical form.  The new vertex passes if it is a twin of the deletion
vertex of some least-code leaf.  No graph is searched one at a time
(``_search``).  A class is accepted only from its one canonical parent, so
slices share no class.  The kept children of one parent whose subsets differ
by an automorphism that is no product of twin transpositions are isomorphic;
one sort of the order's column codes, packed into one integer each, which is
graph6 order, merges them.  Counts are cross-checked against Pólya's count
by edge number in the test suite.

``scan`` reads its source lazily and cuts it into chunks of ``CHUNK_SIZE``
items, graphs or the graph6 lines of an external stream.  A chunk is where
each graph is handled once: one helper decodes the chunk's lines in one
batch (``graph.decode_graph6``), filters them (on adjacency rows, building
no complement), makes the graphs kept the current ``spectra.Chunk`` while
the check runs (each matrix kind it reads is then screened for the chunk's
graphs in one batched float call, and for the complements it reads in one
more; ``spectra.chunk_of`` keeps the screens of recent chunks, so another
scan of the same graphs reads them again), and returns the chunk's tally,
its verdict counts plus the canonical graph6 keys of its equality and
violation graphs.  A bound-table row or a scan predicate gets the whole
chunk through its ``verdicts`` method and complements, and builds reports
for, only the graphs its float screen leaves undecided; any other check is
called on each graph.  A bound-table row does not re-test a hypothesis that the
filter is.  With ``jobs`` > 1 the chunks go in order through
``Pool.imap`` to at most one worker per CPU, as text and with the filter by
name, and each worker returns only that tally.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import spectra
from .graph import (
    CapacityError,
    Graph,
    _complement_rows,
    _connected,
    _graph_unchecked,
    bits,
    decode_graph6,
    is_bipartite,
    is_connected,
    is_regular,
    to_graph6,
)

ENUMERATE_MAX = 8


def _refine(nbrs: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Iterated invariant color refinement to a stable partition.

    ``colors`` numbers the cells 0, 1, 2, ... in order.  A round ranks the
    vertex signatures (color, neighbor count per color) in sorted order; the
    primary sort on the old color keeps cells in order, so the coloring stays
    canonical.  A signature packs the counts into one integer, in color order with color 0
    most significant, each in a field wide enough for any degree and the
    color above them, so integer order ranks as the full vectors would.
    """
    n = len(nbrs)
    width = n.bit_length()
    ncol = max(colors) + 1
    while ncol < n:
        top = width * ncol
        weight = [1 << (top - width * (c + 1)) for c in range(ncol)]
        sigs = [c << top for c in colors]
        for c, nb in zip(colors, nbrs):
            w = weight[c]
            for u in nb:
                sigs[u] += w
        distinct = sorted(set(sigs))
        if len(distinct) == ncol:
            break
        rank = {s: i for i, s in enumerate(distinct)}
        colors = list(map(rank.__getitem__, sigs))
        ncol = len(distinct)
    return colors


def _close(points: set[int], seeds: Iterable[int], gens: Sequence[Sequence[int]]) -> None:
    """Add to ``points`` the orbits of ``seeds`` under the group <gens>."""
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for gamma in gens:
            y = gamma[x]
            if y not in points:
                points.add(y)
                stack.append(y)


def _twins(rows: np.ndarray) -> np.ndarray:
    """Whether u and v are twins (u = v included) in each graph of a block, shape (B, n, n).

    ``rows`` holds the graphs' rows as int64 bit masks, shape (B, n).  u and
    v are twins iff rows[u] without bit v equals rows[v] without bit u: one
    test for open and for closed twins.
    """
    bit = 1 << np.arange(rows.shape[1])
    return (rows[:, :, None] & ~bit) == (rows[:, None, :] & ~bit[:, None])


def _twin_transpositions(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Transpositions of twins, which are automorphisms of the graph: each
    vertex with its greatest earlier twin (``_twins``).  Per twin class, these
    transpositions of consecutive members generate its symmetric group.
    """
    n = len(rows)
    vertex = np.arange(n)
    earlier = _twins(np.array([rows], dtype=np.int64))[0] & (vertex < vertex[:, None])
    gens: list[tuple[int, ...]] = []
    for v, u in enumerate(np.where(earlier, vertex, -1).max(-1).tolist()):
        if u >= 0:
            gamma = list(range(n))
            gamma[u], gamma[v] = v, u
            gens.append(tuple(gamma))
    return gens


def _search(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]], tuple[int, ...]]:
    """Canonical labeling of ``g``, automorphisms of ``g`` and the column code.

    The automorphisms are the transpositions of twins plus, for each later
    leaf with the best leaf's column code, the map of the best leaf's vertex
    order onto that leaf's; together they generate Aut(g).  The column code
    is the canonical form's adjacency matrix, column by column; for graphs
    of one order its lexicographic order is graph6 order.
    """
    n = g.n
    if n == 1:
        return (0,), [], ()
    nbrs = [g.neighbors(v) for v in range(n)]

    best_cols: list[int] = []
    best_perm: list[int] = []
    best_path: list[int] = []
    path: list[int] = []  # vertices individualized on the way to the current node
    # Twin transpositions prune from the first branching on, before any leaf.
    gens = _twin_transpositions(g.rows)

    def descend(colors: list[int]) -> int:
        """Search below the node with stable coloring ``colors``.

        Returns the depth of the node that should go on branching: ``n`` on
        a plain return, a smaller depth after an automorphism was found.
        """
        nonlocal best_cols, best_perm, best_path
        # Vertices by color; the leading singleton cells form the prefix and
        # the first larger cell is the one to branch on.
        order = sorted(range(n), key=colors.__getitem__)
        if colors[order[-1]] == n - 1:  # discrete: a leaf
            t = n
        else:
            t = 1
            while colors[order[t]] == t:
                t += 1
            t -= 1
            branch_cell = [v for v in order[t:] if colors[v] == t]
        prefix = order[:t]
        # Column j of the code holds the adjacencies of prefix[j] to
        # prefix[0..j-1], the earliest vertex in the highest bit; prefix[i]
        # has color i.
        weight = [1 << (n - 1 - c) if c < t else 0 for c in colors]
        cols = [sum(map(weight.__getitem__, nbrs[prefix[j]])) >> (n - j) for j in range(1, t)]
        if best_perm:
            common = min(len(cols), len(best_cols))
            if cols[:common] > best_cols[:common]:
                return n
            state_equal = cols[:common] == best_cols[:common]
        if t == n:
            if not best_perm or not state_equal:
                best_cols, best_perm, best_path = cols, prefix, path[:]
                return n
            # An equal leaf: best_perm[i] -> prefix[i] is an automorphism.  It
            # maps the subtree of the best leaf's branch at the deepest common
            # ancestor onto the current one, so the search resumes there.
            gamma = [0] * n
            for a, b in zip(best_perm, prefix):
                gamma[a] = b
            gens.append(tuple(gamma))
            depth = 0
            while best_path[depth] == path[depth]:
                depth += 1
            return depth
        depth = len(path)
        # A found automorphism that preserves this node's coloring maps the
        # subtree of one child onto that of another with the same leaf
        # codes, so one child per orbit of those automorphisms is searched.
        fixing: list[tuple[int, ...]] = []
        absorbed = 0
        covered: set[int] = set()  # the orbits of the children searched so far
        for v in branch_cell:
            if absorbed < len(gens):
                new = [gamma for gamma in gens[absorbed:]
                       if list(map(colors.__getitem__, gamma)) == colors]
                absorbed = len(gens)
                if new:
                    fixing += new
                    _close(covered, list(covered), fixing)
            if v in covered:
                continue
            covered.add(v)
            if fixing:
                _close(covered, (v,), fixing)
            # v takes color t ahead of the rest of its cell.
            nc = [c if c <= t else c + 1 for c in colors]
            for u in branch_cell:
                if u != v:
                    nc[u] = t + 1
            path.append(v)
            resume = descend(_refine(nbrs, nc))
            path.pop()
            if resume < depth:
                return resume
        return n

    descend(_refine(nbrs, [0] * n))
    return tuple(best_perm), gens, tuple(best_cols)


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex order realizing the canonical form (position -> original vertex)."""
    return _search(g)[0]


def _relabeled(g: Graph, order: Sequence[int]) -> Graph:
    """``g`` with vertex ``order[i]`` renamed ``i``."""
    bit = [0] * g.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = tuple(sum(map(bit.__getitem__, g.neighbors(v))) for v in order)
    return _graph_unchecked(g.n, rows)


def canonicalize(g: Graph) -> Graph:
    """The canonical representative of the isomorphism class of ``g``."""
    return _relabeled(g, canonical_labeling(g))


def canonical_form(g: Graph) -> str:
    """The graph6 string of ``canonicalize(g)``: equal iff the graphs are isomorphic."""
    return to_graph6(canonicalize(g))


def isomorphism_witness(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """A vertex bijection mapping g onto h edge-for-edge, or None.

    The map composes the canonical labelings of both graphs, then is verified
    edge by edge before being returned.
    """
    if g.n != h.n or g.m != h.m:
        return None
    lg = canonical_labeling(g)
    lh = canonical_labeling(h)
    mapping = [0] * g.n
    for i in range(g.n):
        mapping[lg[i]] = lh[i]
    for u in range(g.n):
        for v in bits(g.rows[u]):
            if not h.has_edge(mapping[u], mapping[v]):
                return None
    return tuple(mapping)


# ---------------------------------------------------------------------------
# Exhaustive generation

_ALL_GRAPHS: dict[int, list[Graph]] = {}


#: (parent, subset) pairs per parent slice, the unit of generation work, built,
#: root-colored and labeled in numpy passes; order 9's 3.2 million never make
#: one array.  Each tree level of a slice is one batched refinement: census-n8
#: (2-core x86-64 host) ran 7% slower at 1024 than with 256-child blocks and 3%
#: faster at 2048, at 0.4 MB (1%) more peak RSS.
_PAIRS = 2048


def _refined(adj: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The stable refinements of a block of colorings of graphs of one order.

    ``adj`` holds the graphs' adjacency bits, shape (B, n, n), and
    ``colors`` their colorings, shape (B, n), each vertex's color the number
    of vertices in the cells before its own.  A round gives each vertex the
    key color·(n+1)^n + Σ_u A[v, u]·(n+1)^(n-1-color[u]): base-(n+1) digits
    holding the color and then the neighbor count toward each color, color 0
    first, so integer order is the order of the full count vectors.  The
    keys stay below (n+1)^(n+1), which is below 2^63 for n <= 14.  A
    vertex's new color is the number of vertices of smaller key, so the
    cells keep their order, a cell's color is still the number of vertices
    in the cells before it, and a round that splits no cell gives back the
    same colors.  Only the graphs whose coloring changed in a round go on to
    the next.  From the one-cell coloring, all zeros, the first round ranks
    the degrees, and the result is the root coloring ``_search`` starts from,
    in this numbering.
    """
    size, n, _ = adj.shape
    digit = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)  # (n+1)^(n-1-c) for color c
    colors = colors.copy()
    live = np.arange(size)
    while live.size:
        old = colors[live]
        keys = old * (n + 1) ** n + (adj[live] @ digit[old][:, :, None])[:, :, 0]
        new = (keys[:, None, :] < keys[:, :, None]).sum(-1)
        colors[live] = new
        live = live[(new != old).any(-1)]
    return colors


def _block_forms(adj: np.ndarray, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical forms, as ``_search`` finds them, of a block of graphs of one order
    n <= 11, from their adjacency bits ``adj`` (B, n, n) and root colorings
    ``colors`` (B, n), as ``_refined`` numbers them: each vertex's color is
    the number of vertices in the cells before its own.

    The search trees of the block grow breadth-first, one batched refinement
    (``_refined``) per level.  A node whose coloring is not discrete
    branches on its first cell of two or more vertices, on one vertex per
    twin class (``_twins``) in that cell, the first; a discrete coloring is
    a leaf, vertex v at position color[v].  A leaf's code is the column code
    of ``_search`` packed into one int64, column j in j bits and column 1
    highest: n(n-1)/2 <= 62 bits, graph6 order as integer order.  A graph's
    canonical form is that of a leaf of least code, its best leaf.

    This is exact.  A transposition of twins u, v in a node's branch cell is
    an automorphism that fixes the node's path, so it fixes the node's
    coloring and maps the subtree below u onto that below v; so every leaf
    of the unpruned tree is the image of a leaf grown here under a product τ
    of twin transpositions, and has its code.  Hence:

    - the least code is ``_search``'s;
    - Aut is {τ ∘ (best → L)}, over the least-code leaves L grown here;
    - with p the first position of the last root cell, vertex n - 1 is in
      the orbit of the best leaf's vertex at p, the deletion vertex of
      canonical augmentation, iff it is a twin of L[p] for some least-code
      leaf L.

    Returns the canonical rows (B, n), the codes (B,), and whether vertex
    n - 1 passes that orbit test (B,).
    """
    size, n, _ = adj.shape
    block = np.arange(size)
    twins = _twins(adj @ (1 << np.arange(n)))
    earlier = twins & (np.arange(n)[:, None] < np.arange(n))
    last = colors.max(-1)  # the first position of the last root cell
    owner = block
    leaf_owners, leaf_colors = [], []
    while True:
        cell_size = (colors[:, :, None] == colors[:, None, :]).sum(-1)
        leaf = (cell_size == 1).all(-1)
        leaf_owners.append(owner[leaf])
        leaf_colors.append(colors[leaf])
        owner, colors, cell_size = owner[~leaf], colors[~leaf], cell_size[~leaf]
        if not owner.size:
            break
        target = np.where(cell_size > 1, colors, n).min(-1)
        cell = colors == target[:, None]
        node, v = np.nonzero(cell & ~(cell[:, :, None] & earlier[owner]).any(1))
        # v keeps the cell's color, the rest of the cell comes after it.
        colors = colors[node] + cell[node]
        colors[np.arange(node.size), v] = target[node]
        owner = owner[node]
        colors = _refined(adj[owner], colors)
    owner, position = np.concatenate(leaf_owners), np.concatenate(leaf_colors)
    cols = (adj[owner] @ (1 << (n - 1 - position))[:, :, None])[:, :, 0] >> (n - position)
    codes = (cols << (n * (n - 1) // 2 - position * (position + 1) // 2)).sum(-1)
    by_code = np.lexsort((codes, owner))
    best = by_code[np.diff(owner[by_code], prepend=-1) != 0]
    best_position = position[best]
    canonical = np.empty_like(best_position)
    canonical[block[:, None], best_position] = (adj @ (1 << best_position)[:, :, None])[:, :, 0]
    least = codes == codes[best][owner]
    owner, position = owner[least], position[least]
    hit = ((position == last[owner][:, None]) & twins[owner, :, n - 1]).any(-1)
    accepted = np.zeros(size, dtype=bool)
    accepted[owner[hit]] = True
    return canonical, codes[best], accepted


def _children(parents: np.ndarray, n: int) -> np.ndarray:
    """The rows of the children of ``parents``, the rows (P, n - 1) of graphs
    of order n - 1, whose new vertex, ``n - 1``, may be a deletion vertex:
    the neighbor subsets that give the new vertex maximum degree and hold,
    with each vertex, every earlier twin of it in the parent.

    Twins have one degree, so the degree filter keeps whole orbits of the
    group the twin transpositions generate, and the twin rule keeps one
    subset of each such orbit: the one that meets each twin class in a
    prefix.  Returns one int64 array (C, n), children parent by parent and
    subsets increasing: the new vertex's row is its subset, and each parent
    row gains bit n - 1 where the subset holds its vertex.
    """
    top = n - 1
    subsets = np.arange(1 << top)
    vertex = np.arange(top)
    members = subsets[:, None] >> vertex & 1
    size = members.sum(-1)
    degree = (parents[:, :, None] >> vertex & 1).sum(-1)
    dmax = degree.max(-1, keepdims=True)
    at_max = ((degree == dmax) << vertex).sum(-1, keepdims=True)
    # The new vertex, of degree |s|, must have maximum degree, so no
    # vertex of the parent's maximum degree may gain an edge if |s| equals it.
    keep = (size > dmax) | ((size == dmax) & (subsets & at_max == 0))
    # earlier[p, v]: the bit mask of the twins u < v of v in parent p, all
    # of which a subset holding v must hold.
    earlier = (_twins(parents) & (vertex[:, None] < vertex)).transpose(0, 2, 1) @ (1 << vertex)
    keep &= ~(members.astype(bool) & (earlier[:, None, :] & ~subsets[:, None] != 0)).any(-1)
    parent, subset = np.nonzero(keep)
    return np.concatenate((parents[parent] | members[subset] << top, subset[:, None]), axis=1)


def _augment(parents: np.ndarray, n: int) -> np.ndarray:
    """Canonical augmentation from order ``n - 1`` to order ``n``.

    ``parents`` holds the rows (P, n - 1) of one graph per isomorphism class
    of order ``n - 1``.  Returns the canonical rows (C, n) of one graph per
    class of order ``n``, sorted by packed column code, which is graph6
    order.  Each slice of at most ``_PAIRS`` (parent, subset) pairs has its
    children (``_children``) root-colored and labeled together
    (``_refined``, ``_block_forms``).  The accepted children of one parent
    whose subsets lie in one orbit of its automorphism group, but not of its
    twin transpositions, are isomorphic: they share a code and are merged.
    """
    top = n - 1
    step = max(1, _PAIRS >> top)
    rows, codes = [], []
    for start in range(0, len(parents), step):
        children = _children(parents[start:start + step], n)
        adj = children[:, :, None] >> np.arange(n) & 1
        roots = _refined(adj, np.zeros(adj.shape[:2], dtype=np.int64))
        # The deletion vertices are the last cell of the root coloring, so a
        # child whose new vertex is elsewhere is dropped before it is labeled.
        kept = roots[:, top] == roots.max(axis=1)
        canonical, code, accepted = _block_forms(adj[kept], roots[kept])
        rows.append(canonical[accepted])
        codes.append(code[accepted])
    _, first = np.unique(np.concatenate(codes), return_index=True)
    return np.concatenate(rows)[first]


def enumerate_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of order ``n``.

    Built-in generation is limited to n <= 8; larger orders must come from an
    external graph6 stream.  The output is sorted by canonical graph6 string.
    """
    if not 1 <= n <= ENUMERATE_MAX:
        raise CapacityError(
            f"built-in generation limited to 1..{ENUMERATE_MAX} vertices; "
            "ingest an external graph6 stream for larger orders"
        )
    _ALL_GRAPHS.setdefault(1, [Graph(1, (0,))])
    if n not in _ALL_GRAPHS:
        # Extend the highest cached order below n: its rows are all a parent needs.
        start = max(m for m in _ALL_GRAPHS if m < n)
        rows = np.array([g.rows for g in _ALL_GRAPHS[start]], dtype=np.int64)
        for m in range(start + 1, n + 1):
            rows = _augment(rows, m)
            _ALL_GRAPHS[m] = [_graph_unchecked(m, tuple(r)) for r in rows.tolist()]
    return list(_ALL_GRAPHS[n])


# ---------------------------------------------------------------------------
# Scan drivers


def _filter_all(g: Graph) -> bool:
    return True


def _filter_cobar_disconnected(g: Graph) -> bool:
    return not _connected(_complement_rows(g))


FILTERS: dict[str, Callable[[Graph], bool]] = {
    "all": _filter_all,
    "connected": is_connected,
    "bipartite": is_bipartite,
    "regular": is_regular,
    "cobar-disconnected": _filter_cobar_disconnected,
}


def resolve_filter(spec: str) -> tuple[str, Callable[[Graph], bool]]:
    """Resolve a filter name; comma-joined names are intersected."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
    for part in names:
        if part not in FILTERS:
            raise ValueError(f"unknown filter {part!r}")
    name = ",".join(names) or "all"
    funcs = [FILTERS[part] for part in names if part != "all"]
    if len(funcs) <= 1:
        return name, funcs[0] if funcs else _filter_all
    return name, lambda g: all(f(g) for f in funcs)


@dataclass
class ScanResult:
    """Deterministic outcome of evaluating a predicate over a graph stream."""

    n: int
    filter_name: str
    predicate_name: str
    total: int
    counts: dict[str, int]
    equality: list[str]
    violations: list[str]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "filter": self.filter_name,
            "predicate": self.predicate_name,
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "equality": self.equality,
            "violations": self.violations,
        }


#: Source items per chunk of a scan: one pool task under ``jobs`` > 1, and
#: one batched decode and float screen.
CHUNK_SIZE = 256


def _chunk_graphs(items: list) -> list[Graph]:
    """A chunk's graphs: graph6 lines decoded in one batch, graphs as they are."""
    return decode_graph6(items) if items and isinstance(items[0], str) else items


def _chunks(stream: Iterator) -> Iterator[list]:
    """``stream`` in lists of ``CHUNK_SIZE`` items.

    If reading the stream fails, the lines of the unfinished chunk are
    decoded first, so a malformed line read before the failure is the error
    raised: the error of the first bad line in stream order.
    """
    while True:
        chunk: list = []
        try:
            for item in islice(stream, CHUNK_SIZE):
                chunk.append(item)
        except Exception:
            _chunk_graphs(chunk)
            raise
        if not chunk:
            return
        yield chunk


def _tally(items: list, n: int, graph_filter: str, check: Callable[[Graph], object]
           ) -> tuple[Counter, set[str], set[str]]:
    """The verdict counts of ``check`` on the filtered graphs of one chunk,
    plus the canonical graph6 keys of its equality-certified and of its
    violated graphs.

    ``items`` are graphs or graph6 lines of order ``n``; lines are decoded
    here, in one batch.  The filter name is resolved here too, and the
    graphs the filter keeps are the current ``spectra`` chunk
    (``spectra.in_chunk``) while the check runs, and no longer when the
    tally ends, also on an error.  A check with a ``verdicts`` method (a
    bound-table row or a predicate) is handed the whole chunk; any other is
    called on each graph.
    """
    graphs = _chunk_graphs(items)
    for g in graphs:
        if g.n != n:
            raise ValueError(f"stream graph of order {g.n} in a scan for n={n}")
    _, accept = resolve_filter(graph_filter)
    graphs = list(filter(accept, graphs))
    with spectra.in_chunk(graphs):
        verdicts = check.verdicts(graphs) if hasattr(check, "verdicts") else [check(g).verdict for g in graphs]
    keys: dict[str, set[str]] = {"equality-certified": set(), "violated": set()}
    for g, verdict in zip(graphs, verdicts):
        if verdict in keys:
            keys[verdict].add(canonical_form(g))
    return Counter(verdicts), keys["equality-certified"], keys["violated"]


def _scan_chunk(args) -> tuple[Counter, set[str], set[str]]:
    """Pool-worker entry point: the tally of one (items, n, filter, check) chunk.

    Only the pool calls it.  ``perfbench``'s tracer wraps it to collect each
    worker's aggregates after every chunk, so an in-process scan calls
    ``_tally`` directly and is not counted twice.
    """
    return _tally(*args)


def scan(
    n: int,
    graph_filter: str,
    check: Callable[[Graph], object],
    *,
    source: Optional[Iterable] = None,
    jobs: int = 1,
) -> ScanResult:
    """Evaluate ``check`` on every filtered graph of order ``n``.

    ``source`` defaults to the built-in isomorph-free stream; for orders
    beyond 8 pass graphs, or the graph6 lines of an external stream (a
    source yields one or the other).  The source is read lazily in chunks of
    ``CHUNK_SIZE`` items, and each chunk is decoded, filtered and tallied
    where it is checked: in this process, or in a pool worker under ``jobs``
    > 1.  The pool has at most ``os.cpu_count()`` workers, and with one CPU
    the scan runs in this process.  ``graph_filter`` is a filter name
    (``resolve_filter``); a chunk carries lines as text and the filter by
    name, so it is resolved in the worker, and the check must pickle under
    ``jobs`` > 1.  A check with an
    ``assuming`` method (a bound-table row) is first told the filter's names,
    so it does not test a hypothesis the filter has established.  The
    tallies are merged in order, so results are independent of ``jobs``:
    members are canonical forms in sorted order.
    """
    filter_name, _ = resolve_filter(graph_filter)
    predicate_name = getattr(check, "__name__", "custom")
    if hasattr(check, "assuming"):
        check = check.assuming(filter_name.split(","))
    stream = iter(enumerate_graphs(n) if source is None else source)
    tasks = ((chunk, n, graph_filter, check) for chunk in _chunks(stream))
    counts: Counter = Counter()
    equality: set[str] = set()
    violations: set[str] = set()
    jobs = min(jobs, os.cpu_count() or 1)
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        tallies = pool.imap(_scan_chunk, tasks) if jobs > 1 else starmap(_tally, tasks)
        for chunk_counts, chunk_equality, chunk_violations in tallies:
            counts.update(chunk_counts)
            equality |= chunk_equality
            violations |= chunk_violations
    return ScanResult(n, filter_name, predicate_name, counts.total(), dict(counts),
                      sorted(equality), sorted(violations))
