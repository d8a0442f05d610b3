"""Isomorph-free generation of small graphs, canonical forms and scan drivers.

The canonical form of a graph (``canonical_form``) is the smallest graph6
string obtainable by relabeling, where the minimum is searched over labelings
compatible with iterated color refinement (individualization-refinement).
Refinement works against the cells that just split (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014): a round counts
neighbors only in the fragments the previous round split off, the last
fragment of each old cell left out, which ranks vertices as full count
vectors would.  The first round after individualizing ``v`` counts only the
splitter ``{v}``; the root round counts the degree classes but the last.  The
search prunes on bit-string prefixes and, at every depth, on orbits of known
automorphisms: a known automorphism that preserves a node's coloring maps one
child subtree onto another, so one child per orbit is searched.  The
transpositions of twins (``graph.twin_classes``: vertices with equal open or
equal closed neighborhoods) are known before the search starts; the others
are found at leaves with equal codes, and after each the search resumes at
the deepest node shared with the best leaf.  Canonical forms, isomorphism
witnesses and scan keys cover every graph ``graph.Graph`` can hold (up to
``graph.MAX_VERTICES`` vertices); vertex-transitive graphs such as K32, E32
or K16,16 take a few milliseconds.  ``isomorphism_witness`` composes two
canonical labelings and checks the map edge by edge; for graphs of equal
order and size that check alone decides isomorphism.

Generation is canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Every (n-1)-vertex representative is
extended by one vertex joined to a neighbor subset, one subset per orbit of
the parent's automorphism group (the automorphisms known from labeling the
parent generate it).  A child is kept only if its new vertex lies in the
automorphism orbit of an invariantly chosen deletion vertex: the first vertex,
in canonical order, of the last cell of the root coloring.  Three tests of
rising cost decide this.  The new vertex must have maximum degree, read off
the parent's degrees.  It must lie in that last cell: the children of
consecutive parents are root-colored ``_BLOCK`` at a time, in one numpy pass
whose rounds rank full count vectors packed into int64 keys.  Only then is
the child searched and its new vertex checked against the orbit of the
deletion vertex.  A child whose root coloring is discrete needs no search:
the coloring is invariant, so the child has no automorphism but the
identity, and its color order is its canonical labeling.  Every kept child
is the only one of its class, so no child is deduplicated afterwards.  Each
order is sorted by the children's column codes, which is graph6 order, and
the last order's automorphisms are never translated to canonical labels.
Counts are cross-checked against reference values in the test suite.

``scan`` reads its source lazily and cuts it into chunks of ``SCAN_CHUNK``
items, graphs or the graph6 lines of an external stream.  A chunk is where
each graph is handled once: one helper decodes the chunk's lines in one
batch (``graph.decode_graph6``), filters them (on adjacency rows, building
no complement), names the graphs kept to ``spectra.set_chunk``, runs the
check (each matrix kind it reads is then screened for the chunk's graphs in
one batched float call, and for the complements it reads in one more),
drops the chunk again, and returns the chunk's tally,
its verdict counts plus the canonical graph6 keys of its equality and
violation graphs.  A bound-table row or a scan predicate gets the whole
chunk through its ``verdicts`` method and complements, and builds reports
for, only the graphs its float screen leaves undecided; any other check is
called on each graph.  A bound-table row does not re-test a hypothesis that the
filter is.  With ``jobs`` > 1 the chunks go in order through
``Pool.imap``, as text and with the filter by name, and each worker returns
only that tally.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice, starmap
from operator import itemgetter
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
    twin_classes,
)

ENUMERATE_MAX = 8

# The set bits of every row of a graph within the generation limit.
_SET_BITS = tuple(tuple(bits(mask)) for mask in range(1 << ENUMERATE_MAX))


def _neighbours(g: Graph) -> list[tuple[int, ...]]:
    """The neighbours of each vertex, from ``_SET_BITS`` while ``g`` fits it."""
    if g.n <= ENUMERATE_MAX:
        return [_SET_BITS[row] for row in g.rows]
    return [tuple(bits(row)) for row in g.rows]


def _refine(nbrs: Sequence[Sequence[int]], colors: list[int], splitters: Sequence[int]) -> list[int]:
    """Iterated invariant color refinement to a stable partition.

    A round ranks the vertex signatures (color, neighbor count per color) in
    sorted order; the primary sort on the old color keeps cells in order, so
    the coloring stays canonical.  ``colors`` must refine a coarser coloring
    each of whose cells is a run of consecutive colors toward which every
    cell of ``colors`` has constant counts; ``splitters`` are the colors of
    those runs, the last of each left out.  Then only the counts toward the
    splitters can differ within a cell, and the first difference of two full
    count vectors lies at a splitter, since a run's last count is the run's
    total minus the others.  So a signature packs only the splitter counts,
    in color order with the first most significant (a field wide enough for
    any degree, the color above them), and integer order ranks as the full
    vectors would; each splitter vertex adds its field's unit to its
    neighbors' signatures.  After a round the splitters are the fragments of
    each cell that split, its last fragment left out.
    """
    n = len(nbrs)
    width = n.bit_length()
    ncol = max(colors) + 1
    while True:
        if not splitters or ncol == n:
            return colors
        top = width * len(splitters)
        weight = [0] * ncol
        for i, c in enumerate(splitters):
            weight[c] = 1 << (top - width * (i + 1))
        sigs = [c << top for c in colors]
        for c, nb in zip(colors, nbrs):
            w = weight[c]
            if w:
                for u in nb:
                    sigs[u] += w
        distinct = sorted(set(sigs))
        if len(distinct) == ncol:
            return colors
        rank = {s: i for i, s in enumerate(distinct)}
        colors = list(map(rank.__getitem__, sigs))
        cells = [s >> top for s in distinct]
        splitters = [i for i in range(len(cells) - 1) if cells[i] == cells[i + 1]]
        ncol = len(distinct)


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


def _root_coloring(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """The refined root coloring, from the degree classes in increasing order.

    Every degree class has a constant count toward the one-cell coloring, so
    the splitters are the degree classes but the last.
    """
    degrees = sorted({len(nb) for nb in nbrs})
    rank = {d: i for i, d in enumerate(degrees)}
    colors = [rank[len(nb)] for nb in nbrs]
    return _refine(nbrs, colors, range(len(degrees) - 1))


def _twin_transpositions(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Transpositions of twins, which are automorphisms of the graph.

    The transpositions of consecutive members of each twin class
    (``graph.twin_classes``) generate its symmetric group.
    """
    n = len(rows)
    gens: list[tuple[int, ...]] = []
    for classes in twin_classes(rows):
        for members in classes:
            for u, v in zip(members, members[1:]):
                gamma = list(range(n))
                gamma[u], gamma[v] = v, u
                gens.append(tuple(gamma))
    return gens


def _search(
    g: Graph, root: Optional[list[int]] = None
) -> tuple[tuple[int, ...], list[tuple[int, ...]], tuple[int, ...]]:
    """Canonical labeling of ``g``, automorphisms of ``g`` and the column code.

    The automorphisms are the transpositions of twins plus, for each later
    leaf with the best leaf's column code, the map of the best leaf's vertex
    order onto that leaf's; together they generate Aut(g).  The column code
    is the canonical form's adjacency matrix, column by column; for graphs
    of one order its lexicographic order is graph6 order.  ``root`` is
    ``g``'s root coloring if the caller has already computed it.
    """
    n = g.n
    if n == 1:
        return (0,), [], ()
    nbrs = _neighbours(g)

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
            # v takes color t ahead of the rest of its cell; this node's
            # coloring is equitable, so {v} is the one splitter.
            nc = [c if c <= t else c + 1 for c in colors]
            for u in branch_cell:
                if u != v:
                    nc[u] = t + 1
            path.append(v)
            resume = descend(_refine(nbrs, nc, (t,)))
            path.pop()
            if resume < depth:
                return resume
        return n

    descend(_root_coloring(nbrs) if root is None else root)
    return tuple(best_perm), gens, tuple(best_cols)


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex order realizing the canonical form (position -> original vertex)."""
    return _search(g)[0]


def _relabeled(g: Graph, order: Sequence[int]) -> Graph:
    """``g`` with vertex ``order[i]`` renamed ``i``."""
    bit = [0] * g.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    nbrs = _neighbours(g)
    rows = tuple(sum(map(bit.__getitem__, nbrs[v])) for v in order)
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


def _orbit_representatives(
    m: int, gens: Sequence[Sequence[int]], subsets: Optional[Sequence[int]] = None
) -> list[int]:
    """The least vertex subset (as a bitmask) of each orbit of <gens> on 2^[m].

    Subsets in one orbit of an automorphism group of the parent give
    isomorphic children, so one child per orbit suffices.  ``subsets``, in
    increasing order and a union of orbits, restricts the orbits to those it
    holds; it defaults to all of 2^[m].
    """
    size = 1 << m
    if subsets is None:
        subsets = range(size)
    if not gens:
        return list(subsets)
    images = []  # the action of each generator on subsets
    for gamma in gens:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | (1 << gamma[low.bit_length() - 1])
        images.append(image)
    covered: set[int] = set()
    reps = []
    for s in subsets:
        if s not in covered:
            reps.append(s)
            covered.add(s)
            _close(covered, (s,), images)
    return reps


#: Children root-colored in one numpy pass: those of consecutive parents, a
#: few hundred at a time.  At order 8 a block of 512 makes numpy take its
#: path for large loops, which maps about 0.6 MB more library code into the
#: process (peak RSS) and ran no faster in the census benchmark.
_BLOCK = 256


def _root_colorings(adj: np.ndarray) -> np.ndarray:
    """The root colorings (``_root_coloring``) of a block of graphs of one order.

    ``adj`` holds the graphs' adjacency bits, shape (B, n, n); the result
    holds their colors, shape (B, n).  A round gives each vertex the key
    color·(n+1)^n + Σ_u A[v, u]·(n+1)^(n-1-color[u]): base-(n+1) digits
    holding the color and then the neighbor count toward each color, color 0
    first, so integer order is the order of the full count vectors.  The
    keys stay below (n+1)^(n+1), which is below 2^63 for n <= 14.  A vertex's
    new color is the number of vertices of smaller key, so a cell's color is
    the number of vertices in the cells before it, and a round that splits
    no cell gives back the same colors.  The first round, from one cell,
    ranks the degrees.  Only the graphs whose coloring changed in a round go
    on to the next.  The colors are then renumbered 0, 1, 2, ... in order.
    """
    size, n, _ = adj.shape
    digit = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)  # (n+1)^(n-1-c) for color c
    colors = np.zeros((size, n), dtype=np.int64)
    live = np.arange(size)
    while live.size:
        old = colors[live]
        keys = old * (n + 1) ** n + (adj[live] @ digit[old][:, :, None])[:, :, 0]
        new = (keys[:, None, :] < keys[:, :, None]).sum(-1)
        colors[live] = new
        live = live[(new != old).any(-1)]
    used = (colors[:, :, None] == np.arange(n)).any(1)
    return (used[:, None, :] & (np.arange(n) < colors[:, :, None])).sum(-1)


def _discrete_forms(adj: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical labelings, canonical rows and column codes, as ``_search``
    finds them, of graphs whose root colorings ``roots`` are discrete.

    A discrete invariant coloring is kept by no automorphism but the
    identity, and no two vertices are twins, so the search tree is one leaf:
    the vertices in color order.  Vertex v goes to position roots[v]; its
    canonical row and, as ``_search`` reads it, its column of the code are
    its adjacency bits weighted by the positions of its neighbors.
    """
    size, n, _ = adj.shape
    block = np.arange(size)[:, None]
    order = np.empty_like(roots)
    order[block, roots] = np.arange(n)
    rows = np.empty_like(roots)
    rows[block, roots] = (adj @ (1 << roots)[:, :, None])[:, :, 0]
    codes = np.empty_like(roots)
    codes[block, roots] = (adj @ (1 << (n - 1 - roots))[:, :, None])[:, :, 0] >> (n - roots)
    return order, rows, codes[:, 1:]


def _children(level: Iterable[tuple[Graph, Sequence[Sequence[int]]]], n: int) -> Iterator[tuple[int, ...]]:
    """The rows of the children of ``level`` whose new vertex, ``n - 1``, may
    be a deletion vertex: one neighbor subset per orbit of each parent's
    automorphism group, among those that give the new vertex maximum degree.
    """
    top = n - 1
    new = 1 << top
    for parent, parent_gens in level:
        base = parent.rows
        degree = [row.bit_count() for row in base]
        dmax = max(degree)
        at_max = sum(1 << v for v, d in enumerate(degree) if d == dmax)
        # The new vertex, of degree |s|, must have maximum degree, so no
        # vertex of the parent's maximum degree may gain an edge if |s|
        # equals it.  Automorphisms keep degrees, so these subsets are a
        # union of orbits.
        subsets = [
            s for s in range(new)
            if s.bit_count() > dmax or (s.bit_count() == dmax and not s & at_max)
        ]
        for subset in _orbit_representatives(top, parent_gens, subsets):
            yield tuple(row | new if subset >> v & 1 else row for v, row in enumerate(base)) + (subset,)


def _augment(
    level: Iterable[tuple[Graph, Sequence[Sequence[int]]]], n: int, keep_gens: bool = True
) -> Iterator[tuple[Graph, list[tuple[int, ...]], tuple[int, ...]]]:
    """Canonical augmentation from order ``n - 1`` to order ``n``.

    ``level`` pairs one graph per isomorphism class of order ``n - 1`` with
    generators of its automorphism group.  Yields one canonical graph per
    class of order ``n``, with generators of its automorphism group (none
    unless ``keep_gens``) and its column code, whose order is graph6 order.
    The children (``_children``) are root-colored ``_BLOCK`` at a time.
    """
    top = n - 1
    children = _children(level, n)
    while block := list(islice(children, _BLOCK)):
        adj = np.array(block, dtype=np.int64)[:, :, None] >> np.arange(n) & 1
        roots = _root_colorings(adj)
        last = roots.max(axis=1)
        # The deletion vertices are the last cell of the root coloring, so a
        # child whose new vertex is elsewhere is dropped.  A child whose root
        # coloring is discrete has the new vertex alone in that cell and is
        # kept without a search.
        kept = roots[:, top] == last
        discrete = kept & (last == top)
        _, rows, codes = _discrete_forms(adj[discrete], roots[discrete])
        forms = zip(rows.tolist(), codes.tolist())
        for child_rows, root, keep, leaf in zip(block, roots.tolist(), kept.tolist(), discrete.tolist()):
            if not keep:
                continue
            if leaf:
                canonical_rows, code = next(forms)
                yield _graph_unchecked(n, tuple(canonical_rows)), [], tuple(code)
                continue
            child = _graph_unchecked(n, child_rows)
            order, gens, code = _search(child, root)
            # The new vertex must share an orbit with the canonical deletion
            # vertex, the first of the last cell in canonical order.
            first = next(v for v in order if root[v] == root[top])
            if first != top:
                orbit = {first}
                _close(orbit, (first,), gens)
                if top not in orbit:
                    continue
            if keep_gens:
                position = [0] * n
                for i, v in enumerate(order):
                    position[v] = i
                gens = [tuple(position[gamma[v]] for v in order) for gamma in gens]
            else:
                gens = []
            yield _relabeled(child, order), gens, code


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
        # Extend the highest order built so far.  Only its graphs are searched
        # for their automorphisms; each later order takes them from the search
        # that accepted it, and order n keeps none.  Each order is sorted by
        # the column codes of its canonical forms, which is graph6 order.
        k = max(m for m in _ALL_GRAPHS if m < n)
        level = [(g, _search(g)[1]) for g in _ALL_GRAPHS[k]]
        for m in range(k + 1, n + 1):
            children = sorted(_augment(level, m, keep_gens=m < n), key=itemgetter(2))
            _ALL_GRAPHS[m] = [g for g, _, _ in children]
            level = [(g, gens) for g, gens, _ in children]
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
SCAN_CHUNK = 256


def _chunk_graphs(items: list) -> list[Graph]:
    """A chunk's graphs: graph6 lines decoded in one batch, graphs as they are."""
    return decode_graph6(items) if items and isinstance(items[0], str) else items


def _chunks(stream: Iterator) -> Iterator[list]:
    """``stream`` in lists of ``SCAN_CHUNK`` items.

    If reading the stream fails, the lines of the unfinished chunk are
    decoded first, so a malformed line read before the failure is the error
    raised: the error of the first bad line in stream order.
    """
    while True:
        chunk: list = []
        try:
            for item in islice(stream, SCAN_CHUNK):
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
    here, in one batch.  The filter name is resolved here too, and
    ``spectra`` has the graphs the filter keeps as its chunk.  A check with
    a ``verdicts`` method (a bound-table row or a predicate) is handed the
    whole chunk; any other is called on each graph.  The chunk is dropped
    from ``spectra`` when the tally ends, also on an error.
    """
    graphs = _chunk_graphs(items)
    for g in graphs:
        if g.n != n:
            raise ValueError(f"stream graph of order {g.n} in a scan for n={n}")
    _, accept = resolve_filter(graph_filter)
    graphs = list(filter(accept, graphs))
    spectra.set_chunk(graphs)
    try:
        if hasattr(check, "verdicts"):
            verdicts = check.verdicts(graphs)
        else:
            verdicts = [check(g).verdict for g in graphs]
    finally:
        spectra.set_chunk(())
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
    ``SCAN_CHUNK`` items, and each chunk is decoded, filtered and tallied
    where it is checked: in this process, or in a pool worker under ``jobs``
    > 1.  ``graph_filter`` is a filter name (``resolve_filter``); a chunk
    carries lines as text and the filter by name, so it is resolved in the
    worker, and the check must pickle under ``jobs`` > 1.  A check with an
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
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        tallies = pool.imap(_scan_chunk, tasks) if jobs > 1 else starmap(_tally, tasks)
        for chunk_counts, chunk_equality, chunk_violations in tallies:
            counts.update(chunk_counts)
            equality |= chunk_equality
            violations |= chunk_violations
    return ScanResult(n, filter_name, predicate_name, counts.total(), dict(counts),
                      sorted(equality), sorted(violations))
