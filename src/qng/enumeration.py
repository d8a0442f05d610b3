"""Isomorph-free generation of small graphs, canonical forms and scan drivers.

The canonical form of a graph is the smallest graph6 string obtainable by
relabeling, where the minimum is searched over labelings compatible with
iterated color refinement (individualization-refinement).  The search prunes
on bit-string prefixes and, at every depth, on orbits of the automorphisms
found at leaves with equal codes: a found automorphism that preserves a
node's coloring maps one child subtree onto another, so one child per orbit
is searched, and after each new automorphism the search resumes at the
deepest node shared with the best leaf.  Vertex-transitive graphs such as
K10 or E10 take a few milliseconds.

Generation is canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Every (n-1)-vertex representative is
extended by one vertex joined to a neighbor subset, one subset per orbit of
the parent's automorphism group (the automorphisms found while labeling the
parent generate it).  A child is kept only if its new vertex lies in the
automorphism orbit of an invariantly chosen deletion vertex: the first vertex,
in canonical order, of the last cell of the root coloring.  Three tests of
rising cost decide this: the new vertex must have maximum degree (read off
the parent's degrees), it must lie in that last cell, and only then is the
child searched and its new vertex checked against the orbit of the deletion
vertex.  Every kept child is the only one of its class, so no child is
deduplicated afterwards.  Counts are cross-checked against reference values
in the test suite.

``scan`` filters its source lazily and cuts it into chunks of ``SCAN_CHUNK``
graphs.  A chunk is the unit of result: one helper names it to
``spectra.set_chunk``, runs the check on each graph (each matrix kind the
check reads is then screened for the chunk's graphs and their complements in
one batched float call), and returns the chunk's tally, its verdict counts
plus the canonical graph6 keys of its equality and violation graphs.  With
``jobs`` > 1 the chunks go in order through ``Pool.imap``, and each worker
returns only that tally.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import spectra
from .graph import (
    CapacityError,
    Graph,
    _graph_unchecked,
    bits,
    complement,
    is_bipartite,
    is_connected,
    is_regular,
    to_graph6,
)

CANONICAL_MAX = 10
ENUMERATE_MAX = 8

# The set bits of every row of a graph within the canonical-form limit.
_SET_BITS = tuple(tuple(bits(mask)) for mask in range(1 << CANONICAL_MAX))


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant graph6 string; equal iff the graphs are isomorphic."""

    graph6: str


def _refine(nbrs: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Iterated invariant color refinement to a stable partition.

    A vertex signature is its color plus the per-color count of neighbors;
    re-ranking signatures in sorted order keeps the coloring canonical, and
    the primary sort on the old color preserves cell order between rounds.
    A signature is packed into one integer, color above the counts and the
    count of color 0 highest, with a field wide enough for any degree, so
    integer order is the order of the (color, counts) tuples.
    """
    n = len(nbrs)
    width = n.bit_length()
    ncol = max(colors) + 1
    while ncol < n:  # a discrete coloring is stable
        top = width * ncol
        weight = [1 << (top - width * (c + 1)) for c in colors]
        sigs = [(c << top) + sum(map(weight.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        distinct = sorted(set(sigs))
        if len(distinct) == ncol:
            return colors
        rank = {s: i for i, s in enumerate(distinct)}
        colors = [rank[s] for s in sigs]
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


def _root_coloring(nbrs: Sequence[Sequence[int]]) -> list[int]:
    """The refined root coloring; its first round from one color ranks by degree."""
    degrees = sorted({len(nb) for nb in nbrs})
    return _refine(nbrs, [degrees.index(len(nb)) for nb in nbrs])


def _search(
    g: Graph, root: Optional[list[int]] = None
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of ``g`` plus the automorphisms found on the way.

    Each automorphism maps the best leaf's vertex order onto that of a later
    leaf with the same column code; together they generate Aut(g).  ``root``
    is ``g``'s root coloring if the caller has already computed it.
    """
    n = g.n
    if n > CANONICAL_MAX:
        raise CapacityError(f"canonical forms limited to {CANONICAL_MAX} vertices")
    if n == 1:
        return (0,), []
    nbrs = [_SET_BITS[row] for row in g.rows]

    best_cols: list[int] = []
    best_perm: list[int] = []
    best_path: list[int] = []
    path: list[int] = []  # vertices individualized on the way to the current node
    gens: list[tuple[int, ...]] = []

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

    descend(_root_coloring(nbrs) if root is None else root)
    return tuple(best_perm), gens


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Vertex order realizing the canonical form (position -> original vertex)."""
    return _search(g)[0]


def _relabeled(g: Graph, order: Sequence[int]) -> Graph:
    """``g`` with vertex ``order[i]`` renamed ``i``."""
    bit = [0] * g.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = tuple(sum(map(bit.__getitem__, _SET_BITS[g.rows[v]])) for v in order)
    return _graph_unchecked(g.n, rows)


def canonicalize(g: Graph) -> Graph:
    """The canonical representative of the isomorphism class of ``g``."""
    return _relabeled(g, canonical_labeling(g))


def canonical_form(g: Graph) -> CanonicalForm:
    return CanonicalForm(to_graph6(canonicalize(g)))


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


def _augment(
    level: Iterable[tuple[Graph, Sequence[Sequence[int]]]], n: int
) -> Iterator[tuple[Graph, list[tuple[int, ...]]]]:
    """Canonical augmentation from order ``n - 1`` to order ``n``.

    ``level`` pairs one graph per isomorphism class of order ``n - 1`` with
    generators of its automorphism group.  Yields one canonical graph per
    class of order ``n``, paired with generators of its automorphism group.
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
            rows = tuple(row | new if subset >> v & 1 else row for v, row in enumerate(base))
            rows += (subset,)
            # The deletion vertices are the last cell of the root coloring,
            # a part of the maximum-degree cell.
            root = _root_coloring([_SET_BITS[row] for row in rows])
            last = root[top]
            if last != max(root):
                continue
            child = _graph_unchecked(n, rows)
            order, gens = _search(child, root)
            # The new vertex must share an orbit with the canonical deletion
            # vertex, the first of that cell in canonical order.
            first = next(v for v in order if root[v] == last)
            if first != top:
                orbit = {first}
                _close(orbit, (first,), gens)
                if top not in orbit:
                    continue
            position = [0] * n
            for i, v in enumerate(order):
                position[v] = i
            yield (
                _relabeled(child, order),
                [tuple(position[gamma[v]] for v in order) for gamma in gens],
            )


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
        # that accepted it, and the generators of order n are dropped at once.
        k = max(m for m in _ALL_GRAPHS if m < n)
        level = [(g, _search(g)[1]) for g in _ALL_GRAPHS[k]]
        for m in range(k + 1, n):
            level = list(_augment(level, m))
            _ALL_GRAPHS[m] = sorted((g for g, _ in level), key=to_graph6)
        _ALL_GRAPHS[n] = sorted((g for g, _ in _augment(level, n)), key=to_graph6)
    return list(_ALL_GRAPHS[n])


# ---------------------------------------------------------------------------
# Scan drivers


def _filter_all(g: Graph) -> bool:
    return True


def _filter_cobar_disconnected(g: Graph) -> bool:
    return not is_connected(complement(g))


FILTERS: dict[str, Callable[[Graph], bool]] = {
    "all": _filter_all,
    "connected": is_connected,
    "bipartite": is_bipartite,
    "regular": is_regular,
    "cobar-disconnected": _filter_cobar_disconnected,
}


def resolve_filter(spec) -> tuple[str, Callable[[Graph], bool]]:
    """Resolve a filter name (comma-joined names are intersected) or callable."""
    if callable(spec):
        return getattr(spec, "__name__", "custom"), spec
    names = [part.strip() for part in str(spec).split(",") if part.strip()]
    funcs = []
    for name in names:
        if name not in FILTERS:
            raise ValueError(f"unknown filter {name!r}")
        funcs.append(FILTERS[name])
    return ",".join(names) or "all", lambda g: all(f(g) for f in funcs)


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


def _verdict_of(result) -> str:
    return getattr(result, "verdict", result)


#: Graphs per chunk of a scan: one batched float screen, and one pool task
#: under ``jobs`` > 1.
SCAN_CHUNK = 256


def _tally(graphs: list[Graph], check: Callable[[Graph], object]) -> tuple[Counter, set[str], set[str]]:
    """The verdict counts of ``check`` on one chunk of ``graphs``, plus the
    canonical graph6 keys of its equality-certified and of its violated graphs.

    Each matrix kind the check reads is screened for the whole chunk at its
    first ``spectra.spectrum`` miss, in one batched call.
    """
    spectra.set_chunk(graphs)
    counts: Counter = Counter()
    keys: dict[str, set[str]] = {"equality-certified": set(), "violated": set()}
    for g in graphs:
        verdict = _verdict_of(check(g))
        counts[verdict] += 1
        if verdict in keys:
            keys[verdict].add(to_graph6(canonicalize(g)) if g.n <= CANONICAL_MAX else to_graph6(g))
    return counts, keys["equality-certified"], keys["violated"]


def _scan_chunk(args) -> tuple[Counter, set[str], set[str]]:
    """Pool-worker entry point: the tally of one (graphs, check) chunk.

    Only the pool calls it.  ``perfbench``'s tracer wraps it to collect each
    worker's aggregates after every chunk, so an in-process scan calls
    ``_tally`` directly and is not counted twice.
    """
    return _tally(*args)


def scan(
    n: int,
    graph_filter,
    check: Callable[[Graph], object],
    *,
    source: Optional[Iterable[Graph]] = None,
    jobs: int = 1,
) -> ScanResult:
    """Evaluate ``check`` on every filtered graph of order ``n``.

    ``source`` defaults to the built-in isomorph-free stream; pass graphs
    parsed from an external graph6 file for orders beyond 8.  The filtered
    stream is read lazily in chunks of ``SCAN_CHUNK`` graphs, and each chunk
    is tallied where it is checked: in this process, or in a pool worker
    under ``jobs`` > 1.  The tallies are merged in order, so results are
    independent of ``jobs``: members are canonical forms in sorted order.
    """
    filter_name, accept = resolve_filter(graph_filter)
    predicate_name = getattr(check, "__name__", "custom")
    stream = enumerate_graphs(n) if source is None else source

    def selected() -> Iterator[Graph]:
        for g in stream:
            if g.n != n:
                raise ValueError(f"stream graph of order {g.n} in a scan for n={n}")
            if accept(g):
                yield g

    graphs = selected()
    tasks = ((chunk, check) for chunk in iter(lambda: list(islice(graphs, SCAN_CHUNK)), []))
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
