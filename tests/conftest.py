from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

import pytest

from qng import polys
from qng.enumeration import enumerate_graphs
from qng.graph import complement, from_edges


def twin_classes(rows):
    """The twin classes of the graph with adjacency ``rows``: the vertex sets of
    two or more members sharing an open neighborhood (pairwise non-adjacent),
    then those sharing a closed one (pairwise adjacent).

    Each list is ordered by least member, and each class is in increasing
    order.  The tests' reference for ``enumeration._twins``, the one twin
    kernel of ``qng``; test modules import it from here.
    """
    out = []
    for keys in (rows, [row | 1 << v for v, row in enumerate(rows)]):
        groups = {}
        for v, key in enumerate(keys):
            groups.setdefault(key, []).append(v)
        out.append([members for members in groups.values() if len(members) > 1])
    return out[0], out[1]


def surd_sign(p, u: int, v: int, d: int, den: int = 1) -> int:
    """The sign of p((u + v sqrt(d)) / den) for integer coefficients p, in ascending
    order, integers u, v, d >= 0 and den > 0, in ``int`` arithmetic alone.

    den^deg(p) p((u + v sqrt(d)) / den) = a + b sqrt(d) is summed term by term from the
    powers of u + v sqrt(d) as integer pairs; with opposite signs, the part with the larger
    square decides.  The tests' integer reference for a sign at a closed-form root, sharing
    no code with ``qng.polys``; test modules import it from here.
    """
    if den <= 0 or d < 0:
        raise ValueError(f"surd needs den > 0 and d >= 0, not den={den}, d={d}")
    a = b = 0
    x, y = 1, 0  # (u + v sqrt(d))^i = x + y sqrt(d)
    for i, c in enumerate(p):
        scale = c * den ** (len(p) - 1 - i)
        a, b = a + scale * x, b + scale * y
        x, y = x * u + y * v * d, x * v + y * u
    if b == 0 or d == 0:
        return (a > 0) - (a < 0)
    if a * b >= 0:  # one sign, or a = 0
        return 1 if a + b > 0 else -1
    gap = a * a - b * b * d
    return ((gap > 0) - (gap < 0)) * (1 if a > 0 else -1)


def random_graph(rng, n, p=0.5):
    """A graph of order n with each vertex pair an edge with probability p, drawn from the
    ``random.Random`` rng in increasing pair order; test modules import it from here."""
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def from_roots(roots):
    """The primitive integer polynomial with these rational roots, positive leading coefficient;
    test modules import it from here."""
    out = [1]
    for r in map(Fraction, roots):
        out = polys.poly_mul(out, [-r.numerator, r.denominator])  # primitive factors have a primitive product
    return out


def distinct_in(counter, lo, hi) -> int:
    """The distinct real roots in (lo, hi] of a counter with ``RootCounter.counts_at``'s
    query; test modules import it from here."""
    return counter.counts_at(lo)[1] - counter.counts_at(hi)[1]


@pytest.fixture(scope="session")
def graphs_by_order():
    """All isomorphism-class representatives for n = 1..7."""
    return {n: enumerate_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def graphs_and_complements(graphs_by_order):
    """Every class representative for n = 1..7, each followed by its complement."""
    return [h for n in range(1, 8) for g in graphs_by_order[n] for h in (g, complement(g))]


@pytest.fixture(scope="session")
def enum8():
    """The n = 8 stream plus the wall-clock seconds its generation took."""
    start = time.perf_counter()
    graphs = enumerate_graphs(8)
    return graphs, time.perf_counter() - start


def _partitions(n, largest=None):
    """The partitions of n into parts of at most ``largest``, parts in decreasing order."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


@lru_cache(maxsize=None)
def _graphs_by_edges(n):
    """The number of graphs of order n with m edges, for m = 0..n(n-1)/2, by Pólya's
    theorem (Harary & Palmer, *Graphical Enumeration*, 1973, ch. 4).

    A permutation of cycle type λ acts on the vertex pairs in cycles: a cycle of
    length a gives (a - 1)/2 pair cycles of length a if a is odd, and (a - 2)/2 of
    length a plus one of length a/2 if a is even; two cycles of lengths a and b give
    gcd(a, b) of length lcm(a, b).  A graph fixed by it takes a pair cycle whole, so
    the cycle type contributes Π (1 + y^len) over its pair cycles, weighted by the
    n!/z_λ permutations of that type; the sum over the partitions of n, divided by
    n!, counts the orbits by edge number.  Pure ``int`` arithmetic throughout.
    """
    total = [0] * (n * (n - 1) // 2 + 1)
    for parts in _partitions(n):
        weight = factorial(n)
        for k, a in Counter(parts).items():
            weight //= k ** a * factorial(a)
        lengths = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2) + [a // 2] * (1 - a % 2)
            lengths += [lcm(a, b) for b in parts[i + 1:] for _ in range(gcd(a, b))]
        poly = [1]
        for length in lengths:
            poly = [x + (poly[i - length] if i >= length else 0) for i, x in enumerate(poly + [0] * length)]
        for m, x in enumerate(poly):
            total[m] += weight * x
    return tuple(x // factorial(n) for x in total)


@lru_cache(maxsize=None)
def _connected_by_edges(n):
    """The number of connected graphs of order n with m edges, by the inverse Euler
    transform in two variables.

    With g_k and c_k the edge polynomials of all and of connected graphs of order k,
    Π (1 - x^k y^m)^(-c(k, m)) = Σ g_k x^k; its logarithmic derivative in x gives
    k·g_k = Σ_{j=1..k} b_j·g_{k-j} with b_j = Σ_{d | j} d·c_d(y^(j/d)), so each b_k,
    and then c_k, follows from the smaller orders.  The divisions are exact.
    """
    g = [(1,), *map(_graphs_by_edges, range(1, n + 1))]
    b, c = {}, {}
    for k in range(1, n + 1):
        bk = [k * x for x in g[k]]
        for j in range(1, k):
            for i, x in enumerate(b[j]):
                for e, y in enumerate(g[k - j]):
                    bk[i + e] -= x * y
        b[k] = bk[:]
        for d in range(1, k):
            if k % d == 0:
                for i, x in enumerate(c[d]):
                    bk[i * (k // d)] -= d * x
        assert all(x % k == 0 for x in bk)
        c[k] = [x // k for x in bk]
    return tuple(c[n])


@pytest.fixture(scope="session")
def edge_counts():
    """The Pólya counts of graphs of order n by edge number m: ``edge_counts(n)`` for
    all graphs, ``edge_counts(n, connected=True)`` for connected ones, each a tuple
    indexed by m."""
    return lambda n, connected=False: (_connected_by_edges if connected else _graphs_by_edges)(n)


def _rational_quotient(g, blocks):
    """The quotient of Q(G) over any partition, in exact rationals: entry (i, j) is the
    average over the vertices of X_i of their Q(G)-row sums into X_j."""
    def q(u, w):
        return g.degree(u) if u == w else int(g.has_edge(u, w))

    return tuple(tuple(Fraction(sum(q(u, w) for u in bi for w in bj), len(bi)) for bj in blocks) for bi in blocks)


@pytest.fixture(scope="session")
def rational_quotient():
    """The rational quotient of Q(G) over an arbitrary partition, which ``qng`` builds
    only for equitable ones (``partitions.equitable_quotient``): for quotient
    interlacing (Lemma 2.3) and the weighted symmetry of the quotient."""
    return _rational_quotient


def _compare_kth_roots(pa, ka, pb, kb, near_a=None, near_b=None) -> int:
    """Exact sign of (k_a-th largest root of pa) - (k_b-th largest root of pb), by
    bisecting both isolating windows until they part, or until a root of gcd(pa, pb) lies
    in both: a comparison of two roots as it was decided before it became a root sum
    against 0 (``polys.compare_root_sum`` on pb reflected)."""
    wa = polys.isolate_kth_largest(pa, ka, near_a)
    wb = polys.isolate_kth_largest(pb, kb, near_b)
    common = None
    while True:
        if wa.lo >= wb.hi:
            return 1
        if wb.lo >= wa.hi:
            return -1
        if common is None:
            common = polys.RootCounter(polys.poly_gcd(wa.counter.squarefree, wb.counter.squarefree))
        # overlapping windows meet in the nonempty (max lo, min hi]
        if distinct_in(common, max(wa.lo, wb.lo), min(wa.hi, wb.hi)) > 0:
            return 0
        wa.refine()
        wb.refine()


@pytest.fixture(scope="session")
def compare_kth_roots():
    """The reference comparison of two polynomials' k-th largest roots, which ``qng`` makes
    as a root sum against 0: for the root-sum comparisons it is checked against."""
    return _compare_kth_roots
