from __future__ import annotations

import time
from fractions import Fraction

import pytest

from qng import polys
from qng.enumeration import enumerate_graphs
from qng.graph import complement


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
            common = polys._EndChanges(polys.poly_gcd(wa.counter.levels[0], wb.counter.levels[0]))
        # overlapping windows meet in the nonempty (max lo, min hi]
        if common.distinct(max(wa.lo, wb.lo), min(wa.hi, wb.hi)) > 0:
            return 0
        wa.refine()
        wb.refine()


@pytest.fixture(scope="session")
def compare_kth_roots():
    """The reference comparison of two polynomials' k-th largest roots, which ``qng`` makes
    as a root sum against 0: for the root-sum comparisons it is checked against."""
    return _compare_kth_roots
