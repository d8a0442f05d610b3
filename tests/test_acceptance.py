"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion is decided at its stated tolerance, with equality and
violation decisions escalated to exact arithmetic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import numpy as np

from qng import polys
from qng.cli import build_predicate
from qng.enumeration import canonical_form, scan
from qng.graph import (
    complement,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    empty_graph,
    is_connected,
    join,
    path,
    star,
    to_graph6,
)
from qng.partitions import (
    duplicate_classes,
    edge_deletion_chain_holds,
    interlaces,
    quotient_matrix,
)
from qng.spectra import (
    certify_qk,
    compare_qk_with,
    compare_sum_with,
    eigenvalues_sym,
    multiplicity_at,
    ng_sum,
    q_char_poly,
    q_matrix,
    q_spectrum,
)
from qng.theorems import (
    EQUALITY,
    STRICT,
    VIOLATED,
    bipartite_equality_catalogue,
    check_lemma26,
    check_lemma27,
    check_lemma28,
    check_lemma29,
    check_lemma210,
    check_ng_q1,
    check_problem12,
    check_thm12,
    check_thm13,
    check_thm14,
    check_thm15,
    proof_check_thm12,
    proof_check_thm15,
)


def canon(g) -> str:
    return canonical_form(g).graph6


def canon_set(graphs) -> set[str]:
    return {canon(g) for g in graphs}


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


# ---------------------------------------------------------------------------


def test_criterion_01_lower_bound_census(graphs_by_order, enum8):
    graphs8, enum_seconds = enum8
    scan_seconds_n8 = 0.0
    for n in range(4, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        start = time.perf_counter()
        result = scan(n, "all", check_thm12, source=source)
        elapsed = time.perf_counter() - start
        if n == 8:
            scan_seconds_n8 = elapsed
        expected = canon_set(
            [
                complete(n),
                empty_graph(n),
                star(n),
                disjoint_union(complete(n - 1), empty_graph(1)),
                join(empty_graph(2), complete(n - 2)),
                disjoint_union(complete(2), empty_graph(n - 2)),
            ]
        )
        assert result.violations == []
        assert set(result.equality) == expected
        if n >= 5:
            assert len(expected) == 6
        # every certified equality carries a verified witness
        for g in (star(n), join(empty_graph(2), complete(n - 2))):
            report = check_thm12(g)
            assert report.certificate is not None
            w = report.certificate.witness
            assert sorted(w) == list(range(n))
    total = enum_seconds + scan_seconds_n8
    assert total < 60, f"n=8 census took {total:.1f}s"
    _passed(1, f"equality census n=4..8 exact; n=8 in {total:.1f}s (enum {enum_seconds:.1f}s)")


def test_criterion_02_upper_bound_census(graphs_by_order, enum8):
    graphs8, _ = enum8
    equality: set[str] = set()
    for n in range(2, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        result = scan(n, "connected", check_thm13, source=source)
        assert result.violations == []
        equality |= set(result.equality)
    assert equality == canon_set([complete(2), path(4), cycle(4)])
    _passed(2, "2n-4 equality census over connected n<=8 is {K_2, P_4, C_4}")


def test_criterion_03_open_interval_scans(graphs_by_order, enum8):
    graphs8, _ = enum8
    result = scan(5, "connected", build_predicate("sum-open-interval 5 6", 5),
                  source=graphs_by_order[5])
    assert len(result.equality) == 8
    for n in range(6, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        pred = build_predicate(f"sum-open-interval {2 * n - 5} {2 * n - 4}", n)
        result = scan(n, "connected", pred, source=source)
        assert result.equality == []
    _passed(3, "8 classes in (5,6) at n=5; none in (2n-5, 2n-4) for n=6..8")


def test_criterion_04_regular_extremal_set(graphs_by_order, enum8):
    graphs8, _ = enum8
    equality: set[str] = set()
    for n in range(6, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        result = scan(n, "connected,regular", check_problem12, source=source)
        assert result.violations == []
        assert set(result.counts) <= {EQUALITY, STRICT}
        equality |= set(result.equality)
    expected = canon_set(
        [
            cycle(6),
            complete_bipartite(3, 3),
            cartesian_product(complete(3), complete(2)),
            join(disjoint_union(complete(2), complete(2)), empty_graph(3)),
        ]
    )
    assert equality == expected
    _passed(4, "regular equality set over n=6..8 is {C_6, K_{3,3}, K_3□K_2, (2K_2)∇(3K_1)}")


def test_criterion_05_cobar_disconnected(graphs_by_order, enum8):
    graphs8, _ = enum8
    expected_by_n = {
        6: canon_set(
            [
                join(disjoint_union(complete(2), complete(3)), empty_graph(1)),
                complete_bipartite(3, 3),
                join(disjoint_union(empty_graph(1), complete(2)),
                     disjoint_union(empty_graph(1), complete(2))),
            ]
        ),
        7: canon_set(
            [
                join(disjoint_union(complete(2), complete(4)), empty_graph(1)),
                join(disjoint_union(complete(2), complete(2)), empty_graph(3)),
            ]
        ),
        8: canon_set([join(disjoint_union(complete(2), complete(5)), empty_graph(1))]),
    }
    for n in range(6, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        result = scan(n, "connected,cobar-disconnected", check_thm14, source=source)
        assert result.violations == []
        assert set(result.equality) == expected_by_n[n]
    _passed(5, "disconnected-complement equality sets match the four families")


def test_criterion_06_bipartite_census(graphs_by_order, enum8):
    graphs8, _ = enum8
    for n in range(6, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        result = scan(n, "connected,bipartite", check_thm15, source=source)
        assert result.violations == []
        if n == 6:
            assert len(result.equality) == 9
            assert tuple(result.equality) == bipartite_equality_catalogue()
        else:
            assert result.equality == []
    _passed(6, "bipartite equality classes: exactly the 9 frozen at n=6, none at n=7,8")


def test_criterion_07_proof_algebra():
    start = time.perf_counter()
    for n in range(4, 51):
        for d2 in range(1, n - 1):
            assert proof_check_thm12(n, d2), (n, d2)
    for n in range(8, 51):
        assert proof_check_thm15(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"proof sweeps took {elapsed:.2f}s"
    _passed(7, f"proof algebra exact for n<=50 in {elapsed:.2f}s")


def test_criterion_08_lemma_suite(graphs_by_order):
    start = time.perf_counter()
    rng = random.Random(20240817)
    tol = 1e-8

    # Weyl consistency (2.1)
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            gc = complement(g)
            upper = q_spectrum(g).value(2) + q_spectrum(gc).value(n)
            lower = q_spectrum(g).value(2) + q_spectrum(gc).value(2)
            assert upper <= n - 2 + tol and lower >= n - 2 - tol
            if abs(upper - (n - 2)) <= 1e-6:
                assert compare_sum_with(g, "Q", 2, n - 2, k_complement=n) <= 0
            if abs(lower - (n - 2)) <= 1e-6:
                assert compare_sum_with(g, "Q", 2, n - 2) >= 0

    # principal submatrices and random-partition quotients interlace (2.2, 2.3)
    done = 0
    while done < 200:
        n = rng.randint(2, 7)
        g = rng.choice(graphs_by_order[n])
        k = rng.randint(1, n)
        subset = sorted(rng.sample(range(n), k))
        sub = q_matrix(g)[np.ix_(subset, subset)]
        assert interlaces(eigenvalues_sym(sub), q_spectrum(g))
        blocks = [[] for _ in range(rng.randint(1, n))]
        for v in range(n):
            blocks[rng.randrange(len(blocks))].append(v)
        blocks = [tuple(b) for b in blocks if b]
        assert interlaces(quotient_matrix(g, blocks).spectrum(), q_spectrum(g))
        done += 1

    # full edge-deletion chains (2.4)
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            for edge in g.edges():
                assert edge_deletion_chain_holds(g, edge, tol=tol)

    # duplicate-class multiplicity (2.5), exact
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            for cls in duplicate_classes(g):
                target = cls.degree - 1 if cls.kind == "clique" else cls.degree
                assert multiplicity_at(q_char_poly(g), target) >= len(cls.vertices) - 1

    # q_1 degree bound with equality characterization (2.6)
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            if is_connected(g) and g.m:
                assert check_lemma26(g).verdict != VIOLATED

    # strict q_1 growth on 500 random (graph, non-edge) pairs (2.7)
    done = 0
    while done < 500:
        n = rng.randint(3, 7)
        g = rng.choice(graphs_by_order[n])
        if not is_connected(g):
            continue
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        if not non_edges:
            continue
        assert check_lemma27(g, rng.choice(non_edges)).verdict == STRICT
        done += 1

    # q_2 <= n-2 equality iff complement structure (2.8)
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            assert check_lemma28(g).verdict != VIOLATED

    # q_2 >= d_2 - 1 with adjacency consequence (2.9)
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            assert check_lemma29(g).verdict != VIOLATED

    # q_n lower bound (2.10)
    for n in (6, 7):
        for g in graphs_by_order[n]:
            assert check_lemma210(g).verdict != VIOLATED

    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"lemma suite took {elapsed:.1f}s"
    _passed(8, f"lemma suite exhaustive at n<=7 in {elapsed:.1f}s")


def test_criterion_09_float_exact_agreement(graphs_by_order):
    width = F(1, 10**9)
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            floats = q_spectrum(g).values
            p = q_char_poly(g).as_poly()
            counter = polys.RootCounter(p)
            bound = polys.cauchy_root_bound(p)
            assert counter.count_gt(-bound) == n  # count agreement
            for k in range(1, n + 1):
                window = polys.isolate_kth_largest(p, k)
                while window.hi - window.lo >= width:
                    window.refine()
                mid = float((window.lo + window.hi) / 2)
                assert abs(floats[k - 1] - mid) < 1e-8
    _passed(9, "float spectra match Sturm-isolated exact roots at n<=6")


def test_criterion_10_micro_censuses(graphs_by_order, enum8):
    graphs8, _ = enum8

    # Both small-case searches live under the standing hypothesis
    # d_2 >= 1 and complement d_2 >= 1 (empty and complete graphs are
    # dispatched before the case split).

    # (a) no graph of order 4..6 sits in the open window pair with exact sum n-2
    for n in range(4, 7):
        for g in graphs_by_order[n]:
            gc = complement(g)
            d2 = g.degree_sequence()[1]
            bd2 = gc.degree_sequence()[1]
            if d2 < 1 or bd2 < 1:
                continue
            if not (compare_qk_with(g, 2, d2 - 1) > 0 and compare_qk_with(g, 2, d2) < 0):
                continue
            if not (compare_qk_with(gc, 2, bd2 - 1) >= 0 and compare_qk_with(gc, 2, bd2) < 0):
                continue
            assert compare_sum_with(g, "Q", 2, n - 2) != 0, to_graph6(g)

    # (b) the star is the unique graph with q2 = d2, q2bar = d2bar - 1, sum n-2
    for n in range(4, 9):
        hits = set()
        source = graphs8 if n == 8 else graphs_by_order[n]
        for g in source:
            gc = complement(g)
            d2 = g.degree_sequence()[1]
            bd2 = gc.degree_sequence()[1]
            if d2 < 1 or bd2 < 1:
                continue
            if d2 + bd2 - 1 != n - 2:
                continue
            if abs(q_spectrum(g).value(2) - d2) > 1e-6:
                continue
            if abs(q_spectrum(gc).value(2) - (bd2 - 1)) > 1e-6:
                continue
            if certify_qk(g, 2, d2) and certify_qk(gc, 2, bd2 - 1):
                hits.add(canon(g))
        assert hits == {canon(star(n))}, n

    # (c) connected graphs of order n/2 with q_1 >= n-3, for n in {6, 8, 10}
    for n in (6, 8, 10):
        half = n // 2
        hits = set()
        for h in graphs_by_order[half]:
            if not is_connected(h):
                continue
            if q_spectrum(h).value(1) >= n - 3 - 1e-6 and compare_qk_with(h, 1, n - 3) >= 0:
                hits.add(canon(h))
        expected = canon_set([complete(half), join(complete(half - 2), empty_graph(2))])
        assert hits == expected, n
    _passed(10, "all three small-case censuses reproduce exactly")


# ---------------------------------------------------------------------------
# Module-invariant extras beyond the numbered criteria


def test_invariant_q1_sum_bound(graphs_by_order, enum8):
    graphs8, _ = enum8
    for n in range(2, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        expected = canon_set([star(n), disjoint_union(complete(n - 1), empty_graph(1))])
        hits = set()
        for g in source:
            value = ng_sum(g, "Q", 1)
            assert value <= 3 * n - 4 + 1e-8
            if abs(value - (3 * n - 4)) <= 1e-6:
                report = check_ng_q1(g)
                assert report.verdict != VIOLATED
                if report.verdict == EQUALITY:
                    hits.add(canon(g))
        assert hits == expected


def test_soundness_thm16_census(graphs_by_order, enum8):
    from qng.theorems import check_thm16

    graphs8, _ = enum8
    for n in range(6, 9):
        source = graphs8 if n == 8 else graphs_by_order[n]
        result = scan(n, "connected", check_thm16, source=source)
        assert result.violations == []
        if n == 6:
            assert tuple(result.equality) == bipartite_equality_catalogue()
        else:
            assert result.equality == []


def test_soundness_lemma_float_screen_n8(enum8):
    graphs8, _ = enum8
    tol = 1e-6
    for g in graphs8:
        spec = q_spectrum(g)
        degs = g.degree_sequence()
        assert spec.value(2) >= degs[1] - 1 - tol
        assert spec.value(2) <= 6 + tol
        assert spec.value(8) >= 2 * g.m / 6 - 7 - tol
        if is_connected(g) and g.m:
            rhs = max(
                (g.degree(u) ** 2 + sum(g.degree(v) for v in g.neighbors(u))) / g.degree(u)
                for u in range(8)
            )
            assert spec.value(1) <= rhs + tol
