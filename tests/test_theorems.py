"""Bound predicates, extremal certificates and the parametric proof checks."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

from qng.graph import (
    complement,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    empty_graph,
    from_edges,
    from_graph6,
    h_graph,
    join,
    path,
    relabel,
    star,
    to_graph6,
)
from qng import theorems
from qng.enumeration import scan
from qng.spectra import char_poly_exact, q_spectrum
from qng.theorems import (
    EQUALITY,
    NOT_APPLICABLE,
    STRICT,
    VIOLATED,
    bipartite_equality_catalogue,
    check_lemma26,
    check_lemma27,
    check_lemma28,
    check_lemma29,
    check_lemma210,
    check_ng_generic,
    check_ng_q1,
    check_problem12,
    check_regular_bound,
    check_thm12,
    check_thm13,
    check_thm14,
    check_thm15,
    check_thm16,
    decide,
    proof_check_thm12,
    proof_check_thm15,
    run_all_checks,
    screened_sign,
)

PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_thm12_examples():
    r = check_thm12(star(6))
    assert (r.verdict, r.family) == (EQUALITY, "K_{1,n-1}")
    assert r.certified and r.lhs_exact == "4"
    r = check_thm12(join(empty_graph(2), complete(4)))
    assert (r.verdict, r.family) == (EQUALITY, "(2K_1)∇K_{n-2}")
    assert check_thm12(cycle(5)).verdict == STRICT
    assert check_thm12(path(3)).verdict == NOT_APPLICABLE


def test_thm12_witness_is_edge_preserving():
    g = relabel(star(6), [3, 0, 5, 1, 4, 2])
    r = check_thm12(g)
    assert r.verdict == EQUALITY and r.certificate is not None
    w = r.certificate.witness
    for u, v in g.edges():
        assert star(6).has_edge(w[u], w[v])
    assert sorted(w) == list(range(6))


def test_thm13_examples():
    assert (check_thm13(cycle(4)).verdict, check_thm13(cycle(4)).family) == (EQUALITY, "C_4")
    assert (check_thm13(complete(2)).verdict, check_thm13(complete(2)).family) == (EQUALITY, "K_2")
    assert check_thm13(path(4)).family == "P_4"
    assert check_thm13(path(5)).verdict == STRICT
    assert check_thm13(disjoint_union(complete(2), empty_graph(1))).verdict == NOT_APPLICABLE


def test_problem12_examples():
    assert check_problem12(complete_bipartite(3, 3)).verdict == EQUALITY
    assert check_problem12(cycle(6)).verdict == EQUALITY
    assert check_problem12(complete(6)).verdict == STRICT
    assert check_problem12(cycle(5)).verdict == NOT_APPLICABLE


def test_thm14_examples():
    g = join(disjoint_union(complete(2), complete(2)), empty_graph(3))
    r = check_thm14(g)
    assert (r.verdict, r.family) == (EQUALITY, "(2K_2)∇(3K_1)")
    # the split behind the equality: q_2 = 5 and complement q_2 = 4 at n = 7
    assert abs(q_spectrum(g).value(2) - 5) < 1e-9
    assert abs(q_spectrum(complement(g)).value(2) - 4) < 1e-9

    g = join(disjoint_union(complete(2), complete(3)), empty_graph(1))
    assert (check_thm14(g).verdict, check_thm14(g).family) == (EQUALITY, "(K_2∪K_{n-3})∇K_1")

    g = join(empty_graph(1), disjoint_union(complete(4), empty_graph(1)))
    assert check_thm14(g).verdict == STRICT
    assert check_thm14(cycle(6)).verdict == NOT_APPLICABLE  # complement of C_6 is connected


def test_thm15_examples():
    r = check_thm15(complete_bipartite(3, 3))
    assert (r.verdict, r.family) == (EQUALITY, "K_{3,3}")
    assert check_thm15(h_graph(3, 0, 1)).verdict == STRICT
    # P_6 sits in the frozen equality catalogue: q_2(P_6) = 3 and the
    # complement has q_2 = 4, certified exactly (Q(P_6) spectrum is
    # {2+sqrt3, 3, 2, 1, 2-sqrt3, 0}).
    r = check_thm15(path(6))
    assert r.verdict == EQUALITY and r.family is not None
    assert check_thm15(complete(6)).verdict == NOT_APPLICABLE
    assert check_thm15(path(5)).verdict == NOT_APPLICABLE


def test_thm15_catalogue_frozen():
    cat = bipartite_equality_catalogue()
    assert len(cat) == 9
    assert len(set(cat)) == 9


def test_thm16_examples():
    assert check_thm16(complete_bipartite(3, 3)).verdict == EQUALITY  # q_2 = 3 = n-3
    assert check_thm16(cycle(6)).verdict == EQUALITY
    assert check_thm16(complete(6)).verdict == NOT_APPLICABLE  # q_2 = 4 > 3


def test_regular_bound_examples():
    r = check_regular_bound(cycle(6))
    assert r.verdict == STRICT
    assert r.rhs == pytest.approx(4 + math.sqrt(14.4), abs=1e-12)
    assert r.lhs == pytest.approx(7, abs=1e-9)
    assert check_regular_bound(PETERSEN).verdict == STRICT
    assert check_regular_bound(complete(6)).verdict == NOT_APPLICABLE
    assert check_regular_bound(path(4)).verdict == NOT_APPLICABLE


def test_lemma26_examples():
    assert check_lemma26(cycle(5)).verdict == EQUALITY  # regular
    assert check_lemma26(complete_bipartite(2, 5)).verdict == EQUALITY  # semiregular
    assert check_lemma26(path(4)).verdict == STRICT
    assert check_lemma26(disjoint_union(complete(2), complete(2))).verdict == NOT_APPLICABLE


def test_lemma27_examples():
    assert check_lemma27(path(4), (0, 3)).verdict == STRICT
    assert check_lemma27(path(4), (0, 1)).verdict == NOT_APPLICABLE  # already an edge
    assert check_lemma27(disjoint_union(complete(2), complete(2)), (0, 2)).verdict == NOT_APPLICABLE


def test_lemma28_examples():
    g = complement(disjoint_union(complete(2), empty_graph(4)))
    r = check_lemma28(g)
    assert r.verdict == EQUALITY and r.lhs_exact == "4"
    # C_5 is self-complementary and not bipartite: strict
    assert check_lemma28(cycle(5)).verdict == STRICT
    # K_n itself attains equality: the complement nK_1 has n bipartite components
    assert check_lemma28(complete(5)).verdict == EQUALITY


def test_lemma29_examples():
    r = check_lemma29(disjoint_union(complete(5), empty_graph(1)))
    assert r.verdict == EQUALITY and str(r.rhs) == "3"
    g = disjoint_union(complete(2), empty_graph(4))
    assert check_lemma29(g).verdict == EQUALITY  # q_2 = 0 = d_2 - 1
    assert check_lemma29(star(5)).verdict == STRICT


def test_lemma210_examples():
    r = check_lemma210(complete(6))
    assert r.verdict == STRICT and r.rhs == F(5, 2)
    assert q_spectrum(complete(6)).value(6) == pytest.approx(4, abs=1e-9)
    assert check_lemma210(path(5)).verdict == NOT_APPLICABLE


def test_ng_q1_examples():
    r = check_ng_q1(star(7))
    assert (r.verdict, r.family) == (EQUALITY, "K_{1,n-1}")
    r = check_ng_q1(disjoint_union(complete(6), empty_graph(1)))
    assert (r.verdict, r.family) == (EQUALITY, "complement-of-K_{1,n-1}")
    assert check_ng_q1(cycle(6)).verdict == STRICT


def test_ng_generic():
    assert check_ng_generic(cycle(5), "A", 2).verdict == STRICT
    assert check_ng_generic(cycle(5), "L", 1).verdict in (STRICT, EQUALITY)
    assert check_ng_generic(star(5), "Q", 1).verdict == EQUALITY
    assert check_ng_generic(cycle(5), "Q", 3).verdict == NOT_APPLICABLE


def test_ng_a2_square_radicand_equality():
    # n = 8: the bound -1 + sqrt(n^2/2 - n + 1) is -1 + sqrt(25) = 4
    r = check_ng_generic(from_graph6("GKXc{w"), "A", 2)
    assert (r.bound, r.verdict) == ("ng-A2", EQUALITY)
    assert r.certified and r.lhs_exact == "4" and r.rhs == 4.0


def test_screened_sign_trusts_only_listed_signs():
    def exact():
        calls.append(1)
        return 0

    calls = []
    assert screened_sign(5.0, 1.0, exact) == (1, False)
    assert screened_sign(-5.0, 1.0, exact, (-1,)) == (-1, False)
    assert not calls
    assert screened_sign(5.0, 1.0, exact, (-1,)) == (0, True)
    assert screened_sign(1.0 + 1e-7, 1.0, exact) == (0, True)
    assert len(calls) == 2


def test_decide_relation_is_data():
    def hit():
        return 0

    g = cycle(5)
    assert decide(g, "b", 4.0, F(4), hit, "<=").verdict == EQUALITY
    assert decide(g, "b", 4.0, F(4), hit, ">=").lhs_exact == "4"
    strict = decide(g, "b", 4.0, 4.0, hit, "<")
    assert (strict.verdict, strict.certified, strict.lhs_exact) == (VIOLATED, True, None)
    assert decide(g, "b", 4.0, F(4), hit, ">", violated="GROWTH").notes == "GROWTH"
    below = decide(g, "b", 1.0, F(4), lambda: -1, "<=")
    assert (below.verdict, below.certified) == (STRICT, False)
    # an equality characterization: no float shortcut while it holds, and it must match
    assert decide(g, "b", 1.0, F(4), lambda: -1, "<=", structure=True).verdict == VIOLATED
    assert decide(g, "b", 4.0, F(4), hit, "<=", structure=False).verdict == VIOLATED
    assert decide(g, "b", 4.0, F(4), hit, "<=", structure=True).verdict == EQUALITY
    # a certified equality outside the given families is flagged
    other = decide(g, "b", 4.0, F(4), hit, "<=", families=(("K_5", complete(5)),))
    assert other.family is None and other.notes == "EQUALITY OUTSIDE KNOWN EXTREMAL FAMILIES"
    same = decide(g, "b", 4.0, F(4), hit, "<=", families=(("C_5", cycle(5)),))
    assert same.family == "C_5" and same.certificate.witness


def test_run_all_checks():
    reports = run_all_checks(cycle(6))
    assert {r.bound for r in reports} >= {"thm-1.2", "thm-1.3", "problem-1.2", "regular-bound", "lemma-2.8"}
    assert all(r.verdict != "violated" for r in reports)


def test_report_serialization():
    d = check_thm13(cycle(4)).to_dict()
    assert d["verdict"] == EQUALITY and d["family"] == "C_4"
    assert d["witness"] is not None and d["rhs"] == "4"


def test_reports_encode_graph6_only_when_read(monkeypatch):
    """A report keeps its graph; a scan, which reads only verdicts, encodes none."""
    calls = []
    encode = theorems.to_graph6
    monkeypatch.setattr(theorems, "to_graph6", lambda g: calls.append(g) or encode(g))
    assert scan(7, "all", check_thm12).total == 1044
    assert calls == []
    report = check_thm12(cycle(6))
    assert report.graph6 == to_graph6(cycle(6))
    assert calls == [cycle(6)]


def test_proof_check_thm12_spot_values():
    # f(2) = 13 - 2n = -1 at n = 7; g(2) = -(n-5)^2 + 5 = -4 at n = 8
    assert proof_check_thm12(7, 3)
    assert proof_check_thm12(8, 4)
    # closed form at n=6, d2=2 equals the smaller root of [[4, 4], [1, 3]]
    p = char_poly_exact([[F(4), F(4)], [F(1), F(3)]]).as_poly()
    disc = 6 * 6 - (4 * 2 - 2) * 6 + 4 * 4 + 4 * 2 - 7
    lam2 = (6 + 2 * 2 - 3 - math.sqrt(disc)) / 2
    from qng.polys import poly_eval

    assert abs(poly_eval(p, F(int(lam2 * 10**9), 10**9))) < 1e-6
    assert proof_check_thm12(6, 2)
    with pytest.raises(ValueError):
        proof_check_thm12(4, 4)
    with pytest.raises(ValueError):
        proof_check_thm12(3, 1)


def test_proof_check_thm15_spot_values():
    # n = 9: beta_2 = (7 + sqrt 29)/2 matches the float q_2 of the hub graph
    beta = (9 - 2 + math.sqrt(9 * 9 - 8 * 9 + 20)) / 2
    assert beta == pytest.approx((7 + math.sqrt(29)) / 2)
    assert q_spectrum(h_graph(5, 1, 1)).value(2) == pytest.approx(beta, abs=1e-8)
    # n = 9: f(n-3) = -(n-5)(n-6) = -12
    assert -(9 - 5) * (9 - 6) == -12
    # n = 10: the complement quartic at 2n-6 = 14 evaluates to -4*7*6 = -168
    from qng.polys import poly_eval
    from qng.theorems import _poly_in_n

    quartic = _poly_in_n(10, [[24, -14, 2], [-48, 35, -6], [-10, -3, 2], [6, -3], [1]])
    assert poly_eval(quartic, F(14)) == -168
    assert proof_check_thm15(9) and proof_check_thm15(10)
    with pytest.raises(ValueError):
        proof_check_thm15(7)


def test_regular_extremal_prism():
    prism = cartesian_product(complete(3), complete(2))
    assert check_problem12(prism).verdict == EQUALITY


def test_exact_verdicts_are_certified(graphs_by_order):
    # floats only screen: every equality or violation is decided exactly
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            for r in run_all_checks(g):
                if r.verdict in (EQUALITY, VIOLATED):
                    assert r.certified, (r.graph6, r.bound, r.verdict)
