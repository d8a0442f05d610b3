"""Bound predicates, extremal certificates and the parametric proof checks."""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import pickle
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from qng.graph import (
    MAX_VERTICES,
    BlowUp,
    CapacityError,
    complement,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    double_hub,
    empty_graph,
    from_edges,
    from_graph6,
    h_graph,
    is_connected,
    join,
    path,
    star,
    to_graph6,
)
from qng import polys, spectra, theorems
from qng.cli import _resolve_check, build_predicate
from qng.enumeration import FILTERS, _relabeled as relabel, canonical_form, scan
from qng.partitions import equitable_quotient
from qng.spectra import char_poly_exact, ng_sum, spectrum
from qng.theorems import (
    EQUALITY,
    NG_BOUNDS,
    NOT_APPLICABLE,
    Row,
    STRICT,
    THEOREM_CHECKS,
    VIOLATED,
    _ng_a2_radicand,
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
)
from conftest import surd_sign, twin_classes

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
    assert r.verdict == EQUALITY and r.witness is not None
    w = r.witness
    for u, v in g.edges():
        assert star(6).has_edge(w[u], w[v])
    assert sorted(w) == list(range(6))


@pytest.mark.parametrize("n", [11, 20, 32])
def test_extremal_families_match_past_order_10(n, rng=random.Random(20)):
    """Each extremal family named at n has its equality matched to it, with a verified witness
    onto the family's graph."""
    for check, families in ((check_thm12, theorems._LOWER_BOUND_FAMILIES),
                            (check_ng_q1, theorems._STAR_FAMILIES),
                            (check_thm14, theorems._COBAR_DISCONNECTED_FAMILIES)):
        for name, family in families:
            family = family.at(n)
            if family is None:
                continue
            member = family.graph()
            g = relabel(member, rng.sample(range(n), n))
            r = check(g)
            assert (r.verdict, r.family, r.notes) == (EQUALITY, name, ""), name
            assert sorted(r.witness) == list(range(n))
            assert all(member.has_edge(r.witness[u], r.witness[v]) for u, v in g.edges()), name


#: Each catalogue of extremal families, and the least order its row checks, from which the
#: families it names at an order are pairwise non-isomorphic.
CATALOGUES = {"lower": (theorems._LOWER_BOUND_FAMILIES, 4), "upper": (theorems._UPPER_BOUND_FAMILIES, 2),
              "cobar-disconnected": (theorems._COBAR_DISCONNECTED_FAMILIES, 4),
              "star": (theorems._STAR_FAMILIES, 2), "bipartite": (theorems._BIPARTITE_EQUALITY_FAMILIES, 2)}


@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
def test_every_family_is_matched_to_itself_at_every_order(catalogue, rng=random.Random(28)):
    """At every order up to 32, the families a catalogue names there (``BlowUp.at``) are
    pairwise non-isomorphic, and a relabelled graph of each is matched to that family by
    ``_match_family`` with a verified witness: a bijection onto the family's graph that
    maps edges onto edges."""
    families, least = CATALOGUES[catalogue]
    orders = {}
    for n in range(least, MAX_VERTICES + 1):
        named = [(name, at) for name, b in families if (at := b.at(n)) is not None]
        orders[n] = len(named)
        assert len({canonical_form(b.graph()) for _, b in named}) == len(named), n
        for name, b in named:
            member = b.graph()
            g = relabel(member, rng.sample(range(n), n))
            got, witness = theorems._match_family(g, named)
            assert got == name and sorted(witness) == list(range(n)), (n, name)
            assert all(member.has_edge(witness[u], witness[v]) for u, v in g.edges()), (n, name)
    named_at = {n for n, count in orders.items() if count}
    assert named_at == {"upper": {2, 4}, "bipartite": {6}}.get(catalogue, set(orders)), catalogue


#: The orders in 1..40 where ``BlowUp.at`` names each family of each catalogue and each of
#: Theorem 1.5's blow-ups: every order from an int on, or the orders of a set.
NAMED_AT = {
    "lower": {"K_n": 1, "nK_1": 1, "K_{1,n-1}": 2, "K_{n-1}∪K_1": 2, "(2K_1)∇K_{n-2}": 3, "K_2∪(n-2)K_1": 3},
    "upper": {"K_2": {2}, "P_4": {4}, "C_4": {4}},
    "cobar-disconnected": {"(K_2∪K_{n-3})∇K_1": 4, "(2K_2)∇(3K_1)": {7}, "K_{3,3}": {6},
                           "(K_1∪K_2)∇(K_1∪K_2)": {6}},
    "star": {"K_{1,n-1}": 2, "complement-of-K_{1,n-1}": 2},
    "bipartite": {name: {6} for name, _ in theorems._BIPARTITE_EQUALITY_FAMILIES},
    "thm15": {"(n-5,1,2)": 6, "(n-4,1,1)": 5, "complement (n-4,1,1)": 5, "(n-4,0,2)": 5, "(n-3,0,1)": 4,
              "complement (n-3,0,1)": 4},
}


def test_every_catalogue_is_listed_at_every_order():
    """Every catalogue, and Theorem 1.5's blow-ups, is listed through ``BlowUp.at`` at every n
    in 1..40 without raising, below its least order too: a family named at n has nonempty
    ``int`` cells summing to n, and each is named at the orders ``NAMED_AT`` pins."""
    catalogues = {name: families for name, (families, _) in CATALOGUES.items()}
    catalogues["thm15"] = tuple(theorems._THM15_BLOW_UPS.items())
    assert len(theorems._BIPARTITE_EQUALITY_FAMILIES) == 9
    for catalogue, families in catalogues.items():
        named = {name: set() for name, _ in families}
        for n in range(1, 41):
            for name, b in families:
                at = b.at(n)
                if at is not None:
                    assert all(isinstance(size, int) and size > 0 for size in at.sizes), (catalogue, name, n)
                    assert (sum(at.sizes), at.cliques, at.joins) == (n, b.cliques, b.joins), (catalogue, name, n)
                    named[name].add(n)
        assert named == {name: set(range(orders, 41)) if isinstance(orders, int) else orders
                         for name, orders in NAMED_AT[catalogue].items()}, catalogue


def test_bipartite_catalogue_names_k33_by_its_edge_count():
    """The order-6 catalogue's nine graphs are named in file order, K_{3,3} by its 9 edges, the most
    a bipartite graph of order 6 has; the graph so named is the catalogue's one copy of K_{3,3}."""
    names = [name for name, _ in theorems._BIPARTITE_EQUALITY_FAMILIES]
    assert names == [*(f"bipartite-extremal-n6#{i}" for i in range(1, 7)), "K_{3,3}",
                     "bipartite-extremal-n6#8", "bipartite-extremal-n6#9"]
    k33 = canonical_form(complete_bipartite(3, 3))
    assert ([canonical_form(b.graph()) == k33 for _, b in theorems._BIPARTITE_EQUALITY_FAMILIES]
            == [name == "K_{3,3}" for name in names])


def _quotient_at(rows, n: int) -> tuple:
    """The ``int`` matrix that rows over Z[n] (``int`` or ``polys.MPoly`` entries) are at n, by ``MPoly.at``."""
    return tuple(tuple(e if isinstance(e, int) else e.at(n) for e in row) for row in rows)


@pytest.mark.parametrize("families", [theorems._LOWER_BOUND_FAMILIES, theorems._STAR_FAMILIES,
                                      theorems._COBAR_DISCONNECTED_FAMILIES,
                                      tuple(theorems._THM15_BLOW_UPS.items())],
                         ids=["lower", "star", "cobar-disconnected", "thm15"])
def test_affine_family_quotients_over_z_n_are_their_integer_quotients(families):
    """A family whose sizes are affine in n, built at the symbolic n, has a quotient over Z[n]
    that is at n = 8, 20 and 40 the ``int`` quotient of the family at that n (``BlowUp.at``).
    At 40 the family has no graph, so it is named past 32 vertices."""
    affine = [(name, b) for name, b in families if not all(isinstance(size, int) for size in b.sizes)]
    assert affine
    for n in (8, 20, 40):
        for name, b in affine:
            at_n = b.at(n)
            assert sum(at_n.sizes) == n, (n, name)
            assert _quotient_at(b.quotient(), n) == at_n.quotient(), (n, name)
            if n > MAX_VERTICES:
                with pytest.raises(CapacityError):
                    at_n.graph()


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
    assert abs(spectrum(g, "Q").value(2) - 5) < 1e-9
    assert abs(spectrum(complement(g), "Q").value(2) - 4) < 1e-9

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


def test_order6_catalogue_is_read_once(monkeypatch):
    """The order-6 bipartite catalogue is read, and K_{3,3} named in it, once per process, at
    import: no equality matched against it reads it again."""
    reads, read = [], theorems.bipartite_equality_catalogue
    monkeypatch.setattr(theorems, "bipartite_equality_catalogue", lambda: reads.append(1) or read())
    families = [check_thm15(g).family for g in (complete_bipartite(3, 3), path(6), cycle(6), complete_bipartite(3, 3))]
    assert families[0] == families[3] == "K_{3,3}" and families[2] == "bipartite-extremal-n6#6"
    assert families[1].startswith("bipartite-extremal-n6#") and reads == []


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


def test_lemma26_bound_is_the_largest_degree_ratio(graphs_by_order):
    """The cross-multiplied maximum equals the maximum of the per-vertex fractions."""
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            if g.m and is_connected(g):
                want = max(F(g.degree(u) ** 2 + sum(map(g.degree, g.neighbors(u))), g.degree(u)) for u in range(n))
                assert theorems._degree_ratio(g) == want, to_graph6(g)


def test_lemma27_examples():
    assert check_lemma27(path(4), (0, 3)).verdict == STRICT
    assert check_lemma27(path(4), (0, 1)).verdict == NOT_APPLICABLE  # already an edge
    assert check_lemma27(disjoint_union(complete(2), complete(2)), (0, 2)).verdict == NOT_APPLICABLE
    for edge in ((0, 7), (-1, 2)):  # no vertex of P4: an error, not a wrapped index
        with pytest.raises(ValueError, match="outside 0..3"):
            check_lemma27(path(4), edge)


def test_lemma28_structure_builds_no_complement(monkeypatch):
    """Lemma 2.8's equality structure reads the complement's adjacency rows: ``theorems``
    cannot build a complement graph, an order-7 scan builds none in ``spectra`` either, and
    the scan keeps its counts."""
    calls = []
    assert not hasattr(theorems, "complement")
    monkeypatch.setattr(spectra, "complement", lambda g: calls.append(g) or complement(g))
    result = scan(7, "all", check_lemma28)
    assert (result.total, result.counts) == (1044, {EQUALITY: 88, STRICT: 956})
    assert calls == []


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
    assert spectrum(complete(6), "Q").value(6) == pytest.approx(4, abs=1e-9)
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


def test_ng_a2_irrational_equality_on_p4():
    # n = 4: lambda_2 of P4 and of its complement P4 is (sqrt(5) - 1)/2, so the sum is -1 + sqrt(5)
    r = check_ng_generic(path(4), "A", 2)
    assert (r.bound, r.verdict, r.certified, r.lhs_exact) == ("ng-A2", EQUALITY, True, "-1+sqrt(5)")
    assert r.rhs == -1.0 + math.sqrt(5)


def test_exact_hit_on_a_strict_radical_row_is_a_certified_violation():
    row = Row("ng-A2-strict", "ng-A2-strict", "<", (0, -1), _ng_a2_radicand, kind="A")
    r = row(path(4))
    assert (r.verdict, r.certified, r.notes) == (VIOLATED, True, "STRICT BOUND VIOLATED (exactly confirmed)")
    assert row(cycle(5)).verdict == STRICT


@pytest.mark.parametrize("kind, rhs, rad", [
    pytest.param("A", (0, 1), None, id="lambda2-of-A"),  # on P4 lambda_2(A) = 0.618 was read as q_2 = 2
    pytest.param("Q", (0, F(3, 2)), lambda g: F(5, 4), id="radical"),  # q_2(C5) = 3/2 + sqrt(5/4) crashed
])
def test_single_eigenvalue_rows_are_q_against_a_rational(kind, rhs, rad):
    with pytest.raises(ValueError, match="bounded on Q by a rational"):
        Row("x", "x", "<=", rhs, rad, kind=kind, sum=False)


@pytest.mark.parametrize("check, g, rhs, note", [
    pytest.param(check_thm12, path(3), F(1), "requires n >= 4", id="thm-1.2-P3"),
    pytest.param(check_thm13, empty_graph(3), F(2), "requires a connected graph", id="thm-1.3-3K1"),
    pytest.param(check_problem12, path(5), F(5), "requires n >= 6", id="problem-1.2-P5"),
    pytest.param(check_thm14, cycle(6), F(7), "requires a disconnected complement", id="thm-1.4-C6"),
    pytest.param(check_thm14, empty_graph(6), F(7), "requires a connected graph", id="thm-1.4-6K1"),
    pytest.param(check_thm15, path(5), F(5), "requires n >= 6", id="thm-1.5-P5"),
    pytest.param(check_thm15, complete(6), F(7), "requires a bipartite graph", id="thm-1.5-K6"),
    pytest.param(check_thm16, complete(6), F(7), "hypothesis q_2 <= n - 3 fails", id="thm-1.6-K6"),
    pytest.param(check_regular_bound, complete(1), None, "requires a non-complete graph", id="regular-K1"),
    pytest.param(check_regular_bound, path(4), None, "requires a regular graph", id="regular-P4"),
    pytest.param(check_regular_bound, empty_graph(4), None, "requires a connected graph", id="regular-4K1"),
    pytest.param(check_ng_q1, complete(1), F(-1), "requires n >= 2", id="q1-sum-K1"),
    pytest.param(lambda g: check_ng_generic(g, "A", 2), complete(1), None, "k=2 outside 1..1", id="ng-A2-K1"),
    pytest.param(check_lemma26, complete(1), None, "requires a connected graph with an edge", id="lemma-2.6-K1"),
    pytest.param(check_lemma26, empty_graph(3), None, "requires a connected graph with an edge", id="lemma-2.6-3K1"),
    pytest.param(check_lemma28, complete(1), F(-1), "requires n >= 2", id="lemma-2.8-K1"),
    pytest.param(check_lemma29, complete(1), None, "requires n >= 2", id="lemma-2.9-K1"),
    pytest.param(check_lemma210, path(5), None, "requires n >= 6", id="lemma-2.10-P5"),
])
def test_not_applicable_reports(check, g, rhs, note):
    """A failed hypothesis names itself; the rhs is a bound of n alone, or None for one with a
    radical or one that depends on the graph."""
    r = check(g)
    assert (r.verdict, r.lhs, r.certified, r.notes) == (NOT_APPLICABLE, None, False, note)
    assert r.rhs == rhs and type(r.rhs) is type(rhs)


def test_unregistered_ng_sum_reports_its_value():
    r = check_ng_generic(cycle(5), "Q", 3)
    assert (r.bound, r.verdict, r.rhs, r.notes) == ("ng-Q3", NOT_APPLICABLE, None, "no registered bound for this kind/k")
    assert r.lhs == pytest.approx(5.236067977499788)


def test_checks_keep_their_names_and_pickle(monkeypatch):
    """Scans print a check's __name__ and tracers look it up by that name; rows travel to pool workers."""
    rows = [*THEOREM_CHECKS.values(), check_ng_q1, *theorems.NG_BOUNDS.values()]
    for check in THEOREM_CHECKS.values():
        assert getattr(theorems, check.__name__) is check
    assert theorems.check_ng_q1.__name__ == "check_ng_q1"
    assert theorems.check_ng_generic.__name__ == "check_ng_generic"
    assert all(hasattr(check, "verdicts") for check in THEOREM_CHECKS.values())
    for row in rows:
        copy = pickle.loads(pickle.dumps(row))
        if isinstance(row, Row):
            assert copy == row and copy.__name__ == row.__name__
            assert copy(cycle(6)) == row(cycle(6))
    ng = pickle.loads(pickle.dumps(theorems.ng_check("A", 2)))
    assert ng.__name__ == "ng-A2" and ng(cycle(5)) == check_ng_generic(cycle(5), "A", 2)
    # a registered (kind, k) scans as its row, renamed; any other pair as a row with no bound
    assert ng == replace(theorems.NG_BOUNDS["A", 2], name="ng-A2") and ng.verdicts
    other = pickle.loads(pickle.dumps(theorems.ng_check("Q", 2)))
    assert other.__name__ == "ng-Q2" and isinstance(other, Row) and other.relation is None
    assert other(cycle(5)) == check_ng_generic(cycle(5), "Q", 2)
    for name in ("connected", "cobar-disconnected", "bipartite", "regular"):
        assert theorems.HYPOTHESES[name][0] is FILTERS[name]
    # a row wrapped like a function and put in its place still pickles by reference
    wrapped = functools.wraps(check_thm12)(lambda g: check_thm12(g))
    monkeypatch.setattr(theorems, "check_thm12", wrapped)
    assert pickle.loads(pickle.dumps(wrapped)) is wrapped


def test_rows_assume_the_hypotheses_their_scan_filter_established(graphs_by_order):
    """A row told the scan filter's names skips those hypotheses, keeps its
    name and pickles; on graphs that pass the filter its reports are unchanged."""
    row = check_thm14.assuming(["connected", "regular"])
    assert (row.requires, row.__name__) == (("cobar-disconnected",), "check_thm14")
    assert pickle.loads(pickle.dumps(row)) == row
    assert check_thm12.assuming(["connected"]) is check_thm12
    assert check_problem12.assuming(["all"]) is check_problem12
    connected = [g for g in graphs_by_order[6] + graphs_by_order[7] if FILTERS["connected"](g)]
    for check in (check_thm13, check_thm14, check_thm15, check_problem12, check_regular_bound):
        assumed = check.assuming(["connected"])
        assert "connected" not in assumed.requires
        assert [assumed(g) for g in connected] == [check(g) for g in connected]


def test_decide_calls_exact_arithmetic_only_where_the_float_may_not_decide():
    """The float decides a sign that satisfies the relation beyond the window; a sign
    that breaks it, or one within the window, is decided exactly and certified."""
    def exact():
        calls.append(1)
        return 0

    calls, g = [], cycle(5)
    assert [(r.verdict, r.certified) for r in (decide(g, "b", 5.0, F(1), exact, ">="),
                                               decide(g, "b", -5.0, F(1), exact, "<="))] == [(STRICT, False)] * 2
    assert not calls
    for r in (decide(g, "b", 5.0, F(1), exact, "<="), decide(g, "b", 1.0 + 1e-7, F(1), exact, ">=")):
        assert (r.verdict, r.certified) == (EQUALITY, True)
    assert len(calls) == 2


def test_hypothesis_row_trusts_the_float_on_both_sides(monkeypatch):
    """The ``q2<=n-3`` hypothesis: its float decides either sign beyond the window
    (K6, q_2 = 4; the star, q_2 = 1), and only a q_2 within the window of n - 3 is
    compared exactly (K3,3, q_2 = 3)."""
    calls = []
    compare = theorems.compare_qk_with
    monkeypatch.setattr(theorems, "compare_qk_with", lambda *args: calls.append(args[0]) or compare(*args))
    test, note = theorems.HYPOTHESES["q2<=n-3"]
    assert (test(complete(6)), test(star(6)), calls) == (False, True, [])
    assert test(complete_bipartite(3, 3)) and calls == [complete_bipartite(3, 3)]
    assert check_thm16(complete(6)).notes == note == "hypothesis q_2 <= n - 3 fails"


def test_hypothesis_row_builds_no_report(monkeypatch):
    """The ``q2<=n-3`` test returns a sign's verdict and builds no ``BoundReport``, on
    either float-decided side (K6, the star) or after an exact comparison (K3,3)."""
    built = []
    report = theorems.BoundReport
    monkeypatch.setattr(theorems, "BoundReport", lambda *args, **kwargs: built.append(args) or report(*args, **kwargs))
    test, _ = theorems.HYPOTHESES["q2<=n-3"]
    assert [test(g) for g in (complete(6), star(6), complete_bipartite(3, 3))] == [False, True, True]
    assert built == []
    assert check_thm16(complete(6)).verdict == NOT_APPLICABLE and len(built) == 1


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
    other = decide(g, "b", 4.0, F(4), hit, "<=", families=(("K_5", BlowUp((5,), (True,))),))
    assert other.family is None and other.notes == "EQUALITY OUTSIDE KNOWN EXTREMAL FAMILIES"
    c5 = theorems._on_vertices(5, cycle(5).edges())
    same = decide(g, "b", 4.0, F(4), hit, "<=", families=(("C_5", c5),))
    assert same.family == "C_5" and same.witness


def test_decide_flags_an_equality_only_where_a_family_is_named():
    """``decide`` keeps the families named at g's order (``BlowUp.at``): given only families
    of other orders it matches none and leaves ``notes`` empty, as at an order where a row
    names no family; one named family at g's order is enough to flag."""
    g = cycle(5)
    elsewhere = (("K_4", BlowUp((4,), (True,))), ("C_4", theorems._on_vertices(4, cycle(4).edges())),
                 ("K_6", BlowUp((6,), (True,))))
    r = decide(g, "b", 4.0, F(4), lambda: 0, "<=", families=elsewhere)
    assert (r.verdict, r.family, r.witness, r.notes) == (EQUALITY, None, None, "")
    r = decide(g, "b", 4.0, F(4), lambda: 0, "<=", families=(*elsewhere, ("K_5", BlowUp((5,), (True,)))))
    assert (r.verdict, r.family, r.notes) == (EQUALITY, None, "EQUALITY OUTSIDE KNOWN EXTREMAL FAMILIES")


def test_run_all_checks():
    reports = run_all_checks(cycle(6))
    assert {r.bound for r in reports} >= {"thm-1.2", "thm-1.3", "problem-1.2", "regular-bound", "lemma-2.8"}
    assert all(r.verdict != "violated" for r in reports)


def test_run_all_checks_reads_one_chunk_of_its_graph(monkeypatch):
    """``run_all_checks`` runs the 12 checks on a chunk of K3,3 alone: the graph and its
    complement are screened once, in one eigvalsh call each, and the complement is built
    once.  The reports are those of the checks called one by one."""
    stacks, built = [], []
    eigvalsh, build = np.linalg.eigvalsh, spectra.complement
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(spectra, "complement", lambda g: built.append(g) or build(g))
    spectra.chunk_of.cache_clear()
    g = complete_bipartite(3, 3)
    reports = run_all_checks(g)
    assert (stacks, built) == ([(1, 6, 6), (1, 6, 6)], [g])
    assert reports == [check(g) for check in THEOREM_CHECKS.values()] + [theorems.check_ng_q1(g)]


def test_a_lone_graph_is_screened_once_per_kind_and_side(monkeypatch):
    """Outside a scan a graph is read off its kept chunk of one: ``spectrum``, ``ng_sum`` and
    two rows called on C7 screen C7 and its complement once each, in two eigvalsh calls."""
    stacks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape) or eigvalsh(a))
    spectra.chunk_of.cache_clear()
    g = cycle(7)
    spectrum(g, "Q"), ng_sum(g), check_thm12(g), theorems.check_ng_q1(g)
    assert stacks == [(1, 7, 7), (1, 7, 7)]


@pytest.mark.parametrize("g", [cycle(6), star(6), complete_bipartite(3, 3), path(4)], ids=["C6", "S6", "K33", "P4"])
def test_row_verdicts_of_a_lone_graph_match_its_report(g):
    """Every registered row hands one graph, outside any scan, the verdict it reports on it:
    ``verdicts`` reads the graph's kept chunk of one, as the call does."""
    spectra.chunk_of.cache_clear()
    for row in [*THEOREM_CHECKS.values(), theorems.check_ng_q1, *theorems.NG_BOUNDS.values()]:
        assert row.verdicts([g]) == [row(g).verdict], row.name


def test_verdicts_outside_their_chunk_raise_value_error():
    """``Row.verdicts`` and ``SumPredicate.verdicts`` read the screens of the current
    chunk; called outside ``spectra.in_chunk`` they raise a ValueError that says so,
    not a bare KeyError.  Inside a chunk of the same graphs they give the verdicts."""
    graphs = [cycle(6), star(6), complete_bipartite(3, 3)]
    for check in (check_thm12, theorems.check_lemma28, build_predicate("sum-open-interval 5 6", 6)):
        with pytest.raises(ValueError, match=r"must be members of the current chunk \(spectra\.in_chunk\)"):
            check.verdicts(graphs)
        with spectra.in_chunk(graphs):
            assert len(check.verdicts(graphs)) == 3


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
    p = char_poly_exact([[4, 4], [1, 3]])
    disc = 6 * 6 - (4 * 2 - 2) * 6 + 4 * 4 + 4 * 2 - 7
    lam2 = (6 + 2 * 2 - 3 - math.sqrt(disc)) / 2
    from qng.polys import poly_eval

    assert abs(poly_eval(p, F(int(lam2 * 10**9), 10**9))) < 1e-6
    assert proof_check_thm12(6, 2)
    with pytest.raises(ValueError):
        proof_check_thm12(4, 4)
    with pytest.raises(ValueError):
        proof_check_thm12(3, 1)


@pytest.fixture
def fresh_thm12_identities():
    """Theorem 1.2's identities proved anew in this test, and not reused by the next one,
    which must not see a result proved under this test's patches."""
    theorems._thm12_identities.cache_clear()
    yield
    theorems._thm12_identities.cache_clear()


def _two_by_two_char(entries, den=1) -> list:
    """den^2 det(xI - M) for the 2x2 integer matrix M = entries / den."""
    (a, b), (c, d) = entries
    return [a * d - b * c, -(a + d) * den, den * den]


def _reference_proof_check_thm12(n: int, d2: int) -> bool:
    """Theorem 1.2's proof check as it was before its identities were proved over
    Z[n, d2, s]: every identity evaluated at this (n, d2), the third quotient's at each s."""
    if n < 4 or not 1 <= d2 <= n - 2:
        raise ValueError(f"parameters out of range: n={n}, d2={d2}")
    c = theorems._Checks()
    disc = n * n - (4 * d2 - 2) * n + 4 * d2 * d2 + 4 * d2 - 7
    c.expect(disc >= 0, "discriminant nonnegative")

    b1 = ((n - 2, n - 2), (1, 2 * d2 - 1))
    c.expect(surd_sign(_two_by_two_char(b1), n + 2 * d2 - 3, -1, disc, 2) == 0,
             "lambda_2 closed form, first quotient")

    b2 = ((n - 2, n - 2), (1, 2 * n - 2 * d2 - 3))
    c.expect(surd_sign(_two_by_two_char(b2), 3 * n - 2 * d2 - 5, -1, disc, 2) == 0,
             "lambda_2 closed form, second quotient")

    f = [6 * n - 11, -(4 * n - 4), 4]
    c.expect(disc - (n - 2) ** 2 == polys.poly_eval(f, d2), "discriminant reduces to f(d2)")
    c.expect(polys.poly_eval(f, 2) == 13 - 2 * n, "f(2) evaluation")
    c.expect(polys.poly_eval(f, n - 3) == 13 - 2 * n, "f(n-3) evaluation")
    if n >= 7:
        c.expect(13 - 2 * n < 0, "f sign for n >= 7")

    gq = [n * n - 4 * n + 4, -(n * n - 5 * n + 4), n - 4]
    c.expect(polys.poly_eval(gq, 2) == -((n - 5) ** 2) + 5, "g(2) evaluation")
    c.expect(polys.poly_eval(gq, n - 3) == -((n - 5) ** 2) + 5, "g(n-3) evaluation")
    if n >= 8:
        c.expect(-((n - 5) ** 2) + 5 < 0, "g sign for n >= 8")

    for s in range(d2 - 1, n - 1):
        # the quotient ((n-2, n-2), (1, 2n - 2d2 - 5 + 2s/(n-2))), times n - 2
        b3 = (((n - 2) ** 2, (n - 2) ** 2), (n - 2, (2 * n - 2 * d2 - 5) * (n - 2) + 2 * s))
        numer = (3 * n - 7) * (n - 2) - (2 * n - 4) * d2 + 2 * s
        det = (n - 2) * (2 * n - 2 * d2 - 6) + 2 * s
        delta = numer * numer - 4 * (n - 2) ** 2 * det
        c.expect(delta >= 0, f"third discriminant nonnegative at s={s}")
        c.expect(surd_sign(_two_by_two_char(b3, n - 2), numer, -1, delta, 2 * (n - 2)) == 0,
                 f"lambda_2 closed form, third quotient at s={s}")
        xval = n * n - 5 * n + 2 * s + 6
        c.expect(xval == (n - 2) * (n - 3) + 2 * s, f"threshold identity at s={s}")
        quad = (n - 2) * d2 * d2 - xval * d2 + (n - 2) ** 2
        c.expect(delta - xval * xval == 4 * (n - 2) * quad, f"discriminant-threshold identity at s={s}")
        if s == d2 - 1:
            c.expect(quad == polys.poly_eval(gq, d2), "substitution s = d2 - 1 yields g(d2)")
    return not c


def test_proof_check_thm12_matches_its_per_s_reference(fresh_thm12_identities):
    """The identities proved once over Z[n, d2, s] and the signs checked per call give the
    verdict of the per-(n, d2, s) reference for every n = 4..50 and d2, and the same
    ``ValueError`` outside the range."""
    for n in range(4, 51):
        for d2 in range(1, n - 1):
            assert proof_check_thm12(n, d2) is _reference_proof_check_thm12(n, d2) is True, (n, d2)
    for n, d2 in ((3, 1), (4, 0), (4, 3), (10, 9), (10, -1), (0, 0)):
        for check in (proof_check_thm12, _reference_proof_check_thm12):
            with pytest.raises(ValueError, match=re.escape(f"parameters out of range: n={n}, d2={d2}")):
                check(n, d2)


def test_proof_check_thm12_costs_nothing_per_n(monkeypatch, fresh_thm12_identities):
    """The first call proves the identities and the sign facts; later calls, at any n, evaluate
    no surd and certify no sign: n = 10^6 checks only its range, as n = 6 does.  A sign is
    certified by one Taylor shift (``_shift``), and no root is counted (``_roots_above``); the three
    surds are the closed-form roots, and six more ``_value_surd`` calls are ``poly_eval``'s at ring points."""
    calls = Counter()
    for name in ("_value_surd", "_shift", "_roots_above"):
        def counted(*args, _exact=getattr(polys, name), _name=name):
            calls[_name] += 1
            return _exact(*args)
        monkeypatch.setattr(polys, name, counted)
    assert proof_check_thm12(6, 2)
    assert calls == Counter(_value_surd=3 + 6, _shift=4)
    for d2 in (1, 2, 500000, 999998):
        assert proof_check_thm12(10**6, d2)
    assert proof_check_thm12(50, 1)
    assert calls == Counter(_value_surd=3 + 6, _shift=4)


@pytest.mark.parametrize("only_third", [False, True])
def test_proof_check_thm12_root_tests_bite(monkeypatch, fresh_thm12_identities, only_third):
    """A closed-form root test fails once its 2x2 characteristic polynomial is off by one
    in the constant term: all three quotients, or the third (n - 2 times a quotient whose
    lower left entry is 1, so its own is n - 2) alone."""
    exact = polys.char_poly

    def perturbed(rows):
        p = exact(rows)
        return (p[0] + 1, *p[1:]) if rows[1][0] != 1 or not only_third else p

    monkeypatch.setattr(polys, "char_poly", perturbed)
    for n, d2 in ((6, 2), (8, 4), (20, 7)):
        assert not proof_check_thm12(n, d2)
    failed = {"lambda_2 closed form, third quotient"}
    if not only_third:
        failed |= {"lambda_2 closed form, first quotient", "lambda_2 closed form, second quotient"}
    assert set(theorems._thm12_identities()) == failed


def test_proof_check_thm12_builds_no_surd(monkeypatch, fresh_thm12_identities):
    """Theorem 1.2's root tests and sign facts run on polynomials alone: no ``Surd`` is built."""
    def refuse(self):
        raise AssertionError("a Surd was built")

    monkeypatch.setattr(polys.Surd, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a Surd was built"):
        polys.Surd(F(1), F(1), 2)
    assert proof_check_thm12(20, 7) and proof_check_thm12(50, 1)


def test_proof_check_thm12_kernel_calls(monkeypatch, fresh_thm12_identities):
    """The first call builds the three 2x2 char polys over Z[n, d2, s], evaluates the quadratics
    at ring points through the public ``polys.poly_eval``, tests the three closed-form roots and
    certifies the four signs by one Taylor shift each, whose constant coefficient is the value
    at n0, so with no evaluation there; later calls, at any (n, d2), call no kernel."""
    calls = Counter()

    def counted(name, kernel):
        def count(*args):
            calls[name] += 1
            return kernel(*args)
        return count

    kernels = {name: counted(name, getattr(polys, name))
               for name in ("char_poly", "poly_eval", "_value_surd", "_shift", "_roots_above")}
    monkeypatch.setattr(theorems, "polys", SimpleNamespace(**{**vars(polys), **kernels}))
    assert proof_check_thm12(9, 3)
    assert calls == Counter(char_poly=3, poly_eval=6, _value_surd=3, _shift=4)
    for n, d2 in ((4, 1), (50, 48), (10**6, 999998)):
        assert proof_check_thm12(n, d2)
    assert calls == Counter(char_poly=3, poly_eval=6, _value_surd=3, _shift=4)


@pytest.fixture
def fresh_thm15_identities():
    """Theorem 1.5's identities proved anew in this test, and not reused by the next one,
    which must not see a result proved under this test's patches."""
    theorems._thm15_identities.cache_clear()
    yield
    theorems._thm15_identities.cache_clear()


def _coefficients_at(n: int, rows: list[list[int]]) -> tuple:
    """The ascending coefficients, at this n, of a polynomial whose coefficients are given as
    rows of ascending integer coefficients in n: the per-n reference's own reading of the
    closed forms, shared with nothing it checks."""
    return tuple(sum(a * n ** i for i, a in enumerate(row)) for row in rows)


def _reference_proof_check_thm15(n: int) -> bool:
    """Theorem 1.5's proof check as it was before its identities were proved over Z[n]: the
    six quotients' char polys from ``char_poly_exact`` and every identity evaluated at this n."""
    if n < 8:
        raise ValueError("requires n >= 8")
    c = theorems._Checks()
    disc = n * n - 8 * n + 20
    beta2 = polys.Surd(F(n - 2, 2), F(1, 2), disc)

    def sign_at_beta2(p) -> int:
        return surd_sign(p, n - 2, 1, disc, 2)

    def blow_up_char_poly(b, label):
        quotient, g = b.quotient(), None
        if sum(b.sizes) <= MAX_VERTICES:
            g, cells = b.graph(), b.cells()
            c.expect(equitable_quotient(g, cells) == quotient, f"equitable cells {label}")
            classes = twin_classes(g.rows)
            c.expect(all(any(set(cell) <= set(members) for members in classes[clique])
                         for cell, clique in zip(cells, b.cliques) if len(cell) > 1), f"twin cells {label}")
        return char_poly_exact(quotient), g

    phi = blow_up_char_poly(double_hub(n - 5, 1, 2), "(n-5,1,2)")[0]
    quartic = _coefficients_at(n, [[0, -5, 1], [-2, 8, -2], [-4, -1, 1], [3, -2], [1]])
    c.expect(phi == tuple(polys.poly_mul([0, 1], quartic)), "char poly x*f (n-5,1,2)")
    c.expect(polys.poly_eval(quartic, n - 3) == -(n - 5) * (n - 6), "f(n-3) evaluation")
    c.expect(-(n - 5) * (n - 6) < 0, "f(n-3) negative")
    c.expect(-phi[4] == 2 * n - 3, "quotient trace (n-5,1,2)")
    c.expect(3 * (n - 3) > 2 * n - 3, "trace rules out three roots above n-3")

    hub2 = double_hub(n - 4, 1, 1)
    phi2, g2 = blow_up_char_poly(hub2, "(n-4,1,1)")
    phi3, g2c = blow_up_char_poly(hub2.complement(), "complement (n-4,1,1)")
    c.expect(sign_at_beta2(phi2) == 0, "beta_2 is a quotient eigenvalue")
    c.expect(polys.root_counter(phi2).counts_at(beta2)[0] == 1, "exactly one quotient eigenvalue above beta_2")
    c.expect(sign_at_beta2([-2, 1]) == 1, "beta_2 exceeds the replicated eigenvalue 2")
    if g2 is not None:
        c.expect(abs(spectrum(g2, "Q").value(2) - (n - 2 + math.sqrt(disc)) / 2) < 1e-8, "float q_2 matches beta_2")

    cubic = _coefficients_at(n, [[-56, 38, -6], [-12, -3, 2], [6, -3], [1]])
    f2 = _coefficients_at(n, [[-4, 1], [2, -1], [1]])
    c.expect(phi3 == tuple(polys.poly_mul(cubic, f2)), "complement char poly f_1*f_2")
    c.expect(sign_at_beta2(f2) == 0, "gamma_1' root formula")
    c.expect(surd_sign(f2, n - 2, -1, disc, 2) == 0, "gamma_2' root formula")
    c.expect(polys.poly_eval(cubic, 2 * n - 6) == -4 * n + 16, "f_1(2n-6) evaluation")
    c.expect(-4 * n + 16 < 0, "f_1(2n-6) negative")
    claim = [-2 * (n - 4) * (2 * n - 5), 4 * (n - 4), 0, 0]
    c.expect(sign_at_beta2([a - b for a, b in zip(cubic, claim)]) == 0, "f_1(gamma_1') closed form")
    c.expect(sign_at_beta2(cubic) == -1, "f_1(gamma_1') negative")
    c.expect(polys.root_counter(phi3).counts_at(beta2)[0] == 1, "exactly one complement quotient eigenvalue above gamma_1'")
    c.expect(sign_at_beta2([4 - n, 1]) == 1, "gamma_1' exceeds the replicated eigenvalue n-4")
    if g2c is not None:
        c.expect(abs(spectrum(g2c, "Q").value(2) - (n - 2 + math.sqrt(disc)) / 2) < 1e-8,
                 "float q_2 of complement matches gamma_1'")
    c.expect(sign_at_beta2([2 * n - 5, -2]) == 1, "equal second eigenvalues stay below 2n-5")

    phi4 = blow_up_char_poly(double_hub(n - 4, 0, 2), "(n-4,0,2)")[0]
    cubic4 = _coefficients_at(n, [[0, 4, -1], [-2, -2, 1], [3, -2], [1]])
    c.expect(phi4 == tuple(polys.poly_mul([0, 1], cubic4)), "char poly x*f (n-4,0,2)")
    c.expect(polys.poly_eval(cubic4, n - 3) == 6 - n, "f(n-3) evaluation, (n-4,0,2)")
    c.expect(6 - n <= 0, "f(n-3) nonpositive, (n-4,0,2)")
    c.expect(3 * (n - 3) >= 2 * n - 3, "trace argument, (n-4,0,2)")

    hub5 = double_hub(n - 3, 0, 1)
    phi5 = blow_up_char_poly(hub5, "(n-3,0,1)")[0]
    cubic5 = _coefficients_at(n, [[0, 3, -1], [-2, -1, 1], [2, -2], [1]])
    c.expect(phi5 == tuple(polys.poly_mul([0, 1], cubic5)), "char poly x*g (n-3,0,1)")
    c.expect(polys.poly_eval(cubic5, F(2 * n - 5, 2)) == F(-2 * n + 15, 8), "g(n-5/2) evaluation")
    c.expect(F(-2 * n + 15, 8) < 0, "g(n-5/2) negative")

    phi6 = blow_up_char_poly(hub5.complement(), "complement (n-3,0,1)")[0]
    quartic6 = _coefficients_at(n, [[24, -14, 2], [-48, 35, -6], [-10, -3, 2], [6, -3], [1]])
    c.expect(phi6 == quartic6, "complement char poly (n-3,0,1)")
    c.expect(polys.poly_eval(quartic6, 2 * n - 6) == -4 * (n - 3) * (n - 4), "phi(2n-6) evaluation")
    c.expect(-4 * (n - 3) * (n - 4) < 0, "phi(2n-6) negative")
    val = polys.poly_eval(quartic6, F(2 * n - 5, 2))
    c.expect(val == F(-(2 * n - 11) * (4 * n * n - 24 * n + 39), 16), "phi(n-5/2) evaluation")
    c.expect(val < 0, "phi(n-5/2) negative")
    return not c


def test_proof_check_thm15_matches_its_per_n_reference(fresh_thm15_identities):
    """The identities proved once over Z[n] and the checks made per call give the verdict of
    the per-n reference for every n = 8..200 and at n = 10^6, and the same ``ValueError``
    below n = 8.  The reference counts the roots above beta_2 at each n, so it is the per-n
    check of the two root counts that the identities prove once by Descartes' rule."""
    for n in [*range(8, 201), 10**6]:
        assert proof_check_thm15(n) is _reference_proof_check_thm15(n) is True, n
    for n in (7, 0, -3):
        for check in (proof_check_thm15, _reference_proof_check_thm15):
            with pytest.raises(ValueError, match=re.escape("requires n >= 8")):
                check(n)


def test_proof_check_thm15_builds_no_char_poly_per_n(monkeypatch, fresh_thm15_identities):
    """The first call builds the six char polys over Z[n], evaluates the identities and
    certifies the sign facts and the two root counts; no call uses ``char_poly_exact``, and
    later calls make no ``polys`` call and build no ``Surd`` or ``RootCounter``: n = 33, 10^6
    and 10^30 check only their range, and n = 9 and 32 call only ``_blow_up_identity``, once
    for each of the six blow-ups."""
    calls = Counter()

    def counted(name, exact):
        def count(*args):
            calls[name] += 1
            return exact(*args)
        return count

    assert not hasattr(theorems, "char_poly_exact")
    monkeypatch.setattr(spectra, "char_poly_exact", counted("char_poly_exact", spectra.char_poly_exact))
    kernels = {name: counted(name, kernel) for name, kernel in vars(polys).items() if inspect.isfunction(kernel)}
    monkeypatch.setattr(theorems, "polys", SimpleNamespace(**{**vars(polys), **kernels}))
    for cls, method in ((polys.Surd, "__post_init__"), (polys.RootCounter, "__init__")):
        monkeypatch.setattr(cls, method, counted(cls.__name__, getattr(cls, method)))
    for name in ("_sign_from", "_surd_sign_from", "_blow_up_identity"):
        monkeypatch.setattr(theorems, name, counted(name, getattr(theorems, name)))
    assert proof_check_thm15(8)
    # 8 sign facts in n, and 12 signs at beta_2: 4 sign facts, values there, and the 8 Taylor signs of
    # the two cubic cofactors of f_2, read off one shift of each to beta_2.  Their a, b and a^2 - b^2 d
    # take 30 signs, 4 of them of the ints a and b of the leading coefficients: 34 Taylor shifts in n, each
    # with its value at n0 as its constant coefficient.  3 surd values test roots, 2 are at (2n - 5) / 2
    first = Counter(char_poly=6, poly_mul=5, poly_eval=4, _value_surd=3 + 4 + 2, _shift=2 + 34, _sign=8 + 30,
                    _surd_sign=12, _sign_from=8 + 30, _surd_sign_from=12, _blow_up_identity=6)
    assert calls == first
    for n in (33, 10**6, 10**30):
        assert proof_check_thm15(n)
    assert calls == first
    for n in (9, 32):
        assert proof_check_thm15(n)
    assert calls == first + Counter(_blow_up_identity=12)


@pytest.mark.parametrize("n", [8, 32, 33])
def test_proof_check_thm15_quotient_off_by_one_bites(monkeypatch, fresh_thm15_identities, n):
    """A ``BlowUp.quotient`` off by one in its last diagonal entry fails the identities of
    every char poly with a closed form and the beta_2 root, though not the trace facts, which
    hold for the trace one higher too; while the blown-up graphs fit 32 vertices, the identity
    of each of the six graphs with that quotient fails too."""
    exact = BlowUp.quotient

    def perturbed(self):
        rows = [list(row) for row in exact(self)]
        rows[-1][-1] += 1
        return tuple(map(tuple, rows))

    failed = []
    expect = theorems._Checks.expect

    def record(self, condition, label):
        if not condition:
            failed.append(label)
        expect(self, condition, label)

    monkeypatch.setattr(BlowUp, "quotient", perturbed)
    monkeypatch.setattr(theorems._Checks, "expect", record)
    assert not proof_check_thm15(n)
    identities = {"char poly x*f (n-5,1,2)", "char poly x(x^2-nx+n)*f_2", "beta_2 is a quotient eigenvalue",
                  "complement char poly f_1*f_2", "char poly x*f (n-4,0,2)", "char poly x*g (n-3,0,1)",
                  "complement char poly (n-3,0,1)"}
    assert set(theorems._thm15_identities()) == identities
    graphs = {label for label in failed if label.startswith("Q(G)T = T Lambda ")}
    assert graphs == ({f"Q(G)T = T Lambda {label}" for label in theorems._THM15_BLOW_UPS} if n <= MAX_VERTICES
                      else set())


def test_thm15_quotients_over_z_n_are_the_integer_quotients():
    """The quotients that the identities are proved on, those of the six blow-ups at the
    symbolic n, are at n the ``int`` quotients of the six blow-ups at n (``BlowUp.at``), which
    are the double hubs and complements built at n."""
    quotients = {label: b.quotient() for label, b in theorems._THM15_BLOW_UPS.items()}
    for n in (8, 10, 33, 10**6):
        blow_ups = {label: b.at(n) for label, b in theorems._THM15_BLOW_UPS.items()}
        hub2, hub5 = double_hub(n - 4, 1, 1), double_hub(n - 3, 0, 1)
        assert blow_ups == {"(n-5,1,2)": double_hub(n - 5, 1, 2), "(n-4,1,1)": hub2,
                            "complement (n-4,1,1)": hub2.complement(), "(n-4,0,2)": double_hub(n - 4, 0, 2),
                            "(n-3,0,1)": hub5, "complement (n-3,0,1)": hub5.complement()}, n
        for label, b in blow_ups.items():
            assert _quotient_at(quotients[label], n) == b.quotient(), (n, label)


@pytest.mark.parametrize("n", [8, 33])
def test_proof_check_thm15_builds_no_surd(monkeypatch, fresh_thm15_identities, n):
    """Theorem 1.5's surd tests and root counts at beta_2 run on polynomials over Z[n]: no
    ``Surd`` is built, by the first call, which proves them, or by a later one."""
    def refuse(self):
        raise AssertionError("a Surd was built")

    monkeypatch.setattr(polys.Surd, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a Surd was built"):
        polys.Surd(F(1), F(1), 2)
    assert proof_check_thm15(n) and proof_check_thm15(n + 1)


def test_proof_check_thm15_root_tests_bite(monkeypatch, fresh_thm15_identities):
    """Moving every surd point of ``_value_surd`` and of the Taylor shift ``_shift`` by one half, its
    numerator by one either way, fails the three root formulas at beta_2 and a sign fact there,
    proved once, and down also the Taylor signs of the cofactors of f_2, so both root counts; taking
    every surd value and shift at the conjugate gamma_2' of beta_2 fails both root counts, as the
    cofactors of f_2 have two and three roots above it, and the two facts that beta_2 exceeds a
    replicated eigenvalue.  The rational points, at (2n - 5) / 2 and the shifts to n0, stay."""
    def moved(du=0, conjugate=False):
        def kernel(exact):
            def at(p, u, v, d, den):
                return exact(p, u + du, -v if conjugate else v, d, den) if v else exact(p, u, v, d, den)
            return at
        kernels = {name: kernel(getattr(polys, name)) for name in ("_value_surd", "_shift")}
        return SimpleNamespace(**{**vars(polys), **kernels})

    count2 = "exactly one quotient eigenvalue above beta_2"
    count3 = "exactly one complement quotient eigenvalue above gamma_1'"
    roots = ["gamma_1' root formula", "gamma_2' root formula"]
    for shift, failed in ((1, ["beta_2 is a quotient eigenvalue", *roots, "equal second eigenvalues stay below 2n-5"]),
                          (-1, ["beta_2 is a quotient eigenvalue", count2, *roots, "f_1(gamma_1') negative", count3])):
        theorems._thm15_identities.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(theorems, "polys", moved(du=shift))
            assert _failed_thm15_labels(m, 10) == failed
    theorems._thm15_identities.cache_clear()
    assert proof_check_thm15(10)
    monkeypatch.setattr(theorems, "polys", moved(conjugate=True))
    for n in (10, 33):
        theorems._thm15_identities.cache_clear()
        assert _failed_thm15_labels(monkeypatch, n) == [count2, "beta_2 exceeds the replicated eigenvalue 2",
                                                        count3, "gamma_1' exceeds the replicated eigenvalue n-4"]


@pytest.mark.parametrize("check, args, count, digest", [
    (proof_check_thm15, (8,), 29, "061efa63e2158eaddb7a69f0adba73419be31343d98f19538663e1da9ad7ab33"),
    (proof_check_thm15, (10,), 29, "061efa63e2158eaddb7a69f0adba73419be31343d98f19538663e1da9ad7ab33"),
    (proof_check_thm15, (32,), 29, "061efa63e2158eaddb7a69f0adba73419be31343d98f19538663e1da9ad7ab33"),
    (proof_check_thm15, (33,), 23, "2c30ddcee8a26f6d81803809e26486d6a526add024bdc83e2c8cfcd7e3c7cc35"),
    (proof_check_thm15, (50,), 23, "2c30ddcee8a26f6d81803809e26486d6a526add024bdc83e2c8cfcd7e3c7cc35"),
    (proof_check_thm12, (6, 2), 12, "ca82d64583a5006491647dbcdb2d030fbd495a208019d76e3e063b73b8e3adb0"),
    (proof_check_thm12, (20, 7), 12, "ca82d64583a5006491647dbcdb2d030fbd495a208019d76e3e063b73b8e3adb0"),
], ids=["thm15-8", "thm15-10", "thm15-32", "thm15-33", "thm15-50", "thm12-6-2", "thm12-20-7"])
def test_proof_check_label_sequences_are_pinned(monkeypatch, fresh_thm12_identities, fresh_thm15_identities,
                                                check, args, count, digest):
    """Every check a proof makes runs, in order, with its outcome: the (label, outcome)
    sequence has a pinned length and sha256.  n = 33 is the first order past the
    32-vertex identities of the blown-up graphs.  Each sequence is the theorem's
    identities, sign facts and, for Theorem 1.5, root counts at beta_2, over Z[n, d2, s] or
    Z[n], proved in the first call, then the call's checks: none for Theorem 1.2, and for
    Theorem 1.5 the graph identities up to n = 32."""
    recorded = []
    expect = theorems._Checks.expect

    def record(self, condition, label):
        recorded.append(f"{label}\t{int(bool(condition))}")
        expect(self, condition, label)

    monkeypatch.setattr(theorems._Checks, "expect", record)
    assert check(*args)
    assert len(recorded) == count
    assert hashlib.sha256("\n".join(recorded).encode()).hexdigest() == digest


def _thm12_sign_facts() -> list:
    """Theorem 1.2's sign facts, each (label, certificate arguments, sign), written here by their
    closed forms over Z[n, d2, s]: f(2) = f(n-3) = 13 - 2n from 7, g(2) = g(n-3) = 5 - (n-5)^2 from 8."""
    n, d2, s = polys.MPoly.variables("n", "d2", "s")
    return [("f sign for n >= 7", (13 - 2 * n, 7), -1)] * 2 + [("g sign for n >= 8", (5 - (n - 5) ** 2, 8), -1)] * 2


def _thm15_sign_facts() -> list:
    """Theorem 1.5's sign facts, each (label, certificate arguments, sign), written here by their
    closed forms over Z[n], from 8: values and traces by ``_sign_from``, and signs at
    beta_2 = (n - 2 + sqrt(n^2 - 8n + 20)) / 2 by ``_surd_sign_from`` of (a, b) with
    2^deg(p) p(beta_2) = a + b sqrt(n^2 - 8n + 20), expanded here by powers of 2 beta_2.  The two root
    counts above beta_2 are the Taylor signs there of the cofactors x(x^2 - nx + n) and f_1 of f_2:
    coefficient j of 2^3 p(beta_2 + z/2) is 2^(3-j) q_j(beta_2), for q_j = p^(j) / j!, the cubic (a
    tuple) and its Taylor coefficients (lists), signed (-,+,+,+) and (-,-,-,+)."""
    n, = polys.MPoly.variables("n")
    disc = n * n - 8 * n + 20
    cubic = (-6 * n * n + 38 * n - 56, 2 * n * n - 3 * n - 12, 6 - 3 * n, 1)

    def at_beta2(p):
        a = b = 0
        x, y = 1, 0  # (2 beta_2)^j = x + y sqrt(disc)
        for j, c in enumerate(p):
            a, b = a + c * 2 ** (len(p) - 1 - j) * x, b + c * 2 ** (len(p) - 1 - j) * y
            x, y = x * (n - 2) + y * disc, x + y * (n - 2)
        return a, b, disc, 8

    def taylor(label, coefficients, signs):
        return [(label, at_beta2(q), sign) for q, sign in zip(coefficients, signs)]

    return [("f(n-3) negative", (-(n - 5) * (n - 6), 8), -1),
            ("trace rules out three roots above n-3", (3 * (n - 3) - (2 * n - 3), 8), 1),
            *taylor("exactly one quotient eigenvalue above beta_2",
                    [(0, n, -n, 1), [n, -2 * n, 3], [-n, 3], [1]], [-1, 1, 1, 1]),
            ("beta_2 exceeds the replicated eigenvalue 2", at_beta2((-2, 1)), 1),
            ("f_1(2n-6) negative", (-4 * n + 16, 8), -1),
            ("f_1(gamma_1') negative", at_beta2(cubic), -1),
            *taylor("exactly one complement quotient eigenvalue above gamma_1'",
                    [cubic, [2 * n * n - 3 * n - 12, 12 - 6 * n, 3], [6 - 3 * n, 3], [1]], [-1, -1, -1, 1]),
            ("gamma_1' exceeds the replicated eigenvalue n-4", at_beta2((4 - n, 1)), 1),
            ("equal second eigenvalues stay below 2n-5", at_beta2((2 * n - 5, -2)), 1),
            ("f(n-3) nonpositive, (n-4,0,2)", (6 - n, 8), -1),
            ("trace argument, (n-4,0,2)", (3 * (n - 3) - (2 * n - 3), 8), 1),
            ("g(n-5/2) negative", (-2 * n + 15, 8), -1),  # 8 g((2n-5)/2)
            ("phi(2n-6) negative", (-4 * (n - 3) * (n - 4), 8), -1),
            ("phi(n-5/2) negative", (-(2 * n - 11) * (4 * n * n - 24 * n + 39), 8), -1)]  # 16 phi((2n-5)/2)


def test_sign_certificates_certify_every_sign_fact():
    """``_sign_from`` certifies each sign fact in n of the proof checks for every n from its n0,
    and ``_surd_sign_from`` each sign at beta_2 from 8; an ``int`` gives its own sign, and a
    surd with no rational part the sign of its surd part."""
    for label, args, sign in _thm12_sign_facts() + _thm15_sign_facts():
        assert (theorems._sign_from if len(args) == 2 else theorems._surd_sign_from)(*args) == sign, label
    assert [theorems._sign_from(k, 8) for k in (-3, 0, 5)] == [-1, 0, 1]
    n, = polys.MPoly.variables("n")
    assert [theorems._surd_sign_from(0, v, n * n + 1, 8) for v in (n - 7, 7 - n)] == [1, -1]


def test_sign_certificates_refuse_what_they_cannot_show():
    """A sign that changes at or above n0, a zero at n0, a sign that Descartes' rule at n0 cannot
    show, the zero polynomial and a polynomial in d2 give 0, and so does a sign at beta_2
    resting on such a sign: 2 (beta_2 - 10) = n - 22 + sqrt(n^2 - 8n + 20) is negative at n = 8 and
    positive at n = 20."""
    n, = polys.MPoly.variables("n")
    late = (n - 20) * (n - 30) + 1
    assert late.at(8) > 0 > late.at(25)
    for p in (n - 10, n - 8, late, n - n):
        assert theorems._sign_from(p, 8) == 0, p
    m, d2, s = polys.MPoly.variables("n", "d2", "s")
    assert theorems._sign_from(m + d2 + 1, 8) == theorems._sign_from(m * s + 1, 8) == 0
    assert theorems._sign_from(m + 1, 8) == 1
    assert theorems._surd_sign_from(n - 22, 1, n * n - 8 * n + 20, 8) == 0


def _certificate_run(monkeypatch, identities, flip=None) -> tuple[list, list, tuple]:
    """Run ``identities()`` anew, recording the sign certificates that its facts call themselves
    (not the ``_sign_from`` calls inside ``_surd_sign_from``): their arguments in order, each
    check's label and the calls made by the time it was decided, and the failed labels; for
    flip = k, the k-th call's sign is negated."""
    calls, seen, inside = [], [], []

    def top_level(exact):
        def run(*args):
            if inside:
                return exact(*args)
            inside.append(True)
            try:
                sign = exact(*args)
            finally:
                inside.pop()
            calls.append(args)
            return -sign if len(calls) - 1 == flip else sign
        return run

    expect = theorems._Checks.expect

    def record(self, condition, label):
        seen.append((label, len(calls)))
        expect(self, condition, label)

    with monkeypatch.context() as m:
        m.setattr(theorems, "_sign_from", top_level(theorems._sign_from))
        m.setattr(theorems, "_surd_sign_from", top_level(theorems._surd_sign_from))
        m.setattr(theorems._Checks, "expect", record)
        identities.cache_clear()
        failed = identities()
        identities.cache_clear()
    return calls, seen, failed


@pytest.mark.parametrize("identities, sign_facts", [(theorems._thm12_identities, _thm12_sign_facts),
                                                    (theorems._thm15_identities, _thm15_sign_facts)],
                         ids=["thm12", "thm15"])
def test_flipping_one_sign_fails_exactly_its_fact(monkeypatch, identities, sign_facts):
    """The identities certify exactly the sign facts written out above, in order, each under its
    label, and each certificate call decides its fact: negating the k-th call's sign puts exactly
    that fact's label among the failed labels of the identities, and nothing else."""
    facts = sign_facts()
    calls, seen, failed = _certificate_run(monkeypatch, identities)
    assert not failed
    assert calls == [args for _, args, _ in facts]
    assert [next(label for label, made in seen if made > k) for k in range(len(facts))] == [f[0] for f in facts]
    for k, (label, _, _) in enumerate(facts):
        assert list(_certificate_run(monkeypatch, identities, flip=k)[2]) == [label], k


def test_proof_check_thm15_spot_values():
    # n = 9: beta_2 = (7 + sqrt 29)/2 matches the float q_2 of the hub graph
    beta = (9 - 2 + math.sqrt(9 * 9 - 8 * 9 + 20)) / 2
    assert beta == pytest.approx((7 + math.sqrt(29)) / 2)
    assert spectrum(h_graph(5, 1, 1), "Q").value(2) == pytest.approx(beta, abs=1e-8)
    # n = 9: f(n-3) = -(n-5)(n-6) = -12
    assert -(9 - 5) * (9 - 6) == -12
    # n = 10: the complement quartic at 2n-6 = 14 evaluates to -4*7*6 = -168
    # (2n^2 - 14n + 24, -6n^2 + 35n - 48, 2n^2 - 3n - 10, 6 - 3n, 1) at n = 10, which is the
    # char poly of the complement (n-3,0,1) quotient there
    quartic = (84, -298, 160, -24, 1)
    assert quartic == char_poly_exact(double_hub(7, 0, 1).complement().quotient())
    assert polys.poly_eval(quartic, F(14)) == -168
    assert proof_check_thm15(9) and proof_check_thm15(10)
    with pytest.raises(ValueError):
        proof_check_thm15(7)


def _failed_thm15_labels(monkeypatch, n: int) -> list[str]:
    """The labels ``proof_check_thm15(n)`` fails, in order, and that it fails."""
    failed = []
    expect = theorems._Checks.expect

    def record(self, condition, label):
        if not condition:
            failed.append(label)
        expect(self, condition, label)

    monkeypatch.setattr(theorems._Checks, "expect", record)
    assert not proof_check_thm15(n)
    return failed


@pytest.mark.parametrize("n", [8, 10, 32])
def test_proof_check_thm15_needs_the_twin_kinds(monkeypatch, fresh_thm15_identities, n):
    """Each cell read as a twin class of the other kind, a coclique's eigenvalue taken as a
    clique's and the reverse, fails the identity of all six blown-up graphs, and nothing else."""
    at = BlowUp.at

    def flipped(self, n):
        b = at(self, n)
        return SimpleNamespace(sizes=b.sizes, cells=b.cells, graph=b.graph, quotient=b.quotient,
                               cliques=tuple(not c for c in b.cliques))

    monkeypatch.setattr(BlowUp, "at", flipped)
    assert _failed_thm15_labels(monkeypatch, n) == [f"Q(G)T = T Lambda {label}" for label in theorems._THM15_BLOW_UPS]


@pytest.mark.parametrize("n", [8, 10, 32])
def test_proof_check_thm15_needs_every_edge(monkeypatch, fresh_thm15_identities, n):
    """One edge toggled in each blown-up graph, inside the first cell, fails the identity of
    all six, and nothing else."""
    graph = BlowUp.graph

    def toggled(self):
        g = graph(self)
        return g.without_edge(0, 1) if g.has_edge(0, 1) else g.with_edge(0, 1)

    monkeypatch.setattr(BlowUp, "graph", toggled)
    assert _failed_thm15_labels(monkeypatch, n) == [f"Q(G)T = T Lambda {label}" for label in theorems._THM15_BLOW_UPS]


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


#: sha256 of the five scan results ``json.dumps(scan(n, "all", check).to_dict(),
#: sort_keys=True)`` for n = 4..8, joined by newlines.
SCAN_DIGESTS = {
    "1.2": "37d114ffe41107723600e36706f7416fc48d23f2fb47b4a52289471411a4e9f0",
    "1.3": "d5765453002bd886a6e32aed7d47381dd3534164d09647e6da520a593898a667",
    "1.4": "576272e4e7b80c37e7ecb0644582852201f02b50776ab3f7dedd557d6eaecd11",
    "1.5": "cd0a3dabe1dd40272fee90a3198964dac5f818b315e22226f6a5e409d26280e8",
    "1.6": "01c4bdf153bbf3f7b4a2041f24428feeff3b124ee819e8deec01503df89d477f",
    "problem1.2": "3e46431b0746ac886d8b41513681088a786811d11a9b1a376dd5f7ddea27698b",
    "regular": "ee96a4382ff5f96ec23e89e95a533899b7c61bb730be7efd950544c3d0b14e74",
    "2.6": "d31bf77346af398559e1498ed7f7205a955fd92ab3da9a5d74e35880a405a0d1",
    "2.8": "b8898c5380c8ac719b13eb14379692526017a415e8172aa9df753deb086844d6",
    "2.9": "c04fc6a951f3dbbd3022384dcb47ec0c54cd7e2eeeb9fc054135d4f6bc3d1ae6",
    "2.10": "e95f3f993ce260ab9da91d807244f5e63b1dab4e9f1d390bb454d45bbd9c4fa0",
    "q1-sum": "3907bad637c913a0927ff6a8ce8af82ec2a9aeadfb377ea449694cabe4bc3d09",
    "ng-A2": "99bf52bda88040fe8853774ac6e5a9606b8edf7ae0bac2ffdd8068e3aa79078c",
    "ng-L1": "7e7d8f7da389976b6bbc47263801e21d4bd5e090a0b41a3dfe26f0eb038ae8ba",
    "ng-Q3": "4cf61c5c7d626b382e0d187177d4119e6259d6de7cf78a9fa836513fd7501894",
}


def _scan_check(key: str):
    """The check a scan key names: a registry entry, q1-sum, or `--thm ng` as the CLI resolves it."""
    if key in theorems.THEOREM_CHECKS:
        return theorems.THEOREM_CHECKS[key]
    if key == "q1-sum":
        return check_ng_q1
    return _resolve_check(argparse.Namespace(thm="ng", kind=key[3], k=int(key[4:])))


@pytest.mark.parametrize("key", sorted(SCAN_DIGESTS))
def test_scan_digests_are_pinned(key, graphs_by_order, enum8):
    check = _scan_check(key)
    texts = [json.dumps(scan(n, "all", check, jobs=1).to_dict(), sort_keys=True) for n in range(4, 9)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == SCAN_DIGESTS[key]


#: sha256 of the three scan results ``json.dumps(scan(n, "connected", check,
#: jobs=2).to_dict(), sort_keys=True)`` for n = 6..8, joined by newlines: the
#: rows whose first hypothesis is the scan filter, scanned in pool workers.
CONNECTED_SCAN_DIGESTS = {
    "1.3": "bc6fcb90edc3c83dc775084252afee381cec5a1a2f8dda677d155b3239da6942",
    "1.4": "60cc50467439bd16b37e6f13952ac9b085ae1831b66c32838b5ccac21ce4a49c",
    "1.5": "d5651433fd38425bf722b75dc1e995fa3ace25c496a79a2d299ef2c4e01ed350",
    "1.6": "8f17804f60b74afbdc41c1683ab7df610cf07fa5ad340a0e97b54c9155aa9194",
    "problem1.2": "0fb6be9a32de16396688f6ee27ab4d9862444d87ba76aef8a0d417880cadbea3",
}


@pytest.mark.parametrize("key", sorted(CONNECTED_SCAN_DIGESTS))
def test_connected_scan_digests_are_pinned(key, enum8):
    check = THEOREM_CHECKS[key]
    texts = [json.dumps(scan(n, "connected", check, jobs=2).to_dict(), sort_keys=True) for n in range(6, 9)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == CONNECTED_SCAN_DIGESTS[key]


def _never_decides(approx, target, trusted=(-1, 1)):
    """``float_sign`` that decides nothing, on floats and arrays alike."""
    return np.zeros_like(approx - target, dtype=int)


def test_floats_never_flip_a_scan_verdict(graphs_by_order, monkeypatch):
    """Every pinned scan key gives the same result at n = 4..7 with every sign left to
    exact arithmetic, from a cold char-poly cache, as with the float screen."""
    def results():
        return {key: [scan(n, "all", _scan_check(key), source=graphs_by_order[n]).to_dict() for n in range(4, 8)]
                for key in sorted(SCAN_DIGESTS)}

    screened = results()
    monkeypatch.setattr(theorems, "float_sign", _never_decides)
    spectra.kind_char_poly.cache_clear()
    assert results() == screened


# ---------------------------------------------------------------------------
# The chunk path of the bound rows


#: Every bound-table row, as a function of the order (the CLI's rows depend on it).
CHUNK_ROWS = {
    **{row.name: (lambda n, row=row: row) for row in (
        check_thm12, check_thm13, check_problem12, check_thm14, check_thm15, check_thm16,
        check_regular_bound, check_ng_q1, NG_BOUNDS["L", 1], NG_BOUNDS["A", 2],
        check_lemma26, check_lemma28, check_lemma29, check_lemma210)},
    "sum-le 2n-5": functools.partial(build_predicate, "sum-le 2n-5"),
    "sum-ge n-2": functools.partial(build_predicate, "sum-ge n-2"),
}


def _calls_spied(monkeypatch) -> list:
    """The graphs a row reports on one by one (``Row._report``) from now on."""
    called = []

    def spy(self, g, terms, report=Row._report):
        called.append(g)
        return report(self, g, terms)

    monkeypatch.setattr(Row, "_report", spy)
    return called


@pytest.mark.parametrize("key", sorted(CHUNK_ROWS))
def test_chunk_verdicts_match_per_graph_calls(key, graphs_by_order, monkeypatch):
    """For every graph of order <= 7, under the filters ``all`` and ``connected``:
    the chunk's verdicts are the rows' own, its screened sums or eigenvalues are
    the reports' lhs exactly, only the graphs whose report exact arithmetic
    decided are called one by one, and a chunk on which a row raises raises the
    same error."""
    called = _calls_spied(monkeypatch)
    for n in range(1, 8):
        for name in ("all", "connected"):
            row = CHUNK_ROWS[key](n).assuming([name])
            graphs = list(filter(FILTERS[name], graphs_by_order[n]))
            with spectra.in_chunk(graphs) as chunk:
                try:
                    reports = [row(g) for g in graphs]
                except ValueError as exc:  # ng-A2: k > n at n = 1
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        row.verdicts(graphs)
                    continue
                escalated = [g for g, r in zip(graphs, reports) if r.certified]
                del called[:]
                assert row.verdicts(graphs) == [r.verdict for r in reports], (key, n, name)
                assert called == escalated, (key, n, name)
                screened = [r for r in reports if r.lhs is not None]
                if screened:
                    members = [r.graph for r in screened]
                    values = (chunk.sums(members, row.kind, row.k) if row.sum
                              else chunk.column(members, "Q", row._index(n)))
                    assert values.tolist() == [r.lhs for r in screened], (key, n, name)


def test_predicate_rows_screen_the_chunk_before_any_exact_report(graphs_by_order, monkeypatch):
    """``sum-open-interval 6 7`` over the connected order-7 graphs is its rows ``<= 6`` and
    ``>= 7``: their float screens reject every graph whose sum lies beyond the window of
    [6, 7], and each row reports at most once on each of the 26 others.  The one member
    is F??Nw.  A predicate's rows pickle, so a ``jobs=2`` scan equals ``jobs=1``."""
    called = _calls_spied(monkeypatch)
    graphs = list(filter(FILTERS["connected"], graphs_by_order[7]))
    result = scan(7, "connected", build_predicate("sum-open-interval 6 7", 7), source=graphs)
    assert (result.counts, result.equality) == ({EQUALITY: 1, "non-member": 852}, ["F??Nw"])
    w = theorems.ESCALATION_WINDOW
    near = [g for g in graphs if 6 - w <= ng_sum(g) <= 7 + w]
    assert len(near) == 26 and set(called) == set(near)
    assert max(Counter(called).values()) <= 2
    for spec in ("sum-open-interval 6 7", "sum-eq 7"):
        check = build_predicate(spec, 6)
        assert scan(6, "all", check, jobs=2) == scan(6, "all", check, jobs=1), spec


def test_chunk_escalates_exactly_the_float_undecided_graphs(monkeypatch, rng=random.Random(16)):
    """Relabelled copies of H`Kxx~~ (float q_2 sum 13.000000000000004 against
    2n - 5 = 13) among float-decided order-9 graphs, and P4 and C4 among the
    connected order-4 graphs under thm-1.3: only those are reported one by one."""
    extremal = from_graph6("H`Kxx~~")
    copies = [relabel(extremal, rng.sample(range(9), 9)) for _ in range(3)]
    order9 = [complete(9), cycle(9), star(9), path(9), complete_bipartite(4, 5)] + copies
    rng.shuffle(order9)
    paw, diamond = from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), complete(4).without_edge(0, 1)
    order4 = [star(4), path(4), complete(4), cycle(4), paw, diamond]
    called = _calls_spied(monkeypatch)
    for row, graphs, undecided in ((check_problem12, order9, copies), (check_thm13, order4, [path(4), cycle(4)])):
        with spectra.in_chunk(graphs):
            a, b = row.rhs
            bound = float(a * graphs[0].n + b)
            escalated = [g for g in graphs if not theorems.float_sign(ng_sum(g), bound, (-1,))]
            assert sorted(map(to_graph6, escalated)) == sorted(map(to_graph6, undecided))
            del called[:]
            verdicts = row.verdicts(graphs)
            assert called == escalated
            assert [v for g, v in zip(graphs, verdicts) if g in undecided] == [EQUALITY] * len(undecided)
            assert [v for g, v in zip(graphs, verdicts) if g not in undecided] == [STRICT] * (
                len(graphs) - len(undecided))
    assert ng_sum(extremal) == 13.000000000000004


def test_ng_l1_screen_builds_complements_only_for_exact_reports(graphs_by_order, monkeypatch):
    """The ng-L1 row's screen reads lambda_1(L(complement G)) = n - mu_{n-1}(G)
    off the graph's own spectrum, so for n <= 7 it builds a complement only
    for a graph whose report exact arithmetic decides: at n = 7 the 88
    equality graphs, and none of the other 956."""
    built = []
    build = spectra.complement

    def spy(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(spectra, "complement", spy)
    row = NG_BOUNDS["L", 1]
    for n in range(1, 8):
        graphs = graphs_by_order[n]
        with spectra.in_chunk(graphs):
            exact = [g for g in graphs if row(g).certified]
        spectra.chunk_of.cache_clear()  # the chunk again, with no complement built
        del built[:]
        with spectra.in_chunk(graphs):
            verdicts = row.verdicts(graphs)
        assert built == exact, n
    assert (len(exact), Counter(verdicts)) == (88, {STRICT: 956, EQUALITY: 88})


def test_chunk_tests_each_hypothesis_once_per_graph(graphs_by_order, monkeypatch):
    """Thm 1.6's row on whole chunks at n = 6, 7: the graphs the float leaves
    undecided are reported without testing ``connected`` or ``q2<=n-3``
    again, so each hypothesis runs at most once per graph."""
    calls = Counter()
    for name in check_thm16.requires:
        test, note = theorems.HYPOTHESES[name]

        def spy(g, name=name, test=test):
            calls[name, g] += 1
            return test(g)

        monkeypatch.setitem(theorems.HYPOTHESES, name, (spy, note))
    called = _calls_spied(monkeypatch)
    for n in (6, 7):
        graphs = graphs_by_order[n]
        with spectra.in_chunk(graphs):
            check_thm16.verdicts(graphs)
    assert called, "no graph was left to exact arithmetic"
    assert max(calls.values()) == 1
    assert {g for name, g in calls if name == "connected"} == set(graphs_by_order[6] + graphs_by_order[7])


def test_chunk_guards():
    """A row with k > n is not applicable in a chunk as it is alone; rows pickle with their chunk entry point."""
    k1 = complete(1)
    row = NG_BOUNDS["A", 2]
    alone = row(k1)
    assert (alone.verdict, alone.notes) == (NOT_APPLICABLE, "k=2 outside 1..1")
    with spectra.in_chunk([k1]):
        chunk = row.verdicts([k1])
        assert check_thm12.verdicts([k1]) == [NOT_APPLICABLE]  # below min_n, as alone
    assert chunk == [alone.verdict] == [NOT_APPLICABLE]
    copy = pickle.loads(pickle.dumps(check_thm16.assuming(["connected"])))
    assert copy == check_thm16.assuming(["connected"]) and copy.verdicts


#: Exact q_k comparisons (``compare_qk_with``) of a scan over the order-7 graphs, by
#: (check, filter): thm-1.6's all come from its ``q2<=n-3`` hypothesis.
KTH_EXACT_CALLS = {("1.6", "all"): 164, ("2.6", "all"): 7, ("2.8", "all"): 88, ("2.9", "all"): 75,
                   ("2.10", "all"): 1, ("1.6", "connected"): 164}


def test_kth_rows_make_the_pinned_exact_comparisons(monkeypatch):
    """The lemma rows on whole chunks, and the hypothesis row that thm-1.6 tests, compare
    exactly only where the float may not decide, with a cold char-poly cache."""
    calls = []
    compare = theorems.compare_qk_with
    monkeypatch.setattr(theorems, "compare_qk_with", lambda *args: calls.append(args[0]) or compare(*args))
    counts = {}
    for key, name in KTH_EXACT_CALLS:
        spectra.kind_char_poly.cache_clear()
        del calls[:]
        scan(7, name, THEOREM_CHECKS[key])
        counts[key, name] = len(calls)
    assert counts == KTH_EXACT_CALLS


def test_lemma29_consequence_is_checked_on_certified_equalities(graphs_by_order):
    """A certified equality that fails the row's consequence is violated with its note,
    graph by graph and on a whole chunk; the strict graphs never reach the test."""
    tested = []
    row = replace(check_lemma29, consequence=(lambda g: tested.append(g) and False, "consequence fails"))
    r = row(star(5))
    assert (r.verdict, tested) == (STRICT, [])
    r = row(disjoint_union(complete(5), empty_graph(1)))
    assert (r.verdict, r.certified, r.lhs_exact, r.notes) == (VIOLATED, True, None, "consequence fails")
    graphs = graphs_by_order[6]
    with spectra.in_chunk(graphs):
        verdicts = row.verdicts(graphs)
    equalities = [g for g in graphs if check_lemma29(g).verdict == EQUALITY]
    assert Counter(verdicts) == {STRICT: len(graphs) - len(equalities), VIOLATED: len(equalities)} and equalities
    assert check_lemma29.consequence[1] == (
        "equality consequence mismatch: top degrees must coincide and be pairwise adjacent")


def _always(g) -> bool:
    return True


def test_a_holding_structure_bars_the_float_and_must_match_equality(graphs_by_order):
    """Lemma 2.8's row with a characterization that always holds: the float may not decide
    while it holds, so P5, C5 and K_{1,5}, each with q_2 below n - 2, are exactly certified
    mismatches, and on the order-6 chunk only the 36 equalities are not violated."""
    row = replace(check_lemma28, structure=_always)
    for g in (path(5), cycle(5), star(6)):
        r = row(g)
        assert (r.verdict, r.notes, r.certified) == (
            VIOLATED, "equality characterization mismatch: equality=False, structure=True", True)
    graphs = graphs_by_order[6]
    with spectra.in_chunk(graphs):
        verdicts = row.verdicts(graphs)
    assert Counter(verdicts) == {VIOLATED: 120, EQUALITY: 36}


def test_float_sign_is_one_rule_for_floats_and_arrays():
    """The float decides a trusted sign beyond the window, elementwise on arrays."""
    w = theorems.ESCALATION_WINDOW
    approx = [5.0, 3.0, 4.0, 4.0 + w / 2, 4.0 - w / 2, 4.0 + 2 * w, 4.0 - 2 * w, float("nan")]
    for trusted, expected in (((-1, 1), [1, -1, 0, 0, 0, 1, -1, 0]), ((-1,), [0, -1, 0, 0, 0, 0, -1, 0]),
                              ((1,), [1, 0, 0, 0, 0, 1, 0, 0]), ((), [0] * 8)):
        assert [theorems.float_sign(a, 4.0, trusted) for a in approx] == expected
        assert theorems.float_sign(np.array(approx), 4.0, trusted).tolist() == expected
        assert theorems.float_sign(np.array(approx), np.full(8, 4.0), trusted).tolist() == expected
    for relation, trusted in (("<=", (-1,)), (">=", (1,))):  # decide applies the rule to the relation's strict side
        certified = [decide(cycle(5), "b", a, F(4), lambda: 0, relation).certified for a in approx]
        assert certified == [not theorems.float_sign(a, 4.0, trusted) for a in approx]
