"""Executable certifying predicates for the registered eigenvalue bounds.

Each numbered bound on q_2(G) + q_2(complement G) (and the supporting lemma
bounds) is a function from a graph to a structured BoundReport: its
hypotheses as plain tests, then one call of ``decide``, the bound driver.
``decide`` takes the sign of value - bound from ``screened_sign``, where the
float decides only a sign that satisfies the bound and lies more than
``ESCALATION_WINDOW`` from it; every other sign comes from exact arithmetic,
so every equality and every violation is certified.  The relation (``<=``,
``<``, ``>=``, ``>``) is data.  Certified equalities are matched against the
extremal families by canonical form, with an explicit isomorphism witness,
and a lemma's equality characterization must hold exactly.

The two ``proof_check_*`` functions re-derive, in exact arithmetic, the
quotient-matrix algebra that the extremal characterizations rest on: closed
forms for second-largest quotient eigenvalues, polynomial identities between
discriminants, and the sign evaluations that locate roots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files
from math import sqrt
from typing import Callable, Optional

from . import polys
from .graph import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    count_bipartite_components,
    cycle,
    disjoint_union,
    empty_graph,
    from_graph6,
    h_graph,
    h_graph_blocks,
    has_balanced_bipartite_component,
    is_bipartite,
    is_connected,
    is_regular,
    is_semiregular_bipartite,
    join,
    path,
    star,
    to_graph6,
)
from .enumeration import CANONICAL_MAX, canonical_form, isomorphism_witness
from .partitions import duplicate_classes, is_equitable, quotient_matrix
from .polys import Surd
from .spectra import (
    ESCALATION_WINDOW,
    char_poly_exact,
    compare_q1,
    compare_qk_with,
    compare_sum_vs_radical,
    compare_sum_with,
    ng_sum,
    q_spectrum,
    rational_sqrt,
)

STRICT = "strict"
EQUALITY = "equality-certified"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ExtremalCertificate:
    """A matched extremal family plus a verified isomorphism onto it."""

    family: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound predicate on one graph."""

    graph: Graph
    bound: str
    lhs: Optional[float]
    rhs: object
    verdict: str
    certified: bool = False
    lhs_exact: Optional[str] = None
    certificate: Optional[ExtremalCertificate] = None
    notes: str = ""

    @property
    def graph6(self) -> str:
        return to_graph6(self.graph)

    @property
    def family(self) -> Optional[str]:
        return self.certificate.family if self.certificate else None

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "bound": self.bound,
            "lhs": self.lhs,
            "rhs": str(self.rhs),
            "verdict": self.verdict,
            "certified": self.certified,
            "lhs_exact": self.lhs_exact,
            "family": self.family,
            "witness": list(self.certificate.witness) if self.certificate else None,
            "notes": self.notes,
        }


def _na(g: Graph, bound: str, rhs, notes: str) -> BoundReport:
    return BoundReport(g, bound, None, rhs, NOT_APPLICABLE, notes=notes)


# ---------------------------------------------------------------------------
# Extremal family catalogues


@lru_cache(maxsize=256)
def _lower_bound_families(n: int) -> tuple[tuple[str, Graph], ...]:
    return (
        ("K_n", complete(n)),
        ("nK_1", empty_graph(n)),
        ("K_{1,n-1}", star(n)),
        ("K_{n-1}∪K_1", disjoint_union(complete(n - 1), empty_graph(1))),
        ("(2K_1)∇K_{n-2}", join(empty_graph(2), complete(n - 2))),
        ("K_2∪(n-2)K_1", disjoint_union(complete(2), empty_graph(n - 2))),
    )


@lru_cache(maxsize=256)
def _upper_bound_families(n: int) -> tuple[tuple[str, Graph], ...]:
    if n == 2:
        return (("K_2", complete(2)),)
    if n == 4:
        return (("P_4", path(4)), ("C_4", cycle(4)))
    return ()


@lru_cache(maxsize=256)
def _cobar_disconnected_families(n: int) -> tuple[tuple[str, Graph], ...]:
    k2 = complete(2)
    families = [("(K_2∪K_{n-3})∇K_1", join(disjoint_union(k2, complete(n - 3)), empty_graph(1)))]
    if n == 7:
        families.append(("(2K_2)∇(3K_1)", join(disjoint_union(k2, k2), empty_graph(3))))
    if n == 6:
        k1_k2 = disjoint_union(empty_graph(1), k2)
        families += [("K_{3,3}", complete_bipartite(3, 3)), ("(K_1∪K_2)∇(K_1∪K_2)", join(k1_k2, k1_k2))]
    return tuple(families)


@lru_cache(maxsize=256)
def _star_families(n: int) -> tuple[tuple[str, Graph], ...]:
    return (("K_{1,n-1}", star(n)), ("complement-of-K_{1,n-1}", complement(star(n))))


@lru_cache(maxsize=1)
def bipartite_equality_catalogue() -> tuple[str, ...]:
    """Frozen canonical forms of the order-6 bipartite extremal graphs."""
    text = (files("qng") / "data" / "bipartite_equality_n6.g6").read_text()
    return tuple(line.strip() for line in text.splitlines() if line.strip())


@lru_cache(maxsize=256)
def _bipartite_equality_families(n: int) -> tuple[tuple[str, Graph], ...]:
    if n != 6:
        return ()
    k33 = canonical_form(complete_bipartite(3, 3)).graph6
    out = []
    for i, g6 in enumerate(bipartite_equality_catalogue(), start=1):
        name = "K_{3,3}" if g6 == k33 else f"bipartite-extremal-n6#{i}"
        out.append((name, from_graph6(g6)))
    return tuple(out)


def _match_family(g: Graph, families) -> Optional[ExtremalCertificate]:
    if g.n > CANONICAL_MAX:
        return None
    target = canonical_form(g).graph6
    for name, member in families:
        if member.n != g.n or member.m != g.m:
            continue
        if canonical_form(member).graph6 == target:
            witness = isomorphism_witness(g, member)
            assert witness is not None, "canonical forms matched but no witness"
            return ExtremalCertificate(name, witness)
    return None


# ---------------------------------------------------------------------------
# The bound driver

#: Signs of (value - bound) that satisfy each relation.
RELATION_SIGNS = {"<=": (-1, 0), "<": (-1,), ">=": (0, 1), ">": (1,), "==": (0,)}

#: The signs a float may decide: those that satisfy the relation strictly.
_FLOAT_SIGNS = {rel: tuple(s for s in signs if s) for rel, signs in RELATION_SIGNS.items()}


def screened_sign(approx: float, target: float, exact: Callable[[], int],
                  trusted: tuple[int, ...] = (-1, 1)) -> tuple[int, bool]:
    """Sign of value - target, and whether exact arithmetic decided it.

    The float ``approx`` decides only a sign listed in ``trusted``, and only
    when it is more than ``ESCALATION_WINDOW`` from ``target``.  Everything
    else calls ``exact()``.
    """
    if approx - target > ESCALATION_WINDOW:
        if 1 in trusted:
            return 1, False
    elif target - approx > ESCALATION_WINDOW and -1 in trusted:
        return -1, False
    return exact(), True


def decide(g: Graph, bound: str, lhs: float, rhs, exact: Callable[[], int], relation: str, *, families=(),
           structure: Optional[bool] = None, violated: str = "BOUND VIOLATED (exactly confirmed)",
           rhs_exact: Optional[str] = None) -> BoundReport:
    """The report of ``value relation rhs`` for the quantity screened by ``lhs``.

    ``exact()`` is the exact sign of value - rhs.  A certified equality is
    matched against ``families``.  With ``structure`` given, equality must
    hold exactly when it is true, and the float may not skip the exact step
    while it is true.  ``rhs_exact`` is the exact text of a float ``rhs``.
    """
    holds = RELATION_SIGNS[relation]
    trusted = () if structure else _FLOAT_SIGNS[relation]
    sign, certified = screened_sign(lhs, float(rhs), exact, trusted)
    verdict, notes, cert = STRICT, "", None
    if sign not in holds:
        verdict, notes = VIOLATED, violated
    elif structure is not None and (sign == 0) != structure:
        verdict = VIOLATED
        notes = f"equality characterization mismatch: equality={sign == 0}, structure={structure}"
    elif sign == 0:
        verdict = EQUALITY
        if families:
            cert = _match_family(g, families)
            notes = "" if cert else "EQUALITY OUTSIDE KNOWN EXTREMAL FAMILIES"
    return BoundReport(
        g, bound, lhs, rhs, verdict, certified=certified,
        lhs_exact=(rhs_exact or str(rhs)) if verdict == EQUALITY else None,
        certificate=cert, notes=notes,
    )


def _sum_bound(g: Graph, bound: str, relation: str, base: Fraction, rad: Optional[Fraction] = None,
               *, kind: str = "Q", k: int = 2, **options) -> BoundReport:
    """The k-th eigenvalue sum of g and its complement against base, or base + sqrt(rad)."""
    lhs = ng_sum(g, kind, k)
    if rad is None:
        return decide(g, bound, lhs, base, lambda: compare_sum_with(g, kind, k, base), relation, **options)
    root = rational_sqrt(rad)
    return decide(
        g, bound, lhs, float(base) + sqrt(rad), lambda: compare_sum_vs_radical(g, kind, k, base, rad),
        relation, rhs_exact=None if root is None else str(base + root), **options,
    )


# ---------------------------------------------------------------------------
# Main bound predicates


def check_thm12(g: Graph) -> BoundReport:
    """Lower bound q_2(G) + q_2(complement G) >= n - 2 for n >= 4."""
    rhs = Fraction(g.n - 2)
    if g.n < 4:
        return _na(g, "thm-1.2", rhs, "requires n >= 4")
    return _sum_bound(g, "thm-1.2", ">=", rhs, families=_lower_bound_families(g.n))


def check_thm13(g: Graph) -> BoundReport:
    """Upper bound q_2(G) + q_2(complement G) <= 2n - 4 for connected graphs."""
    rhs = Fraction(2 * g.n - 4)
    if g.n < 2:
        return _na(g, "thm-1.3", rhs, "requires n >= 2")
    if not is_connected(g):
        return _na(g, "thm-1.3", rhs, "requires a connected graph")
    return _sum_bound(g, "thm-1.3", "<=", rhs, families=_upper_bound_families(g.n))


def check_problem12(g: Graph) -> BoundReport:
    """Open upper bound q_2(G) + q_2(complement G) <= 2n - 5, connected, n >= 6."""
    rhs = Fraction(2 * g.n - 5)
    if g.n < 6:
        return _na(g, "problem-1.2", rhs, "requires n >= 6")
    if not is_connected(g):
        return _na(g, "problem-1.2", rhs, "requires a connected graph")
    return _sum_bound(g, "problem-1.2", "<=", rhs)


def check_thm14(g: Graph) -> BoundReport:
    """The 2n - 5 upper bound when the complement is disconnected."""
    rhs = Fraction(2 * g.n - 5)
    if g.n < 6:
        return _na(g, "thm-1.4", rhs, "requires n >= 6")
    if not is_connected(g):
        return _na(g, "thm-1.4", rhs, "requires a connected graph")
    if is_connected(complement(g)):
        return _na(g, "thm-1.4", rhs, "requires a disconnected complement")
    return _sum_bound(g, "thm-1.4", "<=", rhs, families=_cobar_disconnected_families(g.n))


def check_thm15(g: Graph) -> BoundReport:
    """The 2n - 5 upper bound for connected bipartite graphs."""
    rhs = Fraction(2 * g.n - 5)
    if g.n < 6:
        return _na(g, "thm-1.5", rhs, "requires n >= 6")
    if not is_connected(g):
        return _na(g, "thm-1.5", rhs, "requires a connected graph")
    if not is_bipartite(g):
        return _na(g, "thm-1.5", rhs, "requires a bipartite graph")
    return _sum_bound(g, "thm-1.5", "<=", rhs, families=_bipartite_equality_families(g.n))


def check_thm16(g: Graph) -> BoundReport:
    """The 2n - 5 upper bound for connected graphs with q_2(G) <= n - 3."""
    rhs = Fraction(2 * g.n - 5)
    if g.n < 6:
        return _na(g, "thm-1.6", rhs, "requires n >= 6")
    if not is_connected(g):
        return _na(g, "thm-1.6", rhs, "requires a connected graph")
    if screened_sign(q_spectrum(g).value(2), g.n - 3, lambda: compare_qk_with(g, 2, g.n - 3))[0] > 0:
        return _na(g, "thm-1.6", rhs, "hypothesis q_2 <= n - 3 fails (certified)")
    return _sum_bound(g, "thm-1.6", "<=", rhs, families=_bipartite_equality_families(g.n))


def check_regular_bound(g: Graph) -> BoundReport:
    """Strict bound q_2 sum < n - 2 + sqrt(2nk(n-k-1)/(n-1)) for k-regular graphs."""
    name = "regular-bound"
    if not is_connected(g):
        return _na(g, name, None, "requires a connected graph")
    if not is_regular(g):
        return _na(g, name, None, "requires a regular graph")
    if g.m == g.n * (g.n - 1) // 2:
        return _na(g, name, None, "requires a non-complete graph")
    k = g.degree(0)
    rad = Fraction(2 * g.n * k * (g.n - k - 1), g.n - 1)
    return _sum_bound(g, name, "<", Fraction(g.n - 2), rad,
                      violated="STRICT BOUND VIOLATED (exactly confirmed)")


def check_ng_q1(g: Graph) -> BoundReport:
    """Bound q_1(G) + q_1(complement G) <= 3n - 4, equality only for stars."""
    rhs = Fraction(3 * g.n - 4)
    if g.n < 2:
        return _na(g, "q1-sum", rhs, "requires n >= 2")
    return _sum_bound(g, "q1-sum", "<=", rhs, k=1, families=_star_families(g.n))


def check_ng_generic(g: Graph, kind: str, k: int) -> BoundReport:
    """Nordhaus-Gaddum sum of the k-th eigenvalue against its registered bound.

    (Q, 1): <= 3n - 4.  (A, 2): <= -1 + sqrt(n^2/2 - n + 1).  (L, 1): <= 2n - 1.
    Other combinations report the value with no bound attached.
    """
    n = g.n
    if not 1 <= k <= n:
        return _na(g, f"ng-{kind}{k}", None, f"k={k} outside 1..{n}")
    if kind == "Q" and k == 1:
        return check_ng_q1(g)
    if kind == "L" and k == 1:
        return _sum_bound(g, "ng-L1", "<=", Fraction(2 * n - 1), kind="L", k=1)
    if kind == "A" and k == 2:
        return _sum_bound(g, "ng-A2", "<=", Fraction(-1), Fraction(n * n, 2) - n + 1, kind="A")
    return BoundReport(g, f"ng-{kind}{k}", ng_sum(g, kind, k), None, NOT_APPLICABLE,
                       notes="no registered bound for this kind/k")


# ---------------------------------------------------------------------------
# Lemma predicates


def check_lemma26(g: Graph) -> BoundReport:
    """Degree bound on q_1 with equality iff regular or semi-regular bipartite."""
    if not is_connected(g) or g.m == 0:
        return _na(g, "lemma-2.6", None, "requires a connected graph with an edge")
    rhs = max(
        Fraction(g.degree(u) ** 2 + sum(g.degree(v) for v in g.neighbors(u)), g.degree(u))
        for u in range(g.n)
    )
    return decide(g, "lemma-2.6", q_spectrum(g).value(1), rhs, lambda: compare_qk_with(g, 1, rhs), "<=",
                  structure=is_regular(g) or is_semiregular_bipartite(g))


def check_lemma27(g: Graph, edge: tuple[int, int]) -> BoundReport:
    """Strict growth of q_1 when a missing edge is added to a connected graph."""
    u, v = edge
    if not is_connected(g):
        return _na(g, "lemma-2.7", None, "requires a connected graph")
    if g.has_edge(u, v) or u == v:
        return _na(g, "lemma-2.7", None, "requires a non-adjacent vertex pair")
    bigger = g.with_edge(u, v)
    return decide(g, "lemma-2.7", q_spectrum(bigger).value(1), q_spectrum(g).value(1),
                  lambda: compare_q1(bigger, g), ">", violated="STRICT GROWTH VIOLATED (exactly confirmed)")


def check_lemma28(g: Graph) -> BoundReport:
    """q_2 <= n - 2 with equality iff the complement has a balanced bipartite
    component or at least two bipartite components."""
    rhs = Fraction(g.n - 2)
    if g.n < 2:
        return _na(g, "lemma-2.8", rhs, "requires n >= 2")
    cobar = complement(g)
    structure = has_balanced_bipartite_component(cobar) or count_bipartite_components(cobar) >= 2
    return decide(g, "lemma-2.8", q_spectrum(g).value(2), rhs, lambda: compare_qk_with(g, 2, rhs), "<=",
                  structure=structure)


def check_lemma29(g: Graph) -> BoundReport:
    """q_2 >= d_2 - 1; equality forces d_1 = d_2 with top-degree vertices adjacent."""
    if g.n < 2:
        return _na(g, "lemma-2.9", None, "requires n >= 2")
    degs = g.degree_sequence()
    rhs = Fraction(degs[1] - 1)
    report = decide(g, "lemma-2.9", q_spectrum(g).value(2), rhs, lambda: compare_qk_with(g, 2, rhs), ">=")
    if report.verdict == EQUALITY:
        top = [v for v in range(g.n) if g.degree(v) == degs[0]]
        pairwise = all(g.has_edge(u, v) for i, u in enumerate(top) for v in top[i + 1:])
        if not (degs[0] == degs[1] and len(top) >= 2 and pairwise):
            return replace(
                report, verdict=VIOLATED, lhs_exact=None,
                notes="equality consequence mismatch: top degrees must coincide and be pairwise adjacent",
            )
    return report


def check_lemma210(g: Graph) -> BoundReport:
    """Least eigenvalue bound q_n >= 2m/(n-2) - n + 1 for n >= 6."""
    if g.n < 6:
        return _na(g, "lemma-2.10", None, "requires n >= 6")
    rhs = Fraction(2 * g.m, g.n - 2) - g.n + 1
    return decide(g, "lemma-2.10", q_spectrum(g).value(g.n), rhs, lambda: compare_qk_with(g, g.n, rhs), ">=")


THEOREM_CHECKS: dict[str, Callable[[Graph], BoundReport]] = {
    "1.2": check_thm12,
    "1.3": check_thm13,
    "1.4": check_thm14,
    "1.5": check_thm15,
    "1.6": check_thm16,
    "problem1.2": check_problem12,
    "regular": check_regular_bound,
    "2.6": check_lemma26,
    "2.8": check_lemma28,
    "2.9": check_lemma29,
    "2.10": check_lemma210,
}


def run_all_checks(g: Graph) -> list[BoundReport]:
    """Every registered single-graph bound check, in registry order."""
    reports = [check(g) for check in THEOREM_CHECKS.values()]
    reports.append(check_ng_q1(g))
    return reports


# ---------------------------------------------------------------------------
# Parametric proof-step verification


class _Checks:
    """Collects named boolean checks; bool() is the conjunction."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, condition: bool, label: str) -> None:
        if not condition:
            self.failures.append(label)

    def ok(self) -> bool:
        return not self.failures


def _two_by_two_char(entries, den: int = 1) -> list[int]:
    """den^2 det(xI - M) for the 2x2 matrix M = entries / den with integer entries."""
    (a, b), (c, d) = entries
    return [a * d - b * c, -(a + d) * den, den * den]


def proof_check_thm12(n: int, d2: int) -> bool:
    """Exact verification of the quotient algebra behind the n - 2 lower bound.

    For the three parametric 2x2 quotient matrices it certifies the closed
    forms of the second-largest eigenvalues, the discriminant identities that
    turn the bound chain into sign conditions on the quadratics
    f(x) = 4x^2 - (4n-4)x + 6n - 11 and
    g(x) = (n-4)x^2 - (n^2-5n+4)x + n^2 - 4n + 4,
    and the evaluations f(2) = f(n-3) = 13 - 2n, g(2) = g(n-3) = -(n-5)^2 + 5.
    """
    if n < 4 or not 1 <= d2 <= n - 2:
        raise ValueError(f"parameters out of range: n={n}, d2={d2}")
    c = _Checks()
    F = Fraction

    disc = n * n - (4 * d2 - 2) * n + 4 * d2 * d2 + 4 * d2 - 7
    c.expect(disc >= 0, "discriminant nonnegative")

    b1 = ((n - 2, n - 2), (1, 2 * d2 - 1))
    root1 = Surd(F(n + 2 * d2 - 3, 2), F(-1, 2), disc)
    c.expect(polys.poly_eval_surd(_two_by_two_char(b1), root1).is_zero(), "lambda_2 closed form, first quotient")

    b2 = ((n - 2, n - 2), (1, 2 * n - 2 * d2 - 3))
    root2 = Surd(F(3 * n - 2 * d2 - 5, 2), F(-1, 2), disc)
    c.expect(polys.poly_eval_surd(_two_by_two_char(b2), root2).is_zero(), "lambda_2 closed form, second quotient")

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
        root3 = Surd(F(numer, 2 * (n - 2)), F(-1, 2 * (n - 2)), delta)
        c.expect(
            polys.poly_eval_surd(_two_by_two_char(b3, n - 2), root3).is_zero(),
            f"lambda_2 closed form, third quotient at s={s}",
        )
        xval = n * n - 5 * n + 2 * s + 6
        c.expect(xval == (n - 2) * (n - 3) + 2 * s, f"threshold identity at s={s}")
        quad = (n - 2) * d2 * d2 - xval * d2 + (n - 2) ** 2
        c.expect(delta - xval * xval == 4 * (n - 2) * quad, f"discriminant-threshold identity at s={s}")
        if s == d2 - 1:
            c.expect(quad == polys.poly_eval(gq, d2), "substitution s = d2 - 1 yields g(d2)")
    return c.ok()


def _poly_in_n(n: int, coeff_rows: list[list[int]]) -> list[int]:
    """Ascending coefficients, each given as a polynomial in n (ascending)."""
    return [sum(a * n ** i for i, a in enumerate(row)) for row in coeff_rows]


def _count_gt_surd(p, x: Surd) -> int:
    return polys.root_counter(tuple(p)).count_gt(x)


def _verify_h_quotient(c: _Checks, sizes: tuple[int, int, int], expected, expected_co, label: str):
    """Cross-check parametric quotient entries against a concrete graph.

    Only possible while the graph fits the 32-vertex representation; the
    parametric sweep beyond that continues on the fixed-size matrices alone.
    """
    s0, s1, s2 = sizes
    if s0 + s1 + s2 + 2 > 32:
        return None, None
    g = h_graph(s0, s1, s2)
    blocks = h_graph_blocks(s0, s1, s2)
    quot = quotient_matrix(g, blocks)
    c.expect(quot.entries == expected, f"quotient entries {label}")
    c.expect(is_equitable(g, blocks), f"equitable blocks {label}")
    gc = complement(g)
    if expected_co is not None:
        quot_co = quotient_matrix(gc, blocks)
        c.expect(quot_co.entries == expected_co, f"complement quotient entries {label}")
        c.expect(is_equitable(gc, blocks), f"equitable complement blocks {label}")
    return g, gc


def proof_check_thm15(n: int) -> bool:
    """Exact verification of the quotient algebra behind the bipartite bound.

    Reproduces the block quotient matrices of the four relevant double-hub
    bipartite graphs and complements, matches every characteristic polynomial
    coefficient-for-coefficient against the closed forms in n, verifies all
    root formulas and sign evaluations exactly, and certifies the two
    second-eigenvalue equalities by exact root isolation.  While the orders
    fit the 32-vertex graph type the matrices are also rebuilt from actual
    graphs; beyond that the sweep continues on the fixed-size matrices.
    """
    if n < 8:
        raise ValueError("requires n >= 8")
    c = _Checks()
    F = Fraction
    disc = n * n - 8 * n + 20
    beta2 = Surd(F(n - 2, 2), F(1, 2), disc)

    # -- double hub over blocks (n-5, 1, 2): second eigenvalue below n - 3
    expected = (
        (2, 0, 0, 1, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1),
        (n - 5, 1, 0, n - 4, 0),
        (n - 5, 0, 2, 0, n - 3),
    )
    _verify_h_quotient(c, (n - 5, 1, 2), expected, None, "(n-5,1,2)")
    phi = char_poly_exact(expected).as_poly()
    quartic = _poly_in_n(n, [[0, -5, 1], [-2, 8, -2], [-4, -1, 1], [3, -2], [1]])
    c.expect(phi == polys.poly_mul([0, 1], quartic), "char poly x*f (n-5,1,2)")
    c.expect(polys.poly_eval(quartic, n - 3) == -(n - 5) * (n - 6), "f(n-3) evaluation")
    c.expect(-(n - 5) * (n - 6) < 0, "f(n-3) negative")
    c.expect(-phi[4] == 2 * n - 3, "quotient trace (n-5,1,2)")
    c.expect(3 * (n - 3) > 2 * n - 3, "trace rules out three roots above n-3")

    # -- double hub over blocks (n-4, 1, 1): q_2 equals (n-2+sqrt(n^2-8n+20))/2
    expected2 = (
        (2, 0, 0, 1, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1),
        (n - 4, 1, 0, n - 3, 0),
        (n - 4, 0, 1, 0, n - 3),
    )
    expected3 = (
        (2 * n - 8, 1, 1, 0, 0),
        (n - 4, n - 2, 1, 0, 1),
        (n - 4, 1, n - 2, 1, 0),
        (0, 0, 1, 2, 1),
        (0, 1, 0, 1, 2),
    )
    g2, g2c = _verify_h_quotient(c, (n - 4, 1, 1), expected2, expected3, "(n-4,1,1)")
    phi2 = char_poly_exact(expected2).as_poly()
    c.expect(polys.poly_eval_surd(phi2, beta2).is_zero(), "beta_2 is a quotient eigenvalue")
    c.expect(_count_gt_surd(phi2, beta2) == 1, "exactly one quotient eigenvalue above beta_2")
    c.expect((beta2 - 2).sign() == 1, "beta_2 exceeds the replicated eigenvalue 2")
    if g2 is not None:
        dup = [d for d in duplicate_classes(g2) if 0 in d.vertices]
        c.expect(
            bool(dup) and dup[0].kind == "independent" and dup[0].degree == 2 and len(dup[0].vertices) == n - 4,
            "independent duplicate block of degree 2",
        )
        c.expect(abs(q_spectrum(g2).value(2) - float(beta2)) < 1e-8, "float q_2 matches beta_2")

    phi3 = char_poly_exact(expected3).as_poly()
    cubic = _poly_in_n(n, [[-56, 38, -6], [-12, -3, 2], [6, -3], [1]])
    f2 = _poly_in_n(n, [[-4, 1], [2, -1], [1]])
    c.expect(phi3 == polys.poly_mul(cubic, f2), "complement char poly f_1*f_2")
    c.expect(polys.poly_eval_surd(f2, beta2).is_zero(), "gamma_1' root formula")
    gamma2 = Surd(F(n - 2, 2), F(-1, 2), disc)
    c.expect(polys.poly_eval_surd(f2, gamma2).is_zero(), "gamma_2' root formula")
    c.expect(polys.poly_eval(cubic, 2 * n - 6) == -4 * n + 16, "f_1(2n-6) evaluation")
    c.expect(-4 * n + 16 < 0, "f_1(2n-6) negative")
    f1_at = polys.poly_eval_surd(cubic, beta2)
    claim = Surd(F(-2 * (n - 4) * (n - 3)), F(2 * (n - 4)), disc)
    c.expect((f1_at - claim).is_zero(), "f_1(gamma_1') closed form")
    c.expect(f1_at.sign() == -1, "f_1(gamma_1') negative")
    c.expect(_count_gt_surd(phi3, beta2) == 1, "exactly one complement quotient eigenvalue above gamma_1'")
    c.expect((beta2 - (n - 4)).sign() == 1, "gamma_1' exceeds the replicated eigenvalue n-4")
    if g2c is not None:
        dupc = [d for d in duplicate_classes(g2c) if 0 in d.vertices]
        c.expect(
            bool(dupc) and dupc[0].kind == "clique" and dupc[0].degree == n - 3 and len(dupc[0].vertices) == n - 4,
            "clique duplicate block of degree n-3 in the complement",
        )
        c.expect(abs(q_spectrum(g2c).value(2) - float(beta2)) < 1e-8, "float q_2 of complement matches gamma_1'")
    total = Surd(F(2 * n - 5), F(0), disc) - (beta2 + beta2)
    c.expect(total.sign() == 1, "equal second eigenvalues stay below 2n-5")

    # -- single hub side empty, blocks (n-4, 0, 2)
    expected4 = ((2, 0, 1, 1), (0, 1, 0, 1), (n - 4, 0, n - 4, 0), (n - 4, 2, 0, n - 2))
    _verify_h_quotient(c, (n - 4, 0, 2), expected4, None, "(n-4,0,2)")
    phi4 = char_poly_exact(expected4).as_poly()
    cubic4 = _poly_in_n(n, [[0, 4, -1], [-2, -2, 1], [3, -2], [1]])
    c.expect(phi4 == polys.poly_mul([0, 1], cubic4), "char poly x*f (n-4,0,2)")
    c.expect(polys.poly_eval(cubic4, n - 3) == 6 - n, "f(n-3) evaluation, (n-4,0,2)")
    c.expect(6 - n <= 0, "f(n-3) nonpositive, (n-4,0,2)")
    c.expect(3 * (n - 3) >= 2 * n - 3, "trace argument, (n-4,0,2)")

    # -- single hub side empty, blocks (n-3, 0, 1)
    expected5 = ((2, 0, 1, 1), (0, 1, 0, 1), (n - 3, 0, n - 3, 0), (n - 3, 1, 0, n - 2))
    expected6 = ((2 * n - 7, 1, 0, 0), (n - 3, n - 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 1))
    g5, g5c = _verify_h_quotient(c, (n - 3, 0, 1), expected5, expected6, "(n-3,0,1)")
    phi5 = char_poly_exact(expected5).as_poly()
    cubic5 = _poly_in_n(n, [[0, 3, -1], [-2, -1, 1], [2, -2], [1]])
    c.expect(phi5 == polys.poly_mul([0, 1], cubic5), "char poly x*g (n-3,0,1)")
    c.expect(polys.poly_eval(cubic5, F(2 * n - 5, 2)) == F(-2 * n + 15, 8), "g(n-5/2) evaluation")
    c.expect(F(-2 * n + 15, 8) < 0, "g(n-5/2) negative")

    phi6 = char_poly_exact(expected6).as_poly()
    quartic6 = _poly_in_n(n, [[24, -14, 2], [-48, 35, -6], [-10, -3, 2], [6, -3], [1]])
    c.expect(phi6 == quartic6, "complement char poly (n-3,0,1)")
    c.expect(polys.poly_eval(quartic6, 2 * n - 6) == -4 * (n - 3) * (n - 4), "phi(2n-6) evaluation")
    c.expect(-4 * (n - 3) * (n - 4) < 0, "phi(2n-6) negative")
    val = polys.poly_eval(quartic6, F(2 * n - 5, 2))
    c.expect(val == F(-(2 * n - 11) * (4 * n * n - 24 * n + 39), 16), "phi(n-5/2) evaluation")
    c.expect(val < 0, "phi(n-5/2) negative")
    if g5 is not None:
        dup5 = [d for d in duplicate_classes(g5) if 0 in d.vertices]
        c.expect(
            bool(dup5) and dup5[0].kind == "independent" and dup5[0].degree == 2 and len(dup5[0].vertices) == n - 3,
            "independent duplicate block of degree 2, (n-3,0,1)",
        )
        dup5c = [d for d in duplicate_classes(g5c) if 0 in d.vertices]
        c.expect(
            bool(dup5c) and dup5c[0].kind == "clique" and dup5c[0].degree == n - 3 and len(dup5c[0].vertices) == n - 3,
            "clique duplicate block in complement, (n-3,0,1)",
        )
    return c.ok()
