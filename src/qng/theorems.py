"""Executable certifying predicates for the registered eigenvalue bounds.

The bounds are one table of ``Row``s.  A row bounds lambda_k(G) +
lambda_k(complement G) of one matrix kind (Theorems 1.2-1.6, Problem 1.2, the
regular bound and the registered Nordhaus-Gaddum sums) or lambda_k(Q(G))
alone (Lemmas 2.6, 2.8, 2.9 and 2.10, with their equality characterizations),
by a*n + b (+ sqrt(rad)) or by a bound of G.  A row names its minimum order and
its ``HYPOTHESES`` (a scan filter's name means that ``enumeration.FILTERS``
entry), is called like the function it replaced and keeps its name; a scan
predicate is the rows that exclude its members (``SumPredicate``).  Lemma 2.7
takes an edge and stays a function.

Every check ends in one call of ``decide``, the bound driver: the float
decides only a sign that satisfies the bound and lies more than
``ESCALATION_WINDOW`` from it (``float_sign``, the one copy of that rule),
and every other sign comes from exact arithmetic, so every equality and
every violation is certified.  A row's extremal families are data, (name,
``graph.BlowUp``) pairs built once at import, at the symbolic n (a
``polys.MPoly``) or as a fixed graph; a certified equality is matched against
those that ``BlowUp.at`` names at its order, by an explicit isomorphism
witness onto the family's graph, and a lemma's equality characterization
must hold exactly.  A scan hands a row or a predicate a
whole chunk (``verdicts``), which ``Row.screen`` compares as arrays, read off
the ``spectra.Chunk`` holding them, under the same rule; only the graphs it
leaves undecided are checked one by one.  ``ng_check`` gives a row for every
(kind, k), with no bound where ``NG_BOUNDS`` has none.  ``run_all_checks``
runs every row on g's kept chunk of one, so the rows share its screens.

The two ``proof_check_*`` functions re-derive, in exact arithmetic, the
quotient-matrix algebra that the extremal characterizations rest on: closed
forms for second-largest quotient eigenvalues, polynomial identities between
discriminants, and the signs that locate roots.  Each proves its identities
and sign facts once, over polynomials (``polys.MPoly``) and for every n from
an n0, and leaves a call only its range check and the graph identities below.
Theorem 1.5's blow-ups are ``graph.BlowUp``s at a symbolic n, whose
``quotient`` is their quotient over Z[n], and while an order's blown-up graphs
fit 32 vertices each, named at that order by ``BlowUp.at``, is tied to its
integer quotient by one integer matrix identity; Theorem 1.2's three 2x2
matrices are bounds in d2 and s, not quotients of a blow-up, and are written
out over Z[n, d2, s].  Both theorems' char polys come from ``polys.char_poly``,
and no proof check reads a float.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files
from math import sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from . import polys
from .graph import (
    MAX_VERTICES,
    BlowUp,
    Graph,
    _complement_rows,
    component_colorings,
    double_hub,
    from_graph6,
    is_connected,
    is_regular,
    is_semiregular_bipartite,
    to_graph6,
)
from .enumeration import FILTERS, isomorphism_witness
from .polys import ESCALATION_WINDOW, Surd
from .spectra import (
    compare_q1,
    compare_qk_with,
    compare_sum_with,
    holding,
    ng_sum,
    q_matrix,
    spectrum,
)

STRICT = "strict"
EQUALITY = "equality-certified"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


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
    family: Optional[str] = None  # the matched extremal family of an equality
    witness: Optional[tuple[int, ...]] = None  # a verified isomorphism onto it
    notes: str = ""

    @property
    def graph6(self) -> str:
        return to_graph6(self.graph)

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
            "witness": None if self.witness is None else list(self.witness),
            "notes": self.notes,
        }


def _na(g: Graph, bound: str, rhs, notes: str) -> BoundReport:
    return BoundReport(g, bound, None, rhs, NOT_APPLICABLE, notes=notes)


# ---------------------------------------------------------------------------
# Extremal family catalogues


def _on_vertices(n: int, edges) -> BlowUp:
    """The graph on 0..n-1 with ``edges``, pairs u < v, as the blow-up of its own vertices."""
    return BlowUp((1,) * n, (False,) * n, frozenset(edges))


def bipartite_equality_catalogue() -> tuple[str, ...]:
    """Frozen canonical forms of the order-6 bipartite extremal graphs."""
    text = (files("qng") / "data" / "bipartite_equality_n6.g6").read_text()
    return tuple(line.strip() for line in text.splitlines() if line.strip())


# Each catalogue is (name, ``BlowUp``) pairs, built once at the symbolic n: ``BlowUp.at`` names a
# family at each order where its cells are nonempty and its sizes sum to that order.
_N, = polys.MPoly.variables("n")
_K33 = BlowUp((3, 3), (False, False), frozenset({(0, 1)}))
_STAR = BlowUp((1, _N - 1), (False, False), frozenset({(0, 1)}))
_STAR_FAMILIES = ("K_{1,n-1}", _STAR), ("complement-of-K_{1,n-1}", _STAR.complement())
_LOWER_BOUND_FAMILIES = (
    ("K_n", BlowUp((_N,), (True,))), ("nK_1", BlowUp((_N,), (False,))), _STAR_FAMILIES[0],
    ("K_{n-1}∪K_1", BlowUp((_N - 1, 1), (True, False))),
    ("(2K_1)∇K_{n-2}", BlowUp((2, _N - 2), (False, True), frozenset({(0, 1)}))),
    ("K_2∪(n-2)K_1", BlowUp((2, _N - 2), (True, False))))
_UPPER_BOUND_FAMILIES = (("K_2", _on_vertices(2, [(0, 1)])), ("P_4", _on_vertices(4, [(0, 1), (1, 2), (2, 3)])),
                         ("C_4", _on_vertices(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
_HUB = frozenset({(0, 2), (1, 2)})
_COBAR_DISCONNECTED_FAMILIES = (
    ("(K_2∪K_{n-3})∇K_1", BlowUp((2, _N - 3, 1), (True, True, False), _HUB)),
    ("(2K_2)∇(3K_1)", BlowUp((2, 2, 3), (True, True, False), _HUB)), ("K_{3,3}", _K33),
    ("(K_1∪K_2)∇(K_1∪K_2)", BlowUp((1, 2, 1, 2), (False, True, False, True),
                                  frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))))
# the order-6 catalogue, read at import: a bipartite graph of order 6 has at most 3*3 = 9 edges, and only K_{3,3} has 9
_BIPARTITE_EQUALITY_FAMILIES = tuple(
    ("K_{3,3}" if len(edges) == 9 else f"bipartite-extremal-n6#{i}", _on_vertices(6, edges))
    for i, edges in enumerate((from_graph6(g6).edges() for g6 in bipartite_equality_catalogue()), start=1))
# Theorem 1.5's six blow-ups by label, four double hubs and the complements of two: a cell size is
# n minus a constant or a constant, so every n >= 8 has one cell layout, whose quotients over Z[n]
# these give.
_HUB2, _HUB5 = double_hub(_N - 4, 1, 1), double_hub(_N - 3, 0, 1)
_THM15_BLOW_UPS = {"(n-5,1,2)": double_hub(_N - 5, 1, 2), "(n-4,1,1)": _HUB2,
                   "complement (n-4,1,1)": _HUB2.complement(), "(n-4,0,2)": double_hub(_N - 4, 0, 2),
                   "(n-3,0,1)": _HUB5, "complement (n-3,0,1)": _HUB5.complement()}


def _match_family(g: Graph, families) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first family whose graph ``g`` is isomorphic to, with a verified isomorphism onto it."""
    for name, member in families:
        witness = isomorphism_witness(g, member.graph())
        if witness is not None:
            return name, witness
    return None


# ---------------------------------------------------------------------------
# The bound driver

#: Signs of (value - bound) that satisfy each relation.
RELATION_SIGNS = {"<=": (-1, 0), "<": (-1,), ">=": (0, 1), ">": (1,)}

#: The signs a float may decide: those that satisfy the relation strictly.
_FLOAT_SIGNS = {rel: tuple(s for s in signs if s) for rel, signs in RELATION_SIGNS.items()}


def float_sign(approx, target, trusted: tuple[int, ...] = (-1, 1)):
    """The sign of approx - target that the float decides, or 0 where it may not.

    A float decides a sign only if it is listed in ``trusted`` and ``approx``
    lies more than ``ESCALATION_WINDOW`` from ``target``.  ``approx`` and
    ``target`` are floats or float64 arrays; on arrays the sign is taken
    elementwise, with the same IEEE subtraction and comparison.
    """
    above = int(1 in trusted) * (approx - target > ESCALATION_WINDOW)
    below = int(-1 in trusted) * (target - approx > ESCALATION_WINDOW)
    return above - below


def decide(g: Graph, bound: str, lhs: float, rhs, exact: Callable[[], int], relation: str, *,
           families: tuple[tuple[str, BlowUp], ...] = (), structure: Optional[bool] = None,
           violated: str = "BOUND VIOLATED (exactly confirmed)", rhs_exact: Optional[str] = None) -> BoundReport:
    """The report of ``value relation rhs`` for the quantity screened by ``lhs``.

    ``exact()`` is the exact sign of value - rhs, called unless ``float_sign``
    decides a sign that satisfies the relation.  A certified equality is
    matched against the (name, ``graph.BlowUp``) pairs of ``families`` named at g's
    order (``BlowUp.at``), and flagged only where some family is.  With ``structure``
    given (a row's equality characterization on g), equality must
    hold exactly when it is true, and the float may not skip the exact step
    while it is true.  ``rhs_exact`` is the exact text of a float ``rhs``.
    """
    holds = RELATION_SIGNS[relation]
    sign = float_sign(lhs, float(rhs), () if structure else _FLOAT_SIGNS[relation])
    certified = sign == 0
    sign = sign or exact()
    verdict, notes, match = STRICT, "", None
    if sign not in holds:
        verdict, notes = VIOLATED, violated
    elif structure is not None and (sign == 0) != structure:
        verdict = VIOLATED
        notes = f"equality characterization mismatch: equality={sign == 0}, structure={structure}"
    elif sign == 0:
        verdict = EQUALITY
        named = [(name, b) for name, member in families if (b := member.at(g.n)) is not None]
        if named:
            match = _match_family(g, named)
            notes = "" if match else "EQUALITY OUTSIDE KNOWN EXTREMAL FAMILIES"
    family, witness = match or (None, None)
    return BoundReport(
        g, bound, lhs, rhs, verdict, certified=certified,
        lhs_exact=(rhs_exact or str(rhs)) if verdict == EQUALITY else None,
        family=family, witness=witness, notes=notes,
    )


# ---------------------------------------------------------------------------
# The bounds as data


@lru_cache(maxsize=None)
def _affine(a, b, n: int) -> Fraction:
    """a*n + b, built once per order: a row's terms are built for every graph of a scan."""
    return Fraction(a * n + b)


@dataclass(frozen=True)
class Row:
    """A row of the bound table: lambda_k(G) + lambda_k(complement G) of the matrix
    ``kind`` (``sum``), or lambda_k(Q(G)) alone, against a bound.

    ``rhs`` is ``(a, b)``, the bound a*n + b, or a function of the graph returning a
    ``Fraction``; with ``rad``, a function of the graph, the bound is rhs + sqrt(rad(g)).
    A single eigenvalue is bounded on Q by a rational: other rows raise ``ValueError``.
    ``k`` is an int or a function of n.  ``families`` are the extremal families, (name,
    ``graph.BlowUp``) pairs, of which ``decide`` names those at g's order (``BlowUp.at``).
    ``structure`` is the equality characterization: equality must hold exactly where it
    does (``decide``).  A certified equality that fails ``consequence``, a (test, note)
    pair, is violated with that note.

    Called on a graph, a row is its own check: a graph below ``min_n``, failing a
    hypothesis of ``requires`` (in order) or with fewer than k vertices is not
    applicable, and otherwise ``_report`` decides it against the row's terms on the
    graph (``_terms``); a row with no bound (``relation`` and ``rhs`` None) reports the
    sum as not applicable.  A scan hands a whole chunk to ``verdicts``.  Fields are
    module-level functions or data, so a row pickles into scan workers.
    """

    name: str
    bound: str
    relation: Optional[str]
    rhs: tuple | Callable[[Graph], Fraction] | None
    rad: Optional[Callable[[Graph], Fraction]] = None
    min_n: int = 0
    requires: tuple[str, ...] = ()
    kind: str = "Q"
    k: int | Callable[[int], int] = 2
    sum: bool = True
    families: tuple[tuple[str, BlowUp], ...] = ()
    structure: Optional[Callable[[Graph], bool]] = None
    consequence: Optional[tuple[Callable[[Graph], bool], str]] = None

    def __post_init__(self):
        if not self.sum and (self.kind != "Q" or self.rad):
            raise ValueError(f"row {self.name}: a single eigenvalue is bounded on Q by a rational")
        # named like a function: scans print __name__, and functools.wraps copies both for pickling by reference
        object.__setattr__(self, "__name__", self.name)
        object.__setattr__(self, "__qualname__", self.name)

    def assuming(self, established) -> "Row":
        """This row, under its name, for graphs that passed the scan filters named in
        ``established``: a hypothesis of such a name is that filter, not tested again."""
        requires = tuple(name for name in self.requires if name not in established)
        return self if requires == self.requires else replace(self, requires=requires)

    def _index(self, n: int) -> int:
        return self.k(n) if callable(self.k) else self.k

    def _inapplicable(self, g: Graph) -> Optional[str]:
        """The note of a graph the row does not apply to, else None."""
        if g.n < self.min_n:
            return f"requires n >= {self.min_n}"
        for test, note in map(HYPOTHESES.__getitem__, self.requires):
            if not test(g):
                return note
        k = self._index(g.n)
        return None if 1 <= k <= g.n else f"k={k} outside 1..{g.n}"

    def _terms(self, g: Graph) -> tuple[Fraction, Optional[Fraction], Optional[bool]]:
        """The base of the bound on g, its radicand and whether the characterization holds."""
        base = self.rhs(g) if callable(self.rhs) else _affine(*self.rhs, g.n)
        return base, self.rad(g) if self.rad else None, self.structure(g) if self.structure else None

    def screen(self, graphs: Sequence[Graph], terms: Sequence[tuple]) -> np.ndarray:
        """The signs of value - bound that ``float_sign`` decides for ``graphs`` of one order, read
        off the ``spectra.Chunk`` holding the first (``spectra.holding``), 0 where it may not.  A
        single eigenvalue is column k of the chunk's Q screen; a sum is first its interval off the
        graph's own spectrum (``Chunk.sum_bounds``), lower end for a sign above the bound and upper
        end for one below, then the sums (``Chunk.sums``) still undecided.  Wherever the equality
        characterization holds the sign is 0."""
        n, trusted, chunk = graphs[0].n, _FLOAT_SIGNS[self.relation], holding(graphs[0])
        k = self._index(n)
        targets = (np.array([float(base) for base, _, _ in terms]) if callable(self.rhs)
                   else np.full(len(terms), float(terms[0][0])))  # a base of n alone: one float per chunk
        if self.rad:
            targets += [sqrt(rad) for _, rad, _ in terms]
        if not self.sum:
            signs = float_sign(chunk.column(graphs, "Q", k), targets, trusted)
        else:
            lo, hi = chunk.sum_bounds(graphs, self.kind, k)
            signs = float_sign(lo, targets, tuple(s for s in trusted if s > 0)) + float_sign(
                hi, targets, tuple(s for s in trusted if s < 0))
            undecided = np.flatnonzero(signs == 0)
            if undecided.size:
                sums = chunk.sums([graphs[j] for j in undecided], self.kind, k)
                signs[undecided] = float_sign(sums, targets[undecided], trusted)
        return np.where([bool(structure) for *_, structure in terms], 0, signs)

    def verdicts(self, graphs: Sequence[Graph]) -> list[str]:
        """``[self(g).verdict for g in graphs]`` for members of the current scan chunk: the
        terms of each graph the row applies to are built once, a graph whose sign the float
        decides (``screen``) is strict, and only the rest are reported, one by one; with no
        bound, no screen is read."""
        out = [None if self.relation and self._inapplicable(g) is None else NOT_APPLICABLE for g in graphs]
        screened = [i for i, verdict in enumerate(out) if verdict is None]
        if screened:
            chunk = [graphs[i] for i in screened]
            terms = list(map(self._terms, chunk))
            for i, sign, t in zip(screened, self.screen(chunk, terms).tolist(), terms):
                out[i] = STRICT if sign else self._report(graphs[i], t).verdict
        return out

    def __call__(self, g: Graph) -> BoundReport:
        note = self._inapplicable(g)
        if note is None and self.relation is None:
            return BoundReport(g, self.bound, ng_sum(g, self.kind, self._index(g.n)), None, NOT_APPLICABLE,
                               notes="no registered bound for this kind/k")
        if note is None:
            return self._report(g, self._terms(g))
        fixed = isinstance(self.rhs, tuple) and not self.rad  # only a bound of n alone is reported with the note
        return _na(g, self.bound, _affine(*self.rhs, g.n) if fixed else None, note)

    def _report(self, g: Graph, terms: tuple) -> BoundReport:
        """The report against the bound built once: the base, or base + sqrt(rad) from
        ``polys.base_plus_sqrt``, a ``Fraction`` or a ``Surd``."""
        (base, rad, structure), kind, k = terms, self.kind, self._index(g.n)
        bound = rhs = base
        text = None
        if rad is not None:
            bound, rhs = polys.base_plus_sqrt(base, rad), float(base) + sqrt(rad)
            text = f"{base}+sqrt({rad})" if isinstance(bound, Surd) else str(bound)
        if self.sum:
            lhs, exact = ng_sum(g, kind, k), lambda: compare_sum_with(g, kind, k, bound)
        else:
            lhs, exact = spectrum(g, "Q").value(k), lambda: compare_qk_with(g, k, bound)
        strict = "STRICT " if self.relation in ("<", ">") else ""
        report = decide(g, self.bound, lhs, rhs, exact, self.relation, families=self.families, structure=structure,
                        violated=f"{strict}BOUND VIOLATED (exactly confirmed)", rhs_exact=text)
        if self.consequence and report.verdict == EQUALITY and not self.consequence[0](g):
            return replace(report, verdict=VIOLATED, lhs_exact=None, notes=self.consequence[1])
        return report


def _q2_at_most_n_minus_3(g: Graph) -> bool:
    """q_2(G) <= n - 3, the float trusted on either sign beyond ``ESCALATION_WINDOW``; no report."""
    bound = Fraction(g.n - 3)
    return (float_sign(spectrum(g, "Q").value(2), float(bound)) or compare_qk_with(g, 2, bound)) <= 0


#: Named hypotheses of the bound rows: a test, and the note of a graph that
#: fails it.  A hypothesis that is also a scan filter is that filter.
HYPOTHESES: dict[str, tuple[Callable[[Graph], bool], str]] = {
    "connected": (FILTERS["connected"], "requires a connected graph"),
    "cobar-disconnected": (FILTERS["cobar-disconnected"], "requires a disconnected complement"),
    "bipartite": (FILTERS["bipartite"], "requires a bipartite graph"),
    "regular": (FILTERS["regular"], "requires a regular graph"),
    "non-complete": (lambda g: g.m < g.n * (g.n - 1) // 2, "requires a non-complete graph"),
    "connected-with-edge": (lambda g: g.m > 0 and is_connected(g), "requires a connected graph with an edge"),
    "q2<=n-3": (_q2_at_most_n_minus_3, "hypothesis q_2 <= n - 3 fails"),
}


class SumPredicate:
    """Membership of the q_2 sum in the set that the rows ``(relation, bound)`` exclude.

    ``sum-open-interval LO HI`` is rows ``<= LO`` and ``>= HI``, ``sum-eq C`` rows ``< C``
    and ``> C``.  A member, every row ``violated`` (from exact arithmetic only), is
    ``equality-certified``, any other graph a ``non-member``, and one with no q_2
    ``not-applicable``.  A row's float decides only its strict side, a rejection, so a
    chunk is rejected by every row's ``screen`` before any row is called.
    """

    def __init__(self, name: str, relations: Sequence[tuple[str, Fraction]]):
        self.__name__ = name
        self.rows = tuple(Row(name, name, relation, (0, bound)) for relation, bound in relations)

    def verdicts(self, graphs: Sequence[Graph]) -> list[str]:
        """The verdicts of ``graphs``, members of the current scan chunk."""
        out = [None if self.rows[0]._inapplicable(g) is None else NOT_APPLICABLE for g in graphs]
        pending = [i for i, verdict in enumerate(out) if verdict is None]
        if pending:
            chunk = [graphs[i] for i in pending]
            rejected = np.any([row.screen(chunk, list(map(row._terms, chunk))) for row in self.rows], axis=0)
            for i, reject in zip(pending, rejected.tolist()):
                member = not reject and all(row(graphs[i]).verdict == VIOLATED for row in self.rows)
                out[i] = EQUALITY if member else "non-member"
        return out


def _regular_radicand(g: Graph) -> Fraction:
    k = g.degree(0)
    return Fraction(2 * g.n * k * (g.n - k - 1), g.n - 1)


def _ng_a2_radicand(g: Graph) -> Fraction:
    return Fraction(g.n * g.n, 2) - g.n + 1


# Theorems 1.2-1.6 and Problem 1.2 bound q_2(G) + q_2(complement G); the
# regular bound is strict, n - 2 + sqrt(2nk(n-k-1)/(n-1)) for k-regular G.
check_thm12 = Row("check_thm12", "thm-1.2", ">=", (1, -2), min_n=4, families=_LOWER_BOUND_FAMILIES)
check_thm13 = Row("check_thm13", "thm-1.3", "<=", (2, -4), min_n=2, requires=("connected",),
                  families=_UPPER_BOUND_FAMILIES)
check_problem12 = Row("check_problem12", "problem-1.2", "<=", (2, -5), min_n=6, requires=("connected",))
check_thm14 = Row("check_thm14", "thm-1.4", "<=", (2, -5), min_n=6,
                  requires=("connected", "cobar-disconnected"), families=_COBAR_DISCONNECTED_FAMILIES)
check_thm15 = Row("check_thm15", "thm-1.5", "<=", (2, -5), min_n=6, requires=("connected", "bipartite"),
                  families=_BIPARTITE_EQUALITY_FAMILIES)
check_thm16 = Row("check_thm16", "thm-1.6", "<=", (2, -5), min_n=6, requires=("connected", "q2<=n-3"),
                  families=_BIPARTITE_EQUALITY_FAMILIES)
check_regular_bound = Row("check_regular_bound", "regular-bound", "<", (1, -2), _regular_radicand,
                          requires=("connected", "regular", "non-complete"))
# q_1(G) + q_1(complement G) <= 3n - 4, with equality only for stars.
check_ng_q1 = Row("check_ng_q1", "q1-sum", "<=", (3, -4), min_n=2, k=1, families=_STAR_FAMILIES)

#: The rows of ``check_ng_generic`` by (kind, k).
NG_BOUNDS = {
    ("Q", 1): check_ng_q1,
    ("L", 1): Row("ng-L1", "ng-L1", "<=", (2, -1), kind="L", k=1),
    ("A", 2): Row("ng-A2", "ng-A2", "<=", (0, -1), _ng_a2_radicand, kind="A"),
}


def ng_check(kind: str, k: int) -> Row:
    """The row named ng-{kind}{k}: that of (kind, k) in ``NG_BOUNDS``, else one with no
    bound, which reports the sum as not applicable and whose scan reads no screen."""
    if (kind, k) in NG_BOUNDS:
        return replace(NG_BOUNDS[kind, k], name=f"ng-{kind}{k}")
    return Row(f"ng-{kind}{k}", f"ng-{kind}{k}", None, None, kind=kind, k=k)


def check_ng_generic(g: Graph, kind: str, k: int) -> BoundReport:
    """Nordhaus-Gaddum sum of the k-th eigenvalue against its row in ``NG_BOUNDS``, else
    reported with no bound attached (``ng_check``)."""
    return (NG_BOUNDS.get((kind, k)) or ng_check(kind, k))(g)


# ---------------------------------------------------------------------------
# Lemma predicates: rows, but for Lemma 2.7, which takes an edge


def _degree_ratio(g: Graph) -> Fraction:  # Lemma 2.6: q_1 <= max_u (d_u^2 + sum of its neighbours' degrees) / d_u
    """The maximum, picked by integer cross-multiplication; every d_u > 0 on the row's graphs."""
    degrees = g.degrees()
    num, den = 0, 1
    for u, d in enumerate(degrees):
        top = d * d + sum(map(degrees.__getitem__, g.neighbors(u)))
        if top * den > num * d:
            num, den = top, d
    return Fraction(num, den)


def _regular_or_semiregular_bipartite(g: Graph) -> bool:  # equality in Lemma 2.6
    return is_regular(g) or is_semiregular_bipartite(g)


def _complement_bipartite_parts(g: Graph) -> bool:
    """Equality in Lemma 2.8, q_2 <= n - 2: the complement has a balanced bipartite
    component or at least two bipartite components."""
    bipartite = [c for c in component_colorings(_complement_rows(g)) if c is not None]
    return len(bipartite) >= 2 or any(a.bit_count() == b.bit_count() for a, b in bipartite)


def _second_degree_less_one(g: Graph) -> Fraction:  # Lemma 2.9: q_2 >= d_2 - 1
    return Fraction(g.degree_sequence()[1] - 1)


def _top_degrees_adjacent(g: Graph) -> bool:  # forced by equality in Lemma 2.9: d_1 = d_2, top degrees adjacent
    degrees = g.degrees()
    d1 = max(degrees)
    top = [v for v, d in enumerate(degrees) if d == d1]
    return len(top) >= 2 and all(g.has_edge(u, v) for i, u in enumerate(top) for v in top[i + 1:])


def _edge_density_bound(g: Graph) -> Fraction:  # Lemma 2.10: q_n >= 2m/(n-2) - n + 1
    return Fraction(2 * g.m, g.n - 2) - g.n + 1


def _least(n: int) -> int:
    return n


check_lemma26 = Row("check_lemma26", "lemma-2.6", "<=", _degree_ratio, k=1, sum=False,
                    structure=_regular_or_semiregular_bipartite, requires=("connected-with-edge",))
check_lemma28 = Row("check_lemma28", "lemma-2.8", "<=", (1, -2), min_n=2, sum=False,
                    structure=_complement_bipartite_parts)
check_lemma29 = Row("check_lemma29", "lemma-2.9", ">=", _second_degree_less_one, min_n=2, sum=False, consequence=(
    _top_degrees_adjacent, "equality consequence mismatch: top degrees must coincide and be pairwise adjacent"))
check_lemma210 = Row("check_lemma210", "lemma-2.10", ">=", _edge_density_bound, min_n=6, k=_least, sum=False)


def check_lemma27(g: Graph, edge: tuple[int, int]) -> BoundReport:
    """Strict growth of q_1 when a missing edge is added to a connected graph."""
    u, v = edge
    if not is_connected(g):
        return _na(g, "lemma-2.7", None, "requires a connected graph")
    if g.has_edge(u, v) or u == v:
        return _na(g, "lemma-2.7", None, "requires a non-adjacent vertex pair")
    bigger = g.with_edge(u, v)
    return decide(g, "lemma-2.7", spectrum(bigger, "Q").value(1), spectrum(g, "Q").value(1),
                  lambda: compare_q1(bigger, g), ">", violated="STRICT GROWTH VIOLATED (exactly confirmed)")


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
    """Every registered single-graph bound check, in registry order.  They read g's kept
    chunk of one (``spectra.holding``), so g and its complement are screened once per kind."""
    return [*(check(g) for check in THEOREM_CHECKS.values()), check_ng_q1(g)]


# ---------------------------------------------------------------------------
# Parametric proof-step verification


class _Checks(list):
    """The labels of the failed checks: a proof check holds when it is empty."""

    def expect(self, condition: bool, label: str) -> None:
        if not condition:
            self.append(label)


def _sign_from(p, n0: int) -> int:
    """The sign of p at every integer n >= n0, for an ``int`` or an ``MPoly`` p in its first name n, or
    0 if this cannot show one: the zero polynomial, one that mentions d2 or s, or one that fails the
    certificate, Descartes' rule at n0.  If p(n0 + t) (``polys._shift`` of p to n0, whose constant
    coefficient is p(n0)) has nonzero coefficients of one sign only, p has that sign at n0 and no
    root above it, real-rooted or not."""
    if isinstance(p, int):
        return polys._sign(p)
    if not p or any(any(e[1:]) for e in p.terms):
        return 0
    by_degree = {e[0]: c for e, c in p.terms.items()}
    shifted, _ = polys._shift([by_degree.get(i, 0) for i in range(max(by_degree) + 1)], n0, 0, 0, 1)
    return polys._sign(shifted[0]) if len({c > 0 for c in shifted if c}) == 1 else 0


def _surd_sign_from(a, b, d, n0: int) -> int:
    """The sign of a + b sqrt(d) at every integer n >= n0, for a, b and d over Z[n] with d >= 0 from n0,
    or 0 if this cannot show one: ``polys._surd_sign`` with ``_sign_from`` as the sign."""
    return polys._surd_sign(a, b, d, lambda x: _sign_from(x, n0))


@lru_cache(maxsize=None)
def _thm12_identities() -> tuple[str, ...]:
    """The labels of the failed polynomial identities and sign facts behind ``proof_check_thm12``.

    Each is checked once, over Z[n, d2, s]: p at a point of that ring is ``polys.poly_eval``, and a
    closed-form root (u - sqrt(d)) / den of a quotient holds when both parts of ``polys._value_surd``
    at it are the zero polynomial.  The quadratics f(x) = 4x^2 - (4n-4)x + 6n - 11 and
    g(x) = (n-4)x^2 - (n^2-5n+4)x + n^2 - 4n + 4 are written by their coefficients in Z[n]; their
    values at 2 and n - 3 are negative for every n >= 7 and n >= 8, by ``_sign_from``.
    """
    n, d2, s = polys.MPoly.variables("n", "d2", "s")
    c = _Checks()
    disc = n * n - (4 * d2 - 2) * n + 4 * d2 * d2 + 4 * d2 - 7
    c.expect(disc == (n - 2 * d2 + 1) ** 2 + 8 * (d2 - 1), "discriminant is (n - 2d2 + 1)^2 + 8(d2 - 1)")

    b1 = ((n - 2, n - 2), (1, 2 * d2 - 1))
    c.expect(polys._value_surd(polys.char_poly(b1), n + 2 * d2 - 3, -1, disc, 2) == (0, 0),
             "lambda_2 closed form, first quotient")

    b2 = ((n - 2, n - 2), (1, 2 * n - 2 * d2 - 3))
    c.expect(polys._value_surd(polys.char_poly(b2), 3 * n - 2 * d2 - 5, -1, disc, 2) == (0, 0),
             "lambda_2 closed form, second quotient")

    f = [6 * n - 11, -(4 * n - 4), 4]
    c.expect(disc - (n - 2) ** 2 == polys.poly_eval(f, d2), "discriminant reduces to f(d2)")
    c.expect(all(_sign_from(polys.poly_eval(f, x), 7) == -1 for x in (2, n - 3)), "f sign for n >= 7")

    gq = [n * n - 4 * n + 4, -(n * n - 5 * n + 4), n - 4]
    c.expect(all(_sign_from(polys.poly_eval(gq, x), 8) == -1 for x in (2, n - 3)), "g sign for n >= 8")

    def xval(s):
        return n * n - 5 * n + 2 * s + 6

    def quad(s):
        return (n - 2) * d2 * d2 - xval(s) * d2 + (n - 2) ** 2

    # n - 2 times the quotient ((n-2, n-2), (1, 2n - 2d2 - 5 + 2s/(n-2))), for d2 - 1 <= s <= n - 2:
    # its lambda_2 is (numer - sqrt(delta)) / 2, n - 2 times the quotient's
    b3 = (((n - 2) ** 2, (n - 2) ** 2), (n - 2, (2 * n - 2 * d2 - 5) * (n - 2) + 2 * s))
    (a, b), (bl, d) = b3
    numer = (3 * n - 7) * (n - 2) - (2 * n - 4) * d2 + 2 * s
    det = (n - 2) * (2 * n - 2 * d2 - 6) + 2 * s
    delta = numer * numer - 4 * (n - 2) ** 2 * det
    c.expect(numer == a + d, "third numerator is the trace")
    c.expect(b * bl == (n - 2) ** 3 and delta == (a - d) ** 2 + 4 * b * bl,
             "third discriminant is (a - d)^2 + 4(n-2)^3")
    c.expect(polys._value_surd(polys.char_poly(b3), numer, -1, delta, 2) == (0, 0),
             "lambda_2 closed form, third quotient")
    c.expect(xval(s) == (n - 2) * (n - 3) + 2 * s, "threshold identity")
    c.expect(delta - xval(s) ** 2 == 4 * (n - 2) * quad(s), "discriminant-threshold identity")
    c.expect(quad(d2 - 1) == polys.poly_eval(gq, d2), "substitution s = d2 - 1 yields g(d2)")
    return tuple(c)


def proof_check_thm12(n: int, d2: int) -> bool:
    """Exact verification of the quotient algebra behind the n - 2 lower bound.

    For the three parametric 2x2 quotient matrices, the third one for every s with
    d2 - 1 <= s <= n - 2, it certifies the closed forms of the second-largest
    eigenvalues, the discriminant identities that turn the bound chain into sign
    conditions on the quadratics f and g, and those signs: f(2), f(n-3) < 0 for
    n >= 7 and g(2), g(n-3) < 0 for n >= 8.  These are polynomial identities and
    sign facts, proved once for every n, d2 and s by ``_thm12_identities``; with
    d2 >= 1 and n - 2 > 0, which n >= 4 gives, they make both discriminants sums of
    a square and a nonnegative term.  A call checks only its range.
    """
    if n < 4 or not 1 <= d2 <= n - 2:
        raise ValueError(f"parameters out of range: n={n}, d2={d2}")
    return not _thm12_identities()


@lru_cache(maxsize=None)
def _thm15_identities() -> tuple[str, ...]:
    """The labels of the failed polynomial identities and sign facts behind ``proof_check_thm15``.

    Each identity is checked once, over Z[n]: the char polys of the quotients of ``_THM15_BLOW_UPS``,
    built at the symbolic n, come from ``polys.char_poly``, tuples like the closed forms written by their
    coefficients in Z[n] (``MPoly`` expressions in n).  p at a point in Z[n] is ``polys.poly_eval``,
    and ``polys._value_surd`` gives 2^deg(p) p((2n - 5) / 2) at the rational point (2n - 5) / 2 and
    both parts at a closed-form root (n - 2 +- sqrt(n^2 - 8n + 20)) / 2, which holds when both are
    the zero polynomial.  Each sign fact holds for every n >= 8: a value's sign by ``_sign_from``,
    and a sign at beta_2 = (n - 2 + sqrt(n^2 - 8n + 20)) / 2 by ``_surd_sign_from``.  A trace is read
    off its char poly's next-to-leading coefficient.  A count of roots above beta_2 is Descartes' rule
    on p(beta_2 + t), whose coefficients ``polys._shift`` gives up to positive factors, each signed by
    ``_surd_sign_from``: one sign variation is exactly one root, real-rooted or not.
    """
    n, = polys.MPoly.variables("n")
    c = _Checks()
    phis = {label: polys.char_poly(b.quotient()) for label, b in _THM15_BLOW_UPS.items()}
    disc = n * n - 8 * n + 20

    def at_beta2(p, v=1):
        return polys._value_surd(p, n - 2, v, disc, 2)

    def sign_at_beta2(p):
        return _surd_sign_from(*at_beta2(p), disc, 8)

    def taylor_signs_at_beta2(p):  # of the coefficients of 2^deg(p) p(beta_2 + z/2), the shift of p to beta_2
        return [_surd_sign_from(a, b, disc, 8) for a, b in zip(*polys._shift(p, n - 2, 1, disc, 2))]

    # -- double hub over blocks (n-5, 1, 2): second eigenvalue below n - 3
    phi = phis["(n-5,1,2)"]
    quartic = (n * n - 5 * n, -2 * n * n + 8 * n - 2, n * n - n - 4, 3 - 2 * n, 1)
    c.expect(phi == tuple(polys.poly_mul([0, 1], quartic)), "char poly x*f (n-5,1,2)")
    c.expect(_sign_from(polys.poly_eval(quartic, n - 3), 8) == -1, "f(n-3) negative")
    c.expect(_sign_from(3 * (n - 3) + phi[-2], 8) == 1, "trace rules out three roots above n-3")

    # -- double hub over blocks (n-4, 1, 1): q_2 equals (n-2+sqrt(n^2-8n+20))/2
    # f_2's roots are beta_2 and its conjugate, so above beta_2 phi_2 and phi_3 have the roots of
    # their cofactors of f_2, whose Taylor signs at beta_2 have one variation each: exactly one root
    phi2, phi3 = phis["(n-4,1,1)"], phis["complement (n-4,1,1)"]
    cubic2, f2 = (0, n, -n, 1), (n - 4, 2 - n, 1)
    c.expect(phi2 == tuple(polys.poly_mul(cubic2, f2)), "char poly x(x^2-nx+n)*f_2")
    c.expect(at_beta2(phi2) == (0, 0), "beta_2 is a quotient eigenvalue")
    c.expect(taylor_signs_at_beta2(cubic2) == [-1, 1, 1, 1], "exactly one quotient eigenvalue above beta_2")
    c.expect(sign_at_beta2((-2, 1)) == 1, "beta_2 exceeds the replicated eigenvalue 2")
    cubic = (-6 * n * n + 38 * n - 56, 2 * n * n - 3 * n - 12, 6 - 3 * n, 1)
    c.expect(phi3 == tuple(polys.poly_mul(cubic, f2)), "complement char poly f_1*f_2")
    c.expect(at_beta2(f2) == (0, 0), "gamma_1' root formula")
    c.expect(at_beta2(f2, -1) == (0, 0), "gamma_2' root formula")
    c.expect(_sign_from(polys.poly_eval(cubic, 2 * n - 6), 8) == -1, "f_1(2n-6) negative")
    c.expect(sign_at_beta2(cubic) == -1, "f_1(gamma_1') negative")
    c.expect(taylor_signs_at_beta2(cubic) == [-1, -1, -1, 1],
             "exactly one complement quotient eigenvalue above gamma_1'")
    c.expect(sign_at_beta2((4 - n, 1)) == 1, "gamma_1' exceeds the replicated eigenvalue n-4")
    c.expect(sign_at_beta2((2 * n - 5, -2)) == 1, "equal second eigenvalues stay below 2n-5")

    # -- single hub side empty, blocks (n-4, 0, 2)
    cubic4 = (4 * n - n * n, n * n - 2 * n - 2, 3 - 2 * n, 1)
    c.expect(phis["(n-4,0,2)"] == tuple(polys.poly_mul([0, 1], cubic4)), "char poly x*f (n-4,0,2)")
    c.expect(_sign_from(polys.poly_eval(cubic4, n - 3), 8) == -1, "f(n-3) nonpositive, (n-4,0,2)")
    c.expect(_sign_from(3 * (n - 3) + phis["(n-4,0,2)"][-2], 8) == 1, "trace argument, (n-4,0,2)")

    # -- single hub side empty, blocks (n-3, 0, 1); 8 g((2n-5)/2) and 16 phi((2n-5)/2) by homogeneous Horner
    cubic5 = (3 * n - n * n, n * n - n - 2, 2 - 2 * n, 1)
    c.expect(phis["(n-3,0,1)"] == tuple(polys.poly_mul([0, 1], cubic5)), "char poly x*g (n-3,0,1)")
    c.expect(_sign_from(polys._value_surd(cubic5, 2 * n - 5, 0, 0, 2)[0], 8) == -1, "g(n-5/2) negative")
    quartic6 = (2 * n * n - 14 * n + 24, -6 * n * n + 35 * n - 48, 2 * n * n - 3 * n - 10, 6 - 3 * n, 1)
    c.expect(phis["complement (n-3,0,1)"] == quartic6, "complement char poly (n-3,0,1)")
    c.expect(_sign_from(polys.poly_eval(quartic6, 2 * n - 6), 8) == -1, "phi(2n-6) negative")
    c.expect(_sign_from(polys._value_surd(quartic6, 2 * n - 5, 0, 0, 2)[0], 8) == -1, "phi(n-5/2) negative")
    return tuple(c)


def _blow_up_identity(b: BlowUp) -> bool:
    """Whether Q(G) T = T Lambda holds in integers, for G = ``b.graph()``.

    T's column at the first vertex u of a cell is the cell's indicator, and at each other
    vertex v of it e_u - e_v.  Lambda holds ``b.quotient()`` in the rows and columns of
    the first vertices, and at each other vertex the twin eigenvalue of its cell, read off
    the blow-up and not off G: B[i][i] for a coclique cell, B[i][i] - s_i for a clique
    cell.  T is invertible, so the identity holds exactly when the cells are equitable
    with quotient B and each cell is a twin class of its kind, and then spec Q(G) is
    spec B with each twin eigenvalue s_i - 1 times over.
    """
    g, quotient, sizes = b.graph(), b.quotient(), b.sizes
    first = [cell[0] for cell in b.cells()]
    link = (np.repeat(first, sizes)[:, None] == np.arange(g.n)).astype(np.int64)  # v to its cell's first vertex
    t = link + link.T - np.eye(g.n, dtype=np.int64)
    twin = [row[i] - size * clique for i, (row, size, clique) in enumerate(zip(quotient, sizes, b.cliques))]
    lam = np.diag(np.repeat(twin, sizes))
    lam[np.ix_(first, first)] = quotient
    return bool((q_matrix(g) @ t == t @ lam).all())


def proof_check_thm15(n: int) -> bool:
    """Exact verification of the quotient algebra behind the bipartite bound.

    The cell quotient matrices of the four relevant double-hub bipartite blow-ups
    and of two of their complements have characteristic polynomials that match
    closed forms in n coefficient-for-coefficient, root formulas that hold exactly,
    signs in n and at beta_2 = (n-2+sqrt(n^2-8n+20))/2, and exactly one root above
    beta_2 for the (n-4,1,1) quotient and its complement's: all proved once for every
    n >= 8 by ``_thm15_identities``.  While the order fits the 32-vertex graph type a
    call also ties each blown-up graph to its quotient by one integer identity
    (``_blow_up_identity``), so the proved facts place its q_2 exactly.  Beyond that
    a call is a range check.
    """
    if n < 8:
        raise ValueError("requires n >= 8")
    c = _Checks(_thm15_identities())
    if n <= MAX_VERTICES:
        for label, b in _THM15_BLOW_UPS.items():
            c.expect(_blow_up_identity(b.at(n)), f"Q(G)T = T Lambda {label}")
    return not c
