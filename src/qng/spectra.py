"""Spectra of graph matrices: float screening plus exact certification.

Float eigenvalues come from LAPACK's dense symmetric solver through numpy and
are used only for screening.  ``spectrum`` caches them by (graph, kind).
``prefill`` screens many graphs and their complements at once: their
matrices are stacked as one (B, n, n) array and go through one eigvalsh
call, and a scan does this once per chunk.  A cache miss is screened the
same way, as a batch of one.  Whenever a quantity sits within the escalation
window of a bound, decisions are re-made exactly: integer characteristic
polynomials via the Faddeev-LeVerrier recurrence, Sturm-sequence root
counting, and isolating-interval comparisons of algebraic eigenvalues.

The exact layer computes in Python ``int``: the recurrence runs on integer
rows (a rational matrix is scaled by its common denominator first), every
comparison works on the integer polynomial ``CharPoly.as_poly()``, and root
counting goes through ``polys.root_counter``, which builds one integer
Sturm/gcd tower per characteristic polynomial.  ``Fraction`` appears only in
the monic ``CharPoly.coeffs`` view and in the rational bounds of the comparisons.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import polys
from .graph import Graph, complement
from .polys import Poly

#: Any bound within this distance of equality is decided exactly.
ESCALATION_WINDOW = 1e-6

MatrixLike = Union[np.ndarray, Sequence[Sequence]]


# ---------------------------------------------------------------------------
# Matrix builders


def a_matrix(g: Graph) -> np.ndarray:
    """Adjacency matrix: entry (v, u) is bit u of row v."""
    return (np.array(g.rows, dtype=np.int64)[:, None] >> np.arange(g.n)) & 1


def d_matrix(g: Graph) -> np.ndarray:
    return np.diag(np.array(g.degrees(), dtype=np.int64))


def q_matrix(g: Graph) -> np.ndarray:
    """Signless Laplacian D + A."""
    return d_matrix(g) + a_matrix(g)


def l_matrix(g: Graph) -> np.ndarray:
    """Laplacian D - A."""
    return d_matrix(g) - a_matrix(g)


_KIND_BUILDERS = {"A": a_matrix, "L": l_matrix, "Q": q_matrix}


def matrix_of_kind(g: Graph, kind: str) -> np.ndarray:
    try:
        return _KIND_BUILDERS[kind](g)
    except KeyError:
        raise ValueError(f"unknown matrix kind {kind!r}") from None


# ---------------------------------------------------------------------------
# Float spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted in non-increasing order."""

    values: tuple[float, ...]

    def value(self, k: int) -> float:
        """The k-th largest eigenvalue, 1-based."""
        return self.values[k - 1]

    def __len__(self) -> int:
        return len(self.values)


def eigenvalues_sym(mat: MatrixLike) -> Spectrum:
    """All eigenvalues of a symmetric matrix, descending."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(arr, arr.T):
        raise ValueError("matrix must be symmetric")
    vals = np.linalg.eigvalsh(arr)[::-1]
    return Spectrum(tuple(float(v) for v in vals))


def _stacked(graphs: Sequence[Graph], kind: str) -> np.ndarray:
    """The kind-matrices of graphs of one order n, as one (B, n, n) float array."""
    if kind not in _KIND_BUILDERS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graphs[0].n
    adj = (np.array([g.rows for g in graphs], dtype=np.int64)[:, :, None] >> np.arange(n)) & 1
    if kind == "A":
        return adj.astype(float)
    deg = adj.sum(axis=2)[:, :, None] * np.eye(n, dtype=np.int64)
    return (deg + adj if kind == "Q" else deg - adj).astype(float)


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")

#: The float spectra screened so far, by (graph, kind); the oldest go first.
_SPECTRA: OrderedDict[tuple[Graph, str], Spectrum] = OrderedDict()
_SPECTRA_MAX = 1 << 15
_LOOKUPS = [0, 0]  # hits and misses of ``spectrum``


def _screen(graphs: Sequence[Graph], kind: str) -> list[Spectrum]:
    """Float spectra of the kind-matrices of graphs of one order, cached.

    The stacked matrices go through one eigvalsh call.
    """
    out = [Spectrum(tuple(v)) for v in np.linalg.eigvalsh(_stacked(graphs, kind))[:, ::-1].tolist()]
    for g, spec in zip(graphs, out):
        _SPECTRA[g, kind] = spec
    while len(_SPECTRA) > _SPECTRA_MAX:
        _SPECTRA.popitem(last=False)
    return out


def prefill(graphs: Iterable[Graph], kind: str = "Q") -> None:
    """Screen ``graphs`` and their complements into the ``spectrum`` cache.

    A scan calls this once per chunk, so the chunk costs one eigvalsh call
    per order instead of two per graph; graphs already cached are skipped.
    """
    todo: dict[int, dict[Graph, None]] = {}
    for g in graphs:
        for h in (g, complement(g)):
            if (h, kind) not in _SPECTRA:
                todo.setdefault(h.n, {})[h] = None
    for same in todo.values():
        _screen(list(same), kind)


def spectrum(g: Graph, kind: str = "Q") -> Spectrum:
    """The float spectrum of the kind-matrix of g, from the cache if screened before."""
    found = _SPECTRA.get((g, kind))
    if found is None:
        _LOOKUPS[1] += 1
        return _screen((g,), kind)[0]
    _LOOKUPS[0] += 1
    return found


def _cache_info() -> _CacheInfo:
    return _CacheInfo(_LOOKUPS[0], _LOOKUPS[1], _SPECTRA_MAX, len(_SPECTRA))


def _cache_clear() -> None:
    _SPECTRA.clear()
    _LOOKUPS[:] = [0, 0]


spectrum.cache_info = _cache_info
spectrum.cache_clear = _cache_clear


def q_spectrum(g: Graph) -> Spectrum:
    return spectrum(g, "Q")


def ng_sum(g: Graph, kind: str = "Q", k: int = 2) -> float:
    """k-th eigenvalue of the kind-matrix of g plus the same of its complement."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside 1..{g.n}")
    return spectrum(g, kind).value(k) + spectrum(complement(g), kind).value(k)


# ---------------------------------------------------------------------------
# Exact characteristic polynomials


@dataclass(frozen=True)
class CharPoly:
    """Exact characteristic polynomial det(xI - M), ascending coefficients.

    ``ints`` is the primitive integer polynomial with positive leading
    coefficient: det(xI - M) itself for an integer matrix, a positive
    multiple of it for a rational one.  ``coeffs`` is the monic rational form.
    """

    ints: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        lead = self.ints[-1]
        return tuple(Fraction(c, lead) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def as_poly(self) -> Poly:
        return list(self.ints)


def _integer_rows(mat: MatrixLike) -> tuple[list[list[int]], int]:
    """Rows of D*M as Python ints, for D the least common denominator of M."""
    rows = mat.tolist() if isinstance(mat, np.ndarray) else [list(row) for row in mat]
    if all(type(v) is int for row in rows for v in row):
        return rows, 1
    rows = [[Fraction(v) for v in row] for row in rows]
    denom = lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * denom) for v in row] for row in rows], denom


def char_poly_exact(mat: MatrixLike) -> CharPoly:
    """Faddeev-LeVerrier recurrence over Python integers.

    For M of order k: N_1 = M, c_j = -trace(M N_j)/j, N_{j+1} = M N_j + c_j I;
    the characteristic polynomial is x^k + c_1 x^{k-1} + ... + c_k.  For an
    integer matrix every c_j is an integer and each division is exact.  A
    rational M runs as the integer matrix D*M, whose coefficients are
    D^j c_j; times D^(k-j) they give D^k det(xI - M), made primitive.
    """
    rows, denom = _integer_rows(mat)
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    coeffs_desc = [1]
    acc = [[int(i == j) for j in range(k)] for i in range(k)]
    for step in range(1, k + 1):
        cols = list(zip(*acc))
        prod = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        c, rest = divmod(-sum(prod[i][i] for i in range(k)), step)
        assert rest == 0, "Faddeev-LeVerrier division is inexact"
        coeffs_desc.append(c)
        for i in range(k):
            prod[i][i] += c
        acc = prod
    if denom != 1:
        coeffs_desc = [c * denom ** (k - j) for j, c in enumerate(coeffs_desc)]
        content = gcd(*coeffs_desc)
        coeffs_desc = [c // content for c in coeffs_desc]
    return CharPoly(tuple(coeffs_desc[::-1]))


@lru_cache(maxsize=1 << 14)
def kind_char_poly(g: Graph, kind: str) -> CharPoly:
    return char_poly_exact(matrix_of_kind(g, kind))


def q_char_poly(g: Graph) -> CharPoly:
    return kind_char_poly(g, "Q")


# ---------------------------------------------------------------------------
# Exact root counting and certification


def sturm_count(p: CharPoly | Sequence, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("lo > hi")
    coeffs = p.as_poly() if isinstance(p, CharPoly) else polys.integer_poly(p)
    return polys.SturmChain(coeffs).count_halfopen(lo, hi)


def multiplicity_at(p: CharPoly | Sequence, r) -> int:
    """Exact multiplicity of the rational ``r`` as a root."""
    coeffs = p.as_poly() if isinstance(p, CharPoly) else polys.integer_poly(p)
    return polys.multiplicity_at(coeffs, Fraction(r))


def certify_qk(g: Graph, k: int, r) -> bool:
    """Exact certificate that the k-th largest Q-eigenvalue equals rational r.

    Requires r to be a root of the characteristic polynomial with fewer than
    k eigenvalues strictly above it and at least k eigenvalues at or above
    it, all counted with multiplicity.  Never consults floating point.
    """
    if not 1 <= k <= g.n:
        return False
    r = Fraction(r)
    p = q_char_poly(g).as_poly()
    mult = polys.multiplicity_at(p, r)
    if mult < 1:
        return False
    above = polys.root_counter(tuple(p)).count_gt(r)
    return above < k <= above + mult


def compare_qk_with(g: Graph, k: int, c) -> int:
    """Exact sign of (k-th largest Q-eigenvalue of g) - c for rational c."""
    c = Fraction(c)
    p = q_char_poly(g).as_poly()
    above = polys.root_counter(tuple(p)).count_gt(c)
    if above >= k:
        return 1
    if above + polys.multiplicity_at(p, c) >= k:
        return 0
    return -1


def compare_sum_with(g: Graph, kind: str, k: int, c, k_complement: int | None = None) -> int:
    """Exact sign of (k-th eigenvalue of g plus k_complement-th of complement) - c.

    Writes the sum condition as a comparison between the k_complement-th
    largest root of the complement's characteristic polynomial and the k-th
    smallest root of p(c - x), where p belongs to the kind-matrix of G; equal
    roots are certified via a common factor, so equality is decided exactly.
    """
    kc = k if k_complement is None else k_complement
    if not 1 <= k <= g.n or not 1 <= kc <= g.n:
        raise ValueError(f"eigenvalue index outside 1..{g.n}")
    c = Fraction(c)
    p = kind_char_poly(g, kind).as_poly()
    pb = kind_char_poly(complement(g), kind).as_poly()
    reflected = polys.poly_compose_linear(p, -1, c)
    if reflected[-1] < 0:
        reflected = [-a for a in reflected]
    return polys.compare_kth_roots(pb, kc, reflected, g.n - k + 1)


def compare_q1(g: Graph, h: Graph) -> int:
    """Exact sign of q_1(g) - q_1(h)."""
    return polys.compare_kth_roots(q_char_poly(g).as_poly(), 1, q_char_poly(h).as_poly(), 1)


def rational_sqrt(q) -> Optional[Fraction]:
    """The rational square root of ``q >= 0``, or None if it is irrational."""
    q = Fraction(q)
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def compare_sum_vs_radical(g: Graph, kind: str, k: int, base, rad) -> int:
    """Exact sign of (eigenvalue sum of g and complement) - (base + sqrt(rad)).

    ``base`` and ``rad`` are rational with rad >= 0.  A square radicand makes
    the bound rational and is decided by ``compare_sum_with``.  Otherwise
    interval refinement separates the algebraic sum from the radical; an
    exact hit on an irrational bound cannot terminate and raises
    ArithmeticError.
    """
    base, rad = Fraction(base), Fraction(rad)
    if rad < 0:
        raise ValueError("radicand must be nonnegative")
    root = rational_sqrt(rad)
    if root is not None:
        return compare_sum_with(g, kind, k, base + root)
    wa = polys.isolate_kth_largest(kind_char_poly(g, kind).as_poly(), k)
    wb = polys.isolate_kth_largest(kind_char_poly(complement(g), kind).as_poly(), k)
    for _ in range(512):
        tlo = wa.lo + wb.lo - base
        thi = wa.hi + wb.hi - base
        if thi < 0:
            return -1
        if tlo >= 0:
            if thi * thi < rad:
                return -1
            if tlo * tlo > rad:
                return 1
        wa.refine()
        wb.refine()
    raise ArithmeticError("cannot separate eigenvalue sum from radical bound")
