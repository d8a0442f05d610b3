"""Exact univariate polynomial arithmetic and real-root certification.

Polynomials are lists of ``Fraction`` coefficients in ascending degree order
with no trailing zeros.  On top of the ring operations this module provides
Sturm chains, root counting in half-open intervals, multiplicity-aware
counting via the iterated-gcd tower, isolation of the k-th largest real root
by bisection, and exact comparison of roots of two polynomials.  Quadratic
surds a + b*sqrt(d) are supported as evaluation points so that closed-form
roots like (n - 2 + sqrt(n^2 - 8n + 20)) / 2 can be certified without floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Poly = list[Fraction]

# Sentinels for evaluation at the ends of the real line.
POS_INF = object()
NEG_INF = object()


def poly(coeffs: Sequence) -> Poly:
    """Normalize a coefficient sequence (ascending degree) to a Poly."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_neg(p: Poly) -> Poly:
    return [-c for c in p]


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def poly_scale(p: Poly, c: Fraction) -> Poly:
    return poly([a * c for a in p])


def poly_derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return poly(quo), poly(rem)


def poly_monic(p: Poly) -> Poly:
    if is_zero(p):
        return []
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = list(p), list(q)
    while not is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def squarefree_part(p: Poly) -> Poly:
    if degree(p) < 1:
        return poly_monic(p)
    g = poly_gcd(p, poly_derivative(p))
    if degree(g) == 0:
        return poly_monic(p)
    quo, rem = poly_divmod(p, g)
    assert is_zero(rem)
    return poly_monic(quo)


def poly_compose_linear(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """The polynomial x -> p(a*x + b)."""
    acc: Poly = []
    lin = poly([b, a])
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, lin), poly([c]))
    return acc


def multiplicity_at(p: Poly, r: Fraction) -> int:
    """Exact multiplicity of ``r`` as a root of ``p`` (0 if not a root)."""
    if is_zero(p):
        raise ValueError("zero polynomial")
    r = Fraction(r)
    mult = 0
    cur = list(p)
    while degree(cur) >= 1 and poly_eval(cur, r) == 0:
        cur, rem = poly_divmod(cur, poly([-r, Fraction(1)]))
        assert is_zero(rem)
        mult += 1
    return mult


def cauchy_root_bound(p: Poly) -> Fraction:
    """A rational B with every real root of ``p`` in (-B, B)."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return Fraction(1) + max(abs(c) for c in p[:-1]) / lead


# ---------------------------------------------------------------------------
# Quadratic surds


@dataclass(frozen=True)
class Surd:
    """The real number a + b*sqrt(d) with rational a, b and integer d >= 0."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("surd radicand must be nonnegative")

    def _aligned(self, other) -> tuple["Surd", "Surd"]:
        if not isinstance(other, Surd):
            other = Surd(Fraction(other), Fraction(0), self.d)
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError("mixed radicands")
        d = self.d if self.b != 0 else (other.d if other.b != 0 else self.d)
        return Surd(self.a, self.b, d), Surd(other.a, other.b, d)

    def __add__(self, other) -> "Surd":
        s, o = self._aligned(other)
        return Surd(s.a + o.a, s.b + o.b, s.d)

    __radd__ = __add__

    def __sub__(self, other) -> "Surd":
        s, o = self._aligned(other)
        return Surd(s.a - o.a, s.b - o.b, s.d)

    def __rsub__(self, other) -> "Surd":
        s, o = self._aligned(other)
        return Surd(o.a - s.a, o.b - s.b, s.d)

    def __mul__(self, other) -> "Surd":
        s, o = self._aligned(other)
        return Surd(s.a * o.a + s.b * o.b * s.d, s.a * o.b + s.b * o.a, s.d)

    __rmul__ = __mul__

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0 or d == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) * (1 if a > 0 else -1)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __float__(self) -> float:
        from math import sqrt

        return float(self.a) + float(self.b) * sqrt(self.d)


def poly_eval_surd(p: Poly, x: Surd) -> Surd:
    acc = Surd(Fraction(0), Fraction(0), x.d)
    for c in reversed(p):
        acc = acc * x + Surd(Fraction(c), Fraction(0), x.d)
    return acc


Point = Union[Fraction, Surd, object]


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _sign_at(p: Poly, x: Point) -> int:
    if is_zero(p):
        return 0
    if x is POS_INF:
        lead = p[-1]
        return (lead > 0) - (lead < 0)
    if x is NEG_INF:
        lead = p[-1] if degree(p) % 2 == 0 else -p[-1]
        return (lead > 0) - (lead < 0)
    if isinstance(x, Surd):
        return poly_eval_surd(p, x).sign()
    v = poly_eval(p, x)
    return (v > 0) - (v < 0)


class SturmChain:
    """Sturm chain of the square-free part of a polynomial.

    ``count_gt(x)`` and ``count_halfopen(lo, hi)`` return exact counts of
    distinct real roots in (x, +inf) and (lo, hi] respectively.
    """

    def __init__(self, p: Poly):
        sf = squarefree_part(p)
        chain = [sf]
        if degree(sf) >= 1:
            chain.append(poly_monic(poly_derivative(sf)))
            while degree(chain[-1]) >= 1:
                _, rem = poly_divmod(chain[-2], chain[-1])
                if is_zero(rem):
                    break
                chain.append(poly_monic(poly_neg(rem)))
        self.chain = chain

    def variations(self, x: Point) -> int:
        signs = [s for s in (_sign_at(p, x) for p in self.chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count_gt(self, x: Point) -> int:
        return self.variations(x) - self.variations(POS_INF)

    def count_halfopen(self, lo: Point, hi: Point) -> int:
        return self.variations(lo) - self.variations(hi)


class RootCounter:
    """Multiplicity-aware root counting via the iterated-gcd tower.

    Level j of the tower is gcd applied j times starting from p; a root of
    multiplicity m appears in levels 0..m-1, so summing distinct counts over
    the tower counts roots with multiplicity.
    """

    def __init__(self, p: Poly):
        if is_zero(p):
            raise ValueError("zero polynomial")
        tower = []
        cur = poly(p)
        while degree(cur) >= 1:
            tower.append(SturmChain(cur))
            cur = poly_gcd(cur, poly_derivative(cur))
        self.tower = tower

    def count_gt(self, x: Point) -> int:
        return sum(chain.count_gt(x) for chain in self.tower)

    def count_distinct_halfopen(self, lo: Point, hi: Point) -> int:
        return self.tower[0].count_halfopen(lo, hi)


# ---------------------------------------------------------------------------
# Root isolation and exact comparison


@dataclass
class RootWindow:
    """Half-open interval (lo, hi] isolating the value of the k-th largest root."""

    lo: Fraction
    hi: Fraction
    k: int
    counter: RootCounter

    def refine(self) -> None:
        mid = (self.lo + self.hi) / 2
        if self.counter.count_gt(mid) >= self.k:
            self.lo = mid
        else:
            self.hi = mid

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_below(self, w: Fraction) -> None:
        while self.width() >= w:
            self.refine()


def isolate_kth_largest(p: Poly, k: int) -> RootWindow:
    """Isolate the k-th largest real root of ``p`` counted with multiplicity.

    Requires p to have at least k real roots with multiplicity; characteristic
    polynomials of symmetric matrices always do.
    """
    counter = RootCounter(p)
    bound = cauchy_root_bound(p)
    lo, hi = -bound, bound
    if counter.count_gt(lo) < k:
        raise ValueError(f"polynomial has fewer than {k} real roots")
    window = RootWindow(lo, hi, k, counter)
    while counter.count_distinct_halfopen(window.lo, window.hi) > 1:
        window.refine()
    return window


def compare_kth_roots(pa: Poly, ka: int, pb: Poly, kb: int, max_iter: int = 512) -> int:
    """Exact sign of (k_a-th largest root of pa) - (k_b-th largest root of pb).

    Bisection separates the two isolating windows whenever the roots differ;
    equality is certified by a shared root of gcd(pa, pb) lying in the
    overlap of both windows.
    """
    wa = isolate_kth_largest(pa, ka)
    wb = isolate_kth_largest(pb, kb)
    common = poly_gcd(squarefree_part(pa), squarefree_part(pb))
    common_chain = SturmChain(common) if degree(common) >= 1 else None
    for _ in range(max_iter):
        if wa.lo >= wb.hi:
            return 1
        if wb.lo >= wa.hi:
            return -1
        if common_chain is not None:
            lo = max(wa.lo, wb.lo)
            hi = min(wa.hi, wb.hi)
            if lo < hi and common_chain.count_halfopen(lo, hi) >= 1:
                return 0
        wa.refine()
        wb.refine()
    raise ArithmeticError("root comparison did not converge")
