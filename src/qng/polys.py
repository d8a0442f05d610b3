"""Exact univariate polynomial arithmetic and real-root certification.

Polynomials are lists of ``Fraction`` coefficients in ascending degree order
with no trailing zeros.  On top of the ring operations this module provides
Sturm chains, root counting in half-open intervals, multiplicity-aware
counting via the iterated-gcd tower, isolation of the k-th largest real root
by bisection, and exact comparison of roots of two polynomials.  Quadratic
surds a + b*sqrt(d) are supported as evaluation points so that closed-form
roots like (n - 2 + sqrt(n^2 - 8n + 20)) / 2 can be certified without floats.

``Fraction`` appears only at the boundary.  Inside, gcds, square-free parts,
Sturm chains and evaluations work on primitive integer polynomials with
Python ``int`` coefficients: remainders come from pseudo-division scaled by
positive factors only, so every Sturm sign survives; a rational point a/b is
evaluated as b^d p(a/b) by homogeneous Horner, and a surd (u + v sqrt(d))/D
as D^d p(x) on integer pairs.  ``root_counter`` builds one ``RootCounter``
per polynomial and hands it to every later caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Poly = list[Fraction]
IntPoly = list[int]

# Sentinels for evaluation at the ends of the real line.
POS_INF = object()
NEG_INF = object()


def poly(coeffs: Sequence) -> Poly:
    """Normalize a coefficient sequence (ascending degree) to a Poly."""
    p = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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


# ---------------------------------------------------------------------------
# Integer polynomials


def _over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integers c and the least L > 0 with values = c / L."""
    scale = lcm(*(c.denominator for c in values))
    return [c.numerator * (scale // c.denominator) for c in values], scale


def _scaled_ints(p: Sequence) -> tuple[IntPoly, int]:
    """Integer coefficients c and the least L > 0 with p = c / L."""
    ints, scale = _over_common_denominator(p)
    while ints and ints[-1] == 0:
        ints.pop()
    return ints, scale


def _primitive(p: IntPoly) -> IntPoly:
    """p divided by its (positive) content."""
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _int_poly(p: Sequence) -> IntPoly:
    """The primitive integer polynomial that is a positive multiple of p."""
    return _primitive(_scaled_ints(p)[0])


def _int_derivative(p: IntPoly) -> IntPoly:
    return [i * c for i, c in enumerate(p)][1:]


def _int_rem(p: IntPoly, q: IntPoly) -> IntPoly:
    """A positive multiple of the remainder of p by q, made primitive.

    Pseudo-division that scales by |lc(q)| / g at each step, never by a
    negative factor, so the result has the sign pattern of the true remainder.
    """
    r = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(r) > dq:
        top = r[-1]
        g = gcd(top, lead)
        scale, factor = abs(lead) // g, top // g
        if lead < 0:
            factor = -factor
        if scale != 1:
            r = [scale * c for c in r]
        shift = len(r) - 1 - dq
        for i, c in enumerate(q):
            r[shift + i] -= factor * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def _int_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _int_rem(a, b)
    return [-c for c in a] if a and a[-1] < 0 else a


def _int_exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    """p / q for a primitive q dividing p; the quotient is integral (Gauss)."""
    r = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [0] * (len(p) - dq)
    for shift in range(len(quo) - 1, -1, -1):
        factor, rest = divmod(r[shift + dq], lead)
        assert rest == 0, "inexact polynomial division"
        quo[shift] = factor
        if factor:
            for i, c in enumerate(q):
                r[shift + i] -= factor * c
    assert not any(r), "inexact polynomial division"
    return quo


def _int_squarefree(p: IntPoly) -> IntPoly:
    if len(p) < 3:
        return p
    return _int_exact_div(p, _int_gcd(p, _int_derivative(p)))


def _int_value(p: IntPoly, a: int, b: int) -> int:
    """b^deg(p) * p(a/b) for b > 0, by homogeneous Horner."""
    acc = p[-1]
    if b == 1:
        for c in p[-2::-1]:
            acc = acc * a + c
        return acc
    power = 1
    for c in p[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return acc


def _int_value_surd(p: IntPoly, u: int, v: int, d: int, den: int) -> tuple[int, int]:
    """(A, B) with den^deg(p) * p((u + v*sqrt(d)) / den) = A + B*sqrt(d)."""
    big, small = p[-1], 0
    vd = v * d
    power = 1
    for c in p[-2::-1]:
        power *= den
        big, small = big * u + small * vd + c * power, big * v + small * u
    return big, small


def _monic(p: IntPoly) -> Poly:
    lead = p[-1] if p else 1
    return [Fraction(c, lead) for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    return _monic(_int_gcd(_int_poly(p), _int_poly(q)))


def squarefree_part(p: Poly) -> Poly:
    return _monic(_int_squarefree(_int_poly(p)))


def poly_compose_linear(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """The polynomial x -> p(a*x + b), by Horner's rule on integer numerators.

    With p = P / L and a*x + b = (u*x + v) / den, the result is
    sum_i P_i den^(n-i) (u*x + v)^i / (L den^n).
    """
    ints, scale = _scaled_ints(p)
    (u, v), den = _over_common_denominator((Fraction(a), Fraction(b)))
    acc: IntPoly = []
    power = 1
    for c in reversed(ints):
        acc = [v * cur + u * prev for cur, prev in zip(acc + [0], [0] + acc)]
        acc[0] += c * power
        power *= den
    return poly([Fraction(c, scale * power // den) for c in acc])


def multiplicity_at(p: Poly, r: Fraction) -> int:
    """Exact multiplicity of ``r`` as a root of ``p`` (0 if not a root)."""
    cur = _int_poly(p)
    if not cur:
        raise ValueError("zero polynomial")
    r = Fraction(r)
    a, b = r.numerator, r.denominator
    mult = 0
    while len(cur) > 1 and _int_value(cur, a, b) == 0:
        cur = _int_exact_div(cur, [-a, b])
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
        return _surd_sign(self.a, self.b, self.d)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __float__(self) -> float:
        from math import sqrt

        return float(self.a) + float(self.b) * sqrt(self.d)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and integer d >= 0."""
    if b == 0 or d == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if (a > 0) == (b > 0):
        return _sign(a)
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    return _sign(a) if lhs > rhs else _sign(b)


def poly_eval_surd(p: Poly, x: Surd) -> Surd:
    """p(x) exactly, by Horner's rule on integer numerators over one denominator."""
    ints, scale = _scaled_ints(p)
    if not ints:
        return Surd(Fraction(0), Fraction(0), x.d)
    (u, v), den = _over_common_denominator((x.a, x.b))
    big, small = _int_value_surd(ints, u, v, x.d, den)
    scale *= den ** (len(ints) - 1)
    return Surd(Fraction(big, scale), Fraction(small, scale), x.d)


Point = Union[Fraction, Surd, object]


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _signs_at(chain: list[IntPoly], x: Point) -> list[int]:
    if x is POS_INF:
        return [_sign(p[-1]) for p in chain]
    if x is NEG_INF:
        return [_sign(p[-1]) if len(p) % 2 else -_sign(p[-1]) for p in chain]
    if isinstance(x, Surd):
        (u, v), den = _over_common_denominator((x.a, x.b))
        return [_surd_sign(*_int_value_surd(p, u, v, x.d, den), x.d) for p in chain]
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    a, b = x.numerator, x.denominator
    return [_sign(_int_value(p, a, b)) for p in chain]


class SturmChain:
    """Sturm chain of the square-free part of a polynomial.

    ``count_gt(x)`` and ``count_halfopen(lo, hi)`` return exact counts of
    distinct real roots in (x, +inf) and (lo, hi] respectively.  The chain
    holds primitive integer polynomials, each a positive multiple of the
    classical Sturm sequence's member.
    """

    def __init__(self, p: Poly):
        self.chain = _sturm_sequence(_int_squarefree(_int_poly(p)))

    @classmethod
    def from_squarefree(cls, sf: IntPoly) -> "SturmChain":
        """The chain of a square-free primitive integer polynomial."""
        chain = cls.__new__(cls)
        chain.chain = _sturm_sequence(sf)
        return chain

    def variations(self, x: Point) -> int:
        signs = [s for s in _signs_at(self.chain, x) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count_gt(self, x: Point) -> int:
        return self.variations(x) - self.variations(POS_INF)

    def count_halfopen(self, lo: Point, hi: Point) -> int:
        return self.variations(lo) - self.variations(hi)


def _sturm_sequence(sf: IntPoly) -> list[IntPoly]:
    chain = [sf]
    if len(sf) > 1:
        chain.append(_primitive(_int_derivative(sf)))
        while len(chain[-1]) > 1:
            rem = _int_rem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


class RootCounter:
    """Multiplicity-aware root counting via the iterated-gcd tower.

    Level j of the tower is gcd applied j times starting from p; a root of
    multiplicity m appears in levels 0..m-1, so summing distinct counts over
    the tower counts roots with multiplicity.  Each level keeps the Sturm
    chain of its square-free part, the quotient of the level by the next.
    """

    def __init__(self, p: Poly):
        cur = _int_poly(p)
        if not cur:
            raise ValueError("zero polynomial")
        tower = []
        while len(cur) > 1:
            nxt = _int_gcd(cur, _int_derivative(cur))
            tower.append(SturmChain.from_squarefree(_int_exact_div(cur, nxt)))
            cur = nxt
        self.tower = tower

    def count_gt(self, x: Point) -> int:
        return sum(chain.count_gt(x) for chain in self.tower)

    def count_distinct_halfopen(self, lo: Point, hi: Point) -> int:
        return self.tower[0].count_halfopen(lo, hi)


@lru_cache(maxsize=1 << 12)
def root_counter(coeffs: tuple) -> RootCounter:
    """The one shared ``RootCounter`` of the polynomial with these coefficients.

    ``coeffs`` is the ascending coefficient tuple.  Counters never change
    after construction, so every caller that meets the same polynomial again
    reuses its tower.
    """
    return RootCounter(coeffs)


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
    counter = root_counter(tuple(p))
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
    common = _int_gcd(wa.counter.tower[0].chain[0], wb.counter.tower[0].chain[0])
    common_chain = SturmChain.from_squarefree(common) if len(common) > 1 else None
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
