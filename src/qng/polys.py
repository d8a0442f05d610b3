"""Exact univariate polynomials over the integers and real-root certification.

Polynomials are lists of Python ``int`` coefficients in ascending degree
order with no trailing zeros.  Every exact question asked of a polynomial is
about its roots, so a positive multiple serves as well as the polynomial
itself: gcds, square-free parts, remainders and compositions come back
primitive (content 1), and remainders come from pseudo-division scaled by
positive factors only, so every Sturm sign survives.  ``integer_poly`` is the
one converter from rational coefficients; only entry points that accept them
call it.

On top of this ring the module provides Sturm chains, root counting in
half-open intervals, multiplicity-aware counting via the iterated-gcd tower,
isolation of the k-th largest real root by bisection, and exact comparison of
roots of two polynomials.  ``root_counter`` builds one ``RootCounter`` per
polynomial and hands it to every later caller.

``Fraction`` appears only in points and values: a rational point a/b is
evaluated as b^d p(a/b) by homogeneous Horner, bisection endpoints are
rational, and quadratic surds a + b*sqrt(d) with rational a, b are evaluated
as (u + v sqrt(d))/D on integer pairs, so closed-form roots like
(n - 2 + sqrt(n^2 - 8n + 20)) / 2 are certified without floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Poly = list[int]

# Sentinels for evaluation at the ends of the real line.
POS_INF = object()
NEG_INF = object()


def _over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integers c and the least L > 0 with values = c / L, for int or Fraction values."""
    scale = lcm(*(c.denominator for c in values))
    return [c.numerator * (scale // c.denominator) for c in values], scale


def _primitive(p: Poly) -> Poly:
    """p divided by its (positive) content."""
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


def integer_poly(coeffs: Sequence) -> Poly:
    """The primitive integer polynomial that is a positive multiple of rational ``coeffs``."""
    p = _over_common_denominator([Fraction(c) for c in coeffs])[0]
    while p and p[-1] == 0:
        p.pop()
    return _primitive(p)


def _derivative(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_rem(p: Poly, q: Poly) -> Poly:
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


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, poly_rem(a, b)
    return [-c for c in a] if a and a[-1] < 0 else a


def poly_exact_div(p: Poly, q: Poly) -> Poly:
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


def squarefree_part(p: Poly) -> Poly:
    """The square-free part of p, primitive with a positive leading coefficient."""
    sf = _primitive(poly_exact_div(p, poly_gcd(p, _derivative(p))))
    return [-c for c in sf] if sf[-1] < 0 else sf


def _value(p: Poly, a: int, b: int) -> int:
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


def _value_surd(p: Poly, u: int, v: int, d: int, den: int) -> tuple[int, int]:
    """(A, B) with den^deg(p) * p((u + v*sqrt(d)) / den) = A + B*sqrt(d)."""
    big, small = p[-1], 0
    vd = v * d
    power = 1
    for c in p[-2::-1]:
        power *= den
        big, small = big * u + small * vd + c * power, big * v + small * u
    return big, small


def poly_eval(p: Poly, x) -> Fraction:
    """p(x) exactly, for an int or ``Fraction`` x."""
    if not p:
        return Fraction(0)
    return Fraction(_value(p, x.numerator, x.denominator), x.denominator ** (len(p) - 1))


def poly_compose_linear(p: Poly, a, b) -> Poly:
    """A primitive positive multiple of x -> p(a*x + b), for rational a and b.

    With a*x + b = (u*x + v) / den this is sum_i p_i den^(n-i) (u*x + v)^i,
    by Horner's rule.
    """
    (u, v), den = _over_common_denominator((a, b))
    acc: Poly = []
    power = 1
    for c in reversed(p):
        acc = [v * cur + u * prev for cur, prev in zip(acc + [0], [0] + acc)]
        acc[0] += c * power
        power *= den
    while acc and acc[-1] == 0:
        acc.pop()
    return _primitive(acc)


def multiplicity_at(p: Poly, r) -> int:
    """Exact multiplicity of the int or ``Fraction`` ``r`` as a root of ``p`` (0 if not a root).

    ``p`` is an ``int`` list with no trailing zeros; ``integer_poly`` makes one
    from rational coefficients.
    """
    if not p:
        raise ValueError("zero polynomial")
    a, b = r.numerator, r.denominator
    mult = 0
    while len(p) > 1 and _value(p, a, b) == 0:
        p = poly_exact_div(p, [-a, b])
        mult += 1
    return mult


def cauchy_root_bound(p: Poly) -> Fraction:
    """A rational B with every real root of ``p`` in (-B, B)."""
    if len(p) < 2:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


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
    """p(x) exactly, by Horner's rule on integer pairs over one denominator."""
    if not p:
        return Surd(Fraction(0), Fraction(0), x.d)
    (u, v), den = _over_common_denominator((x.a, x.b))
    big, small = _value_surd(p, u, v, x.d, den)
    scale = den ** (len(p) - 1)
    return Surd(Fraction(big, scale), Fraction(small, scale), x.d)


Point = Union[Fraction, Surd, object]


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _signs_at(chain: list[Poly], x: Point) -> list[int]:
    if x is POS_INF:
        return [_sign(p[-1]) for p in chain]
    if x is NEG_INF:
        return [_sign(p[-1]) if len(p) % 2 else -_sign(p[-1]) for p in chain]
    if isinstance(x, Surd):
        (u, v), den = _over_common_denominator((x.a, x.b))
        return [_surd_sign(*_value_surd(p, u, v, x.d, den), x.d) for p in chain]
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    a, b = x.numerator, x.denominator
    return [_sign(_value(p, a, b)) for p in chain]


class SturmChain:
    """Sturm chain of the square-free part of a polynomial.

    ``count_gt(x)`` and ``count_halfopen(lo, hi)`` return exact counts of
    distinct real roots in (x, +inf) and (lo, hi] respectively.  The chain
    holds primitive integer polynomials, each a positive multiple of the
    classical Sturm sequence's member.  ``p`` is a nonzero ``int`` list with
    no trailing zeros; ``integer_poly`` makes one from rational coefficients.
    """

    def __init__(self, p: Poly):
        self.chain = _sturm_sequence(squarefree_part(p))

    @classmethod
    def from_squarefree(cls, sf: Poly) -> "SturmChain":
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


def _sturm_sequence(sf: Poly) -> list[Poly]:
    chain = [sf]
    if len(sf) > 1:
        chain.append(_primitive(_derivative(sf)))
        while len(chain[-1]) > 1:
            rem = poly_rem(chain[-2], chain[-1])
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
    ``p`` is a nonzero ``int`` sequence with no trailing zeros; ``integer_poly``
    makes one from rational coefficients.
    """

    def __init__(self, p: Poly):
        cur = _primitive(list(p))
        if not cur:
            raise ValueError("zero polynomial")
        tower = []
        while len(cur) > 1:
            nxt = poly_gcd(cur, _derivative(cur))
            tower.append(SturmChain.from_squarefree(poly_exact_div(cur, nxt)))
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
    common = poly_gcd(wa.counter.tower[0].chain[0], wb.counter.tower[0].chain[0])
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
