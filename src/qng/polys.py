"""Exact polynomials over the integers and real-root certification.

Univariate polynomials are lists of ``int`` coefficients in ascending degree
order with no trailing zeros; functions that only read one also take the
``int`` tuple that a characteristic polynomial is, and that keys
``root_counter``.  Every exact question asked of a polynomial is
about its roots, so a positive multiple serves as well as the polynomial
itself: gcds, square-free parts, remainders and compositions come back
primitive (content 1), and remainders come from pseudo-division scaled by
positive factors only, so a remainder has the signs of the true one.

On top of this ring one object counts roots: a ``RootCounter`` holds a
real-rooted polynomial p and its square-free part p / gcd(p, p'), and answers
one question at a point: the roots above it with multiplicity and distinct,
and the multiplicity of the point as a root.  Descartes' rule of signs on the
Taylor shift to the point gives the counts, exact with multiplicity for a
real-rooted polynomial, and the shift's zero low coefficients give the
multiplicity.  ``root_counter`` builds one per polynomial and hands it to every
later caller.  On the counters rest isolation of the k-th largest real root and
one decision procedure that always returns a sign: a root of one polynomial
plus a root of another against a rational or surd bound.  A root against a
root is their difference against 0, the second polynomial reflected.
Isolation is one bisection from the Cauchy bound whose first two cuts a
float seed, such as the screened eigenvalue, may place at the ends of a
small dyadic window around it; exact counts pick the side at every cut.
Floats pick only where to cut: every sign comes from counts.  A window keeps
the roots above its ends, so a bisection counts its polynomial once at each
cut, and only its square-free part once the window holds one root or simple
roots only; an equality certificate counts its two polynomials afresh at the
windows' current ends.  ``ESCALATION_WINDOW`` is the one float tolerance:
the screen trusts a float only beyond it, and the seed's window derives from it.

``Fraction`` appears only in rational points and values (an ``int`` point
gives an ``int``).  At a point (u + v sqrt(d)) / den, v = 0 if rational, two
kernels write values a + b sqrt(d) on integer pairs: ``_value_surd`` gives
den^deg(p) p(point), by Horner's rule, and ``_shift``, the one Taylor shift,
each coefficient of p(point + z) up to a positive factor.  Root counts,
reflections and the proof checks' sign facts all read the shift, and
``_surd_sign`` is the one rule that signs a + b sqrt(d).  A ``Surd`` has no
arithmetic: it is only a bound of a root-sum comparison and a point to count
roots at.

The kernels use only + and *, so they also run over ``MPoly``, a
polynomial over Z in named variables: the proof checks evaluate their
quotients' char polys at closed-form roots in n, d2 and s, and a root is
certified for every n, d2 and s when both parts of the value are the zero
polynomial.  So does ``char_poly``, a sum of principal minors, each a
division-free cofactor expansion: Theorem 1.5's proof check builds its blow-up
quotients' char polys over Z[n] with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, gcd, isfinite, isqrt, lcm, log2, prod
from typing import Optional, Sequence, Union

Poly = list[int]


def _over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integers c and the least L > 0 with values = c / L, for int or Fraction values."""
    scale = lcm(*(c.denominator for c in values))
    return [c.numerator * (scale // c.denominator) for c in values], scale


def _primitive(p: Poly) -> Poly:
    """p divided by its (positive) content."""
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


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


def _value_surd(p: Poly, u: int, v: int, d: int, den: int) -> tuple[int, int]:
    """(A, B) with den^deg(p) * p((u + v*sqrt(d)) / den) = A + B*sqrt(d), by Horner's rule; v = 0 if rational."""
    big, small = p[-1], 0
    vd = v * d
    power = 1
    for c in p[-2::-1]:
        power *= den
        big, small = big * u + small * vd + c * power, big * v + small * u
    return big, small


def poly_eval(p: Poly, x) -> Union[int, Fraction, MPoly]:
    """p(x) exactly: a ``Fraction`` for a ``Fraction`` x, else a value in the ring of x and
    of the coefficients, an ``int`` for an int x or an ``MPoly`` for an ``MPoly`` x."""
    if not isinstance(x, Fraction):
        return _value_surd(p, x, 0, 0, 1)[0] if p else 0
    den = x.denominator
    return Fraction(_value_surd(p, x.numerator, 0, 0, den)[0], den ** (len(p) - 1)) if p else Fraction(0)


def cauchy_root_bound(p: Poly) -> Fraction:
    """A rational B with every real root of ``p`` in (-B, B)."""
    if len(p) < 2:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


# ---------------------------------------------------------------------------
# Multivariate polynomials


class MPoly:
    """A polynomial over Z in named variables: a dict from exponent tuples, one exponent
    per name, to nonzero ``int`` coefficients.

    It has +, -, *, nonnegative integer powers, == and a hash, mixes with ``int`` (a constant),
    and combines only with polynomials over the same names; one over other names is equal to
    it only when both are the same constant.  That is all the kernels ``_value_surd``, ``_shift`` and
    ``char_poly`` use, so they evaluate and shift a polynomial whose coefficients and point are ``MPoly``
    values, and an identity in the variables is checked once as ``==``.  It is true when nonzero, which
    lets those kernels skip zero entries, and ``at`` gives its value at an integer point.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        self.names = names
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def variables(cls, *names: str) -> tuple[MPoly, ...]:
        """One polynomial per name: that variable, over all the names."""
        return tuple(cls(names, {tuple(int(i == j) for j in range(len(names))): 1}) for i in range(len(names)))

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            if other.names != self.names:
                raise ValueError(f"polynomials over {self.names} and {other.names}")
            return other
        if isinstance(other, int):
            return MPoly(self.names, {(0,) * len(self.names): other})
        return NotImplemented

    def __add__(self, other) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.names, terms)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MPoly:
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other) -> MPoly:
        return -self + other

    def __mul__(self, other) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            for f, b in other.terms.items():
                key = tuple(x + y for x, y in zip(e, f))
                terms[key] = terms.get(key, 0) + c * b
        return MPoly(self.names, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if k < 0:
            raise ValueError(f"negative power {k}")
        out = self._coerce(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly) and other.names != self.names:  # equal only as one constant, as hashed
            constant = not any(map(any, [*self.terms, *other.terms]))
            return constant and sum(self.terms.values()) == sum(other.terms.values())
        other = self._coerce(other)
        return other if other is NotImplemented else self.terms == other.terms

    def __hash__(self) -> int:
        """Agrees with ==: a constant hashes as its ``int``, any other polynomial by its names and terms."""
        if any(map(any, self.terms)):
            return hash((self.names, frozenset(self.terms.items())))
        return hash(sum(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def at(self, *values: int) -> int:
        """The value at one ``int`` per name."""
        if len(values) != len(self.names):
            raise ValueError(f"{len(values)} values for the names {self.names}")
        return sum(c * prod(map(pow, values, e)) for e, c in self.terms.items())


def char_poly(rows: Sequence[Sequence]) -> tuple:
    """det(xI - M), ascending, for a square M over a commutative ring (``int`` or ``MPoly``
    entries), with + and * alone and no division: the coefficient of x^(k-j) is (-1)^j
    times the sum of the j x j principal minors of M.  A minor is a cofactor expansion
    along its first row, and each submatrix is expanded once, so the C(2k, k) submatrices
    of order k bound the work: this is for orders up to about 5."""
    k = len(rows)

    @lru_cache(maxsize=None)
    def minor(r: tuple[int, ...], c: tuple[int, ...]):  # rows r and columns c, sorted
        if not r:
            return 1
        total = 0
        for j, col in enumerate(c):
            a = rows[r[0]][col]
            if a:
                term = a * minor(r[1:], c[:j] + c[j + 1:])
                total = total - term if j % 2 else total + term
        return total

    coeffs = [0] * k + [1]
    for j in range(1, k + 1):
        total = sum(minor(idx, idx) for idx in combinations(range(k), j))
        coeffs[k - j] = -total if j % 2 else total
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Quadratic surds


@dataclass(frozen=True)
class Surd:
    """The real number a + b*sqrt(d) with rational a, b and integer d >= 0: a bound or a point."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("surd radicand must be nonnegative")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(a, b, d, sign=_sign) -> int:
    """Sign of a + b*sqrt(d), d >= 0, from ``sign`` (exact for rationals) of a, b and a^2 - b^2 d; a ``sign``
    that may give 0 for a nonzero value, as one certified from an n0 does, gives 0 if they do not settle it."""
    sa, sb = sign(a), sign(b)
    if not b or not d or sa == sb:
        return sa
    if not (sa and sb):
        return 0 if a else sb
    norm = sign(a * a - b * b * d)
    return sa if norm > 0 else sb if norm < 0 else 0


def _surd_parts(c) -> tuple[Fraction, Fraction, int]:
    """(a, b, d) with c = a + b*sqrt(d), for a rational or ``Surd`` c."""
    return (c.a, c.b, c.d) if isinstance(c, Surd) else (Fraction(c), Fraction(0), 0)


def base_plus_sqrt(base, rad) -> Union[Fraction, Surd]:
    """base + sqrt(rad) for rational base and rad = p/q >= 0 in lowest terms: a ``Fraction``
    when rad is a rational square (p*q is a square), else the ``Surd`` base + sqrt(p*q)/q."""
    pq = rad.numerator * rad.denominator
    root = isqrt(pq)
    return base + Fraction(root, rad.denominator) if root * root == pq else Surd(base, Fraction(1, rad.denominator), pq)


def reflection_norm(p: Sequence[int], c) -> Poly:
    """The primitive, positively leading N in Z[x] with a root c - alpha for each root alpha of p.

    ``c`` is rational or a ``Surd`` a + b*sqrt(d), (u + v*sqrt(d)) / den over one denominator.
    The Taylor shift of p to c (``_shift``) at z = -den*x writes den^deg(p) * p(c - x) as
    A(x) + sqrt(d)*B(x), coefficient j times (-den)^j.  N is A for a rational c, else the norm
    A^2 - d*B^2, whose roots are the c - alpha and their conjugates.
    """
    a, b, d = _surd_parts(c)
    (u, v), den = _over_common_denominator((a, b))
    big, small = (None if part is None else [x * (-den) ** j for j, x in enumerate(part)]
                  for part in _shift(p, u, v, d, den))
    norm = _primitive(big if small is None else [x - d * y for x, y in zip(poly_mul(big, big), poly_mul(small, small))])
    return [-x for x in norm] if norm[-1] < 0 else norm


#: A point of the real line at which roots are counted: an ``int``, a ``Fraction`` or a ``Surd``.
Point = Union[int, Fraction, Surd]


# ---------------------------------------------------------------------------
# Root counting by Descartes' rule of signs


def _shift(p: Sequence, u, v, d, den) -> tuple[list, Optional[list]]:
    """The Taylor shift of a nonempty p to x = (u + v*sqrt(d)) / den: (A, B) with den^deg(p) *
    p(x + z/den) = sum_j (A_j + B_j*sqrt(d)) z^j, whose term j has the sign of p^(j)(x).  A
    rational point (v or d zero) shifts one list and gives B = None.  Only + and * are used, so
    p, u, v and d may be ``int`` or ``MPoly`` values, and den an ``int`` > 0."""
    n = len(p) - 1
    big = [c * den ** (n - i) for i, c in enumerate(p)]
    if not v or not d:
        if u:
            for i in range(n):
                acc = big[n]
                for j in range(n - 1, i - 1, -1):
                    acc = big[j] = big[j] + u * acc
        return big, None
    small = [0] * (n + 1)
    vd = v * d
    for i in range(n):
        a, b = big[n], small[n]
        for j in range(n - 1, i - 1, -1):
            a, b = big[j] + u * a + vd * b, small[j] + u * b + v * a
            big[j], small[j] = a, b
    return big, small


def _roots_above(p: Poly, x: Point) -> tuple[int, int]:
    """The roots of a real-rooted p above x and at x, each counted with multiplicity.

    Descartes' rule of signs, exact for a real-rooted p: the roots above x are
    the sign changes, zeros dropped, of the coefficients of p(x + y) in y, which
    ``_shift`` gives up to positive factors and ``_surd_sign`` signs at a
    ``Surd``; the roots at x are its zero low coefficients.
    """
    *rational, d = _surd_parts(x)
    (u, v), den = _over_common_denominator(rational)
    coeffs, small = _shift(p, u, v, d, den)
    if small is not None:
        coeffs = [_surd_sign(a, b, d) for a, b in zip(coeffs, small)]
    at = next(j for j, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs[at:] if c]
    return sum(s != t for s, t in zip(signs, signs[1:])), at


class RootCounter:
    """Root counts of a real-rooted polynomial at a point, with multiplicity and without.

    ``poly`` is p made primitive with a positive leading coefficient, and
    ``squarefree`` is poly / gcd(poly, poly'), which has each root of p once; it
    is ``poly`` itself when the gcd is 1.  ``p`` is a nonzero ``int`` sequence
    with no trailing zeros, and real-rooted, as every caller's is: char polys of
    the symmetric A, L and Q (``spectra``), and ``reflection_norm`` of such a p.
    """

    def __init__(self, p: Poly):
        if not any(p):
            raise ValueError("zero polynomial")
        self.poly = _primitive(list(p) if p[-1] > 0 else [-c for c in p])
        common = poly_gcd(self.poly, _derivative(self.poly))
        self.squarefree = poly_exact_div(self.poly, common) if len(common) > 1 else self.poly

    def counts_at(self, x: Point) -> tuple[int, int, int]:
        """(above, distinct_above, at): the real roots above x with multiplicity, the distinct
        ones, and the multiplicity of x as a root, 0 if it is none."""
        above, at = _roots_above(self.poly, x)
        distinct = above if self.squarefree is self.poly else _roots_above(self.squarefree, x)[0]
        return above, distinct, at


@lru_cache(maxsize=1 << 12)
def root_counter(coeffs: tuple) -> RootCounter:
    """The one shared ``RootCounter`` of the polynomial with these coefficients.

    ``coeffs`` is the ascending coefficient tuple.  Counters never change
    after construction, so every caller that meets the same polynomial again
    reuses its square-free part.
    """
    return RootCounter(coeffs)


# ---------------------------------------------------------------------------
# Root isolation and exact comparison


@dataclass
class RootWindow:
    """Half-open interval (lo, hi] holding the k-th largest root, with the counter's roots
    above each end, with multiplicity and distinct, so that counting the roots in the window
    shifts nothing again.  Once the window holds one distinct root or simple roots only, each
    of multiplicity (roots in it) / (distinct roots in it), a cut counts the square-free part
    alone: the distinct roots above the cut give the roots above it with multiplicity."""

    lo: Fraction
    hi: Fraction
    k: int
    counter: RootCounter
    lo_above: int
    lo_changes: int
    hi_above: int
    hi_changes: int

    def distinct(self) -> int:
        """Distinct real roots in (lo, hi]."""
        return self.lo_changes - self.hi_changes

    def cut(self, x: Fraction) -> None:
        """Move the end on x's side of the root to x, for lo < x < hi."""
        roots, distinct = self.lo_above - self.hi_above, self.distinct()
        if distinct == 1 or roots == distinct:
            changes = _roots_above(self.counter.squarefree, x)[0]
            above = self.hi_above + (changes - self.hi_changes) * roots // distinct
        else:
            above, changes, _ = self.counter.counts_at(x)
        if above >= self.k:
            self.lo, self.lo_above, self.lo_changes = x, above, changes
        else:
            self.hi, self.hi_above, self.hi_changes = x, above, changes

    def refine(self) -> None:
        self.cut((self.lo + self.hi) / 2)


#: Any bound within this distance of equality is decided exactly: a float is trusted only
#: farther from it, far above the error of a LAPACK eigenvalue of a graph matrix with 32 vertices.
ESCALATION_WINDOW = 1e-6

#: A float seed places the first two cuts at (m - 1) / SEED_SCALE and (m + 1) / SEED_SCALE,
#: with m the nearest integer to seed * SEED_SCALE.  Their half-gap is the largest power of
#: two not above ``ESCALATION_WINDOW`` (2^-20), so it too is far above a screened float's error.
SEED_SCALE = 1 << ceil(-log2(ESCALATION_WINDOW))


def isolate_kth_largest(p: Poly, k: int, near: float | None = None) -> RootWindow:
    """Isolate the k-th largest real root of ``p`` counted with multiplicity.

    One bisection from the Cauchy window (-B, B].  A float ``near``, such as
    the screened eigenvalue, only places the first two cuts, at the ends of
    its dyadic window; exact counts pick the side at every cut, so a seed that
    misses the root, or whose window holds other roots, only costs steps, and
    every window returned isolates the same root.

    Requires k >= 1 and a real-rooted p (see ``RootCounter``) of degree at
    least k.
    """
    if k < 1:
        raise ValueError(f"root index k must be at least 1, not {k}")
    counter = root_counter(tuple(p))
    if len(p) - 1 < k:
        raise ValueError(f"polynomial has fewer than {k} real roots")
    bound = cauchy_root_bound(p)
    # all the roots lie in (-B, B): every one above -B, none above B
    window = RootWindow(-bound, bound, k, counter, len(counter.poly) - 1, len(counter.squarefree) - 1, 0, 0)
    if near is not None and isfinite(near * SEED_SCALE):  # not nan, an infinity, or too large to round
        m = round(near * SEED_SCALE)
        for cut in (Fraction(m - 1, SEED_SCALE), Fraction(m + 1, SEED_SCALE)):
            if window.lo < cut < window.hi:
                window.cut(cut)
    while window.distinct() > 1:
        window.refine()
    return window


def compare_root_sum(pa: Poly, ka: int, pb: Poly, kb: int, c,
                     near_a: float | None = None, near_b: float | None = None) -> int:
    """Exact sign of alpha + beta - c: alpha the k_a-th largest root of pa, beta
    the k_b-th of pb, c rational or a ``Surd``.  ``near_a`` and ``near_b`` are
    optional float seeds for the two isolations (see ``isolate_kth_largest``);
    they never change the sign.  A root against a root is a sum against 0, beta
    a root of ``reflection_norm(pb, 0)``.

    Each step halves both windows, so if alpha + beta != c the sum window
    (alpha.lo + beta.lo, alpha.hi + beta.hi] comes to lie on one side of c.
    Equality is certified by N = ``reflection_norm(pa, c)``, built only once
    the window holds c: a root of gcd(pb, N) in beta's window is beta, and if
    N has one distinct root in the hull of beta's window and c minus alpha's,
    beta and c - alpha are that root.  If alpha + beta = c, the hull shrinks
    to beta, and N's other distinct roots lie a positive distance away, so
    that count reaches 1: the loop ends.
    """
    a, b, d = _surd_parts(c)
    wa = isolate_kth_largest(pa, ka, near_a)
    wb = isolate_kth_largest(pb, kb, near_b)
    norm = common = None
    while True:
        if _surd_sign(wa.lo + wb.lo - a, -b, d) >= 0:
            return 1
        if _surd_sign(wa.hi + wb.hi - a, -b, d) < 0:
            return -1
        if norm is None:
            norm = root_counter(tuple(reflection_norm(pa, c)))
            common = poly_gcd(wb.counter.squarefree, norm.squarefree)
        if _roots_above(common, wb.lo)[0] > _roots_above(common, wb.hi)[0]:
            # c - alpha lies in [low, high) + b*sqrt(d); the hull's open end is one alpha-window width below
            low, high = a - wa.hi - (wa.hi - wa.lo), a - wa.lo
            lo = wb.lo if _surd_sign(wb.lo - low, -b, d) <= 0 else Surd(low, b, d)
            hi = wb.hi if _surd_sign(wb.hi - high, -b, d) >= 0 else Surd(high, b, d)
            if norm.counts_at(lo)[1] - norm.counts_at(hi)[1] == 1:
                return 0
        wa.refine()
        wb.refine()
