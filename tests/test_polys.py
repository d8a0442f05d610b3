"""Exact polynomial arithmetic, root counting and root comparison.

``RootCounter`` counts by Descartes' rule of signs, exact only for real-rooted
polynomials; ``SturmCounter`` below is the reference it is checked against,
exact for every real polynomial."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from qng import polys
from qng.polys import (
    MPoly,
    RootCounter,
    Surd,
    cauchy_root_bound,
    compare_root_sum,
    isolate_kth_largest,
    poly_eval,
    poly_exact_div,
    poly_gcd,
    poly_mul,
    poly_rem,
    reflection_norm,
)
from qng.spectra import char_poly_exact, kind_char_poly, spectrum

from conftest import distinct_in, from_roots, surd_sign


def scaled(coeffs):
    """The integer polynomial L * coeffs, L the least common denominator of rational coeffs, trailing zeros dropped."""
    scale = math.lcm(*(F(c).denominator for c in coeffs))
    p = [int(c * scale) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    return p


# Comparisons that need hundreds of steps: seeded at 1/3, both windows sit on one dyadic
# grid, so roots 2^-600 apart need about 600 halvings to part (from the Cauchy bound, a few).
BIG = 2**600
ABOVE_THIRD = [-(BIG + 3), 3 * BIG]  # root 1/3 + 1/BIG
THIRD = [-1, 3]
THIRD_AND_BELOW = poly_mul(THIRD, [-(BIG - 3), 3 * BIG])  # roots 1/3 and 1/3 - 1/BIG


def test_divmod_and_gcd():
    p = from_roots([1, 2, 3])
    q = from_roots([2, 3, 5])
    g = poly_gcd(p, q)
    assert g == from_roots([2, 3])
    assert poly_gcd([-c for c in p], [3 * c for c in q]) == g
    assert poly_rem(p, g) == [] and poly_exact_div(p, g) == from_roots([1])
    assert poly_rem(p, from_roots([2])) == [] and poly_rem(p, from_roots([5])) == [1]
    # remainders by 2x - 1 and 1 - 2x are the value at 1/2, made primitive with its sign
    assert poly_rem([-1, 0, -1], [-1, 2]) == poly_rem([-1, 0, -1], [1, -2]) == [-1]
    # x^3 + x^2 + 1 = (x + 1)(x^2 + 1) - x
    assert poly_rem([1, 0, 1, 1], [1, 0, 1]) == poly_rem([3, 0, 3, 3], [2, 0, 2]) == [0, -1]


def test_squarefree_and_multiplicity():
    p = poly_mul(from_roots([2, 2, 2]), from_roots([5]))
    counter = RootCounter(p)
    assert counter.poly == p and counter.squarefree == from_roots([2, 5])
    negated = RootCounter([-6 * c for c in p])
    assert negated.poly == p and negated.squarefree == from_roots([2, 5])
    assert counter.counts_at(F(2)) == counter.counts_at(2) == (1, 1, 3)
    assert counter.counts_at(F(5)) == (0, 0, 1)
    assert counter.counts_at(F(7)) == (0, 0, 0)
    assert counter.counts_at(F(3, 2)) == (4, 2, 0)
    # a square-free polynomial is its own square-free part, counted once
    square_free = RootCounter(from_roots([2, 5]))
    assert square_free.squarefree is square_free.poly


def test_zero_polynomial_is_rejected():
    with pytest.raises(ValueError, match="zero polynomial"):
        polys.root_counter((0, 0))
    with pytest.raises(ValueError, match="zero polynomial"):
        RootCounter([0])


def test_compose_linear():
    """``reflection_norm``: at a rational c, the primitive multiple of p(c - x)
    that leads positively; at a surd c, a primitive positive polynomial of twice the degree
    with c - alpha and its conjugate as roots, for every root alpha of p."""
    p = [1, 2, 3]  # 3x^2 + 2x + 1
    q = reflection_norm(p, F(4))  # p(4 - x)
    assert q == [57, -26, 3]
    for x in (F(0), F(1), F(7, 2)):
        assert poly_eval(q, x) == poly_eval(p, 4 - x)
    assert reflection_norm(p, Surd(F(4), F(0), 7)) == q
    rng = random.Random(37)
    for _ in range(200):
        p = scaled([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))] + [1])
        c = F(rng.randint(-9, 9), rng.randint(1, 6))
        q = reflection_norm(p, c)
        assert len(q) == len(p) and math.gcd(*q) == 1 and q[-1] > 0
        # q = r * p(c - x), checked at deg + 1 points and the old ones
        r = F(q[-1]) / (p[-1] * (-1) ** (len(p) - 1))
        for x in [F(0), F(-3, 2), F(5, 3)] + list(range(1, len(p) + 1)):
            assert poly_eval(q, x) == r * poly_eval(p, c - x)
    for _ in range(100):
        d = rng.choice((2, 3, 5, 7))
        c = Surd(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)), d)
        e, f = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(1, 5), rng.randint(1, 3))
        rational = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        p = scaled([e * e - f * f * d, -2 * e, 1])  # roots e +- f sqrt(d)
        for root in rational:
            p = poly_mul(p, [-root.numerator, root.denominator])
        q = reflection_norm(p, c)
        assert len(q) == 2 * len(p) - 1 and math.gcd(*q) == 1 and q[-1] > 0
        for a, b in [(root, 0) for root in rational] + [(e, f), (e, -f)]:
            for cb in (c.b, -c.b):  # c and its conjugate, minus the root a + b sqrt(d)
                den = math.lcm((c.a - a).denominator, (cb - b).denominator)
                assert surd_sign(q, int((c.a - a) * den), int((cb - b) * den), d, den) == 0, (p, c, a, b)


def test_compare_root_sum_decides_rational_and_surd_bounds():
    golden = [-1, -1, 1]  # x^2 - x - 1, roots phi = (1 + sqrt 5)/2 and psi = (1 - sqrt 5)/2
    tiny = F(1, 1 << 40)
    for c, signs in (
        (Surd(F(1), F(1), 5), (0, -1)),  # phi + phi = 1 + sqrt 5 > phi + psi
        (F(1), (1, 0)),  # phi + psi = 1
        (Surd(F(1), F(0), 5), (1, 0)),
        (Surd(F(-1), F(1), 4), (1, 0)),  # -1 + sqrt 4 = 1
        (Surd(F(1) + tiny, F(1), 5), (-1, -1)),
        (Surd(F(1) - tiny, F(1), 5), (1, -1)),
    ):
        assert [compare_root_sum(golden, 1, golden, kb, c) for kb in (1, 2)] == list(signs), c
    # seeds never change the sign
    assert compare_root_sum(golden, 1, golden, 1, Surd(F(1), F(1), 5), 1.618, 1.6180339) == 0
    for pa, c, sign in ((ABOVE_THIRD, F(2, 3), 1), (THIRD, F(2, 3) + F(1, BIG), -1),
                        (THIRD, Surd(F(2, 3), F(1, BIG), 2), -1), (THIRD_AND_BELOW, F(2, 3), 0)):
        assert compare_root_sum(pa, 1, THIRD, 1, c, 1 / 3, 1 / 3) == sign, c


def test_sturm_counts_match_numpy(rng=random.Random(5)):
    for _ in range(100):
        roots = sorted(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        p = from_roots(roots)
        counter = RootCounter(p)
        distinct = sorted(set(roots))
        for lo, hi in [(-10, 10), (-3, 2), (0, 6), (-10, -4)]:
            want = sum(1 for r in distinct if lo < r <= hi)
            assert distinct_in(counter, F(lo), F(hi)) == want
        for x in (-10, -2, 0, 3):
            want = sum(1 for r in roots if r > x)
            assert counter.counts_at(F(x))[0] == want


def test_halfopen_convention_at_root_endpoints():
    p = from_roots([0, 4])
    counter = RootCounter(p)
    assert distinct_in(counter, F(0), F(4)) == 1  # 0 excluded, 4 included
    assert distinct_in(counter, F(-1), F(0)) == 1
    assert distinct_in(counter, F(-1), F(4)) == 2


def test_cauchy_bound_really_bounds(rng=random.Random(9)):
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 9)]
        bound = float(cauchy_root_bound(coeffs))
        roots = np.roots(list(reversed([float(c) for c in coeffs])))
        real = [r.real for r in roots if abs(r.imag) < 1e-9]
        assert all(abs(r) < bound + 1e-9 for r in real)


def test_isolation_finds_kth_largest():
    p = from_roots([1, 1, 3, 7])
    w = isolate_kth_largest(p, 1)
    assert w.lo < 7 <= w.hi
    w = isolate_kth_largest(p, 2)
    while w.hi - w.lo >= F(1, 1000):
        w.refine()
    assert w.lo < 3 <= w.hi
    for k in (3, 4):
        w = isolate_kth_largest(p, k)
        while w.hi - w.lo >= F(1, 1000):
            w.refine()
        assert w.lo < 1 <= w.hi
    with pytest.raises(ValueError):
        isolate_kth_largest(p, 5)
    for k in (0, -1):  # no 0th or -1st largest root, with a seed or without
        with pytest.raises(ValueError, match="at least 1"):
            isolate_kth_largest([-2, 0, 1], k)
        with pytest.raises(ValueError, match="at least 1"):
            compare_root_sum([-2, 0, 1], k, [-1, 1], 1, F(0))


def test_isolation_from_seeds():
    p = from_roots([1, 1, 3, 7])
    assert cauchy_root_bound(p) == 53
    width = F(2, polys.SEED_SCALE)
    for k, root in ((1, 7), (2, 3), (3, 1), (4, 1)):
        plain = isolate_kth_largest(p, k)
        # a seed at the root, a repeated one for k = 3 and 4, keeps its window
        seeded = isolate_kth_largest(p, k, root + 1e-9)
        assert seeded.hi - seeded.lo == width and seeded.lo < root <= seeded.hi
        assert distinct_in(seeded.counter, seeded.lo, seeded.hi) == 1
        # no number, or cuts outside the Cauchy window (-53, 53]: the plain bisection
        for none in [math.nan, math.inf, -math.inf, 1e6, -1e300, 1e308]:
            assert isolate_kth_largest(p, k, none) == plain, (k, none)
        # between roots or at another root: cuts that miss the root, then bisection from there
        others = [float(r) for r in (1, 3, 7) if r != root]
        for bad in [2.0, 5.0, *others]:
            w = isolate_kth_largest(p, k, bad)
            assert w.lo < root <= w.hi and distinct_in(w.counter, w.lo, w.hi) == 1, (k, bad)
    # two distinct roots, 0 and 2^-22, in the seed's window: narrowed inside it
    close = from_roots([0, F(1, 4 * polys.SEED_SCALE)])
    w = isolate_kth_largest(close, 1, 0.0)
    assert -F(1, polys.SEED_SCALE) <= w.lo < F(1, 4 * polys.SEED_SCALE) <= w.hi <= F(1, polys.SEED_SCALE)
    assert distinct_in(w.counter, w.lo, w.hi) == 1
    with pytest.raises(ValueError):
        isolate_kth_largest(p, 5, 1.0)
    # a nonzero constant has no roots, with a seed or without
    with pytest.raises(ValueError, match="fewer than 1 real roots"):
        isolate_kth_largest([5], 1, 0.5)
    constant = polys.root_counter((5,))
    assert constant.counts_at(F(0)) == constant.counts_at(2) == (0, 0, 0)


def _root_difference(pa, ka, pb, kb, near_a=None, near_b=None) -> int:
    """The sign of (k_a-th largest root of pa) - (k_b-th of pb) as ``qng`` takes it: the
    root of pa plus the (deg pb - k_b + 1)-th largest root of pb reflected, against 0."""
    return compare_root_sum(pa, ka, reflection_norm(pb, 0), len(pb) - kb, 0,
                            near_a, None if near_b is None else -near_b)


def test_compare_kth_roots(compare_kth_roots):
    """A root against a root, as a root sum against 0 and by the reference bisection, with
    seeds on the roots, off them, missing or not numbers."""
    quad = [-2, 0, 1]  # x^2 - 2
    s2 = math.sqrt(2)
    cases = [  # (pa, ka, root a, pb, kb, root b, sign)
        (from_roots([1, 5]), 1, 5, from_roots([2, 5]), 1, 5, 0),
        (from_roots([1, 5]), 2, 1, from_roots([2, 5]), 2, 2, -1),
        (from_roots([2, 5]), 2, 2, from_roots([1, 5]), 2, 1, 1),
        # irrational equality through a shared quadratic factor: sqrt2 on both sides
        (poly_mul(quad, from_roots([10])), 2, s2, poly_mul(quad, from_roots([-3])), 1, s2, 0),
        (poly_mul(quad, from_roots([10])), 1, 10, poly_mul(quad, from_roots([-3])), 1, s2, 1),
        (ABOVE_THIRD, 1, 1 / 3, THIRD, 1, 1 / 3, 1),
        (THIRD, 1, 1 / 3, ABOVE_THIRD, 1, 1 / 3, -1),
    ]
    for pa, ka, ra, pb, kb, rb, sign in cases:
        for near in [(None, None), (ra, rb), (ra - 1e-12, rb + 1e-12), (math.nan, rb), (ra, -math.inf),
                     (ra + 0.5, rb - 0.5)]:
            for compare in (_root_difference, compare_kth_roots):
                assert compare(pa, ka, pb, kb, *near) == sign, (compare, pa, ka, pb, kb, near)


def test_a_comparison_signs_each_chain_once_per_point(monkeypatch):
    """A window keeps the distinct counts at its ends: neither polynomial of either window's counter,
    p or its square-free part, is shifted twice at one point.  The equality certificate's gcd and
    reflected polynomial are counted afresh at the windows' current ends, so they may be counted
    again at an end that did not move."""
    signed = Counter()
    roots_above = polys._roots_above

    def counting(p, x):
        signed[id(p), x] += 1
        return roots_above(p, x)

    monkeypatch.setattr(polys, "_roots_above", counting)
    quad = [-2, 0, 1]
    cases = [
        (_root_difference, (ABOVE_THIRD, 1, THIRD, 1, 1 / 3, 1 / 3), 1),
        (_root_difference, (ABOVE_THIRD, 1, THIRD, 1), 1),
        (_root_difference, (poly_mul(quad, from_roots([10])), 2, poly_mul(quad, from_roots([-3])), 1), 0),
        (_root_difference, (from_roots([1, 1, 3, 7]), 2, from_roots([3, 3, 5]), 2), 0),
        (compare_root_sum, (from_roots([1, 3]), 1, from_roots([2, 5]), 2, F(5)), 0),
        (compare_root_sum, (from_roots([1, 3]), 1, from_roots([2, 5]), 2, F(11, 2)), -1),
        (compare_root_sum, (poly_mul(quad, from_roots([10])), 2, poly_mul(quad, from_roots([-3])), 1,
                            Surd(F(0), F(2), 2)), 0),
    ]
    for compare, args, sign in cases:
        signed.clear()
        polys.root_counter.cache_clear()
        assert compare(*args) == sign, args
        isolated = (args[0], args[2]) if compare is compare_root_sum else (args[0], reflection_norm(args[2], 0))
        counters = [polys.root_counter(tuple(p)) for p in isolated]
        shifted = {id(q) for counter in counters for q in (counter.poly, counter.squarefree)}
        assert max(n for (poly_id, _), n in signed.items() if poly_id in shifted) == 1, args


def test_a_window_of_one_root_or_simple_roots_shifts_only_the_square_free_part(monkeypatch):
    """Once a window holds one distinct root or simple roots only, a cut counts the square-free
    part alone.  Isolating either root 2^-20 +- 2^-100 of x^20 (x - 1)(2^100 x - 2^80 -+ 1) takes
    over 80 cuts, and only the first, at 0 with the 20-fold root in the window, shifts p itself;
    refining a window around the 5-fold root 1/3 of (x - 1/3)^5 (x + 1) never shifts p."""
    shifted = Counter()
    roots_above = polys._roots_above

    def counting(p, x):
        shifted[id(p)] += 1
        return roots_above(p, x)

    monkeypatch.setattr(polys, "_roots_above", counting)
    p = poly_mul([0] * 20 + [1], [-1, 1])
    for factor in ([-(2**80) - 1, 2**100], [-(2**80) + 1, 2**100]):
        p = poly_mul(p, factor)
    counter = polys.root_counter(tuple(p))
    for k, root in ((2, F(1, 2**20) + F(1, 2**100)), (3, F(1, 2**20) - F(1, 2**100))):
        shifted.clear()
        w = isolate_kth_largest(p, k)
        assert w.lo < root <= w.hi and w.distinct() == 1, k
        assert shifted[id(counter.poly)] == 1 and shifted[id(counter.squarefree)] > 80, (k, shifted)
    p = from_roots([F(1, 3)] * 5 + [-1])
    counter = polys.root_counter(tuple(p))
    for k in (1, 3, 5):
        w = isolate_kth_largest(p, k)
        shifted.clear()
        for _ in range(30):
            w.refine()
        assert w.lo < F(1, 3) <= w.hi and w.hi - w.lo < F(1, 2**20), k
        assert shifted[id(counter.poly)] == 0 and shifted[id(counter.squarefree)] == 30, k


def test_an_equality_certified_after_bisection(monkeypatch):
    """Unseeded windows around roots 2^-50 apart: at (k_a, k_b) = (2, 1) the sum window holds c while
    the certificate's hull still holds two roots of the reflected polynomial, so the comparison halves
    its isolated windows before it certifies the equality, for a rational c and, with sqrt(2) and a
    rational just above it, a surd c."""
    step = F(1, 2**50)
    above_sqrt2 = poly_mul([-2, 0, 1], from_roots([F(math.isqrt(2 << 100) + 1, 2**50)]))
    pb = from_roots([F(2, 3), F(2, 3) - step])
    cases = [(from_roots([F(1, 3), F(1, 3) + step]), 1, [0, 0, -1, 1]),
             (above_sqrt2, Surd(F(2, 3), F(1), 2), [0, -1, -1, 1])]
    windows = []
    isolate = polys.isolate_kth_largest

    def isolating(*args):
        window = isolate(*args)
        windows.append((window, window.hi - window.lo))
        return window

    monkeypatch.setattr(polys, "isolate_kth_largest", isolating)
    for pa, c, signs in cases:
        windows.clear()
        assert [compare_root_sum(pa, ka, pb, kb, c) for ka, kb in ((2, 1), (1, 2), (2, 2), (1, 1))] == signs, c
        assert all(w.hi - w.lo < width for w, width in windows[:2]), c


def _surd_horner_sign(p, a, b, d):
    """Sign of p(a + b sqrt(d)) by Horner's rule on ``Fraction`` pairs, then a^2 against b^2 d."""
    x, y = F(0), F(0)
    for c in reversed(p):
        x, y = x * a + y * b * d + c, x * b + y * a
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sy == 0 or d == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    gap = x * x - y * y * d  # opposite signs: the part with the larger square decides
    return sx if gap > 0 else sy if gap < 0 else 0


def _at(p, point):
    """The integer value of an ``MPoly`` or ``int`` at a point: one ``int`` per variable name."""
    if isinstance(p, int):
        return p
    return sum(c * math.prod(x ** k for x, k in zip(point, e)) for e, c in p.terms.items())


def _random_mpoly(rng, names, terms=5, degree=3):
    return MPoly(names, {tuple(rng.randint(0, degree) for _ in names): rng.randint(-6, 6)
                         for _ in range(rng.randint(0, terms))})


def test_mpoly_ring_agrees_with_integer_evaluation():
    """+, -, *, powers and == of ``MPoly``, with ``int`` on either side, agree with the
    same operations on the values at seeded random integer points."""
    rng = random.Random(41)
    names = ("n", "d2", "s")
    n, d2, s = MPoly.variables(*names)
    assert [_at(v, (2, 3, 5)) for v in (n, d2, s)] == [2, 3, 5]
    assert (n + 1) ** 2 == n * n + 2 * n + 1 and (n + 1) ** 2 != n * n + 1 and n ** 0 == 1
    assert n - n == 0 and 0 == n - n and s * 0 == MPoly(names, {}) and 3 - n == -(n - 3)
    for _ in range(200):
        p, q = _random_mpoly(rng, names), _random_mpoly(rng, names)
        k, m = rng.randint(0, 3), rng.randint(-9, 9)
        results = {"add": (p + q, lambda a, b: a + b), "sub": (p - q, lambda a, b: a - b),
                   "mul": (p * q, lambda a, b: a * b), "neg": (-p, lambda a, b: -a),
                   "pow": (p ** k, lambda a, b: a ** k), "radd": (m + p, lambda a, b: m + a),
                   "rsub": (m - p, lambda a, b: m - a), "rmul": (m * p, lambda a, b: m * a),
                   "sub-int": (p - m, lambda a, b: a - m)}
        points = [tuple(rng.randint(-20, 20) for _ in names) for _ in range(5)]
        for label, (got, want) in results.items():
            for point in points:
                assert _at(got, point) == want(_at(p, point), _at(q, point)), (label, p.terms, q.terms, point)
        assert (p + q) * (p - q) == p ** 2 - q ** 2
        # a nonzero polynomial of degree at most 3 in each variable is nonzero somewhere on {0..3}^3
        grid = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        assert (p == q) == all(_at(p, point) == _at(q, point) for point in grid), (p.terms, q.terms)
        assert (p == m) == all(_at(p, point) == m for point in grid)
    with pytest.raises(ValueError):
        n + MPoly.variables("n", "d2")[0]
    with pytest.raises(ValueError):
        n ** -1
    with pytest.raises(TypeError):
        n + F(1, 2)


def test_mpoly_at_and_truth_value():
    """``MPoly.at`` is the value at one int per name, and a polynomial is true when nonzero."""
    rng = random.Random(43)
    names = ("n", "d2", "s")
    for _ in range(100):
        p = _random_mpoly(rng, names)
        point = tuple(rng.randint(-20, 20) for _ in names)
        assert p.at(*point) == _at(p, point)
        assert bool(p) is (p != 0)
    n, d2, s = MPoly.variables(*names)
    assert not n - n and not MPoly(names, {}) and (n * 0 + 3).at(7, 1, 1) == 3


def test_mpoly_at_takes_one_value_per_name():
    """``MPoly.at`` raises ``ValueError`` unless it gets one value per name: a short point
    would drop the variables past its end from every term, and a long one its extra values."""
    n, d2, s = MPoly.variables("n", "d2", "s")
    assert (n + d2).at(5, 7, 0) == 12 and (n + d2).at(5, 7, 9) == 12
    for values in ((5,), (5, 7), (5, 7, 0, 9), ()):
        with pytest.raises(ValueError, match=re.escape(f"{len(values)} values for the names ('n', 'd2', 's')")):
            (n + d2).at(*values)


def test_mpoly_hash_agrees_with_equality():
    """Equal polynomials hash equal however they were built, and a constant hashes as the
    ``int`` it equals, so ``MPoly`` and ``int`` keys mix in a set or a dict."""
    rng = random.Random(45)
    names = ("n", "d2", "s")
    for _ in range(100):
        p, q = _random_mpoly(rng, names), _random_mpoly(rng, names)
        assert hash((p + q) * (p - q)) == hash(p ** 2 - q ** 2)
        assert hash(p - q + q) == hash(p) and hash(q - q) == hash(0)
    n, d2, s = MPoly.variables(*names)
    assert len({n - n + 3, 3}) == 1 and len({n - n, 0, MPoly(names, {})}) == 1
    assert len({n + d2, d2 + n, n, d2, n * d2, d2 * n}) == 4
    assert {(n + 1) * (n - 1): "a", 7: "b"}[n * n - 1] == "a" and {7: "b"}[s - s + 7] == "b"


def test_mpoly_over_other_names_compares_and_does_not_combine():
    """Polynomials over different names are compared, not rejected: they are equal only as
    constants of one value, which hash alike, so they share a set or a dict.  +, - and *
    across names still raise."""
    n, = MPoly.variables("n")
    m, = MPoly.variables("m")
    nd2 = MPoly.variables("n", "d2")[0]
    assert len({n - n + 3, m - m + 3}) == 1 and len({n - n + 3, m - m + 4, 3}) == 2
    assert n - n + 3 == m - m + 3 and n - n == m - m == MPoly((), {})
    assert n != m and n != nd2 and n - n + 3 != m - m + 4 and n - n + 3 != m
    assert {n: "a", m: "b", nd2: "c"} == {n: "a", m: "b", nd2: "c"} and len({n, m, nd2}) == 3
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match=re.escape("polynomials over ('n',) and ('m',)")):
            combine(n, m)


def test_char_poly_over_a_ring():
    """``char_poly`` agrees with ``char_poly_exact`` on seeded integer matrices of orders
    1..5, and over ``MPoly`` entries with the integer results at seeded points."""
    rng = random.Random(44)
    for k in range(1, 6):
        for _ in range(30):
            m = [[rng.choice([0, rng.randint(-6, 6)]) for _ in range(k)] for _ in range(k)]
            assert polys.char_poly(m) == char_poly_exact(m), m
    names = ("n", "d2")
    for k in range(1, 5):
        m = [[rng.choice([rng.randint(-3, 3), _random_mpoly(rng, names, 3, 2)]) for _ in range(k)] for _ in range(k)]
        phi = polys.char_poly(m)
        for _ in range(4):
            point = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert tuple(_at(c, point) for c in phi) == char_poly_exact([[_at(e, point) for e in row] for row in m])
    assert polys.char_poly([]) == (1,)


def test_horner_kernels_run_on_mpoly():
    """``_value_surd`` at a rational point (v = 0) and at a surd, and the Taylor shift ``_shift``
    at both, with ``MPoly`` coefficients and points give the polynomials whose values at seeded
    random points are the kernels' integer results.  A shift at a point where v or d is 0 is the
    rational one, with no surd parts, so those read as zeros."""
    rng = random.Random(42)
    names = ("x", "y")
    x, y = MPoly.variables(*names)

    def parts(shifted):
        big, small = shifted
        return big, [0] * len(big) if small is None else small

    for _ in range(150):
        p = [rng.choice([rng.randint(-9, 9), _random_mpoly(rng, names, 3, 2)]) for _ in range(rng.randint(1, 5))]
        u, v, a = (_random_mpoly(rng, names, 3, 2) + rng.randint(-5, 5) for _ in range(3))
        d, b, den = x * x + rng.randint(0, 9), y * y + 1, rng.choice([2, y * y + 1])
        value, (big, small) = polys._value_surd(p, a, 0, 0, b)[0], polys._value_surd(p, u, v, d, den)
        (rational, none), shifted = polys._shift(p, a, 0, 0, b), parts(polys._shift(p, u, v, d, den))
        assert none is None
        for _ in range(4):
            point = (rng.randint(-9, 9), rng.randint(-9, 9))
            at = [_at(c, point) for c in p]
            assert _at(value, point) == polys._value_surd(at, _at(a, point), 0, 0, _at(b, point))[0]
            assert ((_at(big, point), _at(small, point))
                    == polys._value_surd(at, *(_at(w, point) for w in (u, v, d, den))))
            assert [_at(c, point) for c in rational] == polys._shift(at, _at(a, point), 0, 0, _at(b, point))[0]
            assert ([[_at(c, point) for c in part] for part in shifted]
                    == list(parts(polys._shift(at, *(_at(w, point) for w in (u, v, d, den))))))
    # (x - sqrt(x^2 + 4y)) / 2 is a root of z^2 - xz - y for every x and y
    assert polys._value_surd([-y, -x, 1], x, -1, x * x + 4 * y, 2) == (0, 0)
    assert polys._value_surd([-y - 1, -x, 1], x, -1, x * x + 4 * y, 2) != (0, 0)
    # the shift's constant coefficient is the value, so it is 0 at that root too
    assert [c[0] for c in polys._shift([-y, -x, 1], x, -1, x * x + 4 * y, 2)] == [0, 0]


def test_sign_at_surd_matches_fraction_horner():
    """The tests' integer reference ``surd_sign``, and ``polys._surd_sign`` of ``polys._value_surd``,
    the kernels that the proof checks' signs at beta_2 and root counting at a ``Surd`` run on, give
    the sign of p((u + v sqrt(d)) / den) that an exact ``Fraction`` Horner gives, over seeded random
    polynomials and points, at roots and at known signs."""
    rng = random.Random(28)
    cases = [([0, 1], 3, -1, 9, 1),  # 3 - sqrt(9) = 0
             ([-1, -1, 1], 1, 1, 5, 2), ([-1, -1, 1], 1, -1, 5, 2), ([-1, -1, 1], 2, 2, 5, 4),  # golden ratio
             ([-5, 0, 1], 0, 1, 5, 1), ([-5, 0, 1], -6, 3, 0, 2),
             ([2, 3], -6, 4, 7, 6)]  # den shares factors with u and v
    for _ in range(600):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice([-3, -1, 1, 2])]
        d = rng.choice([0, 1, 2, 3, 4, 5, 8, 9, 12, 25])
        den = rng.choice([1, 2, 3, 4, 6, 12])
        u, v = rng.randint(-12, 12) * rng.choice([1, den]), rng.randint(-4, 4) * rng.choice([1, den])
        if rng.random() < 0.3:  # make (u + v sqrt(d)) / den a root of p
            p = poly_mul(p, [u * u - v * v * d, -2 * u * den, den * den])
        cases.append((p, u, v, d, den))
    for _ in range(300):  # rational coefficients cleared, rational parts over one denominator
        p = scaled([F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(0, 8))])
        a, b = F(rng.randint(-30, 30), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12))
        den = math.lcm(a.denominator, b.denominator)
        cases.append((p, int(a * den), int(b * den), rng.randint(0, 60), den))
    zeros = 0
    for p, u, v, d, den in cases:
        sign = surd_sign(p, u, v, d, den)
        assert sign == _surd_horner_sign(p, F(u, den), F(v, den), d), (p, u, v, d, den)
        assert sign == (polys._surd_sign(*polys._value_surd(p, u, v, d, den), d) if p else 0), (p, u, v, d, den)
        if v == 0 or d == 0:
            value = poly_eval(p, F(u, den))
            assert sign == (value > 0) - (value < 0)
        zeros += sign == 0
    assert zeros > 150
    # 3 - sqrt(9) = 0, -3 + sqrt(8) < 0 < -3 + sqrt(10); x^2 - x - 1 vanishes at (1 +- sqrt(5))/2, not at 1 + sqrt(5)
    assert [surd_sign([0, 1], *point) for point in ((3, -1, 9), (-3, 1, 8), (-3, 1, 10))] == [0, -1, 1]
    assert surd_sign([-1, -1, 1], 1, 1, 5, 2) == surd_sign([-1, -1, 1], 1, -1, 5, 2) == 0
    assert surd_sign([-1, -1, 1], 1, 1, 5) == 1
    assert surd_sign([5], 1, 1, 2) == 1 and surd_sign([], 1, 1, 2) == 0
    for den, d in ((0, 2), (-2, 2), (1, -1)):
        with pytest.raises(ValueError):
            surd_sign([-1, -1, 1], 1, 1, d, den)
    with pytest.raises(ValueError):
        Surd(F(1), F(1), -2)


def test_poly_eval_keeps_integer_points_integral():
    assert poly_eval([1, 2, 3], 2) == 17 and type(poly_eval([1, 2, 3], 2)) is int
    assert poly_eval([], -4) == 0 and type(poly_eval([], -4)) is int
    assert poly_eval([1, 2, 3], F(1, 2)) == F(11, 4) and type(poly_eval([], F(1, 2))) is F


def test_sturm_chain_with_surd_endpoint():
    # roots 0, sqrt2, 3; count above sqrt2 must be exactly 1
    p = poly_mul([-2, 0, 1], from_roots([0, 3]))
    counter = RootCounter(p)
    s2 = Surd(F(0), F(1), 2)
    assert counter.counts_at(s2) == (1, 1, 1)
    assert distinct_in(counter, s2, F(10)) == 1
    assert distinct_in(counter, s2, cauchy_root_bound(p)) == 1


# --- the Sturm reference, exact with non-real roots too ---


def _sturm_chain(sf):
    """The Sturm sequence of a square-free polynomial: it, its derivative, then each remainder
    negated, by ``poly_rem``, whose positive scale factors keep the true remainder's signs."""
    chain = [sf]
    if len(sf) > 1:
        chain.append(polys._primitive(polys._derivative(sf)))
        while len(chain[-1]) > 1:
            rem = poly_rem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _integer_point(x):
    """(u, v, d, den) with x = (u + v*sqrt(d)) / den, for a rational or ``Surd`` x."""
    if isinstance(x, Surd):
        den = math.lcm(x.a.denominator, x.b.denominator)
        return int(x.a * den), int(x.b * den), x.d, den
    return F(x).numerator, 0, 0, F(x).denominator


def _sturm_changes(chain, x):
    """Sign changes of a Sturm sequence at a rational or ``Surd`` x, zeros dropped: none for a constant."""
    point = _integer_point(x)
    signs = [s for s in (surd_sign(p, *point) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class SturmCounter:
    """Reference counter with ``RootCounter``'s query, from the iterated-gcd levels of p: level j
    is the square-free part of gcd applied j times to p, the product of the roots of multiplicity
    above j, so a count summed over the levels counts with multiplicity, level 0's counts distinct
    roots, and the levels that vanish at a point are its multiplicity.  Each level is counted by
    its Sturm sequence, with the Cauchy bound B standing in for +infinity (no root lies above it,
    so a chain changes sign there as often as at +infinity)."""

    def __init__(self, p):
        cur = polys._primitive(list(p) if p[-1] > 0 else [-c for c in p])
        self.levels = []
        while len(cur) > 1:
            nxt = poly_gcd(cur, polys._derivative(cur))
            self.levels.append(poly_exact_div(cur, nxt))
            cur = nxt
        self.chains = [_sturm_chain(level) for level in self.levels]
        self.bound = cauchy_root_bound(p)
        self._changes = {}

    def _at(self, x):
        """The sign changes of every level's chain at x."""
        if x not in self._changes:
            self._changes[x] = [_sturm_changes(chain, x) for chain in self.chains]
        return self._changes[x]

    def counts_at(self, x):
        """(above, distinct_above, at): the real roots above x summed over the levels, level 0's
        alone, and the levels that vanish at x."""
        above = [a - b for a, b in zip(self._at(x), self._at(self.bound))]
        point = _integer_point(x)
        return sum(above), above[0] if above else 0, sum(surd_sign(level, *point) == 0 for level in self.levels)


# --- integer layer: root counts, multiplicities, surd evaluation ---


def _real_roots(p):
    """Real roots by numpy, or None if some root is near-real or near-repeated."""
    roots = np.roots([float(c) for c in reversed(p)])
    if any(1e-9 < abs(r.imag) < 1e-4 for r in roots):
        return None
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-9)
    if any(b - a < 1e-6 for a, b in zip(real, real[1:])):
        return None
    return real


def test_sturm_counts_with_complex_roots(rng=random.Random(17)):
    """The Sturm reference counts only the real roots of a polynomial with non-real ones,
    where Descartes' rule, and so ``RootCounter``, may count too many."""
    x2_plus_1 = [1, 0, 1]
    assert SturmCounter(x2_plus_1).counts_at(F(-3)) == (0, 0, 0)
    p = poly_mul(x2_plus_1, from_roots([1, 1]))
    assert SturmCounter(p).counts_at(F(-3)) == (2, 1, 0)
    assert distinct_in(SturmCounter(p), F(-3), F(1)) == 1
    assert SturmCounter(p).counts_at(F(1)) == (0, 0, 2)
    checked = 0
    while checked < 300:
        p = scaled([rng.randint(-9, 9) for _ in range(rng.randint(2, 9))])
        if len(p) < 2:
            continue
        real = _real_roots(p)
        if real is None or len(real) == len(p) - 1:
            continue  # keep only polynomials with non-real roots
        counter = SturmCounter(p)
        top = cauchy_root_bound(p)
        for _ in range(5):
            x = F(rng.randint(-80, 80), rng.randint(1, 8))
            if any(abs(r - x) < 1e-6 for r in real):
                continue
            assert counter.counts_at(x)[1] == sum(1 for r in real if r > x), (p, x)
        assert distinct_in(counter, -top, top) == len(real)
        checked += 1


def _agrees_with_sturm(p, points):
    """``RootCounter`` and the Sturm reference count the roots of p above each point alike,
    with multiplicity and without, and the multiplicity of each point as a root."""
    counter, ref = RootCounter(p), SturmCounter(p)
    for x in points:
        assert counter.counts_at(x) == ref.counts_at(x), (p, x)
    return counter


def test_root_counter_matches_the_sturm_reference_on_graph_char_polys(graphs_by_order):
    """On the char polys of A, L and Q of every class of order <= 6 and every 7th of order 7,
    ``RootCounter`` counts as the Sturm reference does: 2^-20 either side of each float
    eigenvalue, at each integer eigenvalue, whose multiplicity is also the floats', and at two
    seeded surd points; and, for one kind per class in turn, on ``reflection_norm(p, c)`` at a
    seeded surd c, at surds 2^-20 either side of c minus the largest and the smallest eigenvalue."""
    rng = random.Random(36)
    step = F(1, polys.SEED_SCALE)
    for n in range(1, 8):
        for i, g in enumerate(graphs_by_order[n][:: 7 if n == 7 else 1]):
            for kind in "ALQ":
                p = kind_char_poly(g, kind)
                values = spectrum(g, kind).values
                near = sorted({F(round(v * polys.SEED_SCALE), polys.SEED_SCALE) for v in values})
                integers = sorted({round(v) for v in values if poly_eval(p, round(v)) == 0})
                surds = [Surd(F(rng.randint(-16, 16), 2), F(rng.choice((-1, 1)), rng.randint(1, 3)),
                              rng.choice((2, 3, 5, 7))) for _ in range(2)]
                counter = _agrees_with_sturm(p, [y for x in near for y in (x - step, x + step)] + integers + surds)
                for r in integers:
                    assert counter.counts_at(r)[2] == sum(abs(v - r) < 1e-6 for v in values)
                if kind != "ALQ"[i % 3]:
                    continue
                c = surds[0]
                _agrees_with_sturm(reflection_norm(p, c),
                                   [Surd(c.a - x + e, c.b, c.d) for x in (near[-1], near[0]) for e in (-step, step)])


def test_root_counter_against_multiplicities(rng=random.Random(23)):
    """``RootCounter`` on products of rational roots, and the Sturm reference on the same
    products times quadratics without real roots; then both on (x^2 - 2)^3 (x - 1)^2, whose
    repeated roots include surds."""
    for _ in range(150):
        roots = [F(rng.randint(-12, 12), rng.choice([1, 1, 2, 3])) for _ in range(rng.randint(1, 4))]
        roots += rng.choices(roots, k=rng.randint(0, 4))  # repeated roots
        real = p = from_roots(roots)
        quadratics = set()
        for _ in range(rng.randint(0, 2)):  # factors without real roots
            b = rng.randint(-4, 4)
            q = (b * b + rng.randint(1, 3), 2 * b, 1)
            quadratics.add(q)
            p = poly_mul(p, list(q))
        scale = rng.choice([-3, -1, 1, 2]) * rng.choice([1, 5])
        points = set(roots) | {F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(6)}
        distinct = set(roots)
        want_real = want = from_roots(sorted(distinct))
        for q in sorted(quadratics):
            want = poly_mul(want, list(q))
        counter, ref = RootCounter([scale * c for c in real]), SturmCounter([scale * c for c in p])
        for x in points:
            counts = (sum(1 for r in roots if r > x), sum(1 for r in distinct if r > x), roots.count(x))
            assert counter.counts_at(x) == ref.counts_at(x) == counts, (roots, x)
        assert distinct_in(counter, F(-13), F(13)) == distinct_in(ref, F(-13), F(13)) == len(distinct)
        assert counter.squarefree == want_real and ref.levels[0] == want
    quad = [-2, 0, 1]
    p = poly_mul(poly_mul(poly_mul(quad, quad), quad), from_roots([1, 1]))
    s2 = Surd(F(0), F(1), 2)
    counts = {s2: (0, 0, 3), Surd(F(0), F(-1), 2): (5, 2, 3), F(1): (3, 1, 2), F(0): (5, 2, 0),
              Surd(F(1), F(1), 2): (0, 0, 0)}
    for counter in (RootCounter(p), SturmCounter(p)):
        assert {x: counter.counts_at(x) for x in counts} == counts, type(counter)
    assert RootCounter(p).squarefree == poly_mul(quad, from_roots([1]))
