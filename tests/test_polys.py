"""Exact polynomial arithmetic, Sturm counting and root comparison."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qng import polys
from qng.polys import (
    POS_INF,
    RootCounter,
    SturmChain,
    Surd,
    cauchy_root_bound,
    compare_kth_roots,
    integer_poly,
    isolate_kth_largest,
    multiplicity_at,
    poly_compose_linear,
    poly_eval,
    poly_eval_surd,
    poly_exact_div,
    poly_gcd,
    poly_mul,
    poly_rem,
    squarefree_part,
)


def from_roots(roots):
    """The primitive integer polynomial with these rational roots, positive leading coefficient."""
    out = [1]
    for r in roots:
        out = poly_mul(out, integer_poly([-F(r), 1]))
    return out


def test_poly_normalizes_int_fraction_and_mixed_inputs():
    want = [2, -4, 3]
    for coeffs in ([F(1), F(-2), F(3, 2), F(0), F(0)], [1, -2, F(3, 2), 0],
                   [F(1), -2, F(3, 2)], [1, F(-4, 2), F(3, 2), F(0)], [4, -8, 6]):
        got = integer_poly(coeffs)
        assert got == want and all(type(c) is int for c in got)
    assert integer_poly([2, 0, 5, 0]) == integer_poly([F(2), F(0), F(5)]) == [2, 0, 5]
    assert integer_poly([F(-1, 2), F(-3, 4)]) == [-2, -3]  # a positive multiple keeps the sign
    assert integer_poly([0, F(0), 0]) == [] and integer_poly([]) == []


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
    assert squarefree_part(p) == from_roots([2, 5])
    assert squarefree_part([-6 * c for c in p]) == from_roots([2, 5])
    assert multiplicity_at(p, F(2)) == 3
    assert multiplicity_at(p, 2) == 3
    assert multiplicity_at(p, F(5)) == 1
    assert multiplicity_at(p, F(7)) == 0


def test_compose_linear():
    p = [1, 2, 3]  # 3x^2 + 2x + 1
    q = poly_compose_linear(p, F(-1), F(4))  # p(4 - x)
    assert q == [57, -26, 3]
    for x in (F(0), F(1), F(7, 2)):
        assert poly_eval(q, x) == poly_eval(p, 4 - x)
    rng = random.Random(37)
    for _ in range(200):
        p = integer_poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))])
        a, b = F(rng.randint(-4, 4), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 6))
        q = poly_compose_linear(p, a, b)
        if a == 0:
            assert q == integer_poly([poly_eval(p, b)])
            continue
        assert len(q) == len(p) and (not q or math.gcd(*q) == 1)
        if not p:
            continue
        # q = r * p(a x + b) with r > 0, checked at deg + 1 points and the old ones
        r = F(q[-1]) / (p[-1] * a ** (len(p) - 1))
        assert r > 0
        for x in [F(0), F(-3, 2), F(5, 3)] + list(range(1, len(p) + 1)):
            assert poly_eval(q, x) == r * poly_eval(p, a * x + b)


def test_sturm_counts_match_numpy(rng=random.Random(5)):
    for _ in range(100):
        roots = sorted(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        p = from_roots(roots)
        chain = SturmChain(p)
        distinct = sorted(set(roots))
        for lo, hi in [(-10, 10), (-3, 2), (0, 6), (-10, -4)]:
            want = sum(1 for r in distinct if lo < r <= hi)
            assert chain.count_halfopen(F(lo), F(hi)) == want
        counter = RootCounter(p)
        for x in (-10, -2, 0, 3):
            want = sum(1 for r in roots if r > x)
            assert counter.count_gt(F(x)) == want


def test_halfopen_convention_at_root_endpoints():
    p = from_roots([0, 4])
    chain = SturmChain(p)
    assert chain.count_halfopen(F(0), F(4)) == 1  # 0 excluded, 4 included
    assert chain.count_halfopen(F(-1), F(0)) == 1
    assert chain.count_halfopen(F(-1), F(4)) == 2


def test_cauchy_bound_really_bounds(rng=random.Random(9)):
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 9)]
        p = integer_poly(coeffs)
        if len(p) < 2:
            continue
        bound = float(cauchy_root_bound(p))
        roots = np.roots(list(reversed([float(c) for c in p])))
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


def test_compare_kth_roots():
    pa = from_roots([1, 5])
    pb = from_roots([2, 5])
    assert compare_kth_roots(pa, 1, pb, 1) == 0  # 5 == 5
    assert compare_kth_roots(pa, 2, pb, 2) == -1  # 1 < 2
    assert compare_kth_roots(pb, 2, pa, 2) == 1
    # irrational equality through a shared quadratic factor
    quad = [-2, 0, 1]  # x^2 - 2
    pa = poly_mul(quad, from_roots([10]))
    pb = poly_mul(quad, from_roots([-3]))
    assert compare_kth_roots(pa, 2, pb, 1) == 0  # sqrt2 on both sides
    assert compare_kth_roots(pa, 1, pb, 1) == 1


def test_surd_arithmetic_and_sign():
    s = Surd(F(0), F(1), 2)
    assert (s * s).a == 2 and (s * s).b == 0
    assert (s - 1).sign() == 1 and (s - 2).sign() == -1
    assert Surd(F(3), F(-1), 9).is_zero()  # 3 - sqrt(9)
    assert Surd(F(-3), F(1), 8).sign() == -1
    assert Surd(F(-3), F(1), 10).sign() == 1
    with pytest.raises(ValueError):
        Surd(F(1), F(1), 2) + Surd(F(1), F(1), 3)
    # mixing is fine when one side is rational
    assert (Surd(F(1), F(0), 3) + Surd(F(1), F(1), 2)).d == 2


def test_poly_eval_surd_golden_ratio():
    p = [-1, -1, 1]  # x^2 - x - 1
    phi = Surd(F(1, 2), F(1, 2), 5)
    assert poly_eval_surd(p, phi).is_zero()
    assert poly_eval_surd(p, Surd(F(1, 2), F(-1, 2), 5)).is_zero()
    assert not poly_eval_surd(p, Surd(F(1), F(1), 5)).is_zero()


def test_sturm_chain_with_surd_endpoint():
    # roots 0, sqrt2, 3; count above sqrt2 must be exactly 1
    p = poly_mul([-2, 0, 1], from_roots([0, 3]))
    counter = RootCounter(p)
    s2 = Surd(F(0), F(1), 2)
    assert counter.count_gt(s2) == 1
    assert SturmChain(p).count_halfopen(s2, F(10)) == 1
    assert SturmChain(p).count_gt(s2) == 1
    assert SturmChain(p).variations(POS_INF) == 0


# --- integer layer: Sturm signs, multiplicities, surd evaluation ---


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
    x2_plus_1 = [1, 0, 1]
    assert SturmChain(x2_plus_1).count_gt(F(-3)) == 0
    assert RootCounter(x2_plus_1).count_gt(F(-3)) == 0
    p = poly_mul(x2_plus_1, from_roots([1, 1]))
    assert SturmChain(p).count_gt(F(-3)) == 1
    assert SturmChain(p).count_halfopen(F(-3), F(1)) == 1
    assert RootCounter(p).count_gt(F(-3)) == 2
    assert RootCounter(p).count_gt(F(1)) == 0
    checked = 0
    while checked < 300:
        p = integer_poly([rng.randint(-9, 9) for _ in range(rng.randint(2, 9))])
        if len(p) < 2:
            continue
        real = _real_roots(p)
        if real is None or len(real) == len(p) - 1:
            continue  # keep only polynomials with non-real roots
        chain = SturmChain(p)
        for _ in range(5):
            x = F(rng.randint(-80, 80), rng.randint(1, 8))
            if any(abs(r - x) < 1e-6 for r in real):
                continue
            assert chain.count_gt(x) == sum(1 for r in real if r > x), (p, x)
        assert chain.count_halfopen(polys.NEG_INF, POS_INF) == len(real)
        checked += 1


def test_root_counter_against_multiplicities(rng=random.Random(23)):
    for _ in range(150):
        roots = [F(rng.randint(-12, 12), rng.choice([1, 1, 2, 3])) for _ in range(rng.randint(1, 4))]
        roots += rng.choices(roots, k=rng.randint(0, 4))  # repeated roots
        p = from_roots(roots)
        quadratics = set()
        for _ in range(rng.randint(0, 2)):  # factors without real roots
            b = rng.randint(-4, 4)
            q = (b * b + rng.randint(1, 3), 2 * b, 1)
            quadratics.add(q)
            p = poly_mul(p, list(q))
        scale = rng.choice([-3, -1, 1, 2]) * rng.choice([1, 5])
        p = [scale * c for c in p]
        counter = RootCounter(p)
        points = set(roots) | {F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(6)}
        for x in points:
            assert counter.count_gt(x) == sum(1 for r in roots if r > x), (roots, x)
            assert multiplicity_at(p, x) == roots.count(x)
        distinct = set(roots)
        assert counter.count_distinct_halfopen(F(-13), F(13)) == len(distinct)
        want = from_roots(sorted(distinct))
        for q in sorted(quadratics):
            want = poly_mul(want, list(q))
        assert squarefree_part(p) == want


def _naive_eval_surd(p, x):
    acc = Surd(F(0), F(0), x.d)
    for c in reversed(p):
        acc = acc * x + Surd(F(c), F(0), x.d)
    return acc


def test_poly_eval_surd_matches_naive_horner(rng=random.Random(29)):
    for _ in range(300):
        p = integer_poly([F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(0, 8))])
        x = Surd(F(rng.randint(-30, 30), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12)),
                 rng.randint(0, 60))
        got = poly_eval_surd(p, x)
        assert got == _naive_eval_surd(p, x)
        assert isinstance(got.a, F) and isinstance(got.b, F) and got.d == x.d
