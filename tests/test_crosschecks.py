"""Independent high-precision and stress cross-checks of the exact layer."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import mpmath
import sympy

from qng import polys
from qng.polys import MPoly, RootCounter, Surd, compare_root_sum, poly_mul, reflection_norm
from qng.enumeration import _relabeled as relabel, canonical_form, enumerate_graphs
from qng.graph import (
    complement,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    from_edges,
    is_connected,
    to_graph6,
)
from qng.spectra import (
    compare_qk_with,
    compare_sum_with,
    kind_char_poly,
    matrix_of_kind,
    q_matrix,
    spectrum,
)

from conftest import distinct_in, from_roots, stress_graphs


def _mp_eigs(g):
    with mpmath.workdps(60):
        mat = mpmath.matrix([[int(x) for x in row] for row in q_matrix(g).tolist()])
        eigs = mpmath.mp.eigsy(mat, eigvals_only=True)
        return sorted((e for e in eigs), reverse=True)


def test_exact_sum_comparison_beyond_float_precision(graphs_by_order, rng=random.Random(99)):
    """Sign decisions at 1e-12 offsets, far below the float screening window."""
    checked = 0
    while checked < 40:
        n = rng.randint(3, 6)
        g = rng.choice(graphs_by_order[n])
        with mpmath.workdps(60):
            total = _mp_eigs(g)[1] + _mp_eigs(complement(g))[1]
            for offset_exp in (12, 9):
                eps = F(1, 10**offset_exp)
                approx = F(str(mpmath.nstr(total, 40, strip_zeros=False)))
                for c, want in ((approx + eps, -1), (approx - eps, 1)):
                    got = compare_sum_with(g, "Q", 2, c)
                    # approx is within 1e-39 of the true sum, so the expected
                    # sign at distance 1e-12 is unambiguous
                    assert got == want, (to_graph6(g), c, got, want)
        checked += 1


def test_compare_qk_against_mpmath(graphs_by_order, rng=random.Random(7)):
    for _ in range(60):
        n = rng.randint(2, 6)
        g = rng.choice(graphs_by_order[n])
        k = rng.randint(1, n)
        eig = _mp_eigs(g)[k - 1]
        approx = F(str(mpmath.nstr(eig, 40, strip_zeros=False)))
        assert compare_qk_with(g, k, approx + F(1, 10**12)) == -1
        assert compare_qk_with(g, k, approx - F(1, 10**12)) in (0, 1)  # 0 if exact hit
        # a rational hit must certify; a clear miss must not
        if abs(eig - mpmath.nint(eig)) < mpmath.mpf("1e-30"):
            r = int(mpmath.nint(eig))
            assert compare_qk_with(g, k, r) == 0
            assert compare_qk_with(g, k, r + 3) != 0


def test_compare_qk_with_sweep_small(graphs_by_order):
    """Every near-integer float eigenvalue certifies at its integer, and only there."""
    for n in range(2, 6):
        for g in graphs_by_order[n]:
            vals = spectrum(g, "Q").values
            for k, v in enumerate(vals, start=1):
                r = round(v)
                if abs(v - r) < 1e-9:
                    assert compare_qk_with(g, k, r) == 0, (to_graph6(g), k, r)
                else:
                    assert compare_qk_with(g, k, r) != 0, (to_graph6(g), k, r)


HIGH_SYMMETRY_8 = [
    complete(8),
    complement(complete(8)),
    cycle(8),
    complete_bipartite(4, 4),
    disjoint_union(complete(4), complete(4)),
    disjoint_union(complete(2), disjoint_union(complete(2), disjoint_union(complete(2), complete(2)))),
    cartesian_product(cycle(4), complete(2)),  # the cube
    complement(cartesian_product(cycle(4), complete(2))),
    cartesian_product(complete(2), cartesian_product(complete(2), complete(2))),  # cube again, other order
]


def test_canonical_form_high_symmetry_stress(rng=random.Random(2024)):
    forms = []
    for g in HIGH_SYMMETRY_8:
        reference = canonical_form(g)
        for _ in range(50):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == reference
        forms.append(reference)
    # the two cube constructions coincide; everything else is distinct
    assert forms[6] == forms[8]
    distinct = {forms[i] for i in range(8)}
    assert len(distinct) == 8


def _circulant(n, steps):
    return from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def test_canonical_form_identifies_circulants():
    """4-regular order-8 territory: known isomorphisms and non-isomorphisms."""
    c12 = _circulant(8, (1, 2))  # the square antiprism
    c23 = _circulant(8, (2, 3))  # isomorphic via the multiplier 3
    c13 = _circulant(8, (1, 3))  # odd steps: every even vertex meets every odd one
    k44 = complete_bipartite(4, 4)
    cube_co = complement(cartesian_product(cycle(4), complete(2)))
    for g in (c12, c23, c13, k44, cube_co):
        assert g.degree_sequence() == (4,) * 8
    assert canonical_form(c12) == canonical_form(c23)
    assert canonical_form(c13) == canonical_form(k44)
    # adjacency spectra {4, sqrt2 x2, 0, -sqrt2 x2, -2 x2}, {4, 2, 0 x3, -2 x3}
    # and K_{4,4}'s are pairwise different, so these three must separate
    forms = {canonical_form(g) for g in (c12, k44, cube_co)}
    assert len(forms) == 3


def test_enumerate_connected_counts_match_reference(graphs_by_order, edge_counts):
    # reference: the Pólya counts of connected graphs, 1, 1, 2, 6, 21, 112, 853
    for n in range(1, 8):
        assert sum(map(is_connected, enumerate_graphs(n))) == sum(edge_counts(n, connected=True))


def test_seeded_and_plain_isolation_agree(graphs_by_order):
    """Windows seeded from the float spectrum isolate the same root as Cauchy-bound ones."""
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            for kind in ("A", "L", "Q"):
                p = kind_char_poly(g, kind)
                for k in range(1, n + 1):
                    seeded = polys.isolate_kth_largest(p, k, spectrum(g, kind).value(k))
                    plain = polys.isolate_kth_largest(p, k)
                    assert seeded.hi - seeded.lo == F(2, polys.SEED_SCALE), (to_graph6(g), kind, k)
                    for w in (seeded, plain):
                        assert distinct_in(w.counter, w.lo, w.hi) == 1
                    assert max(seeded.lo, plain.lo) < min(seeded.hi, plain.hi), (to_graph6(g), kind, k)


def _hub_quotients(s0, s1, s2):
    """The Q-quotients of the double hub on cocliques S0, S1, S2 and hubs u ~ S0, S1 and
    v ~ S0, S2, and of its complement, over its nonempty cells S0, S1, S2, u, v: written from
    the definition, sharing no code with ``graph.BlowUp``."""
    sizes = (s0, s1, s2, 1, 1)
    cells = [i for i, size in enumerate(sizes) if size != 0]
    joined = {(0, 3), (0, 4), (1, 3), (2, 4)}

    def adjacent(i, j):
        return (min(i, j), max(i, j)) in joined

    degree = {i: sum(sizes[j] for j in cells if adjacent(i, j)) for i in cells}
    order = sum(sizes)
    quotient = [[degree[i] if i == j else sizes[j] if adjacent(i, j) else 0 for j in cells] for i in cells]
    # in the complement each cell is a clique: n - 1 - deg, plus the s_i - 1 cell mates
    co = [[order - 2 - degree[i] + sizes[i] if i == j else 0 if adjacent(i, j) else sizes[j] for j in cells]
          for i in cells]
    return sympy.Matrix(quotient), sympy.Matrix(co)


def test_proof_check_sign_facts_against_sympy():
    """Every sign fact of the two proof checks, rebuilt by sympy from its own ``Matrix.charpoly``
    of the quotient matrices at a symbolic n, with no ``MPoly`` and no ``polys.char_poly``: each
    has no real root in [n0, oo) and the sign at n0, so that sign at every n >= n0.  The four
    signs at beta_2 = (n - 2 + sqrt(n^2 - 8n + 20)) / 2 hold by sympy's exact sign for n = 8..200.
    So do the eight Taylor signs there of the cofactors of f_2 (the quadratic factor of sympy's
    complement char poly) in the (n-4,1,1) char poly and in the complement's (f_1), from sympy's
    values at beta_2 reduced to a + b sqrt(n^2 - 8n + 20).  Their one sign variation each is
    Theorem 1.5's two root counts, and sympy's isolating intervals give both char polys one real
    root above beta_2."""
    n, x, d2, s, r = sympy.symbols("n x d2 s r")

    def charpoly(m):
        return m.charpoly(x).as_expr()

    def discriminant(rows):
        return sympy.discriminant(charpoly(sympy.Matrix(rows)), x)

    # Theorem 1.2: f(d2) is the first quotient's discriminant less (n - 2)^2, and g(d2) the third's
    # (n - 2 times the quotient) less the threshold squared, over 4(n - 2), at s = d2 - 1
    f = discriminant([[n - 2, n - 2], [1, 2 * d2 - 1]]) - (n - 2) ** 2
    third = [[(n - 2) ** 2, (n - 2) ** 2], [n - 2, (2 * n - 2 * d2 - 5) * (n - 2) + 2 * s]]
    g = sympy.cancel((discriminant(third) - ((n - 2) * (n - 3) + 2 * s) ** 2) / (4 * (n - 2))).subs(s, d2 - 1)
    facts = [(f.subs(d2, 2), 7, -1), (f.subs(d2, n - 3), 7, -1), (g.subs(d2, 2), 8, -1), (g.subs(d2, n - 3), 8, -1)]

    # Theorem 1.5: the double hubs' char polys, x times a cubic or quartic where 0 is a root
    q512, q402 = _hub_quotients(n - 5, 1, 2)[0], _hub_quotients(n - 4, 0, 2)[0]
    quartic, cubic4 = (sympy.cancel(charpoly(q) / x) for q in (q512, q402))
    phi2, phi3 = map(charpoly, _hub_quotients(n - 4, 1, 1))
    f1, f2 = (factor / sympy.LC(factor, x) for degree in (3, 2) for factor, _ in sympy.factor_list(phi3)[1]
              if sympy.degree(factor, x) == degree)  # the monic factors of the complement's char poly
    assert sympy.rem(phi2, f2, x) == 0
    cofactor2 = sympy.cancel(phi2 / f2)
    assert sympy.degree(cofactor2, x) == 3 and sympy.LC(cofactor2, x) == 1
    q301, co301 = _hub_quotients(n - 3, 0, 1)
    cubic5, phi6 = sympy.cancel(charpoly(q301) / x), charpoly(co301)
    facts += [(quartic.subs(x, n - 3), 8, -1), (3 * (n - 3) - q512.trace(), 8, 1),
              (f1.subs(x, 2 * n - 6), 8, -1),
              (cubic4.subs(x, n - 3), 8, -1), (3 * (n - 3) - q402.trace(), 8, 1),
              (cubic5.subs(x, n - sympy.Rational(5, 2)), 8, -1),
              (phi6.subs(x, 2 * n - 6), 8, -1), (phi6.subs(x, n - sympy.Rational(5, 2)), 8, -1)]
    assert len(facts) == 4 + 8
    for expr, n0, sign in facts:
        p = sympy.Poly(sympy.expand(expr), n)
        assert p.count_roots(n0, None) == 0, expr
        assert sympy.sign(p.eval(n0)) == sign, expr

    disc = n * n - 8 * n + 20

    def at_beta2(p):  # p((n - 2 + r) / 2) = a + b r modulo r^2 - disc, with a and b polynomials in n
        value = sympy.rem(sympy.expand(p.subs(x, (n - 2 + r) / 2)), r ** 2 - disc, r)
        return [sympy.Poly(value.coeff(r, i), n) for i in (0, 1)]

    def sign_of(a, b, d):  # a + b sqrt(d), for rationals a, b and d > 0
        sa, sb = sympy.sign(a), sympy.sign(b)
        return sa if sa == sb or not sb else sb if not sa else sa * sympy.sign(a * a - b * b * d)

    assert all(part.is_zero for part in at_beta2(f2))  # beta_2 is a root of f_2, so of both char polys
    taylor = [(pattern, [at_beta2(sympy.diff(p, x, j)) for j in range(4)])
              for p, pattern in ((cofactor2, [-1, 1, 1, 1]), (f1, [-1, -1, -1, 1]))]
    for k in range(8, 201):
        beta2 = (k - 2 + sympy.sqrt(k * k - 8 * k + 20)) / 2
        signs = [sympy.sign(sympy.expand(e)) for e in
                 (beta2 - 2, f1.subs({n: k, x: beta2}), beta2 - (k - 4), 2 * k - 5 - 2 * beta2)]
        assert signs == [1, -1, 1, 1], k
        d = k * k - 8 * k + 20
        for pattern, values in taylor:
            assert [sign_of(a.eval(k), b.eval(k), d) for a, b in values] == pattern, k
        # sympy's isolating intervals of the real roots meet at most at rational ends, so the irrational
        # root beta_2 lies inside one of them only, and another root lies above it when its left end does
        for phi in (phi2, phi3):
            roots = sympy.Poly(phi, n, x).eval(n, k).intervals()
            assert sum(m for (lo, _), m in roots if sign_of(2 * lo - k + 2, -1, d) > 0) == 1, k


def _sympy_of(c, gens):
    """An ``int`` or ``MPoly`` coefficient as a sympy ``Poly`` over ZZ in ``gens``, the last of them
    standing for its names."""
    if isinstance(c, int):
        return sympy.Poly(c, *gens, domain="ZZ")
    return sympy.Poly.from_dict({(0, 0, *exps): k for exps, k in c.terms.items()}, *gens, domain="ZZ")


def _terms(c) -> dict:
    """An ``int`` or ``MPoly`` coefficient in n and m as its terms, by exponents of n and m."""
    return ({(0, 0): c} if c else {}) if isinstance(c, int) else c.terms


def test_taylor_shift_against_sympy(rng=random.Random(52)):
    """``polys._shift(p, u, v, d, den)`` is sympy's expansion of den^deg(p) p((u + v r + z) / den)
    reduced modulo r^2 - d, with A_j and B_j the coefficients of z^j and z^j r, over seeded
    ``int`` and ``MPoly`` (in n and m) cases.  At a rational point (v or d zero) the shift has no
    surd parts, and its A is the expansion at r = 0."""
    names = ("n", "m")
    gens = r, z, *_ = sympy.symbols("r z n m")

    def coefficient(over_mpoly):
        if not over_mpoly or rng.random() < 0.3:
            return rng.randint(-9, 9)
        return MPoly(names, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) for _ in range(3)})

    for case in range(120):
        over_mpoly = case % 2 == 1
        p = [coefficient(over_mpoly) for _ in range(rng.randint(0, 5))] + [rng.choice([-2, 1, 3])]
        u, v = coefficient(over_mpoly), rng.choice([0, 1, -2, coefficient(over_mpoly)])
        d = rng.choice([0, 2, 4, 5, 12]) + (rng.randint(0, 1) * MPoly.variables(*names)[0] ** 2 if over_mpoly else 0)
        den = rng.choice([1, 2, 3, 6])
        big, small = polys._shift(p, u, v, d, den)
        numerator = _sympy_of(u, gens) + _sympy_of(v, gens) * r + z  # den times the point
        value = sum((_sympy_of(c, gens) * den ** (len(p) - 1 - i) * numerator ** i for i, c in enumerate(p)),
                    sympy.Poly(0, *gens, domain="ZZ"))
        reduced = {}  # by the exponents of r and z, the terms in n and m of value modulo r^2 - d
        for (er, ez, *exps), k in value.rem(sympy.Poly(r ** 2, *gens, domain="ZZ") - _sympy_of(d, gens)).terms():
            reduced.setdefault((er, ez), {})[tuple(exps)] = int(k)
        assert (small is None) == (not v or not d), (p, u, v, d, den)
        for j in range(len(p)):
            assert _terms(big[j]) == reduced.get((0, j), {}), (p, u, v, d, den, j)
            if small is not None:
                assert _terms(small[j]) == reduced.get((1, j), {}), (p, u, v, d, den, j)


def _points_at_and_between_roots(poly, approx):
    """(qng point, sympy number) pairs: each rational and quadratic-surd root of the sympy ``Poly``,
    from its irreducible factors, and a point between and beyond the distinct roots' floats
    ``approx``, in turn rational and a surd."""
    points = []

    def add(a, b=F(0), d=0):
        exact = sympy.Rational(a.numerator, a.denominator) + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d)
        points.append((Surd(a, b, d) if b else a, exact))

    for factor, _ in poly.factor_list()[1]:
        coeffs = [int(c) for c in factor.all_coeffs()]
        if len(coeffs) == 2:
            add(F(-coeffs[1], coeffs[0]))
        elif len(coeffs) == 3:
            a, b, c = coeffs
            for sign in (1, -1):
                add(F(-b, 2 * a), F(sign, 2 * a), b * b - 4 * a * c)
    ends = sorted(set(approx))
    for i, (lo, hi) in enumerate(zip([ends[0] - 1, *ends], [*ends, ends[-1] + 1])):
        add(F(round((lo + hi) * 512), 1024), F(i % 2, 4096), 2)
    return points


def test_kind_char_poly_against_sympy(graphs_by_order):
    """``kind_char_poly`` of A, L and Q is sympy's ``Matrix.charpoly`` (Berkowitz, which shares no
    code or method with the Faddeev-LeVerrier recurrence modulo primes), for every class of order at
    most 7 and the 13-32-vertex stress set."""
    for g in [g for n in range(1, 8) for g in graphs_by_order[n]] + stress_graphs():
        for kind in "ALQ":
            want = sympy.Matrix(matrix_of_kind(g, kind).tolist()).charpoly().all_coeffs()
            assert kind_char_poly(g, kind) == tuple(int(c) for c in reversed(want)), (to_graph6(g), kind)


def test_root_counts_against_sympy(graphs_by_order, rng=random.Random(53)):
    """``RootCounter.counts_at`` is, at rational and surd points at and between the eigenvalues, the
    count of sympy's ``Poly.real_roots()`` above the point, with multiplicity and distinct: the roots
    come sorted, so a bisection by sympy's exact sign of a root minus the point finds the first one
    above it.  For the A, L and Q char polys of every class of order at most 5 and of 20 seeded order-7
    classes; the float spectrum only places the points between eigenvalues.  At each rational point of
    a Q char poly, ``compare_qk_with`` gives, for every k, the sign of the k-th largest of those roots
    minus the point."""
    x = sympy.Symbol("x")
    graphs = [g for n in range(1, 6) for g in graphs_by_order[n]] + rng.sample(graphs_by_order[7], 20)
    for g in graphs:
        for kind in "ALQ":
            p = kind_char_poly(g, kind)
            counter = RootCounter(p)
            poly = sympy.Poly(list(reversed(p)), x)
            roots = poly.real_roots()
            for point, exact in _points_at_and_between_roots(poly, [round(v, 9) for v in spectrum(g, kind).values]):
                lo, hi = 0, len(roots)  # the first root above the point is in roots[lo:hi + 1]
                while lo < hi:
                    mid = (lo + hi) // 2
                    above = (roots[mid] - exact).is_positive
                    assert above is not None, (to_graph6(g), kind, roots[mid], exact)
                    lo, hi = (lo, mid) if above else (mid + 1, hi)
                want = (len(roots) - lo, len(set(roots[lo:])), roots.count(exact))
                assert counter.counts_at(point) == want, (to_graph6(g), kind, point)
                if kind == "Q" and not isinstance(point, Surd):
                    signs = [0 if r == exact else 1 if (r - exact).is_positive else -1 for r in reversed(roots)]
                    assert [compare_qk_with(g, k, point) for k in range(1, g.n + 1)] == signs, (to_graph6(g), point)


def test_stress_root_counts_against_sympy():
    """``polys._roots_above`` on the A, L and Q char polys of the 13-32-vertex stress set is sympy's
    count with multiplicity: ``Poly.sqf_list``, then, for each square-free factor of multiplicity m,
    m times ``count_roots`` on [x, oo) less the root at x, and m at x if it is one.  The points are
    one below the eigenvalues, one between the middle two distinct ones, one above them, and each
    rational eigenvalue: a monic integer polynomial has only integer rational roots, so these are the
    integers nearest a float eigenvalue at which sympy's polynomial vanishes.  At each point of a Q
    char poly, ``compare_qk_with`` gives, for every k, the sign that those counts give."""
    x = sympy.Symbol("x")
    at_eigenvalues = 0
    for g in stress_graphs():
        for kind in "ALQ":
            p = kind_char_poly(g, kind)
            poly = sympy.Poly(list(reversed(p)), x)
            _, factors = poly.sqf_list()
            ends = sorted({round(v, 9) for v in spectrum(g, kind).values})
            middle = len(ends) // 2
            points = {F(math.floor(ends[0]) - 1), F(math.ceil(ends[-1]) + 1)}
            points.update(F(r) for r in {round(v) for v in ends} if poly.eval(r) == 0)
            if len(ends) > 1:
                points.add(F(round((ends[middle - 1] + ends[middle]) * 512), 1024))
            for point in sorted(points):
                exact = sympy.Rational(point.numerator, point.denominator)
                roots_at = [m * (f.eval(exact) == 0) for f, m in factors]
                above = sum(m * f.count_roots(inf=exact) for f, m in factors) - sum(roots_at)
                want = above, sum(roots_at)
                assert polys._roots_above(p, polys._point_parts(point)) == want, (to_graph6(g), kind, point)
                at_eigenvalues += want[1] > 0
                if kind == "Q":
                    signs = [1 if k <= above else 0 if k <= sum(want) else -1 for k in range(1, g.n + 1)]
                    assert [compare_qk_with(g, k, point) for k in range(1, g.n + 1)] == signs, (to_graph6(g), point)
    assert at_eigenvalues >= 27  # every L char poly has the eigenvalue 0


def test_reflection_norm_against_sympy(graphs_by_order, rng=random.Random(54)):
    """``reflection_norm(p, c)`` is the primitive, positively leading form of sympy's p(c - x) for a
    rational c, and of p(c - x) p(c' - x) for a surd c = a + b sqrt(d) with conjugate c', expanded
    with r for sqrt(d) and reduced modulo r^2 - d: for the Q char polys of seeded order-6 classes and
    seeded integer polynomials."""
    x, r = sympy.symbols("x r")
    cases = [list(kind_char_poly(g, "Q")) for g in rng.sample(graphs_by_order[6], 12)]
    cases += [[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice([-3, 1, 2])] for _ in range(12)]
    for p in cases:
        for _ in range(3):
            a, b = F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.choice([-5, -1, 1, 3]), rng.randint(1, 4))
            d = rng.choice([2, 3, 5, 7, 4])
            ca, cb = (sympy.Rational(q.numerator, q.denominator) for q in (a, b))
            at = [sympy.Poly(ca + sign * cb * r - x, r, x, domain="QQ") for sign in (1, -1)]
            values = [sum((k * point ** i for i, k in enumerate(p)), sympy.Poly(0, r, x, domain="QQ")) for point in at]
            norm = (values[0] * values[1]).rem(sympy.Poly(r ** 2 - d, r, x, domain="QQ"))
            assert norm.degree(r) <= 0
            for c, product in ((a, values[0].eval(r, 0)), (Surd(a, b, d), norm.eval(r, 0))):
                coeffs = [sympy.Rational(k) for k in reversed(product.all_coeffs())]
                ints = [int(k * lcm(*(k.q for k in coeffs))) for k in coeffs]
                content = gcd(*ints) * (1 if ints[-1] > 0 else -1)
                assert reflection_norm(p, c) == [k // content for k in ints], (p, c)


_EPS = sympy.Rational(1, 1 << 64)


def _sympy_number(c):
    """A rational or ``Surd`` c as an exact sympy number."""
    a, b, d = (c.a, c.b, c.d) if isinstance(c, Surd) else (F(c), F(0), 0)
    return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d)


def _root_sum_by_sympy(pa, ka, pb, kb):
    """alpha + beta, alpha the k_a-th largest root of pa and beta the k_b-th of pb with multiplicity,
    as sympy isolates it: (R, (lo, hi), (alpha, beta)).  R is the square-free part of the resultant
    in x of pa(x) and pb(z - x), whose roots are the sums of a root of each; [lo, hi] holds
    alpha + beta and no other root of R; alpha and beta are floats.  ``Poly.intervals`` isolates both
    roots, refined to width 2^-64, and then the one root of R in the sum of their intervals."""
    x, z = sympy.symbols("x z")
    ends, square_free = [], []
    for p, k in ((pa, ka), (pb, kb)):
        f = sympy.Poly(list(reversed(p)), x)
        lo, hi = [interval for interval, m in reversed(f.intervals()) for _ in range(m)][k - 1]
        square_free.append(f.sqf_part())
        ends.append(square_free[-1].refine_root(lo, hi, eps=_EPS))
    (alo, ahi), (blo, bhi) = ends
    total = sympy.Poly(sympy.resultant(square_free[0].as_expr(), square_free[1].as_expr().subs(x, z - x), x), z)
    total = total.sqf_part()
    [(interval, _)] = total.intervals(eps=_EPS, inf=alo + blo, sup=ahi + bhi)
    return total, interval, (float(alo), float(blo))


def _sign_by_sympy(total, interval, c) -> int:
    """Sign of R's one root in the closed interval minus the rational or ``Surd`` c: 0 when c lies in
    the interval and R(c) is exactly 0, else read off an interval refined until c lies outside it."""
    (lo, hi), exact = interval, _sympy_number(c)
    if lo <= exact <= hi and sympy.expand(total.as_expr().subs(total.gen, exact)) == 0:
        return 0
    while lo <= exact <= hi:
        lo, hi = total.refine_root(lo, hi, eps=(hi - lo) / 4)
    return 1 if lo > exact else -1


def test_root_sum_comparison_against_sympy(graphs_by_order, rng=random.Random(55)):
    """``compare_root_sum``, unseeded and seeded from sympy's floats of the roots, gives the sign of
    alpha + beta - c that sympy gives for the root of the resultant (``_root_sum_by_sympy``).  The
    cases: seeded graphs of order 3 to 6 and their complements with bounds on, 2^-24 off, away from
    and a surd near the float sum, as in ``test_sum_comparison_matches_the_reference``; the equalities
    of ``test_a_comparison_signs_each_chain_once_per_point``; and roots 2^-50 apart, whose equalities
    are certified only after the windows are halved again, against a rational and a surd c."""
    quad = [-2, 0, 1]
    step = F(1, 2**50)
    close_b = from_roots([F(2, 3), F(2, 3) - step])
    cases = [  # (pa, ka, pb, kb, bounds)
        (poly_mul(quad, from_roots([10])), 2, reflection_norm(poly_mul(quad, from_roots([-3])), 0), 3, [0]),
        (from_roots([1, 1, 3, 7]), 2, reflection_norm(from_roots([3, 3, 5]), 0), 2, [0]),
        (from_roots([1, 3]), 1, from_roots([2, 5]), 2, [F(5), F(11, 2)]),
        (poly_mul(quad, from_roots([10])), 2, poly_mul(quad, from_roots([-3])), 1, [Surd(F(0), F(2), 2)]),
    ]
    above_sqrt2 = poly_mul(quad, from_roots([F(math.isqrt(2 << 100) + 1, 2**50)]))
    for ka in (1, 2):
        for kb in (1, 2):
            cases.append((from_roots([F(1, 3), F(1, 3) + step]), ka, close_b, kb, [1]))
            cases.append((above_sqrt2, ka, close_b, kb, [Surd(F(2, 3), F(1), 2)]))
    for _ in range(10):
        n = rng.randint(3, 6)
        g, kind, k = rng.choice(graphs_by_order[n]), rng.choice("QLA"), rng.randint(1, n)
        cases.append((kind_char_poly(g, kind), k, kind_char_poly(complement(g), kind), rng.choice((k, n)), None))
    signs = Counter()
    for pa, ka, pb, kb, bounds in cases:
        total, interval, seeds = _root_sum_by_sympy(pa, ka, pb, kb)
        if bounds is None:
            value = sum(seeds)
            near, s, d = F(round(2 * value), 2), rng.choice((F(1), F(1, 2))), rng.choice((2, 3, 5))
            bounds = [near, near + rng.choice((-1, 1)) * F(1, 1 << 24), F(rng.randint(-20, 40), rng.randint(1, 7)),
                      Surd(F(round(2 * (value - float(s) * math.sqrt(d))), 2), s, d)]
        for c in bounds:
            want = _sign_by_sympy(total, interval, c)
            signs[want, isinstance(c, Surd)] += 1
            for near in ((None, None), seeds):
                assert compare_root_sum(pa, ka, pb, kb, c, *near) == want, (pa, ka, pb, kb, c, near)
    assert all(signs[sign, surd] for sign in (-1, 0, 1) for surd in (False, True)), signs
