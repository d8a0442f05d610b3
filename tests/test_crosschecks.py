"""Independent high-precision and stress cross-checks of the exact layer."""

from __future__ import annotations

import random
from fractions import Fraction as F

import mpmath
import sympy

from qng import polys
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
    q_matrix,
    spectrum,
)


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
                        assert w.counter.count_distinct_halfopen(w.lo, w.hi) == 1
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
