"""Independent high-precision and stress cross-checks of the exact layer."""

from __future__ import annotations

import random
from fractions import Fraction as F

import mpmath

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
