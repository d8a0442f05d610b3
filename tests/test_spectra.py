"""Matrix builders, float spectra, exact characteristic polynomials, certificates."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qng import polys
from qng.graph import (
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    from_edges,
    from_graph6,
    path,
    star,
    to_graph6,
)
from qng.spectra import (
    ESCALATION_WINDOW,
    CharPoly,
    a_matrix,
    certify_qk,
    char_poly_exact,
    compare_q1,
    compare_qk_with,
    compare_sum_vs_radical,
    compare_sum_with,
    eigenvalues_sym,
    kind_char_poly,
    l_matrix,
    matrix_of_kind,
    multiplicity_at,
    ng_sum,
    prefill,
    q_char_poly,
    q_matrix,
    q_spectrum,
    rational_sqrt,
    spectrum,
    sturm_count,
)


def random_graph(rng, n, p=0.5):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# --- independent characteristic-polynomial oracle (cofactor expansion) ---
# Polynomials here are ascending lists of Fraction, independent of qng.polys.


def _trimmed(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q, sign=1):
    out = [F(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += sign * c
    return _trimmed(out)


def _mul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trimmed(out)


def _det_poly(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = []
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total = _add(total, _mul(entry, _det_poly(minor)), 1 if j % 2 == 0 else -1)
    return total


def charpoly_oracle(m) -> list[F]:
    """det(xI - M) by direct cofactor expansion over polynomial entries."""
    k = len(m)
    grid = [[_trimmed([-F(m[i][j]), F(int(i == j))]) for j in range(k)] for i in range(k)]
    return _det_poly(grid)


def test_matrix_builders():
    assert q_matrix(complete(2)).tolist() == [[1, 1], [1, 1]]
    assert q_matrix(path(3)).tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert l_matrix(path(3)).tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def _a_matrix_by_bits(g):
    """The adjacency matrix filled one bit test at a time."""
    mat = np.zeros((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        for u in range(g.n):
            if g.rows[v] >> u & 1:
                mat[v, u] = 1
    return mat


def test_a_matrix_against_bit_loop(rng=random.Random(17)):
    graphs = [complete(32), empty_graph(32), empty_graph(1), complete(1)]
    graphs += [random_graph(rng, n, rng.random()) for n in range(1, 33) for _ in range(3)]
    for g in graphs:
        got, want = a_matrix(g), _a_matrix_by_bits(g)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)


def test_q_complement_identity(rng=random.Random(13)):
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        total = q_matrix(g) + q_matrix(complement(g))
        assert (total == q_matrix(complete(n))).all()


def test_eigenvalues_sym():
    s = eigenvalues_sym(q_matrix(complete(4)))
    assert np.allclose(s.values, (6, 2, 2, 2), atol=1e-12)
    assert abs(q_spectrum(path(4)).value(2) - 2) < 1e-10
    assert abs(q_spectrum(star(6)).value(2) - 1) < 1e-10
    with pytest.raises(ValueError):
        eigenvalues_sym([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        eigenvalues_sym([[0, 1, 0], [1, 0, 1]])


def test_char_poly_examples():
    assert char_poly_exact(q_matrix(complete(2))).coeffs == (F(0), F(-2), F(1))
    assert char_poly_exact(q_matrix(cycle(4))).coeffs == (F(0), F(-16), F(20), F(-8), F(1))
    # rational input path
    half = char_poly_exact([[F(1, 2)]])
    assert half.coeffs == (F(-1, 2), F(1))


def test_char_poly_against_cofactor_oracle(graphs_by_order):
    for n in range(1, 6):
        for g in graphs_by_order[n]:
            assert q_char_poly(g).as_poly() == charpoly_oracle(q_matrix(g).tolist())


def test_char_poly_rational_against_cofactor_oracle(rng=random.Random(31)):
    for _ in range(120):
        k = rng.randint(1, 5)
        m = [[F(rng.randint(-7, 7), rng.choice([1, 1, 2, 3, 4, 6, 9])) for _ in range(k)] for _ in range(k)]
        got = char_poly_exact(m)
        assert got.coeffs == tuple(charpoly_oracle(m))
        assert all(type(c) is F for c in got.coeffs)
    assert char_poly_exact([[F(1, 2)]]).coeffs == (F(-1, 2), F(1))
    assert char_poly_exact([[F(1, 2), F(1, 3)], [2, F(-5, 6)]]).coeffs == (F(-13, 12), F(1, 3), F(1))
    assert char_poly_exact([[F(1, 2), F(1, 3)], [2, F(-5, 6)]]).as_poly() == [-13, 4, 12]


#: sha256 of one line "graph6 kind c_0 c_1 ... c_n" per graph of order 1..7
#: (enumeration order) and kind A, L, Q, with the exact coefficients of
#: ``kind_char_poly``.
CHAR_POLY_DIGEST = "2e02efcbf3c7ef9abdf9feec69de982854a22cdac4c8225c82504d702f4f570a"


def test_kind_char_poly_digest(graphs_by_order):
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            for kind in "ALQ":
                coeffs = " ".join(map(str, kind_char_poly(g, kind).coeffs))
                digest.update(f"{to_graph6(g)} {kind} {coeffs}\n".encode())
    assert digest.hexdigest() == CHAR_POLY_DIGEST


def test_root_counter_built_once_per_char_poly():
    g = complete_bipartite(3, 4)
    assert compare_qk_with(g, 2, 3) == 1
    before = polys.root_counter.cache_info()
    assert compare_qk_with(g, 2, 4) == 0
    after = polys.root_counter.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def test_sturm_and_multiplicity_examples():
    assert multiplicity_at(q_char_poly(complete(6)), 4) == 5
    assert sturm_count(q_char_poly(cycle(4)), 3, 5) == 1
    assert multiplicity_at(q_char_poly(star(6)), 1) == 4
    with pytest.raises(ValueError):
        sturm_count(q_char_poly(cycle(4)), 5, 3)


def test_certify_qk_examples():
    assert certify_qk(star(6), 2, 1)
    assert certify_qk(cycle(4), 2, 2)
    assert not certify_qk(complete(6), 1, 9)
    assert certify_qk(complete(6), 1, 10)
    assert not certify_qk(cycle(5), 2, 2)  # q_2(C_5) is irrational
    assert not certify_qk(cycle(4), 0, 1)


def test_ng_sum_examples():
    assert abs(ng_sum(path(4), "Q", 2) - 4) < 1e-10
    for n in (4, 5, 6):
        assert abs(ng_sum(complete(n), "Q", 2) - (n - 2)) < 1e-10
    assert abs(ng_sum(complete_bipartite(3, 3), "Q", 2) - 7) < 1e-10
    with pytest.raises(ValueError):
        ng_sum(path(4), "Q", 5)


def test_trace_and_psd_invariants(graphs_by_order):
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            spec = q_spectrum(g)
            assert sum(spec.values) == pytest.approx(2 * g.m, abs=n * 1e-9)
            assert spec.values[-1] >= -1e-9
            lspec = spectrum(g, "L")
            assert lspec.values[-1] >= -1e-9
            # exact trace via the x^{n-1} coefficient
            p = q_char_poly(g)
            assert -p.coeffs[n - 1] == 2 * g.m


def test_weyl_consistency_small(graphs_by_order):
    for n in range(2, 7):
        for g in graphs_by_order[n]:
            gc = complement(g)
            upper = q_spectrum(g).value(2) + q_spectrum(gc).value(g.n)
            lower = q_spectrum(g).value(2) + q_spectrum(gc).value(2)
            assert upper <= n - 2 + 1e-8
            assert lower >= n - 2 - 1e-8
            if abs(upper - (n - 2)) <= 1e-6:
                assert compare_sum_with(g, "Q", 2, n - 2, k_complement=g.n) <= 0
            if abs(lower - (n - 2)) <= 1e-6:
                assert compare_sum_with(g, "Q", 2, n - 2) >= 0


def test_compare_helpers():
    assert compare_sum_with(path(4), "Q", 2, 4) == 0
    assert compare_sum_with(path(4), "Q", 2, F(7, 2)) == 1
    assert compare_sum_with(star(6), "Q", 2, 4) == 0
    assert compare_sum_with(cycle(5), "Q", 2, 3) == 1
    assert compare_qk_with(complete_bipartite(3, 3), 2, 3) == 0
    assert compare_qk_with(complete_bipartite(3, 3), 2, 2) == 1
    assert compare_qk_with(complete_bipartite(3, 3), 2, 4) == -1
    assert compare_q1(path(4).with_edge(0, 3), path(4)) == 1
    assert compare_q1(path(4), path(4)) == 0


def test_square_radicand_is_decided_exactly():
    assert rational_sqrt(25) == 5 and rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(5) is None and rational_sqrt(F(25, 2)) is None
    # lambda_2(G) + lambda_2(complement G) = 2 + 2 hits -1 + sqrt(25) exactly
    g = from_graph6("GKXc{w")
    assert compare_sum_vs_radical(g, "A", 2, -1, 25) == 0
    assert compare_sum_vs_radical(g, "A", 2, -1, F(2401, 100)) == 1  # -1 + 4.9
    assert compare_sum_vs_radical(g, "A", 2, -1, 26) == -1


def test_spectrum_accessors():
    s = q_spectrum(complete(4))
    assert s.value(1) == max(s.values)
    assert len(s) == 4


def test_prefill_matches_per_graph_spectra(graphs_by_order, enum8):
    """The batched screen against one eigvalsh call per matrix, for n <= 8.

    Every graph and its complement get the per-graph spectrum to within
    1e-12, and no q_2 sum of a graph and its complement lies within 1e-12 of
    either edge of the escalation window around the thm-1.2, thm-1.3 or
    problem-1.2 bound.  So no float decision of ``screened_sign`` on those
    bounds depends on which of the two computed the spectrum.
    """
    graphs = [g for n in range(1, 8) for g in graphs_by_order[n]] + enum8[0]
    spectrum.cache_clear()
    try:
        for kind in "QAL":
            prefill(graphs, kind)
            before = spectrum.cache_info()
            for g in graphs:
                for h in (g, complement(g)):
                    batched = spectrum(h, kind).values
                    single = eigenvalues_sym(matrix_of_kind(h, kind)).values
                    assert max(abs(a - b) for a, b in zip(batched, single)) <= 1e-12, (kind, h)
            after = spectrum.cache_info()
            assert after.misses == before.misses
            assert after.hits == before.hits + 2 * len(graphs)
            if kind == "Q":
                for g in filter(lambda g: g.n >= 4, graphs):
                    value = ng_sum(g, "Q", 2)
                    for rhs in (g.n - 2, 2 * g.n - 4, 2 * g.n - 5):
                        assert abs(abs(value - rhs) - ESCALATION_WINDOW) > 1e-12, (g, rhs)
        spectrum.cache_clear()
        assert spectrum.cache_info()[:2] == (0, 0) and spectrum.cache_info().currsize == 0
        spectrum(graphs[-1], "L")
        assert spectrum.cache_info()[:2] == (0, 1)
    finally:
        spectrum.cache_clear()


def test_char_poly_type():
    p = q_char_poly(cycle(5))
    assert isinstance(p, CharPoly)
    assert p.degree == 5
    assert p.as_poly() == list(p.coeffs)
    value = polys.poly_eval(p.as_poly(), 0)
    assert value == p.coeffs[0]
    assert value != 0  # C_5 has no bipartite component, so Q is nonsingular


def test_q_singular_iff_bipartite_component(graphs_by_order):
    from qng.graph import count_bipartite_components

    for n in range(1, 7):
        for g in graphs_by_order[n]:
            mult0 = multiplicity_at(q_char_poly(g), 0)
            assert mult0 == count_bipartite_components(g)
