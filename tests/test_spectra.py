"""Matrix builders, float spectra, exact characteristic polynomials, certificates."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from qng import polys
from qng.polys import ESCALATION_WINDOW
from qng.enumeration import scan
from qng.graph import (
    complement,
    complete,
    complete_bipartite,
    component_colorings,
    cycle,
    empty_graph,
    from_graph6,
    path,
    star,
    to_graph6,
)
from qng.spectra import (
    char_poly_exact,
    chunk_of,
    compare_q1,
    compare_qk_with,
    compare_sum_with,
    in_chunk,
    kind_char_poly,
    lone_chunk,
    matrix_of_kind,
    ng_sum,
    q_matrix,
    spectrum,
)
from qng.theorems import EQUALITY, check_thm12
from conftest import distinct_in, random_graph, stress_graphs


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
    assert matrix_of_kind(path(3), "L").tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    with pytest.raises(ValueError, match="^unknown matrix kind 'X'$"):
        matrix_of_kind(path(3), "X")


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
        got, want = matrix_of_kind(g, "A"), _a_matrix_by_bits(g)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)


def test_q_complement_identity(rng=random.Random(13)):
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        total = q_matrix(g) + q_matrix(complement(g))
        assert (total == q_matrix(complete(n))).all()


def test_char_poly_examples():
    assert char_poly_exact(q_matrix(complete(2))) == (0, -2, 1)
    assert char_poly_exact(q_matrix(cycle(4))) == (0, -16, 20, -8, 1)


def test_char_poly_takes_int64_arrays_and_int_rows():
    """The two shapes passed to it: a graph matrix and a closed-form quotient of ints."""
    m = q_matrix(path(3))
    assert m.dtype == np.int64
    rows = tuple(tuple(row) for row in m.tolist())
    assert char_poly_exact(m) == char_poly_exact(rows) == (0, 3, -4, 1)  # x(x - 1)(x - 3)
    got = char_poly_exact(((2, 0, 1), (0, 1, 1), (3, 1, 5)))
    assert all(type(c) is int for c in got) and got == tuple(charpoly_oracle([[2, 0, 1], [0, 1, 1], [3, 1, 5]]))


def test_char_poly_rejects_non_int_entries():
    for bad in ([[F(1, 2)]], [[F(1), 0], [0, 1]], [[1.0, 0], [0, 1]], np.eye(2), np.array([[1.5]]),
                [[0, 1], [1]], [[0, 1, 0], [1, 0, 1]], np.ones((2, 3), dtype=np.int64)):
        with pytest.raises(ValueError):
            char_poly_exact(bad)


def faddeev_leverrier_int(rows) -> tuple[int, ...]:
    """The reference: the Faddeev-LeVerrier recurrence over Python ``int``, every division exact.

    N_1 = I, c_j = -trace(M N_j)/j, N_{j+1} = M N_j + c_j I; det(xI - M) = x^k + c_1 x^{k-1} + ... + c_k.
    """
    k = len(rows)
    coeffs_desc = [1]
    acc = [[int(i == j) for j in range(k)] for i in range(k)]
    for step in range(1, k + 1):
        cols = list(zip(*acc))
        prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        c, rest = divmod(-sum(prod[i][i] for i in range(k)), step)
        assert rest == 0
        coeffs_desc.append(c)
        for i in range(k):
            prod[i][i] += c
        acc = prod
    return tuple(coeffs_desc[::-1])


def test_char_poly_matches_the_int_recurrence_up_to_order_7(graphs_by_order):
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            for kind in "ALQ":
                mat = matrix_of_kind(g, kind)
                assert char_poly_exact(mat) == faddeev_leverrier_int(mat.tolist()), (to_graph6(g), kind)


def test_char_poly_matches_the_int_recurrence_from_order_13_to_32():
    for g in stress_graphs():
        for kind in "ALQ":
            mat = matrix_of_kind(g, kind)
            assert char_poly_exact(mat) == faddeev_leverrier_int(mat.tolist()), (to_graph6(g), kind)


def _from_roots(roots):
    p = [1]
    for r in roots:
        p = polys.poly_mul(p, [-r, 1])
    return tuple(p)


def test_char_poly_closed_forms_at_order_32():
    # Q(K32) needs the most primes of the graph matrices: its Hadamard bound 2 * 33^32 is about 2^162
    assert char_poly_exact(q_matrix(complete(32))) == _from_roots([62] + [30] * 31)
    assert char_poly_exact(matrix_of_kind(complete(32), "L")) == _from_roots([0] + [32] * 31)
    assert char_poly_exact(matrix_of_kind(empty_graph(32), "A")) == _from_roots([0] * 32)


def test_char_poly_of_int_rows_beyond_int64():
    nonsymmetric = ((3, -7, 0, 2), (-1, 0, 5, -4), (6, 2, -9, 1), (0, -3, 8, -2))
    assert char_poly_exact(nonsymmetric) == faddeev_leverrier_int(nonsymmetric)
    assert char_poly_exact(nonsymmetric) == tuple(charpoly_oracle(nonsymmetric))
    big = 1 << 70
    huge = ((big, -big, 3), (1, -big, 0), (-5, 7, big))
    got = char_poly_exact(huge)
    assert all(type(c) is int for c in got) and got == faddeev_leverrier_int(huge) == tuple(charpoly_oracle(huge))
    assert char_poly_exact(((-big, 1), (1, big))) == (-big * big - 1, 0, 1)


def test_char_poly_of_orders_0_and_1():
    assert char_poly_exact([]) == char_poly_exact(np.zeros((0, 0), dtype=np.int64)) == (1,)
    assert char_poly_exact([[5]]) == (-5, 1) and char_poly_exact([[-(1 << 80)]]) == (1 << 80, 1)
    assert char_poly_exact(np.zeros((1, 1), dtype=np.int64)) == (0, 1)


def test_char_poly_rejects_orders_past_int64_residues():
    with pytest.raises(ValueError, match="^order 2048 is 2\\^11 or more"):
        char_poly_exact(np.zeros((2048, 2048), dtype=np.int64))


def test_char_poly_against_cofactor_oracle(graphs_by_order):
    for n in range(1, 6):
        for g in graphs_by_order[n]:
            assert kind_char_poly(g, "Q") == tuple(charpoly_oracle(q_matrix(g).tolist()))


#: sha256 of one line "graph6 kind c_0 c_1 ... c_n" per graph of order 1..7
#: (enumeration order) and kind A, L, Q, with the exact coefficients of
#: ``kind_char_poly``.
CHAR_POLY_DIGEST = "2e02efcbf3c7ef9abdf9feec69de982854a22cdac4c8225c82504d702f4f570a"


def test_kind_char_poly_digest(graphs_by_order):
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            for kind in "ALQ":
                coeffs = " ".join(map(str, kind_char_poly(g, kind)))
                digest.update(f"{to_graph6(g)} {kind} {coeffs}\n".encode())
    assert digest.hexdigest() == CHAR_POLY_DIGEST


def test_root_counter_built_once_per_char_poly():
    """Root isolation builds one ``RootCounter`` per char poly: a second sum comparison of the
    same graph reuses the counters of both of its char polys."""
    g = complete_bipartite(3, 4)
    assert compare_sum_with(g, "Q", 2, 3) == 1
    before = polys.root_counter.cache_info()
    assert compare_sum_with(g, "Q", 2, 9) == -1
    after = polys.root_counter.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2


def test_a_single_eigenvalue_is_one_count_of_its_char_poly(monkeypatch):
    """``compare_qk_with`` shifts the Q char poly itself once, to its point, and builds no
    ``RootCounter``, so no square-free part: Q(K7) = (x - 12)(x - 5)^6 at 7/3."""
    shifted = []
    shift = polys._shift

    def counting(p, *parts):
        shifted.append(p)
        return shift(p, *parts)

    def forbidden(*args):
        raise AssertionError("a single eigenvalue built a root counter")

    monkeypatch.setattr(polys, "_shift", counting)
    monkeypatch.setattr(polys, "root_counter", forbidden)
    monkeypatch.setattr(polys, "RootCounter", forbidden)
    g = complete(7)
    assert compare_qk_with(g, 2, F(7, 3)) == 1
    assert len(shifted) == 1 and shifted[0] is kind_char_poly(g, "Q")


def _counter(g):
    return polys.root_counter(kind_char_poly(g, "Q"))


def test_sturm_and_multiplicity_examples():
    assert _counter(complete(6)).counts_at(4) == (1, 1, 5)
    assert distinct_in(_counter(cycle(4)), F(3), F(5)) == 1
    assert _counter(star(6)).counts_at(1) == (1, 1, 4)


def test_compare_qk_with_examples():
    assert compare_qk_with(star(6), 2, 1) == 0
    assert compare_qk_with(cycle(4), 2, 2) == 0
    assert compare_qk_with(complete(6), 1, 9) != 0
    assert compare_qk_with(complete(6), 1, 10) == 0
    assert compare_qk_with(cycle(5), 2, 2) != 0  # q_2(C_5) is irrational


def test_an_index_outside_1_to_n_raises():
    """A negative or zero k does not wrap to the smallest eigenvalue, and k = n + 1 is no
    eigenvalue either: ``Spectrum.value`` and ``compare_qk_with`` raise, for any bound."""
    g = complete(3)
    for k in (0, -1, g.n + 1):
        with pytest.raises(ValueError, match=f"^k={k} outside 1..3$"):
            spectrum(g, "Q").value(k)
        for c in (100, -100):
            with pytest.raises(ValueError, match=f"^k={k} outside 1..3$"):
                compare_qk_with(g, k, c)


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
            spec = spectrum(g, "Q")
            assert sum(spec.values) == pytest.approx(2 * g.m, abs=n * 1e-9)
            assert spec.values[-1] >= -1e-9
            lspec = spectrum(g, "L")
            assert lspec.values[-1] >= -1e-9
            # exact trace via the x^{n-1} coefficient
            p = kind_char_poly(g, "Q")
            assert -p[n - 1] == 2 * g.m


def test_weyl_consistency_small(graphs_by_order):
    for n in range(2, 7):
        for g in graphs_by_order[n]:
            gc = complement(g)
            upper = spectrum(g, "Q").value(2) + spectrum(gc, "Q").value(g.n)
            lower = spectrum(g, "Q").value(2) + spectrum(gc, "Q").value(2)
            assert upper <= n - 2 + 1e-8
            assert lower >= n - 2 - 1e-8
            if abs(upper - (n - 2)) <= 1e-6:
                assert polys.compare_root_sum(kind_char_poly(g, "Q"), 2, kind_char_poly(gc, "Q"), n, F(n - 2),
                                              spectrum(g, "Q").value(2), spectrum(gc, "Q").value(n)) <= 0
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
    assert polys.base_plus_sqrt(-1, 25) == 4 and polys.base_plus_sqrt(0, F(9, 4)) == F(3, 2)
    assert polys.base_plus_sqrt(-1, 5) == polys.Surd(F(-1), F(1), 5)
    assert polys.base_plus_sqrt(0, F(25, 2)) == polys.Surd(F(0), F(1, 2), 50)
    # lambda_2(G) + lambda_2(complement G) = 2 + 2 hits -1 + sqrt(25) exactly
    g = from_graph6("GKXc{w")
    assert compare_sum_with(g, "A", 2, polys.Surd(F(-1), F(1), 25)) == 0
    assert compare_sum_with(g, "A", 2, polys.Surd(F(-1), F(1, 100), 2401 * 100)) == 1  # -1 + sqrt(2401/100)
    assert compare_sum_with(g, "A", 2, polys.Surd(F(-1), F(1), 26)) == -1


def _reflected(p, c):
    """A positive integer multiple of p(c - x) for rational c, by Horner's rule over Fractions."""
    acc = []
    for coeff in reversed(p):
        acc = [c * cur - prev for cur, prev in zip(acc + [0], [0] + acc)]
        acc[0] += coeff
    scale = math.lcm(*(x.denominator for x in acc))
    return [int(x * scale) for x in acc]


def _sum_sign(g, cg, kind, k, kc, c):
    """``compare_sum_with`` where both indices are k, else ``compare_root_sum`` seeded the same way."""
    if kc == k:
        return compare_sum_with(g, kind, k, c)
    return polys.compare_root_sum(kind_char_poly(g, kind), k, kind_char_poly(cg, kind), kc, c,
                                  spectrum(g, kind).value(k), spectrum(cg, kind).value(kc))


def test_sum_comparison_matches_the_reference(graphs_by_order, compare_kth_roots, rng=random.Random(19)):
    """``compare_sum_with`` and ``compare_root_sum`` for n <= 6, kinds Q, L, A and seeded k.

    A rational bound c, on the sum, on one side of it by 2^-24, or random,
    gets the sign of the comparison the bound was once decided by:
    the kc-th largest root of the complement's polynomial against
    the (n - k + 1)-th largest root of p(c - x).  A surd bound b + s*sqrt(d)
    gets the float sign wherever it lies more than 1e-6 from the sum, and is
    hit exactly only where the float sum is on it.
    """
    hits = Counter()
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            cg = complement(g)
            for kind in "QLA":
                k = rng.randint(1, n)
                kc = rng.choice((k, n))
                value = spectrum(g, kind).value(k) + spectrum(cg, kind).value(kc)
                near = F(round(2 * value), 2)
                for c in (near, near + rng.choice((-1, 1)) * F(1, 1 << 24), F(rng.randint(-20, 40), rng.randint(1, 7))):
                    reflected = _reflected(kind_char_poly(g, kind), c)
                    expected = compare_kth_roots(kind_char_poly(cg, kind), kc, reflected, n - k + 1,
                                                 spectrum(cg, kind).value(kc), float(c) - spectrum(g, kind).value(k))
                    got = _sum_sign(g, cg, kind, k, kc, c)
                    assert got == expected, (to_graph6(g), kind, k, kc, c)
                    hits["rational"] += got == 0
                for d in (5, rng.choice((2, 3, 6, 7, 13))):
                    s = rng.choice((F(1), F(1, 2)))
                    bound = polys.Surd(F(round(2 * (value - float(s) * math.sqrt(d))), 2), s, d)
                    got = _sum_sign(g, cg, kind, k, kc, bound)
                    gap = value - (float(bound.a) + float(bound.b) * math.sqrt(bound.d))
                    if abs(gap) > 1e-6:
                        assert got == (gap > 0) - (gap < 0), (to_graph6(g), kind, k, kc, bound)
                    if got == 0:
                        assert abs(gap) < 1e-9, (to_graph6(g), kind, k, kc, bound)
                        hits["surd"] += 1
    assert hits["rational"] > 100 and hits["surd"] > 0, hits


def test_spectrum_accessors():
    s = spectrum(complete(4), "Q")
    assert s.value(1) == max(s.values)
    assert len(s.values) == 4
    assert abs(spectrum(path(4), "Q").value(2) - 2) < 1e-10
    assert abs(spectrum(star(6), "Q").value(2) - 1) < 1e-10


def test_prefill_matches_per_graph_spectra(graphs_by_order, enum8, monkeypatch):
    """The chunk screen against one eigvalsh call per matrix, for a chunk of every class of
    each order n <= 8.

    Every graph and its complement get the per-graph spectrum to within
    1e-12.  No q_2 sum of a graph and its complement, and no end of its
    one-spectrum interval that a row compares (the lower end for thm-1.2,
    the upper end for thm-1.3 and problem-1.2), lies within 1e-12 of either
    edge of the escalation window around the bound.  So no float decision
    of those rows depends on which of the two computed the spectrum, or on
    how a batch was stacked.  Each kind screens the chunk's members in one
    stacked eigvalsh call, and at the first read of a complement the
    complements that are not members in one more.
    """
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        if a.ndim == 3:
            stacks.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    chunk_of.cache_clear()
    for n in range(1, 9):
        graphs = graphs_by_order[n] if n < 8 else enum8[0]
        others = {complement(g) for g in graphs} - set(graphs)
        with in_chunk(graphs) as chunk:
            for kind in "QAL":
                del stacks[:]
                for g in graphs:
                    for h in (g, chunk.complement(g)):
                        batched = spectrum(h, kind).values
                        single = eigvalsh(matrix_of_kind(h, kind))[::-1]
                        assert max(abs(a - b) for a, b in zip(batched, single)) <= 1e-12, (kind, h)
                assert stacks == [(len(set(graphs)), n, n)] + [(len(others), n, n)] * bool(others), (n, kind)
                if kind == "Q" and n >= 4:
                    lo, hi = chunk.sum_bounds(graphs, "Q", 2)
                    for g, low, high in zip(graphs, lo.tolist(), hi.tolist()):
                        value = ng_sum(g, "Q", 2)
                        for x, rhs in ((value, n - 2), (value, 2 * n - 4), (value, 2 * n - 5),
                                       (low, n - 2), (high, 2 * n - 4), (high, 2 * n - 5)):
                            assert abs(abs(x - rhs) - ESCALATION_WINDOW) > 1e-12, (g, x, rhs)
            del stacks[:]
            spectrum(graphs[-1], "L")
            assert stacks == [], n


def test_one_spectrum_bounds_contain_the_sum(graphs_by_order, rng=random.Random(23)):
    """``Chunk.sum_bounds`` against ``ng_sum`` for every graph of order <= 7 and
    seeded random graphs of order 9..32, for every kind and k: lo <= sum <= hi
    within 1e-9.  For L the interval is the sum itself (J commutes with L(G)),
    to within 1e-12 at n <= 7."""
    samples = [graphs_by_order[n] for n in range(1, 8)]
    samples += [[random_graph(rng, n, rng.uniform(0.2, 0.8)) for _ in range(4)] for n in range(9, 33)]
    for graphs in samples:
        n = graphs[0].n
        with in_chunk(graphs) as chunk:
            for kind in "AQL":
                for k in range(1, n + 1):
                    lo, hi = chunk.sum_bounds(graphs, kind, k)
                    for g, low, high in zip(graphs, lo.tolist(), hi.tolist()):
                        value = ng_sum(g, kind, k)
                        assert low - 1e-9 <= value <= high + 1e-9, (to_graph6(g), kind, k, low, value, high)
                        if kind == "L":
                            assert low == high and abs(low - value) <= (1e-12 if n <= 7 else 1e-9), (to_graph6(g), k)


def test_char_poly_type():
    p = kind_char_poly(cycle(5), "Q")
    assert type(p) is tuple and all(type(c) is int for c in p)
    hash(p)  # a cache key, like the root_counter key it is passed as
    assert len(p) - 1 == 5
    value = polys.poly_eval(p, 0)
    assert value == p[0]
    assert value != 0  # C_5 has no bipartite component, so Q is nonsingular


def test_q_singular_iff_bipartite_component(graphs_by_order):
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            mult0 = _counter(g).counts_at(0)[2]
            assert mult0 == sum(c is not None for c in component_colorings(g.rows))


def _raising_once(monkeypatch, at: int):
    """Patch ``np.linalg.eigvalsh`` to raise ``LinAlgError`` at its call number ``at`` (from 0) only."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def flaky(a):
        calls.append(a.shape)
        if len(calls) == at + 1:
            raise np.linalg.LinAlgError("raised once")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)


@pytest.mark.parametrize("at", [0, 1])
def test_a_failed_screen_keeps_no_rows_of_a_lone_graph(monkeypatch, at):
    """An eigvalsh call that raises while a lone graph's kept chunk screens the star K_{1,4}
    (call 0) or its complement (call 1) stores no row: later reads of the same chunk give
    each graph its own spectrum, the thm-1.2 equality stays certified, and an unknown kind
    raises the same ``ValueError`` every time."""
    lone_chunk.cache_clear()
    _raising_once(monkeypatch, at)
    g = star(5)
    chunk = lone_chunk(g)
    with pytest.raises(np.linalg.LinAlgError, match="raised once"):
        ng_sum(g, "Q", 2)
    assert lone_chunk(g) is chunk  # the chunk is kept
    assert spectrum(g, "Q").values == pytest.approx((5, 1, 1, 1, 0), abs=1e-12)
    assert chunk.spectrum(chunk.complement(g), "Q").values == pytest.approx((6, 2, 2, 2, 0), abs=1e-12)
    assert check_thm12(g).verdict == EQUALITY
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown matrix kind 'X'"):
            ng_sum(path(3), "X", 1)


def test_a_scan_rerun_after_a_failed_screen_matches_a_fresh_scan(monkeypatch):
    """A scan whose first eigvalsh call raises leaves its chunk kept but unscreened: the
    re-run reads it and tallies what a scan with no kept chunk does."""
    chunk_of.cache_clear()
    eigvalsh = np.linalg.eigvalsh
    _raising_once(monkeypatch, 0)
    with pytest.raises(np.linalg.LinAlgError, match="raised once"):
        scan(6, "all", check_thm12)
    rerun = scan(6, "all", check_thm12)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    chunk_of.cache_clear()
    fresh = scan(6, "all", check_thm12)
    assert (rerun.total, rerun.counts, rerun.equality) == (fresh.total, fresh.counts, fresh.equality)
    assert fresh.total == 156 and fresh.counts[EQUALITY] > 0
