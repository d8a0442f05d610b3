"""Equitable partitions and their integer quotients, with the lemmas they carry:
quotient interlacing (over any partition, through the ``rational_quotient``
fixture), eigenvalue containment and duplicate-class multiplicity; and the cell
quotients of ``BlowUp``, checked against the graphs they blow up."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from qng.graph import (
    BlowUp,
    complement,
    complete,
    cycle,
    disjoint_union,
    double_hub,
    empty_graph,
    h_graph,
    join,
    path,
    star,
)
from qng import polys
from qng.graph import CapacityError, is_regular
from qng.partitions import equitable_quotient, validate_partition
from qng.spectra import char_poly_exact, kind_char_poly, q_matrix
from conftest import twin_classes


def random_partition(rng, n):
    k = rng.randint(1, n)
    blocks = [[] for _ in range(k)]
    for v in range(n):
        blocks[rng.randrange(k)].append(v)
    return [tuple(b) for b in blocks if b]


def quotient_eigenvalues(quotient, blocks):
    """Eigenvalues of a quotient B of Q(G), from the similar symmetric matrix D^{1/2} B D^{-1/2}."""
    root = np.sqrt([len(b) for b in blocks])
    quot = np.array(quotient, dtype=float)
    return np.linalg.eigvalsh(quot * root[:, None] / root[None, :])


def interlaces(small, big, tol=1e-9):
    """Whether b_i <= a_i and b_i >= a_{n-m+i} for i = 1..m, where a (length n) and
    b (length m) are the two spectra in descending order."""
    small, big = np.sort(small)[::-1], np.sort(big)[::-1]
    m, n = len(small), len(big)
    return bool(np.all(small <= big[:m] + tol) and np.all(small >= big[n - m:] - tol))


def contains_quotient_eigenvalues(g, blocks):
    """Exact: the quotient char poly divides the char poly of Q(G), for an equitable
    partition, whose quotient entries are integers."""
    quotient = equitable_quotient(g, blocks)
    return not polys.poly_rem(kind_char_poly(g, "Q"), char_poly_exact(quotient))


def test_validate_partition_errors():
    g = path(4)
    for blocks, message in [([(0, 1), (1, 2, 3)], "vertex 1 in two blocks"),
                            ([(0, 1)], "blocks do not cover the vertex set"),
                            ([(0, 1, 2, 3), ()], "empty block"),
                            ([(0, 1), (2, 4)], "vertex 4 out of range"),
                            ([(0, 1), (2, -1)], "vertex -1 out of range")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_partition(g, blocks)
        with pytest.raises(ValueError, match=f"^{message}$"):
            equitable_quotient(g, blocks)


def test_quotient_center_plus_matching():
    # hub joined to a perfect matching on 4 vertices: rows ((4, 4), (1, 3))
    g = join(empty_graph(1), disjoint_union(complete(2), complete(2)))
    assert equitable_quotient(g, [(0,), (1, 2, 3, 4)]) == ((4, 4), (1, 3))


def test_quotient_h_graph_reproduces_parametric_rows():
    n = 6
    rows = (
        (2, 0, 0, 1, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1),
        (n - 4, 1, 0, n - 3, 0),
        (n - 4, 0, 1, 0, n - 3),
    )
    hub = double_hub(n - 4, 1, 1)
    assert equitable_quotient(h_graph(n - 4, 1, 1), hub.cells()) == rows
    assert hub.quotient() == rows


def test_quotient_single_block_is_average_row_sum(rational_quotient):
    """One block averages the Q-row sums, 4m/n; it is equitable exactly when G is regular."""
    for g in (cycle(5), path(4), complete(6)):
        whole = [tuple(range(g.n))]
        assert rational_quotient(g, whole) == ((F(4 * g.m, g.n),),)
        assert equitable_quotient(g, whole) == (((4 * g.m // g.n,),) if is_regular(g) else None)


def test_equitable_quotient_examples():
    for sizes in [(1, 1, 1), (2, 1, 1), (3, 0, 1), (2, 0, 2)]:
        g = h_graph(*sizes)
        assert equitable_quotient(g, double_hub(*sizes).cells()) is not None
    assert equitable_quotient(star(6), [(0,), (1, 2, 3, 4, 5)]) is not None
    assert equitable_quotient(path(4), [(0, 1), (2, 3)]) is None


def test_quotient_interlacing_random(graphs_by_order, enum8, rational_quotient, rng=random.Random(23)):
    graphs8, _ = enum8
    pool = dict(graphs_by_order)
    pool[8] = graphs8
    pairs = 0
    while pairs < 500:
        n = rng.randint(2, 8)
        g = rng.choice(pool[n])
        blocks = random_partition(rng, n)
        assert interlaces(quotient_eigenvalues(rational_quotient(g, blocks), blocks), np.linalg.eigvalsh(q_matrix(g)))
        pairs += 1


def test_weighted_symmetry_exact(graphs_by_order, rational_quotient, rng=random.Random(29)):
    for _ in range(300):
        n = rng.randint(2, 7)
        g = rng.choice(graphs_by_order[n])
        blocks = random_partition(rng, n)
        quot = rational_quotient(g, blocks)
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                assert quot[i][j] * len(bi) == quot[j][i] * len(bj)


def test_containment_examples():
    assert contains_quotient_eigenvalues(star(6), [(0,), (1, 2, 3, 4, 5)])
    assert equitable_quotient(star(6), [(0,), (1, 2, 3, 4, 5)]) == ((5, 5), (1, 1))  # roots 6 and 0
    assert contains_quotient_eigenvalues(h_graph(2, 1, 1), double_hub(2, 1, 1).cells())
    assert contains_quotient_eigenvalues(complete(5), [tuple(range(5))])


def test_containment_all_equitable_partitions_up_to_5(graphs_by_order):
    def all_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in all_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + (first,)] + part[i + 1:]
            yield part + [(first,)]

    for n in range(2, 6):
        for g in graphs_by_order[n]:
            for blocks in all_partitions(list(range(n))):
                if equitable_quotient(g, blocks) is not None:
                    assert contains_quotient_eigenvalues(g, blocks)


def duplicate_blocks(g):
    """(kind, degree, size) of each duplicate-vertex class: the open twin classes
    are independent sets, the closed ones cliques."""
    independent, clique = twin_classes(g.rows)
    return [(kind, g.degree(members[0]), len(members))
            for kind, classes in (("independent", independent), ("clique", clique)) for members in classes]


def test_twin_classes_examples():
    assert duplicate_blocks(star(6)) == [("independent", 1, 5)]
    assert duplicate_blocks(join(empty_graph(2), complete(4))) == [("independent", 4, 2), ("clique", 5, 4)]
    assert duplicate_blocks(cycle(5)) == []


def test_duplicate_class_multiplicity_small(graphs_by_order):
    """Lemma 2.5: a class of s duplicates of degree d gives Q-eigenvalue d (independent)
    or d - 1 (clique) with multiplicity at least s - 1."""
    for n in range(2, 7):
        for g in graphs_by_order[n]:
            for kind, degree, size in duplicate_blocks(g):
                target = degree - 1 if kind == "clique" else degree
                assert polys.root_counter(kind_char_poly(g, "Q")).counts_at(target)[2] >= size - 1


def _per_vertex_q_sums(g, blocks):
    """Row sums of the Q(G) matrix, entry by entry: sums[i][k][j] for the k-th vertex of X_i into X_j."""
    def q(u, w):
        return g.degree(u) if u == w else int(g.has_edge(u, w))

    return [[[sum(q(u, w) for w in other) for other in blocks] for u in block] for block in blocks]


def _expect_quotient(g, blocks, rational_quotient):
    """``equitable_quotient`` is the reference's common row sums, all ``int``, when every
    vertex of each block has the same sums, else None; the rational helper is their average."""
    sums = _per_vertex_q_sums(g, blocks)
    entries = tuple(tuple(F(sum(row[j] for row in rows), len(block)) for j in range(len(blocks)))
                    for block, rows in zip(blocks, sums))
    equitable = all(len({row[j] for row in rows}) == 1 for rows in sums for j in range(len(blocks)))
    assert rational_quotient(g, blocks) == entries
    quotient = equitable_quotient(g, blocks)
    assert quotient == (tuple(tuple(rows[0]) for rows in sums) if equitable else None)
    assert quotient is None or all(type(v) is int for row in quotient for v in row)
    return equitable


def test_quotient_and_equitable_match_per_vertex_sums(graphs_and_complements, rational_quotient):
    for sizes in [(s0, s1, s2) for s0 in range(4) for s1 in range(3) for s2 in range(3) if s0 + s1 + s2]:
        g, cells = h_graph(*sizes), double_hub(*sizes).cells()
        assert _expect_quotient(g, cells, rational_quotient)
        _expect_quotient(complement(g), cells, rational_quotient)
    rng = random.Random(1515)
    seen = set()
    for g in graphs_and_complements:
        for _ in range(3):
            seen.add(_expect_quotient(g, random_partition(rng, g.n), rational_quotient))
    assert seen == {False, True}


def small_blow_ups():
    """Every blow-up of at most 3 cells of sizes 1..3: each clique flag and each set of joined pairs."""
    for k in (1, 2, 3):
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        for sizes, cliques in product(product((1, 2, 3), repeat=k), product((False, True), repeat=k)):
            for chosen in product((False, True), repeat=len(pairs)):
                yield BlowUp(sizes, cliques, frozenset(p for p, on in zip(pairs, chosen) if on))


def thm15_blow_ups():
    """The four double-hub types of the Theorem 1.5 proof at n = 8..12, and their complements."""
    for n in range(8, 13):
        for sizes in ((n - 5, 1, 2), (n - 4, 1, 1), (n - 4, 0, 2), (n - 3, 0, 1)):
            hub = double_hub(*sizes)
            assert sum(hub.sizes) == n
            yield from (hub, hub.complement())


def test_blow_up_quotient_is_its_equitable_cell_quotient():
    """``quotient()`` is the quotient of the blown-up graph over ``cells()``, which are
    equitable; ``complement()`` blows up the complement; and, by the equitable-partition
    lemma, the quotient's characteristic polynomial divides that of Q(G)."""
    cases = [*small_blow_ups(), *thm15_blow_ups()]
    assert len(cases) == 6 + 72 + 1728 + 40
    for b in cases:
        g, cells, quotient = b.graph(), b.cells(), b.quotient()
        assert [v for cell in cells for v in cell] == list(range(g.n))
        assert tuple(map(len, cells)) == b.sizes
        assert equitable_quotient(g, cells) == quotient, b
        assert b.complement().graph() == complement(g), b
        assert b.complement().complement() == b
        assert not polys.poly_rem(kind_char_poly(g, "Q"), char_poly_exact(quotient)), b


def test_blow_up_cells_lie_in_twin_classes():
    """A clique cell of two or more vertices lies in a closed twin class, a coclique cell in an open one."""
    for b in small_blow_ups():
        classes = twin_classes(b.graph().rows)
        for cell, clique in zip(b.cells(), b.cliques):
            if len(cell) > 1:
                assert any(set(cell) <= set(members) for members in classes[clique]), b


def test_blow_up_rejects_a_malformed_pattern():
    assert BlowUp((2, 1), (True, False), frozenset({(0, 1)})).graph() == join(complete(2), empty_graph(1))
    for sizes, cliques, joins in [((2, 0), (False, False), ()), ((2,), (False, True), ()),
                                  ((1, 1), (False, False), [(1, 0)]), ((1, 1), (False, False), [(0, 0)]),
                                  ((1, 1), (False, False), [(0, 2)])]:
        with pytest.raises(ValueError):
            BlowUp(sizes, cliques, frozenset(joins))
    big = BlowUp((20, 20), (False, False), frozenset({(0, 1)}))
    assert big.quotient() == ((20, 20), (20, 20))
    with pytest.raises(CapacityError, match="order 40 exceeds 32"):
        big.graph()
