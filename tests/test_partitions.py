"""Quotient matrices, equitable partitions, interlacing, duplicate classes."""

from __future__ import annotations

import random
from fractions import Fraction as F

import numpy as np
import pytest

from qng.graph import (
    complement,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    h_graph,
    h_graph_blocks,
    join,
    path,
    star,
)
from qng.partitions import (
    DuplicateClass,
    duplicate_classes,
    edge_deletion_chain_holds,
    interlaces,
    is_equitable,
    quotient_matrix,
    validate_partition,
    verify_quotient_eigen_containment,
)
from qng.spectra import eigenvalues_sym, kind_char_poly, multiplicity_at, q_matrix, spectrum


def random_graph(rng, n, p=0.5):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_partition(rng, n):
    k = rng.randint(1, n)
    blocks = [[] for _ in range(k)]
    for v in range(n):
        blocks[rng.randrange(k)].append(v)
    return [tuple(b) for b in blocks if b]


def test_validate_partition_errors():
    g = path(4)
    with pytest.raises(ValueError):
        validate_partition(g, [(0, 1), (1, 2, 3)])  # overlap
    with pytest.raises(ValueError):
        validate_partition(g, [(0, 1)])  # not covering
    with pytest.raises(ValueError):
        validate_partition(g, [(0, 1, 2, 3), ()])  # empty block


def test_quotient_center_plus_matching():
    # hub joined to a perfect matching on 4 vertices: rows ((4, 4), (1, 3))
    g = join(empty_graph(1), disjoint_union(complete(2), complete(2)))
    quot = quotient_matrix(g, [(0,), (1, 2, 3, 4)])
    assert quot.entries == ((F(4), F(4)), (F(1), F(3)))


def test_quotient_h_graph_reproduces_parametric_rows():
    n = 6
    quot = quotient_matrix(h_graph(n - 4, 1, 1), h_graph_blocks(n - 4, 1, 1))
    assert quot.entries == (
        (F(2), F(0), F(0), F(1), F(1)),
        (F(0), F(1), F(0), F(1), F(0)),
        (F(0), F(0), F(1), F(0), F(1)),
        (F(n - 4), F(1), F(0), F(n - 3), F(0)),
        (F(n - 4), F(0), F(1), F(0), F(n - 3)),
    )


def test_quotient_single_block_is_average_row_sum():
    for g in (cycle(5), path(4), complete(6)):
        quot = quotient_matrix(g, [tuple(range(g.n))])
        assert quot.entries == ((F(4 * g.m, g.n),),)


def test_is_equitable_examples():
    for sizes in [(1, 1, 1), (2, 1, 1), (3, 0, 1), (2, 0, 2)]:
        g = h_graph(*sizes)
        assert is_equitable(g, h_graph_blocks(*sizes))
    assert is_equitable(star(6), [(0,), (1, 2, 3, 4, 5)])
    assert not is_equitable(path(4), [(0, 1), (2, 3)])


def test_interlaces_examples():
    big = spectrum(cycle(5), "Q")
    q = q_matrix(cycle(5))
    for i in range(5):
        for j in range(i + 1, 5):
            sub = q[np.ix_([i, j], [i, j])]
            assert interlaces(eigenvalues_sym(sub), big)
    assert interlaces(big, big)
    assert not interlaces((10.0,), (5.0, 1.0))
    with pytest.raises(ValueError):
        interlaces((1.0, 0.0), (1.0,))


def test_quotient_interlacing_random(graphs_by_order, enum8, rng=random.Random(23)):
    graphs8, _ = enum8
    pool = dict(graphs_by_order)
    pool[8] = graphs8
    pairs = 0
    while pairs < 500:
        n = rng.randint(2, 8)
        g = rng.choice(pool[n])
        blocks = random_partition(rng, n)
        quot = quotient_matrix(g, blocks)
        assert interlaces(quot.spectrum(), spectrum(g, "Q"))
        pairs += 1


def test_weighted_symmetry_exact(graphs_by_order, rng=random.Random(29)):
    for _ in range(300):
        n = rng.randint(2, 7)
        g = rng.choice(graphs_by_order[n])
        blocks = random_partition(rng, n)
        quot = quotient_matrix(g, blocks)
        sizes = quot.block_sizes
        for i in range(quot.order):
            for j in range(quot.order):
                assert quot.entries[i][j] * sizes[i] == quot.entries[j][i] * sizes[j]


def test_containment_examples():
    assert verify_quotient_eigen_containment(star(6), [(0,), (1, 2, 3, 4, 5)])
    quot = quotient_matrix(star(6), [(0,), (1, 2, 3, 4, 5)])
    assert quot.entries == ((F(5), F(5)), (F(1), F(1)))  # roots 6 and 0
    assert verify_quotient_eigen_containment(h_graph(2, 1, 1), h_graph_blocks(2, 1, 1))
    assert verify_quotient_eigen_containment(complete(5), [tuple(range(5))])
    with pytest.raises(ValueError):
        verify_quotient_eigen_containment(path(4), [(0, 1), (2, 3)])


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
                if is_equitable(g, blocks):
                    assert verify_quotient_eigen_containment(g, blocks)


def test_duplicate_classes_examples():
    classes = duplicate_classes(star(6))
    assert classes == [DuplicateClass((1, 2, 3, 4, 5), "independent", 1)]

    g = join(empty_graph(2), complete(4))
    classes = duplicate_classes(g)
    kinds = {(c.kind, c.degree, len(c.vertices)) for c in classes}
    assert kinds == {("independent", 4, 2), ("clique", 5, 4)}

    assert duplicate_classes(cycle(5)) == []


def test_duplicate_class_multiplicity_small(graphs_by_order):
    for n in range(2, 7):
        for g in graphs_by_order[n]:
            for cls in duplicate_classes(g):
                target = cls.degree - 1 if cls.kind == "clique" else cls.degree
                assert multiplicity_at(kind_char_poly(g, "Q"), target) >= len(cls.vertices) - 1


def test_duplicate_classes_match_pairwise_comparison(graphs_and_complements):
    for g in graphs_and_complements:
        hoods = [set(g.neighbors(v)) for v in range(g.n)]
        want = set()
        for kind, closed in (("independent", False), ("clique", True)):
            for v in range(g.n):
                cls = tuple(u for u in range(g.n)
                            if hoods[u] | ({u} if closed else set()) == hoods[v] | ({v} if closed else set()))
                if len(cls) > 1:
                    want.add(DuplicateClass(cls, kind, len(hoods[v])))
        classes = duplicate_classes(g)
        assert set(classes) == want and len(classes) == len(want)
        assert [c.vertices for c in classes] == sorted(c.vertices for c in classes)


def _per_vertex_q_sums(g, blocks):
    """Row sums of the Q(G) matrix, entry by entry: sums[i][k][j] for the k-th vertex of X_i into X_j."""
    def q(u, w):
        return g.degree(u) if u == w else int(g.has_edge(u, w))

    return [[[sum(q(u, w) for w in other) for other in blocks] for u in block] for block in blocks]


def _expect_quotient(g, blocks):
    sums = _per_vertex_q_sums(g, blocks)
    entries = tuple(tuple(F(sum(row[j] for row in rows), len(block)) for j in range(len(blocks)))
                    for block, rows in zip(blocks, sums))
    equitable = all(len({row[j] for row in rows}) == 1 for rows in sums for j in range(len(blocks)))
    quot = quotient_matrix(g, blocks)
    assert (quot.entries, quot.block_sizes) == (entries, tuple(map(len, blocks)))
    assert is_equitable(g, blocks) == equitable
    return equitable


def test_quotient_and_equitable_match_per_vertex_sums(graphs_and_complements):
    for sizes in [(s0, s1, s2) for s0 in range(4) for s1 in range(3) for s2 in range(3) if s0 + s1 + s2]:
        g = h_graph(*sizes)
        assert _expect_quotient(g, h_graph_blocks(*sizes))
        _expect_quotient(complement(g), h_graph_blocks(*sizes))
    rng = random.Random(1515)
    seen = set()
    for g in graphs_and_complements:
        for _ in range(3):
            seen.add(_expect_quotient(g, random_partition(rng, g.n)))
    assert seen == {False, True}


def test_edge_deletion_chain_examples():
    assert edge_deletion_chain_holds(cycle(5), (0, 1))
    assert edge_deletion_chain_holds(complete(5), (2, 3))
    with pytest.raises(ValueError):
        edge_deletion_chain_holds(path(3), (0, 2))
