"""Canonical forms, exhaustive generation, scan drivers."""

from __future__ import annotations

import hashlib
import os
import random
import sys
import time
from collections import Counter
from math import prod
from pathlib import Path

import numpy as np
import pytest

from qng import enumeration, graph, spectra, theorems
from qng.cli import build_predicate
from qng.enumeration import (
    _augment,
    _relabeled as relabel,
    _search,
    canonical_form,
    canonical_labeling,
    canonicalize,
    enumerate_graphs,
    isomorphism_witness,
    resolve_filter,
    scan,
)
from qng.graph import (
    CapacityError,
    cartesian_product,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    is_connected,
    join,
    path,
    star,
    to_graph6,
)
from qng.theorems import check_ng_generic, check_thm12
from conftest import random_graph, twin_classes


def test_canonical_form_isomorphic_paths():
    a = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = from_edges(4, [(1, 3), (3, 0), (0, 2)])  # P_4 relabeled 2-4-1-3
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(cycle(5)) != canonical_form(path(5))


def test_canonical_form_invariance(rng=random.Random(77)):
    g = random_graph(rng, 7)
    reference = canonical_form(g)
    for _ in range(100):
        perm = list(range(7))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == reference


def test_canonical_constant_on_orbits(graphs_by_order, rng=random.Random(123)):
    for n in range(2, 7):
        for g in graphs_by_order[n]:
            reference = canonical_form(g)
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == reference


def _reference_refine(g, colors):
    """Color refinement as the canonical form defines it: rank (color, counts)."""
    while True:
        ncol = max(colors) + 1
        sigs = []
        for v in range(g.n):
            cnt = [0] * ncol
            for u in range(g.n):
                if g.has_edge(u, v):
                    cnt[colors[u]] += 1
            sigs.append((colors[v], tuple(cnt)))
        distinct = sorted(set(sigs))
        if len(distinct) == ncol:
            return colors
        colors = [distinct.index(s) for s in sigs]


def _reference_labeling(g):
    """The first leaf, in search order, of minimal graph6 in the unpruned tree."""
    best = []

    def walk(colors):
        cells = [[v for v in range(g.n) if colors[v] == c] for c in range(max(colors) + 1)]
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            code = to_graph6(relabel(g, order))
            if not best or code < best[0]:
                best[:] = [code, tuple(order)]
            return
        c = colors[target[0]]
        for v in target:
            child = [x if x <= c else x + 1 for x in colors]
            for u in target:
                if u != v:
                    child[u] = c + 1
            walk(_reference_refine(g, child))

    walk(_reference_refine(g, [0] * g.n))
    return best[1]


def test_canonical_labeling_matches_unpruned_search(graphs_by_order, rng=random.Random(5)):
    graphs = [g for n in range(2, 7) for g in graphs_by_order[n]]
    graphs += [random_graph(rng, n, p) for n in (7, 8) for p in (0.2, 0.5) for _ in range(10)]
    graphs += [complete(7), cycle(8), complete_bipartite(3, 4), star(8)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_labeling(h) == _reference_labeling(h)


PETERSEN = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
                           (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


def test_search_refinement_matches_reference(graphs_by_order, monkeypatch, rng=random.Random(9)):
    """Every coloring ``_search`` hands ``_refine``, the one-cell root coloring
    first, refines as the reference does.

    Regular graphs are there because their root round splits no cell.
    """
    graphs = [g for n in range(1, 7) for g in graphs_by_order[n]]
    graphs += [random_graph(rng, n, p) for n in range(7, 11) for p in (0.3, 0.5, 0.7) for _ in range(4)]
    graphs += [cycle(9), complete(8), complete_bipartite(4, 4), PETERSEN,
               cartesian_product(cycle(3), cycle(3)), cartesian_product(cycle(4), path(2))]
    calls = []
    refine = enumeration._refine

    def recording(nbrs, colors):
        result = refine(nbrs, colors)
        calls.append((colors, result))
        return result

    monkeypatch.setattr(enumeration, "_refine", recording)
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        calls.clear()
        _search(h)
        assert [colors for colors, _ in calls[:1]] == ([[0] * h.n] if h.n > 1 else [])
        for colors, result in calls:
            assert result == _reference_refine(h, colors)


def _adjacency(rows):
    """The adjacency bits of graphs of one order, as ``_augment`` builds them."""
    n = len(rows[0])
    return np.array(rows, dtype=np.int64)[:, :, None] >> np.arange(n) & 1


def _roots(adj):
    """The root colorings of a batch, as ``_augment`` computes them for a slice's children: the
    one-cell coloring refined."""
    return enumeration._refined(adj, np.zeros(adj.shape[:2], dtype=np.int64))


def _cells_before(colors):
    """A rank coloring renumbered as ``_refined`` numbers it: each vertex's
    color the number of vertices in the cells before its own."""
    return [sum(d < c for d in colors) for c in colors]


def _parents(graphs):
    """The rows of ``graphs``, of one order, as ``_augment`` takes its parents."""
    return np.array([g.rows for g in graphs], dtype=np.int64)


def _slices(parents, n):
    """``parents`` cut as ``_augment`` cuts them for order ``n``: at most ``_PAIRS``
    (parent, subset) pairs a slice."""
    step = max(1, enumeration._PAIRS >> (n - 1))
    return [parents[start:start + step] for start in range(0, len(parents), step)]


def _child_rows(parents, n):
    """The rows ``_children`` builds for ``parents``, slice by slice, one tuple per child."""
    return [tuple(rows) for part in _slices(parents, n) for rows in enumeration._children(part, n).tolist()]


def _discrete(colors):
    return sorted(colors) == list(range(len(colors)))


def test_block_root_colorings_match_reference(graphs_by_order, monkeypatch, rng=random.Random(17)):
    """The root colorings ``_augment`` computes a slice at a time equal the
    reference refinement of the one-cell coloring, renumbered to count the
    vertices in the cells before, and route each child as its root coloring
    says.

    Every candidate child of orders 2..7 is checked, and, one order per
    block, seeded random graphs, regular graphs (one degree cell), K8 and
    E8.  ``_augment`` drops exactly the children whose new vertex is outside
    the last cell and hands the rest, in order, to ``_block_forms``; it
    calls neither ``_search`` nor ``_relabeled``.  The refinement keys fit
    int64 up to order 14 and the packed column codes up to order 11
    (n(n-1)/2 <= 62 bits), so at ``ENUMERATE_MAX``.
    """
    assert 15 ** 15 < 2 ** 63 <= 16 ** 16
    assert (enumeration.ENUMERATE_MAX + 1) ** (enumeration.ENUMERATE_MAX + 1) < 2 ** 63
    assert 11 * 10 // 2 <= 62 < 12 * 11 // 2
    assert enumeration.ENUMERATE_MAX * (enumeration.ENUMERATE_MAX - 1) // 2 <= 62
    blocks = [[random_graph(rng, 8, p).rows for p in (0.2, 0.35, 0.5, 0.65, 0.8) for _ in range(20)],
              [g.rows for g in (cycle(8), complete_bipartite(4, 4), cartesian_product(cycle(4), path(2)),
                                complete(8), empty_graph(8))],
              [cycle(9).rows, cartesian_product(cycle(3), cycle(3)).rows],
              [PETERSEN.rows, random_graph(rng, 10).rows]]
    for rows in blocks:
        roots = _roots(_adjacency(rows)).tolist()
        assert roots == [_cells_before(_reference_refine(graph._graph_unchecked(len(r), r), [0] * len(r)))
                         for r in rows]

    labeled, searched = [], []
    forms = enumeration._block_forms

    def recording_forms(adj, roots):
        labeled.extend(tuple(int(row) for row in a @ (1 << np.arange(a.shape[0]))) for a in adj)
        return forms(adj, roots)

    monkeypatch.setattr(enumeration, "_search", lambda *args: searched.append(args))
    monkeypatch.setattr(enumeration, "_relabeled", lambda *args: searched.append(args))
    monkeypatch.setattr(enumeration, "_block_forms", recording_forms)
    for n in range(2, 8):
        parents = _parents(graphs_by_order[n - 1])
        children = _child_rows(parents, n)
        roots = _roots(_adjacency(children)).tolist()
        reference = [_reference_refine(graph._graph_unchecked(n, rows), [0] * n) for rows in children]
        assert roots == list(map(_cells_before, reference))
        labeled.clear()
        assert len(_augment(parents, n)) == len(graphs_by_order[n])
        assert labeled == [rows for rows, root in zip(children, reference) if root[n - 1] == max(root)]
    assert searched == []


def _threshold(creation):
    """The threshold graph whose vertex i joins every earlier one iff creation[i] is '1'."""
    return from_edges(len(creation), [(u, v) for v, bit in enumerate(creation) if bit == "1"
                                      for u in range(v)])


def _group_order(n, gens):
    """The order of the permutation group generated by ``gens`` (Schreier-Sims).

    Level i of a stabilizer chain over the base 0, 1, ..., n - 1 holds the
    generators whose first moved point is i, and the orbit of i under those
    of levels i and above, each point with a permutation taking i there.
    The chain is complete, and the order is the product of the orbit
    lengths, once every Schreier generator of every level sifts to the
    identity through the levels above it; one that does not joins the level
    where it stopped, and the chain is rebuilt.
    """
    identity = tuple(range(n))

    def compose(a, b):  # b, then a
        return tuple(map(a.__getitem__, b))

    def inverse(a):
        return tuple(sorted(range(n), key=a.__getitem__))

    levels = [[] for _ in range(n)]
    for gamma in map(tuple, gens):
        if gamma != identity:
            levels[next(i for i in range(n) if gamma[i] != i)].append(gamma)
    while True:
        fixing = [[gamma for level in levels[i:] for gamma in level] for i in range(n)]
        orbits = []  # orbits[i][x]: a permutation taking i to x, and its inverse
        for i in range(n):
            orbit, stack = {i: (identity, identity)}, [i]
            while stack:
                x = stack.pop()
                for gamma in fixing[i]:
                    if gamma[x] not in orbit:
                        to_y = compose(gamma, orbit[x][0])
                        orbit[gamma[x]] = to_y, inverse(to_y)
                        stack.append(gamma[x])
            orbits.append(orbit)

        def residues():
            for i in range(n):
                for x, (to_x, _) in orbits[i].items():
                    for gamma in fixing[i]:
                        h = compose(orbits[i][gamma[x]][1], compose(gamma, to_x))
                        for j in range(i + 1, n):
                            if h == identity:
                                break
                            if h[j] not in orbits[j]:
                                yield j, h
                                break
                            h = compose(orbits[j][h[j]][1], h)

        stop = next(residues(), None)
        if stop is None:
            return prod(map(len, orbits))
        levels[stop[0]].append(stop[1])


TWIN_HEAVY = [
    star(10),  # K_{1,9}
    complete_bipartite(5, 5),
    complement(from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])),  # K_{2,2,2,2}
    join(disjoint_union(complete(2), complete(2)), empty_graph(3)),  # (2K_2)∇(3K_1)
    join(disjoint_union(complete(2), complete(5)), complete(1)),  # (K_2∪K_5)∇K_1
    _threshold("01101001"),
    _threshold("00110011"),
    _threshold("0101011"),
    complete(10),
    empty_graph(10),
    # smaller members of the n = 10 families, small enough for the unpruned search
    star(7),
    complete_bipartite(3, 4),
    complete(6),
    empty_graph(6),
]


def test_twin_transpositions_match_the_reference(graphs_by_order):
    """``_twin_transpositions``, read off the twin kernel ``_twins``, is as a set the
    transpositions of consecutive members of each class of the reference
    ``twin_classes``: on every class of order 1..7, the regular graphs of 13 to 32
    vertices and their complements, and K32, E32 and K16,16, whose rows use bit 31."""
    def reference(rows):
        n, out = len(rows), set()
        for classes in twin_classes(rows):
            for members in classes:
                for u, v in zip(members, members[1:]):
                    gamma = list(range(n))
                    gamma[u], gamma[v] = v, u
                    out.add(tuple(gamma))
        return out

    graphs = [g for n in range(1, 8) for g in graphs_by_order[n]]
    graphs += [h for g in _regular_graphs().values() for h in (g, complement(g))]
    graphs += [complete(32), empty_graph(32), complete_bipartite(16, 16)]
    for g in graphs:
        gens = enumeration._twin_transpositions(g.rows)
        assert len(set(gens)) == len(gens) and set(gens) == reference(g.rows), to_graph6(g)
    assert len(enumeration._twin_transpositions(complete_bipartite(16, 16).rows)) == 30


def test_twin_transpositions_seed_the_search(monkeypatch, rng=random.Random(31)):
    """On twin-heavy graphs the seeded search keeps the canonical labeling and
    returns generators of the whole automorphism group, twins first.

    The unpruned reference search has 28,800 leaves or more on K_{1,9},
    K_{5,5}, K10 and E10, so there the labeling is compared with the search
    run without twin seeds instead.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    search = enumeration._search
    for g in TWIN_HEAVY:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        labeling, gens, _ = search(h)
        twins = enumeration._twin_transpositions(h.rows)
        assert twins and gens[:len(twins)] == twins
        for gamma in gens:
            assert sorted(gamma) == list(range(h.n))
            assert all(h.has_edge(gamma[u], gamma[v]) for u, v in h.edges())
        if h.n <= 8:
            assert labeling == _reference_labeling(h)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(h.n))
            nxg.add_edges_from(h.edges())
            assert _group_order(h.n, gens) == len(list(GraphMatcher(nxg, nxg).isomorphisms_iter()))
        else:
            with monkeypatch.context() as m:
                m.setattr(enumeration, "_twin_transpositions", lambda rows: [])
                assert labeling == search(h)[0]


def _packed(cols):
    """``_search``'s column code as one integer: column j in j bits, column 1 highest."""
    code = 0
    for j, col in enumerate(cols, 1):
        code = code << j | col
    return code


def test_block_forms_match_the_search(graphs_by_order, rng=random.Random(41)):
    """``_block_forms`` labels as ``_search`` does.

    The blocks are every child of orders 2..8 that the root cell keeps,
    seeded random graphs of orders 7, 9 and 11, and the twin-heavy graphs
    up to order 10, relabeled.  For each graph the kernel gives the
    canonical rows of ``_search``'s labeling and its column code, and
    decides as ``_search``'s orbit test does whether vertex n - 1 shares an
    orbit with the first vertex, in canonical order, of the last root cell.
    """
    blocks = []
    for n in range(2, 9):
        children = _child_rows(_parents(graphs_by_order[n - 1]), n)
        roots = _roots(_adjacency(children))
        blocks.append([rows for rows, keep in zip(children, roots[:, -1] == roots.max(1)) if keep])
    assert list(map(len, blocks)) == [2, 4, 11, 37, 179, 1292, 14808]
    blocks += [[random_graph(rng, n, p).rows for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(8)]
               for n in (7, 9, 11)]
    blocks += [[relabel(g, rng.sample(range(n), n)).rows for g in TWIN_HEAVY if g.n == n]
               for n in sorted({g.n for g in TWIN_HEAVY})]
    for block in blocks:
        n = len(block[0])
        adj = _adjacency(block)
        roots = _roots(adj)
        rows, codes, accepted = enumeration._block_forms(adj, roots)
        for child, root, canonical, code, accept in zip(
                block, roots.tolist(), rows.tolist(), codes.tolist(), accepted.tolist()):
            g = graph._graph_unchecked(n, child)
            labeling, search_gens, cols = _search(g)
            assert (tuple(canonical), code) == (relabel(g, labeling).rows, _packed(cols))
            first = next(v for v in labeling if root[v] == max(root))
            orbit = {first}
            enumeration._close(orbit, (first,), search_gens)
            assert accept == (n - 1 in orbit)


# Frozen canonical forms: any change to the canonical-string definition breaks them.
GOLDEN_FORMS = [
    (complete(10), "I~~~~~~~w"),
    (empty_graph(10), "I????????"),
    (complete_bipartite(5, 5), "I?B~vrw}?"),
    (from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
                     (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]), "I?LRCecq?"),
    (cycle(10), "I??XQa_o?"),
]


def test_canonical_form_golden_strings():
    start = time.perf_counter()
    for g, want in GOLDEN_FORMS:
        assert canonical_form(g) == want
    assert time.perf_counter() - start < 2


def test_canonical_form_vertex_transitive_is_fast():
    """Vertex-transitive graphs take milliseconds: the complete and empty ones
    through their twins, Q5, K4 x K8 and Paley(29), which have none, through
    the automorphisms found at leaves."""
    q5 = _edges_where(32, lambda u, v: (u ^ v).bit_count() == 1)
    for g in (complete(10), empty_graph(10), complete(32), empty_graph(32), complete_bipartite(16, 16),
              q5, cartesian_product(complete(4), complete(8)), _paley(29)):
        start = time.perf_counter()
        canonical_form(g)
        assert time.perf_counter() - start < 0.1


def test_canonicalize_is_isomorphic_fixed_point():
    for g in (cycle(6), star(7), complete(4)):
        c = canonicalize(g)
        assert c.degree_sequence() == g.degree_sequence()
        assert canonicalize(c) == c
        assert canonical_labeling(empty_graph(1)) == (0,)


def test_canonical_capacity():
    """Canonical forms reach every order a graph may have."""
    for n in (11, graph.MAX_VERTICES):
        moved = relabel(star(n), [*range(1, n), 0])
        assert canonical_form(moved) == canonical_form(star(n)) != canonical_form(path(n))
        assert canonicalize(complete(n)) == complete(n)
        assert isomorphism_witness(moved, star(n))[n - 1] == 0
    with pytest.raises(CapacityError):
        empty_graph(graph.MAX_VERTICES + 1)


def _edges_where(n, adjacent):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adjacent(u, v)])


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return _edges_where(q, lambda u, v: (u - v) % q in squares)


def _triangular(m, switched=()):
    """T(m), the line graph of K_m, Seidel-switched on the edges ``switched`` of K_m."""
    pairs = [(a, b) for b in range(m) for a in range(b)]
    inside = {pairs.index(tuple(sorted(e))) for e in switched}
    return _edges_where(len(pairs), lambda u, v: (len(set(pairs[u]) & set(pairs[v])) == 1)
                        != ((u in inside) != (v in inside)))


def _generalized_petersen(m, k):
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m + i) for i in range(m)]
    return from_edges(2 * m, edges + [(m + i, m + (i + k) % m) for i in range(m)])


def _random_regular(d, n, seed):
    import networkx as nx

    return from_edges(n, nx.random_regular_graph(d, n, seed=seed).edges())


#: sha256 of the canonical forms of ``_regular_graphs()`` and of their complements.
REGULAR_FORMS_DIGEST = "3c6795f02f9c0368a01a121240cedbf201422f383c1c2a3ffaeb7b5b51bd1008"


def _regular_graphs():
    """Strongly regular and regular graphs of 13 to 32 vertices, by name."""
    shrikhande_steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return {
        "Paley(13)": _paley(13), "Paley(17)": _paley(17), "Paley(29)": _paley(29),
        "rook 4x4": cartesian_product(complete(4), complete(4)), "rook 5x5": cartesian_product(complete(5), complete(5)),
        "Shrikhande": _edges_where(16, lambda u, v: ((u // 4 - v // 4) % 4, (u - v) % 4) in shrikhande_steps),
        "Clebsch": _edges_where(16, lambda u, v: (u ^ v).bit_count() == 1 or u ^ v == 15),
        "Q4": _edges_where(16, lambda u, v: (u ^ v).bit_count() == 1),
        "Q5": _edges_where(32, lambda u, v: (u ^ v).bit_count() == 1),
        "T(7)": _triangular(7), "T(8)": _triangular(8), "Kneser(7,2)": complement(_triangular(7)),
        # The three Chang graphs: T(8) switched on 4K_2, on C_8 and on C_3 + C_5.
        "Chang 4K2": _triangular(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        "Chang C8": _triangular(8, [(i, (i + 1) % 8) for i in range(8)]),
        "Chang C3+C5": _triangular(8, [(0, 1), (1, 2), (0, 2), *((3 + i, 3 + (i + 1) % 5) for i in range(5))]),
        "GP(8,3)": _generalized_petersen(8, 3), "GP(10,2)": _generalized_petersen(10, 2),
        "GP(10,3)": _generalized_petersen(10, 3), "GP(12,5)": _generalized_petersen(12, 5),
        "GP(16,3)": _generalized_petersen(16, 3), "GP(16,5)": _generalized_petersen(16, 5),
        "C32": cycle(32), "K16,16": complete_bipartite(16, 16),
        "3-regular 32a": _random_regular(3, 32, 1), "3-regular 32b": _random_regular(3, 32, 2),
        "4-regular 30a": _random_regular(4, 30, 3), "4-regular 30b": _random_regular(4, 30, 4),
    }


def test_canonical_forms_of_regular_graphs_up_to_32_vertices(rng=random.Random(2024)):
    """Forms are labeling-invariant and separate cospectral strongly regular graphs.

    Shrikhande and rook 4x4 are both SRG(16, 6, 2, 2); T(8) and the three
    Chang graphs are SRG(28, 12, 6, 4).  GP(16, 3) and GP(16, 5) are
    isomorphic (3 * 5 = -1 mod 16), and so are Paley(13) and its complement.
    ``networkx.is_isomorphic`` (VF2) is the reference on pairs of equal degree
    sequence, each graph against a relabeled copy of itself included; the
    Chang graphs, where VF2 takes seconds, are told apart by the forms alone.
    The forms of the graphs and of their complements are pinned by one
    sha256.
    """
    import networkx as nx

    graphs = _regular_graphs()
    forms, complement_forms = {}, {}
    for name, g in graphs.items():
        forms[name] = canonical_form(g)
        complement_forms[name] = co = canonical_form(complement(g))
        for _ in range(2):
            order = rng.sample(range(g.n), g.n)
            assert canonical_form(relabel(g, order)) == forms[name], name
            assert canonical_form(complement(relabel(g, order))) == co, name
    assert forms["Shrikhande"] != forms["rook 4x4"]
    chang = [name for name in graphs if name.startswith("Chang")]
    assert len({forms[name] for name in ["T(8)", *chang]}) == 4
    assert forms["GP(16,3)"] == forms["GP(16,5)"]
    assert canonical_form(complement(graphs["Paley(13)"])) == forms["Paley(13)"]
    assert len(set(forms.values())) == len(forms) - 1
    text = "\n".join(f"{forms[name]} {complement_forms[name]}" for name in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == REGULAR_FORMS_DIGEST

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    names = sorted(set(graphs) - set(chang))
    pairs = [(a, b) for a in names for b in names
             if a <= b and sorted(graphs[a].degrees()) == sorted(graphs[b].degrees())]
    assert len(pairs) > len(names)
    for a, b in pairs:
        g, h = graphs[a], relabel(graphs[b], rng.sample(range(graphs[b].n), graphs[b].n))
        same = canonical_form(g) == canonical_form(h)
        assert nx.is_isomorphic(as_nx(g), as_nx(h)) == same, (a, b)
        assert (isomorphism_witness(g, h) is not None) == same, (a, b)


def test_isomorphism_witness():
    g = relabel(cycle(6), [3, 1, 5, 0, 4, 2])
    w = isomorphism_witness(g, cycle(6))
    assert w is not None
    for u, v in g.edges():
        assert cycle(6).has_edge(w[u], w[v])
    assert isomorphism_witness(cycle(6), path(6)) is None
    # same degree sequence, different graphs: C_3 u C_3 vs C_6
    a = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert isomorphism_witness(a, cycle(6)) is None


def test_enumeration_counts(graphs_by_order, edge_counts):
    for n in range(1, 8):
        assert len(graphs_by_order[n]) == sum(edge_counts(n))


def test_polya_counts_match_oeis(edge_counts):
    """The Pólya counts sum to OEIS A000088 (graphs) and A001349 (connected graphs)."""
    assert [sum(edge_counts(n)) for n in range(1, 11)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]
    assert [sum(edge_counts(n, connected=True)) for n in range(1, 11)] == [
        1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]


def test_enumeration_counts_by_edges(graphs_by_order, enum8, edge_counts):
    """Every order up to 8 has Pólya's number of graphs, and of connected graphs,
    with each number of edges: a class moved from one edge count to another, or
    one dropped and another duplicated, keeps the totals but fails here."""
    for n, graphs in {**graphs_by_order, 8: enum8[0]}.items():
        for connected in (False, True):
            counts = Counter(g.m for g in graphs if is_connected(g) or not connected)
            assert [counts[m] for m in range(n * (n - 1) // 2 + 1)] == list(edge_counts(n, connected)), (n, connected)


def test_enumeration_matches_reference_atlas_class_for_class(graphs_by_order):
    """Bijection of canonical forms against an independent reference stream."""
    import networkx as nx

    atlas: dict[int, set[str]] = {n: set() for n in range(1, 8)}
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if 1 <= n <= 7:
            relabeled = {u: i for i, u in enumerate(ag.nodes())}
            g = from_edges(n, [(relabeled[u], relabeled[v]) for u, v in ag.edges()])
            atlas[n].add(to_graph6(canonicalize(g)))
    for n in range(1, 8):
        mine = {to_graph6(g) for g in graphs_by_order[n]}
        assert mine == atlas[n]


def test_enumeration_count_n8(enum8, edge_counts):
    graphs, _ = enum8
    assert len(graphs) == sum(edge_counts(8))


def _orbit_representatives(m, gens, subsets=None):
    """The least vertex subset (as a bitmask) of each orbit of <gens> on 2^[m].

    Each generator's action on subsets is tabulated, and the orbits are
    closed one subset at a time.  ``subsets``, in increasing order and a
    union of orbits, restricts the orbits to those it holds; it defaults to
    all of 2^[m].
    """
    size = 1 << m
    if subsets is None:
        subsets = range(size)
    if not gens:
        return list(subsets)
    images = []
    for gamma in gens:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | (1 << gamma[low.bit_length() - 1])
        images.append(image)
    covered = set()
    reps = []
    for s in subsets:
        if s not in covered:
            reps.append(s)
            covered.add(s)
            enumeration._close(covered, (s,), images)
    return reps


def _reference_children(parents, n):
    """The rows of the children ``enumeration._children`` builds, one tuple
    each: the subsets that give the new vertex maximum degree and meet each
    twin class of the parent (``graph.twin_classes``) in a prefix of it."""
    top = n - 1
    new = 1 << top
    for base in parents:
        degree = [row.bit_count() for row in base]
        dmax = max(degree)
        at_max = sum(1 << v for v, d in enumerate(degree) if d == dmax)
        pairs = [(u, v) for classes in twin_classes(base) for members in classes
                 for u, v in zip(members, members[1:])]
        for subset in range(new):
            if subset.bit_count() < dmax or (subset.bit_count() == dmax and subset & at_max):
                continue
            if all(subset >> u & 1 or not subset >> v & 1 for u, v in pairs):
                yield tuple(row | new if subset >> v & 1 else row for v, row in enumerate(base)) + (subset,)


def test_children_match_reference(graphs_by_order, rng=random.Random(53)):
    """``_children`` builds the reference's children, row for row and in order,
    one int64 array (C, n) per parent slice.

    The parents are every class of orders 1..7, the twin-heavy graphs,
    relabeled so that no twin class is consecutive, and 300 copies each of
    E8 and K8, which cross 75 slices of 8 order-8 parents.  E8 and K8
    have 9 twin orbits of subsets each, one per size; E8 keeps a child for
    each, K8 only the full subset, since any other would leave the new
    vertex below degree 7.
    """
    for m in range(1, 8):
        parents = [g.rows for g in graphs_by_order[m]]
        assert _child_rows(np.array(parents), m + 1) == list(_reference_children(parents, m + 1))
    for m in sorted({g.n for g in TWIN_HEAVY}):
        parents = [relabel(g, rng.sample(range(m), m)).rows for g in TWIN_HEAVY if g.n == m]
        assert _child_rows(np.array(parents), m + 1) == list(_reference_children(parents, m + 1))
    parents = [g.rows for _ in range(300) for g in (empty_graph(8), complete(8))]
    children = _child_rows(np.array(parents), 9)
    assert children == list(_reference_children(parents, 9))
    assert len(children) == 300 * (9 + 1)
    slices = _slices(np.array(parents), 9)
    assert list(map(len, slices)) == [8] * 75
    part = enumeration._children(slices[0], 9)
    assert isinstance(part, np.ndarray) and part.dtype == np.int64 and part.shape == (4 * (9 + 1), 9)


def test_generation_canonicalizes_one_subset_per_orbit(graphs_by_order):
    """Orbit counts of ``_search``'s automorphisms on vertex subsets meet
    Burnside's count, the rooted graphs one order up, only if they generate Aut."""
    rooted = {1: 2, 2: 6, 3: 20, 4: 90, 5: 544, 6: 5096, 7: 79264}  # OEIS A000666
    for m, want in rooted.items():
        assert sum(len(_orbit_representatives(m, _search(g)[1])) for g in graphs_by_order[m]) == want


def test_parent_slices_are_independent(graphs_by_order, enum8):
    """A parent slice needs nothing from another: each class is accepted only from
    its one canonical parent.  The order-7 parents, cut at points that split
    ``_augment``'s own slices, give parts whose classes are disjoint and
    together the order-8 list."""
    parents = _parents(graphs_by_order[7])
    cuts = [0, 1, 5, 300, 301, 777, 1043, len(parents)]
    parts = [_augment(parents[a:b], 8) for a, b in zip(cuts, cuts[1:])]
    forms = [to_graph6(graph._graph_unchecked(8, tuple(rows))) for part in parts for rows in part.tolist()]
    assert len(forms) == len(set(forms)) == len(enum8[0])
    assert sorted(forms) == list(map(to_graph6, enum8[0]))


def test_augmentation_accepts_each_class_once(monkeypatch, edge_counts):
    """Each order is one canonical graph per class, sorted by graph6.

    The twin rule leaves one subset per orbit of the twin transpositions, so
    a parent with other automorphisms has accepted children that are
    isomorphic; the codes merge them, 14,783 accepted children into the
    12,346 classes of order 8.  The children that pass the degree and twin
    filters number 22,194 at order 8 and 495,240 at order 9.
    """
    accepted = Counter()
    forms = enumeration._block_forms

    def counting_forms(adj, roots):
        result = forms(adj, roots)
        accepted[adj.shape[1]] += int(result[2].sum())
        return result

    monkeypatch.setattr(enumeration, "_block_forms", counting_forms)
    parents = _parents([empty_graph(1)])
    for n in range(2, 9):
        if n == 8:
            assert sum(len(enumeration._children(part, n)) for part in _slices(parents, n)) == 22194
        parents = _augment(parents, n)
        graphs = [graph._graph_unchecked(n, tuple(rows)) for rows in parents.tolist()]
        assert len(set(graphs)) == len(graphs) == sum(edge_counts(n))
        forms6 = list(map(to_graph6, graphs))
        assert forms6 == sorted(forms6)
        assert all(canonicalize(g) == g for g in graphs)
    assert accepted == {2: 2, 3: 4, 4: 11, 5: 37, 6: 179, 7: 1290, 8: 14783}
    assert sum(len(enumeration._children(part, 9)) for part in _slices(parents, 9)) == 495240


def _cold_generation(monkeypatch):
    """The work of a cold enumerate_graphs(7): the orders of the graphs ``_search``
    labels, the ``_refine`` calls, the root colorings, the roots ``_block_forms``
    labels, and the (size, leaves) of each batch of tree nodes it refines."""
    work = {"searches": [], "refines": 0, "roots": [], "labeled": [], "levels": []}
    refine, search, refined = enumeration._refine, enumeration._search, enumeration._refined
    forms = enumeration._block_forms

    def counting_refine(nbrs, colors):
        work["refines"] += 1
        return refine(nbrs, colors)

    def counting_search(g):
        work["searches"].append(g.n)
        return search(g)

    def recording_forms(adj, roots):
        work["labeled"].extend(roots.tolist())
        return forms(adj, roots)

    def recording_refined(adj, colors):
        result = refined(adj, colors)
        if colors.any():  # tree nodes: a root starts from one cell
            discrete = (np.sort(result) == np.arange(result.shape[1])).all(-1)
            work["levels"].append((len(result), int(discrete.sum())))
        else:
            work["roots"].extend(result.tolist())
        return result

    monkeypatch.setattr(enumeration, "_refine", counting_refine)
    monkeypatch.setattr(enumeration, "_search", counting_search)
    monkeypatch.setattr(enumeration, "_block_forms", recording_forms)
    monkeypatch.setattr(enumeration, "_refined", recording_refined)
    monkeypatch.setattr(enumeration, "_ALL_GRAPHS", {})
    assert len(enumerate_graphs(7)) == 1044
    return work


def test_generation_search_count(monkeypatch):
    """A cold enumerate_graphs(7) searches no graph.  The 1,525 children of
    orders 2..7 that pass the degree, twin and root-cell filters are labeled
    a parent slice at a time: their twin-pruned trees have 5,203 nodes, the
    1,525 roots included, and 2,346 leaves, 244 of them discrete roots.  A
    lost twin pruning fails here, not only in a timing.  These count work,
    not output."""
    work = _cold_generation(monkeypatch)
    assert work["searches"] == []
    roots = work["labeled"]
    nodes = len(roots) + sum(size for size, _ in work["levels"])
    leaves = sum(map(_discrete, roots)) + sum(leaves for _, leaves in work["levels"])
    assert (len(roots), nodes, leaves) == (1525, 5203, 2346)


def test_generation_after_a_cached_order_searches_nothing(monkeypatch, enum8):
    """Order 8 built after order 7 extends the cached order 7, whose rows are all
    a parent needs: it augments only to order 8, searches no graph, and is the
    order-8 list of a cold build."""
    searches, augmented = [], []
    search, augment = enumeration._search, enumeration._augment
    monkeypatch.setattr(enumeration, "_search", lambda g: searches.append(g.n) or search(g))
    monkeypatch.setattr(enumeration, "_augment", lambda parents, n: augmented.append(n) or augment(parents, n))
    monkeypatch.setattr(enumeration, "_ALL_GRAPHS", {})
    assert len(enumerate_graphs(7)) == 1044
    assert augmented == [2, 3, 4, 5, 6, 7]
    del augmented[:]
    assert enumerate_graphs(8) == enum8[0]
    assert augmented == [8]
    assert searches == []


def test_generation_refine_count(monkeypatch):
    """Refinement work in a cold enumerate_graphs(7).

    The 2,088 children's root colorings are computed a parent slice at a
    time; 563 of them put the new vertex outside the last cell and are
    dropped, and 244 are discrete.  The trees of the other children grow in
    41 batched refinements, levels of the slices' trees, of 3,678 nodes.  ``_refine``, the one-graph refinement of
    ``_search``, is never called: no graph is searched.  These count work,
    not output.
    """
    work = _cold_generation(monkeypatch)
    assert work["refines"] == 0
    roots = work["roots"]
    assert len(roots) == 2088
    assert sum(root[-1] != max(root) for root in roots) == 563
    assert sum(_discrete(root) and root[-1] == len(root) - 1 for root in roots) == 244
    assert (len(work["levels"]), sum(size for size, _ in work["levels"])) == (41, 3678)


def test_enumeration_n8_golden_digest(enum8):
    graphs, _ = enum8
    text = "\n".join(to_graph6(g) for g in graphs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "aff8dddabbc3d74f79ef9335e2a515a5455d4958c41e7b3ac4efc7a2d2299dba"


def test_connected_count(edge_counts):
    for n in (4, 6):
        assert sum(map(is_connected, enumerate_graphs(n))) == sum(edge_counts(n, connected=True))


def test_enumeration_stream_is_canonical_and_unique(graphs_by_order):
    for n in range(1, 8):
        forms = [to_graph6(g) for g in graphs_by_order[n]]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)
        for g in graphs_by_order[n][:20]:
            assert to_graph6(canonicalize(g)) == to_graph6(g)


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_graphs(9)


def test_filters():
    name, accept = resolve_filter("connected,bipartite")
    assert name == "connected,bipartite"
    assert accept(path(4)) and not accept(complete(3))
    with pytest.raises(ValueError):
        resolve_filter("nonsense")
    assert resolve_filter("cobar-disconnected")[1](star(5))
    assert not resolve_filter("cobar-disconnected")[1](path(5))


def test_scan_deterministic_and_parallel_agreement():
    first = scan(5, "connected", check_thm12)
    second = scan(5, "connected", check_thm12)
    assert first == second
    parallel = scan(5, "connected", check_thm12, jobs=2)
    assert parallel == first
    assert first.counts["equality-certified"] >= 1
    assert first.violations == []


def test_scan_chunks_keep_their_order_under_jobs():
    """Several chunks and a partial last one go through the pool in order.

    The pool's task thread queues chunks while the caller tallies verdicts;
    with four jobs asked for and a short switch interval the result must
    still equal the in-process scan, and a wrong-order graph in a late chunk
    must still raise.
    """
    graphs = enumerate_graphs(7)
    assert len(graphs) > 2 * enumeration.CHUNK_SIZE and len(graphs) % enumeration.CHUNK_SIZE
    expected = scan(7, "all", check_thm12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert scan(7, "all", check_thm12, jobs=4) == expected
        with pytest.raises(ValueError, match="order 6 in a scan for n=7"):
            scan(7, "all", check_thm12, source=graphs + enumerate_graphs(6)[:1], jobs=2)
    finally:
        sys.setswitchinterval(interval)


def test_scan_starts_at_most_one_worker_per_cpu(monkeypatch):
    """``jobs`` above the CPU count starts one worker per CPU, and with one
    CPU, or an unknown count, the scan runs in this process.  The pool is a
    fake that records its size and maps in this process."""
    expected = scan(5, "connected", check_thm12)
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", RecordingPool)
    for cpus, jobs, want in ((4, 100_000, [4]), (4, 3, [3]), (1, 100_000, []), (None, 100_000, [])):
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert scan(5, "connected", check_thm12, jobs=jobs) == expected
        assert started == want, (cpus, jobs)


def test_scan_violation_keys_come_back_from_workers():
    check = build_predicate("sum-le 2n-5", 5)
    expected = scan(5, "connected", check)
    assert expected.counts == {"violated": 8, "equality-certified": 5, "strict": 8}
    assert len(expected.violations) == 8 and len(expected.equality) == 5
    assert scan(5, "connected", check, jobs=2) == expected


def _ng_a2(g):
    return check_ng_generic(g, "A", 2)


def _ng_l1(g):
    return check_ng_generic(g, "L", 1)


def _eigvalsh_stacks(monkeypatch) -> list:
    """The shapes of the eigvalsh calls from now on, with the cached chunk screens dropped."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    spectra.chunk_of.cache_clear()
    return calls


def _member_and_complement_stacks(graphs) -> list[int]:
    """Per chunk, its graphs, then their complements that are not among them."""
    chunks = [graphs[i:i + enumeration.CHUNK_SIZE] for i in range(0, len(graphs), enumeration.CHUNK_SIZE)]
    return [size for chunk in chunks for size in (len(chunk), len({complement(g) for g in chunk} - set(chunk)))]


@pytest.mark.parametrize("check", [_ng_a2, _ng_l1])
def test_scan_screens_each_chunk_once_for_the_kind_it_reads(check, monkeypatch):
    """A check without a ``kind`` attribute still screens a chunk in batched calls.

    The chunk's graphs are screened for A (or L) in one call at the first
    read, and their complements in one more at the first read of one: two
    calls per chunk, not one per graph, and no matrix twice.
    """
    graphs = enumerate_graphs(7)
    assert not hasattr(check, "kind")
    calls = _eigvalsh_stacks(monkeypatch)
    assert scan(7, "all", check).total == len(graphs) == 1044
    assert len(calls) == 2 * -(-len(graphs) // enumeration.CHUNK_SIZE) == 10
    assert [shape[0] for shape in calls] == _member_and_complement_stacks(graphs) == [256, 256] * 4 + [20, 20]
    # a second scan of the same graphs reads every spectrum from the cached chunk screens
    scan(7, "all", check)
    assert len(calls) == 10


def test_a_sweep_of_the_package_caches_drops_the_kept_chunks(monkeypatch):
    """Every ``cache_clear`` in the ``qng`` module namespaces, swept as a fresh process
    would start, drops the chunks kept across scans: a repeated scan makes its eigvalsh
    calls again, so a benchmark repetition never reads the previous one's screens."""
    calls = _eigvalsh_stacks(monkeypatch)
    scan(7, "all", _ng_a2)
    first = calls[:]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qng"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    del calls[:]
    scan(7, "all", _ng_a2)
    assert calls == first and len(first) == 10


def test_scan_of_the_same_graphs_reads_the_kept_screens_again(monkeypatch):
    """A bound-table row screens each chunk's graphs in one eigvalsh call, and
    the complements of only those its one-spectrum interval leaves undecided
    in one more; another row's scan of the same graphs reads those screens
    again and stacks only the complements it needs that are not screened."""
    graphs = enumerate_graphs(7)
    calls = _eigvalsh_stacks(monkeypatch)
    first = scan(7, "all", check_thm12)
    # per chunk: its 256 (last: 20) graphs, then the complements of the 3, 0, 0, 3 and 2 undecided
    assert [shape[0] for shape in calls] == [256, 3, 256, 256, 256, 3, 20, 2]
    second = scan(7, "all", theorems.check_ng_q1)
    assert second.total == first.total == len(graphs)
    assert [shape[0] for shape in calls[8:]] == [199, 232, 252, 246, 18]
    assert first.counts["equality-certified"] + second.counts["equality-certified"] > 0


def test_registered_scans_share_the_kept_screens(monkeypatch):
    """The 14 registered checks scan the order-7 graphs off 15 member screens,
    each of the 5 chunks once per kind, Q, A and L, and 23 complement screens:
    a bound-table row, ``ng_check``'s rows included, stacks the complements
    its interval leaves undecided (ng-A2 none), and a lemma, which reads no
    complement spectrum, none.  A second pass of all 14 reads the cached
    screens again and makes no eigvalsh call."""
    checks = [*theorems.THEOREM_CHECKS.values(), theorems.check_ng_q1,
              theorems.ng_check("A", 2), theorems.ng_check("L", 1)]
    assert len(checks) == 14
    graphs = enumerate_graphs(7)
    calls = _eigvalsh_stacks(monkeypatch)
    stacks = {}
    for check in checks:
        done = len(calls)
        assert scan(7, "all", check).total == len(graphs)
        if len(calls) > done:
            stacks[check.__name__] = [shape[0] for shape in calls[done:]]
    assert stacks == {
        "check_thm12": [256, 3, 256, 256, 256, 3, 20, 2],
        "check_thm13": [1],
        "check_thm14": [4, 11, 4, 3],
        "check_thm15": [2, 3],
        "check_problem12": [8, 11, 4, 1],
        "check_ng_q1": [184, 207, 244, 242, 18],
        "ng-A2": [256, 256, 256, 256, 20],
        "ng-L1": [256, 41, 256, 28, 256, 9, 256, 10, 20],
    }
    assert len(calls) == 15 + 23 == 38
    for check in checks:
        scan(7, "all", check)
    assert len(calls) == 38


def _ng_a3(g):
    return check_ng_generic(g, "A", 3)


@pytest.mark.parametrize("jobs", [1, 2])
def test_unregistered_ng_scan_reads_no_screen(jobs, monkeypatch):
    """A (kind, k) with no row in ``NG_BOUNDS`` scans as a row with no bound: every graph
    is not applicable without an eigvalsh call, in this process or in a pool worker (a
    forked worker inherits the patched eigvalsh, which raises), and the tally is that of
    ``check_ng_generic`` called on each graph."""
    expected = scan(7, "all", _ng_a3)
    assert expected.counts == {"not-applicable": 1044}
    calls = []

    def forbidden(a):
        calls.append(a.shape)
        raise AssertionError("an unregistered ng pair read a screen")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    spectra.chunk_of.cache_clear()
    result = scan(7, "all", theorems.ng_check("A", 3), jobs=jobs)
    assert calls == []
    assert result.predicate_name == "ng-A3" and result.counts == expected.counts
    assert (result.total, result.equality, result.violations) == (expected.total, [], [])


def test_scan_external_source():
    graphs = enumerate_graphs(4)
    result = scan(4, "all", check_thm12, source=graphs)
    assert result.total == 11
    with pytest.raises(ValueError):
        scan(5, "all", check_thm12, source=graphs)


def test_scan_result_serialization():
    result = scan(4, "all", check_thm12)
    d = result.to_dict()
    assert d["n"] == 4 and d["total"] == 11
    assert sorted(d["counts"]) == sorted(result.counts)
    assert isinstance(canonical_form(cycle(4)), str)


def test_scan_external_stream_order_9():
    from qng.theorems import check_problem12

    petersen_minus = from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                    (0, 5), (1, 6), (2, 7), (3, 8),
                                    (5, 7), (7, 6), (6, 8), (8, 5)])
    stream = [complete(9), cycle(9), star(9), petersen_minus]
    result = scan(9, "connected", check_problem12, source=stream)
    assert result.total == 4
    assert result.violations == []
    assert result.counts.get("violated", 0) == 0


def test_scan_keys_an_order_11_stream_by_canonical_form():
    """Two labelings of K_{1,10} are one equality class, in the pool too."""
    lines = (Path(__file__).parent / "data" / "star11.g6").read_text().split()
    assert len(set(lines)) == 2 and canonical_form(star(11)) not in lines
    for jobs in (1, 2):
        result = scan(11, "all", check_thm12, source=lines, jobs=jobs)
        assert result.counts == {"equality-certified": 2}
        assert result.equality == [canonical_form(star(11))]


def _per_graph_tally(graphs, check):
    """The verdict counts and canonical keys of ``check(g)`` called on each graph alone."""
    counts = Counter()
    keys = {"equality-certified": set(), "violated": set()}
    for g in graphs:
        verdict = check(g).verdict
        counts[verdict] += 1
        if verdict in keys:
            keys[verdict].add(canonical_form(g))
    return dict(counts), sorted(keys["equality-certified"]), sorted(keys["violated"])


def test_scan_of_graphs_next_to_their_complements(graphs_by_order):
    """A chunk whose members include labelled complements of other members.

    Every registered check scans such a source to the counts and keys of
    per-graph calls, in process and under a pool.
    """
    checks = {**theorems.THEOREM_CHECKS, "q1-sum": theorems.check_ng_q1, "ng-A2": _ng_a2, "ng-L1": _ng_l1}
    for n in range(1, 8):
        source = [h for g in graphs_by_order[n] for h in (g, complement(g))]
        for key, check in checks.items():
            expected = _per_graph_tally(source, check)
            for jobs in (1, 2) if n == 7 else (1,):
                result = scan(n, "all", check, source=source, jobs=jobs)
                assert (result.counts, result.equality, result.violations) == expected, (n, key, jobs)


def test_scan_tests_connectivity_and_complements_once_per_graph(monkeypatch, enum8):
    """A scan at n = 8 tests a hypothesis its filter is only in the filter
    (the row assumes it), and complements a graph at most once: only the
    graphs whose one-spectrum interval leaves the row undecided, for both
    their screen and their sum, 67 of 11,117 for problem-1.2 under
    ``connected`` and 38 of 1,229 for thm-1.4 under ``cobar-disconnected``,
    whose filter walks each graph's complemented rows and builds no
    complement.  Thm 1.4's row also requires a connected graph, which it
    tests once for each of the 1,229 graphs the filter passes, its one
    escalated graph included.  Every connectivity test is one walk of
    ``graph._connected``."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for fn in (graph._connected, graph.complement):
        wrapper = counted(fn.__name__, fn)
        for module in (graph, spectra, theorems, enumeration):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, wrapper)
    for name, check, scanned, expected in (
        ("connected", theorems.check_problem12, 11_117, {"_connected": 12_346, "complement": 67}),
        ("cobar-disconnected", theorems.check_thm14, 1_229, {"_connected": 13_575, "complement": 38}),
    ):
        calls.clear()
        result = scan(8, name, check)
        assert (result.total, len(enum8[0])) == (scanned, 12_346)
        assert calls == expected, name


def test_scan_drops_its_last_chunk(monkeypatch):
    """After a scan, and after a scan that raised, a spectrum of a graph of the
    last chunk is screened alone, not with the stale chunk.  The kept chunks of one are
    cleared first, or a kept chunk of the graph alone would hide a stale one."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    last = enumerate_graphs(7)[-1]
    scan(7, "all", theorems.check_lemma26)

    def failing(g):
        if g == last:
            raise RuntimeError("check failed")
        return theorems.check_lemma26(g)

    for done in ("returned", "raised"):
        spectra.lone_chunk.cache_clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        spectra.spectrum(last, "A")
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert shapes == [(1, 7, 7)], done
        del shapes[:]
        with pytest.raises(RuntimeError, match="check failed"):
            scan(7, "all", failing)
