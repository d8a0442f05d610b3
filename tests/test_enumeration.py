"""Canonical forms, exhaustive generation, scan drivers."""

from __future__ import annotations

import hashlib
import random
import sys
import time

import numpy as np
import pytest

from qng import enumeration, spectra
from qng.cli import build_predicate
from qng.enumeration import (
    CanonicalForm,
    _augment,
    _orbit_representatives,
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
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    from_edges,
    is_connected,
    path,
    relabel,
    star,
    to_graph6,
)
from qng.theorems import check_ng_generic, check_thm12


def random_graph(rng, n, p=0.5):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


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
        assert canonical_form(g).graph6 == want
    assert time.perf_counter() - start < 2


def test_canonical_form_vertex_transitive_is_fast():
    for g in (complete(10), empty_graph(10)):
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
    with pytest.raises(CapacityError):
        canonical_form(empty_graph(11))


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


def test_enumeration_counts(graphs_by_order):
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, want in expected.items():
        assert len(graphs_by_order[n]) == want


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


def test_enumeration_count_n8(enum8):
    graphs, _ = enum8
    assert len(graphs) == 12346


def test_generation_canonicalizes_one_subset_per_orbit(graphs_by_order):
    """Orbit counts meet Burnside's count only if the found automorphisms generate Aut."""
    rooted = {1: 2, 2: 6, 3: 20, 4: 90, 5: 544, 6: 5096}  # OEIS A000666
    for m, want in rooted.items():
        got = sum(len(_orbit_representatives(m, _search(g)[1])) for g in graphs_by_order[m])
        assert got == want


def test_augmentation_accepts_each_class_once():
    """Accepted children, before sorting, are distinct and one per class (OEIS A000088)."""
    counts = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    rooted = {2: 6, 3: 20, 4: 90, 5: 544, 6: 5096}  # OEIS A000666
    level = [(empty_graph(1), [])]
    for n, want in counts.items():
        level = list(_augment(level, n))
        rows = [g.rows for g, _ in level]
        assert len(set(rows)) == len(rows) == want
        if n in rooted:
            # The generators passed on, in the child's labels, generate its
            # automorphism group, and the child is its own canonical form.
            assert sum(len(_orbit_representatives(n, gens)) for _, gens in level) == rooted[n]
            for g, gens in level:
                assert canonicalize(g) == g
                for gamma in gens:
                    assert sorted(gamma) == list(range(n))
                    assert all(g.has_edge(gamma[u], gamma[v]) for u, v in g.edges())


def test_generation_search_count(monkeypatch):
    """Full searches in a cold enumerate_graphs(7): K1 plus the 1,253 children
    of orders 2..7 that pass the degree and root-cell filters."""
    calls = []
    search = enumeration._search

    def counting(g, root=None):
        calls.append(g.n)
        return search(g, root)

    monkeypatch.setattr(enumeration, "_search", counting)
    monkeypatch.setattr(enumeration, "_ALL_GRAPHS", {})
    assert len(enumerate_graphs(7)) == 1044
    assert len(calls) == 1254
    assert calls.count(1) == 1


def test_enumeration_n8_golden_digest(enum8):
    graphs, _ = enum8
    text = "\n".join(to_graph6(g) for g in graphs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "aff8dddabbc3d74f79ef9335e2a515a5455d4958c41e7b3ac4efc7a2d2299dba"


def test_connected_count():
    assert sum(map(is_connected, enumerate_graphs(6))) == 112
    assert sum(map(is_connected, enumerate_graphs(4))) == 6


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
    with more workers than cores and a short switch interval the result must
    still equal the in-process scan, and a wrong-order graph in a late chunk
    must still raise.
    """
    graphs = enumerate_graphs(7)
    assert len(graphs) > 2 * enumeration.SCAN_CHUNK and len(graphs) % enumeration.SCAN_CHUNK
    expected = scan(7, "all", check_thm12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert scan(7, "all", check_thm12, jobs=4) == expected
        with pytest.raises(ValueError, match="order 6 in a scan for n=7"):
            scan(7, "all", check_thm12, source=graphs + enumerate_graphs(6)[:1], jobs=2)
    finally:
        sys.setswitchinterval(interval)


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


@pytest.mark.parametrize("check", [_ng_a2, _ng_l1])
def test_scan_screens_each_chunk_once_for_the_kind_it_reads(check, monkeypatch):
    """A check without a ``kind`` attribute still gets one eigvalsh call per chunk.

    The chunk's graphs and their complements are screened for A (or L) in one
    batched call at the first miss, not one call per graph.
    """
    graphs = enumerate_graphs(7)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    assert not hasattr(check, "kind")
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    spectra.spectrum.cache_clear()
    assert scan(7, "all", check).total == len(graphs) == 1044
    chunks = -(-len(graphs) // enumeration.SCAN_CHUNK)
    assert len(calls) == chunks == 5
    assert all(shape[0] > enumeration.SCAN_CHUNK for shape in calls[:-1])
    # a second scan of the same graphs reads every spectrum from the cache
    scan(7, "all", check)
    assert len(calls) == chunks


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
    assert isinstance(CanonicalForm("C~").graph6, str)


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
