"""Graph construction, operators, structure predicates and the graph6 codec."""

from __future__ import annotations

import pickle
import random
import re
from dataclasses import replace
from functools import lru_cache
from itertools import product

import networkx as nx
import numpy as np
import pytest

from qng.graph import (
    BlowUp,
    CapacityError,
    Graph,
    Graph6Error,
    bits,
    complement,
    complete,
    complete_bipartite,
    component_colorings,
    cycle,
    cartesian_product,
    decode_graph6,
    disjoint_union,
    double_hub,
    empty_graph,
    from_edges,
    from_graph6,
    h_graph,
    is_bipartite,
    is_connected,
    is_regular,
    is_semiregular_bipartite,
    join,
    path,
    star,
    to_graph6,
)
from qng import enumeration
from qng.polys import MPoly
from qng.enumeration import _relabeled as relabel, canonical_form
from conftest import random_graph, twin_classes


def canon(g):
    return canonical_form(g)


def test_graph_validation():
    for n, rows, message in [(2, (2, 0), r"adjacency not symmetric at \(0, 1\)"),
                             (2, (4, 0), r"row 0 has bits outside 0\.\.1"),
                             (2, (2, 1, 0), "row count does not match vertex count"),
                             (1, (1,), "vertex 0 has a self-loop")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(n, rows)
    with pytest.raises(CapacityError, match=r"^vertex count 33 outside 1\.\.32$"):
        empty_graph(33)


def test_builder_validation():
    """Each builder and operator names what is wrong with its arguments."""
    for build, message in [(lambda: path(3).with_edge(1, 1), "no self-loops"),
                           (lambda: from_edges(3, [(0, 1), (2, 2)]), "no self-loops"),
                           (lambda: cycle(2), "cycles need at least 3 vertices"),
                           (lambda: complete_bipartite(0, 3), "parts must be nonempty")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()
    for build, message in [(lambda: disjoint_union(complete(20), complete(13)), "union would have 33 > 32 vertices"),
                           (lambda: join(complete(20), empty_graph(13)), "join would have 33 > 32 vertices"),
                           (lambda: cartesian_product(complete(6), path(6)), "product would have 36 > 32 vertices"),
                           (lambda: complete_bipartite(20, 13), "K_{20,13} exceeds 32 vertices")]:
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            build()


def test_vertex_arguments_are_range_checked():
    """A vertex outside 0..n-1 is an error: Python's negative index would
    otherwise read vertex n - 1, and a large one fail as an IndexError or a
    negative shift."""
    g = path(4)
    for call in [lambda: g.has_edge(-1, 2), lambda: g.has_edge(0, 4), lambda: g.with_edge(0, 9),
                 lambda: g.with_edge(-1, 0), lambda: g.without_edge(2, -3), lambda: g.without_edge(7, 1),
                 lambda: from_edges(4, [(0, 5)]), lambda: from_edges(4, [(0, 1), (-1, 2)])]:
        with pytest.raises(ValueError, match=r"^vertex -?\d+ outside 0\.\.3$"):
            call()
    assert g.has_edge(2, 3) and not g.has_edge(0, 3)
    assert g.with_edge(0, 3) == cycle(4) and cycle(4).without_edge(3, 0) == g


@pytest.mark.parametrize("method", ["degree", "neighbors"])
@pytest.mark.parametrize("v", [-1, 4])
def test_vertex_queries_are_range_checked(method, v):
    """``degree`` and ``neighbors`` take a vertex of the graph: -1 does not read vertex
    n - 1, and n is a ValueError like the edge methods', not a bare IndexError."""
    with pytest.raises(ValueError, match=rf"^vertex {v} outside 0\.\.3$"):
        getattr(path(4), method)(v)
    assert path(4).degree(3) == 1 and path(4).neighbors(3) == (2,)


def test_graph_is_immutable_and_hashable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert len({g, path(3), cycle(3)}) == 2


def test_complement_examples():
    assert complement(complete(4)) == empty_graph(4)
    assert canon(complement(path(4))) == canon(path(4))  # self-complementary
    assert canon(complement(star(6))) == canon(disjoint_union(complete(5), empty_graph(1)))


def test_join_and_union_examples():
    g = join(empty_graph(2), complete(4))
    assert g.degree_sequence() == (5, 5, 5, 5, 4, 4)
    assert g.m == complete(4).m + 2 * 4
    u = disjoint_union(complete(2), empty_graph(4))
    assert (u.n, u.m) == (6, 1)


def test_cartesian_product_prism():
    prism = cartesian_product(complete(3), complete(2))
    assert prism.n == 6 and is_regular(prism) and prism.degree(0) == 3
    # hand-checked adjacency: (a,x)~(b,x) for a~b, and (a,x)~(a,y)
    expected = from_edges(6, [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5),
                              (0, 1), (2, 3), (4, 5)])
    assert canon(prism) == canon(expected)
    # its complement is the 6-cycle
    assert canon(complement(prism)) == canon(cycle(6))


def test_family_constructors():
    assert canon(cycle(4)) == canon(complete_bipartite(2, 2))


def test_h_graph_structure():
    g = h_graph(1, 1, 1)
    # order S0={0}, S1={1}, S2={2}, u=3, v=4
    assert g.n == 5 and g.m == 4
    assert g.neighbors(3) == (0, 1) and g.neighbors(4) == (0, 2)
    assert not g.has_edge(3, 4)
    assert is_bipartite(g) and is_connected(g)

    g = h_graph(2, 1, 1)
    assert g.n == 6 and g.m == 2 * 2 + 1 + 1

    g = h_graph(3, 0, 1)  # d(u) = n-3, d(v) = n-2 at n = 6
    assert g.degree(4) == 3 and g.degree(5) == 4
    assert double_hub(3, 0, 1).cells() == ((0, 1, 2), (3,), (4,), (5,))
    assert to_graph6(g) == "E?zo"
    with pytest.raises(CapacityError, match="order 33 exceeds 32"):
        h_graph(29, 1, 1)
    with pytest.raises(ValueError, match="positive total"):
        h_graph(0, 0, 0)


@pytest.mark.parametrize("k", [8, 20, 33])
def test_blow_up_quotient_over_polynomial_sizes(k):
    """``BlowUp.quotient`` over cell sizes that are polynomials in n, evaluated at n = k, is
    the ``int`` quotient at order k of each double hub and complement of Theorem 1.5's proof."""
    n, = MPoly.variables("n")
    hub2, hub5 = double_hub(k - 4, 1, 1), double_hub(k - 3, 0, 1)
    cases = [(double_hub(k - 5, 1, 2), (n - 5, 1, 2, 1, 1)), (hub2, (n - 4, 1, 1, 1, 1)),
             (hub2.complement(), (n - 4, 1, 1, 1, 1)), (double_hub(k - 4, 0, 2), (n - 4, 2, 1, 1)),
             (hub5, (n - 3, 1, 1, 1)), (hub5.complement(), (n - 3, 1, 1, 1))]
    for b, sizes in cases:
        got = replace(b, sizes=sizes).quotient()
        assert any(isinstance(entry, MPoly) for row in got for entry in row)
        assert tuple(tuple(e if isinstance(e, int) else e.at(k) for e in row) for row in got) == b.quotient(), b


def test_blow_up_of_polynomial_sizes_has_no_vertices():
    """A size that is not an ``int`` is not range-checked, and ``cells()`` and ``graph()`` raise
    ``ValueError`` on it, not a ``TypeError`` from inside ``range``; ``int`` sizes keep their checks."""
    n, = MPoly.variables("n")
    b = double_hub(n - 4, 0, 2)
    assert b.sizes[0] == n - 4 and b.sizes[1:] == (2, 1, 1) and b.joins == double_hub(4, 0, 2).joins
    for method in (b.cells, b.graph, b.complement().cells, b.complement().graph):
        with pytest.raises(ValueError, match="not an int"):
            method()
    with pytest.raises(ValueError, match="positive cell sizes"):
        BlowUp((n, 0), (True, False))
    with pytest.raises(ValueError, match="nonnegative"):
        double_hub(n, -1, 2)
    assert double_hub(n, 0, 0).sizes == (n, 1, 1)


def test_a_symbolic_blow_up_keys_a_cache():
    """A ``BlowUp`` with ``MPoly`` sizes hashes as equality says, an ``MPoly`` constant as its
    ``int``: an ``lru_cache`` keyed by ``double_hub(n - 4, 1, 1)`` hits on an equal blow-up
    built another way, and misses on a different one."""
    n, = MPoly.variables("n")
    built = []

    @lru_cache(maxsize=None)
    def quotient(b):
        built.append(b)
        return b.quotient()

    b = double_hub(n - 4, 1, 1)
    same = BlowUp(((n - 2) - 2, n - n + 1, 1, 1, 1), (False,) * 5, b.joins)
    assert same == b and hash(same) == hash(b) and len({b, same, double_hub(n - 4, 1, 1)}) == 1
    assert quotient(b) == quotient(same) == quotient(double_hub(n - 4, 1, 1))
    assert built == [b] and quotient.cache_info().hits == 2
    quotient(double_hub(n - 5, 1, 1))
    quotient(b.complement())
    assert len(built) == 3 and quotient.cache_info().misses == 3


def test_graph6_hand_encodings():
    assert from_graph6("C~") == complete(4)
    assert to_graph6(cycle(5)) == "Dhc"
    assert from_graph6(">>graph6<<Dhc") == cycle(5)


def test_graph6_roundtrip_against_reference(rng=random.Random(7)):
    for _ in range(200):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        enc = to_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        assert enc == nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert from_graph6(enc) == g


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("C")  # truncated payload
    with pytest.raises(Graph6Error):
        from_graph6("C~~")  # trailing garbage
    with pytest.raises(Graph6Error):
        from_graph6("C\x1f")  # character below range
    with pytest.raises(CapacityError):
        from_graph6(chr(40 + 63) + "?" * 130)  # n = 40 beyond the 32 cap


def test_unchecked_constructions_match_validated_graph(rng=random.Random(41)):
    """complement, the graph6 decoder and unpickling build without validation.

    Each must give the rows, edge count, hash and equality of the validating
    constructor ``Graph(n, rows)``.
    """
    for n in range(1, 33):
        for _ in range(6):
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            full = (1 << n) - 1
            cases = [
                (complement(g), [full & ~row & ~(1 << v) for v, row in enumerate(g.rows)]),
                (from_graph6(to_graph6(g)), list(g.rows)),
                (pickle.loads(pickle.dumps(g)), list(g.rows)),
            ]
            for built, rows in cases:
                ref = Graph(n, rows)
                assert type(built.rows) is tuple
                assert (built.n, built.rows, built.m, hash(built)) == (ref.n, ref.rows, ref.m, hash(ref))
                assert built == ref and ref == built
    with pytest.raises(Graph6Error, match="padding"):
        from_graph6("B" + chr(63 + 0b111001))  # K3 plus a set padding bit


def test_components_and_bipartite_examples():
    g = disjoint_union(complete(2), empty_graph(4))
    assert not is_connected(g) and is_bipartite(g)
    colorings = component_colorings(g.rows)
    assert None not in colorings and len(colorings) == 5
    assert [(a.bit_count(), b.bit_count()) for a, b in colorings].count((1, 1)) == 1  # the K_2 is balanced

    assert component_colorings(complete_bipartite(3, 3).rows) == [(0b000111, 0b111000)]
    assert is_connected(complete_bipartite(3, 3)) and is_bipartite(complete_bipartite(3, 3))

    g = disjoint_union(complete(5), empty_graph(1))
    assert component_colorings(g.rows) == [None, (1 << 5, 0)]  # just the isolated vertex, unbalanced
    assert not is_connected(g) and not is_bipartite(g)

    assert component_colorings(complete(3).rows) == [None] and not is_bipartite(complete(3))
    assert is_connected(empty_graph(1)) and not is_connected(empty_graph(2))


def test_component_colorings_are_proper(graphs_by_order):
    """The classes of the 2-colored components partition the vertices, and no
    edge joins two vertices of one class."""
    for n in range(1, 7):
        for g in graphs_by_order[n]:
            colorings = component_colorings(g.rows)
            if None in colorings:
                continue
            classes = [cls for coloring in colorings for cls in coloring]
            assert sum(classes) == (1 << n) - 1 and sum(c.bit_count() for c in classes) == n
            for cls in classes:
                assert not any(g.rows[u] & cls for u in bits(cls))


def _networkx(g):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    return nxg


def _pairwise_twin_classes(nxg, closed):
    """Classes of two or more vertices with equal open (or closed) neighborhoods,
    each vertex compared with every other one."""
    def hood(v):
        return set(nxg[v]) | ({v} if closed else set())

    classes = {tuple(u for u in nxg if hood(u) == hood(v)) for v in nxg}
    return sorted(c for c in classes if len(c) > 1)


def test_twin_classes_match_pairwise_comparison(graphs_and_complements):
    """The twin kernel of ``qng``, ``enumeration._twins``, and the tests' reference
    ``twin_classes`` against networkx neighborhoods compared pair by pair: u and v are
    twins iff they share an open or a closed neighborhood, u = v included."""
    for g in graphs_and_complements:
        nxg = _networkx(g)
        open_classes, closed_classes = twin_classes(g.rows)
        assert [tuple(c) for c in open_classes] == _pairwise_twin_classes(nxg, closed=False)
        assert [tuple(c) for c in closed_classes] == _pairwise_twin_classes(nxg, closed=True)
        hoods = [(set(nxg[v]), set(nxg[v]) | {v}) for v in range(g.n)]
        pairwise = [[a[0] == b[0] or a[1] == b[1] for b in hoods] for a in hoods]
        assert enumeration._twins(np.array([g.rows], dtype=np.int64))[0].tolist() == pairwise


def test_component_colorings_match_networkx(graphs_and_complements):
    for g in graphs_and_complements:
        nxg = _networkx(g)
        comps = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
        colorings = component_colorings(g.rows)
        assert len(colorings) == len(comps)
        balanced = False
        for comp, coloring in zip(comps, colorings):
            sub = nxg.subgraph(comp)
            assert (coloring is not None) == nx.is_bipartite(sub)
            if coloring is None:
                continue
            # a connected bipartite graph has one 2-coloring up to the swap
            color = nx.bipartite.color(sub)
            first = {v for v in comp if color[v] == color[comp[0]]}
            assert coloring == (sum(1 << v for v in first), sum(1 << v for v in set(comp) - first))
            balanced |= 2 * len(first) == len(comp)
        bipartite = [c for c in colorings if c is not None]
        assert len(bipartite) == sum(nx.is_bipartite(nxg.subgraph(c)) for c in comps)
        assert any(a.bit_count() == b.bit_count() for a, b in bipartite) == balanced
        assert is_bipartite(g) == nx.is_bipartite(nxg)
        assert is_connected(g) == nx.is_connected(nxg) == (len(comps) == 1)


def _semiregular_reference(g):
    """Constant degree on each side of some proper 2-coloring, every coloring tried:
    networkx's coloring of each component, each one flipped or not."""
    nxg = _networkx(g)
    if not nx.is_bipartite(nxg):
        return False
    colors = [nx.bipartite.color(nxg.subgraph(comp)) for comp in nx.connected_components(nxg)]
    for flips in product((0, 1), repeat=len(colors)):
        sides = (set(), set())
        for flip, color in zip(flips, colors):
            for v, side in color.items():
                sides[side ^ flip].add(g.degree(v))
        if all(len(degrees) <= 1 for degrees in sides):
            return True
    return False


def test_semiregular_bipartite(graphs_by_order, rng=random.Random(27)):
    """The verdict is the definition's on every class of order <= 7 and does
    not depend on the labelling: two copies of star(3) are semiregular
    bipartite whichever of their vertices comes first."""
    assert is_semiregular_bipartite(complete_bipartite(2, 5))
    assert is_semiregular_bipartite(cycle(4))
    assert not is_semiregular_bipartite(path(4))
    assert not is_semiregular_bipartite(complete(3))
    assert is_semiregular_bipartite(disjoint_union(star(3), star(3)))
    assert is_semiregular_bipartite(from_edges(6, [(0, 1), (0, 2), (3, 5), (4, 5)]))
    assert not is_semiregular_bipartite(disjoint_union(star(3), complete(2)))
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            order = list(range(n))
            rng.shuffle(order)
            expected = _semiregular_reference(g)
            assert is_semiregular_bipartite(g) == is_semiregular_bipartite(relabel(g, order)) == expected, to_graph6(g)


def test_complement_involution_and_edge_conservation(graphs_by_order, enum8):
    graphs8, _ = enum8
    for n, graphs in list(graphs_by_order.items()) + [(8, graphs8)]:
        for g in graphs:
            assert complement(complement(g)) == g
            assert g.m + complement(g).m == n * (n - 1) // 2


def test_degree_duality(graphs_by_order):
    for n in range(2, 8):
        for g in graphs_by_order[n]:
            ds = g.degree_sequence()
            dc = complement(g).degree_sequence()
            assert all(ds[i] == n - 1 - dc[n - 1 - i] for i in range(n))


def test_relabel_roundtrip(rng=random.Random(3)):
    for _ in range(50):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.degree_sequence() == g.degree_sequence()
        inverse = [0] * n
        for i, v in enumerate(perm):
            inverse[v] = i
        assert relabel(h, inverse) == g


def test_join_size_identity(rng=random.Random(11)):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        j = join(g, h)
        assert j.m == g.m + h.m + g.n * h.n


def _reference_rows(text):
    """Rows of a graph6 line by the definition: six bits per character, the
    upper triangle column by column, no numpy."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    n = ord(s[0]) - 63
    payload = [(ord(c) - 63) >> k & 1 for c in s[1:] for k in range(5, -1, -1)]
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if payload[i]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return n, rows


def test_batched_decoder_equals_from_graph6(graphs_by_order, enum8, rng=random.Random(29)):
    """One batch per source against ``from_graph6`` line by line and a plain decoder."""
    relabelled = []
    for g in [g for n in range(1, 8) for g in graphs_by_order[n]] + enum8[0]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled.append(to_graph6(relabel(g, perm)))
    with open("tests/data/stream9.g6") as f:
        stream9 = list(f)
    wide = [to_graph6(random_graph(rng, n, rng.uniform(0.2, 0.9))) for n in range(10, 33) for _ in range(8)]
    wide.append(to_graph6(complete(32)))  # rows fill 32 bits
    framed = [f"{pad}{'>>graph6<<' * header}{pad2}{line}{pad}"
              for line in ("@", "A_", "C~", "Dhc", stream9[0].strip())
              for header in (0, 1) for pad, pad2 in (("", ""), (" ", ""), ("\t", " "), ("", "\n"))]
    for lines in (relabelled, stream9, wide, framed, relabelled[::97] + wide[::5] + framed):
        batch = decode_graph6(lines)
        assert len(batch) == len(lines)
        for line, g in zip(lines, batch):
            assert g == from_graph6(line)
            assert (g.n, list(g.rows)) == _reference_rows(line)
            assert g.m == sum(r.bit_count() for r in g.rows) // 2
    assert max(max(g.rows) for g in decode_graph6(wide)) == (1 << 32) - 2  # row 0 of K32


@pytest.mark.parametrize("bad, error", [
    ("H~~", "expected 6 payload characters for n=9, got 2"),
    ("G????@", "nonzero padding bits"),
    ("H????!?", "character out of graph6 range in 'H????!?'"),
    ("   ", "empty graph6 string"),
    ("~??", "long-form vertex counts (>62) are not supported"),
    (chr(40 + 63) + "?" * 130, "graph6 order 40 outside 1..32"),
])
def test_batched_decoder_reports_the_first_bad_line(bad, error):
    good = [to_graph6(cycle(9)), to_graph6(path(8))]
    later = ["G~~~~~~~~", "B" + chr(63 + 0b111001), "C\x7f"]
    decoders = [lambda: from_graph6(bad)]
    decoders += [lambda lines=lines: decode_graph6(lines)
                 for lines in ([bad], good + [bad] + later, good + [bad] + later[::-1])]
    for decode in decoders:
        with pytest.raises(ValueError) as info:
            decode()
        assert str(info.value) == error


def test_hash_is_set_on_every_construction_path(rng=random.Random(32)):
    """The hash kept in its slot is the hash of (n, rows), however the graph was made."""
    from qng.graph import _graph_unchecked

    for n in range(1, 33):
        g = Graph(n, from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]).rows)
        made = [g, _graph_unchecked(n, g.rows), complement(g), from_graph6(to_graph6(g)),
                decode_graph6([to_graph6(g), to_graph6(complement(g))])[1], pickle.loads(pickle.dumps(g))]
        for h in made:
            assert hash(h) == hash((h.n, h.rows)), n
        assert hash(made[1]) == hash(made[3]) == hash(made[5]) == hash(g)
