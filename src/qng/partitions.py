"""Vertex partitions and quotient matrices of the signless Laplacian.

Quotient entries are exact rationals so that root-placement arguments (for
example sign evaluations of quotient characteristic polynomials) never pass
through floats.  Interlacing of float spectra is provided for screening, and
eigenvalue containment for equitable partitions is verified by exact
polynomial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

from . import polys
from .graph import Graph
from .spectra import Spectrum, char_poly_exact, eigenvalues_sym, q_char_poly, q_spectrum

VertexPartition = tuple[tuple[int, ...], ...]


def validate_partition(g: Graph, blocks: Sequence[Sequence[int]]) -> VertexPartition:
    norm = tuple(tuple(b) for b in blocks)
    seen = 0
    for block in norm:
        if not block:
            raise ValueError("empty block")
        for v in block:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if seen >> v & 1:
                raise ValueError(f"vertex {v} in two blocks")
            seen |= 1 << v
    if seen != (1 << g.n) - 1:
        raise ValueError("blocks do not cover the vertex set")
    return norm


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged matrix of Q(G) under a vertex partition."""

    entries: tuple[tuple[Fraction, ...], ...]
    block_sizes: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def char_poly(self) -> tuple[int, ...]:
        return char_poly_exact(self.entries)

    def spectrum(self) -> Spectrum:
        """Float eigenvalues via the similar symmetric matrix D^{1/2} B D^{-1/2}."""
        m = self.order
        sizes = self.block_sizes
        sym = [[0.0] * m for _ in range(m)]
        for i in range(m):
            sym[i][i] = float(self.entries[i][i])
            for j in range(i + 1, m):
                val = float(self.entries[i][j]) * sqrt(sizes[i] / sizes[j])
                sym[i][j] = sym[j][i] = val
        return eigenvalues_sym(sym)


def _q_row_sum_into(g: Graph, u: int, mask: int, diagonal: bool) -> int:
    total = (g.rows[u] & mask).bit_count()
    if diagonal:
        total += g.degree(u)
    return total


def quotient_matrix(g: Graph, blocks: Sequence[Sequence[int]]) -> QuotientMatrix:
    """Exact quotient of Q(G): entry (i, j) averages block rows of X_i into X_j."""
    norm = validate_partition(g, blocks)
    masks = [sum(1 << v for v in block) for block in norm]
    m = len(norm)
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            total = sum(
                _q_row_sum_into(g, u, masks[j], i == j and (masks[j] >> u & 1) > 0)
                for u in norm[i]
            )
            row.append(Fraction(total, len(norm[i])))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), tuple(len(b) for b in norm))


def is_equitable(g: Graph, blocks: Sequence[Sequence[int]]) -> bool:
    """True when every vertex of X_i has the same Q-row sum into X_j, all i, j."""
    norm = validate_partition(g, blocks)
    masks = [sum(1 << v for v in block) for block in norm]
    for i, block in enumerate(norm):
        for j, mask in enumerate(masks):
            sums = {_q_row_sum_into(g, u, mask, i == j) for u in block}
            if len(sums) > 1:
                return False
    return True


def interlaces(small, big, tol: float = 1e-9) -> bool:
    """Whether the smaller descending spectrum interlaces the bigger one.

    Checks a_i >= b_i >= a_{n-m+i} for i = 1..m within the float tolerance.
    """
    svals = small.values if isinstance(small, Spectrum) else tuple(small)
    bvals = big.values if isinstance(big, Spectrum) else tuple(big)
    m, n = len(svals), len(bvals)
    if m > n:
        raise ValueError("small spectrum longer than big one")
    for i in range(m):
        if not (bvals[i] >= svals[i] - tol and svals[i] >= bvals[n - m + i] - tol):
            return False
    return True


def verify_quotient_eigen_containment(g: Graph, blocks: Sequence[Sequence[int]]) -> bool:
    """Exact check that all quotient eigenvalues are Q-eigenvalues.

    Only valid for equitable partitions, where the quotient characteristic
    polynomial must divide the full one; verified by exact division.
    """
    if not is_equitable(g, blocks):
        raise ValueError("partition is not equitable")
    quot = quotient_matrix(g, blocks)
    return not polys.poly_rem(q_char_poly(g), quot.char_poly())


@dataclass(frozen=True)
class DuplicateClass:
    """Maximal clique/independent set whose members share outside neighborhoods."""

    vertices: tuple[int, ...]
    kind: str  # "clique" or "independent"
    degree: int


def duplicate_classes(g: Graph) -> list[DuplicateClass]:
    """Maximal duplicate-vertex classes, each tagged clique or independent.

    Two non-adjacent vertices are duplicates when their neighborhoods are
    equal; two adjacent ones when their closed neighborhoods are equal.  A
    vertex can belong to at most one class of one kind, so grouping by the
    (closed) neighborhood bitmask yields exactly the maximal classes.
    """
    open_groups: dict[int, list[int]] = {}
    closed_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        open_groups.setdefault(g.rows[v], []).append(v)
        closed_groups.setdefault(g.rows[v] | (1 << v), []).append(v)
    out = []
    for key, members in open_groups.items():
        if len(members) >= 2:
            out.append(DuplicateClass(tuple(members), "independent", key.bit_count()))
    for key, members in closed_groups.items():
        if len(members) >= 2:
            out.append(DuplicateClass(tuple(members), "clique", key.bit_count() - 1))
    out.sort(key=lambda c: c.vertices)
    return out


def edge_deletion_chain_holds(g: Graph, edge: tuple[int, int], tol: float = 1e-9) -> bool:
    """Interleaved eigenvalue chain between Q(G) and Q(G - e).

    Verifies q_1(G) >= q_1(H) >= q_2(G) >= ... >= q_n(G) >= q_n(H) >= 0
    within the float tolerance, for H the graph with one edge removed.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError("not an edge")
    gv = q_spectrum(g).values
    hv = q_spectrum(g.without_edge(u, v)).values
    merged = [x for pair in zip(gv, hv) for x in pair]
    descending = all(a >= b - tol for a, b in zip(merged, merged[1:]))
    return descending and merged[-1] >= -tol
