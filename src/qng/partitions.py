"""Vertex partitions and quotient matrices of the signless Laplacian.

Quotient entries are exact rationals so that root-placement arguments (for
example sign evaluations of quotient characteristic polynomials) never pass
through floats.  One table of per-vertex Q-row sums into each block feeds
both the quotient matrix and the equitability test.  Interlacing of float
spectra is provided for screening, and eigenvalue containment for equitable
partitions is verified by exact polynomial division.  Duplicate-vertex
classes are the twin classes of ``graph.twin_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

from . import polys
from .graph import Graph, twin_classes
from .spectra import Spectrum, char_poly_exact, eigenvalues_sym, kind_char_poly, spectrum

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


def _block_sums(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[VertexPartition, list[list[list[int]]]]:
    """The validated partition and its table of Q-row sums: ``sums[i][k][j]`` is
    the sum of the Q(G) row of the k-th vertex of X_i over the columns in X_j."""
    norm = validate_partition(g, blocks)
    masks = [sum(1 << v for v in block) for block in norm]

    def row_sums(u: int) -> list[int]:
        row = g.rows[u]
        return [(row & mask).bit_count() + (row.bit_count() if mask >> u & 1 else 0) for mask in masks]

    return norm, [[row_sums(u) for u in block] for block in norm]


def quotient_matrix(g: Graph, blocks: Sequence[Sequence[int]]) -> QuotientMatrix:
    """Exact quotient of Q(G): entry (i, j) averages block rows of X_i into X_j."""
    norm, sums = _block_sums(g, blocks)
    entries = tuple(
        tuple(Fraction(sum(column), len(block)) for column in zip(*rows))
        for block, rows in zip(norm, sums)
    )
    return QuotientMatrix(entries, tuple(len(b) for b in norm))


def is_equitable(g: Graph, blocks: Sequence[Sequence[int]]) -> bool:
    """True when every vertex of X_i has the same Q-row sum into X_j, all i, j."""
    _, sums = _block_sums(g, blocks)
    return all(len(set(column)) == 1 for rows in sums for column in zip(*rows))


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
    return not polys.poly_rem(kind_char_poly(g, "Q"), quot.char_poly())


@dataclass(frozen=True)
class DuplicateClass:
    """Maximal clique/independent set whose members share outside neighborhoods."""

    vertices: tuple[int, ...]
    kind: str  # "clique" or "independent"
    degree: int


def duplicate_classes(g: Graph) -> list[DuplicateClass]:
    """Maximal duplicate-vertex classes, each tagged clique or independent.

    Two non-adjacent vertices are duplicates when their neighborhoods are
    equal; two adjacent ones when their closed neighborhoods are equal.  These
    are the twin classes of ``graph.twin_classes``, open and closed.
    """
    independent, clique = twin_classes(g.rows)
    out = [DuplicateClass(tuple(members), kind, g.degree(members[0]))
           for kind, classes in (("independent", independent), ("clique", clique))
           for members in classes]
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
    gv = spectrum(g, "Q").values
    hv = spectrum(g.without_edge(u, v), "Q").values
    merged = [x for pair in zip(gv, hv) for x in pair]
    descending = all(a >= b - tol for a, b in zip(merged, merged[1:]))
    return descending and merged[-1] >= -tol
