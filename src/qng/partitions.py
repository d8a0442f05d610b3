"""Vertex partitions and quotient matrices of the signless Laplacian.

Quotient entries are exact rationals so that root-placement arguments (for
example sign evaluations of quotient characteristic polynomials) never pass
through floats.  One table of per-vertex Q-row sums into each block feeds
both the quotient matrix and the equitability test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .graph import Graph

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


def _block_sums(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[VertexPartition, list[list[list[int]]]]:
    """The validated partition and its table of Q-row sums: ``sums[i][k][j]`` is
    the sum of the Q(G) row of the k-th vertex of X_i over the columns in X_j."""
    norm = validate_partition(g, blocks)
    masks = [sum(1 << v for v in block) for block in norm]

    def row_sums(u: int) -> list[int]:
        row = g.rows[u]
        return [(row & mask).bit_count() + (row.bit_count() if mask >> u & 1 else 0) for mask in masks]

    return norm, [[row_sums(u) for u in block] for block in norm]


def quotient_matrix(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact quotient of Q(G): entry (i, j) averages block rows of X_i into X_j."""
    norm, sums = _block_sums(g, blocks)
    return tuple(
        tuple(Fraction(sum(column), len(block)) for column in zip(*rows))
        for block, rows in zip(norm, sums)
    )


def is_equitable(g: Graph, blocks: Sequence[Sequence[int]]) -> bool:
    """True when every vertex of X_i has the same Q-row sum into X_j, all i, j."""
    _, sums = _block_sums(g, blocks)
    return all(len(set(column)) == 1 for rows in sums for column in zip(*rows))
