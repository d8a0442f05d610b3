"""Vertex partitions and the integer quotient of the signless Laplacian.

A partition X_1, ..., X_k of V(G) is equitable when every vertex of X_i has the
same Q(G)-row sum b_ij into X_j, for all i and j.  The quotient (b_ij) is then an
integer matrix, and its eigenvalues are Q-eigenvalues of G.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import Graph


def validate_partition(g: Graph, blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The blocks as tuples, if they are nonempty and split 0..n-1, else ValueError."""
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


def equitable_quotient(g: Graph, blocks: Sequence[Sequence[int]]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The quotient of Q(G) over an equitable partition: entry (i, j) is the Q-row sum
    of each vertex of X_i over the columns in X_j.  None if the partition is not
    equitable, found at the first vertex whose sums differ from its block's first."""
    norm = validate_partition(g, blocks)
    masks = [sum(1 << v for v in block) for block in norm]

    def row_sums(u: int) -> tuple[int, ...]:
        row = g.rows[u]
        return tuple((row & mask).bit_count() + (row.bit_count() if mask >> u & 1 else 0) for mask in masks)

    quotient = tuple(row_sums(block[0]) for block in norm)
    if any(row_sums(u) != sums for block, sums in zip(norm, quotient) for u in block[1:]):
        return None
    return quotient
