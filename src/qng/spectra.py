"""Spectra of graph matrices: float screening plus exact certification.

Float eigenvalues come from LAPACK's dense symmetric solver through numpy and
are used only for screening.  One ``Chunk`` holds the graphs of one order
screened together: its members, each member's complement from its first read
(a check's or a screen's, never a filter's), and one screen per kind.  The
first read of a kind stacks the members' kind-matrices as one (B, n, n) array
and screens them in one eigvalsh call; the complements are screened only when
read, in one more.  A screen is stored whole, rows with their values, once its
calls return.  ``Chunk.sum_bounds`` reads an interval of each member's sum
lambda_k(G) + lambda_k(complement G) off the members' screen alone:
M(complement G) = cI + sJ - M(G), J rank one, so Weyl's inequalities place the
complement's eigenvalue between two of G's (for L, J commutes with L(G) and
the interval is a point).  ``Chunk.sums`` reads the sums of given members off
the screen of the members and their complements, screening the complements of
only those members; ``Chunk.spectrum`` reads one row, and its first read of a
complement's row screens every remaining complement in one call.  Only a scan
sets the current chunk (``in_chunk``), while its checks run, and ``spectrum``,
``ng_sum`` and the exact comparisons read a graph off the current chunk's
screens, any other graph off its kept chunk of one (``holding``): one path for
both.  ``chunk_of`` keeps the last 16 scan chunks and ``lone_chunk`` the last
16 chunks of one, complements and screens included, so a later read of the
same graphs reads them again; no float spectrum is cached by graph.
``_stacked`` builds A, D + A and D - A.
Whenever a quantity sits within ``polys.ESCALATION_WINDOW`` of a bound,
decisions are re-made exactly: integer characteristic polynomials via the
Faddeev-LeVerrier recurrence, root counting by Descartes' rule of signs,
and isolating-interval comparisons of algebraic eigenvalues.  Each isolating
window comes from one bisection of the Cauchy root bound whose first two
cuts sit around the screened float eigenvalue, exact root counts picking
the side at every cut; a float never decides a sign.

The exact layer works in integers.  ``char_poly_exact`` runs the recurrence
on the rows of any square integer matrix, modulo as many primes below 2^26
as Hadamard's bound on the coefficients asks for, in numpy ``int64``, and
rebuilds each coefficient by CRT; ``qng`` passes it only graph matrices
(``kind_char_poly``), as the proof checks build their quotients' char polys
over Z[n] with ``polys.char_poly``.  A characteristic polynomial
is its ascending ``int`` tuple, which every comparison hands to ``polys`` as
it is; from there on the arithmetic is Python ``int``.  ``compare_qk_with``
counts roots on the char poly itself; only root isolation builds a
``polys.root_counter``.  ``kind_char_poly`` caches the polynomials, which the
registered checks' scans of the same graphs read again.  ``Fraction`` and
``polys.Surd`` appear only in the bounds of the comparisons.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import polys
from .graph import Graph, complement


# ---------------------------------------------------------------------------
# Matrix builders


def _stacked(graphs: Sequence[Graph], kind: str) -> np.ndarray:
    """The kind-matrices of graphs of one order n, as one (B, n, n) int64 array.

    Kind A is the adjacency matrix, whose entry (v, u) is bit u of row v; Q is
    the signless Laplacian D + A and L the Laplacian D - A.
    """
    if kind not in ("A", "L", "Q"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graphs[0].n
    adj = (np.array([g.rows for g in graphs], dtype=np.int64)[:, :, None] >> np.arange(n)) & 1
    if kind == "A":
        return adj
    out = adj if kind == "Q" else -adj
    diag = np.arange(n)
    out[:, diag, diag] = adj.sum(axis=2)  # the diagonal of A is zero
    return out


def matrix_of_kind(g: Graph, kind: str) -> np.ndarray:
    return _stacked((g,), kind)[0]


def q_matrix(g: Graph) -> np.ndarray:
    """Signless Laplacian D + A."""
    return matrix_of_kind(g, "Q")


# ---------------------------------------------------------------------------
# Float spectra


def _check_index(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted in non-increasing order."""

    values: tuple[float, ...]

    def value(self, k: int) -> float:
        """The k-th largest eigenvalue, 1-based; ``ValueError`` for k outside 1..n."""
        _check_index(len(self.values), k)
        return self.values[k - 1]


class Chunk:
    """Graphs of one order ``n`` whose float spectra are screened together: a scan chunk, or one graph.

    ``members`` are the graphs, in order and without repeats.  ``complement``
    builds a member's complement at its first read and keeps it; the graphs
    of the chunk are the members and the complements built so far.  One
    screen is kept per kind: the kind spectra of the members, stacked in one
    eigvalsh call at the first read, then those of complements, in one more
    call per read that needs new ones.
    """

    def __init__(self, members: Iterable[Graph]):
        self._partner: dict[Graph, Optional[Graph]] = dict.fromkeys(members)
        self.members = tuple(self._partner)
        self.n = self.members[0].n if self.members else 0
        self._screens: dict[str, tuple[dict[Graph, int], np.ndarray]] = {}

    def complement(self, g: Graph) -> Graph:
        """The complement of g, a graph of the chunk, built once; a complement's is its member."""
        h = self._partner[g]
        if h is None:
            h = self._partner[g] = complement(g)
            self._partner[h] = g
        return h

    def _screen(self, kind: str, graphs: Sequence[Graph] = ()) -> tuple[dict[Graph, int], np.ndarray]:
        """The screen of ``kind`` with ``graphs`` on it, as (rows, values): ``rows`` maps each
        screened graph to its row of ``values``, eigenvalues descending.  Graphs not screened yet
        go in one eigvalsh call, after the members at the first read; the screen is stored when
        the calls return, so one that raises leaves it as it was."""
        kept = self._screens.get(kind)
        if kept and not graphs:
            return kept
        rows, values = kept or ({}, np.empty((0, self.n)))
        for batch in (graphs,) if kept else (self.members, graphs):
            new = [h for h in dict.fromkeys(batch) if h not in rows]
            if new:
                values = np.concatenate((values, np.linalg.eigvalsh(_stacked(new, kind))[:, ::-1]))
                rows = {**rows, **dict(zip(new, range(len(rows), len(values))))}
        self._screens[kind] = rows, values
        return rows, values

    def spectrum(self, g: Graph, kind: str) -> Spectrum:
        """The float spectrum of the kind-matrix of g, a graph of the chunk: its row of the
        screen.  The first read of a complement's row screens the complement of every member
        at once."""
        rows, values = self._screen(kind)
        if g not in rows:
            rows, values = self._screen(kind, [self.complement(h) for h in self.members])
        return Spectrum(tuple(values[rows[g]].tolist()))

    def column(self, graphs: Sequence[Graph], kind: str, k: int) -> np.ndarray:
        """The k-th largest eigenvalue of the kind-matrix of each of ``graphs``: graphs of the
        chunk that are screened already, as every member is."""
        _check_index(self.n, k)
        rows, values = self._screen(kind)
        try:
            return values[[rows[h] for h in graphs], k - 1]
        except KeyError as missing:
            raise ValueError(f"{missing.args[0]!r} is not screened in its chunk: the graphs must be "
                             "members of the current chunk (spectra.in_chunk)") from None

    def sum_bounds(self, graphs: Sequence[Graph], kind: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays lo, hi with lo <= ``ng_sum(g, kind, k)`` <= hi for members ``g``, read off the
        members' screen only: no complement is built or screened.

        The kind-matrix of the complement is M(complement G) = cI + sJ - M(G), J the
        all-ones matrix, with (c, s) = (-1, 1) for A and (n - 2, 1) for Q (the
        paper's Q(G) + Q(complement G) = Q(K_n)) and (n, -1) for L.  Let
        b_1 >= ... >= b_n be the eigenvalues of cI - M(G), b_i = c - mu_{n+1-i}.
        J is rank one and positive semidefinite with eigenvalue n, so by Weyl's
        inequalities b_k <= lambda_k(complement G) <= b_{k-1} for A and Q, with
        b_1 + n as the upper bound at k = 1.  For L, J commutes with L(G) and
        vanishes on the eigenvectors orthogonal to the all-ones vector, so
        lambda_k(L(complement G)) = n - mu_{n-k} for k < n, and 0 for k = n:
        lo = hi.  The bounds hold for the exact spectra; the floats carry
        rounding errors far below ``polys.ESCALATION_WINDOW``.
        """
        n = self.n
        own = self.column(graphs, kind, k)
        if kind == "L":
            point = own + (n - self.column(graphs, kind, n - k) if k < n else 0.0)
            return point, point
        c = -1 if kind == "A" else n - 2
        lo = own + (c - self.column(graphs, kind, n + 1 - k))
        hi = lo + n if k == 1 else own + (c - self.column(graphs, kind, n + 2 - k))
        return lo, hi

    def sums(self, graphs: Sequence[Graph], kind: str, k: int) -> np.ndarray:
        """``ng_sum(g, kind, k)`` for members ``g``, as one array, the complements not screened
        yet in one eigvalsh call: the same screen, added in the same float64."""
        others = [self.complement(g) for g in graphs]
        self._screen(kind, others)
        return self.column(graphs, kind, k) + self.column(others, kind, k)


@lru_cache(maxsize=16)
def chunk_of(members: tuple[Graph, ...]) -> Chunk:
    """A scan's chunk of ``members``, kept for the last 16 member tuples with the complements
    and screens built since."""
    return Chunk(members)


@lru_cache(maxsize=16)
def lone_chunk(g: Graph) -> Chunk:
    """The chunk of g alone (``holding``), kept for the last 16 lone graphs in slots of its
    own, so reads of single graphs never evict a scan's chunk."""
    return Chunk((g,))


#: The chunk that ``in_chunk`` sets: the graphs a scan's checks read, or none.
_current = Chunk(())


@contextmanager
def in_chunk(graphs: Iterable[Graph]) -> Iterator[Chunk]:
    """Make ``chunk_of(graphs)`` the current chunk for the ``with`` block, then
    restore the chunk before it, also on an error."""
    global _current
    previous, _current = _current, chunk_of(tuple(graphs))
    try:
        yield _current
    finally:
        _current = previous


def holding(g: Graph) -> Chunk:
    """The current chunk if g is one of its graphs, else the kept chunk of g alone."""
    return _current if g in _current._partner else lone_chunk(g)


def spectrum(g: Graph, kind: str) -> Spectrum:
    """The float spectrum of the kind-matrix of g, read off the chunk holding g (``holding``)."""
    return holding(g).spectrum(g, kind)


def ng_sum(g: Graph, kind: str = "Q", k: int = 2) -> float:
    """k-th eigenvalue of the kind-matrix of g plus the same of its complement."""
    chunk = holding(g)
    return chunk.spectrum(g, kind).value(k) + chunk.spectrum(chunk.complement(g), kind).value(k)


# ---------------------------------------------------------------------------
# Exact characteristic polynomials


#: The moduli of ``char_poly_exact``: primes below 2^26, the largest first.
#: ``_prime`` finds each on first use, so importing ``qng`` searches none.
_PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The (i + 1)-th largest prime below 2^26, by trial division on first use."""
    while len(_PRIMES) <= i:
        c = _PRIMES[-1] - 2 if _PRIMES else (1 << 26) - 1
        while any(c % d == 0 for d in range(3, isqrt(c) + 1, 2)):
            c -= 2
        _PRIMES.append(c)
    return _PRIMES[i]


def char_poly_exact(mat: np.ndarray | Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(xI - M) as ascending integer coefficients, by Faddeev-LeVerrier modulo primes.

    M is a square integer ndarray or a sequence of rows of Python ``int``;
    any other entry (a ``Fraction``, a float) raises ``ValueError``, and so
    does an order k >= 2^11.  Over the integers the recurrence is N_1 = I,
    c_j = -trace(M N_j)/j, N_{j+1} = M N_j + c_j I, and the characteristic
    polynomial is x^k + c_1 x^{k-1} + ... + c_k.  It runs the same recurrence
    modulo primes p < 2^26 (``_prime``), all at once in numpy ``int64``, with
    division by j <= k < p a multiplication by the inverse of j mod p.

    No product overflows: every entry reaches numpy reduced to [0, p) by
    Python's ``%``, so rows of ``int`` beyond int64 work too.  M N_j is
    reduced to [0, p) and c_j added to its diagonal, so each dot product of
    the next M N_j has at most one term below 2p^2 and the others below p^2:
    less than (k + 1)p^2 <= 2^11 p^2 < 2^63.  A trace times an inverse stays
    below k p^2 too.  Past that order the bound fails, hence the
    ``ValueError``.

    The primes are enough, by Hadamard's inequality.  c_j is (-1)^j times the
    sum of the j x j principal minors of M.  The minor on the rows S has
    |det M[S, S]| <= prod over i in S of r_i, with r_i = ceil(|row_i|_2)
    (``math.isqrt``), as the rows of M[S, S] are no longer than M's.  So
    |c_j| <= e_j(r_1, ..., r_k) < H = prod(1 + r_i).  Primes are taken until
    their product P exceeds 2H; each c_j is then the one integer in
    (-P/2, P/2) with its residues, which CRT rebuilds.  The result is exact,
    with no final check.
    """
    rows = mat.tolist() if isinstance(mat, np.ndarray) else [list(row) for row in mat]
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    if k >= 1 << 11:
        raise ValueError(f"order {k} is 2^11 or more: int64 residue products could overflow")
    flat = [v for row in rows for v in row]
    if not all(type(v) is int for v in flat):
        raise ValueError("matrix entries must be int")
    bound = 2
    for row in rows:
        norm2 = sum(map(mul, row, row))
        bound *= 2 + isqrt(norm2 - 1) if norm2 else 1  # 1 + ceil(sqrt(norm2))
    primes, modulus = [], 1
    while modulus <= bound:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    ps = np.array(primes, dtype=np.int64)
    cube = ps[:, None, None]
    m = np.array([[v % p for v in flat] for p in primes], dtype=np.int64).reshape(len(primes), k, k)
    neg_inverses = np.array([[p - pow(j, -1, p) for p in primes] for j in range(1, k + 1)], dtype=np.int64)
    residues = np.empty((k, len(primes)), dtype=np.int64)
    prod = m.copy()  # M N_1
    for j in range(k):
        if j:
            prod = m @ prod
            prod %= cube
        diag = prod.reshape(len(primes), k * k)[:, ::k + 1]
        c = residues[j] = diag.sum(axis=1) * neg_inverses[j] % ps
        diag += c[:, None]
    per_prime = residues.T.tolist()
    values, base = per_prime[0], primes[0]
    for p, res in zip(primes[1:], per_prime[1:]):
        inverse = pow(base, -1, p)
        values = [v + base * ((r - v) * inverse % p) for v, r in zip(values, res)]
        base *= p
    half = modulus // 2
    return tuple(v - modulus if v > half else v for v in reversed(values)) + (1,)


@lru_cache(maxsize=1 << 14)
def kind_char_poly(g: Graph, kind: str) -> tuple[int, ...]:
    return char_poly_exact(matrix_of_kind(g, kind))


# ---------------------------------------------------------------------------
# Exact comparisons


def compare_qk_with(g: Graph, k: int, c) -> int:
    """Exact sign of (k-th largest Q-eigenvalue of g) - c for rational c: one Taylor shift of the
    char poly itself to c gives its roots above c and at c, with multiplicity; no counter is built."""
    _check_index(g.n, k)
    above, at = polys._roots_above(kind_char_poly(g, "Q"), polys._point_parts(Fraction(c)))
    return 1 if above >= k else 0 if above + at >= k else -1


def compare_sum_with(g: Graph, kind: str, k: int, c) -> int:
    """Exact sign of (k-th eigenvalue of g plus k-th of its complement) - c, for c rational
    or a ``polys.Surd``, by ``polys.compare_root_sum`` seeded with the screened spectra."""
    _check_index(g.n, k)
    chunk = holding(g)
    cg = chunk.complement(g)
    return polys.compare_root_sum(kind_char_poly(g, kind), k, kind_char_poly(cg, kind), k, c,
                                  chunk.spectrum(g, kind).value(k), chunk.spectrum(cg, kind).value(k))


def compare_q1(g: Graph, h: Graph) -> int:
    """Exact sign of q_1(g) - q_1(h): q_1(g) plus -q_1(h), the least root of the reflected
    char poly of h (``polys.reflection_norm`` at 0), against 0."""
    return polys.compare_root_sum(kind_char_poly(g, "Q"), 1, polys.reflection_norm(kind_char_poly(h, "Q"), 0), h.n,
                                  0, spectrum(g, "Q").value(1), -spectrum(h, "Q").value(1))

