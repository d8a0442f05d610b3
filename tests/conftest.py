from __future__ import annotations

import time

import pytest

from qng.enumeration import enumerate_graphs
from qng.graph import complement


@pytest.fixture(scope="session")
def graphs_by_order():
    """All isomorphism-class representatives for n = 1..7."""
    return {n: enumerate_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def graphs_and_complements(graphs_by_order):
    """Every class representative for n = 1..7, each followed by its complement."""
    return [h for n in range(1, 8) for g in graphs_by_order[n] for h in (g, complement(g))]


@pytest.fixture(scope="session")
def enum8():
    """The n = 8 stream plus the wall-clock seconds its generation took."""
    start = time.perf_counter()
    graphs = enumerate_graphs(8)
    return graphs, time.perf_counter() - start
