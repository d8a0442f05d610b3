"""Exact verification of signless-Laplacian Nordhaus-Gaddum eigenvalue bounds.

The package computes graph spectra both numerically and exactly, turns each
registered bound into an executable certifying predicate, and reproduces the
extremal-graph catalogues by isomorph-free exhaustive enumeration of small
graphs.
"""

from .graph import (
    CapacityError,
    Graph,
    Graph6Error,
    complement,
    complete,
    complete_bipartite,
    cycle,
    cartesian_product,
    disjoint_union,
    empty_graph,
    from_edges,
    from_graph6,
    h_graph,
    join,
    path,
    star,
    to_graph6,
)
from .spectra import Spectrum, char_poly_exact, ng_sum, q_matrix
from .partitions import equitable_quotient
from .enumeration import ScanResult, canonical_form, enumerate_graphs, scan
from .theorems import BoundReport, proof_check_thm12, proof_check_thm15

__version__ = "0.1.0"
