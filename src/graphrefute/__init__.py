"""Counterexample search for graph-theory conjectures.

The package scores graphs against ten conjectured inequalities (a positive
score witnesses a violation), explores tree or connected-graph space with an
adaptive Monte Carlo search, verifies candidates with exact arithmetic and
certified eigenvalue bounds, and packages the proven infinite families.
"""

__version__ = "0.1.0"

from .codec import Graph6Error, decode_graph6, encode_graph6, export_dot
from .conjectures import (
    REGISTRY,
    ConjectureSpec,
    HypothesisError,
    Score,
    Verdict,
    check_hypotheses,
    get_conjecture,
    score,
    verify_strict,
)
from .families import (
    FAMILIES,
    FamilyError,
    FamilyReport,
    FamilySpec,
    build_family,
    closed_form,
    verify_family,
)
from .graphs import (
    Graph,
    GraphError,
    SearchSpace,
    all_pairs_distances,
    complete,
    connect_at,
    construct,
    cycle,
    path,
    random_playout,
    random_tree,
    star,
)
from .search import SearchParams, SearchResult, TraceRecord, amcs, nmcs, prune

__all__ = [
    "__version__",
    "Graph", "GraphError", "SearchSpace", "all_pairs_distances", "complete",
    "connect_at", "construct", "cycle", "path", "random_playout",
    "random_tree", "star",
    "Graph6Error", "decode_graph6", "encode_graph6", "export_dot",
    "REGISTRY", "ConjectureSpec", "HypothesisError", "Score", "Verdict",
    "check_hypotheses", "get_conjecture", "score", "verify_strict",
    "FAMILIES", "FamilyError", "FamilyReport", "FamilySpec", "build_family",
    "closed_form", "verify_family",
    "SearchParams", "SearchResult", "TraceRecord", "amcs", "nmcs", "prune",
]
