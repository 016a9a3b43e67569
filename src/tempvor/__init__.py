"""Two-player Voronoi games on temporal graphs.

A temporal graph is a fixed vertex set with an edge set that changes over
discrete time steps. In the classic game each player picks a vertex and wins
the vertices she reaches strictly earlier than the opponent; in the reverse
game she wins the vertices that reach her strictly earlier. This package
computes foremost arrival times, payoffs, best responses and Nash equilibria
exactly, ships the small instances behind the headline existence and
non-existence results, and sweeps parameterized instance families
exhaustively.
"""

from .builders import (
    clique_completion,
    kpartite_completion,
    kpartite_shrink_ne,
    split_potential,
    threshold_shrink_ne,
    tree_ne,
    vor_split_shrink_ne,
)
from .classify import ClassReport, build_class_report, classify_underlying
from .explorer import (
    FamilyBudgetError,
    FamilySpec,
    FamilySpecError,
    SearchOutcome,
    generate_family,
    sweep,
    write_outcome,
)
from .games import (
    BestResponseGraph,
    Deviation,
    DynamicsResult,
    DynamicsStep,
    GameKind,
    NashCheck,
    PayoffResult,
    Profile,
    best_response_dynamics,
    best_response_graph,
    best_responses,
    enumerate_nash,
    first_nash,
    is_nash,
    payoff,
)
from .graph import (
    GraphValidationError,
    StaticGraph,
    TemporalGraph,
    from_json,
    graph_from_obj,
    is_monotone,
    to_canonical_json,
    to_json_obj,
    underlying,
    validate,
)
from .instances import INSTANCE_NAMES, Fixture, build_instance
from .reach import (
    INF,
    DistanceMatrix,
    all_pairs,
    earliest_arrivals,
    oracle_arrivals,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseGraph",
    "ClassReport",
    "Deviation",
    "DistanceMatrix",
    "DynamicsResult",
    "DynamicsStep",
    "FamilyBudgetError",
    "FamilySpec",
    "FamilySpecError",
    "Fixture",
    "GameKind",
    "GraphValidationError",
    "INF",
    "INSTANCE_NAMES",
    "NashCheck",
    "PayoffResult",
    "Profile",
    "SearchOutcome",
    "StaticGraph",
    "TemporalGraph",
    "all_pairs",
    "best_response_dynamics",
    "best_response_graph",
    "best_responses",
    "build_class_report",
    "build_instance",
    "classify_underlying",
    "clique_completion",
    "earliest_arrivals",
    "enumerate_nash",
    "first_nash",
    "from_json",
    "generate_family",
    "graph_from_obj",
    "is_monotone",
    "is_nash",
    "kpartite_completion",
    "kpartite_shrink_ne",
    "oracle_arrivals",
    "payoff",
    "split_potential",
    "sweep",
    "threshold_shrink_ne",
    "to_canonical_json",
    "to_json_obj",
    "tree_ne",
    "underlying",
    "validate",
    "vor_split_shrink_ne",
    "write_outcome",
]
