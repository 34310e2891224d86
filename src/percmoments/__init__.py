"""Cluster-size moments for bond percolation on finite regular graphs.

The package computes the first two moments of S, the size of the open
cluster containing a uniformly random start vertex, three ways:

* closed-form upper bounds (:mod:`percmoments.bounds`),
* exact values by enumeration for small graphs, and by a frontier DP for
  graphs of narrow frontier (:mod:`percmoments.oracle`),
* reproducible Monte Carlo (:mod:`percmoments.montecarlo`),

plus the layered birth-process view of cluster growth and its branching
envelope (:mod:`percmoments.coupling`).
"""

from .bounds import (
    BoundParams,
    MomentPair,
    best_bounds,
    branching_bounds,
    branching_total_first_moment,
    branching_total_second_moment,
    isolation_bounds,
)
from .coupling import (
    DominanceReport,
    GenerationTrace,
    TailRow,
    branching_generation_samples,
    dominance_report,
    run_birth_process,
)
from .errors import (
    BadIndexError,
    BadParameterError,
    BadProbabilityError,
    GraphConstructionError,
    InfeasibleError,
    NotConnectedError,
    NotRegularError,
    NotSimpleError,
    PercmomentsError,
    RetryLimitError,
    TooManyEdgesError,
)
from .graphs import (
    Graph,
    build_from_edge_list,
    format_edge_file,
    generate_builtin,
    generate_random_regular,
    load_edge_file,
)
from .montecarlo import (
    MomentEstimate,
    SweepResult,
    SweepRow,
    estimate_moments,
    replicate_realization,
    sweep,
)
from .oracle import (
    ConnectivityTable,
    MomentPolynomial,
    connectivity_moments,
    exact_moments,
    moment_polynomial,
    pair_connectivity,
)
from .percolation import (
    ClusterResult,
    EdgeConfig,
    cluster_of,
)

__version__ = "0.1.0"

__all__ = [
    "BadIndexError",
    "BadParameterError",
    "BadProbabilityError",
    "BoundParams",
    "ClusterResult",
    "ConnectivityTable",
    "DominanceReport",
    "EdgeConfig",
    "GenerationTrace",
    "Graph",
    "GraphConstructionError",
    "InfeasibleError",
    "MomentEstimate",
    "MomentPair",
    "MomentPolynomial",
    "NotConnectedError",
    "NotRegularError",
    "NotSimpleError",
    "PercmomentsError",
    "RetryLimitError",
    "SweepResult",
    "SweepRow",
    "TailRow",
    "TooManyEdgesError",
    "best_bounds",
    "branching_bounds",
    "branching_generation_samples",
    "branching_total_first_moment",
    "branching_total_second_moment",
    "build_from_edge_list",
    "cluster_of",
    "connectivity_moments",
    "dominance_report",
    "estimate_moments",
    "exact_moments",
    "format_edge_file",
    "generate_builtin",
    "generate_random_regular",
    "isolation_bounds",
    "load_edge_file",
    "moment_polynomial",
    "pair_connectivity",
    "replicate_realization",
    "run_birth_process",
    "sweep",
]
