"""repro: Fault Tolerant BFS Structures - A Reinforcement-Backup Tradeoff.

A full reproduction of Parter & Peleg (SPAA 2015, arXiv:1504.04169).

Quickstart
----------
>>> from repro import connected_gnp_graph, build_epsilon_ftbfs, verify_structure
>>> g = connected_gnp_graph(60, 0.15, seed=1)
>>> structure = build_epsilon_ftbfs(g, source=0, epsilon=0.3)
>>> verify_structure(structure).ok
True

Public API highlights
---------------------
* :class:`repro.graphs.Graph` plus builders/generators - the substrate.
* :func:`repro.core.build_epsilon_ftbfs` - Theorem 3.1's construction.
* :func:`repro.core.build_ftbfs13` - the ESA'13 baseline (eps = 1).
* :func:`repro.core.build_ft_mbfs` - multi-source structures.
* :func:`repro.core.verify_structure` - the independent oracle.
* :mod:`repro.engine` - the traversal engines (the python reference
  and csr's C/numpy kernels) behind one dispatch point.
* :mod:`repro.lower_bounds` - the Theorem 5.1 / 5.4 gadget graphs.
* :mod:`repro.harness` - the experiment registry behind the benchmarks.
"""

from repro.errors import (
    ExperimentError,
    GraphError,
    ParameterError,
    ReproError,
    TieBreakError,
    VerificationError,
)
from repro.graphs import (
    Graph,
    barbell_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.core import (
    ConstructOptions,
    CostModel,
    FTBFSStructure,
    MBFSStructure,
    build_epsilon_ftbfs,
    build_epsilon_ftbfs_traced,
    build_ft_mbfs,
    build_ftbfs13,
    greedy_reinforcement,
    optimal_epsilon_theory,
    optimize_epsilon,
    run_pcons,
    unprotected_edges,
    verify_structure,
    verify_subgraph,
)
from repro.engine import (
    available_engines,
    engine_context,
    get_engine,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "ParameterError",
    "TieBreakError",
    "VerificationError",
    "ExperimentError",
    # engine layer
    "available_engines",
    "engine_context",
    "get_engine",
    # graphs
    "Graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "barbell_graph",
    "gnp_random_graph",
    "connected_gnp_graph",
    "random_connected_graph",
    # core
    "ConstructOptions",
    "CostModel",
    "FTBFSStructure",
    "MBFSStructure",
    "build_epsilon_ftbfs",
    "build_epsilon_ftbfs_traced",
    "build_ft_mbfs",
    "build_ftbfs13",
    "greedy_reinforcement",
    "optimal_epsilon_theory",
    "optimize_epsilon",
    "run_pcons",
    "unprotected_edges",
    "verify_structure",
    "verify_subgraph",
]
