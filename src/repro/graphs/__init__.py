"""Graph substrate: compact graph type, builders, generators, properties."""

from repro.graphs.graph import Graph
from repro.graphs.builders import (
    barbell_graph,
    binary_tree_graph,
    broom_graph,
    caterpillar_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    from_networkx,
    grid_graph,
    hypercube_graph,
    join_with_edges,
    lollipop_graph,
    path_graph,
    star_graph,
    to_networkx,
    torus_graph,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    connected_gnp_graph,
    gnp_random_graph,
    random_connected_graph,
    random_geometric_graph,
    random_regular_graph,
    random_tree,
    watts_strogatz_graph,
)
from repro.graphs.properties import (
    bridges,
    connected_components,
    is_connected,
    is_tree,
)

__all__ = [
    "Graph",
    # builders
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "broom_graph",
    "lollipop_graph",
    "barbell_graph",
    "caterpillar_graph",
    "from_edge_list",
    "from_networkx",
    "to_networkx",
    "disjoint_union",
    "join_with_edges",
    # generators
    "gnp_random_graph",
    "connected_gnp_graph",
    "random_regular_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "random_geometric_graph",
    "random_tree",
    "random_connected_graph",
    # properties
    "connected_components",
    "is_connected",
    "bridges",
    "is_tree",
]
