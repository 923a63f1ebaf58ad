#!/usr/bin/env python3
"""What-if analysis with the distance sensitivity oracle.

The replacement-paths machinery behind the FT-BFS construction doubles as
a *single-source distance sensitivity oracle* (the substrate of the
replacement-path literature the paper builds on): preprocess once, then
answer "how far is v if link e fails?" instantly - including the actual
rerouted path.  The same demo also builds the vertex-fault FT-BFS
extension of [14].

    python examples/sensitivity_oracle.py
"""

from repro import (
    DistanceSensitivityOracle,
    build_vertex_fault_ftbfs,
    verify_vertex_fault,
)
from repro.graphs import watts_strogatz_graph


def main() -> None:
    network = watts_strogatz_graph(100, 4, 0.15, seed=3)
    dso = DistanceSensitivityOracle(network, source=0)
    print(f"network: {network}; oracle ready "
          f"({len(dso.tree.tree_edges())} failure scenarios preprocessed)")

    # What-if queries on the three most disruptive tree edges.
    print("\nworst link failures (by total distance increase):")
    scored = []
    for eid in dso.tree.tree_edges():
        child = dso.tree.edge_child(eid)
        increase = 0
        for v in dso.tree.subtree_vertices(child):
            before = dso.base_distance(v)
            after = dso.distance(v, eid)
            if after is not None and before is not None:
                increase += after - before
        scored.append((increase, eid))
    scored.sort(reverse=True)
    for increase, eid in scored[:3]:
        u, v = network.endpoints(eid)
        print(f"  link ({u:>2},{v:>2}): total distance increase {increase}")
        victim = max(
            dso.tree.subtree_vertices(dso.tree.edge_child(eid)),
            key=lambda t: (dso.distance(t, eid) or 0) - (dso.base_distance(t) or 0),
        )
        path = dso.replacement_path(victim, eid)
        print(f"    hardest-hit vertex {victim}: reroute "
              f"{dso.base_distance(victim)} -> {dso.distance(victim, eid)} hops "
              f"via {path[:6]}{'...' if len(path) > 6 else ''}")

    # The vertex-fault companion structure ([14] extension).
    vf = build_vertex_fault_ftbfs(network, 0)
    report = verify_vertex_fault(network, 0, vf.edges)
    print(f"\n{vf.summary()}")
    print(f"  vertex-failure verification: ok={report.ok} "
          f"({report.checked_failures} vertex failures checked)")


if __name__ == "__main__":
    main()
