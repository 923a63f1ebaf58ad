#!/usr/bin/env python3
"""The Theorem 5.1 lower-bound gadget, dissected (Fig. 10 of the paper).

Builds G_eps, demonstrates the forced-edge mechanism of Claim 5.3 with a
concrete failure, and reports the certified minimum backup size against
what the universal construction actually builds.

    python examples/lower_bound_demo.py
"""

from repro.core import build_epsilon_ftbfs, verify_subgraph
from repro.lower_bounds import build_theorem51
from repro.spt.bfs import bfs_distances


def main() -> None:
    eps = 0.33
    lb = build_theorem51(600, eps)
    g = lb.graph
    print(f"G_eps: {g}")
    print(f"  parameters: d={lb.d} path edges/copy, k={lb.k} copies, |X_i|={lb.x_size}")
    print(f"  costly path edges |Pi| = {lb.num_pi_edges}")

    # --- Claim 5.3, concretely --------------------------------------
    copy = lb.copies[0]
    j = 1
    e_j = copy.pi_edge_ids[j - 1]
    x = copy.x_vertices[0]
    z_j = copy.z_vertices[j - 1]
    base = bfs_distances(g, lb.source)
    after = bfs_distances(g, lb.source, banned_edges={e_j})
    print(f"\nClaim 5.3 demo: fail path edge e_{j} of copy 0")
    print(f"  dist(s, x)           = {base[x]}  (= d + 2 = {lb.d + 2})")
    print(f"  dist(s, x, G - e_{j})  = {after[x]}  (= 2d - j + 7 = {lb.expected_replacement_distance(j)})")
    both = bfs_distances(g, lb.source, banned_edges={e_j, g.edge_id(x, z_j)})
    print(f"  ... and without the bipartite edge (x, z_{j}): {both[x]} (strictly worse)")
    print(f"  => any structure keeping e_{j} fault-prone MUST contain all "
          f"{lb.x_size} edges of E^0_{j}")

    # --- the certified bound vs. an actual structure -----------------
    r_budget = max(1, lb.num_pi_edges // 6)
    certified = lb.certified_backup_lower_bound(r_budget)
    structure = build_epsilon_ftbfs(g, lb.source, eps)
    print(f"\nwith a reinforcement budget of {r_budget}:")
    print(f"  certified minimum backup edges : {certified}")
    print(f"  n^(1+eps)                      = {round(g.num_vertices ** (1 + eps))}")
    print(f"  our construction's backup size : {structure.num_backup}")

    # --- sanity: deleting one forced edge breaks the structure -------
    all_edges = {eid for eid, _, _ in g.edges()}
    forced = copy.forced_sets[j - 1][0]
    ok_full = verify_subgraph(g, lb.source, all_edges, ()).ok
    ok_broken = verify_subgraph(g, lb.source, all_edges - {forced}, ()).ok
    print(f"\nverification: full graph valid={ok_full}, minus one forced edge valid={ok_broken}")


if __name__ == "__main__":
    main()
