"""Random graph generators (from scratch; deterministic given a seed).

The benchmark workloads draw from these families.  networkx is *not*
used at runtime - the tests cross-validate several of these generators
against their networkx counterparts instead.
"""

from __future__ import annotations

import math
import random
from typing import List, Set, Tuple

from repro.errors import GraphError, ParameterError
from repro.graphs.graph import Graph
from repro.graphs.properties import connected_components
from repro.util.validation import check_probability

__all__ = [
    "gnp_random_graph",
    "connected_gnp_graph",
    "random_regular_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "random_geometric_graph",
    "random_tree",
    "random_connected_graph",
]


def gnp_random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi ``G(n, p)`` via geometric edge skipping (O(n + m))."""
    check_probability(p)
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    if p <= 0.0 or n < 2:
        return Graph(n, [], name=f"gnp({n},{p})")
    if p >= 1.0:
        return Graph(
            n,
            [(i, j) for i in range(n) for j in range(i + 1, n)],
            name=f"gnp({n},1)",
        )
    # Iterate candidate pairs in lexicographic order, skipping geometrically.
    log_q = math.log(1.0 - p)
    if log_q == 0.0:  # p below float resolution: 1 - p rounds to 1
        return Graph(n, [], name=f"gnp({n},{p})")
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges, name=f"gnp({n},{p})")


def connected_gnp_graph(n: int, p: float, seed: int = 0, *, max_tries: int = 64) -> Graph:
    """A connected ``G(n, p)`` sample: resample, then stitch components if needed.

    After ``max_tries`` failed samples the last sample is made connected by
    adding one random edge between consecutive components (documented bias,
    negligible for the regimes used in the benchmarks).
    """
    rng = random.Random(seed)
    graph = gnp_random_graph(n, p, seed)
    for attempt in range(max_tries):
        components = connected_components(graph)
        if len(components) <= 1:
            return graph
        graph = gnp_random_graph(n, p, seed + 1000003 * (attempt + 1))
    components = connected_components(graph)
    extra = []
    for a, b in zip(components, components[1:]):
        extra.append((rng.choice(sorted(a)), rng.choice(sorted(b))))
    return graph.with_edges_added(extra, name=f"connected_gnp({n},{p})")


def random_regular_graph(n: int, d: int, seed: int = 0, *, max_tries: int = 200) -> Graph:
    """Random ``d``-regular graph via the pairing model with restarts."""
    if (n * d) % 2 != 0:
        raise ParameterError("n * d must be even for a d-regular graph")
    if d >= n:
        raise ParameterError(f"degree d={d} must be < n={n}")
    rng = random.Random(seed)
    for _ in range(max_tries):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: Set[Tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return Graph(n, sorted(edges), name=f"regular({n},{d})")
    raise GraphError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def barabasi_albert_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment: each new vertex attaches to ``m`` old ones."""
    if m < 1 or m >= n:
        raise ParameterError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    # Repeated-endpoint list implements degree-proportional sampling.
    repeated: List[int] = list(range(m))  # seed core: star targets
    for new in range(m, n):
        targets: Set[int] = set()
        while len(targets) < m:
            if repeated and rng.random() < 0.9:
                candidate = rng.choice(repeated)
            else:
                candidate = rng.randrange(new)
            if candidate != new:
                targets.add(candidate)
        for t in targets:
            edges.append((t, new))
            repeated.append(t)
            repeated.append(new)
    return Graph(n, edges, name=f"ba({n},{m})")


def watts_strogatz_graph(n: int, k: int, beta: float, seed: int = 0) -> Graph:
    """Watts-Strogatz small world: ring lattice with rewiring probability ``beta``."""
    if k % 2 != 0 or k < 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")
    if k >= n:
        raise ParameterError(f"k={k} must be < n={n}")
    check_probability(beta, name="beta")
    rng = random.Random(seed)
    edge_set: Set[Tuple[int, int]] = set()
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            w = (v + offset) % n
            edge_set.add((min(v, w), max(v, w)))
    edges = sorted(edge_set)
    rewired: Set[Tuple[int, int]] = set(edges)
    for u, v in edges:
        if rng.random() < beta:
            rewired.discard((u, v))
            for _ in range(32):
                w = rng.randrange(n)
                key = (min(u, w), max(u, w))
                if w != u and key not in rewired:
                    rewired.add(key)
                    break
            else:
                rewired.add((u, v))
    return Graph(n, sorted(rewired), name=f"ws({n},{k},{beta})")


def random_geometric_graph(n: int, radius: float, seed: int = 0) -> Graph:
    """Unit-square random geometric graph (grid-bucketed neighbor search)."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    cell = max(radius, 1e-9)
    buckets: dict[Tuple[int, int], List[int]] = {}
    for idx, (x, y) in enumerate(points):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(idx)
    r2 = radius * radius
    edges = []
    for (cx, cy), members in buckets.items():
        neighborhood: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighborhood.extend(buckets.get((cx + dx, cy + dy), ()))
        for i in members:
            xi, yi = points[i]
            for j in neighborhood:
                if j <= i:
                    continue
                xj, yj = points[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                    edges.append((i, j))
    return Graph(n, sorted(set(edges)), name=f"rgg({n},{radius})")


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labeled tree via a random Prufer sequence."""
    if n < 1:
        raise ParameterError("random_tree needs n >= 1")
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [], name=f"rtree({n})")
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges, name=f"rtree({n})")


def random_connected_graph(n: int, extra_edges: int, seed: int = 0) -> Graph:
    """A random tree plus ``extra_edges`` uniformly random chords."""
    tree = random_tree(n, seed)
    rng = random.Random(seed ^ 0x9E3779B97F4A7C15)
    existing = {(u, v) for _, u, v in tree.edges()}
    chords: List[Tuple[int, int]] = []
    max_extra = n * (n - 1) // 2 - len(existing)
    target = min(extra_edges, max_extra)
    while len(chords) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing:
            continue
        existing.add(key)
        chords.append(key)
    return tree.with_edges_added(chords, name=f"rconn({n},+{target})")
