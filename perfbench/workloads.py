"""The benchmark's workloads: seeded inputs, the timed operation, the checks.

Every workload runs the program's defaults (no engine named, no
``REPRO_*`` variable) from one process.  ``prepare(seed)`` makes the
inputs and is never timed; ``setup()`` is the program's own set-up before
the first timed operation; ``measure()`` runs timed passes over a fixed
list of operations (one build or verify call; one list of request lines);
``check_run()`` finishes the checks afterwards.  Every check runs outside
the timed (and traced) region and records each failed operation.  A run
keeps each operation's fastest time over its passes, and what a check
needs per check, so the process's memory does not grow with the number
of passes a run fits.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core import verify as verify_mod
from repro.core.construct import build_epsilon_ftbfs
from repro.core.verify import unprotected_edges, verify_structure, verify_subgraph
from repro.engine.registry import get_engine
from repro.errors import TieBreakError
from repro.graphs.generators import gnp_random_graph
from repro.graphs.graph import Graph
from repro.graphs.properties import bridges
from repro.lower_bounds import build_theorem51
from repro.oracle.serve import OracleServer
from repro.oracle.snapshot import load_structure, save_structure
from repro.spt.bfs import bfs_tree
from repro.spt.spt_tree import build_spt
from repro.spt.weights import make_weights

from perfbench.spans import Tracer

#: Serve writes: a ``mark_down`` every this many reads ...
MARK_PERIOD = 500
#: ... lifted by a ``mark_up`` after this many reads (2% under a mark).
MARK_READS = 10
#: Request lines in one serve pass: ten whole write cycles, so no mark
#: stands at the end of a pass and every pass has the same mix.
PASS_LINES = 10 * (MARK_PERIOD + 2)

#: The verify instance's E' and checked count.  The seed only relabels
#: the instance, so both are the same on every seed.
VERIFY_REINFORCED = 1_332
VERIFY_CHECKED = 18_227


class SchemeGuardError(RuntimeError):
    """``auto`` weights resolved to another scheme than the workload is
    defined on (the input moved across the 20k-edge exact/random line)."""


@dataclass
class Measurement:
    """The timed passes of a run: each operation's fastest time over the
    passes (8 bytes per operation of a pass), the operations attempted
    and their summed time, and the attempts whose check failed (attempt
    number -> first problem found)."""

    best: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    busy_s: float = 0.0
    failures: Dict[int, str] = field(default_factory=dict)

    def time(self, index: int, elapsed: float) -> int:
        """Record operation ``index`` of a pass as taking ``elapsed``;
        returns the attempt's number."""
        if index < len(self.best):
            self.best[index] = min(self.best[index], elapsed)
        else:
            self.best.append(elapsed)
        self.busy_s += elapsed
        self.attempted += 1
        return self.attempted - 1

    def fail(self, attempt: int, message: str) -> None:
        self.failures.setdefault(attempt, message)


def check_scheme(graph: Graph, expected: str) -> str:
    """The scheme ``auto`` picks for ``graph``; raises
    :class:`SchemeGuardError` unless it is ``expected``."""
    scheme = make_weights(graph, "auto", 0).scheme
    if scheme != expected:
        raise SchemeGuardError(
            f"auto weights resolved {scheme!r} on {graph.num_edges} edges; "
            f"this workload is defined on {expected!r}"
        )
    return scheme


def timed_loop(op, seconds: Optional[float], count: Optional[int]):
    """Run ``op`` ``count`` times, or while one more call as long as the
    last one would end within ``seconds`` (always at least once); yields
    ``(elapsed, result)`` per call.

    Cyclic garbage is collected before each call, untimed, so one call's
    leftovers are not collected inside the next call's timing."""
    deadline = None if seconds is None else perf_counter() + seconds
    done = 0
    while True:
        gc.collect()
        t0 = perf_counter()
        result = op()
        elapsed = perf_counter() - t0
        yield elapsed, result
        done += 1
        if count is not None and done >= count:
            return
        if deadline is not None and perf_counter() + elapsed > deadline:
            return


def traced_call(tracer: Optional[Tracer], name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, as span ``name`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.timed(name, fn)(*args, **kwargs)


class Workload:
    """What ``run.py`` drives: ``prepare``, ``setup``, ``measure``,
    ``check_run``, then the figures it reports."""

    name = ""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Set-up before the first operation: the engine, beyond the
        imports."""
        get_engine()

    def setup_probe(self, seed: int) -> float:
        """One set-up for the set-up probe, after the imports and the
        engine; returns the seconds it took."""
        return 0.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
class BuildWorkload(Workload):
    """One ``build_epsilon_ftbfs`` call per operation."""

    expect_scheme = ""
    expect_reinforced = False

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.graph: Optional[Graph] = None
        self.source = 0
        self.epsilon = 0.0
        self.first = None

    def make_input(self, seed: int) -> Tuple[Graph, int, float]:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        self.graph, self.source, self.epsilon = self.make_input(seed)
        check_scheme(self.graph, self.expect_scheme)

    def measure(self, run: Measurement, seconds=None, count=None,
                tracer=None) -> None:
        """A pass is one build.  Keeps the first structure; each later
        one must equal it edge for edge (the build is deterministic) and
        is then dropped."""
        for elapsed, structure in timed_loop(
            lambda: traced_call(
                tracer, "build", build_epsilon_ftbfs,
                self.graph, self.source, self.epsilon,
            ),
            seconds, count,
        ):
            attempt = run.time(0, elapsed)
            if self.first is None:
                self.first = structure
            elif (structure.edges, structure.reinforced) != (
                self.first.edges, self.first.reinforced
            ):
                run.fail(attempt, "structure differs between repeated builds")

    def check_run(self, run: Measurement) -> None:
        """The first structure, checked in full."""
        for message in self.check(self.first):
            run.fail(0, message)

    def check(self, s) -> List[str]:
        """Definition 2.1 via the verifier, the Theorem 3.1 size-bound
        shapes (as in ``tests/test_construct.py``), the main regime, and
        the weight scheme."""
        problems = []
        n = self.graph.num_vertices
        eps = self.epsilon
        b_bound = min((1 / eps) * n ** (1 + eps) * math.log2(n), n**1.5)
        r_bound = (1 / eps) * n ** (1 - eps) * math.log2(n)
        if not verify_structure(s).ok:
            problems.append("structure fails verify_structure")
        if s.num_backup > 4 * b_bound:
            problems.append(f"backup {s.num_backup} > 4 * {b_bound:.0f}")
        if s.num_reinforced > 4 * r_bound:
            problems.append(f"reinforced {s.num_reinforced} > 4 * {r_bound:.0f}")
        st = s.stats
        if "phase_s1" not in st.elapsed_seconds or st.num_pairs <= 0:
            problems.append("the main (Section 3) regime did not run")
        if st.weight_scheme != self.expect_scheme:
            problems.append(f"weight scheme {st.weight_scheme!r}")
        if self.expect_reinforced and s.num_reinforced == 0:
            problems.append("no reinforced edges on the gadget")
        return problems

    def backup_edges(self) -> int:
        return self.first.num_backup

    def facts(self) -> Dict[str, float]:
        return {"construct.reinforced_edges": self.first.num_reinforced}

    def resolved(self) -> Dict[str, object]:
        return {
            "build_engine": self.first.stats.engine,
            "weight_scheme": self.first.stats.weight_scheme,
            "backup_edges": self.first.num_backup,
            "reinforced_edges": self.first.num_reinforced,
        }


def permuted(graph: Graph, seed: int, name: str) -> Tuple[Graph, List[int], List[int]]:
    """``graph`` with vertex and edge ids permuted by ``seed``, plus the
    old -> new vertex and edge id maps.

    Each workload runs one fixed instance that the seed relabels: the
    work stays the same size from seed to seed, so the spread between
    runs is the machine's, while the weights (which tie-break by edge
    id) and every id-ordered loop still see new inputs."""
    rng = random.Random(seed)
    vmap = list(range(graph.num_vertices))
    rng.shuffle(vmap)
    order = list(range(graph.num_edges))
    rng.shuffle(order)
    emap = [0] * graph.num_edges
    for new, old in enumerate(order):
        emap[old] = new
    ends = graph.edge_list()
    edges = [(vmap[ends[old][0]], vmap[ends[old][1]]) for old in order]
    relabeled = Graph(graph.num_vertices, edges, name=f"{name}(seed={seed})")
    return relabeled, vmap, emap


def gnp700_input(seed: int) -> Tuple[Graph, int, float]:
    """One fixed G(700, p=62/699) sample (21,809 edges, above the 20k
    exact-weight line), relabeled by the seed; eps = 0.25."""
    graph, vmap, _ = permuted(
        gnp_random_graph(700, 62 / 699, seed=0), seed, "gnp700"
    )
    return graph, vmap[0], 0.25


def gadget_input(seed: int) -> Tuple[Graph, int, float]:
    """The Theorem 5.1 gadget (d=12, k=4, x=12: n=917, m=1492),
    relabeled by the seed; eps = 0.2."""
    lb = build_theorem51(917, 0.2, d=12, k=4, x_size=12)
    graph, vmap, _ = permuted(lb.graph, seed, "lb51-gadget")
    return graph, vmap[lb.source], 0.2


class BuildGnp700(BuildWorkload):
    name = "build-gnp700"
    expect_scheme = "random"

    def make_input(self, seed):
        return gnp700_input(seed)


class BuildGadget(BuildWorkload):
    name = "build-lb-gadget"
    expect_scheme = "exact"
    expect_reinforced = True

    def make_input(self, seed):
        return gadget_input(seed)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def verify_input(seed: int) -> Tuple[Graph, int, Set[int]]:
    """One fixed G(2000, p=101/1999) sample (101,079 edges, above the 100k
    sharded auto-upgrade line) with H = a BFS tree T0 plus a random tenth
    of the other edges, relabeled by the seed."""
    base = gnp_random_graph(2000, 101 / 1999, seed=0)
    parents = bfs_tree(base, 0)
    tree = {base.edge_id(v, p) for v, p in parents.items() if v != p}
    rng = random.Random(0)
    h_base = set(tree)
    for eid in range(base.num_edges):
        if eid not in tree and rng.random() < 0.1:
            h_base.add(eid)
    graph, vmap, emap = permuted(base, seed, "gnp101k")
    return graph, vmap[0], {emap[eid] for eid in h_base}


class VerifyGnp101k(Workload):
    """One ``verify_subgraph`` call per operation, on a valid (H, E')."""

    name = "verify-gnp101k"

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.graph: Optional[Graph] = None
        self.source = 0
        self.h_edges: Set[int] = set()
        self.e_prime: Set[int] = set()
        self.checked = 0

    def prepare(self, seed: int) -> None:
        self.graph, self.source, self.h_edges = verify_input(seed)
        self.e_prime = unprotected_edges(self.graph, self.source, self.h_edges)

    def measure(self, run: Measurement, seconds=None, count=None,
                tracer=None) -> None:
        """A pass is one verify call.  Each report must be ok, with the
        instance's checked count."""
        for elapsed, report in timed_loop(
            lambda: traced_call(
                tracer, "verify", verify_subgraph,
                self.graph, self.source, self.h_edges, self.e_prime,
            ),
            seconds, count,
        ):
            attempt = run.time(0, elapsed)
            self.checked = report.checked_failures
            if not report.ok:
                run.fail(attempt, f"verify not ok: {report.violations[:1]}")
            elif report.checked_failures != VERIFY_CHECKED:
                run.fail(attempt,
                         f"checked {report.checked_failures} != {VERIFY_CHECKED}")

    def check_run(self, run: Measurement) -> None:
        """E' has the instance's size, and a negative control: H with
        one unprotected edge taken out of E' must come back not ok."""
        if len(self.e_prime) != VERIFY_REINFORCED:
            run.fail(0, f"|E'| = {len(self.e_prime)} != {VERIFY_REINFORCED}")
        short = self.e_prime - {min(self.e_prime)}
        report = verify_subgraph(
            self.graph, self.source, self.h_edges, short, max_violations=1
        )
        if report.ok:
            run.fail(0, "verify accepted E' minus an unprotected edge")

    def backup_edges(self) -> int:
        """|H \\ E'| of the input: the same on every run."""
        return len(self.h_edges - self.e_prime)

    def facts(self) -> Dict[str, float]:
        return {"verify.checked_failures": self.checked}

    def resolved(self) -> Dict[str, object]:
        return {
            "verify_engine": verify_mod._resolve_engine(self.graph, None).name,
            "edges": self.graph.num_edges,
            "structure_edges": len(self.h_edges),
            "reinforced_edges": len(self.e_prime),
            "checked_failures": self.checked,
        }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_input(seed: int) -> Tuple[Graph, int]:
    """One fixed G(5000, p=10/4999) sample, relabeled by the seed."""
    graph, vmap, _ = permuted(
        gnp_random_graph(5000, 10 / 4999, seed=0), seed, "gnp5k"
    )
    return graph, vmap[0]


def query_tree(graph: Graph, source: int, seed: int):
    """The SPT ``repro build --save`` snapshots: random weights,
    reseeded past a tie like the CLI does."""
    for attempt in range(8):
        try:
            weights = make_weights(graph, "random", seed=seed + attempt)
            return build_spt(graph, weights, source)
        except TieBreakError:
            continue
    raise TieBreakError("eight consecutive ties")


@dataclass
class Requests:
    """One serve pass's seeded request lines plus what checking them
    needs."""

    lines: List[str]
    #: line index -> (request, effective failure set) for sampled reads.
    sample: Dict[int, Tuple[dict, Tuple[int, ...]]]
    writes: int


def request_lines(graph: Graph, tree, seed: int,
                  count: int = PASS_LINES) -> Requests:
    """``count`` seeded lines of the serve request mix.

    Reads: 15% ``dist`` with no failure, 45% ``dist`` with one failed
    tree edge, 10% ``dist`` over 32 targets with one failed tree edge,
    25% ``path`` with one failed tree edge, 5% ``dist`` under one of 8
    fixed two-tree-edge failure sets.  Writes: every ``MARK_PERIOD``
    reads a ``mark_down`` of a uniformly drawn edge, lifted by a
    ``mark_up`` after ``MARK_READS`` reads.  Failed tree edges are never
    bridges, and ``path`` targets have degree >= 4, so no read fails.
    3% of the reads, and half of those under a mark, are sampled for the
    answer check.
    """
    rng = random.Random(seed * 7919 + 17)
    pick = random.Random(seed * 104729 + 3)
    bridge_set = set(bridges(graph))
    tree_eids = sorted(e for e in tree.tree_edges() if e not in bridge_set)
    reachable = [v for v in range(graph.num_vertices) if tree.dist[v] is not None]
    sturdy = [v for v in reachable if len(graph.adjacency(v)) >= 4]
    fixed = [tuple(sorted(rng.sample(tree_eids, 2))) for _ in range(8)]
    out = Requests(lines=[], sample={}, writes=0)
    reads = 0
    mark: Optional[int] = None
    while len(out.lines) < count:
        if mark is None and reads % MARK_PERIOD == 0:
            mark = rng.randrange(graph.num_edges)
            out.writes += 1
            out.lines.append(json.dumps({"op": "mark_down", "eid": mark}))
        r = rng.random()
        v = rng.choice(reachable)
        if r < 0.15:
            req = {"op": "dist", "v": v}
        elif r < 0.60:
            req = {"op": "dist", "v": v, "failed": [rng.choice(tree_eids)]}
        elif r < 0.70:
            req = {
                "op": "dist",
                "targets": [rng.choice(reachable) for _ in range(32)],
                "failed": [rng.choice(tree_eids)],
            }
        elif r < 0.95:
            req = {
                "op": "path",
                "v": rng.choice(sturdy),
                "failed": [rng.choice(tree_eids)],
            }
        else:
            req = {"op": "dist", "v": v, "failed": list(rng.choice(fixed))}
        reads += 1
        effective = set(req.get("failed", ()))
        if mark is not None:
            effective.add(mark)
        if pick.random() < (0.5 if mark is not None else 0.03):
            out.sample[len(out.lines)] = (req, tuple(sorted(effective)))
        out.lines.append(json.dumps(req))
        if mark is not None and reads % MARK_PERIOD == MARK_READS:
            out.writes += 1
            out.lines.append(json.dumps({"op": "mark_up", "eid": mark}))
            mark = None
    return out


class _Sink:
    """The server's output for one pass.  Each response write ends its
    request's timing; the response is then checked for ``ok``.  A sampled
    response is kept from the first pass, and must read the same on every
    later one."""

    def __init__(self, owner: "ServeGnp5k", run: Measurement,
                 tracer: Optional[Tracer]) -> None:
        self.sample = owner.requests.sample
        self.kept = owner.kept
        self.run = run
        self.tracer = tracer
        self.span = -1
        self.t0 = 0.0
        self.index = 0

    def write(self, text: str) -> None:
        elapsed = perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.close("serve.request", self.span)
        k = self.index
        self.index += 1
        attempt = self.run.time(k, elapsed)
        if not text.startswith('{"ok": true'):
            self.run.fail(attempt, f"request {k}: {json.loads(text).get('error')}")
        if k in self.sample and self.kept.setdefault(k, text) != text:
            self.run.fail(attempt, f"request {k}: answer differs between passes")

    def flush(self) -> None:
        pass


class ServeGnp5k(Workload):
    """Snapshot (build --save), load, then one closed-loop client driving
    ``OracleServer.serve`` inline.  A pass serves the same ``PASS_LINES``
    request lines on a server freshly loaded from the snapshot, so every
    pass does the same work; an operation is one request, timed from
    handing its line over to the write of its response."""

    name = "serve-gnp5k"

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.seed = 0
        self.graph: Optional[Graph] = None
        self.source = 0
        self.tree = None
        self.server: Optional[OracleServer] = None
        self.snapshot_bytes = 0
        self.requests: Optional[Requests] = None
        #: line index -> the first pass's response, for sampled lines.
        self.kept: Dict[int, str] = {}
        self.stats: Dict[str, int] = {}

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.graph, self.source = serve_input(seed)

    def _snapshot_path(self) -> Path:
        return self.workdir / f"serve-{self.seed}-{os.getpid()}.snap"

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Snapshot build, save and load, then the server over it."""
        self.close()
        self.tree = traced_call(tracer, "snapshot.build", query_tree,
                                self.graph, self.source, self.seed)
        path = traced_call(tracer, "snapshot.save", save_structure,
                           self._snapshot_path(), self.tree)
        self.snapshot_bytes = path.stat().st_size
        structure = traced_call(tracer, "snapshot.load", load_structure, path)
        self.server = OracleServer(structure)

    def setup_probe(self, seed: int) -> float:
        self.prepare(seed)
        t0 = perf_counter()
        self.setup()
        setup_s = perf_counter() - t0
        self.close()
        return setup_s

    def measure(self, run: Measurement, seconds=None, count=None,
                tracer=None) -> None:
        if self.requests is None:
            self.requests = request_lines(self.graph, self.tree, self.seed)
        for _ in timed_loop(lambda: self._serve_pass(run, tracer),
                            seconds, count):
            pass

    def _serve_pass(self, run: Measurement, tracer: Optional[Tracer]) -> None:
        self._close_server()
        self.server = OracleServer(load_structure(self._snapshot_path()))
        sink = _Sink(self, run, tracer)

        def feed() -> Iterator[str]:
            for line in self.requests.lines:
                if tracer is not None:
                    sink.span = tracer.open("serve.request")
                sink.t0 = perf_counter()
                yield line

        self.server.serve(feed(), sink)
        self.stats = self.server.oracle.stats.as_dict()

    def check_run(self, run: Measurement) -> None:
        """The sampled answers (fallbacks among them) equal a fresh
        traversal under the effective failure set."""
        engine = get_engine()
        fresh: Dict[Tuple[int, ...], object] = {}
        for k, (req, effective) in self.requests.sample.items():
            resp = json.loads(self.kept[k])
            sp = fresh.get(effective)
            if sp is None:
                sp = fresh[effective] = engine.shortest_paths(
                    self.graph, self.tree.weights, self.source,
                    banned_edges=set(effective),
                )
            if req["op"] == "path":
                want = [req["v"]]
                while want[-1] != self.source:
                    want.append(sp.parent[want[-1]])
                ok = resp.get("path") == want[::-1]
            else:
                targets = req.get("targets") or [req["v"]]
                ok = resp.get("dist") == [sp.dist[t] for t in targets]
            if not ok:
                run.fail(k, f"request {k}: answer differs from a fresh traversal")

    def backup_edges(self) -> int:
        """The n - 1 edges of the served SPT: the same on every run."""
        return len(self.tree.tree_edges())

    def facts(self) -> Dict[str, float]:
        """The last pass's oracle counters, and the pass's writes."""
        facts: Dict[str, float] = {
            f"query.{key}": value
            for key, value in self.stats.items()
            if key != "queries"
        }
        facts["serve.writes"] = self.requests.writes
        facts["snapshot.bytes"] = self.snapshot_bytes
        return facts

    def resolved(self) -> Dict[str, object]:
        return {
            "weight_scheme": self.tree.weights.scheme,
            "fallback_engine": get_engine().name,
            "snapshot_bytes": self.snapshot_bytes,
            "sampled_answers": len(self.kept),
            "oracle": self.stats,
        }

    def _close_server(self) -> None:
        if self.server is not None:
            structure = self.server.structure
            self.server.close()
            structure.close()
            self.server = None

    def close(self) -> None:
        self._close_server()
        path = self._snapshot_path()
        if path.exists():
            path.unlink()


#: Workload name -> class.
WORKLOADS = {
    cls.name: cls for cls in (BuildGnp700, BuildGadget, VerifyGnp101k, ServeGnp5k)
}


def make(name: str, workdir: Path) -> Workload:
    """A fresh workload object by name."""
    return WORKLOADS[name](workdir)
