"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``list``
    List experiments (with their one-line spec descriptions) and
    workloads.
``run E1 [E2 ...]`` (or ``run all``)
    Run experiments through the scenario pipeline and print their
    tables.  ``--quick`` shrinks the sweeps; ``--jobs N`` fans sweep
    points out over N worker processes (0 = auto); ``--save`` writes
    ``bench_artifacts/`` and streams per-point JSONL as points finish,
    so an interrupted run resumes from its cache (``--fresh`` discards
    cached points first).
``build``
    Build a structure for a named workload and report its sizes.  With
    ``--save PATH`` it instead builds the single-failure query
    structure (SPT + full replacement sweep) and writes an oracle
    snapshot (see :mod:`repro.oracle`).
``query SNAPSHOT``
    Answer failure-distance queries from a saved snapshot; ``--check``
    recomputes every answer with a fresh engine traversal and exits
    nonzero on any mismatch (the CI smoke gate).
``serve SNAPSHOT``
    Long-lived serving loop: JSONL requests on stdin, JSONL responses
    on stdout, answered inline; to serve in parallel, run one process
    per core over the same snapshot.
``quickstart``
    A tiny end-to-end demo.
``engines``
    List the registered traversal engines (see :mod:`repro.engine`),
    including the backend each runs per layer.
``check``
    Run the repo-invariant analyzer (``tools.check``: engine-boundary,
    optional-dependency, env-registry, pickle-hygiene, and ctypes-ABI
    passes) over the source tree.  Only available from a source
    checkout - the ``tools`` package is not installed.

``run``, ``build``, ``query``, ``serve`` and ``quickstart`` accept
``--engine {python,csr}`` to pin the traversal engine for the whole
invocation; otherwise the ``REPRO_ENGINE`` environment variable /
registry default applies.  The full environment-variable surface is
listed in ``repro --help`` (the epilog below mirrors the README table).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import __version__
from repro.core import build_epsilon_ftbfs, verify_structure
from repro.engine import (
    ENGINE_ENV_VAR,
    available_engines,
    default_engine_name,
    engine_context,
    get_engine,
)
from repro.harness import (
    SPECS,
    PipelineRunner,
    artifacts_dir,
    experiment_ids,
    get_spec,
    save_record,
    workload,
    workload_names,
)
from repro.util.timing import format_seconds

__all__ = ["main", "build_parser"]


#: Environment variables honored by the toolkit (``repro --help`` epilog;
#: keep in sync with the README's table).
_ENV_VAR_HELP = """\
environment variables:
  REPRO_ENGINE           default traversal engine (same values as --engine)
  REPRO_MAX_WORKERS      worker-process budget for --jobs 0
                         (default: cores - 1)
  REPRO_CC               0 runs csr on its numpy kernels; any other
                         value names the C compiler to use (default:
                         $CC, then cc/gcc/clang on PATH)
  REPRO_CC_CACHE         directory for compiled kernels (default:
                         $XDG_CACHE_HOME/repro or ~/.cache/repro)
  REPRO_CC_FLAGS         extra compiler flags appended to the kernel
                         CFLAGS (e.g. "-fsanitize=address,undefined -g");
                         folded into the compile-cache key
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fault Tolerant BFS structures: a reinforcement-backup tradeoff "
            "(Parter & Peleg, SPAA 2015) - reproduction toolkit"
        ),
        epilog=_ENV_VAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_engine_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            default=None,
            choices=available_engines(),
            help=f"traversal engine (default: ${ENGINE_ENV_VAR} or the registry default)",
        )

    sub.add_parser("list", help="list experiments and workloads")

    run_p = sub.add_parser("run", help="run experiments by id (or 'all')")
    run_p.add_argument("ids", nargs="+", help="experiment ids, e.g. E1 E3, or 'all'")
    run_p.add_argument("--quick", action="store_true", help="small sweeps")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--save",
        action="store_true",
        help="write bench_artifacts/ + stream resumable per-point JSONL",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep points (0 = auto, honors $REPRO_MAX_WORKERS)",
    )
    run_p.add_argument(
        "--fresh",
        action="store_true",
        help="ignore previously cached points (with --save)",
    )
    add_engine_flag(run_p)

    build_p = sub.add_parser("build", help="build one structure and report")
    build_p.add_argument("--workload", default="gnp", choices=workload_names())
    build_p.add_argument("--n", type=int, default=200)
    build_p.add_argument("--epsilon", type=float, default=0.3)
    build_p.add_argument("--seed", type=int, default=0)
    build_p.add_argument("--no-verify", action="store_true")
    build_p.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help=(
            "write a query-oracle snapshot of the workload's SPT + "
            "replacement sweep instead of building the epsilon-FTBFS "
            "(uses the random weight scheme; retries seeds on ties)"
        ),
    )
    add_engine_flag(build_p)

    query_p = sub.add_parser(
        "query", help="answer failure queries from a saved snapshot"
    )
    query_p.add_argument("snapshot", help="snapshot file from 'build --save'")
    query_p.add_argument(
        "--target",
        type=int,
        action="append",
        help="target vertex (repeatable; default: a deterministic sample)",
    )
    query_p.add_argument(
        "--failed",
        type=_eid_list,
        default=[],
        help="comma-separated failed edge ids (default: none)",
    )
    query_p.add_argument(
        "--sample",
        type=int,
        default=0,
        help="query K sampled vertices instead of --target",
    )
    query_p.add_argument("--seed", type=int, default=0, help="sampling seed")
    query_p.add_argument(
        "--path",
        action="store_true",
        dest="show_path",
        help="print each surviving shortest path",
    )
    query_p.add_argument(
        "--check",
        action="store_true",
        help=(
            "recompute every answer (dist + parent chain) with a fresh "
            "engine traversal; exit 1 on any mismatch"
        ),
    )
    add_engine_flag(query_p)

    serve_p = sub.add_parser(
        "serve", help="serve snapshot queries over stdin/stdout JSONL"
    )
    serve_p.add_argument("snapshot", help="snapshot file from 'build --save'")
    add_engine_flag(serve_p)

    quickstart_p = sub.add_parser("quickstart", help="tiny end-to-end demo")
    add_engine_flag(quickstart_p)

    sub.add_parser("engines", help="list registered traversal engines")

    check_p = sub.add_parser(
        "check",
        help="run the repo-invariant analyzer (source checkouts only)",
    )
    check_p.add_argument(
        "check_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m tools.check",
    )
    return parser


def _cmd_list() -> int:
    print("experiments:")
    for eid in experiment_ids():
        print(f"  {eid:<4} {SPECS[eid].description}")
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    return 0


def _cmd_engines() -> int:
    default = default_engine_name()
    print("engines:")
    for name in available_engines():
        engine = get_engine(name)
        marker = "  (default)" if name == default else ""
        print(f"  {name:<8} {type(engine).__name__}{marker}")
        print(f"  {'':<8}   weighted_backend: {engine.weighted_backend}")
        print(f"  {'':<8}   replacement: {engine.replacement_backend}")
        print(f"  {'':<8}   detours: {engine.detour_backend}")
        print(f"  {'':<8}   interference: {engine.interference_backend}")
        print(f"  {'':<8}   compiler: {engine.compiler}")
    print(f"select with --engine, ${ENGINE_ENV_VAR}, or repro.engine.engine_context")
    return 0


def _cmd_run(
    ids: Sequence[str],
    quick: bool,
    seed: int,
    save: bool,
    jobs: int,
    fresh: bool,
    engine: Optional[str],
) -> int:
    from repro.errors import ExperimentError

    requested: List[str] = []
    for eid in ids:
        if eid.lower() == "all":
            requested = experiment_ids()
            break
        requested.append(eid.upper())
    # Every id resolves before any experiment runs, so a typo fails fast.
    try:
        specs = [get_spec(eid) for eid in requested]
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runner = PipelineRunner(
        jobs=jobs,
        cache_dir=artifacts_dir() if save else None,
        engine=engine,
        fresh=fresh,
    )
    for spec in specs:
        record = runner.run(spec, quick=quick, seed=seed)
        print(record.render())
        cached = record.params.get("cached", 0)
        resumed = f", {cached} cached" if cached else ""
        print(
            f"  (elapsed {format_seconds(record.elapsed_seconds)}; "
            f"{record.params.get('points', 0)} points{resumed})\n"
        )
        if save:
            path = save_record(record)
            print(f"  saved -> {path}\n")
    return 0


def _save_query_tree(graph, source: int, seed: int, save: str):
    """Save the SPT under the random scheme with its replacement rows,
    reseeding past tie-break failures; returns ``(tree, path)``.

    Snapshots need int64-representable weights, so the exact scheme is
    not an option here; the random scheme's ties are loud and rare, and
    a handful of reseeds always clears them.  The SPT and the
    replacement sweep that ``save_structure`` runs can both meet one.
    """
    from repro.errors import TieBreakError
    from repro.oracle import save_structure
    from repro.spt.spt_tree import build_spt
    from repro.spt.weights import make_weights

    last: Optional[TieBreakError] = None
    for attempt in range(8):
        try:
            weights = make_weights(graph, "random", seed=seed + attempt)
            tree = build_spt(graph, weights, source)
            return tree, save_structure(save, tree)
        except TieBreakError as exc:
            last = exc
    raise last  # pragma: no cover - 8 consecutive ties never happens


def _eid_list(text: str) -> List[int]:
    """``--failed``'s argparse type: comma-separated edge ids (empty
    parts skipped); range checks are left to the oracle."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer edge ids, got {text!r}"
        ) from None


def _cmd_build_save(
    name: str, n: int, seed: int, save: str
) -> int:
    import os

    from repro.errors import ReproError

    try:
        graph, source = workload(name, n=n, seed=seed)
        tree, path = _save_query_tree(graph, source, seed, save)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    size = os.path.getsize(path)
    rows = tree.num_reachable - 1
    print(f"graph: {graph}")
    print(
        f"snapshot -> {path} ({size} bytes, source={source}, "
        f"{rows} replacement rows)"
    )
    return 0


def _cmd_query(
    snapshot: str,
    targets: Optional[List[int]],
    failed_eids: List[int],
    sample: int,
    seed: int,
    show_path: bool,
    check: bool,
    engine: Optional[str],
) -> int:
    import random

    from repro.errors import ReproError
    from repro.oracle import QueryOracle

    try:
        oracle = QueryOracle.load(snapshot, engine=engine)
        structure = oracle.structure
        n = structure.num_vertices
        print(
            f"snapshot: {snapshot} (n={n}, m={structure.num_edges}, "
            f"source={structure.source}, "
            f"rows={structure.num_replacement_rows})"
        )
        if targets:
            chosen = list(targets)
        else:
            count = sample if sample > 0 else min(10, n)
            chosen = sorted(random.Random(seed).sample(range(n), min(count, n)))
        shift = structure.shift
        dists = oracle.dist_many(chosen, failed_eids)
        for v, d in zip(chosen, dists):
            hops = "unreachable" if d is None else d >> shift
            print(f"  v={v} hops={hops}")
            if show_path and d is not None:
                route = oracle.path(v, failed_eids)
                print("    path: " + " -> ".join(str(x) for x in route))
        if check:
            sp = get_engine(engine).shortest_paths(
                structure.graph,
                structure.weights,
                structure.source,
                banned_edges=set(failed_eids),
            )
            bad = [v for v, d in zip(chosen, dists) if d != sp.dist[v]]
            for v, d in zip(chosen, dists):
                if d is not None and v != structure.source and v not in bad:
                    if oracle.parent_of(v, failed_eids) != (
                        sp.parent[v], sp.parent_eid[v],
                    ):
                        bad.append(v)
            if bad:
                print(f"check: MISMATCH at vertices {sorted(bad)}")
                return 1
            print(f"check: ok ({len(chosen)} answers match a fresh traversal)")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_serve(snapshot: str, engine: Optional[str]) -> int:
    from repro.errors import ReproError
    from repro.oracle import load_structure, serve_structure

    try:
        structure = load_structure(snapshot)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = serve_structure(
            structure, sys.stdin, sys.stdout, engine=engine
        )
    finally:
        structure.close()
    print(
        f"served {summary['requests']} requests "
        f"({summary['errors']} errors)",
        file=sys.stderr,
    )
    return 0


def _cmd_build(name: str, n: int, epsilon: float, seed: int, no_verify: bool) -> int:
    from repro.errors import ReproError

    try:
        graph, source = workload(name, n=n, seed=seed)
        structure = build_epsilon_ftbfs(graph, source, epsilon)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(structure.summary())
    for key, value in structure.stats.as_dict().items():
        print(f"  {key}: {value}")
    if not no_verify:
        report = verify_structure(structure)
        print(f"verified: {report.ok} ({report.checked_failures} failure cases)")
        return 0 if report.ok else 1
    return 0


def _cmd_check(check_args: List[str]) -> int:
    """Run ``tools.check`` from a source checkout.

    The analyzer lives in ``tools/`` next to ``src/``, outside the
    installed package; locate it relative to this file (a checkout) or
    the working directory, and fail with a pointer otherwise.
    """
    import os
    from pathlib import Path

    candidates = [Path(__file__).resolve().parents[2], Path(os.getcwd())]
    repo_root = next(
        (
            root
            for root in candidates
            if (root / "tools" / "check" / "__init__.py").is_file()
        ),
        None,
    )
    if repo_root is None:
        print(
            "error: tools/check not found - 'repro check' runs the "
            "repo-invariant analyzer and needs a source checkout "
            "(run it from the repository root)",
            file=sys.stderr,
        )
        return 2
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from tools.check import main as check_main

    argv = list(check_args)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not any(not arg.startswith("-") for arg in argv):
        argv.append(str(repo_root / "src" / "repro"))
    return check_main(argv)


def _cmd_quickstart() -> int:
    from repro.graphs import connected_gnp_graph

    graph = connected_gnp_graph(80, 0.1, seed=42)
    print(f"graph: {graph}")
    for eps in (0.0, 0.25, 0.5, 1.0):
        structure = build_epsilon_ftbfs(graph, 0, eps)
        ok = verify_structure(structure).ok
        print(f"  eps={eps:<5} b={structure.num_backup:<5} "
              f"r={structure.num_reinforced:<5} verified={ok}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw[:1] == ["check"]:
        # Forward everything verbatim: argparse's REMAINDER refuses to
        # swallow a leading option (e.g. `repro check --engines full`).
        return _cmd_check(raw[1:])
    parser = build_parser()
    args = parser.parse_args(raw)
    # engine_context saves and restores any pre-existing process default.
    with engine_context(getattr(args, "engine", None)):
        if args.command == "list":
            return _cmd_list()
        if args.command == "engines":
            return _cmd_engines()
        if args.command == "run":
            return _cmd_run(
                args.ids, args.quick, args.seed, args.save,
                args.jobs, args.fresh, args.engine,
            )
        if args.command == "build":
            if args.save:
                return _cmd_build_save(args.workload, args.n, args.seed, args.save)
            return _cmd_build(
                args.workload, args.n, args.epsilon, args.seed, args.no_verify
            )
        if args.command == "query":
            return _cmd_query(
                args.snapshot, args.target, args.failed, args.sample,
                args.seed, args.show_path, args.check, args.engine,
            )
        if args.command == "serve":
            return _cmd_serve(args.snapshot, args.engine)
        if args.command == "quickstart":
            return _cmd_quickstart()
        if args.command == "check":
            return _cmd_check(args.check_args)
        parser.print_help()
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
