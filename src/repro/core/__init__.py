"""The paper's contribution: Pcons, interference, phases S1/S2, the
constructions, verification and cost/optimization tooling."""

from repro.core.analysis import (
    PathMissAnalysis,
    SigmaSegment,
    SimSetAnalysis,
    analyze_phase_s2,
    greedy_independent_segments,
)
from repro.core.construct import (
    ConstructOptions,
    ConstructTrace,
    build_epsilon_ftbfs,
    build_epsilon_ftbfs_traced,
)
from repro.core.cost import (
    CostModel,
    CostSweepPoint,
    optimal_epsilon_theory,
    optimize_epsilon,
)
from repro.core.ftbfs13 import build_ftbfs13
from repro.core.interference import InterferenceCensus, InterferenceIndex, census
from repro.core.multi_source import MBFSStructure, build_ft_mbfs
from repro.core.optimize import (
    edge_costs,
    greedy_reinforcement,
)
from repro.core.pairs import PairRecord, PairSet
from repro.core.pcons import PconsResult, PconsStats, run_pcons
from repro.core.phase_s1 import S1Result, classify_pairs, run_phase_s1
from repro.core.phase_s2 import S2Result, run_phase_s2
from repro.core.structure import ConstructStats, FTBFSStructure
from repro.core.verify import (
    VerificationReport,
    Violation,
    unprotected_edges,
    verify_structure,
    verify_subgraph,
)

__all__ = [
    "PathMissAnalysis",
    "SigmaSegment",
    "SimSetAnalysis",
    "analyze_phase_s2",
    "greedy_independent_segments",
    "ConstructOptions",
    "ConstructTrace",
    "build_epsilon_ftbfs",
    "build_epsilon_ftbfs_traced",
    "CostModel",
    "CostSweepPoint",
    "optimal_epsilon_theory",
    "optimize_epsilon",
    "build_ftbfs13",
    "InterferenceCensus",
    "InterferenceIndex",
    "census",
    "MBFSStructure",
    "build_ft_mbfs",
    "edge_costs",
    "greedy_reinforcement",
    "PairRecord",
    "PairSet",
    "PconsResult",
    "PconsStats",
    "run_pcons",
    "S1Result",
    "classify_pairs",
    "run_phase_s1",
    "S2Result",
    "run_phase_s2",
    "ConstructStats",
    "FTBFSStructure",
    "VerificationReport",
    "Violation",
    "unprotected_edges",
    "verify_structure",
    "verify_subgraph",
]
