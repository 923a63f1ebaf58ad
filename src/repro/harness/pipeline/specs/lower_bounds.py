"""Specs E3/E4: the certified lower-bound families and their exponent fits."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core import build_epsilon_ftbfs
from repro.harness.pipeline.spec import ScenarioSpec
from repro.lower_bounds import build_theorem51, build_theorem54
from repro.util.stats import fit_loglog

__all__ = ["E3", "E4"]


def _scaled_params51(t: float, eps: float) -> Tuple[int, int, int]:
    """Continuous-parameter gadget family for clean exponent fits.

    ``d ~ t^eps``, ``k ~ t^(1-2eps)``, ``x ~ t^(2eps)``: the realized
    vertex count is Theta(t) and the certified bound Theta(t^(1+eps)).
    Rounding is the only discreteness left, so log-log fits converge to
    the right slope much faster than the floor-heavy paper constants.
    """
    d = max(2, round(t**eps))
    k = max(1, round(t ** max(0.0, 1.0 - 2.0 * eps)))
    x = max(2, round(t ** (2.0 * eps)))
    return d, k, x


# ----------------------------------------------------------------------
# E3: Theorem 5.1 single-source lower bound
# ----------------------------------------------------------------------
def e3_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    eps_values = [0.25, 0.33] if quick else [0.25, 0.33, 0.4]
    scales = [120.0, 300.0, 700.0] if quick else [300.0, 700.0, 1600.0, 3600.0, 8000.0]
    return [
        {"eps": eps, "scale": t}
        for eps in eps_values
        for t in scales
    ]


def e3_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One (eps, scale) gadget: certified forced size (+ alg size when small)."""
    eps, t = payload["eps"], payload["scale"]
    d, k, x = _scaled_params51(t, eps)
    lb = build_theorem51(16, eps, d=d, k=k, x_size=x)
    n = lb.graph.num_vertices
    r_budget = max(1, lb.num_pi_edges // 6)
    certified = lb.certified_backup_lower_bound(r_budget)
    # The construction itself is only run on the smaller gadgets (it is
    # the certified bound, not the algorithm, that Theorem 5.1 is about).
    alg_b: object = "-"
    if n <= 2500:
        structure = build_epsilon_ftbfs(lb.graph, lb.source, eps)
        alg_b = structure.num_backup
    return {
        "rows": [
            [
                eps, int(t), n, lb.graph.num_edges, lb.num_pi_edges,
                r_budget, certified, round(n ** (1 + eps)), alg_b,
            ]
        ],
        "facts": {"eps": eps, "n": n, "certified": certified},
    }


def e3_aggregate(record, points) -> None:
    """Per-eps log-log fits of the certified sizes."""
    fits: Dict[float, Tuple[List[int], List[int]]] = {}
    for p in points:
        eps = p.facts["eps"]
        xs, ys = fits.setdefault(eps, ([], []))
        if p.facts["certified"] > 0:
            xs.append(p.facts["n"])
            ys.append(p.facts["certified"])
    for eps, (xs, ys) in fits.items():
        if len(xs) >= 2:
            fit = fit_loglog(xs, ys)
            record.derived[f"exponent_eps_{eps}"] = fit.exponent
            record.note(
                f"eps={eps}: certified-b exponent {fit.exponent:.3f} "
                f"(paper: 1+eps = {1 + eps:.2f}), R^2={fit.r_squared:.3f}"
            )


E3 = ScenarioSpec(
    experiment_id="E3",
    title="Theorem 5.1 lower bound: forced backup edges on G_eps",
    description="Theorem 5.1 single-source lower bound (forced edges, exponents)",
    columns=(
        "eps", "scale", "n", "m", "|Pi|", "r_budget",
        "certified_b", "n^(1+eps)", "alg_b(n)",
    ),
    grid=e3_grid,
    measure=e3_measure,
    aggregate=e3_aggregate,
    notes=(
        "certified_b = (|Pi| - r_budget) * |X_i| per Claim 5.3 (provable minimum)",
        "gadget family uses smoothly scaled (d, k, x); see _scaled_params51",
        "exponents slightly exceed 1+eps at these sizes (O(t^(1-eps)) ladder "
        "overhead inflates small-n realized sizes); overshoot is consistent "
        "with the Omega(n^(1+eps)) claim",
    ),
)


# ----------------------------------------------------------------------
# E4: Theorem 5.4 multi-source lower bound
# ----------------------------------------------------------------------
def e4_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    k_values = [2, 4] if quick else [2, 4, 8]
    scales = [150.0, 400.0] if quick else [150.0, 400.0, 1000.0, 2400.0]
    return [{"K": K, "scale": t} for K in k_values for t in scales]


def e4_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One (K, scale) multi-source gadget: certified size vs the reference."""
    eps = 0.3
    K, t = payload["K"], payload["scale"]
    base = t / K
    d = max(2, round(base**eps))
    k = max(1, round(base ** max(0.0, 1.0 - 2.0 * eps)))
    x = max(2, round(base ** (2.0 * eps) * K ** (1.0 - 2.0 * eps)))
    lb = build_theorem54(16 * K, eps, K, d=d, k=k, x_size=x)
    n = lb.graph.num_vertices
    r_budget = max(1, lb.num_pi_edges // 6)
    certified = lb.certified_backup_lower_bound(r_budget)
    reference = (K ** (1 - eps)) * (n ** (1 + eps))
    return {
        "rows": [
            [
                eps, K, int(t), n, lb.num_pi_edges, r_budget,
                certified, round(reference),
            ]
        ],
        "facts": {"certified": certified, "reference": reference},
    }


def e4_aggregate(record, points) -> None:
    xs = [p.facts["reference"] for p in points if p.facts["certified"] > 0]
    ys = [p.facts["certified"] for p in points if p.facts["certified"] > 0]
    if len(xs) >= 2:
        fit = fit_loglog(xs, ys)
        record.derived["reference_exponent"] = fit.exponent
        record.note(
            f"certified_b ~ (K^(1-eps) n^(1+eps))^{fit.exponent:.3f}; paper predicts "
            f"linear scaling (exponent 1.0), R^2={fit.r_squared:.3f}"
        )


E4 = ScenarioSpec(
    experiment_id="E4",
    title="Theorem 5.4 multi-source lower bound on G_{eps,K}",
    description="Theorem 5.4 multi-source lower bound over n and K",
    columns=(
        "eps", "K", "scale", "n", "|Pi|", "r_budget",
        "certified_b", "K^(1-eps)*n^(1+eps)",
    ),
    grid=e4_grid,
    measure=e4_measure,
    aggregate=e4_aggregate,
    notes=(
        "r_budget = |Pi|/6 (internally consistent variant; see the "
        "'Parameter note' of repro.lower_bounds.multi_source on the "
        "paper's K n^(1-eps)/6 vs |E(Pi)| discrepancy)",
    ),
)
