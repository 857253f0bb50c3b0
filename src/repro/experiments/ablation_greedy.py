"""Ablation — adaptive truncated-gain greedy vs static-order selection.

DESIGN.md calls out the winner-selection rule as the design choice that
separates DP-hSRC from the §VII-A baseline.  This ablation isolates it:
on identical covering problems (the lowest-feasible-price group of
setting-I instances), compare the cover sizes chosen by

* the adaptive greedy of Algorithm 1 (re-scores marginal gains against
  the residual demands each step), and
* the baseline's static ordering (one up-front score per worker),

plus the LP lower bound and the exact optimum as reference points.
"""

from __future__ import annotations

import numpy as np

from repro.coverage.exact import solve_exact
from repro.coverage.greedy import greedy_cover, static_order_cover
from repro.coverage.lp import lp_lower_bound
from repro.experiments.runner import ExperimentResult
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.utils.rng import ensure_rng
from repro.workloads.generator import generate_instance
from repro.workloads.settings import SETTING_I

__all__ = ["run"]


def run(*, fast: bool = False, seed: int = 0, n_instances: int = 10) -> ExperimentResult:
    """Compare cover sizes across selection rules on fresh instances."""
    if fast:
        n_instances = min(n_instances, 3)
    rng = ensure_rng(seed)
    rows = []
    for trial in range(int(n_instances)):
        instance, _pool = generate_instance(SETTING_I, rng)
        prices = feasible_price_set(instance)
        group = group_prices_by_candidates(instance, prices)[0]
        problem = group.problem

        adaptive = greedy_cover(problem).size
        static = static_order_cover(problem).size
        lp = lp_lower_bound(problem).objective
        exact = solve_exact(problem, time_limit=30.0)
        rows.append(
            (
                trial,
                problem.n_items,
                round(lp, 2),
                exact.size,
                adaptive,
                static,
                round(adaptive / exact.size, 3),
                round(static / exact.size, 3),
            )
        )

    adaptive_ratios = [row[6] for row in rows]
    static_ratios = [row[7] for row in rows]
    notes = (
        f"mean adaptive/optimal ratio: {float(np.mean(adaptive_ratios)):.3f}; "
        f"mean static/optimal ratio: {float(np.mean(static_ratios)):.3f}",
        "problems are the cheapest-price group of fresh setting-I instances",
    )
    return ExperimentResult(
        name="ablation_greedy",
        title="Ablation: adaptive greedy vs static-order winner selection",
        headers=[
            "trial", "candidates", "LP bound", "optimal", "adaptive", "static",
            "adaptive/opt", "static/opt",
        ],
        rows=rows,
        notes=notes,
    )
