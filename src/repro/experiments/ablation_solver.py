"""Ablation — exact-solver backends: HiGHS MILP vs our branch-and-bound.

DESIGN.md substitutes the paper's GUROBI with two exact backends; this
ablation cross-validates them (identical optimal cover sizes) and
compares wall-clock time on covering problems of growing size, so a
reader can judge when the self-contained branch-and-bound suffices.
"""

from __future__ import annotations

from typing import Sequence

from repro.coverage.exact import solve_exact
from repro.experiments.runner import ExperimentResult
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer
from repro.workloads.generator import generate_instance
from repro.workloads.settings import SETTING_I

__all__ = ["run"]


def run(
    *,
    fast: bool = False,
    seed: int = 0,
    worker_counts: Sequence[int] = (60, 70, 80, 100, 120),
) -> ExperimentResult:
    """Solve the same covering problems with both backends and compare."""
    if fast:
        worker_counts = tuple(worker_counts)[:2]
    rng = ensure_rng(seed)
    rows = []
    agree = True
    for n in worker_counts:
        instance, _pool = generate_instance(SETTING_I, rng, n_workers=int(n))
        prices = feasible_price_set(instance)
        problem = group_prices_by_candidates(instance, prices)[0].problem

        with Timer() as t_milp:
            milp_result = solve_exact(problem, backend="milp", time_limit=60.0)
        with Timer() as t_bnb:
            bnb_result = solve_exact(problem, backend="bnb", node_limit=500_000)
        agree = agree and milp_result.size == bnb_result.size
        rows.append(
            (
                int(n),
                problem.n_items,
                milp_result.size,
                bnb_result.size,
                round(t_milp.elapsed, 3),
                round(t_bnb.elapsed, 3),
                bnb_result.nodes,
            )
        )

    notes = (
        ("backends agree on every optimal size" if agree else
         "BACKEND DISAGREEMENT — investigate"),
    )
    return ExperimentResult(
        name="ablation_solver",
        title="Ablation: exact backends (HiGHS MILP vs own branch-and-bound)",
        headers=["N", "candidates", "milp |S|", "bnb |S|", "milp (s)", "bnb (s)", "bnb nodes"],
        rows=rows,
        notes=notes,
    )
