"""Ablation benchmark: exact backends (HiGHS MILP vs own branch-and-bound).

Cross-validates the GUROBI substitutes and times them on a moderate
covering problem, plus the fast-mode agreement table.
"""

import pytest

from repro.coverage.exact import solve_exact
from repro.experiments import ablation_solver
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.workloads.generator import generate_instance
from repro.workloads.settings import SETTING_I


@pytest.fixture(scope="module")
def medium_problem():
    instance, _pool = generate_instance(SETTING_I, seed=5, n_workers=60)
    prices = feasible_price_set(instance)
    return group_prices_by_candidates(instance, prices)[0].problem


def test_bench_milp_backend(benchmark, medium_problem):
    result = benchmark.pedantic(
        solve_exact, args=(medium_problem,),
        kwargs={"backend": "milp", "time_limit": 60.0},
        rounds=1, iterations=1,
    )
    assert result.size > 0


def test_bench_bnb_backend(benchmark, medium_problem):
    result = benchmark.pedantic(
        solve_exact, args=(medium_problem,),
        kwargs={"backend": "bnb", "node_limit": 500_000},
        rounds=1, iterations=1,
    )
    assert result.size > 0


def test_series_ablation_solver_fast(benchmark):
    result = benchmark.pedantic(lambda: ablation_solver.run(fast=True, seed=0), rounds=1, iterations=1)
    print()
    print(result.to_table())
    assert all(row[2] == row[3] for row in result.rows)  # identical optima
