"""Ablation benchmark: winner-selection rules (DESIGN.md §4).

Times the adaptive truncated-gain greedy, the static-order rule, and the
exact solver on identical covering problems, and prints the fast-mode
cover-size comparison.
"""

import pytest

from repro.coverage.exact import solve_exact
from repro.coverage.greedy import greedy_cover, static_order_cover
from repro.experiments import ablation_greedy
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates


@pytest.fixture(scope="module")
def cover_problem(setting1_market):
    instance, _pool = setting1_market
    prices = feasible_price_set(instance)
    return group_prices_by_candidates(instance, prices)[0].problem


def test_bench_adaptive_greedy(benchmark, cover_problem):
    result = benchmark(greedy_cover, cover_problem)
    assert result.size > 0


def test_bench_static_order(benchmark, cover_problem):
    result = benchmark(static_order_cover, cover_problem)
    assert result.size > 0


def test_bench_exact(benchmark, cover_problem):
    result = benchmark.pedantic(
        solve_exact, args=(cover_problem,), kwargs={"time_limit": 60.0},
        rounds=1, iterations=1,
    )
    assert result.size > 0


def test_series_ablation_greedy_fast(benchmark):
    result = benchmark.pedantic(lambda: ablation_greedy.run(fast=True, seed=0), rounds=1, iterations=1)
    print()
    print(result.to_table())
    adaptive = result.column("adaptive/opt")
    static = result.column("static/opt")
    assert sum(adaptive) <= sum(static) + 1e-9
