"""Re-derivation tests: rebuild Algorithm 1's outputs from first principles.

The strongest consistency check available: for random instances,
independently recompute what the paper says each piece should be —
affordable sets, greedy winner sets, Equation 10 weights — using only
numpy and the instance, and demand exact agreement with the library's
pipeline output.
"""

import numpy as np
import pytest

from repro.coverage.greedy import greedy_cover
from repro.coverage.problem import CoverProblem
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.engine.price_set import feasible_price_set
from repro.workloads.generator import generate_instance


@pytest.mark.parametrize("seed", range(5))
def test_pmf_rederivation_from_first_principles(tiny_setting, seed):
    epsilon = 0.7
    instance, _pool = generate_instance(tiny_setting, seed=seed)
    pmf = DPHSRCAuction(epsilon=epsilon).price_pmf(instance)

    # --- Re-derive the feasible price set: a grid price is feasible iff
    # the workers asking <= it can jointly cover every demand.
    expected_prices = []
    for price in instance.price_grid:
        affordable = instance.prices <= price + 1e-12
        coverage = instance.effective_quality[affordable].sum(axis=0)
        if np.all(coverage >= instance.demands - 1e-9):
            expected_prices.append(float(price))
    assert pmf.prices.tolist() == pytest.approx(expected_prices)

    # --- Re-derive each price's winner set with a fresh greedy run over
    # exactly the affordable workers.
    for k, price in enumerate(pmf.prices):
        affordable = np.flatnonzero(instance.prices <= price + 1e-12)
        problem = CoverProblem(
            gains=instance.effective_quality[affordable],
            demands=instance.demands,
        )
        local = greedy_cover(problem).selection
        assert pmf.winner_sets[k].tolist() == sorted(affordable[local].tolist())

    # --- Re-derive Equation 10's distribution.
    n, c_max = instance.n_workers, instance.c_max
    sizes = np.array([s.size for s in pmf.winner_sets], dtype=float)
    logits = -epsilon * pmf.prices * sizes / (2.0 * n * c_max)
    weights = np.exp(logits - logits.max())
    expected_probs = weights / weights.sum()
    assert np.allclose(pmf.probabilities, expected_probs, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_feasible_price_set_matches_linear_scan(tiny_setting, seed):
    """Binary search vs brute-force linear scan over the grid."""
    instance, _pool = generate_instance(tiny_setting, seed=seed)
    fast = feasible_price_set(instance)
    slow = [
        float(p)
        for p in instance.price_grid
        if np.all(
            instance.effective_quality[instance.prices <= p + 1e-12].sum(axis=0)
            >= instance.demands - 1e-9
        )
    ]
    assert fast.tolist() == pytest.approx(slow)
