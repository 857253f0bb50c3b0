"""Unit tests for repro.mechanisms.optimal."""

import numpy as np
import pytest

from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.mechanisms.optimal import (
    OptimalSinglePriceMechanism,
    optimal_total_payment,
)
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.coverage.exact import solve_exact
from repro.workloads.generator import generate_instance


class TestOptimalTotalPayment:
    def test_toy_instance_exact(self, toy_instance):
        # p=2: S_OPT={0,1} → payment 4; p=3: S_OPT={2} → payment 3.
        result = optimal_total_payment(toy_instance)
        assert result.price == 3.0
        assert result.winners.tolist() == [2]
        assert result.total_payment == 3.0
        assert result.certified

    def test_matches_brute_force(self, tiny_setting):
        """Pruning must not change the answer: compare with the naive loop."""
        instance, _ = generate_instance(tiny_setting, seed=0)
        result = optimal_total_payment(instance)

        prices = feasible_price_set(instance)
        best = np.inf
        for group in group_prices_by_candidates(instance, prices):
            size = solve_exact(group.problem).size
            payment = float(prices[group.price_indices[0]]) * size
            best = min(best, payment)
        assert result.total_payment == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_above_dp_hsrc_min_payment(self, tiny_setting, seed):
        instance, _ = generate_instance(tiny_setting, seed=seed)
        opt = optimal_total_payment(instance)
        pmf = DPHSRCAuction(epsilon=0.5).price_pmf(instance)
        assert opt.total_payment <= pmf.min_total_payment() + 1e-9

    def test_winner_set_is_feasible_and_affordable(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=1)
        result = optimal_total_payment(instance)
        coverage = instance.effective_quality[result.winners].sum(axis=0)
        assert np.all(coverage >= instance.demands - 1e-9)
        assert np.all(instance.prices[result.winners] <= result.price + 1e-9)

    def test_backends_agree(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=2)
        milp = optimal_total_payment(instance, backend="milp")
        bnb = optimal_total_payment(instance, backend="bnb")
        assert milp.total_payment == pytest.approx(bnb.total_payment)

    def test_reports_solve_count(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=3)
        result = optimal_total_payment(instance)
        assert result.n_exact_solves >= 1


class TestMechanismWrapper:
    def test_point_mass_pmf(self, toy_instance):
        pmf = OptimalSinglePriceMechanism().price_pmf(toy_instance)
        assert pmf.support_size == 1
        assert pmf.probabilities[0] == 1.0
        assert pmf.expected_total_payment() == 3.0

    def test_run_returns_the_optimum(self, toy_instance):
        outcome = OptimalSinglePriceMechanism().run(toy_instance, seed=0)
        assert outcome.price == 3.0
        assert outcome.winners.tolist() == [2]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            OptimalSinglePriceMechanism(backend="gurobi")
