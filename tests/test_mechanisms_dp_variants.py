"""Unit tests for repro.mechanisms.dp_variants (permute-and-flip DP-hSRC)."""

import numpy as np
import pytest

from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.mechanisms.dp_variants import PermuteFlipHSRCAuction
from repro.workloads.generator import generate_instance


class TestPermuteFlipHSRC:
    def test_same_winner_schedule_as_exponential(self, toy_instance):
        pf = PermuteFlipHSRCAuction(epsilon=0.5).price_pmf(toy_instance)
        em = DPHSRCAuction(epsilon=0.5).price_pmf(toy_instance)
        assert np.allclose(pf.prices, em.prices)
        assert all(
            np.array_equal(a, b) for a, b in zip(pf.winner_sets, em.winner_sets)
        )

    def test_toy_pmf_is_exact_permute_flip(self, toy_instance):
        from repro.mechanisms.dp_hsrc import payment_score_sensitivity
        from repro.privacy.selection import permute_and_flip_pmf_exact

        pf = PermuteFlipHSRCAuction(epsilon=0.5).price_pmf(toy_instance)
        expected = permute_and_flip_pmf_exact(
            -pf.total_payments, 0.5, payment_score_sensitivity(toy_instance)
        )
        assert np.allclose(pf.probabilities, expected)

    def test_expected_payment_never_worse_than_exponential(self, toy_instance):
        """The dominance theorem, in auction terms, on the exact toy PMFs."""
        pf = PermuteFlipHSRCAuction(epsilon=0.5).price_pmf(toy_instance)
        em = DPHSRCAuction(epsilon=0.5).price_pmf(toy_instance)
        assert pf.expected_total_payment() <= em.expected_total_payment() + 1e-9

    def test_run_outcome_is_feasible(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=0)
        outcome = PermuteFlipHSRCAuction(epsilon=0.5).run(instance, seed=1)
        coverage = instance.effective_quality[outcome.winners].sum(axis=0)
        assert np.all(coverage >= instance.demands - 1e-9)
        asked = instance.prices[outcome.winners]
        assert np.all(asked <= outcome.price + 1e-9)

    def test_run_reproducible(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=1)
        auction = PermuteFlipHSRCAuction(epsilon=0.5)
        assert auction.run(instance, seed=2).price == auction.run(instance, seed=2).price

    def test_monte_carlo_pmf_for_large_support(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=0)
        pmf = PermuteFlipHSRCAuction(epsilon=0.5, pmf_samples=2_000).price_pmf(instance)
        assert pmf.probabilities.sum() == pytest.approx(1.0)

    def test_bad_epsilon_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            PermuteFlipHSRCAuction(epsilon=0.0)


class TestPermuteFlipReleasePath:
    """Permute-and-flip reads DP-hSRC's sweep plan and releases only its own draw.

    The reference runs permute-and-flip over the support of a DP-hSRC
    exponential-mechanism PMF built outside any recorder or budget scope.
    PMFs, sampled outcomes, ledger entries and store accounts must equal
    it bit for bit, with and without a degrading store.
    """

    EPSILON = 0.5
    SAMPLES = 500

    @pytest.fixture(scope="class")
    def batch(self):
        from repro.bench import seeded_auction_batch

        # Supports of 1, 8, 11 and 12 prices: exact and Monte-Carlo PMFs.
        return seeded_auction_batch(6, n_workers=30, n_tasks=6, seed=2016)

    def _reference(self, instance, seed):
        from repro.auction.mechanism import PricePMF
        from repro.mechanisms.dp_hsrc import payment_score_sensitivity
        from repro.privacy.selection import (
            permute_and_flip_pmf_exact,
            permute_and_flip_pmf_monte_carlo,
            permute_and_flip_sample,
        )

        schedule = DPHSRCAuction(self.EPSILON).price_pmf(instance)
        scores = -schedule.total_payments
        sensitivity = payment_score_sensitivity(instance)
        if schedule.support_size <= 9:
            probs = permute_and_flip_pmf_exact(scores, self.EPSILON, sensitivity)
        else:
            probs = permute_and_flip_pmf_monte_carlo(
                scores, self.EPSILON, sensitivity, n_samples=self.SAMPLES, seed=0
            )
        probs = np.clip(probs, 0.0, None)
        pmf = PricePMF(
            schedule.prices, probs / probs.sum(), schedule.winner_sets, schedule.n_workers
        )
        index = permute_and_flip_sample(scores, self.EPSILON, sensitivity, seed=seed)
        entry = {
            "type": "ledger",
            "mechanism": "dp-hsrc-pf",
            "epsilon": self.EPSILON,
            "sensitivity": sensitivity,
            "composition": "sequential",
            "attrs": {
                "support_size": schedule.support_size,
                "n_workers": instance.n_workers,
            },
        }
        return pmf, schedule.outcome_at(index), entry

    def _degraded_reference(self, instance, seed):
        from repro.mechanisms.baseline import BaselineAuction

        fallback = BaselineAuction(self.EPSILON, degraded=True)
        pmf = fallback.price_pmf(instance)
        entry = {
            "type": "ledger",
            "mechanism": "baseline",
            "epsilon": self.EPSILON,
            "sensitivity": float(instance.n_workers * instance.c_max),
            "composition": "sequential",
            "attrs": {
                "support_size": pmf.support_size,
                "n_workers": instance.n_workers,
                "degraded": True,
            },
        }
        return pmf, fallback.run(instance, seed), entry

    @staticmethod
    def _assert_pmf(actual, expected):
        assert np.array_equal(actual.prices, expected.prices)
        assert np.array_equal(actual.probabilities, expected.probabilities)
        assert len(actual.winner_sets) == len(expected.winner_sets)
        for a, b in zip(actual.winner_sets, expected.winner_sets):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert actual.degraded == expected.degraded

    @staticmethod
    def _assert_outcome(actual, expected):
        assert np.array_equal(actual.winners, expected.winners)
        assert actual.winners.dtype == expected.winners.dtype
        assert actual.price == expected.price
        assert np.array_equal(actual.payments, expected.payments)
        assert actual.degraded == expected.degraded

    @pytest.mark.parametrize("limit", [None, 1.25])
    def test_equals_permute_and_flip_over_the_dp_hsrc_support(self, batch, limit):
        from repro.obs import MetricsRecorder, use_recorder
        from repro.privacy.budget import InMemoryBudgetStore, use_budget_store

        # Two draws per instance (a PMF and a run); a 1.25 limit affords
        # the first two, and the degrade policy serves the rest.
        expected = []
        for k, instance in enumerate(batch):
            for _draw in ("pmf", "run"):
                if limit is None or len(expected) < 2:
                    expected.append(self._reference(instance, seed=k))
                else:
                    expected.append(self._degraded_reference(instance, seed=k))
        mechanism = PermuteFlipHSRCAuction(self.EPSILON, pmf_samples=self.SAMPLES)
        recorder = MetricsRecorder()
        store = InMemoryBudgetStore(limit=limit)
        pmfs, outcomes = [], []
        with use_recorder(recorder), use_budget_store(
            store, tenant="t", on_exhausted="degrade"
        ):
            for k, instance in enumerate(batch):
                pmfs.append(mechanism.price_pmf(instance))
                outcomes.append(mechanism.run(instance, seed=k))
        for k in range(len(batch)):
            self._assert_pmf(pmfs[k], expected[2 * k][0])
            self._assert_outcome(outcomes[k], expected[2 * k + 1][1])
        entries = [entry.to_json_obj() for entry in recorder.ledger.entries]
        assert entries == [entry for _pmf, _outcome, entry in expected]

        replay = InMemoryBudgetStore(limit=limit)
        for entry in entries:
            replay.charge(
                "t",
                "default",
                mechanism=entry["mechanism"],
                epsilon=entry["epsilon"],
                sensitivity=entry["sensitivity"],
                degraded=entry["attrs"].get("degraded", False),
            )
        assert store.account("t").to_json_obj() == replay.account("t").to_json_obj()
        n_degraded = 0 if limit is None else 2 * len(batch) - 2
        assert store.account("t").n_degraded == n_degraded
        assert recorder.counters.get("budget.degraded", 0) == n_degraded
