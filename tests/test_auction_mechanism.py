"""Unit tests for repro.auction.mechanism (PricePMF and the Mechanism ABC)."""

import numpy as np
import pytest

from repro.auction.mechanism import Mechanism, PricePMF
from repro.exceptions import ValidationError


def make_pmf(prices=(1.0, 2.0), probs=(0.25, 0.75), sets=((0,), (0, 1)), n_workers=3):
    return PricePMF(
        prices=np.array(prices),
        probabilities=np.array(probs),
        winner_sets=tuple(np.array(s, dtype=int) for s in sets),
        n_workers=n_workers,
    )


class TestConstruction:
    def test_basic(self):
        pmf = make_pmf()
        assert pmf.support_size == 2
        assert pmf.cover_sizes.tolist() == [1, 2]

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            make_pmf(probs=(0.2, 0.2))

    def test_prices_strictly_increasing(self):
        with pytest.raises(ValidationError, match="increasing"):
            make_pmf(prices=(2.0, 1.0))

    def test_one_winner_set_per_price(self):
        with pytest.raises(ValidationError, match="per support price"):
            make_pmf(sets=((0,),))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            make_pmf(probs=(-0.5, 1.5))

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            make_pmf(prices=(), probs=(), sets=())


class TestWinnerSetNormalization:
    def test_prices_of_one_group_share_one_read_only_array(self):
        group = np.array([4, 1, 2])
        pmf = PricePMF(
            prices=np.array([1.0, 2.0, 3.0]),
            probabilities=np.array([0.2, 0.3, 0.5]),
            winner_sets=(group, group, np.array([0, 1])),
            n_workers=5,
        )
        first, second, third = pmf.winner_sets
        assert first is second and first is not third
        assert first.tolist() == [1, 2, 4] and first.dtype == np.dtype(int)
        assert not first.flags.writeable and not third.flags.writeable
        # The caller's array is neither aliased nor frozen.
        assert first is not group and group.flags.writeable
        assert group.tolist() == [4, 1, 2]

    def test_lists_and_unsorted_inputs_are_normalized(self):
        pmf = PricePMF(
            prices=np.array([1.0, 2.0, 3.0, 4.0]),
            probabilities=np.array([0.25, 0.25, 0.25, 0.25]),
            winner_sets=([3, 0, 2], np.array([[2], [1]], dtype=np.int32), (), np.array([5.0, 1.0])),
            n_workers=6,
        )
        assert [s.tolist() for s in pmf.winner_sets] == [[0, 2, 3], [1, 2], [], [1, 5]]
        for s in pmf.winner_sets:
            assert s.dtype == np.dtype(int) and s.ndim == 1 and not s.flags.writeable

    def test_reweighting_keeps_the_sharing(self):
        group = np.array([0, 1])
        pmf = PricePMF(
            prices=np.array([1.0, 2.0]),
            probabilities=np.array([0.5, 0.5]),
            winner_sets=(group, group),
            n_workers=2,
        )
        again = PricePMF(
            prices=pmf.prices,
            probabilities=np.array([0.1, 0.9]),
            winner_sets=pmf.winner_sets,
            n_workers=2,
        )
        assert again.winner_sets[0] is again.winner_sets[1]
        assert again.winner_sets[0].tolist() == [0, 1]


class TestMoments:
    def test_total_payments(self):
        pmf = make_pmf()
        assert pmf.total_payments.tolist() == [1.0, 4.0]

    def test_expected_total_payment(self):
        assert make_pmf().expected_total_payment() == pytest.approx(
            0.25 * 1.0 + 0.75 * 4.0
        )

    def test_std_total_payment(self):
        pmf = make_pmf()
        mean = pmf.expected_total_payment()
        var = 0.25 * (1 - mean) ** 2 + 0.75 * (4 - mean) ** 2
        assert pmf.std_total_payment() == pytest.approx(np.sqrt(var))

    def test_min_total_payment(self):
        assert make_pmf().min_total_payment() == 1.0

    def test_point_mass_std_zero(self):
        pmf = make_pmf(prices=(2.0,), probs=(1.0,), sets=((0, 1),))
        assert pmf.std_total_payment() == 0.0


class TestQueries:
    def test_probability_of(self):
        pmf = make_pmf()
        assert pmf.probability_of(2.0) == 0.75
        assert pmf.probability_of(9.0) == 0.0

    def test_expected_utility(self):
        pmf = make_pmf()
        # worker 1 only wins at price 2 → E[u] = 0.75 * (2 - cost)
        assert pmf.expected_utility(1, cost=0.5) == pytest.approx(0.75 * 1.5)

    def test_expected_utility_never_winning(self):
        assert make_pmf().expected_utility(2, cost=0.0) == 0.0

    def test_win_probability(self):
        pmf = make_pmf()
        assert pmf.win_probability(0) == 1.0
        assert pmf.win_probability(1) == 0.75
        assert pmf.win_probability(2) == 0.0

    def test_outcome_at(self):
        out = make_pmf().outcome_at(1)
        assert out.price == 2.0
        assert out.winners.tolist() == [0, 1]
        assert out.total_payment == 4.0


class TestSampling:
    def test_sample_outcome_deterministic_seed(self):
        pmf = make_pmf()
        a = pmf.sample_outcome(seed=0)
        b = pmf.sample_outcome(seed=0)
        assert a.price == b.price

    def test_sample_prices_frequencies(self):
        pmf = make_pmf()
        prices = pmf.sample_prices(20_000, seed=1)
        frac = float(np.mean(prices == 2.0))
        assert frac == pytest.approx(0.75, abs=0.02)

    def test_sample_respects_point_mass(self):
        pmf = make_pmf(prices=(3.0,), probs=(1.0,), sets=((1,),))
        assert np.all(pmf.sample_prices(100, seed=2) == 3.0)


class TestMechanismABC:
    def test_run_samples_from_pmf(self, toy_instance):
        class FixedMechanism(Mechanism):
            name = "fixed"

            def price_pmf(self, instance):
                return make_pmf(
                    prices=(2.0,), probs=(1.0,), sets=((0, 1),),
                    n_workers=instance.n_workers,
                )

        outcome = FixedMechanism().run(toy_instance, seed=0)
        assert outcome.price == 2.0
        assert outcome.winners.tolist() == [0, 1]

    def test_repr_contains_name(self):
        class X(Mechanism):
            name = "x-mech"

            def price_pmf(self, instance):  # pragma: no cover - never called
                raise NotImplementedError

        assert "x-mech" in repr(X())
