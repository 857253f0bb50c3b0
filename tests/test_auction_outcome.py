"""Unit tests for repro.auction.outcome."""

import numpy as np
import pytest

from repro.auction.mechanism import PricePMF
from repro.auction.outcome import AuctionOutcome
from repro.bench import seeded_auction_batch
from repro.exceptions import ValidationError
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction


class TestConstruction:
    def test_default_payments(self):
        out = AuctionOutcome(winners=[2, 0], price=5.0, n_workers=4)
        assert out.payments.tolist() == [5.0, 0.0, 5.0, 0.0]
        assert out.winners.tolist() == [0, 2]  # sorted

    def test_explicit_payments_kept(self):
        out = AuctionOutcome(
            winners=[0], price=5.0, n_workers=2, payments=np.array([4.0, 0.0])
        )
        assert out.payments.tolist() == [4.0, 0.0]

    def test_winner_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            AuctionOutcome(winners=[5], price=1.0, n_workers=3)

    def test_duplicate_winner_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            AuctionOutcome(winners=[1, 1], price=1.0, n_workers=3)

    def test_negative_price_rejected(self):
        with pytest.raises(ValidationError, match="price"):
            AuctionOutcome(winners=[0], price=-1.0, n_workers=2)

    def test_payment_length_mismatch(self):
        with pytest.raises(ValidationError, match="workers"):
            AuctionOutcome(
                winners=[0], price=1.0, n_workers=2, payments=np.array([1.0])
            )

    def test_empty_winner_set_allowed(self):
        out = AuctionOutcome(winners=[], price=1.0, n_workers=2)
        assert out.n_winners == 0
        assert out.total_payment == 0.0


class TestDerived:
    def test_total_payment(self):
        out = AuctionOutcome(winners=[0, 1], price=3.0, n_workers=3)
        assert out.total_payment == 6.0

    def test_winner_set_and_is_winner(self):
        out = AuctionOutcome(winners=[1], price=3.0, n_workers=3)
        assert out.winner_set == frozenset({1})
        assert out.is_winner(1)
        assert not out.is_winner(0)

    def test_utility_winner_and_loser(self):
        out = AuctionOutcome(winners=[0], price=3.0, n_workers=2)
        assert out.utility(0, cost=1.0) == 2.0
        assert out.utility(1, cost=1.0) == 0.0

    def test_utility_can_be_negative_for_overpriced_cost(self):
        out = AuctionOutcome(winners=[0], price=3.0, n_workers=1)
        assert out.utility(0, cost=4.0) == -1.0

    def test_utilities_vector(self):
        out = AuctionOutcome(winners=[0, 2], price=3.0, n_workers=3)
        util = out.utilities(np.array([1.0, 1.0, 5.0]))
        assert util.tolist() == [2.0, 0.0, -2.0]

    def test_utilities_length_check(self):
        out = AuctionOutcome(winners=[0], price=3.0, n_workers=2)
        with pytest.raises(ValidationError, match="length"):
            out.utilities(np.array([1.0]))


def assert_same_outcome(got, want):
    """Bitwise field equality of two outcomes, read-only flags included."""
    assert got.winners.dtype == want.winners.dtype
    assert got.winners.tobytes() == want.winners.tobytes()
    assert type(got.price) is float and got.price == want.price
    assert got.n_workers == want.n_workers
    assert got.payments.tobytes() == want.payments.tobytes()
    assert got.degraded is want.degraded
    for outcome in (got, want):
        assert not outcome.winners.flags.writeable
        assert not outcome.payments.flags.writeable


class TestOutcomeAtEqualsTheConstructor:
    """``PricePMF.outcome_at`` skips the checks, not the result."""

    @pytest.mark.parametrize("mechanism", [DPHSRCAuction(0.5), BaselineAuction(0.5, degraded=True)])
    def test_every_support_index(self, mechanism):
        instance = seeded_auction_batch(1, n_workers=30, n_tasks=5, seed=3)[0]
        pmf = mechanism.price_pmf(instance)
        for k in range(pmf.support_size):
            want = AuctionOutcome(
                winners=pmf.winner_sets[k],
                price=float(pmf.prices[k]),
                n_workers=pmf.n_workers,
                degraded=pmf.degraded,
            )
            assert_same_outcome(pmf.outcome_at(k), want)

    def test_empty_winner_set(self):
        pmf = PricePMF(np.array([1.0]), np.array([1.0]), (np.array([], dtype=int),), 3)
        assert_same_outcome(pmf.outcome_at(0), AuctionOutcome(winners=[], price=1.0, n_workers=3))

    def test_sample_outcome_is_an_outcome_at_the_drawn_index(self):
        instance = seeded_auction_batch(1, n_workers=30, n_tasks=5, seed=3)[0]
        pmf = DPHSRCAuction(0.5).price_pmf(instance)
        for seed in range(5):
            assert_same_outcome(pmf.sample_outcome(seed), pmf.outcome_at(pmf.sample_index(seed)))


class TestWinnerNormalization:
    """The NumPy sort and adjacent-difference checks match Python's."""

    @pytest.mark.parametrize(
        "winners",
        [
            [3, 0, 2],
            np.array([[2], [1]], dtype=np.int32),
            np.array([5.0, 1.7]),
            (True, False),
            np.array([4, 0], dtype=np.uint8),
            [],
        ],
    )
    def test_sorted_like_python(self, winners):
        out = AuctionOutcome(winners=winners, price=1.0, n_workers=6)
        expected = sorted(int(i) for i in np.asarray(winners).ravel())
        assert out.winners.tolist() == expected and out.winners.dtype == np.dtype(int)

    def test_callers_array_is_neither_aliased_nor_frozen(self):
        winners = np.array([2, 0])
        out = AuctionOutcome(winners=winners, price=1.0, n_workers=3)
        assert out.winners is not winners and winners.flags.writeable
        assert winners.tolist() == [2, 0]

    def test_duplicate_far_apart_in_the_input_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            AuctionOutcome(winners=[2, 0, 1, 2], price=1.0, n_workers=3)
