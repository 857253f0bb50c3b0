"""Unit tests for repro.auction.mechanism (PricePMF and the Mechanism ABC)."""

import numpy as np
import pytest

from repro.auction.mechanism import Mechanism, PricePMF
from repro.auction.outcome import AuctionOutcome
from repro.bench import seeded_auction_batch
from repro.exceptions import BudgetExceededError, ValidationError
from repro.mechanisms.dp_hsrc import (
    DPHSRCAuction,
    exponential_price_probabilities,
    payment_score_sensitivity,
    reweight_pmf,
)
from repro.obs import MetricsRecorder, use_recorder
from repro.privacy.budget import InMemoryBudgetStore, use_budget_store


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


def _sharing(pmf):
    """Which support points share one winner-set object."""
    sets = pmf.winner_sets
    return [[a is b for b in sets] for a in sets]


def assert_same_pmf(got, want):
    """Field-by-field bitwise equality of two PMFs, read-only flags included."""
    assert got.prices.tobytes() == want.prices.tobytes()
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    assert got.n_workers == want.n_workers
    assert got.degraded is want.degraded
    assert len(got.winner_sets) == len(want.winner_sets)
    for a, b in zip(got.winner_sets, want.winner_sets):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable
    assert _sharing(got) == _sharing(want)
    for pmf in (got, want):
        assert not pmf.prices.flags.writeable
        assert not pmf.probabilities.flags.writeable


@pytest.fixture(scope="module")
def market():
    instance = seeded_auction_batch(1, n_workers=30, n_tasks=5, seed=3)[0]
    pmf = DPHSRCAuction(epsilon=1.0).price_pmf(instance)
    assert pmf.support_size > 1 and len({id(s) for s in pmf.winner_sets}) < pmf.support_size
    return instance, pmf


def _constructed(pmf, instance, epsilon, degraded=False):
    """What re-scoring through the public constructor builds."""
    return PricePMF(
        prices=pmf.prices,
        probabilities=exponential_price_probabilities(
            pmf.total_payments, epsilon, payment_score_sensitivity(instance)
        ),
        winner_sets=pmf.winner_sets,
        n_workers=pmf.n_workers,
        degraded=degraded,
    )


class TestProbabilitiesReadOnly:
    def test_constructed_probabilities_are_read_only(self):
        pmf = make_pmf()
        with pytest.raises(ValueError, match="read-only"):
            pmf.probabilities[0] = 1.0
        assert pmf.probabilities.tolist() == [0.25, 0.75]

    def test_reweighted_probabilities_are_read_only(self):
        pmf = make_pmf().reweighted(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="read-only"):
            pmf.probabilities[0] = 1.0

    def test_the_callers_vector_is_not_aliased(self):
        probs = np.array([0.5, 0.5])
        pmf = make_pmf().reweighted(probs)
        probs[0] = 0.9
        assert pmf.probabilities.tolist() == [0.5, 0.5] and probs.flags.writeable


class TestReweighted:
    def test_equals_the_public_constructor(self):
        pmf = make_pmf(prices=(1.0, 2.0, 3.0), probs=(0.2, 0.3, 0.5), sets=((0,), (0, 1), (2, 1)))
        probs = np.array([0.6, 0.3, 0.1])
        for degraded in (False, True):
            want = PricePMF(pmf.prices, probs, pmf.winner_sets, pmf.n_workers, degraded)
            assert_same_pmf(pmf.reweighted(probs, degraded=degraded), want)

    def test_shares_the_validated_support(self):
        pmf = make_pmf()
        again = pmf.reweighted(np.array([0.5, 0.5]))
        assert again.prices is pmf.prices and again.winner_sets is pmf.winner_sets
        assert again.degraded is False

    @pytest.mark.parametrize(
        "probs, match",
        [
            ((0.2, 0.2), "sum to 1"),
            ((-0.5, 1.5), "non-negative"),
            ((1.0,), "equal length"),
            ((np.nan, 1.0), "finite"),
            ([[0.5, 0.5]], "1-dimensional"),
        ],
    )
    def test_checks_the_probability_vector_like_the_constructor(self, probs, match):
        pmf = make_pmf()
        with pytest.raises(ValidationError, match=match) as trusted:
            pmf.reweighted(np.array(probs))
        with pytest.raises(ValidationError) as public:
            PricePMF(pmf.prices, np.array(probs), pmf.winner_sets, pmf.n_workers)
        assert str(trusted.value) == str(public.value)


class TestReweightPmf:
    """``reweight_pmf`` builds what the public constructor built, bit for bit."""

    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 5.0, 1000.0])
    def test_without_a_budget_scope(self, market, epsilon):
        instance, pmf = market
        assert_same_pmf(reweight_pmf(pmf, instance, epsilon), _constructed(pmf, instance, epsilon))

    def test_under_the_degrade_policy(self, market):
        instance, pmf = market
        store = InMemoryBudgetStore(limit=0.5)
        with use_budget_store(store, tenant="t", on_exhausted="degrade"):
            served = reweight_pmf(pmf, instance, 0.5)
            degraded = reweight_pmf(pmf, instance, 0.3)
        assert_same_pmf(served, _constructed(pmf, instance, 0.5))
        assert_same_pmf(degraded, _constructed(pmf, instance, 0.3, degraded=True))
        account = store.account("t", "default")
        assert (account.n_charges, account.n_degraded) == (1, 1)

    def test_a_refused_draw_raises_before_anything_is_charged(self, market):
        instance, pmf = market
        store = InMemoryBudgetStore(limit=1.0)
        recorder = MetricsRecorder()
        with use_recorder(recorder), use_budget_store(store, tenant="t", on_exhausted="refuse"):
            reweight_pmf(pmf, instance, 0.8)
            with pytest.raises(BudgetExceededError, match="admission refused"):
                reweight_pmf(pmf, instance, 0.5)
        assert store.spent("t", "default") == pytest.approx(0.8)
        assert store.account("t", "default").n_charges == 1
        assert len(recorder.ledger.entries) == 1


class TestSupportValidation:
    """A bad winner set or price is rejected when the PMF is built."""

    @pytest.mark.parametrize(
        "sets, prices",
        [
            (((0,), (0, 3)), (1.0, 2.0)),  # id 3 with n_workers=3
            (((-1,), (0, 1)), (1.0, 2.0)),
            (((0,), (1, 1)), (1.0, 2.0)),
            (((0,), (0, 1)), (-1.0, 2.0)),
        ],
    )
    def test_rejected_with_the_outcome_message(self, sets, prices):
        with pytest.raises(ValidationError) as built:
            make_pmf(prices=prices, sets=sets)
        bad = next(
            k for k in range(2)
            if prices[k] < 0 or len(set(sets[k])) < len(sets[k])
            or not all(0 <= i < 3 for i in sets[k])
        )
        with pytest.raises(ValidationError) as drawn:
            AuctionOutcome(winners=list(sets[bad]), price=prices[bad], n_workers=3)
        assert str(built.value) == str(drawn.value)

    def test_shared_set_checked_once_and_still_rejected(self):
        shared = np.array([0, 7])
        with pytest.raises(ValidationError, match="out of range"):
            PricePMF(
                prices=np.array([1.0, 2.0]),
                probabilities=np.array([0.5, 0.5]),
                winner_sets=(shared, shared),
                n_workers=3,
            )

    def test_equal_ids_in_neighbouring_sets_are_not_repeats(self):
        sets = (np.array([0, 1]), np.array([1, 2]), np.array([], dtype=int), np.array([2]))
        pmf = PricePMF(np.arange(1.0, 5.0), np.full(4, 0.25), sets, n_workers=3)
        assert [w.tolist() for w in pmf.winner_sets] == [[0, 1], [1, 2], [], [2]]
        with pytest.raises(ValidationError, match="unique"):
            PricePMF(np.arange(1.0, 5.0), np.full(4, 0.25), sets[:3] + (np.array([2, 2]),), 3)

    def test_zero_price_allowed(self):
        pmf = make_pmf(prices=(0.0, 2.0))
        assert pmf.outcome_at(0).price == 0.0
