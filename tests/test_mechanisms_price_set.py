"""Unit tests for repro.engine.price_set."""

import numpy as np
import pytest

from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.exceptions import EmptyPriceSetError
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates


class TestFeasiblePriceSet:
    def test_toy_instance_feasible_tail(self, toy_instance):
        # Price 1 affords only worker 0 (task 1 uncovered) — infeasible.
        prices = feasible_price_set(toy_instance)
        assert prices.tolist() == [2.0, 3.0]

    def test_everything_feasible(self):
        bids = BidProfile([Bid([0], 1.0)])
        inst = AuctionInstance(
            bids=bids,
            quality=np.array([[0.9]]),
            demands=np.array([0.5]),
            price_grid=np.array([1.0, 2.0]),
            c_min=1.0,
            c_max=2.0,
        )
        assert feasible_price_set(inst).tolist() == [1.0, 2.0]

    def test_nothing_feasible_raises(self):
        bids = BidProfile([Bid([0], 1.0)])
        inst = AuctionInstance(
            bids=bids,
            quality=np.array([[0.1]]),
            demands=np.array([5.0]),
            price_grid=np.array([1.0, 2.0]),
            c_min=1.0,
            c_max=2.0,
        )
        with pytest.raises(EmptyPriceSetError):
            feasible_price_set(inst)

    def test_grid_price_below_all_bids_infeasible(self):
        bids = BidProfile([Bid([0], 5.0)])
        inst = AuctionInstance(
            bids=bids,
            quality=np.array([[0.9]]),
            demands=np.array([0.5]),
            price_grid=np.array([1.0, 5.0]),
            c_min=1.0,
            c_max=5.0,
        )
        assert feasible_price_set(inst).tolist() == [5.0]

    def test_grid_price_equal_to_bid_includes_worker(self):
        # Exact equality at the threshold must count (ρ_i <= p).
        bids = BidProfile([Bid([0], 2.0)])
        inst = AuctionInstance(
            bids=bids,
            quality=np.array([[0.9]]),
            demands=np.array([0.5]),
            price_grid=np.array([2.0, 3.0]),
            c_min=1.0,
            c_max=3.0,
        )
        assert feasible_price_set(inst)[0] == 2.0

    def test_monotone_tail_structure(self, tiny_setting):
        from repro.workloads.generator import generate_instance

        instance, _ = generate_instance(tiny_setting, seed=0)
        prices = feasible_price_set(instance)
        # The feasible set is always a suffix of the grid.
        grid = instance.price_grid
        start = grid.size - prices.size
        assert np.allclose(grid[start:], prices)


class TestGroupPrices:
    def test_toy_groups(self, toy_instance):
        prices = feasible_price_set(toy_instance)
        groups = group_prices_by_candidates(toy_instance, prices)
        assert len(groups) == 2
        # Price 2 affords workers {0, 1}; price 3 affords all.
        assert groups[0].candidates.tolist() == [0, 1]
        assert groups[1].candidates.tolist() == [0, 1, 2]
        assert groups[0].price_indices.tolist() == [0]
        assert groups[1].price_indices.tolist() == [1]

    def test_partition_covers_all_prices(self, tiny_setting):
        from repro.workloads.generator import generate_instance

        instance, _ = generate_instance(tiny_setting, seed=1)
        prices = feasible_price_set(instance)
        groups = group_prices_by_candidates(instance, prices)
        seen = np.concatenate([g.price_indices for g in groups])
        assert sorted(seen.tolist()) == list(range(prices.size))

    def test_candidate_sets_grow_monotonically(self, tiny_setting):
        from repro.workloads.generator import generate_instance

        instance, _ = generate_instance(tiny_setting, seed=2)
        prices = feasible_price_set(instance)
        groups = group_prices_by_candidates(instance, prices)
        for earlier, later in zip(groups, groups[1:]):
            assert set(earlier.candidates) < set(later.candidates)

    def test_group_problem_rows_match_candidates(self, toy_instance):
        prices = feasible_price_set(toy_instance)
        group = group_prices_by_candidates(toy_instance, prices)[0]
        expected = toy_instance.effective_quality[group.candidates]
        assert np.array_equal(group.problem.gains, expected)

    def test_candidates_are_exactly_affordable_workers(self, tiny_setting):
        from repro.workloads.generator import generate_instance

        instance, _ = generate_instance(tiny_setting, seed=3)
        prices = feasible_price_set(instance)
        for group in group_prices_by_candidates(instance, prices):
            group_price = float(prices[group.price_indices[0]])
            expected = np.flatnonzero(instance.prices <= group_price + 1e-9)
            assert group.candidates.tolist() == expected.tolist()
