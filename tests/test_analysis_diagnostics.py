"""Unit tests for repro.analysis.diagnostics."""

import numpy as np
import pytest

from repro.analysis.diagnostics import diagnose
from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.workloads.generator import generate_instance


class TestDiagnoseToyMarkets:
    def test_healthy_generated_market(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=0)
        report = diagnose(instance)
        assert report.coverable
        assert report.healthy
        assert report.feasible_fraction > 0
        assert float(np.min(report.supply_margin)) >= 1.0 - 1e-9

    def test_monopolized_task_detected(self):
        bids = BidProfile([Bid([0], 1.0), Bid([1], 1.0), Bid([1], 2.0)])
        instance = AuctionInstance(
            bids=bids,
            quality=np.full((3, 2), 0.8),
            demands=np.array([0.5, 0.5]),
            price_grid=np.array([1.0, 2.0]),
            c_min=1.0,
            c_max=2.0,
        )
        report = diagnose(instance)
        assert report.monopolized_tasks == (0,)
        assert not report.healthy

    def test_uncoverable_market(self):
        bids = BidProfile([Bid([0], 1.0)])
        instance = AuctionInstance(
            bids=bids,
            quality=np.array([[0.1]]),
            demands=np.array([5.0]),
            price_grid=np.array([1.0]),
            c_min=1.0,
            c_max=1.0,
        )
        report = diagnose(instance)
        assert not report.coverable
        assert report.feasible_fraction == 0.0
        assert report.cheapest_feasible_price is None
        assert float(report.supply_margin[0]) < 1.0

    def test_bottlenecks_worst_first(self, toy_instance):
        report = diagnose(toy_instance, n_bottlenecks=2)
        margins = report.supply_margin
        first, second = report.bottleneck_tasks
        assert margins[first] <= margins[second]

    def test_bidder_counts(self, toy_instance):
        report = diagnose(toy_instance)
        # Workers 0 and 2 bid task 0; workers 1 and 2 bid task 1.
        assert report.bidders_per_task.tolist() == [2, 2]

    def test_zero_demand_margin_is_infinite(self):
        bids = BidProfile([Bid([0, 1], 1.0)])
        instance = AuctionInstance(
            bids=bids,
            quality=np.full((1, 2), 0.5),
            demands=np.array([0.0, 0.3]),
            price_grid=np.array([1.0]),
            c_min=1.0,
            c_max=1.0,
        )
        report = diagnose(instance)
        assert np.isinf(report.supply_margin[0])

    def test_summary_is_readable(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=1)
        text = diagnose(instance).summary()
        assert "coverable: True" in text
        assert "feasible grid fraction" in text

    def test_cheapest_feasible_matches_price_set(self, tiny_setting):
        from repro.engine.price_set import feasible_price_set

        instance, _ = generate_instance(tiny_setting, seed=2)
        report = diagnose(instance)
        assert report.cheapest_feasible_price == pytest.approx(
            float(feasible_price_set(instance)[0])
        )

    def test_threshold_auction_viability_predicted(self, tiny_setting):
        """No monopolized tasks is necessary for the threshold auction.

        (Not sufficient — a worker can be irreplaceable through quality
        even with >1 bidders — but monopolies are the common case.)
        """
        from repro.exceptions import InfeasibleError
        from repro.mechanisms.threshold_auction import ThresholdPaymentAuction

        instance, _ = generate_instance(
            tiny_setting.with_population(n_workers=60), seed=3
        )
        report = diagnose(instance)
        if report.monopolized_tasks:
            with pytest.raises(InfeasibleError):
                ThresholdPaymentAuction().run(instance)
