"""The centralized tolerance regime (repro.tolerances) and its edge cases.

Pins the constants' values, the single-source-of-truth aliasing across
the kernels that historically carried their own literals, the
``meets_demand`` predicate and a lint that keeps raw demand literals out
of the cover and engine layers, the grid-price-equals-asking-price
inclusion rule the ``PRICE_DUST_REL`` guard exists for, and the
degenerate all-workers-affordable short circuit in
``group_prices_by_candidates``.
"""

import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.tolerances import DEMAND_TOL, PRICE_DUST_REL, inflate_prices, meets_demand

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_instance(asking_prices, price_grid, n_tasks=3, demand=0.5):
    """Full-bundle unit-quality workers at the given asking prices."""
    n = len(asking_prices)
    bids = BidProfile([Bid(tuple(range(n_tasks)), p) for p in asking_prices])
    return AuctionInstance(
        bids=bids,
        quality=np.ones((n, n_tasks)),
        demands=np.full(n_tasks, float(demand)),
        price_grid=np.asarray(price_grid, dtype=float),
        c_min=0.1,
        c_max=float(max(price_grid)),
    )


class TestConstants:
    def test_pinned_values(self):
        assert DEMAND_TOL == 1e-9
        assert PRICE_DUST_REL == 1e-12

    def test_single_source_of_truth_aliases(self):
        from repro.coverage import greedy
        from repro.engine import price_set
        from repro.mechanisms import threshold_auction

        assert greedy._TOL is DEMAND_TOL
        assert threshold_auction._TOL is DEMAND_TOL
        assert price_set.meets_demand is meets_demand

    def test_inflate_prices_is_a_tiny_relative_bump(self):
        prices = np.array([1.0, 10.0, 100.0])
        inflated = inflate_prices(prices)
        assert np.all(inflated > prices)
        assert np.allclose(inflated, prices, rtol=1e-11)


class TestMeetsDemand:
    def test_slack_is_demand_tol(self):
        demands = np.array([1.0, 2.0])
        assert meets_demand(demands, demands)
        assert meets_demand(demands - 0.5 * DEMAND_TOL, demands)
        assert not meets_demand(demands - np.array([0.0, 2 * DEMAND_TOL]), demands)

    def test_explicit_tolerance(self):
        assert meets_demand([0.9], [1.0], tol=0.1 + 1e-12)
        assert not meets_demand([0.9], [1.0])

    def test_problem_feasibility_goes_through_the_predicate(self):
        from repro.coverage.problem import CoverProblem

        problem = CoverProblem(gains=np.array([[1.0, 0.0], [0.0, 1.0]]), demands=np.ones(2))
        assert problem.is_coverable()
        assert not problem.is_feasible([0])
        assert problem.is_feasible([0, 1])


#: Modules of the cover and engine layers allowed a raw ``1e-9`` literal,
#: with the reason.
RAW_TOLERANCE_EXEMPT = {
    # The simplex pivot tolerance guards LP numerical stability, not a
    # coverage-versus-demand comparison; its value only coincides.
    "coverage/simplex.py",
}


def is_demand_literal(number: str) -> bool:
    try:
        return float(number) == 1e-9
    except ValueError:  # hex, octal, imaginary
        return False


def raw_demand_literals(path: Path) -> list[int]:
    """Line numbers of ``1e-9`` number tokens (docstrings and comments excluded)."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [
        tok.start[0]
        for tok in tokens
        if tok.type == tokenize.NUMBER and is_demand_literal(tok.string)
    ]


class TestNoRawDemandLiterals:
    @pytest.mark.parametrize("layer", ["coverage", "engine"])
    def test_layer_routes_demand_slack_through_tolerances(self, layer):
        offenders = {}
        for path in sorted((SRC / layer).glob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in RAW_TOLERANCE_EXEMPT:
                continue
            lines = raw_demand_literals(path)
            if lines:
                offenders[rel] = lines
        assert not offenders, (
            "raw 1e-9 literals; use repro.tolerances.meets_demand / DEMAND_TOL: "
            f"{offenders}"
        )

    def test_exemption_is_still_needed(self):
        for rel in RAW_TOLERANCE_EXEMPT:
            assert raw_demand_literals(SRC / rel), f"{rel} no longer needs its exemption"


class TestGridPriceEqualsAskingPrice:
    """A grid price bitwise-equal to an asking price includes that worker."""

    def test_worker_joins_at_exactly_its_asking_price(self):
        instance = make_instance([1.5, 2.0], price_grid=[1.0, 1.5, 2.0, 3.0])
        prices = feasible_price_set(instance)
        # 1.0 affords nobody; 1.5 affords worker 0 exactly at its bid.
        assert np.array_equal(prices, [1.5, 2.0, 3.0])
        groups = group_prices_by_candidates(instance, prices)
        assert np.array_equal(groups[0].candidates, [0])
        assert np.array_equal(prices[groups[0].price_indices], [1.5])
        # Worker 1 joins at exactly 2.0, not one grid step later.
        assert np.array_equal(groups[1].candidates, [0, 1])
        assert np.array_equal(prices[groups[1].price_indices], [2.0, 3.0])

    def test_representation_dust_does_not_exclude_a_worker(self):
        # 0.1 + 0.2 > 0.3 by ~5.6e-17: without the relative inflation a
        # worker asking "0.3" would be priced out of the 0.3 grid point.
        # (Feasibility itself uses the exact mask — strictly conservative,
        # since the inflated grouping only ever *adds* workers — so the
        # guard is exercised at the grouping layer.)
        asking = 0.1 + 0.2
        assert asking > 0.3
        instance = make_instance([asking], price_grid=[0.3, 0.4])
        groups = group_prices_by_candidates(instance, np.array([0.3, 0.4]))
        assert len(groups) == 1
        assert np.array_equal(groups[0].candidates, [0])

    def test_guard_never_pulls_in_a_more_expensive_worker(self):
        instance = make_instance([1.5, 1.5 + 1e-6], price_grid=[1.5, 2.0])
        groups = group_prices_by_candidates(
            instance, feasible_price_set(instance)
        )
        assert np.array_equal(groups[0].candidates, [0])


class TestDegenerateSingleGroup:
    def test_all_workers_affordable_short_circuits_to_one_group(self):
        instance = make_instance([1.0, 1.0, 1.0], price_grid=[1.0, 2.0, 3.0, 4.0])
        prices = feasible_price_set(instance)
        groups = group_prices_by_candidates(instance, prices)
        assert len(groups) == 1
        assert np.array_equal(groups[0].candidates, [0, 1, 2])
        assert np.array_equal(groups[0].price_indices, np.arange(prices.size))

    def test_short_circuit_matches_the_brute_force_grouping(self):
        rng = np.random.default_rng(5)
        # Every asking price below the whole grid: degenerate by construction.
        instance = make_instance(
            rng.uniform(0.2, 0.9, size=8).tolist(), price_grid=[1.0, 1.5, 2.0]
        )
        prices = feasible_price_set(instance)
        groups = group_prices_by_candidates(instance, prices)
        assert len(groups) == 1
        for k, price in enumerate(prices):
            expected = np.flatnonzero(instance.prices <= price * (1 + PRICE_DUST_REL))
            assert np.array_equal(groups[0].candidates, expected)
            assert k in groups[0].price_indices

    def test_general_path_partition_covers_every_price_once(self):
        instance = make_instance([1.5, 2.0, 2.5], price_grid=[1.0, 1.5, 2.0, 2.5, 3.0])
        prices = feasible_price_set(instance)
        groups = group_prices_by_candidates(instance, prices)
        assert len(groups) > 1
        covered = np.concatenate([g.price_indices for g in groups])
        assert np.array_equal(np.sort(covered), np.arange(prices.size))
