"""The centralized tolerance regime (repro.tolerances) and its edge cases.

Pins the constants' values, the single-source-of-truth aliasing across
the kernels that historically carried their own literals, the
``meets_demand`` predicate and a lint that keeps raw demand literals out
of the cover, engine, MCS and workload layers and the market
diagnostics, the grid-price-equals-asking-price inclusion rule the
``PRICE_DUST_REL`` guard exists for, and the degenerate
all-workers-affordable short circuit in ``group_prices_by_candidates``.
"""

import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.tolerances import (
    DEMAND_TOL,
    EPSILON_TOL,
    PRICE_DUST_REL,
    inflate_prices,
    meets_demand,
)

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


#: Layers (packages, or single modules) whose demand slack must come from
#: ``repro.tolerances`` rather than a raw ``1e-9`` literal.
DEMAND_LITERAL_LAYERS = ["coverage", "engine", "mcs", "workloads", "analysis/diagnostics.py"]

#: Modules of those layers allowed a raw ``1e-9`` literal, with the reason.
RAW_TOLERANCE_EXEMPT = {
    # The simplex pivot tolerance guards LP numerical stability, not a
    # coverage-versus-demand comparison; its value only coincides.
    "coverage/simplex.py",
    # The ε bisection's stopping width in invert_advanced_composition, not
    # a demand slack; its value only coincides.
    "mcs/budget_planner.py",
}


def is_literal(number: str, value: float) -> bool:
    try:
        return float(number) == value
    except ValueError:  # hex, octal, imaginary
        return False


def raw_literals(path: Path, value: float) -> list[int]:
    """Line numbers of ``value`` number tokens (docstrings and comments excluded)."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [
        tok.start[0]
        for tok in tokens
        if tok.type == tokenize.NUMBER and is_literal(tok.string, value)
    ]


def raw_demand_literals(path: Path) -> list[int]:
    """Line numbers of ``1e-9`` number tokens (docstrings and comments excluded)."""
    return raw_literals(path, 1e-9)


class TestNoRawDemandLiterals:
    @pytest.mark.parametrize("layer", DEMAND_LITERAL_LAYERS)
    def test_layer_routes_demand_slack_through_tolerances(self, layer):
        root = SRC / layer
        offenders = {}
        for path in [root] if root.is_file() else sorted(root.glob("*.py")):
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


#: Modules (or packages) whose ε-overspend slack must come from
#: ``repro.tolerances.EPSILON_TOL`` rather than a raw ``1e-12`` literal.
EPSILON_LITERAL_LAYERS = ["privacy/composition.py", "obs/ledger.py", "privacy/budget"]


class TestOneEpsilonTolerance:
    def test_pinned_value_and_aliases(self):
        from repro.privacy.budget import admission, store

        assert EPSILON_TOL == 1e-12
        assert store.LIMIT_ATOL is EPSILON_TOL
        assert admission.LIMIT_ATOL is EPSILON_TOL

    @pytest.mark.parametrize("layer", EPSILON_LITERAL_LAYERS)
    def test_layer_routes_overspend_slack_through_tolerances(self, layer):
        root = SRC / layer
        offenders = {}
        for path in [root] if root.is_file() else sorted(root.glob("*.py")):
            lines = raw_literals(path, 1e-12)
            if lines:
                offenders[path.relative_to(SRC).as_posix()] = lines
        assert not offenders, (
            f"raw 1e-12 literals; use repro.tolerances.EPSILON_TOL: {offenders}"
        )

    def test_layers_share_the_margin(self):
        """A budget spent in two draws passes every layer; past the slack fails."""
        from repro.exceptions import BudgetExceededError
        from repro.privacy.budget import InMemoryBudgetStore
        from repro.privacy.composition import PrivacyAccountant

        assert 0.1 + 0.2 > 0.3  # the summation dust the slack absorbs
        accountant = PrivacyAccountant(budget=0.3)
        accountant.spend(0.1)
        accountant.spend(0.2)
        with pytest.raises(ValueError):
            accountant.spend(2 * EPSILON_TOL)
        store = InMemoryBudgetStore(limit=0.3)
        store.charge("t", "p", mechanism="m", epsilon=0.1)
        store.charge("t", "p", mechanism="m", epsilon=0.2)
        with pytest.raises(BudgetExceededError):
            store.charge("t", "p", mechanism="m", epsilon=2 * EPSILON_TOL)


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
        # (Feasibility applies the same guard through
        # ``AuctionInstance.affordable_mask``; this pins it at the
        # grouping layer.)
        asking = 0.1 + 0.2
        assert asking > 0.3
        instance = make_instance([asking], price_grid=[0.3, 0.4])
        groups = group_prices_by_candidates(instance, np.array([0.3, 0.4]))
        assert len(groups) == 1
        assert np.array_equal(groups[0].candidates, [0])

    def test_feasibility_and_grouping_agree_on_who_can_afford_a_price(self):
        # Worker 1 asks one ulp above 4.1, inside the dust guard: grouping
        # counts it as affordable at 4.1, where workers 0 and 1 meet the
        # demand, so the feasible set must start there too, not at 4.2.
        asks = [3.0, float(np.nextafter(4.1, 5.0)), 6.0]
        instance = AuctionInstance(
            bids=BidProfile([Bid([0], ask) for ask in asks]),
            quality=np.full((3, 1), 0.5),
            demands=np.array([0.9]),
            price_grid=np.round(np.arange(3.0, 6.05, 0.1), 10),
            c_min=1.0,
            c_max=6.0,
        )
        prices = feasible_price_set(instance)
        assert prices[0] == 4.1
        groups = group_prices_by_candidates(instance, prices)
        assert np.array_equal(groups[0].candidates, [0, 1])
        assert instance.affordable_mask(4.1).tolist() == [True, True, False]

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
