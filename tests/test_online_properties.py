"""Hypothesis property suite for the online threshold mechanisms.

Each property drives a whole random market (a hypothesis-chosen seed into
the workload generator keeps instance structure realistic) through the
streaming mechanisms and asserts the online-auction invariants on every
outcome:

* hard budget feasibility on **every prefix** of the arrival stream;
* monotone non-increasing stage thresholds;
* individual rationality — winners are paid at least their ask, losers
  exactly zero;
* irrevocability — a partial run is a bit-exact prefix of the full run,
  and replays are bit-identical;
* truthfulness — each winner's payment is her critical payment: asking
  anything at or below it leaves her decision *and* payment unchanged,
  asking above it makes her lose.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.bids import Bid
from repro.mechanisms.online import (
    DPOnlineThresholdMechanism,
    OnlineThresholdMechanism,
)
from repro.workloads import OnlineArrivalStream, generate_instance
from repro.workloads.settings import SimulationSetting

TINY = SimulationSetting(
    name="online-prop",
    epsilon=0.5,
    c_min=1.0,
    c_max=10.0,
    bundle_size=(3, 5),
    skill_range=(0.3, 0.95),
    error_threshold_range=(0.3, 0.5),
    n_workers=20,
    n_tasks=5,
    price_range=(4.0, 10.0),
    grid_step=0.5,
)

BUDGETS = st.floats(10.0, 200.0)
STAGES = st.integers(1, 5)
SEEDS = st.integers(0, 10_000)


def _build(seed, budget, n_stages, order="uniform", dp_epsilon=None):
    instance, _pool = generate_instance(TINY, seed=seed)
    stream = OnlineArrivalStream(instance, order=order, seed=seed + 1)
    if dp_epsilon is None:
        mechanism = OnlineThresholdMechanism(budget=budget, n_stages=n_stages)
    else:
        mechanism = DPOnlineThresholdMechanism(
            budget=budget, epsilon=dp_epsilon, n_stages=n_stages
        )
    return instance, stream, mechanism


class TestPrefixBudgetFeasibility:
    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=30, deadline=None)
    def test_budget_never_exceeded_on_any_prefix(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        outcome = mechanism.run(stream, seed=seed)
        # Payments commit in arrival order, so the running total over the
        # acceptance sequence is exactly the spend after each prefix.
        running = 0.0
        for payment in outcome.payments:
            running += payment
            assert running <= budget + 1e-9
        assert outcome.spent == pytest.approx(running)

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES, order=st.sampled_from(
        ["uniform", "as_given", "adversarial", "bursty"]))
    @settings(max_examples=30, deadline=None)
    def test_budget_holds_under_every_arrival_order(
        self, seed, budget, n_stages, order
    ):
        instance, stream, mechanism = _build(seed, budget, n_stages, order=order)
        outcome = mechanism.run(stream, seed=seed)
        assert outcome.spent <= budget + 1e-9

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=20, deadline=None)
    def test_dp_variant_respects_budget(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages, dp_epsilon=1.0)
        outcome = mechanism.run(stream, seed=seed)
        assert outcome.spent <= budget + 1e-9

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=20, deadline=None)
    def test_stage_prefixes_respect_stage_allocations(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        for upto in range(1, n_stages + 1):
            partial = mechanism.run_stages(stream, seed=seed, upto=upto)
            assert partial.spent <= mechanism.stage_allocation(upto - 1) + 1e-9


class TestMonotoneThresholds:
    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=30, deadline=None)
    def test_thresholds_non_increasing(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        outcome = mechanism.run(stream, seed=seed)
        assert len(outcome.thresholds) == n_stages
        for earlier, later in zip(outcome.thresholds, outcome.thresholds[1:]):
            assert later <= earlier

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=20, deadline=None)
    def test_dp_thresholds_non_increasing(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages, dp_epsilon=0.8)
        outcome = mechanism.run(stream, seed=seed)
        for earlier, later in zip(outcome.thresholds, outcome.thresholds[1:]):
            assert later <= earlier


class TestIndividualRationality:
    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=30, deadline=None)
    def test_winners_paid_at_least_ask_losers_paid_zero(
        self, seed, budget, n_stages
    ):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        outcome = mechanism.run(stream, seed=seed)
        vector = outcome.payment_vector()
        winners = set(outcome.winners)
        for worker in range(instance.n_workers):
            if worker in winners:
                assert vector[worker] >= instance.prices[worker]
            else:
                assert vector[worker] == 0.0

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=20, deadline=None)
    def test_dp_winners_paid_at_least_ask(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages, dp_epsilon=1.2)
        outcome = mechanism.run(stream, seed=seed)
        for worker, payment in zip(outcome.winners, outcome.payments):
            assert payment >= instance.prices[worker]


class TestIrrevocabilityAndReplay:
    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=25, deadline=None)
    def test_replay_bit_identical(self, seed, budget, n_stages):
        _, stream_a, mechanism = _build(seed, budget, n_stages)
        _, stream_b, _ = _build(seed, budget, n_stages)
        assert mechanism.run(stream_a, seed=seed) == mechanism.run(
            stream_b, seed=seed
        )

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=20, deadline=None)
    def test_partial_runs_are_exact_prefixes(self, seed, budget, n_stages):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        full = mechanism.run(stream, seed=seed)
        for upto in range(1, n_stages + 1):
            partial = mechanism.run_stages(stream, seed=seed, upto=upto)
            n = partial.next_arrival
            assert tuple(partial.decisions) == full.decisions[:n]
            # Committed winners/payments never change later (irrevocable).
            assert tuple(partial.winners) == full.winners[: len(partial.winners)]
            assert tuple(partial.payments) == full.payments[: len(partial.payments)]

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=15, deadline=None)
    def test_fast_screen_equivalence(self, seed, budget, n_stages):
        instance, stream, _ = _build(seed, budget, n_stages)
        screened = OnlineThresholdMechanism(budget=budget, n_stages=n_stages).run(
            stream, seed=seed
        )
        reference = OnlineThresholdMechanism(
            budget=budget, n_stages=n_stages, fast_screen=False
        ).run(stream, seed=seed)
        assert screened == reference


class TestTruthfulness:
    """Critical-payment truthfulness via bid perturbation.

    Under a bid-independent arrival order, a worker's ask influences
    only her own accept check (the posted price never reads the ask), so
    the payment is exactly her critical value: any ask ≤ payment wins at
    the same payment, any ask > payment loses.
    """

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES, shrink=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_underbidding_never_changes_a_winners_payment(
        self, seed, budget, n_stages, shrink
    ):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        outcome = mechanism.run(stream, seed=seed)
        if not outcome.winners:
            return
        worker = outcome.winners[len(outcome.winners) // 2]
        payment = dict(zip(outcome.winners, outcome.payments))[worker]
        new_ask = shrink * min(payment, instance.prices[worker])
        neighbor = instance.replace_bid(
            worker, Bid(sorted(instance.bids[worker].bundle), new_ask)
        )
        perturbed = mechanism.run(stream.with_instance(neighbor), seed=seed)
        assert worker in perturbed.winners
        assert dict(zip(perturbed.winners, perturbed.payments))[worker] == payment

    @given(seed=SEEDS, budget=BUDGETS, n_stages=STAGES)
    @settings(max_examples=25, deadline=None)
    def test_overbidding_past_the_critical_payment_loses(
        self, seed, budget, n_stages
    ):
        instance, stream, mechanism = _build(seed, budget, n_stages)
        outcome = mechanism.run(stream, seed=seed)
        if not outcome.winners:
            return
        worker = outcome.winners[0]
        payment = dict(zip(outcome.winners, outcome.payments))[worker]
        assert math.isfinite(payment)
        neighbor = instance.replace_bid(
            worker,
            Bid(sorted(instance.bids[worker].bundle), payment * (1 + 1e-9) + 0.01),
        )
        perturbed = mechanism.run(stream.with_instance(neighbor), seed=seed)
        assert worker not in perturbed.winners
