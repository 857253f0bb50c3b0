"""Tier-1 tests for the online threshold mechanisms and arrival streams."""

import math

import numpy as np
import pytest

from repro.analysis.online import (
    OfflineBenchmark,
    analytic_competitive_bound,
    competitive_audit,
    offline_optimum,
)
from repro.auction.bids import Bid
from repro.exceptions import BudgetExceededError, ValidationError
from repro.mechanisms.online import (
    DPOnlineThresholdMechanism,
    OnlineOutcome,
    OnlineState,
    OnlineThresholdMechanism,
)
from repro.obs import MetricsRecorder, use_recorder
from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
from repro.workloads import OnlineArrivalStream, generate_instance, static_gains
from repro.workloads.streams import ARRIVAL_ORDERS


@pytest.fixture(scope="module")
def market(tiny_setting_module):
    instance, _pool = generate_instance(tiny_setting_module, seed=5)
    return instance


@pytest.fixture(scope="module")
def tiny_setting_module():
    from repro.workloads.settings import SimulationSetting

    return SimulationSetting(
        name="tiny",
        epsilon=0.5,
        c_min=1.0,
        c_max=10.0,
        bundle_size=(3, 5),
        skill_range=(0.3, 0.95),
        error_threshold_range=(0.3, 0.5),
        n_workers=40,
        n_tasks=6,
        price_range=(4.0, 10.0),
        grid_step=0.5,
    )


class TestCalibrationWithATinyBid:
    def test_tiny_bid_ranks_like_a_zero_bid_without_warning(self, market):
        """A positive bid whose density overflows ranks first, silently."""
        import warnings

        mechanism = OnlineThresholdMechanism(budget=60.0, n_stages=3)
        bundle = sorted(market.bids[3].bundle)
        tiny = market.replace_bid(3, Bid(bundle, 1e-310))
        zero = market.replace_bid(3, Bid(bundle, 0.0))
        sample = np.arange(market.n_workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threshold = mechanism._calibrate(tiny, sample, 30.0, None, None)
            outcome = mechanism.run(OnlineArrivalStream(tiny, order="uniform", seed=2))
        assert threshold == mechanism._calibrate(zero, sample, 30.0, None, None)
        assert math.isfinite(threshold) and outcome.spent <= 60.0


class TestArrivalStream:
    def test_every_order_is_a_permutation_of_survivors(self, market):
        for order in ARRIVAL_ORDERS:
            stream = OnlineArrivalStream(market, order=order, seed=3)
            arrivals = stream.arrivals
            assert sorted(arrivals.tolist()) == list(range(market.n_workers))

    def test_same_parameters_same_sequence(self, market):
        a = OnlineArrivalStream(market, order="uniform", seed=9, churn=0.2)
        b = OnlineArrivalStream(market, order="uniform", seed=9, churn=0.2)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_changes_sequence_and_fingerprint(self, market):
        a = OnlineArrivalStream(market, order="uniform", seed=1)
        b = OnlineArrivalStream(market, order="uniform", seed=2)
        assert not np.array_equal(a.arrivals, b.arrivals)
        assert a.fingerprint() != b.fingerprint()

    def test_churn_drops_workers_deterministically(self, market):
        full = OnlineArrivalStream(market, order="uniform", seed=4)
        churned = OnlineArrivalStream(market, order="uniform", seed=4, churn=0.4)
        assert churned.n_arrivals < full.n_arrivals
        assert churned.n_arrivals >= 1
        # The surviving set is shared with every order at the same seed.
        churned_given = OnlineArrivalStream(market, order="as_given", seed=4, churn=0.4)
        assert set(churned.arrivals.tolist()) == set(churned_given.arrivals.tolist())

    def test_adversarial_order_leads_with_highest_density(self, market):
        stream = OnlineArrivalStream(market, order="adversarial", seed=0)
        density = static_gains(market) / market.prices
        ordered = density[stream.arrivals]
        assert np.all(np.diff(ordered) <= 1e-12)

    def test_bursty_order_sorts_each_burst_by_price(self, market):
        stream = OnlineArrivalStream(market, order="bursty", seed=6, n_bursts=3)
        chunks = np.array_split(np.arange(stream.n_arrivals), 3)
        for chunk in chunks:
            prices = market.prices[stream.arrivals[chunk]]
            assert np.all(np.diff(prices) >= 0)

    def test_prefix_and_with_instance(self, market, tiny_setting_module):
        stream = OnlineArrivalStream(market, order="uniform", seed=7)
        assert np.array_equal(stream.prefix(5), stream.arrivals[:5])
        neighbor = market.replace_bid(0, Bid(sorted(market.bids[0].bundle), 9.0))
        moved = stream.with_instance(neighbor)
        assert np.array_equal(stream.arrivals, moved.arrivals)
        assert moved.instance is neighbor

    def test_invalid_parameters_raise(self, market):
        with pytest.raises(ValidationError):
            OnlineArrivalStream(market, order="nope")
        with pytest.raises(ValidationError):
            OnlineArrivalStream(market, churn=1.0)
        with pytest.raises(ValidationError):
            OnlineArrivalStream(market, n_bursts=0)


class TestOnlineThresholdMechanism:
    def test_outcome_respects_hard_budget_and_pays_winners(self, market):
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=3)
        stream = OnlineArrivalStream(market, order="uniform", seed=11)
        outcome = mechanism.run(stream)
        assert outcome.n_winners > 0
        assert outcome.spent <= mechanism.budget
        assert outcome.spent == pytest.approx(sum(outcome.payments))
        for worker, payment in zip(outcome.winners, outcome.payments):
            assert payment >= market.prices[worker]
        losers = set(range(market.n_workers)) - set(outcome.winners)
        vector = outcome.payment_vector()
        assert all(vector[w] == 0.0 for w in losers)

    def test_thresholds_are_monotone_non_increasing(self, market):
        mechanism = OnlineThresholdMechanism(budget=80.0, n_stages=4)
        stream = OnlineArrivalStream(market, order="uniform", seed=2)
        outcome = mechanism.run(stream)
        assert len(outcome.thresholds) == 4
        for earlier, later in zip(outcome.thresholds, outcome.thresholds[1:]):
            assert later <= earlier

    def test_replay_is_bit_identical(self, market):
        mechanism = OnlineThresholdMechanism(budget=100.0, n_stages=3)
        first = mechanism.run(OnlineArrivalStream(market, order="uniform", seed=8))
        second = mechanism.run(OnlineArrivalStream(market, order="uniform", seed=8))
        assert first == second

    def test_fast_screen_matches_reference_path(self, market):
        stream = OnlineArrivalStream(market, order="uniform", seed=13)
        screened = OnlineThresholdMechanism(budget=90.0, n_stages=3).run(stream)
        reference = OnlineThresholdMechanism(
            budget=90.0, n_stages=3, fast_screen=False
        ).run(stream)
        assert screened == reference

    def test_partial_run_is_a_prefix_of_the_full_run(self, market):
        mechanism = OnlineThresholdMechanism(budget=100.0, n_stages=4)
        stream = OnlineArrivalStream(market, order="uniform", seed=21)
        full = mechanism.run(stream)
        for upto in range(1, 5):
            partial = mechanism.run_stages(stream, upto=upto)
            n = partial.next_arrival
            assert tuple(partial.decisions) == full.decisions[:n]

    def test_finalize_refuses_partial_state(self, market):
        mechanism = OnlineThresholdMechanism(budget=100.0, n_stages=3)
        stream = OnlineArrivalStream(market, order="uniform", seed=21)
        partial = mechanism.run_stages(stream, upto=1)
        with pytest.raises(ValidationError):
            mechanism.finalize(stream, partial)

    def test_advance_past_last_stage_raises(self, market):
        mechanism = OnlineThresholdMechanism(budget=100.0, n_stages=2)
        stream = OnlineArrivalStream(market, order="uniform", seed=21)
        state = mechanism.run_stages(stream)
        with pytest.raises(ValidationError):
            mechanism.advance_stage(stream, state)

    def test_state_mismatch_is_rejected(self, market):
        mechanism = OnlineThresholdMechanism(budget=100.0, n_stages=2)
        stream = OnlineArrivalStream(market, order="uniform", seed=21)
        state = mechanism.initial_state(stream)
        state.next_arrival = 7  # not a stage boundary
        state.decisions = [False] * 7
        state.stage = 1
        with pytest.raises(ValidationError):
            mechanism.advance_stage(stream, state)

    def test_outcome_payload_round_trip(self, market):
        mechanism = OnlineThresholdMechanism(budget=70.0, n_stages=3)
        outcome = mechanism.run(OnlineArrivalStream(market, order="uniform", seed=5))
        assert OnlineOutcome.from_payload(outcome.to_payload()) == outcome

    def test_state_payload_round_trip_including_inf_threshold(self, market):
        mechanism = OnlineThresholdMechanism(budget=70.0, n_stages=3)
        stream = OnlineArrivalStream(market, order="uniform", seed=5)
        state = mechanism.run_stages(stream, upto=2)
        state.thresholds[0] = math.inf
        restored = OnlineState.from_payload(state.to_payload())
        assert restored.thresholds == state.thresholds
        assert restored.decisions == state.decisions
        assert np.array_equal(restored.covered, state.covered)

    def test_stage_spans_and_counters_are_recorded(self, market):
        recorder = MetricsRecorder()
        mechanism = OnlineThresholdMechanism(budget=90.0, n_stages=3)
        with use_recorder(recorder):
            mechanism.run(OnlineArrivalStream(market, order="uniform", seed=11))
        assert recorder.span_counts_by_kind().get("online_stage") == 3
        names = [s.name for s in recorder.spans if s.kind == "online_stage"]
        assert names == ["online.stage.0", "online.stage.1", "online.stage.2"]
        counters = recorder.counters
        assert counters["online.stage.calibrations"] == 3
        assert counters["online.arrivals"] + counters["online.observed"] == 40
        assert counters["online.accepts"] + counters["online.rejects"] == (
            counters["online.arrivals"]
        )

    def test_invalid_construction_raises(self):
        with pytest.raises(Exception):
            OnlineThresholdMechanism(budget=0.0)
        with pytest.raises(ValidationError):
            OnlineThresholdMechanism(budget=1.0, n_stages=0)


class TestDPOnlineMechanism:
    def test_seeded_runs_are_bit_identical(self, market):
        mechanism = DPOnlineThresholdMechanism(
            budget=110.0, epsilon=1.0, n_stages=3, record_ledger=False
        )
        stream = OnlineArrivalStream(market, order="uniform", seed=11)
        assert mechanism.run(stream, seed=7) == mechanism.run(stream, seed=7)

    def test_charged_epsilon_matches_ledger(self, market):
        recorder = MetricsRecorder()
        mechanism = DPOnlineThresholdMechanism(budget=110.0, epsilon=0.9, n_stages=3)
        with use_recorder(recorder):
            outcome = mechanism.run(
                OnlineArrivalStream(market, order="uniform", seed=11), seed=7
            )
        assert outcome.charged_epsilon == pytest.approx(0.9)
        assert recorder.ledger.total_epsilon == pytest.approx(0.9)
        assert len(recorder.ledger.entries) == 3
        assert all(e.mechanism == "online-dp" for e in recorder.ledger.entries)

    def test_refuse_policy_raises_before_any_spend(self, market):
        mechanism = DPOnlineThresholdMechanism(budget=110.0, epsilon=0.9, n_stages=3)
        stream = OnlineArrivalStream(market, order="uniform", seed=11)
        store = InMemoryBudgetStore(limit=0.1)
        with use_budget_store(store, tenant="poor"):
            with pytest.raises(BudgetExceededError):
                mechanism.run(stream, seed=7)
        assert store.remaining("poor") == pytest.approx(0.1)

    def test_degrade_policy_falls_back_and_tags(self, market):
        recorder = MetricsRecorder()
        mechanism = DPOnlineThresholdMechanism(budget=110.0, epsilon=0.9, n_stages=3)
        stream = OnlineArrivalStream(market, order="uniform", seed=11)
        with use_recorder(recorder), use_budget_store(
            InMemoryBudgetStore(limit=0.35), tenant="poor", on_exhausted="degrade"
        ):
            outcome = mechanism.run(stream, seed=7)
        assert outcome.degraded
        # Only the first stage's eps was charged before degrading.
        assert outcome.charged_epsilon == pytest.approx(0.3)
        assert recorder.counters["budget.degraded"] == 1

    def test_calibration_pmf_is_a_distribution(self, market):
        mechanism = DPOnlineThresholdMechanism(
            budget=110.0, epsilon=1.0, n_stages=2, record_ledger=False
        )
        stream = OnlineArrivalStream(market, order="uniform", seed=11)
        candidates, probabilities = mechanism.calibration_pmf(stream, stage=1)
        assert candidates.size == probabilities.size == mechanism.n_candidates
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.all(np.diff(candidates) > 0)

    def test_dp_outcome_respects_budget_and_rationality(self, market):
        mechanism = DPOnlineThresholdMechanism(
            budget=110.0, epsilon=1.0, n_stages=3, record_ledger=False
        )
        outcome = mechanism.run(
            OnlineArrivalStream(market, order="uniform", seed=11), seed=3
        )
        assert outcome.spent <= mechanism.budget
        for worker, payment in zip(outcome.winners, outcome.payments):
            assert payment >= market.prices[worker]


class TestOnlineCLI:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(["online", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_basic_run_prints_outcome(self, capsys):
        code, out, _ = self._run(
            capsys, "--budget", "120", "--stages", "3", "--workers", "60"
        )
        assert code == 0
        assert "online[online-threshold]" in out
        assert "winners=" in out and "thresholds=" in out

    def test_dp_run_reports_charged_epsilon(self, capsys):
        code, out, _ = self._run(
            capsys, "--budget", "120", "--workers", "60", "--dp", "0.9"
        )
        assert code == 0
        assert "online[online-dp]" in out
        assert "charged_epsilon=0.9" in out

    def test_runs_are_seed_deterministic(self, capsys):
        args = ("--budget", "120", "--workers", "60", "--seed", "5")
        _, first, _ = self._run(capsys, *args)
        _, second, _ = self._run(capsys, *args)
        assert first == second

    def test_crash_then_resume_matches_uninterrupted(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck.jsonl")
        args = ("--budget", "120", "--stages", "3", "--workers", "60")
        _, uninterrupted, _ = self._run(capsys, *args)
        code, _, err = self._run(
            capsys, *args, "--resume", ckpt, "--fault-plan", "crash@1"
        )
        assert code == 3
        assert "re-run the same command to resume" in err
        code, resumed, _ = self._run(capsys, *args, "--resume", ckpt)
        assert code == 0
        assert resumed == uninterrupted

    def test_exhausted_privacy_limit_exits_four(self, capsys):
        code, _, err = self._run(
            capsys, "--budget", "120", "--workers", "60",
            "--dp", "0.9", "--privacy-limit", "0.1",
        )
        assert code == 4
        assert "hint" in err

    def test_degrade_policy_finishes_the_stream(self, capsys):
        code, out, _ = self._run(
            capsys, "--budget", "120", "--workers", "60",
            "--dp", "0.9", "--privacy-limit", "0.35",
            "--on-exhausted", "degrade",
        )
        assert code == 0
        assert "degraded=True" in out

    def test_invalid_churn_exits_two(self, capsys):
        code, _, err = self._run(
            capsys, "--budget", "120", "--workers", "60", "--churn", "1.5"
        )
        assert code == 2
        assert "error" in err


class TestOfflineBenchmark:
    def test_offline_optimum_full_coverage_when_budget_ample(self, market):
        benchmark = offline_optimum(market, budget=1e6)
        assert isinstance(benchmark, OfflineBenchmark)
        assert benchmark.full_coverage
        assert benchmark.value == pytest.approx(market.total_demand())

    def test_offline_optimum_greedy_under_tight_budget(self, market):
        benchmark = offline_optimum(market, budget=float(market.prices.min()) + 0.1)
        assert not benchmark.full_coverage
        assert benchmark.spent <= float(market.prices.min()) + 0.1
        assert 0.0 < benchmark.value < market.total_demand()

    def test_competitive_audit_shapes_and_bound(self, market):
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=3)
        report = competitive_audit(mechanism, market, n_permutations=10, seed=3)
        assert report.n_permutations == 10
        assert report.ratios.shape == (10,)
        assert report.bound == analytic_competitive_bound(3)
        assert np.all(report.ratios >= 1.0 - 1e-9)
        assert 0.0 <= report.fraction_within_bound <= 1.0
        assert report.mean_regret == pytest.approx(
            report.offline_value - report.online_values.mean()
        )
