"""Deterministic chaos tests: fault plans, injection, retry, quarantine.

The contract under test (docs/RESILIENCE.md): a seeded
:class:`~repro.resilience.FaultPlan` injects the same failures every
run; :class:`~repro.bench.BatchAuctionRunner` completes the batch
anyway, quarantining exactly the plan's permanent indices and retrying
transient ones with their original seeds — so every non-faulted *and*
every recovered instance is bit-identical to a fault-free run, on the
serial and process backends alike.
"""

import pickle

import numpy as np
import pytest

from repro import DPHSRCAuction
from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.exceptions import InstanceExecutionError, TransientError, ValidationError
from repro.obs import MetricsRecorder, use_recorder
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FaultyMechanism,
    PoisonedResultError,
    ResilienceConfig,
    RetryPolicy,
    SimulatedCrashError,
    SimulatedTimeoutError,
    TransientFaultError,
    ensure_outcome_sane,
    use_resilience,
)

#: One fault of every kind; timeout@3 needs 5 failing attempts but the
#: retry budget below allows only 2, so it exhausts and quarantines,
#: while transient@5 recovers on its first retry.
MATRIX_PLAN = "crash@1,timeout@3:5,transient@5:1,poison@6"
MATRIX_RETRY = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0)
MATRIX_QUARANTINED = (1, 3, 6)

N_INSTANCES = 8
MECHANISM = DPHSRCAuction(epsilon=1.0)


def _batch():
    return seeded_auction_batch(N_INSTANCES, n_workers=25, n_tasks=5, seed=0)


def _clean_run():
    return BatchAuctionRunner(MECHANISM, backend="serial").run(_batch(), seed=42)


class TestFaultSpec:
    def test_defaults_by_kind(self):
        """Transient kinds default to one failing attempt, permanent to all."""
        assert FaultSpec("transient", 0).attempts == 1
        assert FaultSpec("timeout", 0).attempts == 1
        assert FaultSpec("crash", 0).attempts is None
        assert FaultSpec("poison", 0).attempts is None

    def test_fails_at_window(self):
        spec = FaultSpec("transient", 4, attempts=2)
        assert spec.fails_at(0) and spec.fails_at(1)
        assert not spec.fails_at(2)
        assert FaultSpec("crash", 0).fails_at(10**6)

    @pytest.mark.parametrize(
        "kind,exc",
        [
            ("crash", SimulatedCrashError),
            ("timeout", SimulatedTimeoutError),
            ("transient", TransientFaultError),
            ("poison", PoisonedResultError),
        ],
    )
    def test_build_error_types(self, kind, exc):
        assert isinstance(FaultSpec(kind, 0).build_error(), exc)

    def test_transient_kinds_are_retryable_exceptions(self):
        """The retry loop keys off TransientError, so the taxonomy must agree."""
        assert isinstance(FaultSpec("timeout", 0).build_error(), TransientError)
        assert isinstance(FaultSpec("transient", 0).build_error(), TransientError)
        assert not isinstance(FaultSpec("crash", 0).build_error(), TransientError)
        assert not isinstance(FaultSpec("poison", 0).build_error(), TransientError)

    @pytest.mark.parametrize("bad", [("bogus", 0, None), ("crash", -1, None), ("crash", 0, 0)])
    def test_validation(self, bad):
        kind, index, attempts = bad
        with pytest.raises(ValidationError):
            FaultSpec(kind, index, attempts)


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(MATRIX_PLAN)
        assert plan.indices == (1, 3, 5, 6)
        assert plan.spec_for(3).attempts == 5
        assert FaultPlan.parse(plan.spec_string()) == plan

    def test_parse_rejects_malformed(self):
        for text in ("crash", "crash@x", "crash@1:y", "nope@1"):
            with pytest.raises(ValidationError):
                FaultPlan.parse(text)

    def test_one_fault_per_index(self):
        with pytest.raises(ValidationError):
            FaultPlan.parse("crash@1,poison@1")

    def test_permanent_indices_respect_retry_budget(self):
        plan = FaultPlan.parse(MATRIX_PLAN)
        assert plan.permanent_indices(max_retries=2) == MATRIX_QUARANTINED
        assert plan.permanent_indices(max_retries=5) == (1, 6)
        assert plan.permanent_indices(max_retries=0) == (1, 3, 5, 6)

    def test_sample_is_seed_deterministic(self):
        a = FaultPlan.sample(50, 0.3, seed=np.random.SeedSequence(9))
        b = FaultPlan.sample(50, 0.3, seed=np.random.SeedSequence(9))
        c = FaultPlan.sample(50, 0.3, seed=np.random.SeedSequence(10))
        assert a == b
        assert a != c
        assert 0 < len(a.specs) < 50

    def test_plan_pickles(self):
        """Plans cross the process-pool boundary."""
        plan = FaultPlan.parse(MATRIX_PLAN)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestPoisonDetection:
    def test_corrupt_then_sane_check_rejects(self):
        outcome = _clean_run().outcomes[0]
        plan = FaultPlan.parse("poison@0")
        poisoned = plan.corrupt(outcome, 0)
        assert np.all(poisoned.payments < 0)
        with pytest.raises(PoisonedResultError):
            ensure_outcome_sane(poisoned)

    def test_clean_outcome_passes(self):
        outcome = _clean_run().outcomes[0]
        assert ensure_outcome_sane(outcome) is outcome

    def test_corrupt_leaves_other_indices_alone(self):
        outcome = _clean_run().outcomes[0]
        plan = FaultPlan.parse("poison@3")
        assert plan.corrupt(outcome, 0) is outcome


class TestFaultyMechanism:
    def test_faults_exactly_the_planned_call(self):
        instance = _batch()[0]
        faulty = FaultyMechanism(DPHSRCAuction(epsilon=1.0), FaultPlan.parse("transient@1"))
        first = faulty.run(instance, np.random.default_rng(3))
        with pytest.raises(TransientFaultError):
            faulty.run(instance, np.random.default_rng(3))
        third = faulty.run(instance, np.random.default_rng(3))
        bare = DPHSRCAuction(epsilon=1.0).run(instance, np.random.default_rng(3))
        assert first.price == third.price == bare.price
        assert np.array_equal(first.payments, bare.payments)


class TestBatchFaultMatrix:
    """The ISSUE's fault matrix: each kind, serial and process backends."""

    transport = "pickle"

    def _run(self, backend, **kwargs):
        runner = BatchAuctionRunner(
            MECHANISM,
            backend=backend,
            max_workers=2 if backend == "process" else None,
            transport=self.transport,
            **kwargs,
        )
        recorder = MetricsRecorder()
        chaos = ResilienceConfig(retry=MATRIX_RETRY, fault_plan=FaultPlan.parse(MATRIX_PLAN))
        with use_resilience(chaos), use_recorder(recorder):
            return runner.run(_batch(), seed=42), recorder

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_matrix(self, backend):
        clean = _clean_run()
        result, recorder = self._run(backend)
        # The batch completed and quarantined exactly the plan's
        # permanently failing indices, preserving input positions.
        assert result.n_instances == N_INSTANCES
        assert tuple(f.index for f in result.failed) == MATRIX_QUARANTINED
        for failure in result.failed:
            assert isinstance(failure, InstanceExecutionError)
            assert result.outcomes[failure.index] is None
        assert np.all(np.isnan(result.prices()[list(MATRIX_QUARANTINED)]))
        # Every non-quarantined instance — including transient@5, which
        # recovered via retry — is bit-identical to the fault-free run.
        for i in range(N_INSTANCES):
            if i in MATRIX_QUARANTINED:
                continue
            assert result.outcomes[i].price == clean.outcomes[i].price
            assert np.array_equal(result.outcomes[i].payments, clean.outcomes[i].payments)
            assert np.array_equal(result.outcomes[i].winners, clean.outcomes[i].winners)
        # Resilience events are recorded: timeout@3 burns its 2 retries
        # and transient@5 one; failures = 3 (timeout) + 1 (transient)
        # + 1 (crash) + 1 (poison).
        assert recorder.counters["resilience.retries"] == 3
        assert recorder.counters["resilience.failures"] == 6
        assert recorder.counters["resilience.recovered"] == 1
        assert recorder.counters["resilience.quarantined"] == 3

    def test_backends_agree_on_metrics(self):
        """Quarantine/retry accounting is backend-invariant."""
        _, serial_rec = self._run("serial")
        _, process_rec = self._run("process")
        assert serial_rec.counters == process_rec.counters
        assert serial_rec.ledger.entries == process_rec.ledger.entries

    def test_on_error_raise(self):
        with pytest.raises(InstanceExecutionError) as info:
            self._run("serial", on_error="raise")
        assert info.value.index == 1
        assert isinstance(info.value.cause, SimulatedCrashError)

    def test_cause_types_per_kind(self):
        result, _ = self._run("serial")
        causes = {f.index: type(f.cause) for f in result.failed}
        assert causes == {
            1: SimulatedCrashError,
            3: SimulatedTimeoutError,
            6: PoisonedResultError,
        }
        assert {f.index: f.attempts for f in result.failed} == {1: 1, 3: 3, 6: 1}


class TestBatchFaultMatrixSharedMemory(TestBatchFaultMatrix):
    """The same matrix with every instance rebuilt from a shared segment.

    A subclass rather than a ``transport`` parameter keeps the pickle
    cells' test ids; together the two classes cover all four backend ×
    transport cells of the one executor.
    """

    transport = "shared_memory"

    def test_transports_agree_on_metrics(self):
        """Quarantine/retry accounting is transport-invariant too."""
        _, shared_rec = self._run("process")
        _, pickled_rec = TestBatchFaultMatrix()._run("process")
        assert shared_rec.counters == pickled_rec.counters
        assert shared_rec.ledger.entries == pickled_rec.ledger.entries


class TestAmbientConfig:
    def test_runner_picks_up_ambient_plan(self):
        """CLI flags reach the runner through use_resilience, no plumbing."""
        config = ResilienceConfig(
            retry=MATRIX_RETRY, fault_plan=FaultPlan.parse("transient@0:1")
        )
        runner = BatchAuctionRunner(MECHANISM, backend="serial")
        with use_resilience(config):
            result = runner.run(_batch(), seed=42)
        assert result.failed == ()
        clean = _clean_run()
        assert result.outcomes[0].price == clean.outcomes[0].price

    def test_fault_free_runs_unchanged_by_default(self):
        """With resilience off, results match the pre-resilience contract."""
        result = _clean_run()
        assert result.failed == ()
        assert result.n_failed == 0
        assert not np.any(np.isnan(result.prices()))
