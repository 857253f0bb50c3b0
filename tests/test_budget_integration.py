"""End-to-end budget-subsystem tests: ledger forwarding, mechanism
admission, multi-tenant batches, the forced-serial sweep, and the CLI.

The two load-bearing invariants:

* **No store configured → nothing changes.**  The ambient default is the
  null scope, so every golden suite in the repo exercises this; here we
  additionally pin that an *active but unlimited* store leaves outcomes
  bit-identical (charging is observation, never perturbation).
* **Degrade isolates tenants.**  An exhausted tenant falls back to the
  baseline mechanism mid-batch while every other tenant's DP-hSRC
  outcome stays bit-for-bit equal to a no-budget run.
"""

import numpy as np
import pytest

from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.cli import main
from repro.exceptions import BudgetExceededError
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder, PrivacyLedger, use_recorder
from repro.privacy.budget import (
    BudgetScope,
    InMemoryBudgetStore,
    JsonlBudgetStore,
    use_budget_scope,
    use_budget_store,
)
from repro.privacy.composition import compose
from repro.resilience import FaultPlan, ResilienceConfig, use_resilience


class TestLedgerForwarding:
    def test_record_charges_the_ambient_account(self):
        store = InMemoryBudgetStore()
        ledger = PrivacyLedger()
        with use_budget_store(store, tenant="acme", principal="eu"):
            ledger.record("dp-hsrc", epsilon=0.25, sensitivity=10.0)
            ledger.record("dp-hsrc", epsilon=0.5, sensitivity=10.0, parallel=True)
        acct = store.account("acme", "eu")
        assert acct.sequential_epsilon == pytest.approx(0.25)
        assert acct.parallel_epsilon == pytest.approx(0.5)
        # The per-run view is unchanged by the forwarding.
        assert ledger.total_epsilon == pytest.approx(0.75)

    def test_non_keeping_ledger_still_forwards(self):
        """Budget enforcement must not depend on observability being on."""
        store = InMemoryBudgetStore()
        ledger = PrivacyLedger(keep=False)
        with use_budget_store(store, tenant="acme"):
            ledger.record("dp-hsrc", epsilon=0.25, sensitivity=10.0)
        assert len(ledger) == 0
        assert store.spent("acme") == pytest.approx(0.25)

    def test_merge_snapshot_never_double_charges(self):
        """Merged entries were charged by the process that recorded them
        live; merging must not charge them again."""
        store = InMemoryBudgetStore()
        source = PrivacyLedger()
        source.record("dp-hsrc", epsilon=0.25, sensitivity=10.0)
        target = PrivacyLedger()
        with use_budget_store(store, tenant="acme"):
            target.merge_snapshot(source.snapshot())
        assert target.total_epsilon == pytest.approx(0.25)
        assert store.spent("acme") == 0.0

    def test_store_limit_enforced_through_the_ledger(self):
        store = InMemoryBudgetStore(limit=0.4)
        ledger = PrivacyLedger()
        with use_budget_store(store, tenant="acme"):
            ledger.record("dp-hsrc", epsilon=0.25, sensitivity=10.0)
            with pytest.raises(BudgetExceededError, match="'acme'"):
                ledger.record("dp-hsrc", epsilon=0.25, sensitivity=10.0)


class TestOutcomeInvariance:
    def test_unlimited_store_leaves_outcomes_bit_identical(self):
        instances = seeded_auction_batch(4, n_workers=20, n_tasks=4, seed=5)
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        golden = runner.run(instances, seed=11)
        store = InMemoryBudgetStore()  # active, but unlimited
        with use_budget_store(store, tenant="acme"):
            budgeted = runner.run(instances, seed=11)
        assert np.array_equal(golden.prices(), budgeted.prices())
        assert all(not outcome.degraded for outcome in budgeted.outcomes)
        # ...and the spend was fully accounted while doing so.
        assert store.account("acme", "default").n_charges == 4

    def test_budget_active_forces_the_serial_backend(self):
        instances = seeded_auction_batch(4, n_workers=15, n_tasks=3, seed=2)
        runner = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.5), backend="process", max_workers=2
        )
        with use_budget_store(InMemoryBudgetStore()):
            result = runner.run(instances, seed=1)
        assert result.backend == "serial"
        assert result.max_workers == 1

    def test_tenants_length_is_validated(self):
        instances = seeded_auction_batch(2, n_workers=15, n_tasks=3, seed=2)
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        with pytest.raises(ValueError, match="tenants has length"):
            runner.run(instances, seed=1, tenants=["only-one"])


class TestMultiTenantBatch:
    TENANTS = ["rich", "poor", "rich", "poor"]

    def _batch(self):
        return seeded_auction_batch(4, n_workers=20, n_tasks=4, seed=9)

    def test_degrade_isolates_the_exhausted_tenant(self):
        instances = self._batch()
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        golden = runner.run(instances, seed=13)

        store = InMemoryBudgetStore(limits={"rich": None, "poor": 0.5})
        with use_budget_store(store, on_exhausted="degrade"):
            result = runner.run(instances, seed=13, tenants=self.TENANTS)

        flags = [outcome.degraded for outcome in result.outcomes]
        # poor affords its first draw (0.5 of 0.5) and degrades on the
        # second; rich never degrades.
        assert flags == [False, False, False, True]
        # Every non-degraded instance is bit-identical to the no-budget run.
        for i in (0, 1, 2):
            assert result.outcomes[i].price == golden.outcomes[i].price
            assert np.array_equal(
                result.outcomes[i].winners, golden.outcomes[i].winners
            )
        poor = store.account("poor", "default")
        assert poor.spent == pytest.approx(0.5)
        assert poor.degraded_epsilon == pytest.approx(0.5)
        assert store.account("rich", "default").spent == pytest.approx(1.0)

    def test_degraded_draws_are_counted(self):
        instances = self._batch()
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        recorder = MetricsRecorder()
        store = InMemoryBudgetStore(limits={"rich": None, "poor": 0.5})
        with use_recorder(recorder), use_budget_store(store, on_exhausted="degrade"):
            runner.run(instances, seed=13, tenants=self.TENANTS)
        assert recorder.counters["budget.degraded"] == 1

    def test_refuse_quarantines_only_the_exhausted_tenant(self):
        instances = self._batch()
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        store = InMemoryBudgetStore(limits={"rich": None, "poor": 0.5})
        with use_budget_store(store, on_exhausted="refuse"):
            result = runner.run(instances, seed=13, tenants=self.TENANTS)
        assert [err.index for err in result.failed] == [3]
        assert isinstance(result.failed[0].cause, BudgetExceededError)
        assert result.failed[0].cause.tenant == "poor"
        assert result.outcomes[3] is None
        assert all(result.outcomes[i] is not None for i in (0, 1, 2))


class TestFailedAttemptsKeepTheirDraws:
    """A failed unit's draws were charged, so the run's ledger keeps them.

    Each batch draws once per instance, in-process under the active
    store, whatever the backend and transport.  Whether a unit fails
    after its draw (poisoned) or at it (the charge overspends), the
    ledger holds one entry per store charge and composes the same ε.
    """

    def _check(self, recorder, result, store):
        account = store.account("default", "default")
        ledgers = (recorder.ledger.snapshot(), result.metrics["ledger"])
        for entries in (ledger["entries"] for ledger in ledgers):
            assert len(entries) == account.n_charges == 4
            assert compose(entries).total.hex() == account.spent.hex()
        assert recorder.ledger.total_epsilon.hex() == account.spent.hex()

    @pytest.mark.parametrize("transport", ["pickle", "shared_memory"])
    def test_poisoned_unit_keeps_its_draw(self, transport):
        runner = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.5),
            backend="process",
            transport=transport,
        )
        recorder, store = MetricsRecorder(), InMemoryBudgetStore()
        chaos = ResilienceConfig(fault_plan=FaultPlan.parse("poison@1"))
        with use_resilience(chaos), use_recorder(recorder), use_budget_store(store):
            result = runner.run(seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=0), seed=3)
        assert [err.index for err in result.failed] == [1]
        self._check(recorder, result, store)
        assert store.spent("default") == 2.0

    @pytest.mark.parametrize("transport", ["pickle", "shared_memory"])
    def test_overspending_units_keep_their_draws(self, transport):
        runner = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.4), backend="process", transport=transport
        )
        recorder, store = MetricsRecorder(), InMemoryBudgetStore(limit=1.0)
        with use_recorder(recorder), use_budget_scope(BudgetScope(store=store)):
            result = runner.run(seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=0), seed=3)
        assert [err.index for err in result.failed] == [2, 3]
        assert all(isinstance(err.cause, BudgetExceededError) for err in result.failed)
        self._check(recorder, result, store)


class TestSweepUnderBudget:
    def test_sweep_forces_serial_and_charges_once(self):
        from repro.experiments.runner import payment_sweep
        from repro.workloads import SETTING_I

        mechs = {"dp_hsrc": DPHSRCAuction(epsilon=0.1)}
        points = [(None, 3), (None, 4), (None, 5)]
        golden = payment_sweep(SETTING_I, mechs, points, n_price_samples=50, seed=1)
        store = InMemoryBudgetStore()
        with use_budget_store(store, tenant="acme"):
            budgeted = payment_sweep(
                SETTING_I, mechs, points, n_price_samples=50, seed=1, max_workers=4
            )
        assert budgeted == golden
        # One dp-hsrc charge per point — the pool was not used, so no
        # charge was lost to a worker process and none was duplicated.
        assert store.account("acme", "default").n_charges == len(points)


class TestCLIBudgetFlags:
    def test_budget_flags_with_journal_and_audit(self, capsys, tmp_path):
        journal = tmp_path / "budget.jsonl"
        assert main([
            "figure5", "--fast", "--budget", "50", "--budget-store", str(journal),
            "--on-exhausted", "degrade", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "privacy budget audit" in out
        assert journal.exists()
        # The audit pseudo-experiment replays the journal standalone.
        assert main(["audit", "--budget-store", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "default/default" in out

    def test_budget_flags_do_not_change_the_series(self, capsys):
        main(["figure5", "--fast", "--seed", "4"])
        bare = capsys.readouterr().out
        # figure5's ε-sweep composes to ~12k, so 20000 never exhausts.
        main(["figure5", "--fast", "--seed", "4", "--budget", "20000"])
        budgeted = capsys.readouterr().out
        assert bare == budgeted

    def test_exhausted_refuse_exits_4(self, capsys):
        assert main(["figure5", "--fast", "--budget", "0.15"]) == 4
        err = capsys.readouterr().err
        assert "budget" in err
        assert "--on-exhausted degrade" in err

    def test_exhausted_degrade_completes(self, capsys):
        assert main([
            "figure5", "--fast", "--budget", "0.15", "--on-exhausted", "degrade",
        ]) == 0

    def test_audit_requires_a_store_path(self, capsys):
        assert main(["audit"]) == 2
        assert "--budget-store" in capsys.readouterr().err

    def test_audit_on_missing_journal_exits_2(self, capsys, tmp_path):
        assert main(["audit", "--budget-store", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_journal_accumulates_across_runs(self, capsys, tmp_path):
        journal = tmp_path / "budget.jsonl"
        args = ["figure5", "--fast", "--budget-store", str(journal)]
        assert main(args) == 0
        first = JsonlBudgetStore.open_for_audit(journal).spent("default")
        assert main(args) == 0
        second = JsonlBudgetStore.open_for_audit(journal).spent("default")
        assert first > 0
        assert second == pytest.approx(2 * first)
