"""Unit tests for the privacy-budget ledger (repro.obs.ledger)."""

import pytest

from repro.exceptions import BudgetExceededError, ValidationError
from repro.obs import LedgerEntry, PrivacyLedger
from repro.privacy.composition import compose


class TestRecord:
    def test_sequential_draws_add(self):
        ledger = PrivacyLedger()
        assert ledger.record("dp-hsrc", epsilon=0.1, sensitivity=500.0) == pytest.approx(0.1)
        assert ledger.record("dp-hsrc", epsilon=0.2, sensitivity=500.0) == pytest.approx(0.3)
        assert ledger.total_epsilon == pytest.approx(0.3)
        assert ledger.sequential_epsilon == pytest.approx(0.3)
        assert ledger.parallel_epsilon == 0.0
        assert len(ledger) == 2

    def test_parallel_draws_cost_only_their_max(self):
        ledger = PrivacyLedger()
        ledger.record("a", epsilon=0.5, sensitivity=1.0, parallel=True)
        ledger.record("b", epsilon=0.3, sensitivity=1.0, parallel=True)
        ledger.record("c", epsilon=0.1, sensitivity=1.0)
        assert ledger.parallel_epsilon == pytest.approx(0.5)
        assert ledger.total_epsilon == pytest.approx(0.6)

    def test_entries_keep_mechanism_and_attrs(self):
        ledger = PrivacyLedger()
        ledger.record("dp-hsrc", epsilon=0.1, sensitivity=30.0, support_size=7)
        entry = ledger.entries[0]
        assert isinstance(entry, LedgerEntry)
        assert entry.mechanism == "dp-hsrc"
        assert entry.composition == "sequential"
        assert entry.attrs == {"support_size": 7}
        assert entry.to_json_obj()["type"] == "ledger"

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_epsilon_rejected(self, eps):
        with pytest.raises(ValidationError, match="epsilon"):
            PrivacyLedger().record("m", epsilon=eps, sensitivity=1.0)

    def test_nonpositive_sensitivity_rejected(self):
        with pytest.raises(ValidationError, match="sensitivity"):
            PrivacyLedger().record("m", epsilon=0.1, sensitivity=0.0)

    def test_discarding_ledger_keeps_nothing(self):
        ledger = PrivacyLedger(keep=False)
        assert ledger.record("m", epsilon=1.0, sensitivity=1.0) == 0.0
        assert len(ledger) == 0
        assert ledger.total_epsilon == 0.0


class TestAmbientStoreForwarding:
    def test_store_overspend_retains_the_local_entry(self):
        from repro.privacy.budget import InMemoryBudgetStore, use_budget_store

        store = InMemoryBudgetStore(limit=0.5)
        ledger = PrivacyLedger()
        with use_budget_store(store, tenant="acme"):
            ledger.record("m", epsilon=0.4, sensitivity=1.0)
            with pytest.raises(BudgetExceededError, match="acme"):
                ledger.record("m", epsilon=0.2, sensitivity=1.0)
        # Both sides keep the violating expenditure, so the run's trace
        # and the budget account agree on the overspending draw.
        assert len(ledger) == 2
        assert ledger.total_epsilon == pytest.approx(0.6)
        assert store.spent("acme") == pytest.approx(0.6)

    def test_store_overspend_raises_even_for_non_keeping_ledger(self):
        from repro.privacy.budget import InMemoryBudgetStore, use_budget_store

        store = InMemoryBudgetStore(limit=0.5)
        ledger = PrivacyLedger(keep=False)
        with use_budget_store(store, tenant="acme"):
            ledger.record("m", epsilon=0.4, sensitivity=1.0)
            with pytest.raises(BudgetExceededError):
                ledger.record("m", epsilon=0.2, sensitivity=1.0)
        assert len(ledger) == 0
        assert store.spent("acme") == pytest.approx(0.6)


class TestSnapshotMerge:
    def test_snapshot_round_trips(self):
        src = PrivacyLedger()
        src.record("a", epsilon=0.1, sensitivity=1.0, n_workers=10)
        src.record("b", epsilon=0.2, sensitivity=2.0, parallel=True)
        dst = PrivacyLedger()
        dst.merge_snapshot(src.snapshot())
        assert dst.snapshot() == src.snapshot()
        assert dst.total_epsilon == pytest.approx(src.total_epsilon)

    def test_merge_appends_in_order(self):
        sink = PrivacyLedger()
        for name in ("first", "second"):
            part = PrivacyLedger()
            part.record(name, epsilon=0.1, sensitivity=1.0)
            sink.merge(part)
        assert [e.mechanism for e in sink.entries] == ["first", "second"]
        assert sink.total_epsilon == pytest.approx(0.2)

    def test_discarding_ledger_ignores_merges(self):
        part = PrivacyLedger()
        part.record("m", epsilon=0.5, sensitivity=1.0)
        sink = PrivacyLedger(keep=False)
        sink.merge(part)
        assert len(sink) == 0


class _Unreadable(list):
    """An entries list that refuses iteration: summing it would raise."""

    def __iter__(self):
        raise AssertionError("the ledger re-read its entries")


def _totals(ledger: PrivacyLedger) -> tuple:
    return ledger.sequential_epsilon, ledger.parallel_epsilon, ledger.total_epsilon


class TestRunningComposition:
    """The ledger's totals are a running composition, never a re-sum."""

    DRAWS = [(0.1, False), (0.7, True), (0.2, False), (0.3, False), (0.4, True)]

    def test_record_merge_and_totals_never_iterate_the_entries(self):
        part = PrivacyLedger()
        for eps, parallel in self.DRAWS:
            part.record("m", epsilon=eps, sensitivity=1.0, parallel=parallel)
        ledger = PrivacyLedger()
        ledger.entries = _Unreadable()
        for eps, parallel in self.DRAWS:
            ledger.record("m", epsilon=eps, sensitivity=1.0, parallel=parallel)
        ledger.merge_snapshot(part.snapshot())
        assert len(ledger) == 2 * len(self.DRAWS)
        expected = PrivacyLedger()
        for _ in range(2):
            expected.merge_snapshot(part.snapshot())
        assert _totals(ledger) == _totals(expected)

    def test_totals_equal_compose_of_the_entries_bitwise(self):
        ledger = PrivacyLedger()
        for eps, parallel in self.DRAWS:
            ledger.record("m", epsilon=eps, sensitivity=1.0, parallel=parallel)
        composed = compose(ledger.snapshot()["entries"])
        assert _totals(ledger) == (composed.sequential, composed.parallel, composed.total)
        # In-order addition, not a compensated sum(): 0.1 + 0.2 + 0.3.
        assert ledger.sequential_epsilon == (0.1 + 0.2) + 0.3

    def test_snapshot_budget_is_always_null(self):
        ledger = PrivacyLedger()
        ledger.record("m", epsilon=0.5, sensitivity=1.0)
        assert ledger.snapshot()["budget"] is None
