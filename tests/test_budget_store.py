"""Unit tests for the multi-tenant budget accounts (repro.privacy.budget)."""

import pickle

import pytest

from repro.exceptions import BudgetExceededError
from repro.obs.ledger import LedgerEntry
from repro.privacy.budget import (
    NULL_BUDGET_STORE,
    BudgetAccount,
    InMemoryBudgetStore,
)


class TestBudgetAccountComposition:
    def test_sequential_charges_add(self):
        store = InMemoryBudgetStore()
        store.charge("t", "p", mechanism="m", epsilon=0.3)
        total = store.charge("t", "p", mechanism="m", epsilon=0.2)
        assert total == pytest.approx(0.5)
        assert store.spent("t", "p") == pytest.approx(0.5)

    def test_parallel_charges_take_the_max(self):
        store = InMemoryBudgetStore()
        store.charge("t", "p", mechanism="m", epsilon=0.3, parallel=True)
        total = store.charge("t", "p", mechanism="m", epsilon=0.2, parallel=True)
        assert total == pytest.approx(0.3)

    def test_mixed_composition_is_sum_plus_max(self):
        store = InMemoryBudgetStore()
        store.charge("t", "p", mechanism="m", epsilon=0.1)
        store.charge("t", "p", mechanism="m", epsilon=0.4, parallel=True)
        store.charge("t", "p", mechanism="m", epsilon=0.2)
        store.charge("t", "p", mechanism="m", epsilon=0.3, parallel=True)
        assert store.spent("t", "p") == pytest.approx(0.1 + 0.2 + 0.4)

    def test_accounts_are_keyed_by_tenant_and_principal(self):
        store = InMemoryBudgetStore()
        store.charge("a", "x", mechanism="m", epsilon=0.1)
        store.charge("a", "y", mechanism="m", epsilon=0.2)
        store.charge("b", "x", mechanism="m", epsilon=0.4)
        assert len(store) == 3
        assert store.spent("a", "x") == pytest.approx(0.1)
        assert store.spent("a", "y") == pytest.approx(0.2)
        assert store.spent("b", "x") == pytest.approx(0.4)
        assert [(a.tenant, a.principal) for a in store.accounts()] == [
            ("a", "x"), ("a", "y"), ("b", "x"),
        ]

    def test_epsilon_must_be_positive(self):
        store = InMemoryBudgetStore()
        with pytest.raises(ValueError):
            store.charge("t", "p", mechanism="m", epsilon=0.0)


class TestLimits:
    def test_charge_past_limit_raises_with_typed_fields(self):
        store = InMemoryBudgetStore(limit=0.5)
        store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.4)
        with pytest.raises(BudgetExceededError) as info:
            store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.4)
        err = info.value
        assert err.tenant == "acme"
        assert err.principal == "workers"
        assert err.mechanism == "dp-hsrc"
        assert "'acme'" in str(err) and "'dp-hsrc'" in str(err)
        # The violating charge is retained — an audit must show it.
        assert store.spent("acme", "workers") == pytest.approx(0.8)

    def test_typed_fields_survive_pickling(self):
        """Process-pool transit must not lose the tenant/mechanism."""
        err = BudgetExceededError("boom", tenant="t", principal="p", mechanism="m")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.tenant, clone.principal, clone.mechanism) == ("t", "p", "m")

    def test_exact_limit_is_allowed(self):
        store = InMemoryBudgetStore(limit=0.5)
        store.charge("t", "p", mechanism="m", epsilon=0.25)
        assert store.charge("t", "p", mechanism="m", epsilon=0.25) == pytest.approx(0.5)

    def test_per_tenant_limit_overrides_default(self):
        store = InMemoryBudgetStore(limit=0.1, limits={"vip": 5.0, "free": None})
        store.charge("vip", "p", mechanism="m", epsilon=1.0)
        store.charge("free", "p", mechanism="m", epsilon=1.0)
        with pytest.raises(BudgetExceededError):
            store.charge("other", "p", mechanism="m", epsilon=1.0)
        assert store.limit_for("vip") == 5.0
        assert store.limit_for("free") is None
        assert store.limit_for("other") == 0.1

    def test_remaining_clamps_at_zero(self):
        store = InMemoryBudgetStore(limit=0.5)
        store.charge("t", "p", mechanism="m", epsilon=0.5)
        assert store.remaining("t", "p") == 0.0
        assert store.remaining("unknown", "p") == 0.5  # a fresh account's limit

    def test_degraded_charges_never_raise_and_are_separate(self):
        store = InMemoryBudgetStore(limit=0.1)
        store.charge("t", "p", mechanism="m", epsilon=0.1)
        for _ in range(3):
            store.charge("t", "p", mechanism="baseline", epsilon=0.1, degraded=True)
        acct = store.account("t", "p")
        assert acct.spent == pytest.approx(0.1)
        assert acct.degraded_epsilon == pytest.approx(0.3)
        assert acct.n_degraded == 3
        assert acct.n_charges == 1


class TestRenewAndMerge:
    def test_renew_resets_enforced_spend_only(self):
        store = InMemoryBudgetStore(limit=0.5)
        store.charge("t", "p", mechanism="m", epsilon=0.5)
        store.charge("t", "p", mechanism="m", epsilon=0.1, degraded=True)
        store.renew("t", "p", epoch=3)
        acct = store.account("t", "p")
        assert acct.spent == 0.0
        assert acct.degraded_epsilon == pytest.approx(0.1)  # audit history kept
        assert acct.n_renewals == 1
        assert acct.epoch == 3
        # Budget is fresh again.
        assert store.charge("t", "p", mechanism="m", epsilon=0.5) == pytest.approx(0.5)

    def test_merge_snapshot_reproduces_serial_composition(self):
        serial = InMemoryBudgetStore()
        part_a = InMemoryBudgetStore()
        part_b = InMemoryBudgetStore()
        for target in (serial, part_a):
            target.charge("t", "p", mechanism="m", epsilon=0.125)
            target.charge("t", "p", mechanism="m", epsilon=0.5, parallel=True)
        for target in (serial, part_b):
            target.charge("t", "p", mechanism="m", epsilon=0.0625)
            target.charge("t", "p", mechanism="m", epsilon=0.25, parallel=True)
            target.charge("u", "p", mechanism="m", epsilon=0.75, degraded=True)
        merged = InMemoryBudgetStore()
        merged.merge_snapshot(part_a.snapshot())
        merged.merge_snapshot(part_b.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_snapshot_round_trips_through_pickle(self):
        store = InMemoryBudgetStore(limit=1.0)
        store.charge("t", "p", mechanism="m", epsilon=0.3)
        snap = pickle.loads(pickle.dumps(store.snapshot()))
        clone = InMemoryBudgetStore(limit=1.0)
        clone.merge_snapshot(snap)
        assert clone.spent("t", "p") == store.spent("t", "p")


class TestNullStore:
    def test_null_store_tracks_nothing(self):
        assert NULL_BUDGET_STORE.tracking is False
        assert NULL_BUDGET_STORE.charge("t", "p", mechanism="m", epsilon=9.0) == 0.0
        assert list(NULL_BUDGET_STORE.accounts()) == []
        assert NULL_BUDGET_STORE.remaining("t") is None

    def test_default_account_fields(self):
        acct = BudgetAccount(tenant="t", principal="p")
        assert acct.spent == 0.0
        assert acct.remaining is None


class TestLedgerEntryValidation:
    """Satellite: LedgerEntry.composition is validated at construction."""

    def test_known_compositions_pass(self):
        for rule in ("sequential", "parallel"):
            LedgerEntry(mechanism="m", epsilon=0.1, sensitivity=1.0, composition=rule)

    def test_unknown_composition_raises_with_context(self):
        with pytest.raises(ValueError, match="'bogus'.*'dp-hsrc'"):
            LedgerEntry(
                mechanism="dp-hsrc", epsilon=0.1, sensitivity=1.0, composition="bogus"
            )
