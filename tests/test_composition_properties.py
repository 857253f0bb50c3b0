"""Hypothesis property suite: every ε layer composes through one core.

Sequential ε adds in input order and parallel ε costs only its max, in
every layer that accounts for privacy: :func:`compose` over recorded
entries, the per-run :class:`~repro.obs.PrivacyLedger`, the
:class:`~repro.privacy.composition.PrivacyAccountant`, an
:class:`~repro.privacy.budget.InMemoryBudgetStore` account and a
:class:`~repro.privacy.budget.JsonlBudgetStore` rebuilt from its
journal.  Each must report the same sequential, parallel and total ε,
bit for bit, on every Python.  The stream 0.1, 0.2, 0.3 is always
drawn: builtin ``sum()`` of floats is compensated from Python 3.12 on
and reads 0.6 there, where in-order addition reads 0.6000000000000001.
"""

import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetExceededError
from repro.obs import PrivacyLedger
from repro.privacy.budget import InMemoryBudgetStore, JsonlBudgetStore
from repro.privacy.composition import PrivacyAccountant, compose

#: Decimal ε values, which binary floats cannot hold exactly, plus any
#: positive float.
EPSILONS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.05, 0.7, 1.1]),
    st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
)

#: One charge: ``(ε, parallel, degraded)``.
CHARGES = st.lists(st.tuples(EPSILONS, st.booleans(), st.booleans()), min_size=1, max_size=30)

#: The stream that tells builtin ``sum()`` from in-order addition on 3.12.
SUM_SEPARATOR = [(0.1, False, False), (0.2, False, False), (0.3, False, False)]


def bits(*values: float) -> tuple[str, ...]:
    """Exact float identity, readable in a failure message."""
    return tuple(float(v).hex() for v in values)


def entries(charges) -> list[dict]:
    """Charges as ledger entries in their JSON form."""
    return [
        {"epsilon": eps, "composition": "parallel" if parallel else "sequential"}
        for eps, parallel, _ in charges
    ]


def charge_all(store, charges) -> None:
    for eps, parallel, degraded in charges:
        store.charge(
            "t", "p", mechanism="m", epsilon=eps, parallel=parallel, degraded=degraded
        )


class TestOneCore:
    @given(charges=CHARGES)
    @example(charges=SUM_SEPARATOR)
    @settings(max_examples=120, deadline=None)
    def test_every_layer_reports_the_same_bits(self, charges):
        composed = compose(entries(charges))
        expected = bits(composed.sequential, composed.parallel, composed.total)

        ledger = PrivacyLedger()
        accountant = PrivacyAccountant()
        for eps, parallel, degraded in charges:
            ledger.record("m", epsilon=eps, sensitivity=1.0, parallel=parallel, degraded=degraded)
            accountant.spend(eps, parallel=parallel)
        totals = (ledger.sequential_epsilon, ledger.parallel_epsilon, ledger.total_epsilon)
        assert bits(*totals) == expected
        assert bits(accountant.spent) == expected[2:]
        assert accountant._spent == composed  # its public face is only the total

        # A store composes the enforced charges and keeps degraded ones
        # apart, as one sequential sum.
        enforced = compose(entries(c for c in charges if not c[2]))
        degraded = compose({"epsilon": eps} for eps, _, is_degraded in charges if is_degraded)
        memory = InMemoryBudgetStore()
        charge_all(memory, charges)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "budget.jsonl")
            with JsonlBudgetStore(path) as journal:
                charge_all(journal, charges)
            with JsonlBudgetStore.open_for_audit(path) as reopened:
                replayed = reopened.account("t", "p")
        for account in (memory.account("t", "p"), replayed):
            assert bits(
                account.sequential_epsilon,
                account.parallel_epsilon,
                account.spent,
                account.degraded_epsilon,
            ) == bits(enforced.sequential, enforced.parallel, enforced.total, degraded.total)
        assert replayed.to_json_obj() == memory.account("t", "p").to_json_obj()

    def test_in_order_addition_not_a_compensated_sum(self):
        composed = compose(entries(SUM_SEPARATOR))
        assert bits(composed.sequential) == bits((0.1 + 0.2) + 0.3)
        assert composed.sequential != 0.6

    @given(
        charges=st.lists(st.tuples(EPSILONS, st.booleans()), min_size=1, max_size=30),
        limit=st.floats(0.1, 20.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_accountant_and_store_refuse_the_same_draw(self, charges, limit):
        """The accountant refuses before recording; the store retains and raises."""
        accountant = PrivacyAccountant(budget=limit)
        store = InMemoryBudgetStore(limit=limit)
        for eps, parallel in charges:
            try:
                accountant.spend(eps, parallel=parallel)
            except ValueError:
                with pytest.raises(BudgetExceededError):
                    store.charge("t", "p", mechanism="m", epsilon=eps, parallel=parallel)
                assert store.spent("t", "p") > accountant.spent
                return
            store.charge("t", "p", mechanism="m", epsilon=eps, parallel=parallel)
            assert bits(store.spent("t", "p")) == bits(accountant.spent)


class TestStoreMergeContract:
    """Snapshots merge to the serial bits when each holds whole accounts."""

    @given(
        charges=st.lists(
            st.tuples(st.sampled_from("abcd"), EPSILONS, st.booleans(), st.booleans()),
            max_size=40,
        ),
        order=st.randoms(use_true_random=False),
    )
    @example(charges=[("a", *charge) for charge in SUM_SEPARATOR], order=random.Random(0))
    @settings(max_examples=120, deadline=None)
    def test_one_snapshot_per_account_merges_to_the_serial_bits(self, charges, order):
        serial = InMemoryBudgetStore()
        shards: dict[str, InMemoryBudgetStore] = {}
        for tenant, eps, parallel, degraded in charges:
            for store in (serial, shards.setdefault(tenant, InMemoryBudgetStore())):
                store.charge(
                    tenant, "p", mechanism="m", epsilon=eps, parallel=parallel, degraded=degraded
                )
        parts = list(shards.values())
        order.shuffle(parts)
        merged = InMemoryBudgetStore()
        for part in parts:
            merged.merge_snapshot(part.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_an_account_split_across_snapshots_is_reordered(self):
        """The documented limit of the contract: a split account adds in another order."""
        serial, head, tail = InMemoryBudgetStore(), InMemoryBudgetStore(), InMemoryBudgetStore()
        for store, eps in ((head, 0.1), (tail, 0.2), (tail, 0.3)):
            for target in (serial, store):
                target.charge("a", "p", mechanism="m", epsilon=eps)
        merged = InMemoryBudgetStore()
        for part in (head, tail):
            merged.merge_snapshot(part.snapshot())
        assert (merged.spent("a", "p"), serial.spent("a", "p")) == (0.6, 0.6000000000000001)
