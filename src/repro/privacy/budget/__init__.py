"""Multi-tenant privacy-budget management (the productionized ledger).

The paper's DP guarantee (Theorem 2) covers *one* auction; a platform
running repeated auctions only keeps a meaningful guarantee if ε
composition is enforced **across** runs, per tenant and per data
subject.  This package promotes the per-run audit trail of
:class:`~repro.obs.PrivacyLedger` to a first-class budget subsystem:

* :mod:`~repro.privacy.budget.store` — :class:`BudgetStore` accounts
  keyed by ``(tenant, principal)``, composed by the one pure-DP core
  (:class:`~repro.privacy.composition.Composition`) and the one place a
  budget limit is enforced; the sharded
  :class:`InMemoryBudgetStore` backend and the default
  :data:`NULL_BUDGET_STORE` (unlimited, non-recording — existing call
  sites are unchanged until a store is installed).
* :mod:`~repro.privacy.budget.journal` — :class:`JsonlBudgetStore`,
  the append-only JSON-lines backend (schema ``repro-budget/1``,
  fsync'd, torn-line tolerant) built on the shared
  :class:`~repro.resilience.JsonlJournal` machinery, so budget state
  survives crash/resume bit-identically.
* :mod:`~repro.privacy.budget.admission` —
  :class:`AdmissionController`, consulted by the DP mechanisms before
  each ε-consuming draw: ``refuse`` raises
  :class:`~repro.exceptions.BudgetExceededError`, ``degrade`` falls
  back to :class:`~repro.mechanisms.BaselineAuction` with the outcome
  tagged ``degraded=True``, and a :class:`RenewalSchedule` refreshes
  budgets by auction count or logical-clock epoch.
* :mod:`~repro.privacy.budget.context` — :func:`use_budget_store` /
  :func:`current_budget_scope`, the ambient :class:`BudgetScope` (the
  ``budget`` field of the one :class:`~repro.context.RunContext`)
  through which :class:`~repro.obs.PrivacyLedger` forwards every
  recorded draw.
* :mod:`~repro.privacy.budget.report` — :func:`render_audit_report`,
  the per-tenant spend report behind ``python -m repro audit``.

Quickstart
----------
>>> from repro import DPHSRCAuction
>>> from repro.bench import seeded_auction_batch
>>> from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
>>> [instance] = seeded_auction_batch(1, n_workers=25, n_tasks=5, seed=0)
>>> store = InMemoryBudgetStore(limit=1.0)
>>> with use_budget_store(store, tenant="acme", on_exhausted="degrade"):
...     outcome = DPHSRCAuction(epsilon=0.6).run(instance, seed=1)
...     fallback = DPHSRCAuction(epsilon=0.6).run(instance, seed=1)
>>> outcome.degraded, fallback.degraded
(False, True)
>>> store.spent("acme")
0.6
"""

from repro.privacy.budget.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionDecision,
    RenewalSchedule,
)
from repro.privacy.budget.context import (
    NULL_BUDGET_SCOPE,
    BudgetScope,
    current_budget_scope,
    current_budget_store,
    use_budget_scope,
    use_budget_store,
)
from repro.privacy.budget.journal import BUDGET_SCHEMA, JsonlBudgetStore
from repro.privacy.budget.report import render_audit_report
from repro.privacy.budget.store import (
    NULL_BUDGET_STORE,
    BudgetAccount,
    BudgetStore,
    InMemoryBudgetStore,
    NullBudgetStore,
)

__all__ = [
    # store
    "BudgetAccount",
    "BudgetStore",
    "NullBudgetStore",
    "NULL_BUDGET_STORE",
    "InMemoryBudgetStore",
    # journal
    "BUDGET_SCHEMA",
    "JsonlBudgetStore",
    # admission
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionController",
    "RenewalSchedule",
    # context
    "BudgetScope",
    "NULL_BUDGET_SCOPE",
    "current_budget_scope",
    "current_budget_store",
    "use_budget_scope",
    "use_budget_store",
    # report
    "render_audit_report",
]
