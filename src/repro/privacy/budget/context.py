"""Ambient budget scope: the ``budget`` field of the run context.

Mechanisms must not thread a budget store through every call site, so
the active budget configuration is a :class:`BudgetScope` in the
ambient :class:`~repro.context.RunContext`: the store, the ``(tenant,
principal)`` account the surrounding run charges against, and the
admission controller applying the exhaustion policy.

The default scope wraps :data:`~repro.privacy.budget.store.
NULL_BUDGET_STORE` — unlimited and non-recording — so every existing
call site (and every golden suite) is byte-for-byte unchanged until a
caller opts in with :func:`use_budget_store`.

Examples
--------
>>> from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
>>> store = InMemoryBudgetStore(limit=2.0)
>>> with use_budget_store(store, tenant="acme"):
...     current_budget_scope().charge(mechanism="dp-hsrc", epsilon=0.5)
0.5
>>> store.spent("acme")
0.5
>>> current_budget_scope().active
False
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Iterator

from repro.context import current_context, use_context
from repro.privacy.budget.admission import AdmissionController, AdmissionDecision, RenewalSchedule
from repro.privacy.budget.store import NULL_BUDGET_STORE, BudgetStore

__all__ = [
    "BudgetScope",
    "NULL_BUDGET_SCOPE",
    "current_budget_scope",
    "current_budget_store",
    "use_budget_scope",
    "use_budget_store",
]


@dataclass(frozen=True)
class BudgetScope:
    """The ambient budget configuration for an execution scope.

    Attributes
    ----------
    store:
        The budget store charged by every ledger record in scope.
    tenant, principal:
        The account the surrounding run spends against.  Batch layers
        re-tenant the scope per instance (:meth:`with_tenant`) to run
        multi-tenant workloads under one store.
    admission:
        The controller mechanisms consult before each ε-consuming draw;
        ``None`` means draws are only checked at charge time (the
        store's own limit enforcement).
    """

    store: BudgetStore = NULL_BUDGET_STORE
    tenant: str = "default"
    principal: str = "default"
    admission: AdmissionController | None = None

    @property
    def active(self) -> bool:
        """Whether a real (tracking) store is installed."""
        return self.store.tracking

    def with_tenant(self, tenant: str, principal: str | None = None) -> "BudgetScope":
        """The same scope, re-pointed at another ``(tenant, principal)``."""
        return replace(
            self,
            tenant=str(tenant),
            principal=self.principal if principal is None else str(principal),
        )

    def admit(self, *, mechanism: str, epsilon: float) -> AdmissionDecision:
        """Pre-flight admission check for one draw (see the controller).

        Without an admission controller the draw is always allowed —
        the store's charge-time limit enforcement still applies.
        """
        if self.admission is None:
            return AdmissionDecision(
                allowed=True, remaining=self.store.remaining(self.tenant, self.principal)
            )
        return self.admission.admit(
            self.tenant, self.principal, mechanism=mechanism, epsilon=epsilon
        )

    def charge(
        self,
        *,
        mechanism: str,
        epsilon: float,
        sensitivity: float = 1.0,
        parallel: bool = False,
        degraded: bool = False,
    ) -> float:
        """Charge the scope's account on its store."""
        return self.store.charge(
            self.tenant,
            self.principal,
            mechanism=mechanism,
            epsilon=epsilon,
            sensitivity=sensitivity,
            parallel=parallel,
            degraded=degraded,
        )


#: The default scope: null store, no admission control, zero overhead.
NULL_BUDGET_SCOPE = BudgetScope()


def current_budget_scope() -> BudgetScope:
    """The ambient scope (:data:`NULL_BUDGET_SCOPE` unless one is installed)."""
    scope = current_context().budget
    return NULL_BUDGET_SCOPE if scope is None else scope


def current_budget_store() -> BudgetStore:
    """The ambient scope's store (the null store by default)."""
    return current_budget_scope().store


@contextlib.contextmanager
def use_budget_scope(scope: BudgetScope) -> Iterator[BudgetScope]:
    """Install a fully-built :class:`BudgetScope` for the body.

    Scopes nest and restore on exit; the installation is local to the
    current thread/async task.  Most callers want the
    :func:`use_budget_store` convenience instead; the batch layers use
    this form to re-tenant an inherited scope per instance.
    """
    with use_context(current_context().replace(budget=scope)):
        yield scope


@contextlib.contextmanager
def use_budget_store(
    store: BudgetStore,
    *,
    tenant: str = "default",
    principal: str = "default",
    on_exhausted: str = "refuse",
    renewal: RenewalSchedule | None = None,
    admission: AdmissionController | None = None,
) -> Iterator[BudgetScope]:
    """Install ``store`` as the ambient budget store for the body.

    Builds an :class:`AdmissionController` over the store from
    ``on_exhausted``/``renewal`` unless an explicit ``admission``
    controller is passed (e.g. to share one logical clock across
    scopes).

    Examples
    --------
    >>> from repro.privacy.budget import InMemoryBudgetStore
    >>> with use_budget_store(InMemoryBudgetStore(limit=1.0), tenant="acme") as scope:
    ...     scope.tenant
    'acme'
    """
    if admission is None:
        admission = AdmissionController(store, on_exhausted=on_exhausted, renewal=renewal)
    scope = BudgetScope(
        store=store,
        tenant=str(tenant),
        principal=str(principal),
        admission=admission,
    )
    with use_budget_scope(scope):
        yield scope
