"""Budget-aware admission control for ε-consuming draws.

Mechanisms consult the ambient :class:`AdmissionController` *before*
each ε-consuming draw, through
:func:`~repro.privacy.budget.context.admit_draw`.  The controller
checks the ``(tenant, principal)`` account's remaining budget against
the requested ε and applies one of three policies when the budget is
exhausted:

``refuse``
    Raise :class:`~repro.exceptions.BudgetExceededError` — carrying the
    offending tenant and mechanism — before any budget is spent.
``degrade``
    Tell the mechanism to fall back to the non-premium
    :class:`~repro.mechanisms.BaselineAuction`, whose outcome is tagged
    ``degraded=True`` and whose spend is tracked in the account's
    separate degraded accumulator (audited, never enforced).
``renew`` (a :class:`RenewalSchedule`, composable with either policy)
    Refresh the account's budget on a schedule — after every N enforced
    charges, or whenever the controller's logical clock enters a new
    epoch — before the remaining-budget check runs.

The controller is deliberately deterministic: admission decisions
depend only on the account state and the schedule, never on wall-clock
time, so budget-managed runs stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import BudgetExceededError
from repro.privacy.budget.store import LIMIT_ATOL, BudgetStore
from repro.utils import validation

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "RenewalSchedule",
    "AdmissionController",
]

#: Exhaustion policies accepted by :class:`AdmissionController`.
ADMISSION_POLICIES = ("refuse", "degrade")


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one prospective draw.

    Attributes
    ----------
    allowed:
        ``True`` — run the premium mechanism as requested.
    degrade:
        ``True`` — budget exhausted under the ``degrade`` policy: run
        the baseline fallback and tag the outcome ``degraded=True``.
    renewed:
        Whether this admission triggered a scheduled budget renewal.
    remaining:
        The account's remaining enforced ε after any renewal
        (``None`` = unlimited).
    """

    allowed: bool
    degrade: bool = False
    renewed: bool = False
    remaining: float | None = None


@dataclass(frozen=True)
class RenewalSchedule:
    """When to refresh an account's budget.

    Attributes
    ----------
    every_charges:
        Renew once an account has accumulated this many enforced
        charges (auction-count renewal), e.g. ``every_charges=100`` =
        "every tenant gets a fresh ε every 100 auctions".
    epoch_length:
        Length of a logical-clock epoch.  The controller's clock — an
        integer advanced by :meth:`AdmissionController.advance_clock`,
        e.g. once per batch or per simulated day — is divided into
        epochs of this length; an account entering a new epoch renews.

    At least one field must be set; both may be (either trigger fires).
    """

    every_charges: int | None = None
    epoch_length: int | None = None

    def __post_init__(self) -> None:
        if self.every_charges is None and self.epoch_length is None:
            raise ValueError(
                "a RenewalSchedule needs every_charges and/or epoch_length"
            )
        if self.every_charges is not None:
            validation.require_positive(self.every_charges, "every_charges")
        if self.epoch_length is not None:
            validation.require_positive(self.epoch_length, "epoch_length")


class AdmissionController:
    """Gatekeeper between mechanisms and a :class:`BudgetStore`.

    Parameters
    ----------
    store:
        The budget store holding the accounts.
    on_exhausted:
        ``"refuse"`` (default) or ``"degrade"`` — what happens when an
        account cannot afford a draw.
    renewal:
        Optional :class:`RenewalSchedule` applied before every
        remaining-budget check.

    Examples
    --------
    >>> from repro.privacy.budget import InMemoryBudgetStore
    >>> store = InMemoryBudgetStore(limit=0.5)
    >>> control = AdmissionController(store, on_exhausted="degrade")
    >>> control.admit("acme", "workers", mechanism="dp-hsrc", epsilon=0.5).allowed
    True
    >>> store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.5)
    0.5
    >>> control.admit("acme", "workers", mechanism="dp-hsrc", epsilon=0.5).degrade
    True
    """

    def __init__(
        self,
        store: BudgetStore,
        *,
        on_exhausted: str = "refuse",
        renewal: RenewalSchedule | None = None,
    ) -> None:
        if on_exhausted not in ADMISSION_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {ADMISSION_POLICIES}, "
                f"got {on_exhausted!r}"
            )
        self.store = store
        self.on_exhausted = on_exhausted
        self.renewal = renewal
        self.clock = 0

    def advance_clock(self, ticks: int = 1) -> int:
        """Advance the logical clock (epoch-based renewal) and return it."""
        self.clock += int(ticks)
        return self.clock

    def _maybe_renew(self, tenant: str, principal: str) -> bool:
        if self.renewal is None:
            return False
        acct = self.store.account(tenant, principal)
        if acct is None:
            return False
        schedule = self.renewal
        if (
            schedule.every_charges is not None
            and acct.n_charges >= schedule.every_charges
        ):
            self.store.renew(tenant, principal, epoch=acct.epoch)
            return True
        if schedule.epoch_length is not None:
            epoch = self.clock // schedule.epoch_length
            if epoch > acct.epoch:
                self.store.renew(tenant, principal, epoch=epoch)
                return True
        return False

    def admit(
        self, tenant: str, principal: str, *, mechanism: str, epsilon: float
    ) -> AdmissionDecision:
        """Decide whether a draw of ``epsilon`` may run for an account.

        Raises
        ------
        BudgetExceededError
            Under the ``refuse`` policy, when the account's remaining
            budget cannot afford ``epsilon``.  Raised *before* the draw,
            so no budget is spent.
        """
        renewed = self._maybe_renew(tenant, principal)
        remaining = self.store.remaining(tenant, principal)
        if remaining is None or epsilon <= remaining + LIMIT_ATOL:
            return AdmissionDecision(allowed=True, renewed=renewed, remaining=remaining)
        if self.on_exhausted == "degrade":
            return AdmissionDecision(
                allowed=False, degrade=True, renewed=renewed, remaining=remaining
            )
        raise BudgetExceededError(
            f"admission refused: drawing ε={epsilon:.6g} with {mechanism!r} "
            f"for tenant {tenant!r} (principal {principal!r}) needs more than "
            f"the remaining budget {remaining:.6g}",
            tenant=str(tenant),
            principal=str(principal),
            mechanism=str(mechanism),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(on_exhausted={self.on_exhausted!r}, "
            f"renewal={self.renewal!r}, clock={self.clock})"
        )
