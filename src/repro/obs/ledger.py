"""Privacy-budget ledger: an audit log of every ε-consuming draw.

Where :class:`~repro.privacy.composition.PrivacyAccountant` tracks a
single running total, the ledger keeps the *full audit trail*: one
:class:`LedgerEntry` per differentially private draw, recording which
mechanism spent the budget, how much, at what sensitivity, and under
which composition rule.  The composed total follows the same pure-DP
rules the accountant implements — sequential entries add, parallel
entries cost only their maximum — so the two stay interchangeable
(:meth:`PrivacyLedger.to_accountant` replays the trail into a fresh
accountant and the totals agree exactly).

The ledger is how the observability layer answers "where did the ε go?":
the DP-hSRC auction records one entry per exponential-mechanism price
draw, so after a batch of ``B`` auctions at budget ``ε`` the composed
total reads exactly ``B·ε`` — and with a configured ``budget`` the
ledger raises :class:`~repro.exceptions.BudgetExceededError` the moment
a draw pushes the composition past it (the violating entry is retained,
so the audit trail shows the overspend).

Cross-run accounting lives in :mod:`repro.privacy.budget`: the ledger
is a thin per-run *view* that forwards every recorded draw into the
ambient :class:`~repro.privacy.budget.BudgetScope` (the default null
scope makes the forward a no-op, so unbudgeted runs are unchanged).
Forwarding happens even for non-keeping ledgers — budget enforcement
must not depend on whether an observability recorder is installed —
while snapshot *merges* never forward: merged entries were already
charged by the process that recorded them live.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import BudgetExceededError
from repro.privacy.composition import PrivacyAccountant
from repro.tolerances import EPSILON_TOL
from repro.utils import validation

__all__ = ["LedgerEntry", "PrivacyLedger"]

logger = logging.getLogger("repro.obs.ledger")

#: The pure-DP composition rules a :class:`LedgerEntry` may declare.
COMPOSITIONS = ("sequential", "parallel")


def _ambient_budget_scope():
    # Imported lazily: repro.privacy.budget pulls in repro.resilience,
    # whose executor imports repro.obs — a module-level import here
    # would close that cycle while ``repro.obs.__init__`` is mid-load.
    from repro.privacy.budget.context import current_budget_scope

    return current_budget_scope()


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded ε expenditure.

    Attributes
    ----------
    mechanism:
        Name of the mechanism that consumed budget (e.g. ``"dp-hsrc"``).
    epsilon:
        The ε of this single draw.
    sensitivity:
        The score/query sensitivity ``Δu`` the draw was calibrated to.
    composition:
        ``"sequential"`` (same data — adds to the total) or
        ``"parallel"`` (disjoint data — only the max counts).
    attrs:
        JSON-serializable context (support size, instance shape, …).
    """

    mechanism: str
    epsilon: float
    sensitivity: float
    composition: str = "sequential"
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.composition not in COMPOSITIONS:
            raise ValueError(
                f"composition must be one of {COMPOSITIONS}, got "
                f"{self.composition!r} (mechanism {self.mechanism!r}) — an "
                "unknown rule would silently compose wrong"
            )

    def to_json_obj(self) -> dict:
        """The entry as a plain dict ready for the JSON-lines trace."""
        return {
            "type": "ledger",
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "sensitivity": self.sensitivity,
            "composition": self.composition,
            "attrs": dict(self.attrs),
        }


class PrivacyLedger:
    """Audit log of ε-consuming draws with pure-DP composition.

    Parameters
    ----------
    budget:
        Optional total ε budget.  When set, :meth:`record` raises
        :class:`~repro.exceptions.BudgetExceededError` as soon as the
        composed total exceeds it (after retaining the violating entry —
        an audit trail must show the overspend).
    keep:
        ``False`` turns the ledger into a discard-everything stub (used
        by the null recorder so call sites never branch).

    Examples
    --------
    >>> from repro.obs import PrivacyLedger
    >>> ledger = PrivacyLedger()
    >>> ledger.record("dp-hsrc", epsilon=0.1, sensitivity=500.0)
    0.1
    >>> ledger.record("dp-hsrc", epsilon=0.1, sensitivity=500.0)
    0.2
    >>> ledger.total_epsilon
    0.2
    """

    def __init__(self, *, budget: float | None = None, keep: bool = True) -> None:
        if budget is not None:
            validation.require_positive(budget, "budget")
        self.budget = budget
        self.keep = bool(keep)
        self.entries: list[LedgerEntry] = []

    def record(
        self,
        mechanism: str,
        *,
        epsilon: float,
        sensitivity: float,
        parallel: bool = False,
        **attrs,
    ) -> float:
        """Record one ε-consuming draw and return the composed total.

        Raises
        ------
        BudgetExceededError
            When a configured ``budget`` is exceeded by this draw, or
            when the ambient budget store's account crossed its limit.
            The entry/charge is recorded *before* raising so the audit
            trail keeps the violating expenditure.
        """
        scope = _ambient_budget_scope()
        store_exc: BudgetExceededError | None = None
        if scope.active:
            # Forward into the cross-run budget store — even for a
            # non-keeping ledger, since enforcement must not depend on
            # whether an observability recorder happens to be installed.
            # A limit breach is held until the local entry is appended:
            # the store retained the violating charge, and the per-run
            # trail must show the same expenditure or the two disagree
            # on the overspending draw.
            try:
                scope.charge(
                    mechanism=str(mechanism),
                    epsilon=float(epsilon),
                    sensitivity=float(sensitivity),
                    parallel=bool(parallel),
                    degraded=bool(attrs.get("degraded", False)),
                )
            except BudgetExceededError as exc:
                store_exc = exc
        if not self.keep:
            if store_exc is not None:
                raise store_exc
            return 0.0
        validation.require_positive(epsilon, "epsilon")
        validation.require_positive(sensitivity, "sensitivity")
        self.entries.append(
            LedgerEntry(
                mechanism=str(mechanism),
                epsilon=float(epsilon),
                sensitivity=float(sensitivity),
                composition="parallel" if parallel else "sequential",
                attrs=dict(attrs),
            )
        )
        if store_exc is not None:
            raise store_exc
        total = self.total_epsilon
        if self.budget is not None and total > self.budget + EPSILON_TOL:
            raise BudgetExceededError(
                f"recording ε={epsilon:.6g} from {mechanism!r} pushes the "
                f"composed total to {total:.6g}, past the configured "
                f"budget {self.budget:.6g} (entry retained in the ledger)"
            )
        return total

    @property
    def sequential_epsilon(self) -> float:
        """Sum of ε over sequential-composition entries."""
        return float(
            sum(e.epsilon for e in self.entries if e.composition == "sequential")
        )

    @property
    def parallel_epsilon(self) -> float:
        """Max ε over parallel-composition entries (0 when there are none)."""
        parallel = [e.epsilon for e in self.entries if e.composition == "parallel"]
        return float(max(parallel)) if parallel else 0.0

    @property
    def total_epsilon(self) -> float:
        """Composed total: sequential sum + parallel max (pure DP)."""
        return self.sequential_epsilon + self.parallel_epsilon

    @property
    def remaining(self) -> float | None:
        """Remaining budget, or ``None`` when unbudgeted."""
        if self.budget is None:
            return None
        return max(self.budget - self.total_epsilon, 0.0)

    def assert_within_budget(self, budget: float | None = None) -> float:
        """Assert the composed total fits ``budget`` (or the configured one).

        Returns the composed total on success.

        Raises
        ------
        BudgetExceededError
            When the composed total exceeds the budget.
        ValueError
            When neither a ``budget`` argument nor a configured budget
            exists to check against.
        """
        limit = self.budget if budget is None else float(budget)
        if limit is None:
            raise ValueError("no budget configured and none supplied to assert against")
        total = self.total_epsilon
        if total > limit + EPSILON_TOL:
            raise BudgetExceededError(
                f"composed ε {total:.6g} exceeds the budget {limit:.6g} "
                f"across {len(self.entries)} recorded draws"
            )
        return total

    def to_accountant(self) -> PrivacyAccountant:
        """Replay the audit trail into a fresh :class:`PrivacyAccountant`.

        The returned accountant's ``spent`` equals :attr:`total_epsilon`
        exactly — the bridge the ledger tests use to prove both
        implementations apply the same composition rules.
        """
        accountant = PrivacyAccountant(budget=self.budget)
        for entry in self.entries:
            accountant.spend(entry.epsilon, parallel=entry.composition == "parallel")
        return accountant

    # -- merging / export ----------------------------------------------

    def snapshot(self) -> dict:
        """Picklable dump (inverse of :meth:`merge_snapshot`)."""
        return {
            "budget": self.budget,
            "entries": [entry.to_json_obj() for entry in self.entries],
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Append another ledger's entries (budget of ``self`` is kept).

        The merged composition follows from the appended entries, so
        merging worker-process ledgers in input order reproduces the
        serial trail exactly.
        """
        if not self.keep:
            return
        for obj in snapshot.get("entries", ()):
            self.entries.append(
                LedgerEntry(
                    mechanism=obj["mechanism"],
                    epsilon=float(obj["epsilon"]),
                    sensitivity=float(obj["sensitivity"]),
                    composition=obj.get("composition", "sequential"),
                    attrs=dict(obj.get("attrs", {})),
                )
            )
        logger.debug(
            "merged ledger snapshot: %d entries, composed ε=%.6g",
            len(snapshot.get("entries", ())),
            self.total_epsilon,
        )

    def merge(self, other: "PrivacyLedger") -> None:
        """Append another ledger's entries (see :meth:`merge_snapshot`)."""
        self.merge_snapshot(other.snapshot())

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrivacyLedger(entries={len(self.entries)}, "
            f"total_epsilon={self.total_epsilon:.6g}, budget={self.budget})"
        )
