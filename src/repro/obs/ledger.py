"""Privacy-budget ledger: an audit log of every ε-consuming draw.

Where :class:`~repro.privacy.composition.PrivacyAccountant` tracks a
single running total, the ledger keeps the *full audit trail*: one
:class:`LedgerEntry` per differentially private draw, recording which
mechanism spent the budget, how much, at what sensitivity, and under
which composition rule.  Its totals are a running
:class:`~repro.privacy.composition.Composition` of the entries, the one
core every ε layer composes through, so a record never re-sums the trail.

The ledger is how the observability layer answers "where did the ε go?":
the DP-hSRC auction records one entry per exponential-mechanism price
draw, so after a batch of ``B`` auctions at budget ``ε`` the composed
total reads exactly ``B·ε``.

The ledger enforces no budget.  It forwards every recorded draw into the
ambient :class:`~repro.privacy.budget.BudgetScope`, whose store is the
one enforcement point (a per-run budget is
``use_budget_store(InMemoryBudgetStore(limit=...))``; the default null
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

from repro.context import current_context
from repro.exceptions import BudgetExceededError
from repro.privacy.composition import Composition
from repro.utils import validation

__all__ = ["LedgerEntry", "PrivacyLedger"]

logger = logging.getLogger("repro.obs.ledger")

#: The pure-DP composition rules a :class:`LedgerEntry` may declare.
COMPOSITIONS = ("sequential", "parallel")


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

    def __init__(self, *, keep: bool = True) -> None:
        self.keep = bool(keep)
        self.entries: list[LedgerEntry] = []
        self._composition = Composition()

    def _append(self, entry: LedgerEntry) -> float:
        self.entries.append(entry)
        return self._composition.add(entry.epsilon, entry.composition == "parallel")

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
            When the ambient budget store's account crossed its limit.
            The entry and the charge are both recorded *before* raising,
            so the audit trail keeps the violating expenditure.
        """
        scope = current_context().budget  # None: the null scope
        store_exc: BudgetExceededError | None = None
        if scope is not None and scope.active:
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
        total = self._append(
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
        return total

    @property
    def sequential_epsilon(self) -> float:
        """Sum of ε over sequential-composition entries, in record order."""
        return self._composition.sequential

    @property
    def parallel_epsilon(self) -> float:
        """Max ε over parallel-composition entries (0 when there are none)."""
        return self._composition.parallel

    @property
    def total_epsilon(self) -> float:
        """Composed total: sequential sum + parallel max (pure DP)."""
        return self._composition.total

    # -- merging / export ----------------------------------------------

    def snapshot(self) -> dict:
        """Picklable dump (inverse of :meth:`merge_snapshot`)."""
        return {
            "budget": None,  # kept so the repro-metrics/2 format is unchanged
            "entries": [entry.to_json_obj() for entry in self.entries],
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Append another ledger's entries.

        The merged composition follows from the appended entries, so
        merging worker-process ledgers in input order reproduces the
        serial trail exactly.
        """
        if not self.keep:
            return
        for obj in snapshot.get("entries", ()):
            self._append(
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
            f"total_epsilon={self.total_epsilon:.6g})"
        )
