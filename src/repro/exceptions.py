"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of the standard library, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "InfeasibleError",
    "EmptyPriceSetError",
    "SolverError",
    "ConvergenceError",
    "BudgetExceededError",
    "TransientError",
    "InstanceExecutionError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input failed validation (wrong shape, range, or inconsistency).

    Inherits :class:`ValueError` so idiomatic ``except ValueError`` call
    sites keep working.
    """


class InfeasibleError(ReproError):
    """A covering or auction problem admits no feasible solution.

    Raised, for example, when even the full worker population cannot
    satisfy every task's error-bound constraint, or when a fixed price
    leaves too few affordable workers to cover the tasks.
    """


class EmptyPriceSetError(InfeasibleError):
    """No price in the candidate grid is feasible for the instance."""


class SolverError(ReproError):
    """An exact optimization backend failed to produce a certified optimum."""


class ConvergenceError(ReproError):
    """An iterative estimation procedure failed to converge."""


class BudgetExceededError(ReproError):
    """A composed privacy spend exceeded its configured ε budget.

    Raised by the :mod:`repro.privacy.budget` subsystem: the admission
    controller refusing a draw pre-flight, or a budget store whose
    account crossed its limit.

    Attributes
    ----------
    tenant, principal:
        The ``(tenant, principal)`` budget account that overspent.
    mechanism:
        Name of the mechanism whose draw triggered the overrun, when
        known.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        principal: str | None = None,
        mechanism: str | None = None,
    ) -> None:
        self.tenant = tenant
        self.principal = principal
        self.mechanism = mechanism
        super().__init__(message)

    def __reduce__(self):
        """Preserve the typed fields across pickling (process-pool transit)."""
        return (
            type(self),
            (self.args[0] if self.args else "",),
            {
                "tenant": self.tenant,
                "principal": self.principal,
                "mechanism": self.mechanism,
            },
        )


class TransientError(ReproError):
    """Marker base for failures that are safe to retry.

    The resilience layer (:mod:`repro.resilience`) retries an instance
    only when the failure derives from this class — a transient failure
    is one where re-running the *same* work with the *same* seed can
    legitimately succeed (a flaky worker process, a simulated timeout).
    Everything else is treated as permanent and quarantined.
    """


class InstanceExecutionError(ReproError):
    """One batch/sweep unit failed; carries the unit's index, seed, and cause.

    Raised by the batch/sweep execution paths instead of letting worker
    exceptions propagate raw, so callers (and quarantine reports) can
    always identify *which* instance failed and replay it from its
    :class:`numpy.random.SeedSequence`.

    Attributes
    ----------
    index:
        Position of the failing unit in the batch/sweep input order.
    seed:
        The unit's :class:`numpy.random.SeedSequence` (or ``None`` when
        the unit was unseeded).
    cause:
        The underlying exception raised by the unit.
    attempts:
        How many attempts (1 + retries) were made before giving up.
    """

    def __init__(self, index, seed, cause, attempts: int = 1) -> None:
        self.index = int(index)
        self.seed = seed
        self.cause = cause
        self.attempts = int(attempts)
        key = self.seed_key
        where = f"seed spawn_key={key}" if key is not None else "unseeded"
        super().__init__(
            f"instance {self.index} ({where}) failed after "
            f"{self.attempts} attempt(s): {type(cause).__name__}: {cause}"
        )

    def __reduce__(self):
        """Preserve the typed fields across pickling (process-pool transit)."""
        return (type(self), (self.index, self.seed, self.cause, self.attempts))

    @property
    def seed_key(self) -> tuple[int, ...] | None:
        """The seed's spawn key (position-stable identity), when seeded."""
        spawn_key = getattr(self.seed, "spawn_key", None)
        if spawn_key is None:
            return None
        return tuple(int(k) for k in spawn_key)

    @property
    def retryable(self) -> bool:
        """Whether the underlying cause is a :class:`TransientError`."""
        return isinstance(self.cause, TransientError)


class CheckpointError(ReproError):
    """A sweep checkpoint file is unreadable or inconsistent with the run.

    Raised by :class:`repro.resilience.SweepCheckpoint` on schema
    mismatches, mid-file corruption, or a resume whose run context
    (experiment, master seed) contradicts the checkpoint header.
    """
