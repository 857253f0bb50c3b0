"""Seeded, declarative fault injection for batch auctions.

A :class:`FaultPlan` is a reproducible chaos schedule: it names which
instance indices fail, how (:data:`FAULT_KINDS`), and for how many
attempts.  Plans are plain frozen dataclasses — picklable, hashable, and
independent of wall-clock or global RNG state — so a chaos run is
bit-reproducible: the same plan against the same batch always injects
the same failures, and :meth:`FaultPlan.sample` derives a random plan
deterministically from a :class:`numpy.random.SeedSequence`.

The four fault kinds model the failure modes a deployed MCS platform
actually sees:

``crash``
    The worker process dies mid-instance (simulated by
    :class:`SimulatedCrashError`).  Permanent — never retried.
``timeout``
    The solver hangs past its deadline (:class:`SimulatedTimeoutError`).
    Transient — retrying with the same seed may succeed.
``transient``
    A flaky dependency throws once (:class:`TransientFaultError`).
    Transient.
``poison``
    The instance *completes* but returns a corrupted outcome (negative
    payments).  Detected by :func:`ensure_outcome_sane` and quarantined
    as :class:`PoisonedResultError`.  Permanent.

Injection point: every unit of work — batch instance, sweep point,
figure repetition, campaign cell — consults the plan in the guarded
attempt of :class:`~repro.resilience.ResilientExecutor`, keyed by unit
index and attempt number; :class:`FaultyMechanism` wraps any single
:class:`~repro.auction.mechanism.Mechanism` for serial-path harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.auction.mechanism import Mechanism
from repro.auction.outcome import AuctionOutcome
from repro.exceptions import ReproError, TransientError, ValidationError

__all__ = [
    "FAULT_KINDS",
    "FaultInjectedError",
    "SimulatedCrashError",
    "SimulatedTimeoutError",
    "TransientFaultError",
    "PoisonedResultError",
    "FaultSpec",
    "FaultPlan",
    "FaultyMechanism",
    "ensure_outcome_sane",
]

#: The fault kinds a :class:`FaultSpec` may inject.
FAULT_KINDS = ("crash", "timeout", "transient", "poison")

#: Kinds whose injected error derives from :class:`TransientError`.
RETRYABLE_KINDS = ("timeout", "transient")


class FaultInjectedError(ReproError):
    """Base class for every deliberately injected fault."""


class SimulatedCrashError(FaultInjectedError):
    """A simulated worker-process crash (permanent; never retried)."""


class SimulatedTimeoutError(FaultInjectedError, TransientError):
    """A simulated hung-solver timeout (transient; safe to retry)."""


class TransientFaultError(FaultInjectedError, TransientError):
    """A simulated flaky transient failure (safe to retry)."""


class PoisonedResultError(FaultInjectedError):
    """An outcome failed the sanity validation (corrupted result).

    Raised by :func:`ensure_outcome_sane` when an outcome that passed
    type-level construction is semantically corrupt — e.g. negative
    payments or winner payments disagreeing with the clearing price.
    Permanent: re-running deterministically reproduces the corruption.
    """


_INJECTED = {
    "crash": SimulatedCrashError,
    "timeout": SimulatedTimeoutError,
    "transient": TransientFaultError,
    "poison": PoisonedResultError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: which instance, what kind, how many attempts.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    index:
        The instance (batch position / sweep point) the fault targets.
    attempts:
        Number of *failing* attempts before the instance succeeds.
        ``None`` means every attempt fails.  Defaults to 1 for the
        transient kinds (``timeout``/``transient``) and to ``None`` for
        the permanent kinds (``crash``/``poison``).
    """

    kind: str
    index: int
    attempts: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if int(self.index) < 0:
            raise ValidationError(f"fault index must be non-negative, got {self.index}")
        object.__setattr__(self, "index", int(self.index))
        attempts = self.attempts
        if attempts is None and self.kind in RETRYABLE_KINDS:
            attempts = 1
        if attempts is not None and int(attempts) < 1:
            raise ValidationError(f"fault attempts must be >= 1, got {attempts}")
        object.__setattr__(self, "attempts", None if attempts is None else int(attempts))

    def fails_at(self, attempt: int) -> bool:
        """Whether the fault fires on 0-based attempt number ``attempt``."""
        return self.attempts is None or int(attempt) < self.attempts

    def build_error(self) -> FaultInjectedError:
        """Construct the exception this spec injects."""
        return _INJECTED[self.kind](
            f"injected {self.kind} fault at instance {self.index}"
        )

    def spec_string(self) -> str:
        """The ``kind@index[:attempts]`` form :meth:`FaultPlan.parse` reads."""
        default = 1 if self.kind in RETRYABLE_KINDS else None
        if self.attempts == default:
            return f"{self.kind}@{self.index}"
        return f"{self.kind}@{self.index}:{self.attempts}"


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos schedule: one :class:`FaultSpec` per target index.

    Examples
    --------
    >>> plan = FaultPlan.parse("crash@1,transient@5:2")
    >>> plan.spec_for(5).kind
    'transient'
    >>> plan.spec_for(5).fails_at(1), plan.spec_for(5).fails_at(2)
    (True, False)
    >>> FaultPlan.parse(plan.spec_string()) == plan
    True
    """

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        indices = [spec.index for spec in specs]
        if len(indices) != len(set(indices)):
            raise ValidationError("a FaultPlan may hold at most one fault per index")
        object.__setattr__(self, "specs", specs)

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``kind@index[:attempts]`` comma list (CLI ``--fault-plan``).

        Example: ``"crash@2,transient@5:2,timeout@7"``.
        """
        specs = []
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, rest = part.partition("@")
            if not sep:
                raise ValidationError(
                    f"fault spec {part!r} must look like kind@index[:attempts]"
                )
            idx_text, _, attempts_text = rest.partition(":")
            try:
                index = int(idx_text)
                attempts = int(attempts_text) if attempts_text else None
            except ValueError as exc:
                raise ValidationError(f"malformed fault spec {part!r}: {exc}") from exc
            specs.append(FaultSpec(kind=kind.strip(), index=index, attempts=attempts))
        return cls(tuple(specs))

    @classmethod
    def sample(
        cls,
        n_instances: int,
        rate: float,
        seed: Union[int, np.random.SeedSequence, None] = None,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """Draw a random plan reproducibly from a :class:`~numpy.random.SeedSequence`.

        Each of the ``n_instances`` indices is faulted independently with
        probability ``rate``; faulted indices get a kind drawn uniformly
        from ``kinds``.  The same seed always yields the same plan.
        """
        if not 0.0 <= float(rate) <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValidationError(f"unknown fault kind {kind!r}")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        rng = np.random.default_rng(seed)
        faulted = rng.random(int(n_instances)) < float(rate)
        choices = rng.integers(0, len(kinds), size=int(n_instances))
        specs = tuple(
            FaultSpec(kind=kinds[int(choice)], index=int(index))
            for index, (hit, choice) in enumerate(zip(faulted, choices))
            if hit
        )
        return cls(specs)

    # -- querying -------------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        """Sorted faulted instance indices."""
        return tuple(sorted(spec.index for spec in self.specs))

    def spec_for(self, index: int) -> FaultSpec | None:
        """The spec targeting ``index``, or ``None``."""
        for spec in self.specs:
            if spec.index == int(index):
                return spec
        return None

    def permanent_indices(self, max_retries: int = 0) -> tuple[int, ...]:
        """Indices that cannot recover within ``max_retries`` retries.

        Permanent kinds (``crash``/``poison``) always appear; transient
        kinds appear when their failing-attempt count exceeds the retry
        budget (or is unbounded).
        """
        out = []
        for spec in self.specs:
            if spec.kind not in RETRYABLE_KINDS:
                out.append(spec.index)
            elif spec.attempts is None or spec.attempts > int(max_retries):
                out.append(spec.index)
        return tuple(sorted(out))

    def spec_string(self) -> str:
        """The comma list :meth:`parse` round-trips (sorted by index)."""
        return ",".join(
            spec.spec_string() for spec in sorted(self.specs, key=lambda s: s.index)
        )

    # -- injection ------------------------------------------------------

    def raise_if_planned(
        self, index: int, attempt: int = 0, *, poison_as_error: bool = False
    ) -> None:
        """Raise the planned fault for ``(index, attempt)``, if any.

        ``crash``/``timeout``/``transient`` faults raise their exception
        here, before the instance runs.  ``poison`` faults normally pass
        through (the caller corrupts the completed outcome via
        :meth:`corrupt` instead); execution paths without a corruptible
        outcome — sweep points, whose unit of work is a statistics dict —
        set ``poison_as_error`` to surface the poison as an immediate
        :class:`PoisonedResultError`.
        """
        spec = self.spec_for(index)
        if spec is None or not spec.fails_at(attempt):
            return
        if spec.kind == "poison" and not poison_as_error:
            return
        raise spec.build_error()

    def corrupt(self, outcome: AuctionOutcome, index: int, attempt: int = 0) -> AuctionOutcome:
        """Apply a planned ``poison`` fault to a completed outcome.

        Returns the outcome unchanged unless a poison spec fires for
        ``(index, attempt)``; the poisoned outcome passes type-level
        construction but fails :func:`ensure_outcome_sane` (all payments
        strictly negative).
        """
        spec = self.spec_for(index)
        if spec is None or spec.kind != "poison" or not spec.fails_at(attempt):
            return outcome
        return AuctionOutcome(
            winners=outcome.winners,
            price=outcome.price,
            n_workers=outcome.n_workers,
            payments=-np.abs(outcome.payments) - 1.0,
        )


def ensure_outcome_sane(outcome: AuctionOutcome) -> AuctionOutcome:
    """Semantic validation of an auction outcome; returns it on success.

    :class:`~repro.auction.outcome.AuctionOutcome` already validates
    types and ranges at construction; this checks the *payment
    semantics* a poisoned result violates: payments finite and
    non-negative, every winner paid exactly the clearing price, and
    every loser paid nothing.

    Raises
    ------
    PoisonedResultError
        When any check fails.
    """
    payments = np.asarray(outcome.payments, dtype=float)
    if not np.all(np.isfinite(payments)):
        raise PoisonedResultError("outcome has non-finite payments")
    if np.any(payments < 0):
        raise PoisonedResultError("outcome has negative payments")
    winners = outcome.winners
    if winners.size and not np.allclose(payments[winners], outcome.price):
        raise PoisonedResultError("winner payments disagree with the clearing price")
    losers = np.setdiff1d(np.arange(outcome.n_workers), winners, assume_unique=True)
    if losers.size and np.any(payments[losers] != 0.0):
        raise PoisonedResultError("losers received non-zero payments")
    return outcome


class FaultyMechanism(Mechanism):
    """Wrap any mechanism with a :class:`FaultPlan` keyed by call number.

    The ``i``-th :meth:`run` call plays the role of plan index ``i`` (at
    attempt 0), so a ``transient@2`` spec makes exactly the third call
    fail and every other call behave identically to the wrapped
    mechanism.  This is the serial-path injection point for harnesses
    driving a mechanism directly; batch execution injects the plan of the
    ambient :func:`~repro.resilience.use_resilience` config instead,
    because the call counter below does not survive pickling into pool
    workers.
    """

    def __init__(self, mechanism: Mechanism, plan: FaultPlan) -> None:
        self.mechanism = mechanism
        self.plan = plan
        self.calls = 0
        self.name = f"faulty({mechanism.name})"

    def price_pmf(self, instance):
        """Delegate to the wrapped mechanism (PMFs are never faulted)."""
        return self.mechanism.price_pmf(instance)

    def run(self, instance, seed=None):
        """Run the wrapped mechanism, injecting this call's planned fault."""
        index = self.calls
        self.calls += 1
        self.plan.raise_if_planned(index, 0)
        outcome = self.mechanism.run(instance, seed)
        return ensure_outcome_sane(self.plan.corrupt(outcome, index, 0))
