"""Resilience layer: fault injection, retry/backoff, checkpoint/resume.

The ROADMAP's north star is a platform serving heavy traffic; real
deployments lose worker processes, hang on solvers, and get handed
malformed work.  Before this package, one such failure killed an entire
:class:`~repro.bench.BatchAuctionRunner` sweep and discarded every
completed instance.  The resilience layer makes the execution paths
degrade gracefully instead — *without ever changing a bit of any
successful outcome*:

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, a seeded,
  declarative chaos schedule (crash / timeout / transient / poison per
  instance index and attempt), the injected exception taxonomy, and
  :class:`FaultyMechanism` for wrapping a single mechanism.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff whose jittered schedule is a pure function of an injected
  :class:`numpy.random.SeedSequence` (monotone, capped, deadline-bounded).
  Transient failures are retried with the *same* instance seed, so a
  recovered instance is bit-identical to a never-faulted one.
* :mod:`repro.resilience.journal` — :class:`JsonlJournal`, the shared
  append-only JSON-lines file discipline (schema'd meta header, fsync'd
  appends, torn-final-line-tolerant replay) under both the sweep
  checkpoint and the privacy-budget journal
  (:class:`repro.privacy.budget.JsonlBudgetStore`).
* :mod:`repro.resilience.checkpoint` — :class:`SweepCheckpoint`,
  JSON-lines checkpoint/resume keyed by :func:`seed_fingerprint`, so a
  killed sweep resumes to results (and merged metrics and privacy-ledger
  trails) bit-identical to an uninterrupted run.
* :mod:`repro.resilience.context` — :func:`use_resilience` /
  :func:`current_resilience`, the ambient :class:`ResilienceConfig`:
  the one place run policy is set (the CLI's ``--max-retries`` /
  ``--resume`` / ``--fault-plan`` flags install it).
* :mod:`repro.resilience.executor` — :class:`ResilientExecutor`, the
  one executor of units of work (batch instances, sweep points, figure
  repetitions, campaign cells) combining all of the above: one in-order
  settle loop in the parent, in which an in-process unit runs just
  before it settles and a pooled call's attempt 0 of every unit is
  prefetched on the shared pool.  It reads the ambient config when it
  is built, and every unit it runs sees none.

Quickstart
----------
>>> from repro import DPHSRCAuction
>>> from repro.bench import BatchAuctionRunner, seeded_auction_batch
>>> from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy, use_resilience
>>> batch = seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=0)
>>> runner = BatchAuctionRunner(DPHSRCAuction(epsilon=1.0), backend="serial")
>>> chaos = ResilienceConfig(
...     retry=RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0),
...     fault_plan=FaultPlan.parse("crash@1,transient@2"),
... )
>>> with use_resilience(chaos):
...     result = runner.run(batch, seed=42)
>>> [f.index for f in result.failed], result.outcomes[1] is None
([1], True)
>>> result.outcomes[2] is not None  # transient fault recovered via retry
True
"""

from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, SweepCheckpoint, seed_fingerprint
from repro.resilience.context import (
    RESILIENCE_OFF,
    ResilienceConfig,
    current_resilience,
    use_resilience,
)
from repro.resilience.executor import ResilientExecutor, UnitResults
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjectedError,
    FaultPlan,
    FaultSpec,
    FaultyMechanism,
    PoisonedResultError,
    SimulatedCrashError,
    SimulatedTimeoutError,
    TransientFaultError,
    ensure_outcome_sane,
)
from repro.resilience.journal import JsonlJournal
from repro.resilience.retry import NO_RETRY, RetryPolicy, is_transient, retry_stream

__all__ = [
    # faults
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultyMechanism",
    "FaultInjectedError",
    "SimulatedCrashError",
    "SimulatedTimeoutError",
    "TransientFaultError",
    "PoisonedResultError",
    "ensure_outcome_sane",
    # retry
    "RetryPolicy",
    "NO_RETRY",
    "retry_stream",
    "is_transient",
    # journal / checkpoint
    "JsonlJournal",
    "CHECKPOINT_SCHEMA",
    "SweepCheckpoint",
    "seed_fingerprint",
    # context
    "ResilienceConfig",
    "RESILIENCE_OFF",
    "current_resilience",
    "use_resilience",
    # executor
    "ResilientExecutor",
    "UnitResults",
]
