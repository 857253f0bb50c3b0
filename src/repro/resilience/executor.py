"""The one executor for units of work: attempt, retry, quarantine, resume.

Batch instances (:class:`~repro.bench.BatchAuctionRunner`), sweep points
(:func:`~repro.experiments.runner.payment_sweep`), figure repetitions
(the Figure 1–4 driver) and campaign cells
(:class:`~repro.campaign.CampaignRunner`) all run here.  A unit is a
function call keyed by its index and its
:class:`numpy.random.SeedSequence`; :meth:`ResilientExecutor.run_units`
runs a sequence of them in two phases:

1. **Attempt phase.**  Attempt 0 of every unit the checkpoint does not
   hold runs first, in-process or on the shared pool
   (:func:`~repro.utils.pool.pool_map`), through :func:`_attempt`, which
   returns any error as a value — one failing unit never discards the
   others' finished work.
2. **Settle phase.**  One loop in the parent, in input order, replays
   checkpoint hits, retries transient errors with the unit's *own* seed
   on the :class:`~repro.resilience.RetryPolicy`'s deterministic
   schedule (a recovered unit is bit-identical to a never-faulted one),
   raises or quarantines permanent failures as
   :class:`~repro.exceptions.InstanceExecutionError`, checkpoints
   completed units and merges their metrics snapshots into the sink.

Because the settle loop emits every ``resilience.*`` counter, retry span
and snapshot merge, serial and pooled runs record identical metrics, and
resumed runs replay the checkpointed snapshots of an uninterrupted one.
A failed attempt's spans, counters and histograms are discarded, but its
draws were already charged to the budget store, so its ledger entries
are kept, ahead of the unit's own.

The executor alone decides what ambient state crosses a unit boundary:
an in-process attempt runs under the caller's
:class:`~repro.context.RunContext` with the sink, or its own
trace-stamped recorder, as its recorder and no resilience config (a
fault plan applies only to the indices of the executor that read it); a
pooled attempt gets only the engine's plan-cache policy (an empty clone
of a non-default engine) and every other field at its default.
"""

from __future__ import annotations

import logging
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.context import RunContext, current_context, use_context
from repro.exceptions import InstanceExecutionError
from repro.obs import MetricsRecorder, current_recorder
from repro.privacy.budget.context import current_budget_scope
from repro.resilience.checkpoint import SweepCheckpoint, seed_fingerprint
from repro.resilience.context import current_resilience
from repro.resilience.faults import ensure_outcome_sane
from repro.resilience.retry import is_transient, retry_stream
from repro.utils.pool import pool_map

__all__ = ["ResilientExecutor", "UnitResults"]

logger = logging.getLogger("repro.resilience.executor")

#: Failure policies accepted by :meth:`ResilientExecutor.run_units`.
_ON_ERROR = ("raise", "quarantine")


def _attempt(fn, args, index, attempt, fault_plan, context, outcomes):
    """One guarded attempt of unit ``index``: ``(value, snapshot, error)``.

    Module-level so it pickles for the pool.  Injects the planned fault,
    runs ``fn(*args)`` under the unit's ``context`` (snapshotting its
    recorder when that is a fresh ``MetricsRecorder``), and applies the
    poison rule: a unit returning an auction outcome (``outcomes``) is
    corrupted, then rejected by
    :func:`~repro.resilience.faults.ensure_outcome_sane`; any other unit
    has nothing to corrupt, so poison fails it before it runs.  A failed
    attempt returns its ledger snapshot in place of the metrics snapshot.
    """
    local = context.recorder if isinstance(context.recorder, MetricsRecorder) else None
    try:
        if fault_plan is not None:
            fault_plan.raise_if_planned(index, attempt, poison_as_error=not outcomes)
        with use_context(context):
            value = fn(*args)
        snapshot = None if local is None else local.snapshot()
        if outcomes and fault_plan is not None:
            value = ensure_outcome_sane(fault_plan.corrupt(value, index, attempt))
        return value, snapshot, None
    except Exception as exc:  # noqa: BLE001 - failures settle in the parent
        return None, None if local is None else local.ledger.snapshot(), exc


def _release_frames(error: Optional[BaseException]) -> None:
    """Clear the locals of a settled failure's frames, keeping its traceback.

    The frames belong to finished attempts, but would pin the unit's
    arguments (for a shared-memory batch, zero-copy views that keep the
    segment mapped) for as long as the error is kept.
    """
    seen: set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        traceback.clear_frames(error.__traceback__)
        error = error.__cause__ or error.__context__


@dataclass(frozen=True)
class UnitResults:
    """What :meth:`ResilientExecutor.run_units` settled, in input order.

    ``values`` holds one result per unit (``None`` where quarantined),
    ``snapshots`` each unit's merged metrics snapshot (``None`` when not
    collected; a quarantined unit's failed attempts' ledger, if any), ``failed`` one
    :class:`~repro.exceptions.InstanceExecutionError` per quarantined
    unit, and ``width`` the pool width attempt 0 ran on (``None``:
    in-process).
    """

    values: tuple
    snapshots: tuple
    failed: tuple[InstanceExecutionError, ...]
    width: Optional[int]


class ResilientExecutor:
    """Run keyed units with fault injection, retry, and checkpoint/resume.

    The retry policy, the fault plan (keyed by unit index) and the sink
    are the ambient :func:`~repro.resilience.current_resilience` config's
    and :func:`repro.obs.current_recorder` when the executor is built.
    When the sink is a :class:`~repro.obs.MetricsRecorder`, each unit
    runs under its own fresh recorder, merged into the sink in input
    order.

    Parameters
    ----------
    checkpoint:
        Seed-keyed :class:`~repro.resilience.SweepCheckpoint`; completed
        units are skipped on resume and appended as they finish.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.resilience import (
    ...     FaultPlan, ResilienceConfig, ResilientExecutor, RetryPolicy, use_resilience,
    ... )
    >>> chaos = ResilienceConfig(
    ...     retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
    ...     fault_plan=FaultPlan.parse("transient@0"),
    ... )
    >>> with use_resilience(chaos):
    ...     executor = ResilientExecutor()
    >>> seed = np.random.SeedSequence(7)
    >>> executor.run_unit(0, seed, lambda: 41 + 1)  # fails once, then recovers
    42
    """

    def __init__(self, *, checkpoint: SweepCheckpoint | None = None) -> None:
        config = current_resilience()
        self.retry = config.retry
        self.fault_plan = config.fault_plan
        self.checkpoint = checkpoint
        self.recorder = current_recorder()
        self._cached = checkpoint.load() if checkpoint is not None else {}

    @property
    def collect(self) -> bool:
        """Whether per-unit metrics snapshots are collected and merged."""
        return isinstance(self.recorder, MetricsRecorder)

    def run_unit(
        self,
        index: int,
        seed: np.random.SeedSequence,
        fn: Callable[[], object],
        *,
        encode: Optional[Callable] = None,
        decode: Optional[Callable] = None,
    ):
        """Execute one unit in-process (or restore it from the checkpoint).

        The one-unit case of :meth:`run_units`, for drivers that finish
        each unit before starting the next; ``fn`` takes no arguments.
        Raises :class:`~repro.exceptions.InstanceExecutionError` on
        permanent failure or exhausted retries.
        """
        done = self.run_units(fn, [()], [seed], start=index, encode=encode, decode=decode)
        return done.values[0]

    def run_units(
        self,
        fn: Callable,
        args: Sequence[tuple],
        seeds: Sequence[np.random.SeedSequence],
        *,
        start: int = 0,
        width: int | None = None,
        on_error: str = "raise",
        outcomes: bool = False,
        retry_span: str = "unit.retry",
        trace_id: str | None = None,
        encode: Optional[Callable] = None,
        decode: Optional[Callable] = None,
    ) -> UnitResults:
        """Run unit ``start + i`` as ``fn(*args[i])`` with seed ``seeds[i]``.

        ``fn`` must be a pure function of its arguments: it is re-invoked
        verbatim on retry, which is what makes a recovered unit
        bit-identical to a never-faulted one.  ``width=None`` runs the
        attempt phase in-process; an integer runs it on the shared pool
        of that width (``fn`` and ``args`` must pickle) — except under an
        active ambient budget scope, which always runs in-process: a
        pooled attempt sees the default budget scope, and in-process
        charging keeps every ε-draw's admission in unit order.
        ``on_error="raise"`` raises the first permanent failure after
        settling every unit before it; ``"quarantine"`` leaves ``None``
        in its slot.  ``outcomes`` selects the poison rule of
        :func:`_attempt`, ``retry_span`` names each backoff's ``retry``
        span, ``trace_id`` stamps a batch's correlation id into every
        unit span, and ``encode``/``decode`` convert a result to and from
        its JSON checkpoint payload.

        Raises
        ------
        InstanceExecutionError
            With ``on_error="raise"``, on permanent failure or exhausted
            retries; carries the unit's index, seed, the causal
            exception, and the attempt count.
        """
        if on_error not in _ON_ERROR:
            raise ValueError(f"on_error must be one of {_ON_ERROR}, got {on_error!r}")
        sink = self.recorder
        keys = [seed_fingerprint(seed) for seed in seeds]
        pending = [i for i, key in enumerate(keys) if key not in self._cached]
        if width is not None and current_budget_scope().active:
            logger.info("budget store active: running %d units in-process", len(pending))
            width = None
        parent = current_context()
        # Record into the sink (_attempt snapshots any MetricsRecorder it
        # gets); a nested executor reads no resilience config.
        inline = parent.replace(recorder=sink, resilience=None)
        pooled = RunContext(engine=None if parent.engine is None else parent.engine.fresh())
        stamp = None
        if trace_id is not None:
            stamp = {"trace_id": trace_id, "parent_span": f"{trace_id}:batch"}

        def task(i: int, attempt: int) -> tuple:
            index = start + i
            context = pooled if attempt == 0 and width is not None else inline
            if self.collect:
                trace = None if stamp is None else {**stamp, "unit": index}
                with use_context(context):  # the unit's own clock times its spans
                    context = context.replace(recorder=MetricsRecorder(trace=trace))
            return (fn, args[i], index, attempt, self.fault_plan, context, outcomes)

        if width is None or not pending:
            firsts = [_attempt(*task(i, 0)) for i in pending]
        else:
            tasks = [task(i, 0) for i in pending]
            chunksize = max(1, len(tasks) // (4 * width))
            firsts = pool_map(width, _attempt, *zip(*tasks), chunksize=chunksize)
        first = dict(zip(pending, firsts))

        values, snapshots, failed = [], [], []
        for i, seed in enumerate(seeds):
            if i not in first:
                record = self._cached[keys[i]]
                sink.count("resilience.checkpoint.hits")
                snapshot = record.get("snapshot")
                if self.collect and snapshot:
                    sink.merge_snapshot(snapshot)
                values.append(record["payload"] if decode is None else decode(record["payload"]))
                snapshots.append(snapshot)
                continue
            value, snapshot, error = first.pop(i)
            attempt = 0
            delays: tuple[float, ...] = ()
            if error is not None and self.retry is not None:
                delays = self.retry.delays(retry_stream(seed))
            drawn: list = []  # failed attempts' ledger entries
            while error is not None:
                drawn += snapshot["entries"] if snapshot else []
                sink.count("resilience.failures")
                if not (is_transient(error) and attempt < len(delays)):
                    break
                sink.count("resilience.retries")
                delay = delays[attempt]
                attempt += 1
                with sink.span("retry", retry_span, index=start + i, attempt=attempt, delay=delay):
                    time.sleep(delay)
                value, snapshot, error = _attempt(*task(i, attempt))
            if error is not None:
                snapshot = {"ledger": {"budget": None, "entries": drawn}} if drawn else None
                if snapshot:
                    sink.merge_snapshot(snapshot)
                _release_frames(error)
                wrapped = InstanceExecutionError(start + i, seed, error, attempts=attempt + 1)
                if on_error == "raise":
                    raise wrapped from error
                logger.warning("quarantining unit: %s", wrapped)
                sink.count("resilience.quarantined")
                failed.append(wrapped)
                values.append(None)
                snapshots.append(snapshot)
                continue
            if drawn:
                snapshot["ledger"]["entries"][:0] = drawn
            if attempt:
                sink.count("resilience.recovered")
            if self.checkpoint is not None:
                payload = value if encode is None else encode(value)
                self.checkpoint.append(keys[i], payload, index=start + i, snapshot=snapshot)
                self._cached[keys[i]] = {"key": keys[i], "payload": payload, "snapshot": snapshot}
                sink.count("resilience.checkpoint.writes")
            if self.collect and snapshot is not None:
                sink.merge_snapshot(snapshot)
            values.append(value)
            snapshots.append(snapshot)
        return UnitResults(tuple(values), tuple(snapshots), tuple(failed), width)
