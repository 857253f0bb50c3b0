"""Batched auction execution with reproducible parallelism and resilience.

A deployed platform clears many independent auction instances per round
(one per region, campaign, or time slot).  :class:`BatchAuctionRunner`
executes such a batch through one mechanism either serially or on worker
processes, and guarantees the two paths are *outcome-identical*: every
instance draws its randomness from its own
:class:`numpy.random.SeedSequence` child (derived from the master seed by
position, never from a shared generator's consumption order), so neither
the backend, the worker count, nor the scheduling order can change a
single price or winner set.

Each instance is one unit of work for
:class:`~repro.resilience.ResilientExecutor`, the library's one unit
executor: one loop in the parent settles the instances in input order.
A serial batch runs each instance just before it settles; a process
batch first runs attempt 0 of every instance on the shared pool of
:mod:`repro.utils.pool`.  The pool is one warm pool per
configured width, forked by the first process batch and reused by every
later batch (and by parallel payment sweeps) until interpreter exit or
:func:`~repro.utils.pool.shutdown_shared_pools`.  Each unit re-tenants
the ambient budget scope and takes its own
:func:`~repro.engine.scoped_engine`.  A pool that breaks mid-batch is
replaced and the batch resubmitted once.

Failure semantics (the :mod:`repro.resilience` integration): an instance
that raises no longer aborts the batch.  Transient failures
(:class:`~repro.exceptions.TransientError`) are retried in the parent on
the :class:`~repro.resilience.RetryPolicy`'s deterministic backoff
schedule, re-running with the instance's *original* seed — a recovered
instance is bit-identical to one that never failed.  Permanent failures
are quarantined: the instance's outcome slot is ``None`` and a typed
:class:`~repro.exceptions.InstanceExecutionError` lands in
:attr:`BatchRunResult.failed`, so a crash at instance ``k`` still
returns every other instance's outcome.  The retry policy and a seeded
:class:`~repro.resilience.FaultPlan` (for chaos testing) come from the
ambient :func:`~repro.resilience.use_resilience` config in force when
the batch runs; a poisoned outcome is caught by
:func:`~repro.resilience.ensure_outcome_sane`.  Fault, retry, and
quarantine events are threaded through the ambient :mod:`repro.obs`
recorder (``resilience.*`` counters and ``batch.retry.<mechanism>``
spans).
"""

from __future__ import annotations

import hashlib
import os
import time
# Unused here since batches run on the shared pool of repro.utils.pool,
# but the repository benchmark's tracer (perf/tracing.py) patches this
# module attribute and refuses a missing one.  Never build the
# long-lived pool through this name: the traced stand-in keeps its
# ``bench.pool`` span open until shutdown, which a pool that outlives
# ``run`` would leave open.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism
from repro.auction.outcome import AuctionOutcome
from repro.engine.engine import scoped_engine, use_engine
from repro.exceptions import InstanceExecutionError
from repro.bench.shm import SharedBatchHandle, SharedInstanceBatch, attach_batch
from repro.obs import MetricsRecorder
from repro.privacy.budget.context import current_budget_scope, use_budget_scope
from repro.resilience.executor import ResilientExecutor
from repro.utils.rng import RngLike, spawn_seed_sequences

__all__ = ["BatchAuctionRunner", "BatchRunResult"]

#: Backends accepted by :class:`BatchAuctionRunner`.
_BACKENDS = ("auto", "serial", "process")

#: Quarantine/raise policies accepted by :class:`BatchAuctionRunner`.
_ON_ERROR = ("quarantine", "raise")

#: Instance transports accepted by :class:`BatchAuctionRunner`.
_TRANSPORTS = ("pickle", "shared_memory")

#: Smallest batch that backend ``"auto"`` sends to the process pool: below
#: it, per-batch dispatch costs more than the parallel speed-up saves.
_PROCESS_THRESHOLD = 8


def _derive_trace_id(
    seeds: Sequence[np.random.SeedSequence], n: int, mechanism_name: str
) -> str:
    """Deterministic batch trace id from the master seed's entropy.

    A function of (entropy, batch size, mechanism) only — never of the
    backend, transport, or scheduling — so the serial and process paths
    stamp identical ids and their merged snapshots stay bit-identical.
    An unseeded batch gets fresh entropy from numpy, hence a fresh id
    per run, which is exactly what a trace id should do.
    """
    entropy = seeds[0].entropy if seeds else None
    material = f"{entropy}:{n}:{mechanism_name}"
    return hashlib.blake2s(material.encode("utf-8"), digest_size=8).hexdigest()


class _SharedSlot:
    """Instance ``index`` of a shared-memory batch, rebuilt where it runs.

    In the parent it unpacks from the owner's view of the segment, the
    same round trip a pool worker makes.  Pickled, it carries only the
    handle, and a worker attaches the segment once per batch.
    """

    def __init__(self, handle: SharedBatchHandle, index: int, owner=None) -> None:
        self.handle, self.index, self.owner = handle, index, owner

    def __reduce__(self):
        return (_SharedSlot, (self.handle, self.index))

    def unpack(self) -> AuctionInstance:
        """The instance, as zero-copy views into the segment."""
        batch = self.owner.batch if self.owner is not None else attach_batch(self.handle)
        return batch.unpack(self.index)


def _run_instance(mechanism, instance, seed, tenant=None) -> AuctionOutcome:
    """One batch instance as a unit of work for the resilient executor.

    Module-level so it pickles for the pool.  Every execution runs on its
    own :func:`~repro.engine.scoped_engine` (plan reuse within one
    instance, never across instances, attempts or backends) and, when a
    ``tenant`` is named, under the ambient budget scope re-scoped to it.
    """
    if isinstance(instance, _SharedSlot):
        instance = instance.unpack()
    scope = current_budget_scope()
    if tenant is not None:
        scope = scope.with_tenant(tenant)
    with use_budget_scope(scope), use_engine(scoped_engine()):
        return mechanism.run(instance, np.random.default_rng(seed))


@dataclass(frozen=True)
class BatchRunResult:
    """Outcomes and execution metadata of one batch run.

    Attributes
    ----------
    outcomes:
        One :class:`~repro.auction.outcome.AuctionOutcome` per instance,
        in input order.  A quarantined instance's slot is ``None``.
    backend:
        The backend that actually executed the batch (``"serial"`` or
        ``"process"`` — never ``"auto"``).
    max_workers:
        Process count used (1 for the serial backend).
    wall_time:
        End-to-end wall-clock seconds for the batch.
    failed:
        One :class:`~repro.exceptions.InstanceExecutionError` per
        quarantined instance (empty on a clean run), in input order —
        each carries the instance index, its seed, the causal exception,
        and the attempt count.
    trace_id:
        The batch's correlation id — deterministic for a seeded batch
        (same seed ⇒ same id on every backend/transport), stamped into
        every unit span's attrs when metrics were collected.
    metrics:
        Merged ``repro-metrics/2`` snapshot of the per-unit recorders
        (input order), or ``None`` when the batch ran without a
        recording recorder.  Render with :meth:`render_openmetrics` or
        merge into any :class:`~repro.obs.MetricsRecorder`.
    """

    outcomes: tuple[Optional[AuctionOutcome], ...]
    backend: str
    max_workers: int
    wall_time: float
    failed: tuple[InstanceExecutionError, ...] = ()
    trace_id: Optional[str] = None
    metrics: Optional[dict] = None

    @property
    def n_instances(self) -> int:
        """Number of instances executed (including quarantined ones)."""
        return len(self.outcomes)

    @property
    def n_failed(self) -> int:
        """Number of quarantined instances."""
        return len(self.failed)

    @property
    def total_payment(self) -> float:
        """Sum of the platform's total payment over completed instances."""
        return float(
            sum(outcome.total_payment for outcome in self.outcomes if outcome is not None)
        )

    def prices(self) -> np.ndarray:
        """The clearing price drawn for each instance, in input order.

        Quarantined instances contribute ``NaN``.
        """
        return np.array(
            [np.nan if outcome is None else outcome.price for outcome in self.outcomes],
            dtype=float,
        )

    def render_openmetrics(self) -> str:
        """OpenMetrics exposition of the batch's merged metrics snapshot.

        Raises
        ------
        ValueError
            When the batch ran without a recording recorder (``metrics``
            is ``None``) — there is nothing to expose.
        """
        if self.metrics is None:
            raise ValueError(
                "batch ran without a recording recorder; install a "
                "MetricsRecorder with use_recorder to collect metrics"
            )
        from repro.obs.export import render_openmetrics

        return render_openmetrics(self.metrics)


class BatchAuctionRunner:
    """Run one mechanism over many auction instances, reproducibly.

    Parameters
    ----------
    mechanism:
        Any :class:`~repro.auction.mechanism.Mechanism`.  Must be
        picklable for the process backend (all library mechanisms are).
    backend:
        ``"serial"``, ``"process"``, or ``"auto"`` (default).  ``auto``
        picks the process pool when the batch is large enough to repay
        shipping units to the workers and results back (at least
        :data:`_PROCESS_THRESHOLD` instances) and more than one CPU is
        available, otherwise runs serially.  The pool's workers stay
        warm between batches; only the first process batch of a given
        width pays their fork.
    max_workers:
        Width of the shared worker pool for the process backend;
        defaults to the CPU count.  Batches of every size share the pool
        of that width; :attr:`BatchRunResult.max_workers` reports it
        capped by the batch size.
    transport:
        How instances reach the execution site: ``"pickle"`` (default —
        instances are serialized into each pool worker) or
        ``"shared_memory"`` — the batch is packed once into a columnar
        :class:`~repro.bench.shm.SharedInstanceBatch` and every
        execution rebuilds its instance from zero-copy views of the
        segment (the serial backend round-trips through the same
        segment, keeping the two backends bit-identical).  The packed
        values are value-faithful, so outcomes and merged metrics are
        identical across transports too; retries run in the parent, from
        its own view of the segment.  The segment is closed and
        unlinked in a ``finally``, so no ``/dev/shm`` entry survives the
        call.
    on_error:
        ``"quarantine"`` (default) turns a permanently failed instance
        into a ``None`` outcome slot plus an entry in
        :attr:`BatchRunResult.failed`; ``"raise"`` propagates the
        :class:`~repro.exceptions.InstanceExecutionError` instead.

    The retry policy and fault plan are the ambient
    :func:`~repro.resilience.current_resilience` config's when
    :meth:`run` is called (off by default).  Retries re-run with the
    instance's original seed, so a recovered instance is bit-identical
    to a never-failed one.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DPHSRCAuction
    >>> from repro.bench import BatchAuctionRunner, seeded_auction_batch
    >>> batch = seeded_auction_batch(3, n_workers=25, n_tasks=5, seed=0)
    >>> runner = BatchAuctionRunner(DPHSRCAuction(epsilon=1.0), backend="serial")
    >>> result = runner.run(batch, seed=42)
    >>> result.n_instances
    3
    >>> again = runner.run(batch, seed=42)
    >>> bool(np.all(result.prices() == again.prices()))
    True
    """

    def __init__(
        self,
        mechanism: Mechanism,
        *,
        backend: str = "auto",
        max_workers: int | None = None,
        transport: str = "pickle",
        on_error: str = "quarantine",
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if on_error not in _ON_ERROR:
            raise ValueError(f"on_error must be one of {_ON_ERROR}, got {on_error!r}")
        if transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, got {transport!r}"
            )
        self.mechanism = mechanism
        self.backend = backend
        self.transport = transport
        self.max_workers = max_workers
        self.on_error = on_error

    def _resolve(self, n_instances: int) -> tuple[str, int]:
        """Pick the concrete backend and worker count for a batch size."""
        cpus = os.cpu_count() or 1
        workers = self.max_workers if self.max_workers is not None else cpus
        workers = max(1, min(workers, max(n_instances, 1)))
        if self.backend == "process":
            return "process", workers
        if self.backend == "serial":
            return "serial", 1
        if n_instances >= _PROCESS_THRESHOLD and workers > 1 and cpus > 1:
            return "process", workers
        return "serial", 1

    def run(
        self,
        instances: Sequence[AuctionInstance],
        seed: Union[RngLike, np.random.SeedSequence] = None,
        *,
        tenants: Sequence[str] | None = None,
    ) -> BatchRunResult:
        """Execute every instance once and collect the outcomes.

        Parameters
        ----------
        instances:
            The batch, executed in input order (results are returned in
            the same order regardless of scheduling).
        seed:
            Master seed — ``None``, an ``int``, or a ``SeedSequence``.
            Instance ``i`` always receives child ``i`` of the master, so
            two runs with the same master seed and batch are identical
            outcome-for-outcome on *any* backend and worker count.
        tenants:
            Optional per-instance tenant names (same length as
            ``instances``).  Instance ``i`` runs under the ambient
            :class:`~repro.privacy.budget.BudgetScope` re-scoped to
            ``tenants[i]``, so a multi-tenant batch charges each draw to
            its own account — and an exhausted tenant can degrade or be
            refused mid-batch without touching the others.  Retries keep
            the instance's tenant.  With no ambient budget store the
            re-scoping is a no-op.

        Raises
        ------
        InstanceExecutionError
            Only with ``on_error="raise"``, for the first permanently
            failed instance; the default quarantines failures into
            :attr:`BatchRunResult.failed` instead.

        Notes
        -----
        The observability sink is the ambient
        :func:`repro.obs.current_recorder`.  When it is a
        :class:`~repro.obs.MetricsRecorder`, every instance runs under its
        own fresh recorder — on the serial path just as in the pool
        workers — and the per-instance snapshots are merged into the sink
        in input order, so merged counters, histograms, and ledger
        entries are *identical* across backends and worker counts.
        Outcomes are never affected.

        With an *active* ambient budget store the batch always runs on
        the serial backend, which keeps each charge's admission decision
        ordered (the executor's in-process rule, see
        :meth:`~repro.resilience.ResilientExecutor.run_units`).
        """
        instances = list(instances)
        if tenants is not None:
            tenants = [str(t) for t in tenants]
            if len(tenants) != len(instances):
                raise ValueError(
                    f"tenants has length {len(tenants)} but the batch has "
                    f"{len(instances)} instances"
                )
        n = len(instances)
        seeds = spawn_seed_sequences(seed, n)
        backend, workers = self._resolve(n)
        executor = ResilientExecutor()
        sink = executor.recorder
        # The correlation id is a function of (master entropy, batch
        # size, mechanism) only — never backend/transport/scheduling —
        # so serial and pooled runs of the same seeded batch stamp the
        # *same* id and their merged traces stay bit-identical.
        trace_id = _derive_trace_id(seeds, n, self.mechanism.name) if executor.collect else None
        batch_attrs: dict = dict(
            backend=backend,
            max_workers=workers,
            n_instances=n,
            transport=self.transport,
        )
        if trace_id is not None:
            batch_attrs["trace_id"] = trace_id
            batch_attrs["span_id"] = f"{trace_id}:batch"
        shared = None
        if self.transport == "shared_memory" and n:
            shared = SharedInstanceBatch.create(instances)
        sources = (
            instances
            if shared is None
            else [_SharedSlot(shared.handle, i, shared) for i in range(n)]
        )
        start = time.perf_counter()
        try:
            with sink.span("batch", f"batch.{self.mechanism.name}", **batch_attrs) as span:
                done = executor.run_units(
                    _run_instance,
                    [
                        (self.mechanism, source, child, tenant)
                        for source, child, tenant in zip(sources, seeds, tenants or [None] * n)
                    ],
                    seeds,
                    # The shared pool is as wide as the configured worker
                    # count, not the batch-capped one, so batches of every
                    # size reuse the same warm workers.
                    width=(self.max_workers or os.cpu_count() or 1)
                    if backend == "process"
                    else None,
                    on_error=self.on_error,
                    outcomes=True,
                    retry_span=f"batch.retry.{self.mechanism.name}",
                    trace_id=trace_id,
                )
                if done.width is None and backend == "process":
                    # An active budget store kept the units in-process.
                    backend, workers = "serial", 1
                    span.set(backend=backend, max_workers=workers)
        finally:
            if shared is not None:
                shared.dispose()
        wall = time.perf_counter() - start
        metrics = None
        if executor.collect:
            # A private recorder merges the same per-unit snapshots in
            # the same input order as the sink did, so ``result.metrics``
            # is exportable on its own without entangling it with
            # whatever else the sink has recorded.
            local = MetricsRecorder()
            for snapshot in done.snapshots:
                if snapshot is not None:
                    local.merge_snapshot(snapshot)
            sink.count("batch.instances", n)
            local.count("batch.instances", n)
            metrics = local.snapshot()
        return BatchRunResult(
            outcomes=done.values,
            backend=backend,
            max_workers=workers,
            wall_time=wall,
            failed=done.failed,
            trace_id=trace_id,
            metrics=metrics,
        )
