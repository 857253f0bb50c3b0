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

The worker processes come from the shared pool of
:mod:`repro.utils.pool`: one warm pool per configured width, forked by
the first process batch and reused by every later batch (and by parallel
payment sweeps) until interpreter exit or
:func:`~repro.utils.pool.shutdown_shared_pools`.  Each unit runs in an
empty context and receives the one ambient policy it needs, the
plan-cache setting of :func:`~repro.engine.scoped_engine`, as an
argument.  A pool that breaks mid-batch is replaced and the batch
resubmitted once.

Failure semantics (the :mod:`repro.resilience` integration): an instance
that raises no longer aborts the batch.  Transient failures
(:class:`~repro.exceptions.TransientError`) are retried in the parent on
the :class:`~repro.resilience.RetryPolicy`'s deterministic backoff
schedule, re-running with the instance's *original* seed — a recovered
instance is bit-identical to one that never failed.  Permanent failures
are quarantined: the instance's outcome slot is ``None`` and a typed
:class:`~repro.exceptions.InstanceExecutionError` lands in
:attr:`BatchRunResult.failed`, so a crash at instance ``k`` still
returns every other instance's outcome.  A seeded
:class:`~repro.resilience.FaultPlan` can inject failures for chaos
testing; fault, retry, and quarantine events are threaded through the
ambient :mod:`repro.obs` recorder (``resilience.*`` counters and
``retry`` spans).
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
# Unused here since batches run on the shared pool of repro.utils.pool,
# but the repository benchmark's tracer (perf/tracing.py) patches this
# module attribute and refuses a missing one.  Never build the
# long-lived pool through this name: the traced stand-in keeps its
# ``bench.pool`` span open until shutdown, which a pool that outlives
# ``run`` would leave open.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism
from repro.auction.outcome import AuctionOutcome
from repro.engine.engine import SweepEngine, scoped_engine, use_engine
from repro.exceptions import InstanceExecutionError
from repro.bench.shm import SharedBatchHandle, SharedInstanceBatch, attach_batch
from repro.obs import MetricsRecorder, Recorder, current_recorder, use_recorder
from repro.privacy.budget.context import current_budget_scope, use_budget_scope
from repro.resilience.context import current_resilience
from repro.resilience.faults import FaultPlan, ensure_outcome_sane
from repro.resilience.retry import RetryPolicy, is_transient, retry_stream
from repro.utils.pool import pool_map
from repro.utils.rng import RngLike, spawn_seed_sequences

__all__ = ["BatchAuctionRunner", "BatchRunResult"]

logger = logging.getLogger("repro.bench.batch")

#: Backends accepted by :class:`BatchAuctionRunner`.
_BACKENDS = ("auto", "serial", "process")

#: Quarantine/raise policies accepted by :class:`BatchAuctionRunner`.
_ON_ERROR = ("quarantine", "raise")

#: Instance transports accepted by :class:`BatchAuctionRunner`.
_TRANSPORTS = ("pickle", "shared_memory")


def _tenant_scope(scope, tenants: Optional[Sequence[str]], index: int):
    """Context manager scoping instance ``index`` to its batch tenant.

    A no-op (``nullcontext``) when the batch has no tenant map or no
    active ambient budget scope — the common, unbudgeted path must not
    touch the contextvar at all.
    """
    if tenants is None or scope is None or not scope.active:
        return nullcontext()
    return use_budget_scope(scope.with_tenant(tenants[index]))


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


def _trace_context(trace_id: Optional[str], index: int) -> Optional[dict]:
    """The correlation attrs stamped into unit ``index``'s recorder."""
    if trace_id is None:
        return None
    return {
        "trace_id": trace_id,
        "parent_span": f"{trace_id}:batch",
        "unit": int(index),
    }


def _run_one(
    mechanism: Mechanism,
    instance: AuctionInstance,
    seed: np.random.SeedSequence,
    engine: SweepEngine,
    collect_metrics: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    index: int = 0,
    attempt: int = 0,
    trace_id: Optional[str] = None,
) -> tuple[AuctionOutcome, Optional[dict]]:
    """Execute one instance with its dedicated seed sequence.

    Module-level so it pickles for the process pool; the generator is
    constructed inside the worker, making the draw independent of which
    process (or the parent, for the serial path) runs it.

    When ``collect_metrics`` is set, the instance runs under a fresh
    :class:`~repro.obs.MetricsRecorder` whose picklable snapshot is
    returned alongside the outcome.  The serial path uses the *same*
    fresh-recorder-per-instance protocol, so merged metrics are
    identical across backends (merging happens in input order in
    :meth:`BatchAuctionRunner.run`).  With a ``trace_id``, the unit
    recorder stamps ``{trace_id, parent_span, unit}`` into every span it
    records, so the merged trace reconstructs the batch timeline.

    ``engine`` is the batch's :func:`~repro.engine.scoped_engine`, read
    in the parent when the batch starts: the unit runs on an empty clone
    of it, so the ambient plan-cache policy (``--no-plan-cache``) reaches
    warm pool workers, which run every task in an empty context.

    When a ``fault_plan`` is supplied, the plan's fault for
    ``(index, attempt)`` is injected: crash/timeout/transient faults
    raise before the mechanism runs, and a poison fault corrupts the
    completed outcome, which the sanity validation then rejects.
    """
    if fault_plan is not None:
        fault_plan.raise_if_planned(index, attempt)
    # A fresh sweep engine per instance execution (mirroring the fresh
    # recorder): plan reuse within one instance, never across instances,
    # attempts, or backends — so metrics and outcomes stay identical on
    # the serial and pooled paths even under retries.
    if not collect_metrics:
        with use_engine(engine.fresh()):
            outcome = mechanism.run(instance, np.random.default_rng(seed))
        snapshot = None
    else:
        local = MetricsRecorder(trace=_trace_context(trace_id, index))
        with use_recorder(local), use_engine(engine.fresh()):
            outcome = mechanism.run(instance, np.random.default_rng(seed))
        snapshot = local.snapshot()
    if fault_plan is not None:
        outcome = ensure_outcome_sane(fault_plan.corrupt(outcome, index, attempt))
    return outcome, snapshot


def _run_one_guarded(
    mechanism: Mechanism,
    instance: AuctionInstance,
    seed: np.random.SeedSequence,
    engine: SweepEngine,
    collect_metrics: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    index: int = 0,
    attempt: int = 0,
    trace_id: Optional[str] = None,
) -> tuple[Optional[AuctionOutcome], Optional[dict], Optional[Exception]]:
    """:func:`_run_one`, but failures return instead of raise.

    Pool workers must never raise out of ``pool.map`` — that would
    discard every other instance's finished work — so the guarded form
    returns ``(outcome, snapshot, error)`` with exactly one of
    ``outcome``/``error`` set.  A failing attempt's partial metrics
    snapshot is discarded; only successful attempts contribute metrics.
    """
    try:
        outcome, snapshot = _run_one(
            mechanism, instance, seed, engine, collect_metrics, fault_plan, index,
            attempt, trace_id,
        )
        return outcome, snapshot, None
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return None, None, exc


def _run_one_shared_guarded(
    mechanism: Mechanism,
    handle: SharedBatchHandle,
    seed: np.random.SeedSequence,
    engine: SweepEngine,
    collect_metrics: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    index: int = 0,
    attempt: int = 0,
    trace_id: Optional[str] = None,
) -> tuple[Optional[AuctionOutcome], Optional[dict], Optional[Exception]]:
    """:func:`_run_one_guarded` over a shared-memory instance.

    The pool worker attaches the batch's segment (once per batch, via
    :func:`repro.bench.shm.attach_batch`) and rebuilds instance ``index``
    from zero-copy views instead of receiving it pickled.  Attachment
    failures are contained like execution failures, so a bad segment
    quarantines the instance rather than poisoning the pool.
    """
    try:
        instance = attach_batch(handle).unpack(int(index))
    except Exception as exc:  # noqa: BLE001 - containment, as above
        return None, None, exc
    return _run_one_guarded(
        mechanism, instance, seed, engine, collect_metrics, fault_plan, index,
        attempt, trace_id,
    )


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
                "batch ran without a recording recorder; pass a "
                "MetricsRecorder (or install one with use_recorder) to "
                "collect metrics"
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
        ``process_threshold`` instances) and more than one CPU is
        available, otherwise runs serially.  The pool's workers stay
        warm between batches; only the first process batch of a given
        width pays their fork.
    max_workers:
        Width of the shared worker pool for the process backend;
        defaults to the CPU count.  Batches of every size share the pool
        of that width; :attr:`BatchRunResult.max_workers` reports it
        capped by the batch size.
    process_threshold:
        Minimum batch size for ``auto`` to choose the process pool: below
        it, per-batch dispatch costs more than the parallel speed-up
        saves.
    transport:
        How instances reach the execution site: ``"pickle"`` (default —
        instances are serialized into each pool worker) or
        ``"shared_memory"`` — the batch is packed once into a columnar
        :class:`~repro.bench.shm.SharedInstanceBatch` and every
        execution rebuilds its instance from zero-copy views of the
        segment (the serial backend round-trips through the same
        segment, keeping the two backends bit-identical).  The packed
        values are value-faithful, so outcomes and merged metrics are
        identical across transports too; retries run from the original
        in-process instances either way.  The segment is closed and
        unlinked in a ``finally``, so no ``/dev/shm`` entry survives the
        call.
    retry:
        :class:`~repro.resilience.RetryPolicy` for transient instance
        failures.  ``None`` falls back to the ambient
        :func:`~repro.resilience.current_resilience` config (off by
        default).  Retries re-run with the instance's original seed, so
        a recovered instance is bit-identical to a never-failed one.
    fault_plan:
        Seeded :class:`~repro.resilience.FaultPlan` injected into the
        per-instance execution path (chaos testing).  ``None`` falls
        back to the ambient config.
    on_error:
        ``"quarantine"`` (default) turns a permanently failed instance
        into a ``None`` outcome slot plus an entry in
        :attr:`BatchRunResult.failed`; ``"raise"`` propagates the
        :class:`~repro.exceptions.InstanceExecutionError` instead.
    sleep:
        Injection point for the backoff sleep (tests pass a stub).

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
        process_threshold: int = 8,
        transport: str = "pickle",
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        on_error: str = "quarantine",
        sleep: Callable[[float], None] = time.sleep,
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
        self.process_threshold = int(process_threshold)
        self.retry = retry
        self.fault_plan = fault_plan
        self.on_error = on_error
        self._sleep = sleep

    def _resolve(self, n_instances: int) -> tuple[str, int]:
        """Pick the concrete backend and worker count for a batch size."""
        cpus = os.cpu_count() or 1
        workers = self.max_workers if self.max_workers is not None else cpus
        workers = max(1, min(workers, max(n_instances, 1)))
        if self.backend == "process":
            return "process", workers
        if self.backend == "serial":
            return "serial", 1
        if n_instances >= self.process_threshold and workers > 1 and cpus > 1:
            return "process", workers
        return "serial", 1

    def run(
        self,
        instances: Sequence[AuctionInstance],
        seed: Union[RngLike, np.random.SeedSequence] = None,
        *,
        recorder: Recorder | None = None,
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
        recorder:
            Observability sink; defaults to the ambient
            :func:`repro.obs.current_recorder`.  When it is a recording
            one (``enabled``), every instance runs under its own fresh
            :class:`~repro.obs.MetricsRecorder` — on the serial path just
            as in the pool workers — and the per-instance snapshots are
            merged into ``recorder`` in input order, so merged counters,
            histograms, and ledger entries are *identical* across
            backends and worker counts.  Outcomes are never affected.
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
        With an *active* ambient budget store the batch always runs on
        the serial backend: budget scopes live in contextvars, which do
        not cross process-pool boundaries, and serial charging is also
        what keeps each charge's admission decision ordered.
        """
        instances = list(instances)
        if tenants is not None:
            tenants = [str(t) for t in tenants]
            if len(tenants) != len(instances):
                raise ValueError(
                    f"tenants has length {len(tenants)} but the batch has "
                    f"{len(instances)} instances"
                )
        seeds = spawn_seed_sequences(seed, len(instances))
        backend, workers = self._resolve(len(instances))
        scope = current_budget_scope()
        if scope.active and backend != "serial":
            logger.info(
                "budget store active: forcing the serial backend so every "
                "ε-draw charges the ambient store in admission order"
            )
            backend, workers = "serial", 1
        sink = current_recorder() if recorder is None else recorder
        collect = isinstance(sink, MetricsRecorder)
        engine = scoped_engine()
        ambient = current_resilience()
        retry = self.retry if self.retry is not None else ambient.retry
        fault_plan = self.fault_plan if self.fault_plan is not None else ambient.fault_plan
        n = len(instances)
        # The correlation id is a function of (master entropy, batch
        # size, mechanism) only — never backend/transport/scheduling —
        # so serial and pooled runs of the same seeded batch stamp the
        # *same* id and their merged traces stay bit-identical.
        trace_id = _derive_trace_id(seeds, n, self.mechanism.name) if collect else None
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
        start = time.perf_counter()
        try:
            with sink.span(
                "batch",
                f"batch.{self.mechanism.name}",
                **batch_attrs,
            ):
                if backend == "serial":
                    triples = []
                    for i, child in enumerate(seeds):
                        # With shared memory the serial path round-trips
                        # each instance through the segment, exactly as a
                        # pool worker would — the backends must not differ.
                        instance = (
                            instances[i] if shared is None else shared.batch.unpack(i)
                        )
                        with _tenant_scope(scope, tenants, i):
                            triples.append(
                                _run_one_guarded(
                                    self.mechanism, instance, child, engine,
                                    collect, fault_plan, i, trace_id=trace_id,
                                )
                            )
                        del instance
                else:
                    # The shared pool is as wide as the configured worker
                    # count, not the batch-capped one, so batches of every
                    # size reuse the same warm workers.
                    width = self.max_workers or os.cpu_count() or 1
                    unit, payload = (
                        (_run_one_guarded, instances)
                        if shared is None
                        else (_run_one_shared_guarded, [shared.handle] * n)
                    )
                    triples = pool_map(
                        width,
                        unit,
                        [self.mechanism] * n,
                        payload,
                        seeds,
                        [engine] * n,
                        [collect] * n,
                        [fault_plan] * n,
                        range(n),
                        [0] * n,
                        [trace_id] * n,
                        chunksize=max(1, n // (4 * workers) or 1),
                    )
                outcomes, snapshots, failed = self._settle(
                    triples, instances, seeds, engine, retry, fault_plan, collect,
                    sink, scope, tenants, trace_id,
                )
        finally:
            if shared is not None:
                shared.dispose()
        wall = time.perf_counter() - start
        metrics = None
        if collect:
            # A private recorder merges the same per-unit snapshots in
            # the same input order as the caller's sink, so
            # ``result.metrics`` is exportable on its own without
            # entangling it with whatever else the sink has recorded.
            local = MetricsRecorder()
            for snapshot in snapshots:
                if snapshot is not None:
                    sink.merge_snapshot(snapshot)
                    local.merge_snapshot(snapshot)
            sink.count("batch.instances", n)
            local.count("batch.instances", n)
            metrics = local.snapshot()
        return BatchRunResult(
            outcomes=tuple(outcomes),
            backend=backend,
            max_workers=workers,
            wall_time=wall,
            failed=tuple(failed),
            trace_id=trace_id,
            metrics=metrics,
        )

    def _settle(
        self,
        triples: list,
        instances: list,
        seeds: list,
        engine: SweepEngine,
        retry: RetryPolicy | None,
        fault_plan: FaultPlan | None,
        collect: bool,
        sink: Recorder,
        scope=None,
        tenants: Sequence[str] | None = None,
        trace_id: Optional[str] = None,
    ) -> tuple[list, list, list]:
        """Retry transient failures and quarantine permanent ones.

        Runs in the parent, in input order, for serial and pooled
        backends alike — which keeps the ``resilience.*`` event stream
        (and therefore merged metrics) backend-independent.  Retries
        re-invoke the instance with its original seed; the backoff
        schedule comes from the seed's reserved retry side-stream, so
        timing jitter can never perturb an outcome.
        """
        outcomes: list = []
        snapshots: list = []
        failed: list = []
        for i, (outcome, snapshot, error) in enumerate(triples):
            attempt = 0
            delays: tuple[float, ...] = ()
            if error is not None and retry is not None:
                delays = retry.delays(retry_stream(seeds[i]))
            while error is not None:
                sink.count("resilience.failures")
                if not (is_transient(error) and attempt < len(delays)):
                    break
                sink.count("resilience.retries")
                delay = delays[attempt]
                attempt += 1
                with sink.span(
                    "retry",
                    f"batch.retry.{self.mechanism.name}",
                    index=i,
                    attempt=attempt,
                    delay=delay,
                ):
                    self._sleep(delay)
                with _tenant_scope(scope, tenants, i):
                    outcome, snapshot, error = _run_one_guarded(
                        self.mechanism, instances[i], seeds[i], engine, collect,
                        fault_plan, i, attempt, trace_id,
                    )
            if error is not None:
                wrapped = InstanceExecutionError(i, seeds[i], error, attempts=attempt + 1)
                if self.on_error == "raise":
                    raise wrapped from error
                logger.warning("quarantining batch instance: %s", wrapped)
                sink.count("resilience.quarantined")
                failed.append(wrapped)
                outcomes.append(None)
                snapshots.append(None)
            else:
                if attempt:
                    sink.count("resilience.recovered")
                outcomes.append(outcome)
                snapshots.append(snapshot)
        return outcomes, snapshots, failed
