"""Shared experiment plumbing.

:class:`ExperimentResult` is the uniform return type of every experiment
module — a titled table plus free-form notes — so the CLI, the benchmark
suite, and EXPERIMENTS.md all render results the same way.

:func:`payment_sweep_point` evaluates one sweep point of the Figure 1–4
methodology: draw an instance, compute each mechanism's exact price PMF,
sample 10,000 clearing prices (as the paper does), and report the mean
and standard deviation of the platform's total payment.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.payment import PaymentStats, sampled_payment_stats
from repro.auction.mechanism import Mechanism
from repro.engine.engine import scoped_engine, use_engine
from repro.exceptions import InstanceExecutionError
from repro.obs import MetricsRecorder, Recorder, current_recorder, use_recorder
from repro.privacy.budget.context import current_budget_scope
from repro.resilience.checkpoint import SweepCheckpoint, seed_fingerprint
from repro.resilience.context import current_resilience
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy, is_transient, retry_stream
from repro.utils.pool import pool_map
from repro.utils.rng import RngLike, ensure_rng, ensure_seed_sequence
from repro.utils.tables import render_table
from repro.workloads.generator import generate_instance
from repro.workloads.settings import SimulationSetting

__all__ = [
    "ExperimentResult",
    "payment_sweep_point",
    "payment_sweep",
    "sweep_checkpoint",
    "encode_payment_stats",
    "decode_payment_stats",
]

logger = logging.getLogger("repro.experiments.runner")


@dataclass(frozen=True)
class ExperimentResult:
    """A rendered experiment: headers + rows + context.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"figure1"``).
    title:
        Human-readable description, including the paper artifact.
    headers:
        Column names of the result table.
    rows:
        Result rows (tuples aligned with ``headers``).
    notes:
        Free-form caveats (e.g. what ``fast`` mode skipped).
    precision:
        Default decimal places for float cells when rendering (individual
        ``to_table`` calls may override).  Experiments whose quantities
        are inherently small (Figure 5's KL leakages) raise this so the
        rendered table does not round them to zero.
    """

    name: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence]
    notes: tuple[str, ...] = field(default=())
    precision: int = 3

    def to_table(self, precision: int | None = None) -> str:
        """Render the result as an aligned plain-text table."""
        if precision is None:
            precision = self.precision
        text = render_table(self.headers, self.rows, precision=precision, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def column(self, header: str) -> list:
        """Extract one column by header name."""
        idx = list(self.headers).index(header)
        return [row[idx] for row in self.rows]


def payment_sweep_point(
    setting: SimulationSetting,
    mechanisms: Mapping[str, Mechanism],
    *,
    n_workers: int | None = None,
    n_tasks: int | None = None,
    n_price_samples: int = 10_000,
    seed: RngLike = None,
) -> dict[str, PaymentStats]:
    """One sweep point of the Figures 1–4 methodology.

    Parameters
    ----------
    setting:
        The Table I setting generating the instance.
    mechanisms:
        Mechanisms to evaluate, keyed by display name.  Deterministic
        mechanisms (the optimal benchmark) get exact statistics for free
        since their PMF is a point mass.
    n_workers, n_tasks:
        The sweep point's population.
    n_price_samples:
        Price draws per mechanism (the paper uses 10,000).
    seed:
        Randomness; split between instance generation and price sampling.

    Returns
    -------
    dict
        ``{mechanism name: PaymentStats}`` for this point.
    """
    rng = ensure_rng(seed)
    instance_rng, sample_rng = rng.spawn(2)
    recorder = current_recorder()
    with recorder.span(
        "sweep_point",
        "payment_sweep_point",
        n_workers=-1 if n_workers is None else int(n_workers),
        n_tasks=-1 if n_tasks is None else int(n_tasks),
        n_mechanisms=len(mechanisms),
    ):
        instance, _pool = generate_instance(
            setting, instance_rng, n_workers=n_workers, n_tasks=n_tasks
        )
        results: dict[str, PaymentStats] = {}
        # One fresh sweep engine for the whole point: the N mechanisms
        # share one instance, so they share one cached plan per cover
        # solver — the head-to-head comparison pays for the sweep once.
        with use_engine(scoped_engine()):
            for name, mechanism in mechanisms.items():
                pmf = mechanism.price_pmf(instance)
                results[name] = sampled_payment_stats(
                    pmf, n_price_samples, seed=sample_rng
                )
    recorder.count("sweep.points")
    return results


def _sweep_point_safe(
    args,
) -> tuple[Optional[dict[str, PaymentStats]], Optional[dict], Optional[Exception]]:
    """Guarded unpack-and-run helper; module-level so it pickles for a pool.

    Returns ``(stats, snapshot, error)`` with exactly one of
    ``stats``/``error`` set — pool workers must never raise out of
    ``pool.map``, or every other point's finished work would be lost.
    The snapshot is the picklable state of a fresh per-point recorder
    (``None`` when collection is off or the point failed), so the serial
    and pooled paths merge identical metrics (see :func:`payment_sweep`).
    A planned fault for ``(index, attempt)`` is injected before the point
    runs; poison surfaces as an immediate error because a statistics dict
    has no outcome to corrupt.  ``engine`` is the sweep's
    :func:`~repro.engine.scoped_engine`, read in the parent: installed
    as the point's ambient engine, it makes the point's own
    ``scoped_engine()`` an empty clone of it, so the plan-cache policy
    reaches pool workers, which run every task in an empty context.
    """
    (
        setting,
        mechanisms,
        n_workers,
        n_tasks,
        n_price_samples,
        child_seed,
        engine,
        collect,
        fault_plan,
        index,
        attempt,
    ) = args

    def evaluate() -> dict[str, PaymentStats]:
        with use_engine(engine):
            return payment_sweep_point(
                setting,
                mechanisms,
                n_workers=n_workers,
                n_tasks=n_tasks,
                n_price_samples=n_price_samples,
                seed=np.random.default_rng(child_seed),
            )

    try:
        if fault_plan is not None:
            fault_plan.raise_if_planned(index, attempt, poison_as_error=True)
        if not collect:
            return evaluate(), None, None
        local = MetricsRecorder()
        with use_recorder(local):
            stats = evaluate()
        return stats, local.snapshot(), None
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return None, None, exc


def encode_payment_stats(stats: Mapping[str, PaymentStats]) -> dict:
    """Encode one sweep point's ``{name: PaymentStats}`` as a JSON object.

    The checkpoint payload format: floats survive the ``repr``-based JSON
    round-trip bit-exactly, which is what makes a resumed sweep identical
    to an uninterrupted one.
    """
    return {
        name: {"mean": s.mean, "std": s.std, "n_samples": s.n_samples}
        for name, s in stats.items()
    }


def decode_payment_stats(payload: Mapping) -> dict[str, PaymentStats]:
    """Inverse of :func:`encode_payment_stats`."""
    return {
        name: PaymentStats(
            mean=float(v["mean"]), std=float(v["std"]), n_samples=int(v["n_samples"])
        )
        for name, v in payload.items()
    }


def sweep_checkpoint(
    directory: Union[str, Path],
    seed: Union[RngLike, np.random.SeedSequence],
    *,
    n_points: int,
    n_price_samples: int,
) -> SweepCheckpoint:
    """The canonical checkpoint for one :func:`payment_sweep` invocation.

    The file name embeds the master seed's fingerprint, so sweeps with
    different masters never collide in one ``checkpoint_dir``; the meta
    header pins the master fingerprint, point count, and sample count, so
    a checkpoint can never silently resume a different sweep.
    """
    master = ensure_seed_sequence(seed)
    fingerprint = seed_fingerprint(master)
    safe = fingerprint.replace(":", "_").replace(",", "-").replace("+", "-")
    path = Path(directory) / f"payment_sweep-{safe}-p{int(n_points)}.jsonl"
    return SweepCheckpoint(
        path,
        context={
            "sweep": "payment_sweep",
            "master": fingerprint,
            "n_points": int(n_points),
            "n_price_samples": int(n_price_samples),
        },
    )


def payment_sweep(
    setting: SimulationSetting,
    mechanisms: Mapping[str, Mechanism],
    points: Sequence[tuple[int | None, int | None]],
    *,
    n_price_samples: int = 10_000,
    seed: Union[RngLike, np.random.SeedSequence] = None,
    max_workers: int | None = None,
    recorder: Recorder | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint: SweepCheckpoint | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[dict[str, PaymentStats]]:
    """Evaluate a whole Figure 1–4 sweep, optionally on a process pool.

    Each sweep point gets child ``i`` of the master ``seed`` (spawned
    order-free from its :class:`~numpy.random.SeedSequence`), so the
    parallel and serial paths return *identical* statistics —
    parallelism only buys wall-clock time, never changes numbers.

    When a metrics ``recorder`` is supplied (or installed as the ambient
    one via :func:`repro.obs.use_recorder`), every point runs under its
    own fresh :class:`~repro.obs.MetricsRecorder` — serially or in the
    pool workers alike — and the per-point snapshots merge into the sink
    in input order, so merged metrics are backend-independent too.

    Resilience: transient point failures are retried in the parent with
    the point's original child seed on the policy's deterministic
    backoff schedule; a permanent failure raises
    :class:`~repro.exceptions.InstanceExecutionError` (the sweep has no
    quarantine slot — its callers build figure tables that need every
    point).  With a ``checkpoint``, each completed point is durably
    appended under its seed fingerprint, already-checkpointed points are
    skipped on the next run, and the merged results — statistics,
    metrics, and privacy-ledger trail — are bit-identical to an
    uninterrupted sweep.

    Parameters
    ----------
    setting:
        The Table I setting generating every point's instance.
    mechanisms:
        Mechanisms to evaluate, keyed by display name (must be picklable
        when ``max_workers`` enables the pool; all library mechanisms
        are).
    points:
        ``(n_workers, n_tasks)`` overrides per sweep point (``None``
        falls back to the setting's population).
    n_price_samples:
        Price draws per mechanism per point.
    seed:
        Master seed (``None``, ``int``, or ``SeedSequence``).
    max_workers:
        ``None`` or ``1`` runs serially in-process; larger values fan the
        points out over the shared long-lived process pool
        (:func:`repro.utils.pool.pool_map`).
        With an active ambient budget store (:mod:`repro.privacy.budget`)
        the sweep always runs serially regardless — budget scopes live
        in contextvars, which do not cross process boundaries.
    recorder:
        Observability sink; defaults to the ambient recorder.
    retry:
        Backoff policy for transient point failures; ``None`` falls back
        to the ambient :func:`~repro.resilience.current_resilience`
        config (off by default).
    fault_plan:
        Seeded chaos schedule keyed by point index; ``None`` falls back
        to the ambient config.  Poison faults surface as immediate
        errors (a statistics dict has no outcome to corrupt).
    checkpoint:
        Explicit checkpoint file; ``None`` falls back to the ambient
        config's ``checkpoint_dir`` (via :func:`sweep_checkpoint`), and
        checkpointing is off when that is unset too.
    sleep:
        Injection point for the backoff sleep (tests pass a stub).

    Returns
    -------
    list of dict
        Per point, ``{mechanism name: PaymentStats}`` in input order.
    """
    sink = current_recorder() if recorder is None else recorder
    collect = isinstance(sink, MetricsRecorder)
    ambient = current_resilience()
    if retry is None:
        retry = ambient.retry
    if fault_plan is None:
        fault_plan = ambient.fault_plan
    master = ensure_seed_sequence(seed)
    children = master.spawn(len(points))
    if checkpoint is None and ambient.checkpoint_dir is not None:
        checkpoint = sweep_checkpoint(
            ambient.checkpoint_dir,
            master,
            n_points=len(points),
            n_price_samples=n_price_samples,
        )
    cached = checkpoint.load() if checkpoint is not None else {}
    keys = [seed_fingerprint(child) for child in children]
    pending = [i for i in range(len(points)) if keys[i] not in cached]
    engine = scoped_engine()
    tasks = {
        i: (
            setting,
            dict(mechanisms),
            points[i][0],
            points[i][1],
            n_price_samples,
            children[i],
            engine,
            collect,
            fault_plan,
            i,
            0,
        )
        for i in pending
    }
    if max_workers is not None and max_workers > 1 and current_budget_scope().active:
        # Budget scopes live in contextvars, which never reach pool
        # workers — charging must stay in-process and in point order.
        logger.info(
            "budget store active: running the sweep serially despite "
            "max_workers=%d", max_workers,
        )
        max_workers = 1
    if max_workers is None or max_workers <= 1:
        triples = {i: _sweep_point_safe(tasks[i]) for i in pending}
    else:
        # One long-lived pool per width instead of spinning workers up
        # and down per call — campaign grids call this once per figure
        # cell.
        outputs = pool_map(max_workers, _sweep_point_safe, [tasks[i] for i in pending])
        triples = dict(zip(pending, outputs))
    results: list[dict[str, PaymentStats]] = []
    for i in range(len(points)):
        if i not in triples:
            record = cached[keys[i]]
            sink.count("resilience.checkpoint.hits")
            if collect and record.get("snapshot"):
                sink.merge_snapshot(record["snapshot"])
            results.append(decode_payment_stats(record["payload"]))
            continue
        stats, snapshot, error = triples[i]
        attempt = 0
        delays: tuple[float, ...] = ()
        if error is not None and retry is not None:
            delays = retry.delays(retry_stream(children[i]))
        while error is not None:
            sink.count("resilience.failures")
            if not (is_transient(error) and attempt < len(delays)):
                break
            sink.count("resilience.retries")
            delay = delays[attempt]
            attempt += 1
            with sink.span("retry", "sweep.retry", index=i, attempt=attempt, delay=delay):
                sleep(delay)
            retry_task = list(tasks[i])
            retry_task[-1] = attempt
            stats, snapshot, error = _sweep_point_safe(tuple(retry_task))
        if error is not None:
            raise InstanceExecutionError(i, children[i], error, attempts=attempt + 1) from error
        if attempt:
            sink.count("resilience.recovered")
        if checkpoint is not None:
            checkpoint.append(keys[i], encode_payment_stats(stats), index=i, snapshot=snapshot)
            sink.count("resilience.checkpoint.writes")
        if collect and snapshot is not None:
            sink.merge_snapshot(snapshot)
        results.append(stats)
    return results
