"""Shared experiment plumbing.

:class:`ExperimentResult` is the uniform return type of every experiment
module — a titled table plus free-form notes — so the CLI, the benchmark
suite, and EXPERIMENTS.md all render results the same way.

:func:`payment_sweep_point` evaluates one sweep point of the Figure 1–4
methodology: draw an instance, compute each mechanism's exact price PMF,
sample 10,000 clearing prices (as the paper does), and report the mean
and standard deviation of the platform's total payment.

:func:`payment_sweep` runs a whole sweep of such points, each one a unit
of work for :class:`~repro.resilience.ResilientExecutor`, which owns the
retry, checkpoint/resume, pool fan-out and in-order metrics merge.  It
is the one sweep driver: the Figure 1–4 driver
(:mod:`repro.experiments.figure_payment`) runs its (point, repetition)
units through it too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from repro.analysis.payment import PaymentStats, sampled_payment_stats
from repro.auction.mechanism import Mechanism
from repro.engine.engine import scoped_engine, use_engine
from repro.obs import current_recorder
from repro.resilience.checkpoint import SweepCheckpoint, seed_fingerprint
from repro.resilience.context import current_resilience
from repro.resilience.executor import ResilientExecutor
from repro.utils.rng import RngLike, ensure_rng, fresh_seed_sequence
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


def _sweep_point(setting, mechanisms, n_workers, n_tasks, n_price_samples, seed):
    """One sweep point as a unit of work; module-level so it pickles.

    The point spawns from a fresh copy of its seed, so a retry that
    reuses the caller's object draws what the first attempt drew.
    """
    return payment_sweep_point(
        setting,
        mechanisms,
        n_workers=n_workers,
        n_tasks=n_tasks,
        n_price_samples=n_price_samples,
        seed=np.random.default_rng(fresh_seed_sequence(seed)),
    )


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


def _sweep_digest(setting, mechanisms, points, seeds, n_price_samples) -> str:
    """A digest of what a sweep's units compute, equal in every process.

    Unit checkpoint records are keyed by seed alone, so sweeps that share
    a seed but differ in the setting, a unit's ``(n_workers, n_tasks)``,
    a mechanism's name, class or public scalar attributes (its ε, solver,
    time limit…) or the sample count must not share a file; the unit
    seeds' fingerprints complete the sweep's identity.
    """
    described = [
        repr(setting),
        [list(point) for point in points],
        [seed_fingerprint(seed) for seed in seeds],
        int(n_price_samples),
    ]
    for name, mechanism in mechanisms.items():
        scalars = {
            key: value
            for key, value in getattr(mechanism, "__dict__", {}).items()
            if not key.startswith("_") and isinstance(value, (bool, int, float, str, type(None)))
        }
        described.append([name, type(mechanism).__module__, type(mechanism).__qualname__, scalars])
    text = json.dumps(described, sort_keys=True, default=int)
    return hashlib.blake2s(text.encode("utf-8"), digest_size=8).hexdigest()


def sweep_checkpoint(
    directory: Union[str, Path],
    setting: SimulationSetting,
    mechanisms: Mapping[str, Mechanism],
    points: Sequence[tuple[int | None, int | None]],
    seeds: Sequence[np.random.SeedSequence],
    *,
    n_price_samples: int,
) -> SweepCheckpoint:
    """The canonical checkpoint of one :func:`payment_sweep` invocation.

    :func:`payment_sweep` writes here when the ambient config names a
    ``checkpoint_dir``.  The file is ``payment_sweep-<digest>.jsonl``,
    where the digest covers the setting, the points, the unit seeds, the
    mechanisms and the sample count, so sweeps that differ in any of
    them never collide in one directory; the meta header pins the same
    digest, so a checkpoint can never silently resume a different sweep.
    """
    digest = _sweep_digest(setting, mechanisms, points, seeds, n_price_samples)
    return SweepCheckpoint(
        Path(directory) / f"payment_sweep-{digest}.jsonl",
        context={
            "sweep": "payment_sweep",
            "n_points": len(points),
            "n_price_samples": int(n_price_samples),
            "digest": digest,
        },
    )


def payment_sweep(
    setting: SimulationSetting,
    mechanisms: Mapping[str, Mechanism],
    points: Sequence[tuple[int | None, int | None]],
    seeds: Sequence[np.random.SeedSequence],
    *,
    n_price_samples: int = 10_000,
    max_workers: int | None = None,
) -> list[dict[str, PaymentStats]]:
    """Evaluate a whole Figure 1–4 sweep, optionally on a process pool.

    Point ``i`` runs with ``seeds[i]`` (the contract of
    :meth:`~repro.resilience.ResilientExecutor.run_units`), so the
    parallel and serial paths return *identical* statistics —
    parallelism only buys wall-clock time, never changes numbers.  A
    sweep over child ``i`` of one master seed passes
    ``spawn_seed_sequences(master, len(points))``
    (:func:`repro.utils.rng.spawn_seed_sequences`).

    When a :class:`~repro.obs.MetricsRecorder` is installed as the
    ambient one (:func:`repro.obs.use_recorder`), every point runs under
    its own fresh recorder — serially or in the pool workers alike — and
    the per-point snapshots merge into it in input order, so merged
    metrics are backend-independent too.

    Resilience (each point is one
    :meth:`~repro.resilience.ResilientExecutor.run_units` unit) follows
    the ambient :func:`~repro.resilience.current_resilience` config.
    Transient point failures are retried in the parent with the point's
    own seed on its retry policy's deterministic backoff schedule (each
    backoff is a ``sweep.retry`` span), and its fault plan is keyed by
    point index (a poison fault surfaces as an immediate error: a
    statistics dict has no outcome to corrupt).  A permanent failure
    raises :class:`~repro.exceptions.InstanceExecutionError` (the sweep
    has no quarantine slot — its callers build figure tables that need
    every point).  With a ``checkpoint_dir``, each completed point is
    durably appended to the :func:`sweep_checkpoint` file under its seed
    fingerprint, already-checkpointed points are skipped on the next
    run, and the merged results — statistics, metrics, and
    privacy-ledger trail — are bit-identical to an uninterrupted sweep.

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
    seeds:
        One :class:`~numpy.random.SeedSequence` per point.
    n_price_samples:
        Price draws per mechanism per point.
    max_workers:
        ``None`` or ``1`` runs serially in-process; larger values fan the
        points out over the shared long-lived process pool
        (:func:`repro.utils.pool.pool_map`).
        With an active ambient budget store (:mod:`repro.privacy.budget`)
        the sweep always runs serially regardless.

    Returns
    -------
    list of dict
        Per point, ``{mechanism name: PaymentStats}`` in input order.
    """
    seeds = list(seeds)
    if len(seeds) != len(points):
        raise ValueError(f"seeds has length {len(seeds)} but the sweep has {len(points)} points")
    directory = current_resilience().checkpoint_dir
    mechanisms = dict(mechanisms)
    checkpoint = None
    if directory is not None:
        checkpoint = sweep_checkpoint(
            directory, setting, mechanisms, points, seeds, n_price_samples=n_price_samples
        )
    executor = ResilientExecutor(checkpoint=checkpoint)
    done = executor.run_units(
        _sweep_point,
        [
            (setting, mechanisms, n_workers, n_tasks, n_price_samples, seed)
            for (n_workers, n_tasks), seed in zip(points, seeds)
        ],
        seeds,
        width=max_workers if max_workers is not None and max_workers > 1 else None,
        retry_span="sweep.retry",
        encode=encode_payment_stats,
        decode=decode_payment_stats,
    )
    return list(done.values)
