"""Shared, long-lived process pools: the one source of worker processes.

Every process-backed fan-out in the library goes through the one unit
executor, :meth:`repro.resilience.ResilientExecutor.run_units`: a pooled
call submits attempt 0 of every pending unit to :func:`pool_map` — each
:class:`~repro.bench.BatchAuctionRunner` batch on the ``"process"``
backend (either transport) and each parallel
:func:`~repro.experiments.runner.payment_sweep`.  Failures come back as
values and are retried, quarantined and merged by the executor in the
parent.  There is one process pool per worker count, created on
first use, reused by every later call, and shut down at interpreter exit
or by :func:`shutdown_shared_pools`.  A pool forked and joined per batch
dominated small batches: on a 2-vCPU host, the traced ``batch_regions``
operations of the repository benchmark spent a median 150 of their
157 ms in ``BatchAuctionRunner.run`` inside that pool's lifetime.

Workers configure their logging once, in the pool initializer, instead
of on every task.

Warm workers outlive the ambient state they were forked under, so every
task runs in a fresh, empty :class:`contextvars.Context`; a unit of work
receives the :class:`~repro.context.RunContext` it runs under from the
executor, which alone decides what crosses the boundary.

A pool found broken during a call (a worker died, even while idle
between calls) is replaced and the call is resubmitted once; a second
break raises :class:`~concurrent.futures.process.BrokenProcessPool`.
Resubmitting is safe because units are pure functions of their
arguments (instance, seed, attempt) — the serial/process parity suites
pin that — and budget-scoped work never reaches the pool (the executor
keeps it in-process).

Workers share the parent's :mod:`multiprocessing.resource_tracker`,
which starts before the first fork, so a shared-memory batch a worker
attaches is retired only by the parent's unlink.

Pools use the platform's default start method (``fork`` on Linux).
On a 2-vCPU host a ``spawn`` or ``forkserver`` pool took 1.6–2.4 s to
start and serve its first batch, against about 0.1 s with ``fork``.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Iterable

__all__ = ["pool_map", "shared_process_pool", "shutdown_shared_pools"]

logger = logging.getLogger("repro.utils.pool")

_POOLS: dict[int, ProcessPoolExecutor] = {}
_ATEXIT_REGISTERED = False


def _worker_init() -> None:
    """One-time per-worker setup: quiet library logging.

    Pool workers inherit no handlers on spawn; attaching the library's
    :class:`logging.NullHandler` once here replaces the per-task setup
    cost and keeps worker stderr clean regardless of start method.
    """
    logging.getLogger("repro").addHandler(logging.NullHandler())


def _in_fresh_context(fn: Callable, *args):
    """``fn(*args)`` in an empty context, blind to the fork-time ambient state."""
    return contextvars.Context().run(fn, *args)


def shared_process_pool(max_workers: int) -> ProcessPoolExecutor:
    """The shared pool for ``max_workers``-wide fan-out (created lazily).

    A pool whose workers died (surfacing as
    :class:`~concurrent.futures.process.BrokenProcessPool`) is discarded
    and replaced on the next call, so one broken call does not poison
    every later one.
    """
    global _ATEXIT_REGISTERED
    width = int(max_workers)
    if width < 1:
        raise ValueError(f"shared_process_pool needs max_workers >= 1, got {width}")
    pool = _POOLS.get(width)
    if pool is not None and getattr(pool, "_broken", False):
        _discard(width, pool)
        pool = None
    if pool is None:
        # Forked workers must share the parent's resource tracker.  One
        # forked before the parent's tracker starts would start its own on
        # its first shared-memory attach, which reports the batch segments
        # as leaked and unlinks them when the worker exits.
        resource_tracker.ensure_running()
        pool = ProcessPoolExecutor(max_workers=width, initializer=_worker_init)
        _POOLS[width] = pool
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_shared_pools)
            _ATEXIT_REGISTERED = True
    return pool


def _discard(width: int, pool: ProcessPoolExecutor) -> None:
    """Forget ``pool`` (if it is still the width's pool) and reap its workers."""
    if _POOLS.get(width) is pool:
        del _POOLS[width]
    pool.shutdown(wait=True, cancel_futures=True)


def pool_map(
    max_workers: int, fn: Callable, *iterables: Iterable, chunksize: int = 1
) -> list:
    """``list(pool.map(fn, *iterables))`` on the shared ``max_workers`` pool.

    Each call of ``fn`` runs in a fresh :class:`contextvars.Context`.
    Results come back in input order.  When the pool breaks during the
    call it is replaced and the whole call resubmitted once, so ``fn``
    must be a pure function of its arguments; a second break raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    width = int(max_workers)
    columns = [list(column) for column in iterables]
    task = functools.partial(_in_fresh_context, fn)
    try:
        return _map_once(width, task, columns, chunksize)
    except BrokenProcessPool:
        logger.warning(
            "shared process pool (width %d) broke; resubmitting on a fresh pool", width
        )
    return _map_once(width, task, columns, chunksize)


def _map_once(width: int, task: Callable, columns: list, chunksize: int) -> list:
    """One ``map`` over the width's pool; a pool that breaks is discarded."""
    pool = shared_process_pool(width)
    try:
        return list(pool.map(task, *columns, chunksize=chunksize))
    except BrokenProcessPool:
        _discard(width, pool)
        raise


def shutdown_shared_pools() -> None:
    """Shut down every shared pool and reap its workers (idempotent).

    Also runs at interpreter exit.  The next :func:`pool_map` call
    forks a fresh pool.
    """
    while _POOLS:
        _width, pool = _POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)
