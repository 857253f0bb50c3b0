"""Zero-copy columnar batches over POSIX shared memory.

Pickling an :class:`~repro.auction.instance.AuctionInstance` into every
pool worker serializes the full ``(N, K)`` quality matrix per instance —
at the ROADMAP's ``10^5``-worker scale that is the batch runner's
dominant cost.  This module packs a whole batch into one *columnar*
layout — a structured-array directory plus one flat float64 pool and one
flat int64 pool — placed in a single
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Workers
receive only a tiny picklable :class:`SharedBatchHandle`, attach the
segment once per batch, and rebuild each instance from **read-only
NumPy views into the segment** — no array copy, no array pickling.

The rebuilt instances are value-faithful: every float crosses the
boundary as raw IEEE bits (a straight ``memcpy``), and the bid profile
travels as its own CSR arrays (``indptr``, task ``indices``, prices).  A
worker wraps the segment views in a profile and an instance through the
trusted constructors (``BidProfile._from_validated``,
``AuctionInstance._from_validated``): the values came from a validated
instance, so nothing is copied or checked again and no :class:`Bid`
object is built.  The batch runner's serial==process determinism
contract therefore survives the transport swap, which
``tests/test_bench_shm.py`` pins.

Lifecycle: the parent (the :class:`~repro.bench.batch.BatchAuctionRunner`)
owns the segment — it creates it before dispatch and closes *and
unlinks* it in a ``finally``, so no ``/dev/shm`` entry outlives the
batch even when workers crash.  A warm pool worker keeps its mapping
until the next batch's handle arrives, then closes it, so it never maps
more than one batch.  Pool workers share the parent's
:mod:`multiprocessing.resource_tracker`, where their attach-time
registration is an idempotent no-op; only the parent's ``unlink()``
deregisters the name (see :func:`attach_batch`).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.auction.bids import BidProfile
from repro.auction.instance import AuctionInstance

__all__ = [
    "ColumnarBatch",
    "SharedBatchHandle",
    "SharedInstanceBatch",
    "list_batch_segments",
    "pack_instances",
]

#: ``/dev/shm`` name prefix for every segment this module creates; the
#: leak-regression tests list segments by this prefix.
SEGMENT_PREFIX = "repro-batch-"

#: Per-instance directory entry: shapes, pool offsets, and cost bounds.
META_DTYPE = np.dtype(
    [
        ("n_workers", np.int64),
        ("n_tasks", np.int64),
        ("grid_size", np.int64),
        ("bundle_nnz", np.int64),
        ("float_offset", np.int64),
        ("int_offset", np.int64),
        ("c_min", np.float64),
        ("c_max", np.float64),
    ]
)


def list_batch_segments(prefix: str = SEGMENT_PREFIX) -> tuple[str, ...]:
    """Names of live ``/dev/shm`` segments with ``prefix`` (sorted).

    Returns an empty tuple on platforms without a ``/dev/shm``
    filesystem; the leak tests skip themselves in that case.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return ()
    return tuple(sorted(p.name for p in root.iterdir() if p.name.startswith(prefix)))


class ColumnarBatch:
    """A batch of instances in the columnar directory/pool layout.

    ``meta`` is the per-instance directory (:data:`META_DTYPE`);
    ``floats`` holds each instance's ``quality`` (row-major), ``demands``,
    ``price_grid`` and bid prices back to back; ``ints`` holds each
    instance's bundle CSR (``indptr`` then task indices).  ``owner``
    (if any) is the object keeping the underlying buffer alive — the
    shared-memory segment for attached batches.
    """

    def __init__(
        self,
        meta: np.ndarray,
        floats: np.ndarray,
        ints: np.ndarray,
        owner: Optional[object] = None,
    ) -> None:
        self.meta = meta
        self.floats = floats
        self.ints = ints
        self._owner = owner

    @property
    def n_instances(self) -> int:
        """Number of packed instances."""
        return int(self.meta.size)

    def unpack(self, i: int) -> AuctionInstance:
        """Instance ``i`` rebuilt over read-only views of the pools."""
        m = self.meta[i]
        n, k = int(m["n_workers"]), int(m["n_tasks"])
        grid_size, nnz = int(m["grid_size"]), int(m["bundle_nnz"])
        fo, io = int(m["float_offset"]), int(m["int_offset"])

        quality = self.floats[fo : fo + n * k].reshape(n, k)
        fo += n * k
        demands = self.floats[fo : fo + k]
        fo += k
        price_grid = self.floats[fo : fo + grid_size]
        fo += grid_size
        prices = self.floats[fo : fo + n]

        indptr = self.ints[io : io + n + 1]
        tasks = self.ints[io + n + 1 : io + n + 1 + nnz]
        return AuctionInstance._from_validated(
            bids=BidProfile._from_validated(indptr, tasks, prices),
            quality=quality,
            demands=demands,
            price_grid=price_grid,
            c_min=float(m["c_min"]),
            c_max=float(m["c_max"]),
        )


def pack_instances(instances: Sequence[AuctionInstance]) -> ColumnarBatch:
    """Pack a batch into fresh (non-shared) columnar pools."""
    n_batch = len(instances)
    meta = np.zeros(n_batch, dtype=META_DTYPE)
    n_floats = 0
    n_ints = 0
    for idx, inst in enumerate(instances):
        n, k, nnz = inst.n_workers, inst.n_tasks, inst.bids.indices.size
        meta[idx] = (
            n,
            k,
            inst.price_grid.size,
            nnz,
            n_floats,
            n_ints,
            inst.c_min,
            inst.c_max,
        )
        n_floats += n * k + k + inst.price_grid.size + n
        n_ints += (n + 1) + nnz
    floats = np.empty(n_floats, dtype=np.float64)
    ints = np.empty(n_ints, dtype=np.int64)
    for idx, inst in enumerate(instances):
        fo = int(meta[idx]["float_offset"])
        for chunk in (inst.quality.ravel(), inst.demands, inst.price_grid, inst.prices):
            floats[fo : fo + chunk.size] = chunk
            fo += chunk.size
        io = int(meta[idx]["int_offset"])
        for chunk in (inst.bids.indptr, inst.bids.indices):
            ints[io : io + chunk.size] = chunk
            io += chunk.size
    return ColumnarBatch(meta=meta, floats=floats, ints=ints)


@dataclass(frozen=True)
class SharedBatchHandle:
    """Everything a worker needs to attach a packed batch: tiny, picklable."""

    name: str
    n_instances: int
    floats_len: int
    ints_len: int

    def view(self, shm: shared_memory.SharedMemory) -> ColumnarBatch:
        """Read-only :class:`ColumnarBatch` over an attached segment."""
        meta_bytes = self.n_instances * META_DTYPE.itemsize
        meta = np.frombuffer(shm.buf, dtype=META_DTYPE, count=self.n_instances)
        floats = np.frombuffer(
            shm.buf, dtype=np.float64, count=self.floats_len, offset=meta_bytes
        )
        ints = np.frombuffer(
            shm.buf,
            dtype=np.int64,
            count=self.ints_len,
            offset=meta_bytes + self.floats_len * 8,
        )
        for arr in (meta, floats, ints):
            arr.setflags(write=False)
        return ColumnarBatch(meta=meta, floats=floats, ints=ints, owner=shm)


#: Per-process attachment cache: segment name → (segment, batch view).
#: Pool workers serve every chunk of one batch from a single attach and
#: hold at most one batch: warm workers outlive every batch they serve.
_WORKER_ATTACHMENTS: dict[str, tuple[shared_memory.SharedMemory, ColumnarBatch]] = {}


def attach_batch(handle: SharedBatchHandle) -> ColumnarBatch:
    """Attach (or reuse this process's attachment of) a shared batch.

    A new handle first detaches the previously attached batch (a worker
    runs one unit at a time, so no instance of it is still alive), so a
    warm worker maps at most one batch.
    """
    entry = _WORKER_ATTACHMENTS.get(handle.name)
    if entry is None:
        _detach_all()
        # Attaching registers the name with the ambient resource tracker
        # (Python registers every construction, not just creates).  Pool
        # workers inherit the *parent's* tracker, where registration is
        # an idempotent set-add — so the attach is a no-op there and the
        # parent's unlink() deregisters the name exactly once.  Workers
        # must NOT unregister: in the shared tracker that would cancel
        # the parent's registration out from under it.
        shm = shared_memory.SharedMemory(name=handle.name)
        entry = (shm, handle.view(shm))
        _WORKER_ATTACHMENTS[handle.name] = entry
    return entry[1]


def _detach_all() -> None:
    """Drop every cached batch view and close its segment.

    Units drop the instances they rebuilt from a batch when they return,
    so the segment has no exported buffers left; a :class:`BufferError`
    from ``close()`` means a view leaked, and is raised.
    """
    while _WORKER_ATTACHMENTS:
        _name, (shm, _batch) = _WORKER_ATTACHMENTS.popitem()
        del _batch
        shm.close()


class SharedInstanceBatch:
    """A packed batch living in one owned shared-memory segment.

    Created by the parent; :attr:`handle` goes to the workers;
    :attr:`batch` is the parent's own zero-copy view (used by the serial
    backend so both backends run through the identical round trip);
    :meth:`dispose` closes and unlinks the segment.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedBatchHandle,
        batch: ColumnarBatch,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self.batch = batch

    @classmethod
    def create(cls, instances: Sequence[AuctionInstance]) -> "SharedInstanceBatch":
        """Pack ``instances`` and publish them in a fresh segment."""
        packed = pack_instances(instances)
        meta_bytes = packed.meta.nbytes
        total = meta_bytes + packed.floats.nbytes + packed.ints.nbytes
        shm = None
        for _ in range(16):
            name = SEGMENT_PREFIX + secrets.token_hex(8)
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(total, 8), name=name
                )
                break
            except FileExistsError:  # pragma: no cover - token collision
                continue
        if shm is None:  # pragma: no cover
            raise RuntimeError("could not allocate a unique shared-memory segment")
        handle = SharedBatchHandle(
            name=shm.name,
            n_instances=packed.n_instances,
            floats_len=packed.floats.size,
            ints_len=packed.ints.size,
        )
        # Fill the segment through temporary writable views, then drop
        # them so close() never sees exported buffers from this scope.
        meta_view = np.frombuffer(shm.buf, dtype=META_DTYPE, count=packed.n_instances)
        meta_view[:] = packed.meta
        floats_view = np.frombuffer(
            shm.buf, dtype=np.float64, count=packed.floats.size, offset=meta_bytes
        )
        floats_view[:] = packed.floats
        ints_view = np.frombuffer(
            shm.buf,
            dtype=np.int64,
            count=packed.ints.size,
            offset=meta_bytes + packed.floats.nbytes,
        )
        ints_view[:] = packed.ints
        del meta_view, floats_view, ints_view
        return cls(shm=shm, handle=handle, batch=handle.view(shm))

    def dispose(self) -> None:
        """Close and unlink the segment; always removes the ``/dev/shm`` entry.

        Unlinking is unconditional — it is what guarantees no leaked
        segment — while the local unmap tolerates stragglers (a still-
        referenced view keeps the mapping alive until process exit, which
        is harmless once the name is gone).
        """
        self.batch = None
        try:
            try:
                self._shm.close()
            except BufferError:
                import gc

                gc.collect()
                try:
                    self._shm.close()
                except BufferError:  # pragma: no cover - stray live view
                    pass
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
