"""JSON-lines checkpoint/resume for long experiment sweeps.

A :class:`SweepCheckpoint` is an append-only JSON-lines file (schema
``repro-checkpoint/1``): a ``meta`` header identifying the run, then one
``point`` record per completed work unit, keyed by the unit's seed
fingerprint (:func:`seed_fingerprint`).  Because units are keyed by
*seed*, not position-in-file, a killed sweep can be resumed after any
prefix (including a record truncated mid-write) and the merged results
are bit-identical to an uninterrupted run: cached units restore their
exact payloads (floats round-trip exactly through ``repr``-based JSON)
and their per-unit metrics snapshots, fresh units re-run from their
original :class:`numpy.random.SeedSequence`.

File layout::

    {"schema": "repro-checkpoint/1", "type": "meta", ...context...}
    {"type": "point", "key": "<fingerprint>", "index": 0, "payload": ..., "snapshot": ...}
    ...

The file discipline — header validation, durable appends, torn-final-line
tolerance — is the shared :class:`~repro.resilience.journal.JsonlJournal`
machinery, which the privacy-budget journal
(:class:`repro.privacy.budget.JsonlBudgetStore`) reuses too.  Every
:meth:`SweepCheckpoint.append` flushes and fsyncs, so a kill loses at
most the record being written — which :meth:`load` tolerates by
discarding a torn final line.  Single writer per file is assumed (one
sweep process owns its checkpoint).
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from repro.exceptions import CheckpointError
from repro.resilience.journal import JsonlJournal

__all__ = ["CHECKPOINT_SCHEMA", "SweepCheckpoint", "seed_fingerprint"]

logger = logging.getLogger("repro.resilience.checkpoint")

#: Current checkpoint schema identifier (first line of every file).
CHECKPOINT_SCHEMA = "repro-checkpoint/1"


def seed_fingerprint(seed: Union[int, np.random.SeedSequence, None]) -> str:
    """A stable textual identity for a :class:`~numpy.random.SeedSequence`.

    Combines the root entropy with the spawn key, which together
    determine the stream exactly — two seeds with equal fingerprints
    yield bit-identical generators, and a child's fingerprint never
    collides with its siblings'.  Used as the checkpoint record key so a
    resume matches cached work to sweep units regardless of file order.

    Examples
    --------
    >>> import numpy as np
    >>> a, b = np.random.SeedSequence(7).spawn(2)
    >>> seed_fingerprint(a)
    '7:0'
    >>> seed_fingerprint(a) != seed_fingerprint(b)
    True
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy_text = "+".join(str(int(e)) for e in entropy)
    else:
        entropy_text = str(entropy)
    key_text = ",".join(str(int(k)) for k in seed.spawn_key)
    return f"{entropy_text}:{key_text}"


class SweepCheckpoint:
    """Append-only, seed-keyed checkpoint file for one sweep.

    Parameters
    ----------
    path:
        The JSON-lines file (created on first :meth:`append`).
    context:
        Identifying key/values written into the meta header (experiment
        name, master-seed fingerprint, point count…).  On :meth:`load`,
        any context key that is *also* present in the file's header must
        match, so a checkpoint cannot silently resume a different run.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "sweep.jsonl")
    >>> ckpt = SweepCheckpoint(path, context={"sweep": "demo"})
    >>> ckpt.append("7:0", {"mean": 1.5}, index=0)
    >>> SweepCheckpoint(path, context={"sweep": "demo"}).load()["7:0"]["payload"]
    {'mean': 1.5}
    """

    def __init__(self, path, *, context: Mapping | None = None) -> None:
        self.path = Path(path)
        self.context = dict(context or {})

    def _journal(self) -> JsonlJournal:
        # A fresh non-persistent journal per operation keeps the
        # checkpoint object free of open handles (and hence picklable).
        return JsonlJournal(
            self.path,
            schema=CHECKPOINT_SCHEMA,
            context=self.context,
            label="checkpoint",
        )

    def exists(self) -> bool:
        """Whether the checkpoint file is already on disk."""
        return self.path.exists()

    # -- reading --------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Read every completed record, keyed by seed fingerprint.

        Returns an empty mapping when the file does not exist.  A torn
        final line (a kill mid-:meth:`append`) is discarded; corruption
        anywhere else, a wrong schema, or a header contradicting this
        checkpoint's ``context`` raises
        :class:`~repro.exceptions.CheckpointError`.
        """
        records: dict[str, dict] = {}
        for line_no, obj in self._journal().replay():
            if obj["type"] != "point":
                raise CheckpointError(
                    f"checkpoint {self.path} line {line_no}: unknown type {obj['type']!r}"
                )
            if "key" not in obj or "payload" not in obj:
                raise CheckpointError(
                    f"checkpoint {self.path} line {line_no}: point record missing key/payload"
                )
            records[str(obj["key"])] = obj
        logger.debug("loaded checkpoint %s: %d records", self.path, len(records))
        return records

    # -- writing --------------------------------------------------------

    def append(
        self,
        key: str,
        payload,
        *,
        index: int | None = None,
        snapshot: Mapping | None = None,
    ) -> None:
        """Durably record one completed unit (flush + fsync).

        Parameters
        ----------
        key:
            The unit's :func:`seed_fingerprint`.
        payload:
            JSON-serializable result of the unit.
        index:
            The unit's input-order position (informational).
        snapshot:
            Optional :meth:`repro.obs.MetricsRecorder.snapshot` of the
            unit's fresh per-unit recorder, replayed on resume so merged
            metrics and the privacy-ledger trail match an uninterrupted
            run exactly.
        """
        self._journal().append(
            {
                "type": "point",
                "key": str(key),
                "index": index,
                "payload": payload,
                "snapshot": None if snapshot is None else dict(snapshot),
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepCheckpoint(path={str(self.path)!r})"
