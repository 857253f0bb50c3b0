"""Shared append-only JSON-lines journal machinery.

Both durable stores in this codebase — the sweep checkpoint
(:class:`~repro.resilience.SweepCheckpoint`) and the privacy-budget
journal (:class:`repro.privacy.budget.JsonlBudgetStore`) — need the same
file discipline: a typed ``meta`` header identifying the file's schema
and run context, one JSON object per line after it, durable appends, and
a replay that tolerates exactly one torn final line (a process killed
mid-write) while treating corruption anywhere else as an error.
:class:`JsonlJournal` implements that discipline once; the two stores
layer their record semantics (seed-keyed points, budget charge/renew
events) on top.

File layout::

    {"type": "meta", "schema": "<schema>", ...context...}
    {"type": "<record type>", ...}
    ...

Durability is tunable: ``fsync_every=1`` (the default) fsyncs after
every append, so a kill loses at most the record being written;
larger values batch the fsync for throughput-critical writers (the
budget-ledger bench) at the cost of a correspondingly larger loss
window.  A single writer per file is assumed: :meth:`JsonlJournal.
append` is not itself synchronized, so owners that append from multiple
threads must serialize the calls (as
:class:`~repro.privacy.budget.journal.JsonlBudgetStore` does with an
internal lock).
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterator, Mapping, Union

from repro.exceptions import CheckpointError

__all__ = ["JsonlJournal"]

logger = logging.getLogger("repro.resilience.journal")


class JsonlJournal:
    """Append-only, schema-headed, torn-tail-tolerant JSON-lines file.

    Parameters
    ----------
    path:
        The JSON-lines file (created on first :meth:`append`).
    schema:
        Schema identifier written into (and required of) the ``meta``
        header, e.g. ``"repro-checkpoint/1"``.
    context:
        Identifying key/values written into the meta header.  On
        :meth:`replay`, any context key that is *also* present in the
        file's header must match, so a journal cannot silently resume a
        different run.
    label:
        Word used in error/log messages (``"checkpoint"``,
        ``"budget journal"``, …).
    fsync_every:
        fsync after every N appends (default 1 — every append durable).
    persistent_handle:
        ``True`` keeps one append handle open across :meth:`append`
        calls (throughput writers); ``False`` opens and closes per
        append, which keeps the owning object picklable.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        schema: str,
        context: Mapping | None = None,
        label: str = "journal",
        fsync_every: int = 1,
        persistent_handle: bool = False,
    ) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.schema = str(schema)
        self.context = dict(context or {})
        self.label = str(label)
        self.fsync_every = int(fsync_every)
        self.persistent_handle = bool(persistent_handle)
        self._handle = None
        self._pending = 0
        self._dumps = None

    def exists(self) -> bool:
        """Whether the journal file is already on disk."""
        return self.path.exists()

    # -- reading --------------------------------------------------------

    def replay(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(line_no, record)`` for every record after the header.

        Yields nothing when the file does not exist.  A torn final line
        (a kill mid-:meth:`append`) is discarded with a warning *and
        truncated from the file*, so a later :meth:`append` starts from
        a clean newline-terminated tail; corruption anywhere else, a
        wrong schema, or a header contradicting this journal's
        ``context`` raises :class:`~repro.exceptions.CheckpointError`.
        """
        if not self.path.exists():
            return
        raw_lines = self.path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines = []  # (line_no, stripped line, byte offset of line start)
        offset = 0
        for no, line in enumerate(raw_lines, start=1):
            if line.strip():
                lines.append((no, line, offset))
            offset += len(line.encode("utf-8"))
        for position, (line_no, line, start) in enumerate(lines):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if position == len(lines) - 1:
                    logger.warning(
                        "%s %s: discarding torn final line %d",
                        self.label,
                        self.path,
                        line_no,
                    )
                    self._truncate_to(start)
                    return
                raise CheckpointError(
                    f"{self.label} {self.path} line {line_no}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(obj, dict) or "type" not in obj:
                raise CheckpointError(
                    f"{self.label} {self.path} line {line_no}: not a typed JSON object"
                )
            if position == 0:
                self._check_header(obj, line_no)
                continue
            if obj["type"] == "meta":
                raise CheckpointError(
                    f"{self.label} {self.path} line {line_no}: duplicate meta header"
                )
            yield line_no, obj

    def _truncate_to(self, size: int) -> None:
        """Durably truncate the file to ``size`` bytes (torn-tail repair)."""
        with self.path.open("rb+") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def _repair_torn_tail(self) -> None:
        """Drop a newline-less final line left by a kill mid-append.

        Append must never continue a torn partial line: the merged line
        would be silently discarded as the new torn tail (one lost
        record) or, once more records follow, read as corruption
        mid-file — bricking the journal.  Called before every append to
        an existing file; the common case costs one ``stat`` plus one
        read of the final byte.
        """
        size = self.path.stat().st_size
        if size == 0:
            return
        with self.path.open("rb") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # Torn tail: scan backwards for the last complete line.
            cut = 0
            pos = size
            while pos > 0:
                step = min(4096, pos)
                handle.seek(pos - step)
                index = handle.read(step).rfind(b"\n")
                if index != -1:
                    cut = pos - step + index + 1
                    break
                pos -= step
        logger.warning(
            "%s %s: truncating torn final line (%d bytes) before append",
            self.label,
            self.path,
            size - cut,
        )
        self._truncate_to(cut)

    def _check_header(self, obj: dict, line_no: int) -> None:
        if obj.get("type") != "meta":
            raise CheckpointError(
                f"{self.label} {self.path} line {line_no}: "
                "first line must be the meta header"
            )
        if obj.get("schema") != self.schema:
            raise CheckpointError(
                f"{self.label} {self.path}: unsupported schema {obj.get('schema')!r} "
                f"(expected {self.schema!r})"
            )
        for key, value in self.context.items():
            if key in obj and obj[key] != value:
                raise CheckpointError(
                    f"{self.label} {self.path}: header {key}={obj[key]!r} does not "
                    f"match this run's {key}={value!r} — refusing to resume a "
                    "different run"
                )

    # -- writing --------------------------------------------------------

    def append(self, record: Mapping) -> None:
        """Append one typed record, writing the meta header on a new file.

        With the default ``fsync_every=1`` the record is flushed and
        fsync'd before returning; larger batching windows defer the
        fsync until N records have accumulated (call :meth:`flush` to
        force it).
        """
        dumps = self._dumps
        if dumps is None:
            # Imported lazily (repro.obs must not be pulled in at module
            # load) but bound once: append is the throughput hot path.
            # repro.obs.encoding is the encoder's canonical home and is
            # dependency-free, but importing any repro.obs submodule
            # still executes the package __init__.
            from repro.obs.encoding import dumps_json

            dumps = self._dumps = dumps_json

        handle = self._handle
        if handle is not None and not handle.closed:
            new_file = False
        else:
            handle, new_file = self._open()
        try:
            if new_file:
                header = {"type": "meta", "schema": self.schema}
                header.update(self.context)
                handle.write(dumps(header) + "\n")
            if type(record) is not dict:
                record = dict(record)
            handle.write(dumps(record) + "\n")
            self._pending += 1
            if self._pending >= self.fsync_every:
                handle.flush()
                os.fsync(handle.fileno())
                self._pending = 0
        finally:
            if not self.persistent_handle:
                handle.flush()
                os.fsync(handle.fileno())
                self._pending = 0
                handle.close()
                self._handle = None

    def _open(self):
        if self._handle is not None and not self._handle.closed:
            return self._handle, False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        new_file = not self.path.exists()
        if not new_file:
            self._repair_torn_tail()
            # A file torn down to nothing (killed mid-header) needs the
            # meta header rewritten, exactly like a fresh file.
            new_file = self.path.stat().st_size == 0
        handle = self.path.open("a", encoding="utf-8")
        if self.persistent_handle:
            self._handle = handle
        return handle, new_file

    def flush(self) -> None:
        """Flush and fsync any batched appends (no-op when idle)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._pending = 0

    def close(self) -> None:
        """Flush pending appends and release the persistent handle."""
        if self._handle is not None and not self._handle.closed:
            self.flush()
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlJournal(path={str(self.path)!r}, schema={self.schema!r})"
