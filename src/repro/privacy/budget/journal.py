"""Append-only JSON-lines budget store (schema ``repro-budget/1``).

:class:`JsonlBudgetStore` wraps an :class:`~repro.privacy.budget.store.
InMemoryBudgetStore` and journals every state transition — ``charge``
and ``renew`` events — to an append-only JSON-lines file via the shared
:class:`~repro.resilience.journal.JsonlJournal` machinery (the same
file discipline as the sweep checkpoint): a ``meta`` header carrying
the schema and the store's limit configuration, then one event per
line, fsync'd.

Because replay applies the events in file order through the *same*
in-memory accumulation code the live store used, a store rebuilt from
its journal reproduces the composed ε of every ``(tenant, principal)``
account bit-identically — floats round-trip exactly through the
``repr``-based JSON encoder.  A process killed mid-append loses at most
the event being written (the torn final line is discarded on replay),
which matches the durability contract of the sweep checkpoint.

File layout::

    {"type": "meta", "schema": "repro-budget/1", "limit": ..., "limits": {...}}
    {"type": "charge", "tenant": ..., "principal": ..., "mechanism": ...,
     "epsilon": ...}
    {"type": "renew", "tenant": ..., "principal": ..., "epoch": ...}
    ...

Charge events elide default-valued fields — ``sensitivity`` when 1.0,
``composition`` when sequential, ``degraded`` when false — and replay
supplies the same defaults; encoding the charge line is the backend's
throughput hot path.

Durability/throughput trade-off: ``fsync_every=1`` (default) fsyncs per
event; the ``ledger_throughput`` bench raises it to amortize the fsync,
which keeps the append-only backend within a small factor of the
in-memory one.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path
from typing import Iterator, Mapping, Union

from repro.exceptions import BudgetExceededError, CheckpointError
from repro.privacy.budget.store import BudgetAccount, BudgetStore, InMemoryBudgetStore
from repro.resilience.journal import JsonlJournal

__all__ = ["BUDGET_SCHEMA", "JsonlBudgetStore"]

logger = logging.getLogger("repro.privacy.budget.journal")

#: Current budget-journal schema identifier (first line of every file).
BUDGET_SCHEMA = "repro-budget/1"


class JsonlBudgetStore(BudgetStore):
    """Durable budget store: in-memory accounts + an append-only journal.

    Parameters
    ----------
    path:
        The JSON-lines journal file.  When it exists, its events are
        replayed into the in-memory state on construction, so reopening
        a journal resumes the store exactly where the last process left
        it.
    limit, limits, shards:
        Forwarded to the underlying
        :class:`~repro.privacy.budget.store.InMemoryBudgetStore`.  The
        limit configuration is pinned in the journal header; reopening
        with a contradicting limit raises
        :class:`~repro.exceptions.CheckpointError`.
    fsync_every:
        fsync after every N journaled events (default 1).

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "budget.jsonl")
    >>> store = JsonlBudgetStore(path, limit=1.0)
    >>> store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.25)
    0.25
    >>> store.close()
    >>> JsonlBudgetStore(path, limit=1.0).spent("acme", "workers")
    0.25
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        limit: float | None = None,
        limits: Mapping[str, float | None] | None = None,
        shards: int = 16,
        fsync_every: int = 1,
    ) -> None:
        self._memory = InMemoryBudgetStore(limit, limits=limits, shards=shards)
        self._journal = JsonlJournal(
            path,
            schema=BUDGET_SCHEMA,
            context={
                "limit": self._memory.default_limit,
                "limits": dict(self._memory.tenant_limits),
            },
            label="budget journal",
            fsync_every=fsync_every,
            persistent_handle=True,
        )
        # JsonlJournal assumes a single writer; this lock serializes the
        # journal append *and* the in-memory apply as one unit, so
        # concurrent charging from multiple threads (promised by the
        # BudgetStore interface) neither interleaves partial lines nor
        # journals events in an order the memory state never saw.
        self._lock = threading.Lock()
        self._replay()

    @classmethod
    def open_for_audit(cls, path: Union[str, Path]) -> "JsonlBudgetStore":
        """Reopen an existing journal adopting its own header limits.

        The limit configuration is pinned in the meta header, so an audit
        (``repro audit``) can rebuild the store without the caller
        re-specifying — or even knowing — the limits the writing run
        used.

        Raises
        ------
        CheckpointError
            When the file is missing or its header is unreadable.
        """
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"budget journal {path} does not exist")
        first = ""
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    first = line
                    break
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"budget journal {path}: meta header is not valid JSON ({exc})"
            ) from exc
        if not isinstance(header, dict) or header.get("type") != "meta":
            raise CheckpointError(
                f"budget journal {path}: first line must be the meta header"
            )
        return cls(path, limit=header.get("limit"), limits=header.get("limits") or None)

    @property
    def path(self) -> Path:
        """The journal file."""
        return self._journal.path

    def _replay(self) -> None:
        """Apply every journaled event to the in-memory state, in order."""
        n_events = 0
        for line_no, obj in self._journal.replay():
            kind = obj["type"]
            if kind == "charge":
                try:
                    self._memory.charge(
                        obj["tenant"],
                        obj["principal"],
                        mechanism=obj.get("mechanism", "?"),
                        epsilon=float(obj["epsilon"]),
                        sensitivity=float(obj.get("sensitivity", 1.0)),
                        parallel=obj.get("composition") == "parallel",
                        degraded=bool(obj.get("degraded", False)),
                    )
                except BudgetExceededError:
                    # A journaled overspend was already surfaced (and the
                    # charge retained) when it happened live; replay must
                    # reconstruct the state, not re-raise history.
                    pass
                except (KeyError, TypeError, ValueError) as exc:
                    raise CheckpointError(
                        f"budget journal {self.path} line {line_no}: "
                        f"bad charge event ({exc})"
                    ) from exc
            elif kind == "renew":
                epoch = obj.get("epoch")
                self._memory.renew(
                    obj["tenant"],
                    obj.get("principal", "default"),
                    epoch=None if epoch is None else int(epoch),
                )
            else:
                raise CheckpointError(
                    f"budget journal {self.path} line {line_no}: "
                    f"unknown type {kind!r}"
                )
            n_events += 1
        if n_events:
            logger.debug(
                "replayed budget journal %s: %d events, %d accounts",
                self.path,
                n_events,
                len(self._memory),
            )

    # -- BudgetStore interface ------------------------------------------

    def limit_for(self, tenant: str, principal: str = "default") -> float | None:
        return self._memory.limit_for(tenant, principal)

    def charge(
        self,
        tenant: str,
        principal: str,
        *,
        mechanism: str,
        epsilon: float,
        sensitivity: float = 1.0,
        parallel: bool = False,
        degraded: bool = False,
    ) -> float:
        # Journal first, then apply: a kill between the two loses an
        # applied-but-unjournaled charge otherwise.  A kill after the
        # journaled write but before the in-memory update only affects
        # the dying process — replay reconstructs the full state.
        # Default-valued fields (sensitivity 1.0, sequential, not
        # degraded) are elided: replay supplies the same defaults, and
        # encoding 10^6 charge lines is the backend's hot path.
        event = {
            "type": "charge",
            "tenant": str(tenant),
            "principal": str(principal),
            "mechanism": str(mechanism),
            "epsilon": float(epsilon),
        }
        if sensitivity != 1.0:
            event["sensitivity"] = float(sensitivity)
        if parallel:
            event["composition"] = "parallel"
        if degraded:
            event["degraded"] = True
        with self._lock:
            self._journal.append(event)
            return self._memory.charge(
                tenant,
                principal,
                mechanism=mechanism,
                epsilon=epsilon,
                sensitivity=sensitivity,
                parallel=parallel,
                degraded=degraded,
            )

    def renew(self, tenant: str, principal: str = "default", *, epoch: int | None = None) -> None:
        with self._lock:
            self._journal.append(
                {
                    "type": "renew",
                    "tenant": str(tenant),
                    "principal": str(principal),
                    "epoch": epoch,
                }
            )
            self._memory.renew(tenant, principal, epoch=epoch)

    def accounts(self) -> Iterator[BudgetAccount]:
        return self._memory.accounts()

    def account(self, tenant: str, principal: str = "default") -> BudgetAccount | None:
        return self._memory.account(tenant, principal)

    def snapshot(self) -> dict:
        """Picklable dump of every account (see :class:`InMemoryBudgetStore`)."""
        return self._memory.snapshot()

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Force any batched journal appends to disk."""
        with self._lock:
            self._journal.flush()

    def close(self) -> None:
        """Flush and close the journal handle."""
        with self._lock:
            self._journal.close()

    def __enter__(self) -> "JsonlBudgetStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlBudgetStore(path={str(self.path)!r}, accounts={len(self)})"
