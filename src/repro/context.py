"""The one ambient run context: recorder, clock, engine, budget, resilience.

The five ambient layers are the fields of one frozen :class:`RunContext`
in this module's single ``ContextVar``.  Each layer's ``use_*`` scope
installs a copy with its own field replaced and its ``current_*`` reads
that field, so scopes nest, restore on exit and stay local to a thread
or async task.  A ``None`` field means the layer's default: this module
imports nothing from :mod:`repro`, and a context pickled into a pool
worker carries no default object's identity.  What crosses a unit of
work's boundary is decided by
:meth:`repro.resilience.ResilientExecutor.run_units` alone.

>>> with use_context(current_context().replace(clock="fake")):
...     current_context().clock
'fake'
>>> current_context() == RunContext()
True
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["RunContext", "current_context", "use_context"]


@dataclass(frozen=True, slots=True)
class RunContext:
    """The ambient policy of one execution scope; ``None`` means the default.

    A recorder, a clock, a sweep engine, a budget scope and a resilience
    config, read by ``repro.obs``, ``repro.engine``,
    ``repro.privacy.budget`` and ``repro.resilience``.
    """

    recorder: Any = None
    clock: Any = None
    engine: Any = None
    budget: Any = None
    resilience: Any = None

    def replace(self, *, recorder=..., clock=..., engine=..., budget=..., resilience=...):
        """A copy with the given fields replaced (``...`` keeps a field).

        Hand-written: :func:`dataclasses.replace` takes twice as long.
        """
        return RunContext(
            self.recorder if recorder is ... else recorder,
            self.clock if clock is ... else clock,
            self.engine if engine is ... else engine,
            self.budget if budget is ... else budget,
            self.resilience if resilience is ... else resilience,
        )


_CURRENT: contextvars.ContextVar[RunContext] = contextvars.ContextVar(
    "repro_run_context", default=RunContext()
)


def current_context() -> RunContext:
    """The ambient :class:`RunContext` (every field ``None`` by default)."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_context(context: RunContext) -> Iterator[RunContext]:
    """Install ``context`` as the ambient run context for the ``with`` body."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
