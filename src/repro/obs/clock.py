"""Injectable monotonic wall-clock for every timing probe.

:class:`~repro.utils.timer.Timer` and the recorder's live spans used to
hand-roll :func:`time.perf_counter` independently; this module is the
single source of "what time is it" so tests can substitute a
:class:`FakeClock` and make span durations *deterministic* — timing
assertions stop being ``>= 0.0`` smoke checks and start pinning exact
values.

The ambient clock is the ``clock`` field of the one
:class:`~repro.context.RunContext`, so installing a fake clock in one
test never leaks into another thread or async task:

>>> from repro.obs.clock import FakeClock, current_clock, use_clock
>>> fake = FakeClock()
>>> with use_clock(fake):
...     t0 = current_clock().now()
...     fake.advance(1.5)
...     current_clock().now() - t0
1.5
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

from repro.context import current_context, use_context

__all__ = [
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "MONOTONIC_CLOCK",
    "current_clock",
    "use_clock",
]


class Clock:
    """A source of monotonic timestamps (seconds as ``float``)."""

    def now(self) -> float:
        """The current monotonic timestamp."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real wall clock: :func:`time.perf_counter`."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()


class FakeClock(Clock):
    """A manually advanced clock for deterministic timing tests.

    Examples
    --------
    >>> clock = FakeClock(start=100.0)
    >>> clock.now()
    100.0
    >>> clock.advance(0.25)
    >>> clock.now()
    100.25
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward; a monotonic clock never goes back."""
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError(f"cannot advance a monotonic clock by {seconds}")
        self._now += seconds


#: The shared real clock (the ambient default).
MONOTONIC_CLOCK = MonotonicClock()


def current_clock() -> Clock:
    """The ambient clock (:data:`MONOTONIC_CLOCK` unless one is installed)."""
    clock = current_context().clock
    return MONOTONIC_CLOCK if clock is None else clock


@contextlib.contextmanager
def use_clock(clock: Clock) -> Iterator[Clock]:
    """Install ``clock`` as the ambient clock for the ``with`` body.

    Scopes nest and restore on exit.
    """
    with use_context(current_context().replace(clock=clock)):
        yield clock
