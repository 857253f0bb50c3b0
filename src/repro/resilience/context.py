"""Ambient resilience configuration: the ``resilience`` field of the run context.

The one place run policy is set.  :func:`use_resilience` installs a
:class:`ResilienceConfig` as the ``resilience`` field of the one ambient
:class:`~repro.context.RunContext`; every
:class:`~repro.resilience.ResilientExecutor` reads its retry policy and
fault plan from :func:`current_resilience` when it is built, and sweeps
checkpoint into its ``checkpoint_dir``.  A unit of work runs under no
config, so a fault plan applies only to the indices of the executor that
read it: a campaign's ``crash@2`` fails cell 2, not unit 2 of a cell's
own sweep.

The default :data:`RESILIENCE_OFF` disables everything: no retries, no
fault injection, no checkpointing, zero overhead.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from repro.context import current_context, use_context
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ResilienceConfig",
    "RESILIENCE_OFF",
    "current_resilience",
    "use_resilience",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """The ambient resilience switches for an execution scope.

    Attributes
    ----------
    retry:
        Backoff policy for transient failures (``None`` disables retry).
    fault_plan:
        Chaos schedule keyed by unit index (stage index for the online
        mechanisms), injected by the executors built in scope (``None``
        injects nothing) — for testing.
    checkpoint_dir:
        Directory where sweeps write their seed-keyed checkpoints and
        look for completed work to resume (``None`` disables
        checkpointing).
    """

    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    checkpoint_dir: Union[str, Path, None] = None


#: The default configuration: everything off.
RESILIENCE_OFF = ResilienceConfig()


def current_resilience() -> ResilienceConfig:
    """The ambient config (:data:`RESILIENCE_OFF` unless one is installed)."""
    config = current_context().resilience
    return RESILIENCE_OFF if config is None else config


@contextlib.contextmanager
def use_resilience(config: ResilienceConfig) -> Iterator[ResilienceConfig]:
    """Install ``config`` as the ambient resilience config for the body.

    Scopes nest and restore on exit, and the installation is local to
    the current thread/async task.

    Examples
    --------
    >>> from repro.resilience import ResilienceConfig, RetryPolicy
    >>> with use_resilience(ResilienceConfig(retry=RetryPolicy(max_retries=2))):
    ...     current_resilience().retry.max_retries
    2
    >>> current_resilience() is RESILIENCE_OFF
    True
    """
    with use_context(current_context().replace(resilience=config)):
        yield config
