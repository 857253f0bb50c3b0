"""The cached sweep engine and its ambient-context plumbing.

:class:`SweepEngine` memoizes :class:`~repro.engine.plan.SweepPlan`
objects — keyed by ``(instance, cover_solver)`` **object identity** —
behind a bounded LRU cache, so an N-mechanism comparison on one instance
pays for the expensive winner-set sweep once instead of N times.
Mechanisms fetch the ambient engine via :func:`current_engine` (the
``engine`` field of the one :class:`~repro.context.RunContext`); the
default :data:`DEFAULT_ENGINE` is a pass-through that computes every
plan fresh, so nothing is ever cached — or kept alive — unless a caller
opts in with :func:`use_engine`.

Cache-invalidation rule
-----------------------
Plans are keyed by the *identity* of the instance and solver objects, and
each cache entry pins strong references to both, verifying them with
``is`` on lookup (a recycled ``id()`` after garbage collection can never
alias a live entry).  :class:`~repro.auction.instance.AuctionInstance` is
immutable and every mutation-like operation
(:meth:`~repro.auction.instance.AuctionInstance.replace_bid`, the
privacy-neighbor construction) returns a **new** object, so a neighbor
instance structurally cannot observe the original's cached plan — there
is no invalidation to forget.

Unit-of-work scoping
--------------------
Long-lived caches keyed by identity would pin instances in memory and
make span/counter streams depend on what ran earlier in the process, so
every unit of work (one batch instance, one sweep point) installs its own
:func:`scoped_engine`, which keeps serial and pooled runs metric-identical.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Callable, Iterator

from repro.auction.instance import AuctionInstance
from repro.context import current_context, use_context
from repro.coverage.greedy import GreedyResult, greedy_cover
from repro.coverage.problem import CoverProblem
from repro.engine.plan import SweepPlan, build_plan
from repro.engine.price_set import PriceGroup, feasible_price_set, group_prices_by_candidates
from repro.obs import current_recorder

__all__ = [
    "SweepEngine",
    "DEFAULT_ENGINE",
    "current_engine",
    "use_engine",
    "scoped_engine",
]


class SweepEngine:
    """Bounded identity-keyed cache of price-sweep plans.

    Parameters
    ----------
    max_plans:
        LRU bound on cached plans (and cached price groupings).  Evicted
        entries release their instance references.
    cache:
        ``False`` turns the engine into a pass-through that recomputes
        every plan (the ``--no-plan-cache`` CLI mode); hit/miss counters
        still tick, every lookup being a miss.

    Notes
    -----
    Hits, misses, and evictions are counted on the ambient
    :func:`repro.obs.current_recorder` under ``engine.plan.*`` /
    ``engine.grouping.*`` and mirrored on :attr:`hits` /
    :attr:`misses` / :attr:`evictions` for direct inspection.  Plan
    builds (misses) emit the usual ``price_set``/``greedy_group`` spans
    via :func:`~repro.engine.plan.build_plan`; hits emit no spans.
    """

    def __init__(self, *, max_plans: int = 64, cache: bool = True) -> None:
        if max_plans < 1:
            raise ValueError(f"max_plans must be positive, got {max_plans}")
        self.max_plans = int(max_plans)
        self.cache = bool(cache)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # key -> (pinned key objects..., value); values verified by identity.
        self._plans: OrderedDict[tuple[int, int], tuple[AuctionInstance, Callable, SweepPlan]] = OrderedDict()
        self._groupings: OrderedDict[int, tuple[AuctionInstance, "np.ndarray", list[PriceGroup]]] = OrderedDict()

    # ------------------------------------------------------------------
    # plans

    def plan(
        self,
        instance: AuctionInstance,
        cover_solver: Callable[[CoverProblem], GreedyResult] = greedy_cover,
        *,
        label: str = "sweep",
        group_span: str = "greedy_group",
    ) -> SweepPlan:
        """The sweep plan for ``(instance, cover_solver)``, cached.

        ``label``/``group_span`` only name the observability spans of a
        cache-miss build; they are not part of the cache key (the first
        builder's labels win for a shared plan).

        Raises
        ------
        EmptyPriceSetError
            When no grid price is feasible.
        """
        recorder = current_recorder()
        key = (id(instance), id(cover_solver))
        if self.cache:
            entry = self._plans.get(key)
            if (
                entry is not None
                and entry[0] is instance
                and entry[1] is cover_solver
            ):
                self._plans.move_to_end(key)
                self.hits += 1
                recorder.count("engine.plan.hits")
                return entry[2]
        self.misses += 1
        recorder.count("engine.plan.misses")
        grouping = self._grouping(instance, label=label)
        plan = build_plan(
            instance, cover_solver, label=label, group_span=group_span, grouping=grouping
        )
        if self.cache:
            self._plans[key] = (instance, cover_solver, plan)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1
                recorder.count("engine.plan.evictions")
        return plan

    def _grouping(
        self, instance: AuctionInstance, *, label: str
    ) -> tuple["np.ndarray", list[PriceGroup]]:
        """Feasible prices + price groups for ``instance``, cached.

        Shared across cover solvers: the grouping depends only on the
        instance, so e.g. the baseline's static-order plan reuses the
        grouping the greedy plan already derived.
        """
        recorder = current_recorder()
        key = id(instance)
        if self.cache:
            entry = self._groupings.get(key)
            if entry is not None and entry[0] is instance:
                self._groupings.move_to_end(key)
                recorder.count("engine.grouping.hits")
                return entry[1], entry[2]
        recorder.count("engine.grouping.misses")
        with recorder.span(
            "price_set", f"{label}.price_set", n_workers=instance.n_workers
        ) as span:
            prices = feasible_price_set(instance)
            groups = group_prices_by_candidates(instance, prices)
            span.set(support_size=int(prices.size), n_groups=len(groups))
        if self.cache:
            self._groupings[key] = (instance, prices, groups)
            while len(self._groupings) > self.max_plans:
                self._groupings.popitem(last=False)
        return prices, groups

    # ------------------------------------------------------------------
    # lifecycle

    def fresh(self) -> "SweepEngine":
        """A new empty engine with this engine's configuration."""
        return SweepEngine(max_plans=self.max_plans, cache=self.cache)

    def clear(self) -> None:
        """Drop every cached plan and grouping."""
        self._plans.clear()
        self._groupings.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepEngine(cache={self.cache}, plans={len(self._plans)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


#: The ambient default: a pass-through engine (no caching, no pinned
#: instances).  Callers opt into sharing with :func:`use_engine`; the
#: batch/sweep layers install fresh caching engines per unit of work via
#: :func:`scoped_engine`.
DEFAULT_ENGINE = SweepEngine(cache=False)


def current_engine() -> SweepEngine:
    """The ambient :class:`SweepEngine` (default: pass-through)."""
    engine = current_context().engine
    return DEFAULT_ENGINE if engine is None else engine


@contextlib.contextmanager
def use_engine(engine: SweepEngine) -> Iterator[SweepEngine]:
    """Install ``engine`` as the ambient engine for the ``with`` body.

    :data:`DEFAULT_ENGINE` is installed as ``None`` (the default), which
    a pool worker's context also reads as the default.
    """
    field = None if engine is DEFAULT_ENGINE else engine
    with use_context(current_context().replace(engine=field)):
        yield engine


def scoped_engine() -> SweepEngine:
    """A fresh engine for one unit of work, honoring the ambient policy.

    Returns a *new* caching engine when the ambient engine is the
    untouched default, otherwise an empty clone of the ambient engine's
    configuration — so ``--no-plan-cache`` (an ambient pass-through
    installed by the CLI) propagates to every unit, while the default
    behavior gives each batch instance / sweep point its own bounded
    cache.  A fresh engine per unit keeps metrics independent of
    execution order and backend, mirroring the fresh-recorder protocol.
    """
    ambient = current_engine()
    if ambient is DEFAULT_ENGINE:
        return SweepEngine()
    return ambient.fresh()
