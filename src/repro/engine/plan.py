"""Sweep plans: the shared, ε-independent part of a price-sweep run.

Every single-price mechanism in the library runs the same pipeline on an
:class:`~repro.auction.instance.AuctionInstance`:

1. :func:`~repro.engine.price_set.feasible_price_set` — the feasible
   price set ``P`` (binary search over the monotone-feasible grid);
2. :func:`~repro.engine.price_set.group_prices_by_candidates` — maximal
   price runs sharing one affordable-worker set;
3. one cover-solver run per group — the winner set every price in the
   group commits to (for the greedy kernels, one chained sweep over all
   groups).

None of this depends on the privacy budget ε (only the final price draw
does), so the pipeline's output — a :class:`SweepPlan` — is a pure
function of ``(instance, cover_solver)`` and can be shared across
mechanisms, ε values, and repeated PMF evaluations.
:func:`build_plan` computes one; :class:`~repro.engine.engine.SweepEngine`
caches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.coverage.dispatch import shared_cover_state
from repro.coverage.greedy import GreedyResult, greedy_cover
from repro.coverage.problem import CoverProblem
from repro.engine.price_set import (
    PriceGroup,
    feasible_price_set,
    group_prices_by_candidates,
)
from repro.obs import current_recorder

__all__ = ["SweepPlan", "build_plan"]


@dataclass(frozen=True)
class SweepPlan:
    """One instance's complete price-sweep solution for one cover solver.

    Attributes
    ----------
    instance:
        The auction instance the plan was computed for.  Plans hold a
        strong reference: a plan is only ever valid for *this exact
        object* (instances are immutable;
        :meth:`~repro.auction.instance.AuctionInstance.replace_bid`
        returns a new instance, which therefore can never be served a
        stale plan).
    cover_solver:
        The winner-set kernel the plan was solved with.
    prices:
        The feasible price set ``P`` (ascending).
    groups:
        The affordable-worker groups, ascending price order.
    group_selections:
        Per group, the cover's selection as sorted *original* worker
        indices.
    winner_sets:
        Per feasible price, the committed winner set (original indices).
        Prices in the same group share one array.
    cover_sizes:
        ``(|P|,)`` float winner-set cardinalities ``|S(x)|``.
    """

    instance: AuctionInstance
    cover_solver: Callable[[CoverProblem], GreedyResult]
    prices: np.ndarray
    groups: tuple[PriceGroup, ...]
    group_selections: tuple[np.ndarray, ...]
    winner_sets: tuple[np.ndarray, ...]
    cover_sizes: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of affordable-worker groups (cover-solver runs)."""
        return len(self.groups)

    @property
    def support_size(self) -> int:
        """Number of feasible prices ``|P|``."""
        return int(self.prices.size)

    @property
    def total_payments(self) -> np.ndarray:
        """``(|P|,)`` total payment ``x · |S(x)|`` per feasible price."""
        return self.prices * self.cover_sizes


def build_plan(
    instance: AuctionInstance,
    cover_solver: Callable[[CoverProblem], GreedyResult] = greedy_cover,
    *,
    label: str = "sweep",
    group_span: str = "greedy_group",
    grouping: tuple[np.ndarray, list[PriceGroup]] | None = None,
) -> SweepPlan:
    """Run the full price-sweep pipeline once and package the result.

    Emits the same observability span kinds the mechanisms historically
    emitted inline, named under ``label``: ``price_set`` around steps
    1–2 and one ``greedy_group`` span around the whole cover sweep of
    step 3.  A caller that already holds the instance's ``(prices,
    groups)`` — the engine, whose grouping cache is shared across
    solvers — passes it via ``grouping`` and skips steps 1–2 (and the
    ``price_set`` span).

    When ``cover_solver`` is one of the greedy kernels (dense
    :func:`~repro.coverage.greedy.greedy_cover`, CELF
    :func:`~repro.coverage.lazy.lazy_sparse_greedy_cover`, or the
    auto-dispatching default), the groups are solved as budget-masked
    restrictions of the full-instance problem by one ``solve_chain``
    call on one shared state
    (:func:`~repro.coverage.dispatch.shared_cover_state`, built from the
    instance's CSR gain matrix
    :attr:`~repro.auction.instance.AuctionInstance.sparse_quality`) — no
    per-group gain-matrix slice.  The groups come in ascending price order, so
    each mask is a superset of the last: the dense state advances the
    nested groups in lockstep, each resuming from the previous group's
    greedy trajectory, and the CELF state solves them one by one from
    its mask-independent initial scoring.  Bit-for-bit identical
    selections either way.  Any other solver receives each group's
    standalone sub-problem.

    Raises
    ------
    EmptyPriceSetError
        When no grid price is feasible.
    """
    recorder = current_recorder()
    if grouping is None:
        with recorder.span(
            "price_set", f"{label}.price_set", n_workers=instance.n_workers
        ) as span:
            prices = feasible_price_set(instance)
            groups = group_prices_by_candidates(instance, prices)
            span.set(support_size=int(prices.size), n_groups=len(groups))
    else:
        prices, groups = grouping

    state = shared_cover_state(cover_solver, instance.sparse_quality)

    with recorder.span(
        "greedy_group",
        f"{label}.{group_span}",
        n_groups=len(groups),
        n_prices=int(prices.size),
        n_candidates=int(groups[-1].candidates.size) if groups else 0,
    ) as span:
        if state is not None:
            results = state.solve_chain([group.candidates for group in groups])
            group_selections = [result.selection for result in results]
        else:
            group_selections = [
                group.candidates[cover_solver(group.problem).selection]
                for group in groups
            ]
        span.set(cover_sizes=[int(winners.size) for winners in group_selections])

    winner_sets: list[np.ndarray] = [None] * prices.size  # type: ignore[list-item]
    for group, winners in zip(groups, group_selections):
        for k in group.price_indices:
            winner_sets[int(k)] = winners

    cover_sizes = np.array([w.size for w in winner_sets], dtype=float)
    return SweepPlan(
        instance=instance,
        cover_solver=cover_solver,
        prices=prices,
        groups=tuple(groups),
        group_selections=tuple(group_selections),
        winner_sets=tuple(winner_sets),
        cover_sizes=cover_sizes,
    )
