"""Feasible price set construction and price→candidate-set grouping.

Section IV defines a price ``p`` as *feasible* when the workers asking at
most ``p`` can jointly satisfy every task's error-bound constraint; the
price set ``P`` is the feasible subset of the finite candidate grid
``C``.  Because the affordable worker set only grows with ``p``,
feasibility is monotone, so :func:`feasible_price_set` finds the cheapest
feasible grid point by binary search and returns the grid's tail.

:func:`group_prices_by_candidates` implements the observation behind
Algorithm 1's lines 14–15: all prices falling between two consecutive
bids see the same affordable worker set and hence the same winner set, so
a mechanism only needs one covering computation per *group* — making its
complexity independent of ``|P|`` (Theorem 5's remark).

This module lives in :mod:`repro.engine`, the shared sweep layer below
the mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.coverage.problem import CoverProblem
from repro.exceptions import EmptyPriceSetError
from repro.tolerances import inflate_prices, meets_demand

__all__ = ["feasible_price_set", "PriceGroup", "group_prices_by_candidates"]


def _coverable_with(instance: AuctionInstance, price: float) -> bool:
    """Whether workers asking ≤ ``price`` can satisfy all demands.

    Sums the affordable rows of the instance's CSR gain matrix; no dense
    row copy.
    """
    coverage = instance.coverage(instance.affordable_mask(price))
    return meets_demand(coverage, instance.demands)


def feasible_price_set(instance: AuctionInstance) -> np.ndarray:
    """The feasible price set ``P``: feasible members of the price grid.

    Runs a binary search over the sorted grid for the smallest feasible
    price (feasibility is monotone in the price) and returns every grid
    point from there up.

    Raises
    ------
    EmptyPriceSetError
        When even the most expensive grid price cannot cover the tasks.
    """
    grid = instance.price_grid
    if not _coverable_with(instance, float(grid[-1])):
        raise EmptyPriceSetError(
            "no price in the grid is feasible: even at the highest price the "
            "affordable workers cannot satisfy every task's error bound"
        )
    lo, hi = 0, grid.size - 1  # invariant: grid[hi] is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if _coverable_with(instance, float(grid[mid])):
            hi = mid
        else:
            lo = mid + 1
    return grid[lo:]


@dataclass(frozen=True)
class PriceGroup:
    """A maximal run of feasible prices sharing one affordable worker set.

    Attributes
    ----------
    candidates:
        Original worker indices asking at most any price in the group,
        sorted ascending.
    price_indices:
        Indices into the feasible price array belonging to this group.
    instance:
        The auction instance the group was derived from.
    """

    candidates: np.ndarray
    price_indices: np.ndarray
    instance: AuctionInstance

    @cached_property
    def problem(self) -> CoverProblem:
        """The covering sub-problem restricted to ``candidates``.

        Gains rows follow ``candidates``' order.  Built lazily: the
        engine's default greedy path solves groups as masked restrictions
        of the full-instance problem and never materializes the slice;
        only consumers that need a standalone sub-problem (the exact/LP
        solvers of the optimal benchmark, injected reference kernels) pay
        for the row copy.
        """
        return CoverProblem(
            gains=self.instance.effective_quality[self.candidates],
            demands=self.instance.demands,
        )


def group_prices_by_candidates(
    instance: AuctionInstance, prices: np.ndarray
) -> list[PriceGroup]:
    """Partition ``prices`` into groups with identical affordable workers.

    Parameters
    ----------
    instance:
        The auction instance.
    prices:
        Sorted feasible prices (output of :func:`feasible_price_set`).

    Returns
    -------
    list of PriceGroup
        In ascending price order.  The union of all ``price_indices``
        covers ``range(len(prices))`` exactly once.
    """
    asking = instance.prices
    order = np.argsort(asking, kind="stable")
    # counts[k] = |{i : ρ_i ≤ prices[k]}| — grows (weakly) along the grid.
    # Guard float dust: a grid price equal to an asking price must include
    # that worker, hence the tiny relative inflation (the same predicate
    # as ``AuctionInstance.affordable_mask``, which feasibility uses).
    counts = np.searchsorted(asking[order], inflate_prices(prices), side="right")
    # A group starts wherever the count steps; its candidates, the workers
    # ranked below its count, come out of one comparison in index order.
    starts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist()
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return [
        PriceGroup(
            candidates=np.flatnonzero(rank < counts[start]),
            price_indices=np.arange(start, end),
            instance=instance,
        )
        for start, end in zip(starts, starts[1:] + [counts.size])
    ]
