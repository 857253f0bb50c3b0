"""Market-health diagnostics for auction instances.

Several failure modes in this library trace back to *market structure*,
not mechanism bugs: a task only one worker can cover makes the threshold
auction's payments unbounded; a task with supply barely above demand
makes the feasible price set collapse to the top of the grid; a skinny
price set makes the exponential mechanism pointless.  This module gives
operators (and the test suite) one structured look at an instance before
running anything expensive on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.exceptions import EmptyPriceSetError

__all__ = ["MarketDiagnostics", "diagnose"]


@dataclass(frozen=True)
class MarketDiagnostics:
    """A structured market-health report.

    Attributes
    ----------
    n_workers, n_tasks:
        Market dimensions.
    supply_margin:
        ``(K,)`` per-task ratio of total available quality to demand
        (``inf`` for zero-demand tasks); values near 1 mean the market
        barely covers the task, below 1 mean it cannot.
    bottleneck_tasks:
        Task indices with the smallest supply margins, worst first.
    bidders_per_task:
        ``(K,)`` number of workers whose bundle contains each task.
    monopolized_tasks:
        Tasks covered by at most one bidder — threshold-payment
        mechanisms are undefined on these markets, and the feasible price
        set is hostage to a single ask.
    feasible_fraction:
        Fraction of the candidate price grid that is feasible (0 when the
        market cannot cover at any price).
    cheapest_feasible_price:
        The lowest feasible grid price, or ``None`` when none is.
    coverable:
        Whether the full population satisfies every demand.
    """

    n_workers: int
    n_tasks: int
    supply_margin: np.ndarray
    bottleneck_tasks: tuple[int, ...]
    bidders_per_task: np.ndarray
    monopolized_tasks: tuple[int, ...]
    feasible_fraction: float
    cheapest_feasible_price: float | None
    coverable: bool

    @property
    def healthy(self) -> bool:
        """Coverable, no monopolized tasks, and some price-grid slack."""
        return (
            self.coverable
            and not self.monopolized_tasks
            and self.feasible_fraction > 0.0
        )

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"market: {self.n_workers} workers x {self.n_tasks} tasks",
            f"coverable: {self.coverable}",
            f"min supply margin: {float(np.min(self.supply_margin)):.2f} "
            f"(task {self.bottleneck_tasks[0] if self.bottleneck_tasks else '-'})",
            f"monopolized tasks: {list(self.monopolized_tasks) or 'none'}",
            f"feasible grid fraction: {self.feasible_fraction:.1%}",
        ]
        if self.cheapest_feasible_price is not None:
            lines.append(
                f"cheapest feasible price: {self.cheapest_feasible_price:.2f}"
            )
        return "\n".join(lines)


def diagnose(instance: AuctionInstance, *, n_bottlenecks: int = 3) -> MarketDiagnostics:
    """Compute a :class:`MarketDiagnostics` for ``instance``.

    Parameters
    ----------
    instance:
        The market to examine.
    n_bottlenecks:
        How many of the worst-supplied tasks to list.
    """
    from repro.engine.price_set import feasible_price_set

    quality = instance.effective_quality
    demands = instance.demands
    supply = quality.sum(axis=0)
    with np.errstate(divide="ignore"):
        margin = np.where(demands > 0, supply / np.where(demands > 0, demands, 1.0), np.inf)

    order = np.argsort(margin)
    bottlenecks = tuple(int(j) for j in order[: max(int(n_bottlenecks), 0)])

    bidders = instance.bundle_mask.sum(axis=0)
    monopolized = tuple(
        int(j) for j in np.flatnonzero((bidders <= 1) & (demands > 0))
    )

    coverable = bool(np.all(supply >= demands - 1e-9))
    try:
        feasible = feasible_price_set(instance)
        fraction = feasible.size / instance.price_grid.size
        cheapest = float(feasible[0])
    except EmptyPriceSetError:
        fraction, cheapest = 0.0, None

    return MarketDiagnostics(
        n_workers=instance.n_workers,
        n_tasks=instance.n_tasks,
        supply_margin=margin,
        bottleneck_tasks=bottlenecks,
        bidders_per_task=bidders,
        monopolized_tasks=monopolized,
        feasible_fraction=float(fraction),
        cheapest_feasible_price=cheapest,
        coverable=coverable,
    )
