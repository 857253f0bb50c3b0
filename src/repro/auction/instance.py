"""The complete input to an hSRC auction (paper Sections III–IV).

An :class:`AuctionInstance` bundles together everything a mechanism needs:

* the workers' bid profile ``b`` (bundles ``Γ_i`` and prices ``ρ_i``),
* the quality matrix ``q`` with ``q_ij = (2 θ_ij − 1)²`` derived from the
  platform's historical skill-level record ``θ``,
* the per-task coverage demands ``Q_j = 2 ln(1/δ_j)`` from the error-bound
  constraint (Lemma 1),
* the candidate single-price grid from which the feasible price set ``P``
  is extracted, and
* the public cost bounds ``c_min``/``c_max`` that parameterize the
  exponential mechanism and the truthfulness gap ``γ = ε·Δc``.

The instance is immutable.  The neighboring-profile operation needed by
the privacy analysis (:meth:`AuctionInstance.replace_bid`) returns a new
instance sharing the task-side data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.auction.bids import Bid, BidProfile
from repro.exceptions import ValidationError
from repro.utils import validation

__all__ = ["AuctionInstance"]


@dataclass(frozen=True)
class AuctionInstance:
    """One hSRC auction: bids, qualities, demands, and the price grid.

    Parameters
    ----------
    bids:
        The bid profile ``b = (b_1, ..., b_N)``.
    quality:
        ``(N, K)`` matrix with ``quality[i, j] = q_ij = (2 θ_ij − 1)²``.
        Entries outside a worker's bundle are ignored (a worker only
        contributes labels for tasks she bids on).
    demands:
        ``(K,)`` vector with ``demands[j] = Q_j = 2 ln(1/δ_j)``.
    price_grid:
        Candidate prices (the finite cost set ``C`` restricted to the range
        the platform is willing to consider).  The *feasible* subset ``P``
        is computed by :func:`repro.engine.price_set.feasible_price_set`.
    c_min, c_max:
        Public lower/upper bounds on any worker's possible cost.  These are
        commitments of the market (not functions of the submitted bids), so
        they are safe to use inside the privacy mechanism.

    Notes
    -----
    Construction validates all cross-shapes and ranges and raises
    :class:`repro.exceptions.ValidationError` on any inconsistency.
    """

    bids: BidProfile
    quality: np.ndarray
    demands: np.ndarray
    price_grid: np.ndarray
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        quality = validation.as_float_array(self.quality, "quality", ndim=2)
        demands = validation.as_float_array(self.demands, "demands", ndim=1)
        price_grid = validation.as_sorted_unique(self.price_grid, "price_grid")

        n_workers, n_tasks = quality.shape
        if len(self.bids) != n_workers:
            raise ValidationError(
                f"bid profile has {len(self.bids)} workers but quality has "
                f"{n_workers} rows"
            )
        if demands.shape[0] != n_tasks:
            raise ValidationError(
                f"demands has length {demands.shape[0]} but quality has "
                f"{n_tasks} columns"
            )
        validation.require_in_unit_interval(quality, "quality")
        if demands.size and np.min(demands) < 0:
            raise ValidationError("demands must be non-negative")
        if price_grid.size == 0:
            raise ValidationError("price_grid must not be empty")
        validation.require_nonnegative(self.c_min, "c_min")
        validation.require_positive(self.c_max, "c_max")
        if self.c_min > self.c_max:
            raise ValidationError(
                f"c_min ({self.c_min}) must not exceed c_max ({self.c_max})"
            )
        for i, bid in enumerate(self.bids):
            if max(bid.bundle) >= n_tasks:
                raise ValidationError(
                    f"bid {i} names task {max(bid.bundle)} but the instance "
                    f"has only {n_tasks} tasks"
                )

        quality.setflags(write=False)
        demands.setflags(write=False)
        price_grid.setflags(write=False)
        object.__setattr__(self, "quality", quality)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "price_grid", price_grid)
        object.__setattr__(self, "c_min", float(self.c_min))
        object.__setattr__(self, "c_max", float(self.c_max))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_skills(
        cls,
        bids: BidProfile,
        skills: np.ndarray,
        error_thresholds: Sequence[float],
        price_grid: Iterable[float],
        c_min: float,
        c_max: float,
    ) -> "AuctionInstance":
        """Build an instance from raw skill levels ``θ`` and thresholds ``δ``.

        Applies the error-bound-constraint transformation of Lemma 1:
        ``q_ij = (2 θ_ij − 1)²`` and ``Q_j = 2 ln(1/δ_j)``.

        Parameters
        ----------
        bids:
            Bid profile.
        skills:
            ``(N, K)`` skill-level matrix ``θ`` with entries in ``[0, 1]``.
        error_thresholds:
            Per-task aggregation error bounds ``δ_j ∈ (0, 1)``.
        price_grid, c_min, c_max:
            As for the main constructor.
        """
        from repro.aggregation.error_bounds import quality_matrix, coverage_demands

        skills = validation.as_float_array(skills, "skills", ndim=2)
        validation.require_in_unit_interval(skills, "skills")
        return cls(
            bids=bids,
            quality=quality_matrix(skills),
            demands=coverage_demands(error_thresholds),
            price_grid=np.asarray(list(price_grid), dtype=float),
            c_min=c_min,
            c_max=c_max,
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Number of workers ``N``."""
        return self.quality.shape[0]

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``K``."""
        return self.quality.shape[1]

    @cached_property
    def prices(self) -> np.ndarray:
        """Vector of asking prices ``(ρ_1, ..., ρ_N)``."""
        prices = self.bids.prices
        prices.setflags(write=False)
        return prices

    @cached_property
    def bundle_mask(self) -> np.ndarray:
        """Boolean ``(N, K)``: True where task j is in worker i's bundle."""
        mask = self.bids.bundle_mask(self.n_tasks)
        mask.setflags(write=False)
        return mask

    @cached_property
    def effective_quality(self) -> np.ndarray:
        """``q`` zeroed outside bundles: a worker only covers tasks she bids.

        This is the gain matrix used by every covering computation; task
        columns a worker did not bid contribute exactly zero coverage.
        """
        eff = np.where(self.bundle_mask, self.quality, 0.0)
        eff.setflags(write=False)
        return eff

    def affordable_mask(self, price: float) -> np.ndarray:
        """Boolean ``(N,)``: workers whose asking price is at most ``price``.

        This is the candidate set ``N' = {w_i : ρ_i ≤ p}`` of the TPM
        problem.
        """
        return self.prices <= price + 0.0

    # ------------------------------------------------------------------
    # Neighboring instances (for privacy / truthfulness analysis)
    # ------------------------------------------------------------------

    def replace_bid(self, worker: int, bid: Bid) -> "AuctionInstance":
        """Return the neighboring instance where worker ``worker`` bids ``bid``.

        All task-side data (quality, demands, grid, cost bounds) is shared;
        only the bid profile changes, matching the neighboring relation of
        Definition 7.
        """
        return AuctionInstance(
            bids=self.bids.replace(worker, bid),
            quality=self.quality,
            demands=self.demands,
            price_grid=self.price_grid,
            c_min=self.c_min,
            c_max=self.c_max,
        )

    def total_demand(self) -> float:
        """Sum of coverage demands ``Σ_j Q_j`` (used by Lemma 2's ``m``)."""
        return float(np.sum(self.demands))
