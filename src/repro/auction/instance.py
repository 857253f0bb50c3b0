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

The bids are CSR rows (:mod:`repro.auction.bids`), and so is the gain
matrix every cover computation reads: :attr:`AuctionInstance.sparse_quality`
keeps the effective quality at the bundle entries only, as a
:class:`~repro.coverage.sparse.SparseCoverage`.  Feasibility tests use its
column sums (:meth:`AuctionInstance.coverage`).  The dense ``(N, K)``
views :attr:`~AuctionInstance.bundle_mask` and
:attr:`~AuctionInstance.effective_quality` are built only when something
asks for them.

Each input is validated once, where it enters: the main constructor
checks a caller's arrays, :meth:`AuctionInstance.from_skills` checks the
skills, thresholds and grid it derives them from, and both then hand the
validated arrays to one trusted constructor, which the shared-memory
transport also uses for arrays that come from a validated instance.

The instance is immutable.  The neighboring-profile operation needed by
the privacy analysis (:meth:`AuctionInstance.replace_bid`) returns a new
instance sharing the task-side data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.auction.bids import Bid, BidProfile
from repro.exceptions import ValidationError
from repro.tolerances import inflate_prices
from repro.utils import validation

if TYPE_CHECKING:
    from repro.coverage.sparse import SparseCoverage

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
        _check_market(
            self.bids, quality.shape, demands, price_grid, self.c_min, self.c_max,
            quality=quality,
        )
        _set_fields(self, self.bids, quality, demands, price_grid, self.c_min, self.c_max)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        bids: BidProfile,
        quality: np.ndarray,
        demands: np.ndarray,
        price_grid: np.ndarray,
        c_min: float,
        c_max: float,
    ) -> "AuctionInstance":
        """The one trusted constructor: wrap validated arrays, no copy or check.

        Used by :meth:`from_skills` and :meth:`replace_bid` after their own
        checks, and by :mod:`repro.bench.shm` for arrays packed from a
        validated instance (read-only views into a shared segment).
        """
        instance = object.__new__(cls)
        _set_fields(instance, bids, quality, demands, price_grid, c_min, c_max)
        return instance

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
        ``q_ij = (2 θ_ij − 1)²`` and ``Q_j = 2 ln(1/δ_j)``.  The skills are
        checked once; the quality derived from them lies in ``[0, 1]`` by
        construction and is not checked again.

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
        from repro.aggregation.error_bounds import coverage_demands, quality_matrix

        if np.ndim(skills) != 2:
            raise ValidationError(f"skills must be 2-dimensional, got ndim={np.ndim(skills)}")
        quality = quality_matrix(skills)
        demands = coverage_demands(error_thresholds)
        grid = validation.as_sorted_unique(
            np.asarray(list(price_grid), dtype=float), "price_grid"
        )
        _check_market(bids, quality.shape, demands, grid, c_min, c_max)
        return cls._from_validated(bids, quality, demands, grid, c_min, c_max)

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
        """Vector of asking prices ``(ρ_1, ..., ρ_N)`` (read-only)."""
        return self.bids._prices

    @cached_property
    def sparse_quality(self) -> SparseCoverage:
        """The effective quality at the bundle entries, in CSR form.

        Entry ``(i, j)`` is stored for task ``j`` in worker ``i``'s bundle
        with ``q_ij > 0``; explicit zeros (skill exactly 0.5) are dropped.
        Equal, array for array, to
        ``SparseCoverage.from_dense(effective_quality, demands)``.  This
        is the gain matrix the cover kernels receive.
        """
        # Imported here: loading repro.coverage reaches back into this layer.
        from repro.coverage.sparse import SparseCoverage

        indptr, indices = self.bids.indptr, self.bids.indices
        rows = np.repeat(np.arange(self.n_workers), np.diff(indptr))
        data = self.quality[rows, indices]
        keep = data > 0.0
        counts = np.bincount(rows[keep], minlength=self.n_workers)
        return SparseCoverage(
            indptr=np.concatenate([[0], np.cumsum(counts)]),
            indices=indices[keep],
            data=data[keep],
            demands=self.demands,
        )

    def coverage(self, rows=None) -> np.ndarray:
        """``(K,)`` quality coverage ``Σ_{i ∈ rows} q_ij`` over bundle entries.

        ``rows`` is ``None`` (every worker), a boolean ``(N,)`` mask or an
        array of worker indices.  Bitwise equal to
        ``effective_quality[rows].sum(axis=0)`` (see
        :meth:`~repro.coverage.sparse.SparseCoverage.column_sums`), without
        the dense matrix.
        """
        return self.sparse_quality.column_sums(rows)

    @cached_property
    def bundle_mask(self) -> np.ndarray:
        """Boolean ``(N, K)``: True where task j is in worker i's bundle."""
        mask = self.bids.bundle_mask(self.n_tasks)
        mask.setflags(write=False)
        return mask

    @cached_property
    def effective_quality(self) -> np.ndarray:
        """``q`` zeroed outside bundles: a worker only covers tasks she bids.

        The dense form of :attr:`sparse_quality`, built on first use (the
        dense cover kernel and the dense analyses read it); task columns
        a worker did not bid contribute exactly zero coverage.
        """
        eff = np.where(self.bundle_mask, self.quality, 0.0)
        eff.setflags(write=False)
        return eff

    @cached_property
    def static_gains(self) -> np.ndarray:
        """``(N,)`` stand-alone truncated coverage ``Σ_j min(q_ij, Q_j)`` (read-only).

        What each worker contributes to an empty platform (see
        :func:`repro.workloads.streams.static_gains`); a full ``(N, K)``
        pass, built on first use.
        """
        gains = np.minimum(self.effective_quality, self.demands[None, :]).sum(axis=1)
        gains.setflags(write=False)
        return gains

    def affordable_mask(self, price: float) -> np.ndarray:
        """Boolean ``(N,)``: workers whose asking price is at most ``price``.

        This is the candidate set ``N' = {w_i : ρ_i ≤ p}`` of the TPM
        problem.  The comparison carries the ``PRICE_DUST_REL`` guard
        (:func:`~repro.tolerances.inflate_prices`), so feasibility and
        price grouping agree on who can afford a grid price.
        """
        return self.prices <= inflate_prices(price)

    # ------------------------------------------------------------------
    # Neighboring instances (for privacy / truthfulness analysis)
    # ------------------------------------------------------------------

    def replace_bid(self, worker: int, bid: Bid) -> "AuctionInstance":
        """Return the neighboring instance where worker ``worker`` bids ``bid``.

        All task-side data (quality, demands, grid, cost bounds) is shared;
        only the bid profile changes, matching the neighboring relation of
        Definition 7.  Only the new bid is checked.
        """
        bids = self.bids.replace(worker, bid)
        bids._check_tasks(self.n_tasks)
        return AuctionInstance._from_validated(
            bids, self.quality, self.demands, self.price_grid, self.c_min, self.c_max
        )

    def total_demand(self) -> float:
        """Sum of coverage demands ``Σ_j Q_j`` (used by Lemma 2's ``m``)."""
        return float(np.sum(self.demands))


def _check_market(bids, shape, demands, price_grid, c_min, c_max, *, quality=None) -> None:
    """Cross-check the parts of an instance; ``quality``, if given, too."""
    n_workers, n_tasks = shape
    if len(bids) != n_workers:
        raise ValidationError(
            f"bid profile has {len(bids)} workers but quality has {n_workers} rows"
        )
    if demands.shape[0] != n_tasks:
        raise ValidationError(
            f"demands has length {demands.shape[0]} but quality has {n_tasks} columns"
        )
    if quality is not None:
        validation.require_in_unit_interval(quality, "quality")
    if demands.size and np.min(demands) < 0:
        raise ValidationError("demands must be non-negative")
    if price_grid.size == 0:
        raise ValidationError("price_grid must not be empty")
    validation.require_nonnegative(c_min, "c_min")
    validation.require_positive(c_max, "c_max")
    if c_min > c_max:
        raise ValidationError(f"c_min ({c_min}) must not exceed c_max ({c_max})")
    bids._check_tasks(n_tasks)


def _set_fields(instance, bids, quality, demands, price_grid, c_min, c_max) -> None:
    for arr in (quality, demands, price_grid):
        arr.setflags(write=False)
    for name, value in (
        ("bids", bids),
        ("quality", quality),
        ("demands", demands),
        ("price_grid", price_grid),
        ("c_min", float(c_min)),
        ("c_max", float(c_max)),
    ):
        object.__setattr__(instance, name, value)
