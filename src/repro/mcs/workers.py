"""The worker population: private skills, bundles, and costs.

A :class:`WorkerPool` holds the simulator-side *truth* about workers —
their actual skill matrix ``θ``, truly interested bundles ``Γ*_i``, and
true costs ``c*_i``.  The auction only ever sees what workers *bid*;
:meth:`WorkerPool.truthful_bids` produces the truthful profile of
Definition 2, and the analysis package constructs deviations from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.auction.bids import BidProfile
from repro.auction.instance import AuctionInstance
from repro.exceptions import ValidationError
from repro.utils import validation

__all__ = ["WorkerPool"]


@dataclass(frozen=True)
class WorkerPool:
    """All workers' private state.

    Attributes
    ----------
    skills:
        ``(N, K)`` true skill matrix ``θ`` with entries in [0, 1].
    bundles:
        Tuple of ``N`` frozensets — each worker's truly interested bundle
        ``Γ*_i`` of task indices.
    costs:
        ``(N,)`` true costs ``c*_i`` for executing the interested bundle.

    Construction validates every field once and keeps the bundles in CSR
    form as well (see :mod:`repro.auction.bids`), so the truthful profile
    and the bundle mask are built from those arrays without a per-worker
    loop.
    """

    skills: np.ndarray
    bundles: tuple[frozenset[int], ...]
    costs: np.ndarray

    def __post_init__(self) -> None:
        skills = validation.as_float_array(self.skills, "skills", ndim=2)
        validation.require_in_unit_interval(skills, "skills")
        costs = validation.as_float_array(self.costs, "costs", ndim=1)
        bundles = tuple(frozenset(int(j) for j in b) for b in self.bundles)
        n_workers, n_tasks = skills.shape
        if len(bundles) != n_workers:
            raise ValidationError(
                f"{len(bundles)} bundles for {n_workers} workers"
            )
        if costs.shape[0] != n_workers:
            raise ValidationError(f"{costs.shape[0]} costs for {n_workers} workers")
        if costs.size and np.min(costs) < 0:
            raise ValidationError("costs must be non-negative")
        sizes = np.fromiter(map(len, bundles), dtype=np.int64, count=len(bundles))
        indptr = np.zeros(n_workers + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(map(sorted, bundles)), dtype=np.int64, count=int(indptr[-1])
        )
        bad = indptr[1:] == indptr[:-1]
        bad[np.repeat(np.arange(n_workers), sizes)[(indices < 0) | (indices >= n_tasks)]] = True
        if bad.any():
            i = int(np.argmax(bad))
            if not bundles[i]:
                raise ValidationError(f"worker {i} has an empty bundle")
            raise ValidationError(f"worker {i}'s bundle names an unknown task")
        for arr in (skills, costs, indptr, indices):
            arr.setflags(write=False)
        object.__setattr__(self, "skills", skills)
        object.__setattr__(self, "bundles", bundles)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "_bundle_csr", (indptr, indices))

    @property
    def n_workers(self) -> int:
        """Number of workers ``N``."""
        return self.skills.shape[0]

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``K`` the skill record spans."""
        return self.skills.shape[1]

    def truthful_bids(self) -> BidProfile:
        """The truthful bid profile ``b*_i = (Γ*_i, c*_i)`` (Definition 2).

        Wraps the pool's own bundle CSR and costs, which construction
        validated (finite, non-negative costs; non-empty, in-range
        bundles), without a copy.
        """
        indptr, indices = self._bundle_csr
        return BidProfile._from_validated(indptr, indices, self.costs)

    def bundle_mask(self) -> np.ndarray:
        """Boolean ``(N, K)`` membership matrix of the true bundles."""
        return self.truthful_bids().bundle_mask(self.n_tasks)

    def to_instance(
        self,
        error_thresholds: np.ndarray,
        price_grid: np.ndarray,
        c_min: float,
        c_max: float,
        *,
        bids: BidProfile | None = None,
        skills_estimate: np.ndarray | None = None,
    ) -> AuctionInstance:
        """Assemble the auction instance the platform would solve.

        Parameters
        ----------
        error_thresholds:
            Per-task δ_j (e.g. from a :class:`~repro.mcs.tasks.TaskSet`).
        price_grid, c_min, c_max:
            Market parameters.
        bids:
            The submitted bid profile; defaults to the truthful profile.
        skills_estimate:
            The *platform's* skill record; defaults to the true skills
            (a perfectly informed platform, as in the paper's simulations).
        """
        profile = self.truthful_bids() if bids is None else bids
        skills = self.skills if skills_estimate is None else skills_estimate
        return AuctionInstance.from_skills(
            bids=profile,
            skills=skills,
            error_thresholds=error_thresholds,
            price_grid=price_grid,
            c_min=c_min,
            c_max=c_max,
        )

    def utility_of(self, worker: int, payment: float, won: bool) -> float:
        """Definition 3's utility for one worker under truthful costs."""
        if won:
            return float(payment - self.costs[int(worker)])
        return 0.0
