"""The weighted set-multicover problem model.

A :class:`CoverProblem` is the abstract combinatorial core of the paper's
TPM problem (Section IV): rows are candidate items (workers), columns are
constraints (tasks), ``gains[i, j]`` is how much item ``i`` contributes to
constraint ``j``, and ``demands[j]`` is how much total contribution
constraint ``j`` requires.  A *selection* is feasible when every residual
demand reaches zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.exceptions import ValidationError
from repro.tolerances import DEMAND_TOL, meets_demand
from repro.utils import validation

__all__ = ["CoverProblem"]


@dataclass(frozen=True)
class CoverProblem:
    """Minimum-cardinality weighted set multicover instance.

    Attributes
    ----------
    gains:
        ``(M, K)`` non-negative contribution matrix.  In the auction
        setting this is the *effective* quality matrix: ``(2θ_ij − 1)²``
        inside a worker's bundle and 0 outside it.
    demands:
        ``(K,)`` non-negative demand vector ``Q``.
    """

    gains: np.ndarray
    demands: np.ndarray

    def __post_init__(self) -> None:
        gains = validation.as_float_array(self.gains, "gains", ndim=2)
        demands = validation.as_float_array(self.demands, "demands", ndim=1)
        if gains.shape[1] != demands.shape[0]:
            raise ValidationError(
                f"gains has {gains.shape[1]} columns but demands has length "
                f"{demands.shape[0]}"
            )
        if gains.size and np.min(gains) < 0:
            raise ValidationError("gains must be non-negative")
        if demands.size and np.min(demands) < 0:
            raise ValidationError("demands must be non-negative")
        gains.setflags(write=False)
        demands.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "demands", demands)

    @property
    def n_items(self) -> int:
        """Number of candidate items (rows)."""
        return self.gains.shape[0]

    @property
    def n_constraints(self) -> int:
        """Number of covering constraints (columns)."""
        return self.gains.shape[1]

    @cached_property
    def active_constraints(self) -> np.ndarray:
        """Indices of constraints with strictly positive demand."""
        idx = np.flatnonzero(self.demands > 0)
        idx.setflags(write=False)
        return idx

    def coverage(self, selection: Iterable[int]) -> np.ndarray:
        """Total contribution per constraint of the selected items."""
        idx = self._as_index_array(selection)
        if idx.size == 0:
            return np.zeros(self.n_constraints, dtype=float)
        return np.asarray(self.gains[idx].sum(axis=0), dtype=float)

    def residual(self, selection: Iterable[int]) -> np.ndarray:
        """Residual demand vector ``Q'`` after selecting ``selection``.

        Clipped at zero, matching the ``min(Q'_j, q_ij)`` bookkeeping of
        Algorithm 1 (lines 12–13).
        """
        return np.clip(self.demands - self.coverage(selection), 0.0, None)

    def is_feasible(self, selection: Iterable[int], *, tol: float = DEMAND_TOL) -> bool:
        """Whether the selection satisfies every demand (to tolerance)."""
        return meets_demand(self.coverage(selection), self.demands, tol=tol)

    def is_coverable(self, *, tol: float = DEMAND_TOL) -> bool:
        """Whether selecting *all* items would satisfy every demand.

        This is the feasibility test used to build the feasible price set
        ``P``: a price is feasible iff the problem restricted to affordable
        workers is coverable.
        """
        return self.is_feasible(range(self.n_items), tol=tol)

    def restrict(self, items: Iterable[int]) -> tuple["CoverProblem", np.ndarray]:
        """Sub-problem over a subset of items.

        Returns the restricted problem and the array mapping its row
        indices back to indices in ``self``.
        """
        idx = self._as_index_array(items)
        return CoverProblem(self.gains[idx], self.demands), idx

    def _as_index_array(self, items: Iterable[int]) -> np.ndarray:
        idx = np.asarray(list(items) if not isinstance(items, np.ndarray) else items)
        if idx.size == 0:
            return idx.astype(int)
        idx = idx.astype(int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_items):
            raise ValidationError("item index out of range")
        return idx
