"""LP randomized rounding — a third approximation route for the multicover.

The classic alternative to the greedy: solve the LP relaxation, include
each item independently with probability ``min(1, α·x*_i)`` for an
inflation factor ``α = O(log K)``, and repair any residual infeasibility
greedily.  Expected size is ``α·LP ≤ α·OPT``, the same asymptotic
guarantee as the greedy but with a very different constant profile —
the rounding ablation shows where each wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coverage.greedy import greedy_cover
from repro.coverage.lp import lp_lower_bound
from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError
from repro.utils import validation
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["RoundingResult", "randomized_rounding_cover"]


@dataclass(frozen=True)
class RoundingResult:
    """Outcome of a randomized-rounding run.

    Attributes
    ----------
    selection:
        Sorted array of selected item indices (after repair).
    lp_objective:
        The LP relaxation optimum used as the rounding base.
    n_repaired:
        Items the greedy repair had to add after rounding.
    """

    selection: np.ndarray
    lp_objective: float
    n_repaired: int

    @property
    def size(self) -> int:
        """Number of selected items."""
        return int(self.selection.size)


def randomized_rounding_cover(
    problem: CoverProblem,
    *,
    inflation: float | None = None,
    seed: RngLike = None,
) -> RoundingResult:
    """Round the LP relaxation to an integral cover, repairing greedily.

    Parameters
    ----------
    problem:
        The covering instance (must be coverable).
    inflation:
        The factor α applied to the fractional solution before rounding;
        defaults to ``ln(K) + 2`` (the standard multicover choice).
    seed:
        Randomness for the independent inclusion draws.

    Raises
    ------
    InfeasibleError
        If the instance is not coverable at all.
    """
    if not problem.is_coverable():
        raise InfeasibleError("no selection of all items covers the demands")
    rng = ensure_rng(seed)
    if inflation is None:
        inflation = float(np.log(max(problem.n_constraints, 2)) + 2.0)
    validation.require_positive(inflation, "inflation")

    lp = lp_lower_bound(problem)
    include_prob = np.minimum(1.0, inflation * lp.solution)
    chosen = np.flatnonzero(rng.random(problem.n_items) < include_prob)

    n_repaired = 0
    if not problem.is_feasible(chosen):
        # Repair: greedy on the residual problem over the unchosen items.
        unchosen = np.setdiff1d(np.arange(problem.n_items), chosen)
        sub = CoverProblem(gains=problem.gains[unchosen], demands=problem.residual(chosen))
        repair_local = greedy_cover(sub).selection
        repair = unchosen[repair_local]
        n_repaired = int(repair.size)
        chosen = np.union1d(chosen, repair)

    return RoundingResult(
        selection=np.asarray(np.sort(chosen), dtype=int),
        lp_objective=lp.objective,
        n_repaired=n_repaired,
    )
