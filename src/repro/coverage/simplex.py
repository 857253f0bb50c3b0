"""A self-contained two-phase primal simplex for the covering LP.

The library's exact machinery rests on the LP relaxation

    min Σ x_i   s.t.   G x ≥ Q,   0 ≤ x ≤ 1.

By default it is solved by HiGHS (:func:`repro.coverage.lp.lp_lower_bound`);
this module provides a from-scratch alternative so the whole certified
pipeline — LP bound → branch-and-bound → optimal benchmark — can run
without any external solver, and so the HiGHS results have an independent
cross-check (the test suite compares the two on random instances).

Formulation: with surplus ``s ≥ 0``, slack ``t ≥ 0`` and artificials
``a ≥ 0``,

    G x − s + a = Q          (covering rows; artificials give the basis)
    x + t = 1                (upper bounds; slacks give the basis)

Phase 1 minimizes ``Σ a`` to find a feasible basis; phase 2 minimizes
``Σ x``.  Pivoting uses **Bland's rule**, which guarantees termination
(no cycling) at the cost of speed — acceptable here because the covering
LPs are small and the solver's role is correctness cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError, SolverError

__all__ = ["SimplexSolution", "covering_lp_simplex"]

#: Pivot and ratio-test tolerance.  LP numerical stability is a different
#: concern from demand satisfaction, so this stays local rather than
#: aliasing :data:`repro.tolerances.DEMAND_TOL` (the values merely coincide).
_TOL = 1e-9


@dataclass(frozen=True)
class SimplexSolution:
    """Optimal solution of the covering LP relaxation.

    Attributes
    ----------
    objective:
        The optimal fractional cardinality ``Σ x_i``.
    solution:
        ``(M,)`` optimal primal values in ``[0, 1]``.
    iterations:
        Total simplex pivots across both phases.
    """

    objective: float
    solution: np.ndarray
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """In-place Gauss–Jordan pivot on (row, col)."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _simplex_phase(
    tableau: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    *,
    max_iterations: int,
) -> int:
    """Run primal simplex with Bland's rule; returns pivot count.

    ``tableau`` is ``(m, n_vars + 1)`` with the RHS in the last column;
    ``basis`` holds the basic variable of each row.
    """
    m, _ = tableau.shape
    iterations = 0
    while True:
        # Reduced costs: c_j − c_B · B⁻¹ A_j (the tableau is already
        # expressed in the current basis).
        z = costs[basis] @ tableau[:, :-1]
        reduced = costs[: tableau.shape[1] - 1] - z
        entering_candidates = np.flatnonzero(reduced < -_TOL)
        if entering_candidates.size == 0:
            return iterations
        entering = int(entering_candidates[0])  # Bland: smallest index

        column = tableau[:, entering]
        positive = column > _TOL
        if not np.any(positive):
            raise SolverError("covering LP is unbounded (cannot happen: x ≤ 1)")
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / column[positive]
        best = ratios.min()
        # Bland again: among minimal ratios, leave the row whose basic
        # variable has the smallest index.
        tied = np.flatnonzero(ratios <= best + _TOL)
        leaving = int(tied[np.argmin(basis[tied])])

        _pivot(tableau, basis, leaving, entering)
        iterations += 1
        if iterations > max_iterations:
            raise SolverError(
                f"simplex exceeded {max_iterations} pivots (numerical trouble?)"
            )


def covering_lp_simplex(
    problem: CoverProblem, *, max_iterations: int = 50_000
) -> SimplexSolution:
    """Solve the covering LP relaxation with the built-in simplex.

    Raises
    ------
    InfeasibleError
        If no fractional selection covers the demands (phase 1 cannot
        drive the artificials to zero).
    SolverError
        On pivot-limit exhaustion.
    """
    gains = problem.gains
    demands = problem.demands
    n = problem.n_items
    active = problem.active_constraints
    k = int(active.size)
    if k == 0:
        return SimplexSolution(
            objective=0.0, solution=np.zeros(n), iterations=0
        )

    g = gains[:, active].T  # (k, n)
    q = demands[active]

    # Variable layout: [x (n) | s (k) | t (n) | a (k)], total width + RHS.
    n_vars = n + k + n + k
    tableau = np.zeros((k + n, n_vars + 1))
    # Covering rows: G x − s + a = Q.
    tableau[:k, :n] = g
    tableau[:k, n : n + k] = -np.eye(k)
    tableau[:k, n + k + n : n_vars] = np.eye(k)
    tableau[:k, -1] = q
    # Bound rows: x + t = 1.
    tableau[k:, :n] = np.eye(n)
    tableau[k:, n + k : n + k + n] = np.eye(n)
    tableau[k:, -1] = 1.0

    basis = np.concatenate(
        [np.arange(n + k + n, n_vars), np.arange(n + k, n + k + n)]
    )

    # ---- Phase 1: minimize the artificials.
    phase1_costs = np.zeros(n_vars)
    phase1_costs[n + k + n :] = 1.0
    iterations = _simplex_phase(
        tableau, basis, phase1_costs, max_iterations=max_iterations
    )
    artificial_value = float(phase1_costs[basis] @ tableau[:, -1])
    if artificial_value > 1e-7:
        raise InfeasibleError(
            "covering LP is infeasible: artificials cannot reach zero"
        )
    # Pivot any zero-valued artificials out of the basis when possible.
    for row in range(k + n):
        if basis[row] >= n + k + n:
            candidates = np.flatnonzero(
                np.abs(tableau[row, : n + k + n]) > _TOL
            )
            if candidates.size:
                _pivot(tableau, basis, row, int(candidates[0]))
                iterations += 1

    # ---- Phase 2: minimize Σ x with artificials forbidden.
    phase2_costs = np.zeros(n_vars)
    phase2_costs[:n] = 1.0
    phase2_costs[n + k + n :] = 1e9  # never re-enter
    iterations += _simplex_phase(
        tableau, basis, phase2_costs, max_iterations=max_iterations
    )

    solution = np.zeros(n_vars)
    solution[basis] = tableau[:, -1]
    x = np.clip(solution[:n], 0.0, 1.0)
    return SimplexSolution(
        objective=float(x.sum()), solution=x, iterations=iterations
    )
