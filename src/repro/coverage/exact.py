"""Certified-optimal solvers for the minimum-cardinality multicover.

The paper computes the optimal benchmark ``S_OPT(p)`` with GUROBI; GUROBI
is proprietary, so this module substitutes two interchangeable exact
backends (see DESIGN.md, Substitutions):

* ``"milp"`` — the HiGHS mixed-integer solver shipped with SciPy
  (:func:`scipy.optimize.milp`), strengthened with an LP-round-up cut
  ``Σ x_i ≥ ⌈LP optimum⌉`` that hands HiGHS the dual bound up front.
  Fast; the default.
* ``"bnb"`` — our own branch-and-bound: LP-relaxation lower bounds,
  greedy-repair incumbents, most-fractional branching with a dive-first
  strategy.  Self-contained (only uses the LP relaxation in
  :mod:`repro.coverage.lp`) and cross-validated against the MILP backend
  in the test suite.

Set multicover MILPs can be genuinely hard (the paper's own Table II
shows GUROBI needing up to 6,139 s on setting-I-sized instances), so both
backends accept resource limits.  When the MILP backend hits its time
limit with an incumbent in hand, it returns that incumbent with
``certified=False`` instead of failing — callers choose whether a bounded
near-optimum is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, milp

from repro.coverage.greedy import greedy_cover
from repro.coverage.lp import lp_lower_bound
from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError, SolverError
from repro.tolerances import meets_demand

__all__ = ["ExactResult", "solve_exact"]

_TOL = 1e-6


@dataclass(frozen=True)
class ExactResult:
    """An optimal (or time-limited best-known) cover.

    Attributes
    ----------
    selection:
        Sorted array of selected item indices.
    backend:
        Which solver produced the result (``"milp"`` or ``"bnb"``).
    certified:
        True when the selection is provably optimal; False when a time
        limit stopped the search with an incumbent whose optimality gap
        may be open.
    nodes:
        Branch-and-bound nodes explored (0 for the MILP backend, whose
        internal count SciPy does not expose).
    """

    selection: np.ndarray
    backend: str
    certified: bool = True
    nodes: int = 0

    @property
    def size(self) -> int:
        """Cover cardinality ``|S|``."""
        return int(self.selection.size)


def solve_exact(
    problem: CoverProblem,
    *,
    backend: str = "milp",
    node_limit: int = 200_000,
    time_limit: float | None = None,
) -> ExactResult:
    """Solve the multicover to certified optimality (resource permitting).

    Parameters
    ----------
    problem:
        The covering instance.
    backend:
        ``"milp"`` (HiGHS, default) or ``"bnb"`` (our branch-and-bound).
    node_limit:
        Safety cap on branch-and-bound nodes; exceeded ⇒ ``SolverError``.
        Ignored by the MILP backend.
    time_limit:
        Wall-clock budget in seconds for the MILP backend; on expiry the
        best incumbent is returned with ``certified=False``.  Ignored by
        the branch-and-bound backend.

    Raises
    ------
    InfeasibleError
        If no selection covers the demands.
    SolverError
        On backend failure, node-limit exhaustion, or a time limit
        expiring before any incumbent was found.
    """
    if not problem.is_coverable():
        raise InfeasibleError("no selection of all items covers the demands")
    if backend == "milp":
        return _solve_milp(problem, time_limit=time_limit)
    if backend == "bnb":
        return _solve_bnb(problem, node_limit=node_limit)
    raise ValueError(f"unknown exact backend {backend!r}; use 'milp' or 'bnb'")


# ----------------------------------------------------------------------
# MILP backend (HiGHS via scipy)
# ----------------------------------------------------------------------


def _solve_milp(problem: CoverProblem, *, time_limit: float | None) -> ExactResult:
    n = problem.n_items
    active = problem.active_constraints
    if active.size == 0:
        return ExactResult(selection=np.array([], dtype=int), backend="milp")

    constraints = [
        LinearConstraint(
            problem.gains[:, active].T, lb=problem.demands[active], ub=np.inf
        )
    ]
    # Two valid cuts that sandwich the cardinality: the integral optimum
    # is at least ⌈LP optimum⌉ and at most the greedy cover size.  Handing
    # HiGHS both bounds short-circuits most of its gap closing.
    lp = lp_lower_bound(problem)
    greedy_size = greedy_cover(problem).size
    constraints.append(
        LinearConstraint(
            np.ones((1, n)),
            lb=float(max(lp.integral_bound, 0)),
            ub=float(greedy_size),
        )
    )

    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    # The objective is a sum of binaries, hence integer-valued: any gap
    # strictly below 1 already certifies optimality (U − L < 1 with U
    # integral and L a valid bound forces U = ⌈L⌉).  Asking HiGHS for a
    # relative gap of 0.9/n guarantees the absolute gap is below 0.9, so
    # it can stop as soon as optimality is *implied* instead of proving
    # the gap to zero.
    options["mip_rel_gap"] = 0.9 / max(n, 1)
    res = milp(
        c=np.ones(n),
        constraints=constraints,
        integrality=np.ones(n),
        bounds=(0, 1),
        options=options,
    )
    if res.status == 2:
        raise InfeasibleError("MILP backend reports the cover is infeasible")
    certified = bool(res.success)
    if res.x is None:
        raise SolverError(
            f"MILP backend produced no incumbent: {res.message}"
        )
    selection = np.flatnonzero(np.asarray(res.x) > 0.5)
    # Degenerate solutions can carry redundant items; stripping them never
    # hurts the objective.
    selection = _prune_redundant(problem, selection)
    if not problem.is_feasible(selection, tol=1e-6):
        raise SolverError("MILP backend returned an infeasible selection")
    # The cut can only certify optimality when HiGHS closed the gap, but a
    # solution matching the LP round-up bound is optimal regardless.
    if not certified and selection.size <= lp.integral_bound:
        certified = True
    return ExactResult(
        selection=np.asarray(selection, dtype=int),
        backend="milp",
        certified=certified,
    )


def _prune_redundant(problem: CoverProblem, selection: np.ndarray) -> np.ndarray:
    """Drop items that are not needed for feasibility (reverse-greedy)."""
    selected = list(int(i) for i in selection)
    coverage = problem.coverage(selected)
    for item in sorted(selected, key=lambda i: -float(problem.gains[i].sum())):
        reduced = coverage - problem.gains[item]
        if meets_demand(reduced, problem.demands):
            coverage = reduced
            selected.remove(item)
    return np.array(sorted(selected), dtype=int)


# ----------------------------------------------------------------------
# Branch-and-bound backend
# ----------------------------------------------------------------------


def _solve_bnb(problem: CoverProblem, *, node_limit: int) -> ExactResult:
    # Incumbent: greedy solution (always feasible because is_coverable passed).
    incumbent = greedy_cover(problem).selection
    best_size = incumbent.size
    nodes_explored = 0

    # Each node is (forced_in tuple, forced_out tuple); depth-first with
    # the x=1 branch pushed last so it is explored first (diving quickly
    # improves the incumbent).
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]

    while stack:
        forced_in, forced_out = stack.pop()
        nodes_explored += 1
        if nodes_explored > node_limit:
            raise SolverError(
                f"branch-and-bound exceeded the node limit of {node_limit}"
            )

        try:
            lp = lp_lower_bound(
                problem,
                forced_in=np.array(forced_in, dtype=int),
                forced_out=np.array(forced_out, dtype=int),
            )
        except InfeasibleError:
            continue
        if lp.integral_bound >= best_size:
            continue  # cannot beat the incumbent

        fractional = lp.fractional_items(_TOL)
        if fractional.size == 0:
            # Integral LP solution: a feasible cover of size < best_size.
            candidate = np.flatnonzero(lp.solution > 0.5)
            candidate = _prune_redundant(problem, candidate)
            if problem.is_feasible(candidate, tol=1e-6) and candidate.size < best_size:
                incumbent, best_size = candidate, candidate.size
            continue

        # Branch on the most fractional variable.
        branch_var = int(fractional[np.argmin(np.abs(lp.solution[fractional] - 0.5))])
        stack.append((forced_in, forced_out + (branch_var,)))  # x=0, explored later
        stack.append((forced_in + (branch_var,), forced_out))  # x=1, explored first

    return ExactResult(
        selection=np.asarray(incumbent, dtype=int), backend="bnb", nodes=nodes_explored
    )
