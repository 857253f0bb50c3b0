"""Cover-solver selection: names, auto dispatch, and shared sweep states.

Mechanisms accept ``cover_solver`` either as a callable or as one of the
registered names:

* ``"auto"`` (the default) — pick the dense or the lazy-sparse kernel
  per problem via :func:`use_lazy_kernel`'s size/density rule;
* ``"dense"`` / ``"greedy"`` — the vectorized dense kernel
  :func:`~repro.coverage.greedy.greedy_cover`;
* ``"lazy_sparse"`` — the CELF kernel
  :func:`~repro.coverage.lazy.lazy_sparse_greedy_cover`.

Because the two kernels are pinned bit-for-bit equal, dispatch is purely
a performance decision: any instance may be solved by either without
changing a single output bit.  The thresholds below are deterministic
functions of the problem shape, so plan-cache keys and golden outputs
stay stable.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.coverage.greedy import GreedyState, greedy_cover
from repro.coverage.lazy import LazyGreedyState, lazy_sparse_greedy_cover
from repro.coverage.problem import CoverProblem
from repro.coverage.sparse import SparseCoverage
from repro.exceptions import ValidationError

__all__ = [
    "auto_cover_solver",
    "resolve_cover_solver",
    "shared_cover_state",
    "use_lazy_kernel",
]

#: The lazy kernel is used only for large sparse instances.  Measured
#: single covers (``BENCH_greedy.json``: ``dispatch_break_even`` over
#: three full bench runs, and the scale entries; dense time over lazy
#: time): at (5k items, 200 constraints) lazy wins 3.2–3.7x at density
#: 0.04, 2.7–2.9x at 0.05, 2.0–2.4x at 0.06 and 1.5–1.6x at 0.08, and
#: loses at 0.16 (0.52–0.58x); at the 512-item floor lazy wins 1.2–1.3x
#: at 0.04 and 1.05–1.2x at 0.05, the kernels tie at 0.06 (1.01–1.07x)
#: and dense wins from 0.08 (0.81–0.86x at 0.08, 0.36–0.42x at 0.16); in
#: the many-subarea regime lazy wins 43x at (20k, 500, density 0.016).
#: At the auction's narrow K = 8 shapes (density ~0.5) dense wins the
#: 10^5-worker price sweep 3x (``BENCH_auction.json``,
#: ``price_pmf_scale``).  The break-even density rises with N, but the
#: cutoff must hold at the 512-item floor, where lazy stops winning
#: above ~0.06; 0.05 stays.
AUTO_SPARSE_MIN_ITEMS = 512
AUTO_SPARSE_MAX_DENSITY = 0.05


def use_lazy_kernel(problem: CoverProblem | SparseCoverage) -> bool:
    """Deterministic size/density rule behind ``cover_solver="auto"``.

    A :class:`SparseCoverage` always takes the lazy kernel (densifying
    it would defeat the representation).  Dense problems take it only
    when they are both large (``AUTO_SPARSE_MIN_ITEMS`` items or more)
    and sparse (density at most ``AUTO_SPARSE_MAX_DENSITY``): the dense
    kernel's per-step cost scans the full ``N x K`` matrix, so its
    disadvantage grows with the number of *zero* cells it touches, while
    CELF's scatter-buffer evaluations only ever touch stored entries.
    """
    if isinstance(problem, SparseCoverage):
        return True
    return _lazy_pays(
        problem.n_items, problem.n_constraints, int(np.count_nonzero(problem.gains))
    )


def _lazy_pays(n_items: int, n_constraints: int, nnz: int) -> bool:
    """The size/density rule on a shape and its count of nonzero gains."""
    if n_items < AUTO_SPARSE_MIN_ITEMS:
        return False
    cells = n_items * n_constraints
    density = nnz / cells if cells else 0.0
    return density <= AUTO_SPARSE_MAX_DENSITY


def auto_cover_solver(problem, *, budget_mask=None):
    """Solve with whichever kernel :func:`use_lazy_kernel` picks.

    The result is bit-identical either way; dispatch only changes speed.
    This function is the identity mechanisms use as their default plan
    key, so every mechanism running with ``cover_solver="auto"`` shares
    one cached :class:`~repro.engine.plan.SweepPlan` per instance.
    """
    if use_lazy_kernel(problem):
        return lazy_sparse_greedy_cover(problem, budget_mask=budget_mask)
    return greedy_cover(problem, budget_mask=budget_mask)


#: Registered solver names accepted anywhere a ``cover_solver`` is taken.
COVER_SOLVERS: dict[str, Callable] = {
    "auto": auto_cover_solver,
    "dense": greedy_cover,
    "greedy": greedy_cover,
    "lazy_sparse": lazy_sparse_greedy_cover,
}


def resolve_cover_solver(spec: Union[str, Callable]) -> Callable:
    """Map a solver name to its kernel; pass callables through unchanged."""
    if callable(spec):
        return spec
    try:
        return COVER_SOLVERS[spec]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown cover_solver {spec!r}; expected a callable or one of "
            + ", ".join(sorted(COVER_SOLVERS))
        ) from None


def shared_cover_state(
    cover_solver: Callable, sparse: SparseCoverage
) -> Union[GreedyState, LazyGreedyState, None]:
    """A resumable state for solvers that support budget-masked reuse.

    The sweep engine solves every price group of one instance as a
    budget-masked restriction of the full problem, with one
    ``solve_chain`` call.  For the greedy kernels (dense, lazy, or
    auto-dispatched) this returns the matching state, which warm-starts
    every group — the dense state from the previous group's trajectory,
    advancing all groups in lockstep, the lazy one from its initial
    scoring; for foreign solvers it returns ``None`` and the caller falls
    back to per-group sub-problems.

    ``sparse`` is an instance's gain matrix in CSR form.  The lazy state
    takes it as it is; the dense state gets it densified, which is the
    only place a sweep builds the ``(N, K)`` matrix.  ``"auto"`` applies
    :func:`use_lazy_kernel`'s size/density rule to the CSR's ``nnz``
    (the dense matrix's nonzero count), so it picks the kernel the dense
    problem would get.
    """
    if cover_solver is auto_cover_solver:
        lazy = _lazy_pays(sparse.n_items, sparse.n_constraints, sparse.nnz)
        cover_solver = lazy_sparse_greedy_cover if lazy else greedy_cover
    if cover_solver is greedy_cover:
        return GreedyState(sparse.to_problem())
    if cover_solver is lazy_sparse_greedy_cover:
        return LazyGreedyState(sparse)
    return None
