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

#: The lazy kernel is used only for large sparse instances.  Measured on
#: the pinned scale workloads: at density 0.16 the dense kernel's
#: contiguous column sweeps beat CELF even at ``N = 10^5`` (K = 50), and
#: at the auction's narrow K = 8 shapes (density ~0.5) dense wins by
#: ~20x at any N; CELF takes over in the many-subarea regime — density
#: 0.016 gives ~9x at (20k, 500) and density 0.008 gives ~30x at
#: (100k, 1000).  The 0.05 cutoff sits just above the measured
#: break-even (density 0.04 at (5k, 200) is ~1x either way).
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
    n = problem.n_items
    if n < AUTO_SPARSE_MIN_ITEMS:
        return False
    cells = n * problem.n_constraints
    density = np.count_nonzero(problem.gains) / cells if cells else 0.0
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
    cover_solver: Callable, problem: CoverProblem
) -> Union[GreedyState, LazyGreedyState, None]:
    """A resumable state for solvers that support budget-masked reuse.

    The sweep engine solves every price group of one instance as a
    budget-masked restriction of the full problem.  For the greedy
    kernels (dense, lazy, or auto-dispatched) this returns the matching
    state, which warm-starts every group — the dense state from the
    previous group's trajectory, the lazy one from its initial scoring;
    for foreign solvers it returns ``None`` and the caller falls back to
    per-group sub-problems.
    """
    if cover_solver is greedy_cover:
        return GreedyState(problem)
    if cover_solver is lazy_sparse_greedy_cover:
        return LazyGreedyState(problem)
    if cover_solver is auto_cover_solver:
        if use_lazy_kernel(problem):
            return LazyGreedyState(problem)
        return GreedyState(problem)
    return None
