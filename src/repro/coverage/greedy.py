"""Greedy set-multicover solvers (vectorized execution core).

:func:`greedy_cover` is the inner loop of the paper's Algorithm 1 (lines
8–13): repeatedly select the item with the largest *truncated marginal
gain* ``Σ_j min(Q'_j, q_ij)`` until every residual demand is zero.  Lemma
2 (borrowed from Jin et al., MobiHoc 2015, Theorem 5) bounds its cover
size by ``2·β·H_m`` times the optimum.

:func:`static_order_cover` is the §VII-A baseline's selection rule: items
are taken in a *fixed* order (descending static gain ``Σ_j q_ij``) until
feasibility, ignoring how much of each item's gain is already wasted on
satisfied constraints.  The ablation benchmark contrasts the two rules.

Both solvers are NumPy kernels validated bit-for-bit against the
retained per-item-scan reference implementations in
:mod:`repro.coverage.reference`; ``scripts/bench.py`` records their
speedup in ``BENCH_greedy.json``.

Resumable API
-------------
The price-sweep engine (:mod:`repro.engine`) solves one covering problem
per affordable-worker group, and the groups are *nested*: prices rise,
so each group's candidates are a superset of the previous group's.
:class:`GreedyState` holds the full problem once;
``greedy_cover(problem, budget_mask=mask)`` (or ``state.solve(mask)``)
restricts a run to the masked rows and returns selections in *original*
item indices.  The masked run is bit-for-bit identical to slicing the
problem to the masked rows first: row values are unchanged, unmasked
rows score ``-inf``, and the lowest-index tie-break over masked rows
coincides with the tie-break over the sorted slice.

The state also remembers its last successful run — the mask, the
selection order, the residual ``r_t`` before each step ``t`` and that
step's maximum score ``max_t`` — and a superset mask reuses a prefix of
it.  The rule: find the first step ``t`` at which some newly eligible
item's truncated gain ``Σ_j min(q_ij, r_t,j)`` reaches
``max_t − _TOL``; steps ``0..t−1`` are reused as they stand and the
ordinary loop runs from ``t``.  It is exact because before ``t`` every
new item scores strictly below the old tie band, so the maximum, the
band and its lowest index — hence the winner, and with it the next
residual — are exactly those of the remembered run.  The loop restarts
from ``truncated = min(gains, r_t)``, which equals the incrementally
maintained matrix elementwise: a residual only ever changes in the
columns a winner contributed to, and exactly those columns are
recomputed.  The search widens the band by one more ``_TOL``, so float
dust can only end the reuse early, never skip a newcomer.  A cold solve
is the ``t = 0`` case.  Non-superset masks run cold, and a run that
raises :class:`~repro.exceptions.InfeasibleError` leaves the remembered
trajectory untouched.

Tie-breaking rule
-----------------
The paper's ``argmax`` is silent on ties, which are common late in a run
when many items fully cover the small remaining residual.  Both the
vectorized kernels and the references use one documented deterministic
rule: **the lowest-index item whose truncated gain is within ``_TOL`` of
the step's maximum wins**.  Treating gains within ``_TOL`` as tied makes
the winner stable under floating-point noise far below the tolerance
(adversarially near-equal gains cannot flip the choice), and any
tie-break preserves the Lemma 2 cover-size bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["GreedyResult", "GreedyState", "greedy_cover", "static_order_cover"]

#: Demands below this tolerance count as satisfied, guarding against
#: floating-point residue in the ``Q' −= min(Q', q)`` updates.  The same
#: tolerance is the tie-breaking band: per-step gains within ``_TOL`` of
#: the maximum are considered tied and the lowest index wins.  Aliased
#: from the centralized :data:`repro.tolerances.DEMAND_TOL`.
_TOL = DEMAND_TOL

#: Row-block size for the static-order cover's chunked prefix scan.
_BLOCK = 128

#: Cell budget of one chunk of :meth:`GreedyState._reusable_steps`'s
#: ``(steps, new items, K)`` truncated-gain evaluation.
_FILTER_CELLS = 1 << 16


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy covering run.

    Attributes
    ----------
    selection:
        Sorted array of selected item indices.
    order:
        Item indices in the order they were selected (useful for
        diagnosing the greedy trajectory).
    """

    selection: np.ndarray
    order: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of selected items."""
        return int(self.selection.size)


def _as_item_mask(budget_mask, n_items: int) -> np.ndarray:
    """Normalize a boolean mask or index array to a boolean item mask."""
    mask = np.asarray(budget_mask)
    if mask.dtype == bool:
        if mask.shape != (n_items,):
            raise ValueError(
                f"budget_mask must have shape ({n_items},), got {mask.shape}"
            )
        return mask
    indices = mask.astype(int, copy=False).ravel()
    out = np.zeros(n_items, dtype=bool)
    out[indices] = True
    return out


@dataclass(frozen=True)
class _Trajectory:
    """A completed greedy run, remembered for prefix reuse.

    ``residuals[t]`` is the residual demand before step ``t`` and
    ``best_scores[t]`` that step's maximum score over the eligible items.
    """

    mask: np.ndarray
    order: tuple[int, ...]
    residuals: np.ndarray
    best_scores: np.ndarray


class GreedyState:
    """Shared state for many budget-restricted runs on one problem.

    Snaps the residual-demand vector once and remembers the last
    successful run, so :meth:`solve` on a superset mask reuses the
    remembered steps that the newly eligible items cannot change (see
    *Resumable API* in the module docstring).  Used by
    :class:`repro.engine.SweepEngine` to solve the nested
    affordable-worker groups of a price sweep in ascending price order.
    """

    def __init__(self, problem: CoverProblem) -> None:
        self.problem = problem
        residual = problem.demands.copy()
        residual[residual <= _TOL] = 0.0
        self._residual0 = residual
        self._trivial = not np.any(residual > 0.0)
        self._last: _Trajectory | None = None

    def _reusable_steps(self, mask: np.ndarray) -> int:
        """How many leading steps of the remembered run ``mask`` reuses.

        The first step at which a newly eligible item's truncated gain
        reaches the remembered tie band ends the reusable prefix.  The
        band is widened by one more ``_TOL`` so summation-order dust in
        the batched row sums below can only cause a false positive (a
        shorter reuse), never a miss.
        """
        last = self._last
        if last is None or np.any(last.mask & ~mask):
            return 0
        n_steps = len(last.order)
        new_gains = self.problem.gains[mask & ~last.mask]
        if new_gains.shape[0] == 0:
            return n_steps
        chunk = max(1, _FILTER_CELLS // new_gains.size)
        for lo in range(0, n_steps, chunk):
            residuals = last.residuals[lo : lo + chunk]
            scores = np.minimum(
                new_gains[np.newaxis, :, :], residuals[:, np.newaxis, :]
            ).sum(axis=2)
            band = last.best_scores[lo : lo + chunk, np.newaxis] - 2 * _TOL
            enters = np.any(scores >= band, axis=1)
            if enters.any():
                return lo + int(np.argmax(enters))
        return n_steps

    def solve(self, budget_mask=None) -> GreedyResult:
        """Adaptive greedy over the masked items (original indices).

        Parameters
        ----------
        budget_mask:
            ``None`` (all items eligible), a boolean ``(n_items,)`` mask,
            or an integer index array of eligible items.

        Raises
        ------
        InfeasibleError
            If the eligible items cannot satisfy every demand.
        """
        recorder = current_recorder()
        problem = self.problem
        gains = problem.gains
        n_items = problem.n_items
        residual = self._residual0.copy()
        recorder.count("greedy.calls")
        if self._trivial:
            return GreedyResult(selection=np.array([], dtype=int), order=())

        def infeasible() -> InfeasibleError:
            return InfeasibleError(
                "greedy cover exhausted all useful items with "
                f"{int(np.count_nonzero(residual > 0.0))} demands still unmet"
            )

        if budget_mask is None:
            mask = np.ones(n_items, dtype=bool)
        else:
            mask = _as_item_mask(budget_mask, n_items).copy()
        n_eligible = int(np.count_nonzero(mask))
        if n_eligible == 0:
            raise infeasible()

        start = self._reusable_steps(mask)
        order: list[int] = []
        residuals: list[np.ndarray] = []
        best_scores: list[float] = []
        finished = False
        if start:
            last = self._last
            order = list(last.order[:start])
            residuals = list(last.residuals[:start])
            best_scores = list(last.best_scores[:start])
            finished = start == len(last.order)
            if not finished:
                residual = last.residuals[start].copy()
        recorder.count("greedy.reused_steps", start)
        available = mask.copy()
        available[order] = False
        # T[i, j] = min(Q'_j, q_ij); columns of satisfied demands are zero.
        truncated = None if finished else np.minimum(gains, residual[np.newaxis, :])
        candidates_scanned = 0
        while not finished:
            scores = truncated.sum(axis=1)
            scores[~available] = -np.inf
            best_score = scores.max()
            if best_score <= _TOL:
                recorder.count("greedy.iterations", len(order) - start)
                recorder.count("greedy.candidates_scanned", candidates_scanned)
                raise infeasible()
            best = int(np.argmax(scores >= best_score - _TOL))
            # Every still-eligible item's score was recomputed this step.
            candidates_scanned += n_eligible - len(order)
            residuals.append(residual.copy())
            best_scores.append(best_score)
            order.append(best)
            available[best] = False

            step = truncated[best].copy()
            residual -= step
            residual[residual <= _TOL] = 0.0
            if recorder.enabled:
                recorder.observe("greedy.residual_demand", float(residual.sum()))
            if not np.any(residual > 0.0):
                break
            # A residual changed exactly where the winner contributed; only
            # those columns of T need recomputing.
            changed = step > 0.0
            truncated[:, changed] = np.minimum(gains[:, changed], residual[changed])

        recorder.count("greedy.iterations", len(order) - start)
        recorder.count("greedy.candidates_scanned", candidates_scanned)
        self._last = _Trajectory(
            mask=mask,
            order=tuple(order),
            residuals=np.array(residuals),
            best_scores=np.array(best_scores),
        )
        return GreedyResult(
            selection=np.array(sorted(order), dtype=int), order=tuple(order)
        )


def greedy_cover(
    problem: CoverProblem, *, budget_mask=None, state: GreedyState | None = None
) -> GreedyResult:
    """Adaptive truncated-gain greedy (Algorithm 1, lines 8–13).

    At every step selects ``argmax_i Σ_j min(Q'_j, q_ij)`` among the
    not-yet-selected items (ties: lowest index within ``_TOL`` — see the
    module docstring), subtracts the truncated gains from the residual
    demands, and stops when all residuals hit zero.

    Parameters
    ----------
    problem:
        The covering instance.
    budget_mask:
        Optional restriction to a subset of items — a boolean
        ``(n_items,)`` mask or an index array.  The selection is returned
        in original item indices and is bit-for-bit identical to running
        on the sub-problem sliced to the (sorted) masked rows.
    state:
        Optional :class:`GreedyState` for ``problem``; pass one when
        solving a growing sequence of masks of the same problem to
        resume each run from the previous run's greedy trajectory.

    Raises
    ------
    InfeasibleError
        If demands remain positive after all eligible items are
        exhausted, i.e. the (restricted) instance is not coverable.

    Notes
    -----
    Implemented as an incremental NumPy kernel: the full truncated-gain
    matrix ``T = min(Q', q)`` is built once and thereafter only the
    columns whose residual demand changed in the last step are
    recomputed, so a step costs ``O(N·K_changed)`` for the update plus
    one ``O(N·K)`` row-sum — no per-item Python scan.  Every
    floating-point quantity (scores, residual updates, the ``_TOL``
    snapping of satisfied demands) matches
    :func:`repro.coverage.reference.reference_greedy_cover` bit-for-bit,
    which the equivalence suite asserts on hundreds of seeded instances.
    """
    if state is None:
        state = GreedyState(problem)
    elif state.problem is not problem:
        raise ValueError("state was built for a different CoverProblem")
    return state.solve(budget_mask)


def static_order_cover(
    problem: CoverProblem, order: Sequence[int] | None = None
) -> GreedyResult:
    """Cover by taking items in a fixed order until feasible (§VII-A baseline).

    Parameters
    ----------
    problem:
        The covering instance.
    order:
        The order in which to take items.  Defaults to descending *static*
        gain ``Σ_j q_ij`` (the baseline auction's rule), with ties broken
        by item index for determinism.

    Raises
    ------
    InfeasibleError
        If the full order is exhausted with demands still unmet.

    Notes
    -----
    Vectorized as a chunked prefix scan: coverage running sums are built
    ``_BLOCK`` rows at a time with :func:`numpy.cumsum` (seeded with the
    previous block's totals so the accumulation order — and hence every
    float — matches the item-by-item reference exactly) and the first
    all-satisfied prefix row is the answer.  Bit-for-bit equivalent to
    :func:`repro.coverage.reference.reference_static_order_cover`.
    """
    if order is None:
        static_gain = problem.gains.sum(axis=1)
        # argsort of negated gains: descending gain, index-ascending ties.
        order = np.argsort(-static_gain, kind="stable")
    order_arr = np.asarray(order, dtype=int)

    demands = problem.demands
    need = demands > _TOL
    if not np.any(need):
        return GreedyResult(selection=np.array([], dtype=int), order=())

    target = demands[need] - _TOL
    offset = np.zeros((1, int(np.count_nonzero(need))))
    n_taken: int | None = None
    for start in range(0, order_arr.size, _BLOCK):
        block = order_arr[start : start + _BLOCK]
        # Prepending the running totals makes cumsum reproduce the exact
        # left-to-right accumulation of the sequential reference.
        prefix = np.cumsum(
            np.concatenate([offset, problem.gains[block][:, need]], axis=0), axis=0
        )[1:]
        feasible_rows = np.all(prefix >= target, axis=1)
        if feasible_rows.any():
            n_taken = start + int(np.argmax(feasible_rows)) + 1
            break
        offset = prefix[-1:]
    if n_taken is None:
        raise InfeasibleError(
            "static-order cover exhausted the order with demands still unmet"
        )
    taken = [int(i) for i in order_arr[:n_taken]]
    return GreedyResult(selection=np.array(sorted(taken), dtype=int), order=tuple(taken))
