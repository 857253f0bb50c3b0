"""CELF-style lazy greedy cover over CSR instances, bit-for-bit vs dense.

The dense :func:`~repro.coverage.greedy.greedy_cover` recomputes every
still-eligible item's truncated gain each step — ``O(M·K)`` per step,
which is what tops the bench out at a few thousand workers.  The
truncated-gain objective ``f(S) = Σ_j min(Q_j, Σ_{i∈S} q_ij)`` is
monotone submodular, so marginal gains only *shrink* as the residual
demand shrinks.  CELF (Leskovec et al., KDD 2007) exploits this: keep a
max-heap of *cached* gains from earlier residuals; they are upper
bounds, so when the heap's top entry is fresh (evaluated against the
current residual) it is the true argmax and everything below it can stay
stale.  A step then costs a handful of row evaluations instead of a full
matrix pass.

Bit-for-bit contract
--------------------
This kernel is pinned bitwise against the dense kernel — same winners,
same order, same infeasibility verdicts — which requires more than
algorithmic equivalence:

* **Same reduction tree.**  A row is evaluated by scattering its CSR
  nonzeros into a zeroed ``K``-length buffer and summing
  ``min(buffer, residual)`` over all ``K`` entries — the exact pairwise
  reduction the dense kernel's ``truncated.sum(axis=1)`` performs, zero
  terms included.  Summing only the nonzeros would regroup the pairwise
  tree and could differ in the last ulp.
* **Upper bounds survive rounding.**  Freshness relies on cached values
  being upper bounds.  ``min`` is exact and the fixed-shape pairwise sum
  is monotone in its (non-negative) inputs, so a value computed at an
  elementwise-larger residual is ≥ the recomputed one in true IEEE
  arithmetic, not merely in exact arithmetic.
* **Same tie-break.**  The dense rule is "lowest index within ``_TOL``
  of the step maximum".  After the fresh maximum ``M`` is known, every
  heap entry with cached value ≥ ``M − _TOL`` is popped and (if stale)
  re-evaluated; cached ≥ true means no tie candidate can hide below the
  threshold, so the minimum index over the fresh band reproduces the
  dense ``argmax(scores >= best − _TOL)`` exactly.
* **Same residual updates.**  The residual is updated only on the
  winner's support (``x − 0.0 == x`` for the untouched entries) and
  snapped with the same ``residual[residual <= _TOL] = 0.0``.

:class:`LazyGreedyState` is the CELF counterpart of
:class:`~repro.coverage.greedy.GreedyState`, but it does not resume the
previous mask's trajectory (that would need bookkeeping for the cached
upper bounds).  Its initial gain evaluation (against the snapped full
demands) is done once, blockwise, at construction, and every budget-masked
:meth:`~LazyGreedyState.solve` starts from those cached scores.  For the
price-sweep engine this is the warm start across adjacent affordable
groups: initial gains do not depend on the mask, so the ``O(nnz)``
scoring pass is paid once per instance rather than once per price group.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.coverage.greedy import GreedyResult, _as_item_mask
from repro.coverage.problem import CoverProblem
from repro.coverage.sparse import SparseCoverage
from repro.exceptions import InfeasibleError
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["LazyGreedyState", "lazy_sparse_greedy_cover"]

_TOL = DEMAND_TOL

#: Rows per block when densifying CSR rows for the initial scoring pass.
_SCORE_BLOCK = 2048


class LazyGreedyState:
    """Shared precomputation for many budget-restricted lazy-greedy runs.

    Accepts either a dense :class:`CoverProblem` (converted to CSR once)
    or a :class:`SparseCoverage` directly.  Construction performs the
    initial truncated-gain scoring of *every* row against the snapped
    full demand vector; :meth:`solve` reuses those scores as the heap's
    starting cached gains for any budget mask, so repeated masked solves
    (the engine's nested price groups) skip the full scoring pass.
    """

    def __init__(self, problem: CoverProblem | SparseCoverage) -> None:
        self.problem = problem
        if isinstance(problem, SparseCoverage):
            self.sparse = problem
        elif isinstance(problem, CoverProblem):
            self.sparse = SparseCoverage.from_problem(problem)
        else:
            raise TypeError(
                "LazyGreedyState expects a CoverProblem or SparseCoverage, "
                f"got {type(problem).__name__}"
            )
        residual = np.array(self.sparse.demands, dtype=np.float64)
        residual[residual <= _TOL] = 0.0
        self._residual0 = residual
        self._trivial = not np.any(residual > 0.0)
        self._scores0 = None if self._trivial else self._initial_scores(residual)

    def _initial_scores(self, residual: np.ndarray) -> np.ndarray:
        """Truncated gain of every row vs ``residual``, dense reduction tree.

        Densifies ``_SCORE_BLOCK`` rows at a time and row-sums
        ``min(block, residual)`` over the full ``K`` columns, which is
        bitwise the dense kernel's ``min(gains, residual).sum(axis=1)``
        restricted to those rows.
        """
        sparse = self.sparse
        n, k = sparse.n_items, sparse.n_constraints
        scores = np.empty(n, dtype=np.float64)
        indptr, indices, data = sparse.indptr, sparse.indices, sparse.data
        block = np.zeros((min(_SCORE_BLOCK, max(n, 1)), k), dtype=np.float64)
        for start in range(0, n, _SCORE_BLOCK):
            stop = min(start + _SCORE_BLOCK, n)
            rows = block[: stop - start]
            rows[:] = 0.0
            lo, hi = int(indptr[start]), int(indptr[stop])
            local = (
                np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1]))
                if hi > lo
                else np.empty(0, dtype=int)
            )
            rows[local, indices[lo:hi]] = data[lo:hi]
            scores[start:stop] = np.minimum(rows, residual).sum(axis=1)
        return scores

    def solve(self, budget_mask=None) -> GreedyResult:
        """Lazy greedy over the masked items; original item indices.

        Bit-for-bit identical to
        :meth:`repro.coverage.greedy.GreedyState.solve` on the same
        problem and mask — same selection, order, and
        :class:`~repro.exceptions.InfeasibleError` verdicts.
        """
        recorder = current_recorder()
        sparse = self.sparse
        n_items = sparse.n_items
        recorder.count("lazy_greedy.calls")
        if self._trivial:
            return GreedyResult(selection=np.array([], dtype=int), order=())

        residual = self._residual0.copy()

        def infeasible() -> InfeasibleError:
            return InfeasibleError(
                "greedy cover exhausted all useful items with "
                f"{int(np.count_nonzero(residual > 0.0))} demands still unmet"
            )

        if budget_mask is None:
            eligible = np.ones(n_items, dtype=bool)
        else:
            eligible = _as_item_mask(budget_mask, n_items).copy()

        indptr, indices, data = sparse.indptr, sparse.indices, sparse.data
        cached = self._scores0.copy()
        # stamp[i] == epoch  ⇔  cached[i] was evaluated vs the current residual.
        stamp = np.zeros(n_items, dtype=np.int64)
        epoch = 0
        buf = np.zeros(sparse.n_constraints, dtype=np.float64)

        def evaluate(i: int) -> np.float64:
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            cols = indices[lo:hi]
            buf[cols] = data[lo:hi]
            val = np.minimum(buf, residual).sum()
            buf[cols] = 0.0
            return val

        # live[i] is the heap entry currently speaking for item i; older
        # entries for i are garbage, detected by identity on pop.
        live: dict[int, list] = {}
        heap: list[list] = []
        for i in np.flatnonzero(eligible):
            entry = [-cached[i], int(i)]
            live[int(i)] = entry
            heap.append(entry)
        heapq.heapify(heap)

        order: list[int] = []
        evaluations = 0

        def finish_counters() -> None:
            recorder.count("lazy_greedy.iterations", len(order))
            recorder.count("lazy_greedy.evaluations", evaluations)

        while True:
            # Phase 1: CELF — re-evaluate stale tops until the top is fresh;
            # cached values are upper bounds, so a fresh top is the true max.
            while True:
                if not heap:
                    finish_counters()
                    raise infeasible()
                entry = heap[0]
                i = entry[1]
                if not eligible[i] or live.get(i) is not entry:
                    heapq.heappop(heap)
                    continue
                if stamp[i] == epoch:
                    best_score = -entry[0]
                    break
                heapq.heappop(heap)
                val = evaluate(i)
                evaluations += 1
                cached[i] = val
                stamp[i] = epoch
                fresh = [-val, i]
                live[i] = fresh
                heapq.heappush(heap, fresh)
            if best_score <= _TOL:
                finish_counters()
                raise infeasible()

            # Phase 2: resolve the tie band.  Any item whose *true* score
            # reaches the threshold has cached ≥ threshold too, so popping
            # every entry down to the threshold cannot miss a candidate.
            threshold = best_score - _TOL
            band: list[list] = []
            spilled: list[list] = []
            while heap:
                entry = heap[0]
                i = entry[1]
                if not eligible[i] or live.get(i) is not entry:
                    heapq.heappop(heap)
                    continue
                if -entry[0] < threshold:
                    break
                heapq.heappop(heap)
                if stamp[i] != epoch:
                    val = evaluate(i)
                    evaluations += 1
                    cached[i] = val
                    stamp[i] = epoch
                    entry = [-val, i]
                    live[i] = entry
                if cached[i] >= threshold:
                    band.append(entry)
                else:
                    spilled.append(entry)
            best = min(entry[1] for entry in band)
            for entry in band:
                if entry[1] != best:
                    heapq.heappush(heap, entry)
            for entry in spilled:
                heapq.heappush(heap, entry)
            live.pop(best, None)
            eligible[best] = False
            order.append(best)

            lo, hi = int(indptr[best]), int(indptr[best + 1])
            cols = indices[lo:hi]
            contrib = np.minimum(data[lo:hi], residual[cols])
            residual[cols] -= contrib
            residual[residual <= _TOL] = 0.0
            epoch += 1
            if not np.any(residual > 0.0):
                break

        finish_counters()
        return GreedyResult(
            selection=np.array(sorted(order), dtype=int), order=tuple(order)
        )


def lazy_sparse_greedy_cover(
    problem: CoverProblem | SparseCoverage,
    *,
    budget_mask=None,
    state: LazyGreedyState | None = None,
) -> GreedyResult:
    """CELF lazy greedy cover, bit-identical to :func:`greedy_cover`.

    Accepts a dense :class:`CoverProblem` (converted to CSR internally)
    or a :class:`SparseCoverage` built directly at scale.  Same
    signature, tie-breaking, and :class:`InfeasibleError` behaviour as
    the dense kernel; pass a precomputed :class:`LazyGreedyState` to
    amortize the initial scoring across many budget masks.
    """
    if state is None:
        state = LazyGreedyState(problem)
    elif state.problem is not problem:
        raise ValueError("state was built for a different CoverProblem")
    return state.solve(budget_mask)
