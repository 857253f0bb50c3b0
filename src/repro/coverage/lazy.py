"""Lazy greedy cover over CSR instances, bit-for-bit vs dense.

The dense :func:`~repro.coverage.greedy.greedy_cover` recomputes every
still-eligible item's truncated gain each step — ``O(M·K)`` per step,
which is what tops the bench out at a few thousand workers.  The
truncated-gain objective ``f(S) = Σ_j min(Q_j, Σ_{i∈S} q_ij)`` is
monotone submodular, so marginal gains only *shrink* as the residual
demand shrinks.  CELF (Leskovec et al., KDD 2007) exploits this: gains
cached from earlier residuals are upper bounds, so a row whose cached
gain falls clearly below the best exact gain need not be re-scored.

This kernel keeps two arrays with one slot per item instead of CELF's
heap: ``bound`` (the cached truncated gain, ``-inf`` once an item is
picked and from the start for items outside the budget mask) and
``exact`` (the same value while it is known to be the exact gain,
``-inf`` once the row is *stale*, i.e. its bound may exceed the exact
gain).  Each step

1. takes ``floor = max(exact)``, the best exact gain;
2. re-scores, in one blockwise batch, every stale row with
   ``bound ≥ floor − _TOL``;
3. picks the lowest index with ``bound ≥ max(bound) − _TOL``, searching
   only the rows of step 2's band;

then updates the residual at the winner's few stored entries and marks
stale the rows sharing a column the winner actually reduced, scattering
``-inf`` from a CSC column→rows index built once per state.  A step thus
costs a maximum and a band scan over the ``M`` slots plus one scoring
batch; nothing else it does is wider than the winner's support.
(``exact`` stands in for a boolean ``stale`` mask because a plain
``max`` is ~30x cheaper than NumPy's masked ``max(where=...)``.)

Bit-for-bit contract
--------------------
This kernel is pinned bitwise against the dense kernel — same winners,
same order, same infeasibility verdicts — which requires more than
algorithmic equivalence:

* **Same reduction tree.**  Rows are scored by scattering each stored
  ``min(q_ij, r_j)`` into zeroed ``K``-wide rows of a block (``min(0,
  r_j) == 0`` is the rest of the row) and row-summing all ``K`` columns
  — the exact pairwise reduction the dense kernel's
  ``truncated.sum(axis=1)`` performs, zero terms included.  Summing only
  the nonzeros would regroup the pairwise tree and could differ in the
  last ulp.
* **Untouched rows stay exact.**  A residual entry changes only in a
  column the winner reduced (``x − 0.0 == x`` elsewhere, and the
  ``_TOL`` snap only moves entries that just changed).  A row with no
  nonzero in those columns feeds the same ``K`` inputs ``min(q_ij,
  r_j)`` to the same reduction, so its cached bound is still its exact
  gain, bit for bit.  Only rows sharing a reduced column turn stale.
* **Bounds survive rounding.**  ``min`` is exact and the fixed-shape
  pairwise sum is monotone in its (non-negative) inputs, so a value
  computed at an elementwise-larger residual is ≥ the recomputed one in
  true IEEE arithmetic, not merely in exact arithmetic.
* **One batch per step suffices, and keeps the tie-break.**  After the
  batch every row with ``bound ≥ floor − _TOL`` is exact, and the
  maximum ``M`` of the bounds is an exact gain with ``M ≥ floor``.  Every
  row still stale has ``bound < floor − _TOL ≤ M − _TOL``, and its exact
  gain is lower still, so it can neither be the maximum nor enter the
  dense rule's tie band "within ``_TOL`` of the step maximum".  The band
  is therefore exactly scored, and its lowest index — the dense
  ``argmax(scores >= best − _TOL)`` — is the winner.  A picked or
  masked-out row holds ``-inf`` in both arrays, so it never counts as
  stale, and a ``-inf`` floor (every live row stale) re-scores only
  unpicked masked rows.
* **Same residual updates.**  Each of the winner's entries subtracts
  ``min(q_ij, r_j)`` and snaps to 0 at ``_TOL`` in Python floats, whose
  IEEE ``-`` and ``min`` give NumPy's bits; every other entry is 0 or
  above ``_TOL`` already, as the dense full-width snap would leave it.
  A count of unmet demands stands in for the dense ``residual.any()``.

Scoring is blockwise — at most ``_SCORE_BLOCK`` rows densified at a time
— because one step can re-score thousands of rows (12,696 in one step at
``10^5 × 1000``, ~100 MB densified at once); a block bounds the buffer
memory at ``_SCORE_BLOCK · K`` floats while keeping the per-call
overhead amortized.

:class:`LazyGreedyState` is the counterpart of
:class:`~repro.coverage.greedy.GreedyState`, but it does not resume the
previous mask's trajectory: consecutive greedy orders of the nested
price groups of a 10^4-worker, 200-task sparse round share on average
only 2–8% of their prefix, so a resumed prefix would save almost nothing.  Its
initial gain evaluation (against the snapped full demands) and its CSC
index are built once, at construction, and every budget-masked
:meth:`~LazyGreedyState.solve` starts from those cached scores.  For the
price-sweep engine this is the warm start across adjacent affordable
groups: initial gains do not depend on the mask, so the ``O(nnz)``
scoring pass is paid once per instance rather than once per price group.
Its :meth:`~LazyGreedyState.solve_chain` is therefore a plain loop over
:meth:`~LazyGreedyState.solve`.
"""

from __future__ import annotations

import numpy as np

from repro.coverage.greedy import GreedyResult, _as_item_mask
from repro.coverage.problem import CoverProblem
from repro.coverage.sparse import SparseCoverage
from repro.exceptions import InfeasibleError
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["LazyGreedyState", "lazy_sparse_greedy_cover"]

_TOL = DEMAND_TOL

#: Most rows densified at once when scoring CSR rows.
_SCORE_BLOCK = 2048


class LazyGreedyState:
    """Shared precomputation for many budget-restricted lazy-greedy runs.

    Accepts either a dense :class:`CoverProblem` (converted to CSR once)
    or a :class:`SparseCoverage` directly.  Construction scores *every*
    row against the snapped full demand vector and builds a CSC
    column→rows index; :meth:`solve` starts every budget mask from those
    exact scores, so repeated masked solves (the engine's nested price
    groups) skip the full scoring pass.

    Within a solve, ``bound[i]`` is row ``i``'s cached truncated gain and
    ``exact[i]`` is the same value while it is known exact, ``-inf``
    once the row turns stale.  The invariant each step relies on: a row
    with ``exact[i] == bound[i]`` holds its exact gain against the
    current residual, bit for bit, and a stale row's bound is an upper
    bound on it.  A pick reduces some residual columns; only rows with a
    nonzero in one of them turn stale, because every other row's
    ``K``-wide reduction sees the same inputs as when it was scored.  See
    the module docstring for why one blockwise batch per step restores
    an exact maximum and tie band.
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
        sparse = self.sparse
        n, k = sparse.n_items, sparse.n_constraints
        residual = np.array(sparse.demands, dtype=np.float64)
        residual[residual <= _TOL] = 0.0
        self._residual0 = residual
        self._trivial = not np.any(residual > 0.0)
        if self._trivial:
            return
        block = np.zeros((min(_SCORE_BLOCK, n), k))
        self._scores0 = self._score_rows(np.arange(n), residual, block)
        # CSC index: _col_rows[j] holds the rows with a nonzero in column j.
        row_of = np.repeat(np.arange(n), np.diff(sparse.indptr))
        self._col_rows = np.split(
            row_of[np.argsort(sparse.indices, kind="stable")],
            np.cumsum(np.bincount(sparse.indices, minlength=k))[:-1],
        )

    def _score_rows(
        self, rows: np.ndarray, residual: np.ndarray, block: np.ndarray
    ) -> np.ndarray:
        """Truncated gains of ``rows`` vs ``residual``, dense reduction tree.

        For at most ``_SCORE_BLOCK`` rows at a time, scatters each stored
        ``min(q_ij, residual_j)`` into the zeroed buffer ``block`` and
        row-sums all ``K`` columns: bitwise the dense kernel's
        ``min(gains, residual).sum(axis=1)`` restricted to those rows, as
        ``min(0, r_j) == 0`` fills the other cells.  ``block`` needs
        ``min(_SCORE_BLOCK, rows.size)`` rows and is left zeroed.
        """
        sparse = self.sparse
        indices, data = sparse.indices, sparse.data
        scores = np.empty(rows.size, dtype=np.float64)
        for start in range(0, rows.size, _SCORE_BLOCK):
            chunk = rows[start : start + _SCORE_BLOCK]
            local, pos = sparse.row_entries(chunk)
            cols = indices[pos]
            dense = block[: chunk.size]
            dense[local, cols] = np.minimum(data[pos], residual[cols])
            scores[start : start + chunk.size] = dense.sum(axis=1)
            dense[local, cols] = 0.0
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
        unmet = int(np.count_nonzero(residual))
        # One slot per item; items outside the mask hold -inf in both
        # arrays, so they are never stale and never picked.
        mask = True if budget_mask is None else _as_item_mask(budget_mask, n_items)
        bound = np.where(mask, self._scores0, -np.inf)
        exact = bound.copy()
        block = np.zeros((min(_SCORE_BLOCK, n_items), sparse.n_constraints))
        indptr, indices, data = sparse.indptr, sparse.indices, sparse.data
        col_rows = self._col_rows

        order: list[int] = []
        evaluations = batches = 0

        def count_work() -> None:
            recorder.count("lazy_greedy.iterations", len(order))
            recorder.count("lazy_greedy.evaluations", evaluations)
            recorder.count("lazy_greedy.batches", batches)

        while True:
            # Rows whose bound reaches the best exact gain's band; every
            # other row scores below any tie band this step can have.
            floor = exact.max(initial=-np.inf)
            top = (bound >= floor - _TOL).nonzero()[0]
            scores = bound[top]
            rescore = top[exact[top] < scores]
            if rescore.size:
                bound[rescore] = exact[rescore] = self._score_rows(rescore, residual, block)
                scores = bound[top]
                evaluations += rescore.size
                batches += -(-rescore.size // _SCORE_BLOCK)
            best_score = scores.max(initial=-np.inf)
            if best_score <= _TOL:
                count_work()
                raise InfeasibleError(
                    "greedy cover exhausted all useful items with "
                    f"{unmet} demands still unmet"
                )
            best = int(top[(scores >= best_score - _TOL).argmax()])
            order.append(best)
            bound[best] = exact[best] = -np.inf

            lo, hi = int(indptr[best]), int(indptr[best + 1])
            for j, q in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
                r = residual.item(j)
                reduced = min(q, r)
                if reduced > 0.0:
                    r -= reduced
                    if r <= _TOL:
                        r = 0.0
                        unmet -= 1
                    residual[j] = r
                    exact[col_rows[j]] = -np.inf
            if not unmet:
                break

        count_work()
        return GreedyResult(
            selection=np.array(sorted(order), dtype=int), order=tuple(order)
        )

    def solve_chain(self, masks) -> list[GreedyResult]:
        """:meth:`solve` each mask in order (the dense state's chain API).

        Raises the first mask's :class:`~repro.exceptions.InfeasibleError`.
        """
        return [self.solve(mask) for mask in masks]


def lazy_sparse_greedy_cover(
    problem: CoverProblem | SparseCoverage,
    *,
    budget_mask=None,
    state: LazyGreedyState | None = None,
) -> GreedyResult:
    """Lazy greedy cover, bit-identical to :func:`greedy_cover`.

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
