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

``state.solve_chain(masks)`` solves a whole sequence of masks, each
*resuming* from the run of the mask before it — the first from the run
the state remembers from its last success — and returns exactly what
one ``solve`` call per mask would.  A run records, per step ``t``, the
residual ``r_t`` before the step and the step's maximum score
``max_t``.  Run ``k`` shares run ``k − 1``'s steps until the first step
``t`` at which one of its *newcomers* (items its mask adds) has a
truncated gain ``Σ_j min(q_ij, r_t,j)`` reaching ``max_t − 2·_TOL``;
from ``t`` on it *diverges* and steps on its own from
``min(gains, r_t)``.  Sharing is exact: before ``t`` every newcomer
scores strictly below the tie band, so the maximum, the band and its
lowest index — the winner, and with it the next residual — are those of
the predecessor.  The band is widened by one more ``_TOL`` so float
dust can only end a shared prefix early, never skip a newcomer.  A
mask that is not a superset of its predecessor's runs cold (``t = 0``),
and ``solve(mask)`` is the one-mask chain.

The runs advance in *lockstep*, step ``t`` of every run in one round:

* every diverged run is scored in one batch — a ``(runs, N, K)`` block
  of truncated matrices row-summed over its last axis, which is the
  same pairwise reduction tree as a 2-D ``truncated.sum(axis=1)``, bit
  for bit (rows are C-contiguous);
* every run still sharing checks its newcomers, in one batch, against
  its predecessor's ``max_t``.  A shared run's steps are those of its
  *source*, the nearest diverged run below it; the predecessor's
  maximum is the source's, raised by any run between them that
  diverges in the same round (a run that stays shared scores strictly
  below it).  Runs that all share the remembered run jump straight to
  the first step a newcomer could change, with one chunked scan;
* after the round's picks, the diverged runs' truncated matrices are
  recomputed only in the union of the columns the winners reduced — a
  residual changes nowhere else — as a column gather while that union
  is narrow and as one contiguous ``min`` against the shrunken
  residuals otherwise.

A block whose one live run no other run shares finishes that run on its
own 2-D slot, without the lockstep bookkeeping; that is all of a
single cover's work.

Runs are grouped into blocks of ``S = _CHAIN_CELLS // (N·K)`` runs —
or of one run when that is fewer than ``_CHAIN_MIN_RUNS`` — that run
one after another, so a block's truncated matrices stay within a fixed
cell budget; a block's first run resumes from the previous block's
last, which makes ``S = 1`` the plain one-group-at-a-time resume.  ``solve_chain`` still makes one ``solve``
call per mask, in order: the first call of a block computes the whole
block and the others return their run's result, so per-mask callers,
counters and profilers keep seeing one call per group.  Results, the
``greedy.*`` counters and the ``greedy.residual_demand`` samples equal
the one-``solve``-per-mask sequence's; a failing mask raises its
:class:`~repro.exceptions.InfeasibleError` (the lowest failing mask's,
as the sequence would) and leaves the last success before it
remembered.

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

from collections import deque
from dataclasses import dataclass
from itertools import islice
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

#: Lockstep blocks of :meth:`GreedyState.solve_chain`: a block advances
#: ``S = _CHAIN_CELLS // (N·K)`` nested groups together and keeps one
#: ``N x K`` truncated matrix per group (1.5 MB in all); when fewer than
#: ``_CHAIN_MIN_RUNS`` groups fit, each group gets a block of its own.
#: Blocks pay off while per-call overhead dominates a step and enough
#: groups share each round's bookkeeping.  Measured dense price sweeps
#: (``chain_break_even`` in ``BENCH_greedy.json``; blocks against
#: ``S = 1``, three full bench runs): Setting I (46 groups, one block)
#: 1.6–2.9x faster and 500 x 30 (S = 13) 1.3–1.5x, while the smaller
#: blocks the budget alone gives where fewer than 8 groups fit did not
#: win reliably — 500 x 50 at S = 7 1.0–1.3x, 1,000 x 30 at S = 6
#: 0.8–1.1x, 1,000 x 50 at S = 3 0.89x, two-group blocks from
#: 2,000 x 50 to 10^5 x 8 0.8–1.2x.  The budget holds 54 Setting I
#: groups (a market has 34–59), and every shape past 24,576 cells, the
#: 10^5 x 8 sweep too, keeps the memory and per-step cells of a
#: one-group-at-a-time resume.
_CHAIN_CELLS = 3 * 2**16
_CHAIN_MIN_RUNS = 8

#: Cell budget of one chunk of :meth:`_Block._skip_shared`'s
#: ``(steps, newcomers, K)`` truncated-gain scan of the root's steps.
_FILTER_CELLS = 1 << 16

#: A block's truncated matrices are updated by gathering only the changed
#: columns while they number at most ``K / _GATHER_RATIO``; wider unions
#: are recomputed in one contiguous pass.  Per cell a gathered column
#: costs about 7x a contiguous one at 2,000 x 50 and 14x at 20,000 x 200
#: (single-run blocks), so the contiguous pass wins past about ``K / 8``.
_GATHER_RATIO = 8

# Run states inside a lockstep block.
_SHARED, _OWN, _ENDED = 0, 1, 2


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


class _Run:
    """One mask's run inside a chain: a reused prefix plus its own steps.

    ``base`` is the run (or remembered :class:`_Trajectory`) whose first
    ``start`` steps this run reuses, ``None`` for a cold run; ``order``,
    ``residuals``, ``best_scores`` and ``observed`` (the residual sum
    after each pick) hold only the steps the run executes itself, and
    ``full_order`` all of them once the run is served.  ``solved`` is set
    once the run's lockstep block has run.
    """

    __slots__ = (
        "mask", "n_eligible", "base", "start", "order", "residuals",
        "best_scores", "observed", "error", "full_order", "solved",
    )

    def __init__(self, mask: np.ndarray) -> None:
        self.mask = mask
        self.n_eligible = int(np.count_nonzero(mask))
        self.base: _Run | _Trajectory | None = None
        self.start = 0
        self.order: list[int] = []
        self.residuals: list[np.ndarray] = []
        self.best_scores: list[float] = []
        self.observed: list[float] = []
        self.error: str | None = None
        self.full_order: tuple[int, ...] = ()
        self.solved = False

    def steps(self, field: str) -> list:
        """Every step's ``field`` value: the reused ones, then the own ones.

        Walks the ``base`` links iteratively, keeping from each base only
        the steps below the reuse cut of the run above it.
        """
        parts = [getattr(self, field)]
        limit, base = self.start, self.base
        while isinstance(base, _Run):
            if limit > base.start:
                parts.append(getattr(base, field)[: limit - base.start])
            limit, base = min(limit, base.start), base.base
        head = list(getattr(base, field)[:limit]) if base is not None else []
        for part in reversed(parts):
            head.extend(part)
        return head

    def trajectory(self) -> _Trajectory:
        return _Trajectory(
            mask=self.mask,
            order=tuple(self.steps("order")),
            residuals=np.array(self.steps("residuals")),
            best_scores=np.array(self.steps("best_scores")),
        )


class GreedyState:
    """Shared state for many budget-restricted runs on one problem.

    Snaps the residual-demand vector once and remembers the last
    successful run, which a superset mask resumes from.
    :meth:`solve_chain` solves a sequence of masks, advancing them in
    lockstep blocks; it still makes one :meth:`solve` call per mask,
    so each mask stays one call at the class's per-mask boundary (see
    *Resumable API* in the module docstring).  Used by
    :class:`repro.engine.SweepEngine` to solve the nested
    affordable-worker groups of a price sweep in ascending price order.
    """

    def __init__(self, problem: CoverProblem) -> None:
        self.problem = problem
        # C order keeps every truncated row contiguous, so its row sum is
        # the same pairwise tree in whichever batch it is computed.
        self._gains = np.ascontiguousarray(problem.gains)
        residual = problem.demands.copy()
        residual[residual <= _TOL] = 0.0
        self._residual0 = residual
        self._trivial = not np.any(residual > 0.0)
        self._last: _Run | _Trajectory | None = None
        # The running chain's runs that no solve call has served yet.
        self._queue: deque[_Run] = deque()

    def solve(self, budget_mask=None) -> GreedyResult:
        """Adaptive greedy over the masked items (original indices).

        Resumes from the remembered run when ``budget_mask`` is a superset
        of its mask.  Inside :meth:`solve_chain` a call serves the chain's
        next mask; the first call of each lockstep block computes the
        whole block.

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
        recorder.count("greedy.calls")
        if self._trivial:
            return GreedyResult(selection=np.array([], dtype=int), order=())
        run = self._queue.popleft() if self._queue else self._new_run(budget_mask)
        if run.n_eligible == 0:
            raise InfeasibleError(_infeasible(self._residual0))
        if not run.solved:
            self._solve_block(run, recorder.enabled)
        executed = len(run.order)
        recorder.count("greedy.reused_steps", run.start)
        for value in run.observed:
            recorder.observe("greedy.residual_demand", value)
        recorder.count("greedy.iterations", executed)
        # Before each executed step every unpicked eligible item is scored.
        recorder.count(
            "greedy.candidates_scanned",
            executed * (run.n_eligible - run.start) - executed * (executed - 1) // 2,
        )
        if run.error is not None:
            raise InfeasibleError(run.error)
        # A base run is served before the runs resuming from it.
        base = run.base
        if base is None:
            head = ()
        elif isinstance(base, _Trajectory):
            head = base.order[: run.start]
        else:
            head = base.full_order[: run.start]
        run.full_order = order = head + tuple(run.order)
        self._last = run
        return GreedyResult(selection=np.array(sorted(order), dtype=int), order=order)

    def solve_chain(self, masks) -> list[GreedyResult]:
        """Solve ``masks`` in order, each resuming from the one before.

        Returns what ``[self.solve(m) for m in masks]`` would — the same
        results, ``greedy.*`` counters and ``greedy.residual_demand``
        samples, and the same remembered run afterwards — and makes
        exactly those calls, but the runs advance in lockstep blocks
        (see *Resumable API* in the module docstring).  Every mask is
        validated before any run starts, unless the problem is trivial
        (every demand already met), when no mask is looked at.

        Raises
        ------
        InfeasibleError
            For the first mask whose eligible items cannot satisfy every
            demand; the runs before it count as solved.
        """
        masks = list(masks)
        runs = [] if self._trivial else [self._new_run(mask) for mask in masks]
        self._queue.extend(runs)
        try:
            return [self.solve(mask) for mask in masks]
        finally:
            self._queue.clear()

    def _new_run(self, budget_mask) -> _Run:
        n_items = self._gains.shape[0]
        if budget_mask is None:
            return _Run(np.ones(n_items, dtype=bool))
        return _Run(_as_item_mask(budget_mask, n_items).copy())

    def _solve_block(self, first: _Run, observe: bool) -> None:
        """Run ``first`` and the queued runs after it in one lockstep block.

        The block holds :func:`_runs_per_block` runs; its first run
        resumes from the remembered run.  Runs above a failing run are
        never served: the failure ends the chain.
        """
        block = [first, *islice(self._queue, _runs_per_block(*self._gains.shape) - 1)]
        root = self._last
        if isinstance(root, _Run):
            root = self._last = root.trajectory()
        _Block(self._gains, self._residual0, root, block, observe).run()
        for run in block:
            run.solved = True


def _runs_per_block(n_items: int, n_constraints: int) -> int:
    """Runs per lockstep block: as many as ``_CHAIN_CELLS`` holds, or one
    when that is fewer than ``_CHAIN_MIN_RUNS``."""
    runs = _CHAIN_CELLS // max(1, n_items * n_constraints)
    return runs if runs >= _CHAIN_MIN_RUNS else 1


def _infeasible(residual: np.ndarray) -> str:
    return (
        "greedy cover exhausted all useful items with "
        f"{int(np.count_nonzero(residual > 0.0))} demands still unmet"
    )


class _Block:
    """One lockstep block of a chain: runs ``j = 0..B−1``, each resuming
    from run ``j − 1`` and run 0 from ``root``.

    At step ``s`` a run is *own* (it has diverged from its predecessor and
    holds a slot: its truncated matrix, residual and score penalty —
    0 where eligible and unpicked, ``-inf`` elsewhere), *shared* (its
    steps so far are those of its *source*, the nearest own run below it,
    or of the root when there is none), or ended (finished, or at or
    above a failing run).  A shared run's newcomers are the items its
    mask adds to its predecessor's.
    """

    def __init__(self, gains, residual0, root: _Trajectory | None, runs: list[_Run], observe: bool):
        self.gains, self.root, self.runs, self.observe = gains, root, runs, observe
        n_items, n_constraints = gains.shape
        size = len(runs)
        self.index = np.arange(size)
        self.status = np.full(size, _SHARED, dtype=np.int8)
        self.truncated = np.empty((size, n_items, n_constraints))
        self.residual = np.empty((size, n_constraints))
        self.penalty = np.empty((size, n_items))
        self.slot_run = np.empty(size, dtype=int)
        self.n_own = 0
        self.root_steps = len(root.order) if root is not None else 0
        masks = np.array([run.mask for run in runs])
        preds = np.empty_like(masks)
        preds[1:] = masks[:-1]
        preds[0] = root.mask if root is not None else True
        # A run resumes from its predecessor only when its mask is a
        # superset; the first run has no predecessor without a root.
        cold = np.any(preds & ~masks, axis=1)
        cold[0] |= root is None
        for j in np.flatnonzero(cold).tolist():
            self._own(j, residual0, np.where(masks[j], 0.0, -np.inf))
        self.n_shared = size - self.n_own
        if self.n_shared:
            newcomers = masks & ~preds
            newcomers[cold] = False
            self.newcomer_runs, rows = np.nonzero(newcomers)
            self.newcomer_gains = gains[rows]

    def run(self) -> None:
        """Advance every run to its end (or to the lowest failing run's)."""
        truncated, residual, penalty = self.truncated, self.residual, self.penalty
        n_items, n_constraints = self.gains.shape
        # Flat views: slot s, item i is row s·N + i of ``rows``.
        rows = truncated.reshape(-1, n_constraints)
        flat_penalty = penalty.reshape(-1)
        offsets = self.index * n_items
        no_runs = np.empty(0, dtype=int)
        step = 0
        while True:
            if not self.n_own:
                step = self._skip_shared(step)
            elif self.n_own == 1 and not self.n_shared:
                return self._run_alone()
            n = self.n_own
            best, winners = self._score(0, n)
            if n and best.min() <= _TOL:
                moved = self._fail(best)
                best, winners, n = best[moved], winners[moved], self.n_own
            if self.n_shared:
                best, winners = self._diverge(step, best, winners)
                n = self.n_own
            finished = no_runs
            if n:
                picked = offsets[:n] + winners
                reduced = rows.take(picked, axis=0)
                before = residual[:n].copy()
                current = residual[:n]
                current -= reduced
                current[current <= _TOL] = 0.0
                flat_penalty.put(picked, -np.inf)
                self._record(before, best, winners, current)
                # Residuals never go negative, so "any left" is "any nonzero".
                alive = current.any(axis=1)
                if not alive.all():
                    finished = self.slot_run[:n][~alive]
            if self.n_shared and (finished.size or step + 1 == self.root_steps):
                self._finish_shared(step, finished)
            if n:
                self._advance(finished, reduced, alive)
            if not (self.n_own or self.n_shared):
                return
            step += 1

    def _run_alone(self) -> None:
        """Finish the block's one live run, which no run shares: the same
        steps as a round, on its 2-D slot, without the lockstep
        bookkeeping."""
        run = self.runs[int(self.slot_run[0])]
        gains, truncated = self.gains, self.truncated[0]
        residual, penalty = self.residual[0], self.penalty[0]
        n_constraints = gains.shape[1]
        while True:
            scores = truncated.sum(axis=1)
            scores += penalty
            best = scores.max()
            if best <= _TOL:
                run.error = _infeasible(residual)
                return
            winner = int(np.argmax(scores >= best - _TOL))
            run.order.append(winner)
            run.best_scores.append(float(best))
            run.residuals.append(residual.copy())
            penalty[winner] = -np.inf
            reduced = truncated[winner].copy()
            residual -= reduced
            residual[residual <= _TOL] = 0.0
            if self.observe:
                run.observed.append(float(residual.sum()))
            if not residual.any():
                return
            changed = np.flatnonzero(reduced)
            if changed.size * _GATHER_RATIO <= n_constraints:
                truncated[:, changed] = np.minimum(gains[:, changed], residual[changed])
            else:
                np.minimum(truncated, residual, out=truncated)

    def _skip_shared(self, step: int) -> int:
        """With every live run sharing the root, jump to the first step a
        newcomer could change.

        Before that step every run's predecessor maximum is the root's,
        so one chunked scan of the root's remaining steps finds it; the
        round at that step then decides which runs diverge.  Returns the
        root's last step, whose round finishes the runs, when no newcomer
        ever reaches the band.
        """
        pending = self.status[self.newcomer_runs] == _SHARED
        gains = self.newcomer_gains[pending]
        last = self.root_steps - 1
        if gains.shape[0]:
            chunk = max(1, _FILTER_CELLS // gains.size)
            for lo in range(step, last, chunk):
                residuals = self.root.residuals[lo : lo + chunk]
                scores = np.minimum(gains[np.newaxis], residuals[:, np.newaxis]).sum(axis=2)
                band = self.root.best_scores[lo : lo + chunk, np.newaxis] - 2 * _TOL
                enters = np.any(scores >= band, axis=1)
                if enters.any():
                    return lo + int(np.argmax(enters))
        return max(step, last)

    def _own(self, j: int, residual: np.ndarray, penalty: np.ndarray) -> None:
        """Give run ``j`` the next slot, truncating at ``residual``."""
        slot = self.n_own
        self.slot_run[slot] = j
        self.residual[slot] = residual
        self.penalty[slot] = penalty
        np.minimum(self.gains, residual, out=self.truncated[slot])
        self.status[j] = _OWN
        self.n_own += 1

    def _score(self, lo: int, hi: int):
        """Per slot in ``lo:hi``: the maximum score and the winner, the
        lowest index within ``_TOL`` of it."""
        scores = self.truncated[lo:hi].sum(axis=2)
        scores += self.penalty[lo:hi]
        best = scores.max(axis=1)
        return best, np.argmax(scores >= best[:, np.newaxis] - _TOL, axis=1)

    def _fail(self, best: np.ndarray) -> np.ndarray:
        """The lowest failing run ends the block for every run above it."""
        runs_in_slots = self.slot_run[: self.n_own]
        lowest = int(runs_in_slots[best <= _TOL].min())
        slot = int(np.flatnonzero(runs_in_slots == lowest)[0])
        self.runs[lowest].error = _infeasible(self.residual[slot])
        self.status[lowest:] = _ENDED
        self.n_shared = int(np.count_nonzero(self.status == _SHARED))
        return self._keep(self.status[runs_in_slots] == _OWN)

    def _sources(self) -> np.ndarray:
        """Per run, the nearest own run below it (``-1``: the root)."""
        own = np.where(self.status == _OWN, self.index, -1)
        return np.maximum.accumulate(np.concatenate(([-1], own[:-1])))

    def _diverge(self, step: int, best: np.ndarray, winners: np.ndarray):
        """Check shared runs' newcomers; give every diverging run a slot.

        A shared run diverges at this step once a newcomer's truncated
        gain reaches its predecessor's step maximum less ``2·_TOL`` — the
        dense tie band widened by one more ``_TOL``, so summation dust
        can only end a shared prefix early.  The predecessor's maximum is
        the source's, raised by every run between them that diverges
        this step (a run that stays shared scores strictly below it).
        """
        n = self.n_own
        pending = self.status[self.newcomer_runs] == _SHARED
        rows = self.newcomer_runs[pending]
        if not rows.size:
            return best, winners
        level, top = self.residual[:n], best
        if step < self.root_steps:
            # The root's step is stacked after the slots, at index n.
            level = np.concatenate((level, self.root.residuals[step : step + 1]))
            top = np.concatenate((top, self.root.best_scores[step : step + 1]))
        source = self._sources()
        slot_of = np.full(len(self.runs) + 1, n)
        slot_of[self.slot_run[:n]] = self.index[:n]
        source_slot = slot_of[source[rows]]
        scores = np.minimum(self.newcomer_gains[pending], level[source_slot]).sum(axis=1)
        hit = np.flatnonzero(scores >= top[source_slot] - 2 * _TOL)
        if not hit.size:
            return best, winners
        newcomer_best: dict[int, float] = {}
        for j, value in zip(rows[hit].tolist(), scores[hit].tolist()):
            newcomer_best[j] = max(value, newcomer_best.get(j, value))
        ceiling: dict[int, float] = {}
        diverging = []
        for j, value in newcomer_best.items():
            src = int(source[j])
            bar = ceiling.get(src, float(top[slot_of[src]]))
            if value >= bar - 2 * _TOL:
                diverging.append((j, src))
                ceiling[src] = max(bar, value)
        for j, src in diverging:
            run = self.runs[j]
            run.start = step
            if src >= 0:
                run.base = self.runs[src]
                penalty = self.penalty[slot_of[src]].copy()
                penalty[run.mask & ~run.base.mask] = 0.0
            else:
                run.base = self.root
                penalty = np.where(run.mask, 0.0, -np.inf)
                penalty[list(self.root.order[:step])] = -np.inf
            self._own(j, level[slot_of[src]], penalty)
        self.n_shared -= len(diverging)
        new_best, new_winners = self._score(n, self.n_own)
        return np.concatenate((best, new_best)), np.concatenate((winners, new_winners))

    def _record(self, before, best, winners, after) -> None:
        """Append this step to every own run's trajectory."""
        observed = after.sum(axis=1).tolist() if self.observe else None
        runs = self.runs
        for i, (j, pick, top) in enumerate(
            zip(self.slot_run[: self.n_own].tolist(), winners.tolist(), best.tolist())
        ):
            run = runs[j]
            run.order.append(pick)
            run.best_scores.append(top)
            run.residuals.append(before[i])
            if observed is not None:
                run.observed.append(observed[i])

    def _finish_shared(self, step: int, finished: np.ndarray) -> None:
        """Shared runs whose source just finished share its last step too."""
        source = self._sources()
        ended = np.zeros(len(self.runs) + 1, dtype=bool)
        ended[finished] = True
        ended[-1] = step + 1 == self.root_steps  # source -1: the root
        shared = np.flatnonzero(self.status == _SHARED)
        done = shared[ended[source[shared]]]
        for j in done.tolist():
            src = int(source[j])
            run = self.runs[j]
            run.base = self.runs[src] if src >= 0 else self.root
            run.start = step + 1
        self.status[done] = _ENDED
        self.n_shared -= done.size

    def _advance(self, finished: np.ndarray, reduced: np.ndarray, alive: np.ndarray) -> None:
        """Free finished slots and bring the others' truncated matrices up to date.

        A residual changed exactly where a winner contributed, so only
        those columns need recomputing.  A narrow union is recomputed as
        a column gather; past ``1/_GATHER_RATIO`` of the columns one
        contiguous ``min`` over the whole block is cheaper per cell.
        """
        if finished.size:
            self.status[finished] = _ENDED
            self._keep(alive)
        n = self.n_own
        if not n:
            return
        changed = np.flatnonzero(reduced.any(axis=0))
        if not changed.size:
            return
        if changed.size * _GATHER_RATIO <= self.gains.shape[1]:
            self.truncated[:n, :, changed] = np.minimum(
                self.gains[:, changed], self.residual[:n, np.newaxis, changed]
            )
        else:
            # Residuals only shrink, so min(gains, r_new) == min(T, r_new).
            truncated = self.truncated[:n]
            np.minimum(truncated, self.residual[:n, np.newaxis, :], out=truncated)

    def _keep(self, keep: np.ndarray) -> np.ndarray:
        """Drop the slots not kept, moving tail slots into the holes.

        Returns the old slot of each remaining one.
        """
        kept = int(np.count_nonzero(keep))
        self.n_own = kept
        moved = np.arange(kept)
        holes = np.flatnonzero(~keep[:kept])
        if holes.size:
            movers = np.flatnonzero(keep[kept:]) + kept
            for array in (self.truncated, self.residual, self.penalty, self.slot_run):
                array[holes] = array[movers]
            moved[holes] = movers
        return moved


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
    Implemented as an incremental NumPy kernel (the one-mask case of
    :meth:`GreedyState.solve_chain`): the full truncated-gain matrix
    ``T = min(Q', q)`` is built once and thereafter only the columns
    whose residual demand changed in the last step are recomputed — a
    few as a column gather, many in one contiguous pass — so a step
    costs at most ``O(N·K)`` for the update plus one ``O(N·K)`` row-sum,
    with no per-item Python scan.  Every
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
