"""The DP-hSRC auction — Algorithm 1 of the paper.

The mechanism runs in two stages:

1. **Winner-set stage** (lines 6–15).  For every feasible price ``x`` in
   the price set ``P``, greedily build a winner set ``S(x)`` among the
   workers asking at most ``x``: repeatedly add the worker with the
   largest truncated marginal coverage gain ``Σ_j min(Q'_j, q_ij)`` until
   every task's error-bound constraint holds.  Prices falling between two
   consecutive asking prices share a winner set, so only one greedy run
   per distinct affordable-worker group is needed — the computation is
   independent of ``|P|`` (Theorem 5).

2. **Price stage** (line 16).  Sample the clearing price from the
   exponential-mechanism distribution

       Pr[p = x] ∝ exp( − ε · x·|S(x)| / (2 · N · c_max) ),

   so prices with a lower total payment are exponentially more likely,
   while a single bid's influence on the distribution is bounded —
   yielding ε-differential privacy (Theorem 2) and, as corollaries,
   ε·Δc-truthfulness (Theorem 3) and individual rationality (Theorem 4).

Everything up to the final draw is deterministic, so the class exposes
the exact outcome distribution via
:meth:`~repro.auction.mechanism.Mechanism.price_pmf`; :meth:`run` samples
one outcome from it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism, PricePMF
from repro.coverage.dispatch import resolve_cover_solver
from repro.coverage.greedy import GreedyResult
from repro.coverage.problem import CoverProblem
from repro.engine.engine import current_engine
from repro.obs import current_recorder
from repro.privacy.budget.context import admit_draw, record_draw
from repro.privacy.exponential import ExponentialMechanism
from repro.utils import validation

__all__ = [
    "DPHSRCAuction",
    "payment_score_sensitivity",
    "exponential_price_probabilities",
    "reweight_pmf",
]


def exponential_price_probabilities(
    total_payments: np.ndarray, epsilon: float, sensitivity: float
) -> np.ndarray:
    """The paper's exponential price draw over a total-payment schedule.

    ``Pr[p = x] ∝ exp(−ε · x·|S(x)| / (2·Δu))`` — shared by the DP-hSRC
    and baseline price stages and by :func:`reweight_pmf`, so the scoring
    arithmetic (and hence any fix to it) lives in exactly one place.
    """
    mechanism = ExponentialMechanism(
        scores=-np.asarray(total_payments, dtype=float),
        epsilon=float(epsilon),
        sensitivity=float(sensitivity),
    )
    return mechanism.probabilities


class DPHSRCAuction(Mechanism):
    """Differentially private hSRC auction (paper Algorithm 1).

    Parameters
    ----------
    epsilon:
        Privacy budget ε > 0.  Smaller values give stronger bid privacy
        and a flatter price distribution (hence a larger expected total
        payment) — the Figure 5 trade-off.
    cover_solver:
        The winner-set kernel mapping a
        :class:`~repro.coverage.problem.CoverProblem` to a
        :class:`~repro.coverage.greedy.GreedyResult` — either a
        module-level callable (so the mechanism stays picklable) or a
        registered name resolved by
        :func:`~repro.coverage.dispatch.resolve_cover_solver`:
        ``"auto"`` (the default — per-problem size/density dispatch
        between the dense and the CELF lazy-sparse kernels, which are
        pinned bit-for-bit equal), ``"dense"``/``"greedy"``, or
        ``"lazy_sparse"``.  The benchmark harness injects
        :func:`~repro.coverage.reference.reference_greedy_cover` here to
        measure the kernel speedup end-to-end.  Together with the
        instance the resolved callable also keys the ambient
        :class:`~repro.engine.SweepEngine`'s plan cache: mechanisms
        sharing a solver (e.g. every DP-hSRC variant at any ε) share one
        cached sweep per instance.

    Every price draw is admitted by
    :func:`~repro.privacy.budget.context.admit_draw` and recorded by
    :func:`~repro.privacy.budget.context.record_draw`; no option skips
    either.  A degraded draw is served by the baseline mechanism.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.auction import Bid, BidProfile, AuctionInstance
    >>> bids = BidProfile([Bid([0], 1.0), Bid([0], 2.0), Bid([0], 3.0)])
    >>> inst = AuctionInstance(
    ...     bids=bids,
    ...     quality=np.full((3, 1), 0.64),
    ...     demands=np.array([1.0]),
    ...     price_grid=np.array([1.0, 2.0, 3.0]),
    ...     c_min=1.0, c_max=3.0,
    ... )
    >>> outcome = DPHSRCAuction(epsilon=0.5).run(inst, seed=0)
    >>> outcome.n_winners >= 1
    True
    """

    name = "dp-hsrc"

    def __init__(
        self,
        epsilon: float,
        *,
        cover_solver: str | Callable[[CoverProblem], GreedyResult] = "auto",
    ) -> None:
        validation.require_positive(epsilon, "epsilon")
        self.epsilon = float(epsilon)
        self.cover_solver = resolve_cover_solver(cover_solver)

    def price_pmf(self, instance: AuctionInstance) -> PricePMF:
        """Exact (price, winner-set) distribution for ``instance``.

        Raises
        ------
        EmptyPriceSetError
            When no grid price is feasible.
        BudgetExceededError
            When the ambient budget scope's admission controller refuses
            the draw (``refuse`` policy on an exhausted tenant), or the
            recorded charge crosses the tenant's limit.
        """
        if admit_draw(self.name, self.epsilon):
            # Exhausted tenant under the degrade policy: serve the tagged
            # baseline mechanism.  Imported lazily — baseline.py imports
            # from this module.
            from repro.mechanisms.baseline import BaselineAuction

            return BaselineAuction(self.epsilon, degraded=True).price_pmf(instance)
        recorder = current_recorder()
        # The ε-independent sweep (price set, groups, per-group covers)
        # comes from the ambient engine: under a shared SweepEngine, N
        # mechanisms (or N ε values) on one instance pay for it once.
        plan = current_engine().plan(instance, self.cover_solver, label=self.name)
        recorder.count("auction.greedy_groups", plan.n_groups)

        sensitivity = payment_score_sensitivity(instance)
        with recorder.span(
            "exp_mech", f"{self.name}.exp_mech", support_size=plan.support_size
        ):
            probabilities = exponential_price_probabilities(
                plan.prices * plan.cover_sizes, self.epsilon, sensitivity
            )
        recorder.count("auction.price_pmf_calls")
        record_draw(
            self.name,
            epsilon=self.epsilon,
            sensitivity=sensitivity,
            support_size=plan.support_size,
            n_workers=instance.n_workers,
        )
        return PricePMF(
            prices=plan.prices,
            probabilities=probabilities,
            winner_sets=plan.winner_sets,
            n_workers=instance.n_workers,
        )


def payment_score_sensitivity(instance: AuctionInstance) -> float:
    """The score sensitivity ``Δu = N · c_max`` used by Equation 10.

    One worker changing her bid can change any price's winner set by at
    most all ``N`` workers, each paid at most ``c_max``, so the total
    payment score moves by at most ``N·c_max``.  The exponential
    mechanism's ``2Δu`` denominator then yields the paper's exponent
    ``ε·x·|S(x)| / (2·N·c_max)`` exactly.
    """
    return instance.n_workers * instance.c_max


def reweight_pmf(pmf: PricePMF, instance: AuctionInstance, epsilon: float) -> PricePMF:
    """Re-draw a PMF's price distribution under a different privacy budget.

    The winner-set stage of Algorithm 1 does not depend on ε — only the
    exponential-mechanism price draw does — so sweeping ε (Figure 5, the
    sensitivity ablation) can reuse one winner-set computation and merely
    re-score the support.  Returns a new :class:`PricePMF` over the same
    (price, winner-set) support with probabilities for ``epsilon``, built
    by :meth:`PricePMF.reweighted`: the support was validated when
    ``pmf`` was built, so only the new probability vector is checked.

    There is no cheaper mechanism to fall back to for a re-scoring, so
    under the ``degrade`` admission policy an exhausted tenant still gets
    the reweighted PMF, but the draw is tagged ``degraded=True`` and its
    ε lands in the account's unenforced ``degraded_epsilon`` audit bucket
    (the same self-fallback rule the baseline mechanism uses).
    """
    validation.require_positive(epsilon, "epsilon")
    epsilon = float(epsilon)
    degraded = pmf.degraded or admit_draw("dp-hsrc/reweight", epsilon)
    sensitivity = payment_score_sensitivity(instance)
    with current_recorder().span(
        "exp_mech", "dp-hsrc.reweight", support_size=pmf.support_size
    ):
        probabilities = exponential_price_probabilities(
            pmf.total_payments, epsilon, sensitivity
        )
    record_draw(
        "dp-hsrc/reweight",
        epsilon=epsilon,
        sensitivity=sensitivity,
        degraded=degraded,
        support_size=pmf.support_size,
    )
    return pmf.reweighted(probabilities, degraded=degraded)
