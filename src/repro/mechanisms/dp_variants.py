"""DP-hSRC variants with modern private-selection price stages.

The paper's Algorithm 1 predates the permute-and-flip mechanism (McKenna
& Sheldon, NeurIPS 2020).  :class:`PermuteFlipHSRCAuction` keeps the
winner-set stage identical and swaps only the price draw, preserving the
ε-DP guarantee while (weakly) improving the expected payment — a natural
"future work" upgrade the ``dp_variants`` experiment quantifies against
the original exponential-mechanism design.
"""

from __future__ import annotations

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism, PricePMF
from repro.auction.outcome import AuctionOutcome
from repro.coverage.dispatch import resolve_cover_solver
from repro.engine.engine import current_engine
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import payment_score_sensitivity
from repro.obs import current_recorder
from repro.privacy.budget.context import admit_draw, record_draw
from repro.privacy.selection import (
    permute_and_flip_pmf_exact,
    permute_and_flip_pmf_monte_carlo,
    permute_and_flip_sample,
)
from repro.utils import validation
from repro.utils.rng import RngLike

__all__ = ["PermuteFlipHSRCAuction"]


class PermuteFlipHSRCAuction(Mechanism):
    """DP-hSRC with a permute-and-flip price stage.

    Parameters
    ----------
    epsilon:
        Privacy budget of the price draw (same semantics as the
        exponential-mechanism variant).
    pmf_samples:
        Sample count for the Monte-Carlo PMF estimate used when the
        feasible price set is too large for exact enumeration.  The *run*
        path never uses the estimate — sampling an outcome is exact.

    Notes
    -----
    ``price_pmf`` is exact for supports of ≤ 9 prices (full permutation
    enumeration) and a documented Monte-Carlo estimate beyond that;
    :meth:`run` always samples the true mechanism.

    The winner schedule is DP-hSRC's sweep plan from the ambient
    :class:`~repro.engine.SweepEngine` (one cached plan per instance at
    any ε).  The permute-and-flip draw, the only one released, is
    admitted and recorded like every DP draw (see
    :func:`~repro.privacy.budget.context.admit_draw`).
    """

    name = "dp-hsrc-pf"

    def __init__(self, epsilon: float, *, pmf_samples: int = 20_000) -> None:
        validation.require_positive(epsilon, "epsilon")
        self.epsilon = float(epsilon)
        self.pmf_samples = int(pmf_samples)

    def price_pmf(self, instance: AuctionInstance) -> PricePMF:
        """Exact (small support) or Monte-Carlo (large support) PMF."""
        if admit_draw(self.name, self.epsilon):
            return BaselineAuction(self.epsilon, degraded=True).price_pmf(instance)
        plan = current_engine().plan(instance, resolve_cover_solver("auto"), label="dp-hsrc")
        scores = -plan.total_payments
        sensitivity = payment_score_sensitivity(instance)
        with current_recorder().span(
            "exp_mech", f"{self.name}.permute_flip", support_size=plan.support_size
        ):
            if plan.support_size <= 9:
                probs = permute_and_flip_pmf_exact(scores, self.epsilon, sensitivity)
            else:
                probs = permute_and_flip_pmf_monte_carlo(
                    scores, self.epsilon, sensitivity,
                    n_samples=self.pmf_samples, seed=0,
                )
            # Guard against Monte-Carlo zero cells breaking the PMF contract.
            probs = np.clip(probs, 0.0, None)
            probs = probs / probs.sum()
        record_draw(
            self.name,
            epsilon=self.epsilon,
            sensitivity=sensitivity,
            support_size=plan.support_size,
            n_workers=instance.n_workers,
        )
        return PricePMF(
            prices=plan.prices,
            probabilities=probs,
            winner_sets=plan.winner_sets,
            n_workers=instance.n_workers,
        )

    def run(self, instance: AuctionInstance, seed: RngLike = None) -> AuctionOutcome:
        """Sample the true permute-and-flip mechanism (always exact)."""
        if admit_draw(self.name, self.epsilon):
            return BaselineAuction(self.epsilon, degraded=True).run(instance, seed)
        recorder = current_recorder()
        plan = current_engine().plan(instance, resolve_cover_solver("auto"), label="dp-hsrc")
        sensitivity = payment_score_sensitivity(instance)
        with recorder.span(
            "sample", f"{self.name}.sample", support_size=plan.support_size
        ):
            index = permute_and_flip_sample(
                -plan.total_payments,
                self.epsilon,
                sensitivity,
                seed=seed,
            )
        recorder.count("auction.runs")
        record_draw(
            self.name,
            epsilon=self.epsilon,
            sensitivity=sensitivity,
            support_size=plan.support_size,
            n_workers=instance.n_workers,
        )
        return AuctionOutcome(
            winners=plan.winner_sets[index],
            price=float(plan.prices[index]),
            n_workers=instance.n_workers,
        )
