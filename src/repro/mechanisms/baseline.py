"""The baseline auction of Section VII-A.

Identical to DP-hSRC in every respect except the winner-selection rule:
for a fixed price, workers are taken in **descending static quality
order** ``Σ_{j∈Γ_i} q_ij`` until every task's error-bound constraint
holds, instead of by adaptive truncated marginal gain.  The final price is
drawn with the same exponential mechanism, so the baseline inherits
ε-differential privacy, ε·Δc-truthfulness, and individual rationality —
the paper uses it to isolate the value of the greedy winner-set stage.
"""

from __future__ import annotations

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism, PricePMF
from repro.coverage.greedy import static_order_cover
from repro.engine.engine import current_engine
from repro.mechanisms.dp_hsrc import (
    exponential_price_probabilities,
    payment_score_sensitivity,
)
from repro.obs import current_recorder
from repro.privacy.budget.context import admit_draw, record_draw
from repro.utils import validation

__all__ = ["BaselineAuction"]


class BaselineAuction(Mechanism):
    """Static-quality-order auction used as the paper's comparison point.

    Parameters
    ----------
    epsilon:
        Privacy budget of the exponential-mechanism price draw.
    degraded:
        ``True`` marks every PMF/outcome this instance produces as a
        budget-admission fallback (``degraded=True``) and tags its
        ledger charges accordingly — set by the DP mechanisms when the
        ambient :class:`~repro.privacy.budget.AdmissionController`
        degrades an exhausted tenant onto this mechanism.  Degraded
        charges are audited but exempt from budget enforcement.
    """

    name = "baseline"

    def __init__(self, epsilon: float, *, degraded: bool = False) -> None:
        validation.require_positive(epsilon, "epsilon")
        self.epsilon = float(epsilon)
        self.degraded = bool(degraded)

    def price_pmf(self, instance: AuctionInstance) -> PricePMF:
        """Exact (price, winner-set) distribution for ``instance``."""
        # The baseline is its own fallback: an exhausted tenant under the
        # degrade policy keeps this mechanism, but the draw is tagged (and
        # charged) as degraded.
        degraded = self.degraded or admit_draw(self.name, self.epsilon)
        # static_order_cover's default order is exactly the baseline rule
        # (descending static gain, index-ascending ties), so the bare
        # kernel is this mechanism's plan-cache key in the ambient engine.
        plan = current_engine().plan(
            instance,
            static_order_cover,
            label=self.name,
            group_span="static_order_group",
        )

        sensitivity = payment_score_sensitivity(instance)
        with current_recorder().span(
            "exp_mech", f"{self.name}.exp_mech", support_size=plan.support_size
        ):
            probabilities = exponential_price_probabilities(
                plan.prices * plan.cover_sizes, self.epsilon, sensitivity
            )
        record_draw(
            self.name,
            epsilon=self.epsilon,
            sensitivity=sensitivity,
            degraded=degraded,
            support_size=plan.support_size,
            n_workers=instance.n_workers,
        )
        return PricePMF(
            prices=plan.prices,
            probabilities=probabilities,
            winner_sets=plan.winner_sets,
            n_workers=instance.n_workers,
            degraded=degraded,
        )
