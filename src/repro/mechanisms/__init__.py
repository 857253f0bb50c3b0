"""The paper's mechanisms (Sections V and VII-A).

* :class:`~repro.mechanisms.dp_hsrc.DPHSRCAuction` — **Algorithm 1**, the
  differentially private hSRC auction: per-price greedy winner sets plus
  an exponential-mechanism price draw.  ε-DP (Thm 2), ε·Δc-truthful
  (Thm 3), individually rational (Thm 4), O(N²K) (Thm 5), with the Thm 6
  payment guarantee.
* :class:`~repro.mechanisms.baseline.BaselineAuction` — the §VII-A
  comparison mechanism: identical price draw, but winners picked in fixed
  descending order of static quality.
* :class:`~repro.mechanisms.optimal.OptimalSinglePriceMechanism` — the
  non-private benchmark ``R_OPT = min_p p·|S_OPT(p)|`` (Equation 6)
  computed with a certified exact solver (GUROBI substitute).
* :mod:`~repro.mechanisms.properties` — closed-form theoretical bounds
  (γ = ε·Δc, the Theorem 6 payment bound, Lemma 2's factor).
"""

from repro.mechanisms.dp_hsrc import DPHSRCAuction, reweight_pmf
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_variants import PermuteFlipHSRCAuction
from repro.mechanisms.optimal import OptimalSinglePriceMechanism, optimal_total_payment
from repro.mechanisms.properties import (
    payment_sensitivity,
    theorem6_payment_bound,
    truthfulness_gap,
)
from repro.mechanisms.threshold_auction import ThresholdPaymentAuction
from repro.mechanisms.online import (
    DPOnlineThresholdMechanism,
    OnlineOutcome,
    OnlineState,
    OnlineThresholdMechanism,
    run_checkpointed,
)

__all__ = [
    "DPHSRCAuction",
    "BaselineAuction",
    "PermuteFlipHSRCAuction",
    "ThresholdPaymentAuction",
    "OptimalSinglePriceMechanism",
    "optimal_total_payment",
    "reweight_pmf",
    "truthfulness_gap",
    "payment_sensitivity",
    "theorem6_payment_bound",
    "OnlineThresholdMechanism",
    "DPOnlineThresholdMechanism",
    "OnlineOutcome",
    "OnlineState",
    "run_checkpointed",
]
