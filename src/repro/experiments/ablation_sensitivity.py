"""Ablation — the exponential mechanism's sensitivity denominator.

Equation 10 scales the score by ``2·Δu`` with ``Δu = N·c_max`` — a
worst-case bound on how much one bid can move any price's total payment.
This ablation re-scores the same winner schedule with the denominator
multiplied by factors below and above 1 and reports, per factor:

* the expected total payment (smaller denominators sharpen the
  distribution toward cheap prices → lower payment), and
* the **actual** empirical privacy (max log-probability-ratio against
  random neighboring instances) versus the nominal ε.

Observed shape (see EXPERIMENTS.md): the paper's Δu is *hugely*
conservative on random neighbors — at factor 1 the empirical ε sits two
orders of magnitude below the nominal budget, and the denominator can be
shrunk ~100× before observed violations appear (empirical ε scales like
1/factor).  The flip side: payments barely improve, because at Table-I
scales the exponential mechanism is already nearly uniform.  Worst-case
sensitivity is what the *proof* needs; this ablation measures how far
typical neighbors sit from that worst case.
"""

from __future__ import annotations

from typing import Sequence


from repro.auction.mechanism import PricePMF
from repro.experiments.runner import ExperimentResult
from repro.mechanisms.dp_hsrc import DPHSRCAuction, payment_score_sensitivity
from repro.privacy.exponential import ExponentialMechanism
from repro.privacy.leakage import pmf_max_log_ratio
from repro.utils.rng import ensure_rng
from repro.workloads.generator import generate_instance, matched_neighbor
from repro.workloads.settings import SETTING_I

__all__ = ["run", "SCALE_FACTORS"]

SCALE_FACTORS: tuple[float, ...] = (0.002, 0.01, 0.05, 0.25, 1.0, 4.0)


def _rescored(pmf: PricePMF, epsilon: float, sensitivity: float) -> PricePMF:
    mech = ExponentialMechanism(
        scores=-pmf.total_payments, epsilon=epsilon, sensitivity=sensitivity
    )
    return pmf.reweighted(mech.probabilities)


def run(
    *,
    fast: bool = False,
    seed: int = 0,
    factors: Sequence[float] = SCALE_FACTORS,
    n_neighbors: int = 6,
    epsilon: float = 1.0,
) -> ExperimentResult:
    """Sweep the sensitivity-denominator factor on one frozen instance."""
    if fast:
        factors = tuple(factors)[1:4]
        n_neighbors = min(n_neighbors, 3)
    rng = ensure_rng(seed)
    instance_rng, neighbor_rng = rng.spawn(2)
    instance, _pool = generate_instance(SETTING_I, instance_rng, n_workers=100)

    auction = DPHSRCAuction(epsilon=epsilon)
    base = auction.price_pmf(instance)
    true_sensitivity = payment_score_sensitivity(instance)

    neighbors = []
    for _ in range(int(n_neighbors)):
        worker = int(neighbor_rng.integers(instance.n_workers))
        neighbor = matched_neighbor(instance, SETTING_I, worker, seed=neighbor_rng)
        neighbors.append((neighbor, auction.price_pmf(neighbor)))

    rows = []
    for factor in factors:
        sensitivity = float(factor) * true_sensitivity
        pmf = _rescored(base, epsilon, sensitivity)
        empirical = max(
            pmf_max_log_ratio(pmf, _rescored(npmf, epsilon, sensitivity))
            for _neighbor, npmf in neighbors
        )
        rows.append(
            (
                float(factor),
                round(pmf.expected_total_payment(), 1),
                round(empirical, 4),
                "OK" if empirical <= epsilon + 1e-9 else "VIOLATED",
            )
        )

    return ExperimentResult(
        name="ablation_sensitivity",
        title=f"Ablation: sensitivity denominator scaling (nominal eps={epsilon})",
        headers=["factor x N*c_max", "E[payment]", "empirical eps", "guarantee"],
        rows=rows,
        notes=(
            "factor >= 1 must keep the empirical eps within the nominal budget; "
            "small factors expose where random-neighbor violations begin "
            "(empirical eps scales like 1/factor)",
            f"empirical eps is the max over {n_neighbors} random "
            "support-matched neighbors (a lower bound on the true worst case)",
        ),
    )
