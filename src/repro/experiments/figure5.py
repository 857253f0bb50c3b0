"""Figure 5 — payment vs privacy-leakage trade-off over the budget ε.

For a fixed instance, sweep ε over the paper's grid (0.25 … 1000) and
report, per ε:

* the platform's **average total payment** — exact expectation over the
  DP-hSRC price distribution;
* the **privacy leakage** of Definition 8 — the KL divergence between
  the price distributions induced by the instance and a neighboring
  instance (one bid changed).  Reported twice: averaged over random
  support-matched neighbors (typically tiny — a random bid change rarely
  moves the greedy winner sets), and for an *adversarial* neighbor that
  prices a high-win-probability worker out of the market, which actually
  shifts the allocation and is the regime the paper's leakage magnitudes
  correspond to.

Paper shape: leakage grows monotonically with ε (≈ 0 below ε ≈ 10, then
rising steeply) while the average payment falls, flattening once the
distribution concentrates on the cheapest prices.

Implementation note: the winner sets do not depend on ε, so the sweep
computes them once per (instance, neighbor) and only re-scores the
exponential mechanism — see
:func:`repro.mechanisms.dp_hsrc.reweight_pmf`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.runner import ExperimentResult
from repro.mechanisms.dp_hsrc import DPHSRCAuction, reweight_pmf
from repro.privacy.leakage import pmf_kl_divergence
from repro.utils.rng import ensure_rng
from repro.auction.bids import Bid
from repro.exceptions import EmptyPriceSetError
from repro.engine.price_set import feasible_price_set
from repro.workloads.generator import generate_instance, matched_neighbor
from repro.workloads.settings import SETTING_I, SETTING_III

__all__ = ["run", "EPSILON_GRID"]

#: The ε values Figure 5's x-axis uses.
EPSILON_GRID: tuple[float, ...] = (
    0.25, 0.5, 1, 2, 5, 10, 20, 45, 100, 140, 200, 300, 500, 700, 1000,
)


def run(
    *,
    fast: bool = False,
    seed: int = 0,
    epsilons: Sequence[float] = EPSILON_GRID,
    n_neighbors: int = 5,
) -> ExperimentResult:
    """Regenerate Figure 5's two series.

    Parameters
    ----------
    fast:
        Uses a setting-I-sized instance and 2 neighbors instead of the
        setting-III scale.
    seed:
        Master seed (instance draw + neighbor draws).
    epsilons:
        The ε sweep values.
    n_neighbors:
        Neighbors averaged into the leakage estimate.
    """
    setting = SETTING_I if fast else SETTING_III
    if fast:
        n_neighbors = min(n_neighbors, 2)
    rng = ensure_rng(seed)
    instance_rng, neighbor_rng = rng.spawn(2)
    instance, _pool = generate_instance(setting, instance_rng)

    # Winner sets are ε-independent: compute them once via any budget.
    auction = DPHSRCAuction(epsilon=1.0)
    base_pmf = auction.price_pmf(instance)

    neighbor_pmfs = []
    for _ in range(int(n_neighbors)):
        worker = int(neighbor_rng.integers(instance.n_workers))
        neighbor = matched_neighbor(instance, setting, worker, seed=neighbor_rng)
        neighbor_pmfs.append((neighbor, auction.price_pmf(neighbor)))

    # Adversarial neighbor: price the most-likely winner out of the
    # market (bid -> c_max) so the winner sets actually move.  Workers
    # are tried in descending win probability until the feasible price
    # set is preserved (Definition 8 needs a common support).
    adversarial = None
    win_probs = np.array(
        [base_pmf.win_probability(i) for i in range(instance.n_workers)]
    )
    reference_support = feasible_price_set(instance)
    for worker in np.argsort(-win_probs):
        candidate = instance.replace_bid(
            int(worker),
            Bid(instance.bids[int(worker)].bundle, instance.c_max),
        )
        try:
            support = feasible_price_set(candidate)
        except EmptyPriceSetError:
            continue  # pricing this worker out starves the market
        if support.size == reference_support.size and np.allclose(
            support, reference_support
        ):
            adversarial = (candidate, auction.price_pmf(candidate))
            break

    rows = []
    for eps in epsilons:
        pmf = reweight_pmf(base_pmf, instance, eps)
        leakages = [
            pmf_kl_divergence(pmf, reweight_pmf(npmf, neighbor, eps))
            for neighbor, npmf in neighbor_pmfs
        ]
        if adversarial is not None:
            adv_instance, adv_pmf = adversarial
            adv_leak = pmf_kl_divergence(
                pmf, reweight_pmf(adv_pmf, adv_instance, eps)
            )
        else:
            adv_leak = float("nan")
        rows.append(
            (
                float(eps),
                round(pmf.expected_total_payment(), 1),
                round(float(np.mean(leakages)), 6),
                round(adv_leak, 6),
            )
        )

    return ExperimentResult(
        name="figure5",
        title="Figure 5: payment vs privacy leakage trade-off (DP-hSRC)",
        headers=["epsilon", "avg total payment", "mean KL leakage", "adversarial KL leakage"],
        rows=rows,
        notes=(
            f"setting {setting.name} instance; mean column averages "
            f"{n_neighbors} random support-matched neighbors, adversarial "
            "column prices the likeliest winner out of the market",
            "payment is the exact expectation over the price distribution",
        ),
        precision=6,
    )
