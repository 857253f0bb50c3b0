"""The cloud platform: one full sensing round, end to end.

Implements the workflow of Section III-A: announce tasks → run the
auction → assign winners their bundles → collect noisy labels → aggregate
with the Lemma 1 weighted rule → pay winners.  The returned
:class:`SensingRound` records everything an operator (or a test) would
want to audit: who won, what it cost, whether every task's coverage
demand was met, and how accurate the aggregated labels actually were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.error_bounds import achieved_error_bound
from repro.aggregation.weighted import weighted_aggregate
from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism
from repro.auction.outcome import AuctionOutcome
from repro.exceptions import ValidationError
from repro.mcs.sensing import assignment_mask, collect_labels
from repro.mcs.tasks import TaskSet
from repro.mcs.workers import WorkerPool
from repro.tolerances import DEMAND_TOL
from repro.utils import validation
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Platform", "SensingRound"]


@dataclass(frozen=True)
class SensingRound:
    """Complete record of one platform round.

    Attributes
    ----------
    outcome:
        The auction outcome (winners, price, payments).
    labels:
        ``(N, K)`` collected label matrix (0 where not sensed).
    aggregated:
        ``(K,)`` aggregated ±1 labels.
    accuracy:
        Fraction of tasks whose aggregated label matches the hidden truth.
    coverage:
        ``(K,)`` achieved quality coverage ``Σ (2θ−1)²`` per task.
    demand_met:
        ``(K,)`` booleans: did the winner set satisfy each task's
        error-bound constraint?
    error_bounds:
        ``(K,)`` the *achieved* Lemma 1 bound ``exp(−coverage/2)`` per task.
    """

    outcome: AuctionOutcome
    labels: np.ndarray
    aggregated: np.ndarray
    accuracy: float
    coverage: np.ndarray
    demand_met: np.ndarray
    error_bounds: np.ndarray

    @property
    def total_payment(self) -> float:
        """The platform's total payment this round."""
        return self.outcome.total_payment


class Platform:
    """The MCS platform, parameterized by an auction mechanism.

    Parameters
    ----------
    mechanism:
        Any :class:`~repro.auction.mechanism.Mechanism` (DP-hSRC in the
        paper's deployment; the baseline and optimal mechanisms slot in
        for comparison studies).

    Examples
    --------
    See ``examples/quickstart.py`` for a complete round.
    """

    def __init__(self, mechanism: Mechanism) -> None:
        self.mechanism = mechanism

    def run_round(
        self,
        pool: WorkerPool,
        tasks: TaskSet,
        instance: AuctionInstance,
        seed: RngLike = None,
        *,
        recorded_skills: np.ndarray | None = None,
    ) -> SensingRound:
        """Execute one announce→auction→sense→aggregate→pay round.

        Parameters
        ----------
        pool:
            The worker population (supplies true skills for sensing).
        tasks:
            The announced tasks (supplies hidden truth and thresholds).
        instance:
            The auction instance the platform solves (normally built via
            :meth:`WorkerPool.to_instance`; passed explicitly so callers
            control the platform's skill record and the submitted bids).
        seed:
            Randomness source for both the price draw and the sensing
            noise (split internally so the two are independent).
        recorded_skills:
            The skill record θ the platform aggregates with (weights are
            ``2θ−1``, so values below 0.5 correctly get negative weight).
            Defaults to the pool's true skills, matching the paper's
            perfectly-informed-platform simulations.
        """
        rng = ensure_rng(seed)
        auction_rng, sensing_rng = rng.spawn(2)

        outcome = self.mechanism.run(instance, seed=auction_rng)
        winners = outcome.winners
        assignments = assignment_mask(instance.bundle_mask, winners)
        labels = collect_labels(
            pool.skills, tasks.true_labels, assignments, seed=sensing_rng
        )
        if recorded_skills is None:
            recorded_skills = pool.skills  # checked when the pool was built
        else:
            recorded_skills = validation.as_float_array(recorded_skills, "skills", ndim=2)
            validation.require_in_unit_interval(recorded_skills, "skills")
            if recorded_skills.shape != labels.shape:
                raise ValidationError(
                    f"labels shape {labels.shape} does not match skills shape "
                    f"{recorded_skills.shape}"
                )
        # Only winners hold labels, and NumPy adds the rows of a (W, K)
        # vote in order for K >= 2, so the winners' rows give the same
        # scores up to the sign of a zero.  A K = 1 column is summed
        # pairwise, so there every row takes part.
        voters = winners if instance.n_tasks > 1 else slice(None)
        aggregated = weighted_aggregate(labels[voters], recorded_skills[voters])
        accuracy = float(np.mean(aggregated == tasks.true_labels))

        coverage = instance.coverage(winners)
        demand_met = coverage >= instance.demands - DEMAND_TOL
        return SensingRound(
            outcome=outcome,
            labels=labels,
            aggregated=aggregated,
            accuracy=accuracy,
            coverage=coverage,
            demand_met=demand_met,
            error_bounds=np.asarray(achieved_error_bound(coverage)),
        )
