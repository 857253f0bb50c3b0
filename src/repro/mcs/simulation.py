"""Longitudinal multi-round MCS simulation.

Chains :class:`~repro.mcs.platform.Platform` rounds into a campaign:
every round announces fresh tasks, re-runs the auction against the
platform's *current* skill record, collects labels, and (optionally)
refreshes the record with Dawid–Skene truth discovery over the accumulated
history.  A :class:`~repro.privacy.composition.PrivacyAccountant` tracks
the cumulative ε spent against the workers' bids under sequential
composition — the operational cost of re-running a DP mechanism that the
single-round paper analysis leaves implicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mcs.platform import Platform, SensingRound
from repro.mcs.skill_estimation import estimate_skills_dawid_skene
from repro.mcs.tasks import TaskSet
from repro.mcs.workers import WorkerPool
from repro.privacy.composition import PrivacyAccountant
from repro.tolerances import meets_demand
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["RoundRecord", "MCSSimulation"]


@dataclass(frozen=True)
class RoundRecord:
    """One round's ledger entry.

    Attributes
    ----------
    round_index:
        Zero-based round number.
    sensing:
        The full :class:`~repro.mcs.platform.SensingRound` report.
    epsilon_spent:
        Cumulative privacy budget consumed through this round.
    skill_record_error:
        Mean absolute error of the platform's skill record against the
        true skills at auction time (0 when the record is exact).
    """

    round_index: int
    sensing: SensingRound
    epsilon_spent: float
    skill_record_error: float


class MCSSimulation:
    """A multi-round sensing campaign.

    Parameters
    ----------
    platform:
        The platform (wraps the auction mechanism).
    pool:
        The worker population, fixed across rounds.
    epsilon_per_round:
        The ε each auction round consumes (sequential composition).
    error_threshold_range:
        Range the per-round task thresholds δ_j are drawn from.
    price_grid, c_min, c_max:
        Market parameters, fixed across rounds.
    estimate_skills:
        When True the platform maintains its skill record from the data
        it buys instead of using the true skills (the paper's setting).
    skill_estimator:
        ``"gold"`` (default) — per round, the platform embeds gold tasks
        with known labels (fraction ``gold_fraction``) and scores workers
        against them, the quality-assurance scheme of the paper's ref
        [33]; estimates converge as history accumulates.
        ``"dawid-skene"`` — unsupervised truth discovery only.  Beware:
        with no ground truth anywhere, apparent accuracies compress
        toward 0.5 by the consensus noise factor each refit, and after
        enough rounds the shrunken record can make the announced error
        bounds infeasible — a real operational failure mode this
        simulator reproduces (see ``examples/longitudinal_campaign.py``).
    gold_fraction:
        Fraction of each round's tasks treated as gold when
        ``skill_estimator="gold"``.
    """

    def __init__(
        self,
        platform: Platform,
        pool: WorkerPool,
        *,
        epsilon_per_round: float,
        error_threshold_range: tuple[float, float],
        price_grid: np.ndarray,
        c_min: float,
        c_max: float,
        estimate_skills: bool = False,
        skill_estimator: str = "gold",
        gold_fraction: float = 0.2,
        budget: float | None = None,
    ) -> None:
        if skill_estimator not in ("gold", "dawid-skene"):
            raise ValueError(
                f"unknown skill_estimator {skill_estimator!r}; "
                "use 'gold' or 'dawid-skene'"
            )
        if not (0.0 < gold_fraction <= 1.0):
            raise ValueError("gold_fraction must lie in (0, 1]")
        self.platform = platform
        self.pool = pool
        self.epsilon_per_round = float(epsilon_per_round)
        self.error_threshold_range = error_threshold_range
        self.price_grid = np.asarray(price_grid, dtype=float)
        self.c_min = float(c_min)
        self.c_max = float(c_max)
        self.estimate_skills = bool(estimate_skills)
        self.skill_estimator = skill_estimator
        self.gold_fraction = float(gold_fraction)
        self.accountant = PrivacyAccountant(budget=budget)
        self._history_labels: list[np.ndarray] = []
        self._gold_labels: list[np.ndarray] = []
        self._gold_truth: list[np.ndarray] = []
        self._skill_record: np.ndarray = pool.skills.copy()

    @property
    def skill_record(self) -> np.ndarray:
        """The platform's current skill record."""
        return self._skill_record

    def run(self, n_rounds: int, seed: RngLike = None) -> list[RoundRecord]:
        """Run ``n_rounds`` rounds and return their ledger.

        Raises
        ------
        ValueError
            If the privacy accountant's budget would be exceeded; raised
            before that round's auction runs, so it releases no draw.
        """
        rng = ensure_rng(seed)
        records: list[RoundRecord] = []
        for round_index in range(int(n_rounds)):
            round_rng = rng.spawn(1)[0]
            tasks, instance = self._draw_feasible_round(rng)
            # The task draw is public; the round's price draw is not, so
            # its ε is spent (or refused) before the draw is released.
            spent = self.accountant.spend(self.epsilon_per_round)
            sensing = self.platform.run_round(
                self.pool,
                tasks,
                instance,
                seed=round_rng,
                recorded_skills=self._skill_record,
            )
            record_error = float(
                np.mean(np.abs(self._skill_record - self.pool.skills))
            )
            records.append(
                RoundRecord(
                    round_index=round_index,
                    sensing=sensing,
                    epsilon_spent=spent,
                    skill_record_error=record_error,
                )
            )
            if self.estimate_skills:
                self._refresh_skill_record(sensing.labels, tasks, rng)
        return records

    def _refresh_skill_record(self, labels: np.ndarray, tasks, rng) -> None:
        """Fold this round's labels into the platform's skill record.

        Only workers with observed labels are re-estimated; the record for
        never-observed workers is left alone (estimating them would pin
        their skills at the uninformative 0.5, zeroing their quality and
        potentially starving the market of coverage).
        """
        self._history_labels.append(labels)
        stacked = np.concatenate(self._history_labels, axis=1)

        if self.skill_estimator == "gold":
            from repro.mcs.skill_estimation import estimate_skills_from_gold

            n_gold = max(1, int(round(self.gold_fraction * labels.shape[1])))
            gold_idx = rng.choice(labels.shape[1], size=n_gold, replace=False)
            self._gold_labels.append(labels[:, gold_idx])
            self._gold_truth.append(tasks.true_labels[gold_idx])
            all_gold = np.concatenate(self._gold_labels, axis=1)
            all_truth = np.concatenate(self._gold_truth)
            estimate = estimate_skills_from_gold(
                all_gold, all_truth, n_tasks=self.pool.n_tasks
            )
            observed_workers = (all_gold != 0).any(axis=1)
        else:
            # Truth discovery needs every (historical) task labeled once.
            labeled = stacked[:, (stacked != 0).any(axis=0)]
            if labeled.shape[1] == 0:
                return
            estimate = estimate_skills_dawid_skene(
                labeled, n_tasks=self.pool.n_tasks
            )
            observed_workers = (stacked != 0).any(axis=1)

        record = self._skill_record.copy()
        record[observed_workers] = estimate[observed_workers]
        self._skill_record = record

    def _draw_feasible_round(self, rng, *, max_tries: int = 20):
        """Draw a task set whose demands the population can actually cover.

        A platform that announces tasks its worker base cannot satisfy
        would renegotiate the thresholds; the simulation models that by
        rejecting infeasible draws (bounded, to surface truly hopeless
        configurations as an error).
        """
        from repro.exceptions import InfeasibleError

        for _ in range(int(max_tries)):
            task_rng = rng.spawn(1)[0]
            tasks = TaskSet.random(
                self.pool.n_tasks, self.error_threshold_range, seed=task_rng
            )
            instance = self.pool.to_instance(
                error_thresholds=tasks.error_thresholds,
                price_grid=self.price_grid,
                c_min=self.c_min,
                c_max=self.c_max,
                skills_estimate=self._skill_record,
            )
            if meets_demand(instance.coverage(), instance.demands):
                return tasks, instance
        raise InfeasibleError(
            f"no feasible task draw in {max_tries} tries; the worker "
            "population cannot satisfy the requested error thresholds"
        )
