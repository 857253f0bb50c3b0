"""Shared driver for the payment-comparison figures (Figures 1–4).

All four figures share one methodology (Section VII-C): per sweep point,
draw an instance per Table I, run each mechanism, sample 10,000 clearing
prices from its distribution, and plot mean ± std of the platform's
total payment.  Figures 1–2 include the optimal benchmark; Figures 3–4
drop it because the exact solves become infeasible at that scale — the
drivers mirror that with an ``include_optimal`` switch.

The figure modules themselves are pure data: each declares one
:class:`PaymentFigureSpec` and delegates to :func:`run_figure_spec`,
which owns the fast-mode shrink rules (3 sweep points, 2,000 price
samples) that used to be copy-pasted across figure1–figure4.  The
campaign layer's ``payment_figure`` cell kind
(:mod:`repro.campaign.cells`) builds the same spec from cell knobs, so a
campaign can run the methodology at any (setting, axis, scale) point.

:func:`run_payment_figure` makes one
:func:`~repro.experiments.runner.payment_sweep` call over every
(sweep point, repetition) unit, so a figure retries, checkpoints and
resumes exactly as a sweep does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.auction.mechanism import Mechanism
from repro.experiments.runner import ExperimentResult, payment_sweep
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.mechanisms.optimal import OptimalSinglePriceMechanism
from repro.workloads.settings import SETTINGS, SimulationSetting

__all__ = ["PaymentFigureSpec", "run_figure_spec", "run_payment_figure"]


@dataclass(frozen=True)
class PaymentFigureSpec:
    """Declarative identity of one payment-comparison figure.

    Attributes
    ----------
    name, title:
        Experiment identity for the report.
    setting_name:
        Table I setting key (``"I"``…``"IV"``).
    sweep_axis:
        ``"workers"`` or ``"tasks"``.
    include_optimal:
        Whether the exact benchmark runs (Figures 1–2 yes, 3–4 no).
    optimal_time_limit:
        Per-solve budget of the optimal benchmark at full scale.
    fast_optimal_time_limit:
        Tighter per-solve budget in fast mode; ``None`` keeps
        ``optimal_time_limit`` (the figures without a benchmark never
        consult it).
    """

    name: str
    title: str
    setting_name: str
    sweep_axis: str
    include_optimal: bool
    optimal_time_limit: float | None = 15.0
    fast_optimal_time_limit: float | None = None

    @property
    def setting(self) -> SimulationSetting:
        """The resolved Table I setting."""
        try:
            return SETTINGS[self.setting_name]
        except KeyError:
            raise ValueError(
                f"unknown setting {self.setting_name!r}; available: "
                f"{', '.join(SETTINGS)}"
            ) from None

    def default_sweep(self) -> Sequence[int]:
        """The setting's full sweep along this spec's axis."""
        setting = self.setting
        sweep = (
            setting.worker_sweep if self.sweep_axis == "workers" else setting.task_sweep
        )
        if sweep is None:
            raise ValueError(
                f"setting {self.setting_name!r} has no {self.sweep_axis} sweep"
            )
        return sweep


def run_figure_spec(
    spec: PaymentFigureSpec,
    *,
    fast: bool = False,
    seed: int = 0,
    n_price_samples: int | None = None,
    n_repetitions: int = 1,
    sweep_values: Sequence[int] | None = None,
) -> ExperimentResult:
    """Run one :class:`PaymentFigureSpec` (the shared figure1–4 body).

    Owns the fast-mode shrink the four figure modules used to duplicate:
    every third sweep point and 2,000 price samples instead of 10,000.
    ``sweep_values`` overrides the sweep entirely (campaign cells use
    this to run the methodology at arbitrary scale; the fast shrink does
    not apply to explicit values).
    """
    samples = (
        n_price_samples
        if n_price_samples is not None
        else (2_000 if fast else 10_000)
    )
    if sweep_values is None:
        sweep = spec.default_sweep()
        sweep_values = sweep[:: max(len(sweep) // 3, 1)] if fast else sweep
    limit = spec.optimal_time_limit
    if fast and spec.fast_optimal_time_limit is not None:
        limit = spec.fast_optimal_time_limit
    return run_payment_figure(
        name=spec.name,
        title=spec.title,
        setting=spec.setting,
        sweep_axis=spec.sweep_axis,
        sweep_values=sweep_values,
        include_optimal=spec.include_optimal,
        n_price_samples=samples,
        seed=seed,
        n_repetitions=n_repetitions,
        optimal_time_limit=limit,
    )


def run_payment_figure(
    name: str,
    title: str,
    setting: SimulationSetting,
    *,
    sweep_axis: str,
    sweep_values: Sequence[int],
    include_optimal: bool,
    n_price_samples: int = 10_000,
    seed: int = 0,
    optimal_time_limit: float | None = 15.0,
    n_repetitions: int = 1,
) -> ExperimentResult:
    """Run one payment-vs-population figure.

    Parameters
    ----------
    name, title:
        Experiment identity for the report.
    setting:
        The Table I setting.
    sweep_axis:
        ``"workers"`` or ``"tasks"`` — which population axis the figure
        varies.
    sweep_values:
        The x-axis values.
    include_optimal:
        Whether to run the exact benchmark (Figures 1–2 yes, 3–4 no).
    n_price_samples:
        Clearing-price draws per mechanism per point (paper: 10,000).
    seed:
        Master seed.  Repetition ``r`` of sweep point ``p`` runs with
        child ``r`` of child ``p`` of ``SeedSequence(seed)``, as one
        :func:`~repro.experiments.runner.payment_sweep` unit at index
        ``p * n_repetitions + r``: it retries with its own seed,
        checkpoints under its own fingerprint and resumes independently.
    optimal_time_limit:
        Per-solve budget for the optimal benchmark.
    n_repetitions:
        Independent instances averaged per sweep point.  The paper uses 1
        (hence its nonsmooth curves); with more, the reported mean is the
        across-instance average and the std is the *across-instance*
        standard deviation of the per-instance means.
    """
    if sweep_axis not in ("workers", "tasks"):
        raise ValueError(f"sweep_axis must be 'workers' or 'tasks', got {sweep_axis!r}")

    mechanisms: dict[str, Mechanism] = {
        "optimal": OptimalSinglePriceMechanism(
            time_limit_per_solve=optimal_time_limit, max_exact_solves=8
        ),
        "dp_hsrc": DPHSRCAuction(epsilon=setting.epsilon),
        "baseline": BaselineAuction(epsilon=setting.epsilon),
    }
    if not include_optimal:
        del mechanisms["optimal"]

    headers = [sweep_axis[:-1] + " count"]
    for mech in mechanisms:
        headers.extend([f"{mech} mean", f"{mech} std"])

    if n_repetitions < 1:
        raise ValueError(f"n_repetitions must be positive, got {n_repetitions}")
    points = [
        (int(value), None) if sweep_axis == "workers" else (None, int(value))
        for value in sweep_values
    ]
    seeds = [
        rep
        for point_seed in np.random.SeedSequence(seed).spawn(len(points))
        for rep in point_seed.spawn(n_repetitions)
    ]
    units = [point for point in points for _ in range(n_repetitions)]
    results = payment_sweep(setting, mechanisms, units, seeds, n_price_samples=n_price_samples)
    rows = []
    for point, value in enumerate(sweep_values):
        rep_stats = results[point * n_repetitions : (point + 1) * n_repetitions]
        row: list = [int(value)]
        for mech in mechanisms:
            means = [stats[mech].mean for stats in rep_stats]
            if n_repetitions == 1:
                row.extend([round(means[0], 1), round(rep_stats[0][mech].std, 1)])
            else:
                row.extend(
                    [
                        round(float(np.mean(means)), 1),
                        round(float(np.std(means)), 1),
                    ]
                )
        rows.append(tuple(row))

    std_meaning = (
        "std = price-draw std within the single instance"
        if n_repetitions == 1
        else f"std = across-{n_repetitions}-instance std of per-instance means"
    )
    notes = (
        f"setting {setting.name}: epsilon={setting.epsilon}, "
        f"{n_price_samples} price samples per mechanism per point",
        std_meaning,
    )
    return ExperimentResult(name=name, title=title, headers=headers, rows=rows, notes=notes)
