"""The typed registry of campaign cell kinds.

A *cell kind* maps a :class:`~repro.campaign.spec.CellSpec`'s knobs to
one :class:`~repro.experiments.ExperimentResult`.  Kinds are plain
callables in a registry (:data:`CELL_KINDS`), so downstream projects can
:func:`register_cell_kind` their own workloads without touching the
runner.  Built-ins:

``experiment``
    Any module from the experiment registry
    (:data:`repro.experiments.EXPERIMENTS`), run with the campaign's
    seed/fast flags — a campaign cell reproduces
    ``repro <name> --fast --seed S`` bit-for-bit.
``payment_figure``
    The Figures 1–4 methodology at *arbitrary* scale: pick a Table I
    setting, a sweep axis, explicit sweep values, and which mechanisms
    to include — the declarative (mechanism × workload × scale) grid
    cell the figure modules themselves are thin instances of.
``uncertain_tasks``
    Chance-constrained demands under probabilistic task completion
    (:mod:`repro.workloads.uncertain`): workers complete their bundles
    with probability ``rate``, nominal Lemma-1 demands are inflated so
    the error bound still holds with probability ``confidence``, and a
    seeded Monte-Carlo pass verifies the empirical satisfaction rate.
``online_stream``
    The stage-based online threshold mechanism over seeded
    :class:`~repro.workloads.OnlineArrivalStream` orderings — including
    the bursty/churn traces — reporting winners/spend/value per
    ``(order, churn)`` grid point.

All kind runners import their dependencies lazily, so building a
:class:`~repro.campaign.spec.CampaignSpec` stays cheap and the package
has no import cycle with :mod:`repro.experiments`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.campaign.spec import CellSpec
from repro.exceptions import ValidationError

__all__ = [
    "CellContext",
    "CellKind",
    "CELL_KINDS",
    "register_cell_kind",
    "get_cell_kind",
    "cell_run_params",
]


@dataclass(frozen=True)
class CellContext:
    """Campaign-wide knobs handed to every cell runner.

    Cells inherit ``fast``/``seed`` from the campaign; a cell's own
    ``fast``/``seed`` knobs override them (see :func:`cell_run_params`).
    """

    campaign: str
    fast: bool = False
    seed: int = 0


@dataclass(frozen=True)
class CellKind:
    """One entry of the typed cell-kind registry.

    Attributes
    ----------
    name:
        Registry key referenced by :attr:`CellSpec.kind`.
    summary:
        One-line description (shown in docs and error messages).
    runner:
        ``(CellSpec, CellContext) -> ExperimentResult``.
    """

    name: str
    summary: str
    runner: Callable[[CellSpec, CellContext], object]


#: The kind registry; mutate only through :func:`register_cell_kind`.
CELL_KINDS: dict[str, CellKind] = {}


def register_cell_kind(kind: CellKind) -> CellKind:
    """Add a kind to the registry (duplicate names are an error)."""
    if kind.name in CELL_KINDS:
        raise ValidationError(f"cell kind {kind.name!r} is already registered")
    CELL_KINDS[kind.name] = kind
    return kind


def get_cell_kind(name: str) -> CellKind:
    """Look up a kind, with the available names in the error message."""
    try:
        return CELL_KINDS[name]
    except KeyError:
        raise ValidationError(
            f"unknown cell kind {name!r}; registered: {', '.join(sorted(CELL_KINDS))}"
        ) from None


def cell_run_params(cell: CellSpec, context: CellContext) -> tuple[dict, bool, int]:
    """Split a cell's knobs into (kind knobs, fast, seed).

    ``fast``/``seed`` knobs override the campaign-wide values; everything
    else is returned for the kind runner to consume.
    """
    knobs = dict(cell.knobs)
    fast = bool(knobs.pop("fast", context.fast))
    seed = int(knobs.pop("seed", context.seed))
    return knobs, fast, seed


# ---------------------------------------------------------------------------
# Built-in kinds
# ---------------------------------------------------------------------------


def _run_experiment_cell(cell: CellSpec, context: CellContext):
    """Kind ``experiment``: run a registry experiment module.

    Knobs: ``experiment`` (defaults to the cell name), ``fast``,
    ``seed``, plus any extra keyword the module's ``run()`` accepts
    (e.g. ``n_instances`` for the extension experiments).
    """
    from repro.experiments import EXPERIMENTS

    knobs, fast, seed = cell_run_params(cell, context)
    name = str(knobs.pop("experiment", cell.name))
    if name not in EXPERIMENTS:
        raise ValidationError(
            f"cell {cell.name!r}: unknown experiment {name!r}; available: "
            f"{', '.join(EXPERIMENTS)}"
        )
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.run(fast=fast, seed=seed, **knobs)


def _run_payment_figure_cell(cell: CellSpec, context: CellContext):
    """Kind ``payment_figure``: the Figures 1–4 methodology, any scale.

    Knobs: ``setting`` (Table I name, default ``"I"``), ``axis``
    (``"workers"``/``"tasks"``), ``values`` (explicit sweep values;
    defaults to the setting's sweep, fast-shrunk), ``include_optimal``,
    ``n_price_samples``, ``n_repetitions``, ``optimal_time_limit``,
    ``title``.
    """
    from repro.experiments.figure_payment import PaymentFigureSpec, run_figure_spec

    knobs, fast, seed = cell_run_params(cell, context)
    setting = str(knobs.pop("setting", "I"))
    axis = str(knobs.pop("axis", "workers"))
    values = knobs.pop("values", None)
    include_optimal = bool(knobs.pop("include_optimal", False))
    n_price_samples = knobs.pop("n_price_samples", None)
    n_repetitions = int(knobs.pop("n_repetitions", 1))
    optimal_time_limit = knobs.pop("optimal_time_limit", 15.0)
    title = knobs.pop(
        "title",
        f"Campaign cell {cell.name}: payment sweep over {axis} (setting {setting})",
    )
    if knobs:
        raise ValidationError(
            f"cell {cell.name!r}: unknown payment_figure knobs {sorted(knobs)}"
        )
    spec = PaymentFigureSpec(
        name=cell.name,
        title=str(title),
        setting_name=setting,
        sweep_axis=axis,
        include_optimal=include_optimal,
        optimal_time_limit=None if optimal_time_limit is None else float(optimal_time_limit),
    )
    return run_figure_spec(
        spec,
        fast=fast,
        seed=seed,
        n_price_samples=None if n_price_samples is None else int(n_price_samples),
        n_repetitions=n_repetitions,
        sweep_values=None if values is None else [int(v) for v in values],
    )


def _run_uncertain_cell(cell: CellSpec, context: CellContext):
    """Kind ``uncertain_tasks``: chance-constrained completion workload.

    Knobs: ``rates`` (completion probabilities, default
    ``[1.0, 0.9, 0.75, 0.6]``), ``confidence`` (chance-constraint level,
    default 0.9), ``n_workers``, ``n_trials`` (Monte-Carlo completions
    per rate), ``fast``, ``seed``.
    """
    from repro.workloads.uncertain import run_uncertain_workload

    knobs, fast, seed = cell_run_params(cell, context)
    return run_uncertain_workload(name=cell.name, fast=fast, seed=seed, **knobs)


def _run_online_cell(cell: CellSpec, context: CellContext):
    """Kind ``online_stream``: streaming mechanism over arrival orderings.

    Knobs: ``orders`` (default ``["uniform", "bursty", "adversarial"]``),
    ``churns`` (default ``[0.0, 0.2]``), ``budget`` (hard payment budget,
    default 120), ``n_stages``, ``n_workers``, ``n_tasks``, ``n_bursts``,
    ``dp`` (ε for the DP-calibrated variant, ``null`` = non-private),
    ``fast``, ``seed``.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.mechanisms.online import (
        DPOnlineThresholdMechanism,
        OnlineThresholdMechanism,
    )
    from repro.workloads import OnlineArrivalStream, generate_instance
    from repro.workloads.streams import ONLINE_SETTING

    knobs, fast, seed = cell_run_params(cell, context)
    orders = [str(o) for o in knobs.pop("orders", ["uniform", "bursty", "adversarial"])]
    churns = [float(c) for c in knobs.pop("churns", [0.0, 0.2])]
    budget = float(knobs.pop("budget", 120.0))
    n_stages = int(knobs.pop("n_stages", 4))
    n_workers = int(knobs.pop("n_workers", 60 if fast else 200))
    n_tasks = int(knobs.pop("n_tasks", 8))
    n_bursts = int(knobs.pop("n_bursts", 4))
    dp = knobs.pop("dp", None)
    if knobs:
        raise ValidationError(
            f"cell {cell.name!r}: unknown online_stream knobs {sorted(knobs)}"
        )

    instance, _pool = generate_instance(
        ONLINE_SETTING.with_population(n_workers=n_workers, n_tasks=n_tasks), seed=seed
    )
    if dp is None:
        mechanism = OnlineThresholdMechanism(budget=budget, n_stages=n_stages)
    else:
        mechanism = DPOnlineThresholdMechanism(
            budget=budget, epsilon=float(dp), n_stages=n_stages
        )
    rows = []
    for order in orders:
        for churn in churns:
            stream = OnlineArrivalStream(
                instance, order=order, seed=seed, churn=churn, n_bursts=n_bursts
            )
            outcome = mechanism.run(stream, seed=seed)
            rows.append(
                (
                    order,
                    churn,
                    stream.n_arrivals,
                    outcome.n_winners,
                    round(outcome.spent, 2),
                    round(outcome.value, 3),
                )
            )
    notes = (
        f"{mechanism.name}: budget={budget:g}, {n_stages} stages, "
        f"N={n_workers}, K={n_tasks}; one market, re-streamed per (order, churn)",
    )
    return ExperimentResult(
        name=cell.name,
        title=f"Campaign cell {cell.name}: online threshold mechanism vs arrival order",
        headers=["order", "churn", "arrivals", "winners", "spent", "value"],
        rows=rows,
        notes=notes,
    )


register_cell_kind(
    CellKind(
        name="experiment",
        summary="any module from the experiment registry, run as one cell",
        runner=_run_experiment_cell,
    )
)
register_cell_kind(
    CellKind(
        name="payment_figure",
        summary="the Figures 1-4 payment-sweep methodology at arbitrary scale",
        runner=_run_payment_figure_cell,
    )
)
register_cell_kind(
    CellKind(
        name="uncertain_tasks",
        summary="chance-constrained demands under probabilistic task completion",
        runner=_run_uncertain_cell,
    )
)
register_cell_kind(
    CellKind(
        name="online_stream",
        summary="streaming threshold mechanism over seeded arrival orderings",
        runner=_run_online_cell,
    )
)
