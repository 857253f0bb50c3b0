"""The shared price-sweep engine: one cached plan, every mechanism.

Every single-price mechanism (DP-hSRC, its permute-and-flip variant, the
§VII-A baseline, the optimal benchmark) runs the same ε-independent
pipeline per instance — feasible price set, affordable-worker grouping,
one cover-solver run per group.  This package factors that pipeline out
of the mechanisms into one shared, cached, observable layer:

* :mod:`repro.engine.price_set` — the pipeline's first two stages
  (the feasible price set and the affordable-worker grouping);
* :mod:`repro.engine.plan` — :class:`SweepPlan`, the packaged result of
  one full sweep for one ``(instance, cover_solver)`` pair, built via
  :func:`build_plan` over a shared
  :class:`~repro.coverage.greedy.GreedyState` (no per-group gain-matrix
  slicing);
* :mod:`repro.engine.engine` — :class:`SweepEngine`, a bounded
  identity-keyed LRU plan cache with ``engine.plan.*`` hit/miss
  counters, plus the :func:`current_engine`/:func:`use_engine` ambient
  context.  Head-to-head experiments that evaluate N mechanisms on one
  instance pay for the sweep once instead of N times;
* :mod:`repro.engine.reference` — the retained pre-engine pipeline, the
  golden spec the engine-backed mechanisms are asserted bit-for-bit
  against.

Quickstart
----------
>>> from repro import DPHSRCAuction, BaselineAuction, SweepEngine, use_engine
>>> from repro.bench import seeded_auction_batch
>>> [instance] = seeded_auction_batch(1, n_workers=25, n_tasks=5, seed=0)
>>> with use_engine(SweepEngine()) as engine:
...     pmf_a = DPHSRCAuction(epsilon=0.1).price_pmf(instance)
...     pmf_b = DPHSRCAuction(epsilon=5.0).price_pmf(instance)  # plan reused
>>> engine.hits, engine.misses
(1, 1)
"""

from repro.engine.engine import (
    DEFAULT_ENGINE,
    SweepEngine,
    current_engine,
    scoped_engine,
    use_engine,
)
from repro.engine.plan import SweepPlan, build_plan
from repro.engine.price_set import (
    PriceGroup,
    feasible_price_set,
    group_prices_by_candidates,
)
from repro.engine.reference import (
    reference_baseline_pmf,
    reference_dp_hsrc_pmf,
    reference_optimal_total_payment,
    reference_winner_schedule,
)

__all__ = [
    "SweepEngine",
    "SweepPlan",
    "build_plan",
    "DEFAULT_ENGINE",
    "current_engine",
    "use_engine",
    "scoped_engine",
    "PriceGroup",
    "feasible_price_set",
    "group_prices_by_candidates",
    "reference_winner_schedule",
    "reference_dp_hsrc_pmf",
    "reference_baseline_pmf",
    "reference_optimal_total_payment",
]
