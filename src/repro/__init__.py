"""repro — Privacy-preserving incentives for mobile crowd sensing.

A faithful, production-quality reproduction of

    Haiming Jin, Lu Su, Bolin Ding, Klara Nahrstedt, Nikita Borisov.
    "Enabling Privacy-Preserving Incentives for Mobile Crowd Sensing
    Systems." IEEE ICDCS 2016.

The headline export is :class:`~repro.mechanisms.DPHSRCAuction` — the
paper's Algorithm 1, a differentially private single-minded reverse
combinatorial auction — together with the baseline and optimal benchmark
mechanisms, the complete MCS simulation substrate (tasks, workers,
sensing, aggregation, skill estimation), the differential-privacy
toolbox, and the experiment harness regenerating every figure and table
of the paper's evaluation.

Quickstart
----------
>>> from repro import DPHSRCAuction, SETTING_I, generate_instance
>>> instance, pool = generate_instance(SETTING_I, seed=0, n_workers=100)
>>> outcome = DPHSRCAuction(epsilon=0.1).run(instance, seed=1)
>>> outcome.total_payment > 0
True

See ``examples/`` for full walkthroughs and ``DESIGN.md`` for the system
inventory.
"""

import logging as _logging

# Library logging convention: a NullHandler on the "repro" root logger so
# importing the library never configures logging for the host application;
# the CLI's --verbose flag (repro.cli) attaches a real handler on demand.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.auction import AuctionInstance, AuctionOutcome, Bid, BidProfile, Mechanism, PricePMF
from repro.bench import BatchAuctionRunner, BatchRunResult, SharedInstanceBatch
from repro.coverage import LazyGreedyState, SparseCoverage, lazy_sparse_greedy_cover
from repro.engine import (
    SweepEngine,
    SweepPlan,
    current_engine,
    feasible_price_set,
    use_engine,
)
from repro.mechanisms import (
    BaselineAuction,
    DPHSRCAuction,
    OptimalSinglePriceMechanism,
    PermuteFlipHSRCAuction,
    ThresholdPaymentAuction,
    optimal_total_payment,
    theorem6_payment_bound,
    truthfulness_gap,
)
from repro.mcs import MCSSimulation, Platform, TaskSet, WorkerPool, plan_campaign
from repro.obs import (
    MetricsRecorder,
    NullRecorder,
    PrivacyLedger,
    current_recorder,
    use_recorder,
)
from repro.privacy import (
    ExponentialMechanism,
    PrivacyAccountant,
    pmf_kl_divergence,
    pmf_max_log_ratio,
)
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    ResilientExecutor,
    RetryPolicy,
    SweepCheckpoint,
    current_resilience,
    use_resilience,
)
from repro.workloads import (
    SETTING_I,
    SETTING_II,
    SETTING_III,
    SETTING_IV,
    SETTINGS,
    SimulationSetting,
    generate_instance,
    generate_worker_population,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # auction model
    "Bid",
    "BidProfile",
    "AuctionInstance",
    "AuctionOutcome",
    "Mechanism",
    "PricePMF",
    # batched execution
    "BatchAuctionRunner",
    "BatchRunResult",
    "SharedInstanceBatch",
    # scale kernels
    "SparseCoverage",
    "LazyGreedyState",
    "lazy_sparse_greedy_cover",
    # sweep engine
    "SweepEngine",
    "SweepPlan",
    "current_engine",
    "use_engine",
    # mechanisms
    "DPHSRCAuction",
    "BaselineAuction",
    "OptimalSinglePriceMechanism",
    "optimal_total_payment",
    "feasible_price_set",
    "truthfulness_gap",
    "theorem6_payment_bound",
    # MCS system
    "Platform",
    "TaskSet",
    "WorkerPool",
    "MCSSimulation",
    "plan_campaign",
    "PermuteFlipHSRCAuction",
    "ThresholdPaymentAuction",
    # observability
    "MetricsRecorder",
    "NullRecorder",
    "PrivacyLedger",
    "current_recorder",
    "use_recorder",
    # resilience
    "FaultPlan",
    "RetryPolicy",
    "ResilienceConfig",
    "ResilientExecutor",
    "SweepCheckpoint",
    "current_resilience",
    "use_resilience",
    # privacy
    "ExponentialMechanism",
    "PrivacyAccountant",
    "pmf_kl_divergence",
    "pmf_max_log_ratio",
    # workloads
    "SimulationSetting",
    "SETTING_I",
    "SETTING_II",
    "SETTING_III",
    "SETTING_IV",
    "SETTINGS",
    "generate_instance",
    "generate_worker_population",
]
