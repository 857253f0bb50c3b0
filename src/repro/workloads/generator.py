"""Random auction-instance generation from a Table I setting.

The generator reproduces Section VII-B's recipe exactly: bundle sizes,
skills, and error thresholds uniform over the setting's ranges; true
costs uniform over the 0.1-spaced lattice on ``[c_min, c_max]``; bids
truthful (justified by Theorem 3); the candidate price grid a 0.1-spaced
lattice over the setting's price range.

Instances are occasionally *globally infeasible* (even the full
population cannot cover every task — most likely at the small-N end of a
sweep); the generator retries with fresh draws a bounded number of times,
mirroring how the paper's simulation discards degenerate instances.
"""

from __future__ import annotations

import numpy as np

from repro.auction.bids import Bid
from repro.auction.instance import AuctionInstance
from repro.exceptions import InfeasibleError
from repro.mcs.workers import WorkerPool
from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.settings import SimulationSetting

__all__ = [
    "generate_worker_population",
    "generate_instance",
    "random_bid_perturbation",
    "matched_neighbor",
]


def generate_worker_population(
    setting: SimulationSetting,
    seed: RngLike = None,
    *,
    n_workers: int | None = None,
    n_tasks: int | None = None,
) -> WorkerPool:
    """Draw a worker population per the setting's distributions.

    Parameters
    ----------
    setting:
        The Table I configuration.
    seed:
        Randomness source.
    n_workers, n_tasks:
        Population overrides (sweep points); default to the setting's.
    """
    rng = ensure_rng(seed)
    n = setting.n_workers if n_workers is None else int(n_workers)
    k = setting.n_tasks if n_tasks is None else int(n_tasks)

    lo, hi = setting.skill_range
    skills = rng.uniform(lo, hi, size=(n, k))

    blo, bhi = setting.bundle_size
    bhi = min(bhi, k)
    blo = min(blo, bhi)
    sizes = rng.integers(blo, bhi + 1, size=n)
    bundles = tuple(
        frozenset(int(j) for j in rng.choice(k, size=int(size), replace=False))
        for size in sizes
    )

    lattice = setting.cost_lattice()
    costs = rng.choice(lattice, size=n)
    return WorkerPool(skills=skills, bundles=bundles, costs=costs)


def generate_instance(
    setting: SimulationSetting,
    seed: RngLike = None,
    *,
    n_workers: int | None = None,
    n_tasks: int | None = None,
    max_retries: int = 20,
) -> tuple[AuctionInstance, WorkerPool]:
    """Draw a feasible auction instance (and its underlying population).

    Feasibility here means the *full* population covers every task's
    demand, so the feasible price set is non-empty (it always contains
    the top of the grid).  Infeasible draws are rejected and redrawn.

    Returns
    -------
    (AuctionInstance, WorkerPool)
        The instance (with truthful bids) and the generating population,
        which carries the private truth the analyses need.

    Raises
    ------
    InfeasibleError
        If ``max_retries`` consecutive draws are infeasible — a sign the
        requested population is too small for the task load.
    """
    rng = ensure_rng(seed)
    k = setting.n_tasks if n_tasks is None else int(n_tasks)
    for _ in range(int(max_retries)):
        pool_rng, task_rng = rng.spawn(2)
        pool = generate_worker_population(
            setting, pool_rng, n_workers=n_workers, n_tasks=n_tasks
        )
        dlo, dhi = setting.error_threshold_range
        thresholds = ensure_rng(task_rng).uniform(dlo, dhi, size=k)
        instance = pool.to_instance(
            error_thresholds=thresholds,
            price_grid=setting.price_grid(),
            c_min=setting.c_min,
            c_max=setting.c_max,
        )
        coverage = instance.effective_quality.sum(axis=0)
        if np.all(coverage >= instance.demands - 1e-9):
            return instance, pool
    raise InfeasibleError(
        f"could not draw a feasible instance in {max_retries} attempts "
        f"(N={n_workers or setting.n_workers}, K={k})"
    )


def random_bid_perturbation(
    instance: AuctionInstance,
    setting: SimulationSetting,
    worker: int,
    seed: RngLike = None,
) -> AuctionInstance:
    """A neighboring instance: one worker's bid redrawn at random.

    Re-samples both the worker's asking price (from the cost lattice) and
    her bundle (same size, fresh task draw) — the strongest single-bid
    change the differential-privacy definition quantifies over.  Used by
    the privacy-leakage experiment (Figure 5) and the DP audits.
    """
    rng = ensure_rng(seed)
    old_bid = instance.bids[worker]
    new_price = float(rng.choice(setting.cost_lattice()))
    size = len(old_bid.bundle)
    new_bundle = rng.choice(instance.n_tasks, size=min(size, instance.n_tasks), replace=False)
    return instance.replace_bid(worker, Bid(new_bundle, new_price))


def matched_neighbor(
    instance: AuctionInstance,
    setting: SimulationSetting,
    worker: int,
    seed: RngLike = None,
    *,
    max_tries: int = 50,
) -> AuctionInstance:
    """A random neighboring instance with the *same* feasible price set.

    The paper's privacy analysis (Theorem 2, Definition 8) compares the
    price distributions of neighboring bid profiles over a common support
    ``P``.  A random single-bid change occasionally shifts which grid
    prices are feasible; this helper redraws until the supports match so
    KL/max-divergence comparisons are well defined.

    Raises
    ------
    InfeasibleError
        If no support-matched neighbor is found in ``max_tries`` draws.
    """
    from repro.engine.price_set import feasible_price_set

    rng = ensure_rng(seed)
    reference = feasible_price_set(instance)
    for _ in range(int(max_tries)):
        neighbor = random_bid_perturbation(instance, setting, worker, rng)
        try:
            candidate = feasible_price_set(neighbor)
        except InfeasibleError:
            continue
        if candidate.size == reference.size and np.allclose(candidate, reference):
            return neighbor
    raise InfeasibleError(
        f"no support-matched neighbor found for worker {worker} in {max_tries} draws"
    )
