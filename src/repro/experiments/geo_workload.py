"""Extension experiment — route-structured vs uniform bundles.

The paper's generator scatters bundles uniformly over tasks; real
geotagging bundles are *routes* — connected, heavily-overlapping
corridors that concentrate supply on central road segments and starve
the periphery.  This experiment runs DP-hSRC and the baseline on
geospatial markets and on size-matched uniform markets (same worker
count, same per-worker bundle sizes, same skills and costs, bundles
re-scattered uniformly) and reports payments and winner counts.

Observed shape (see EXPERIMENTS.md): DP-hSRC's expected payment is
nearly indifferent to the bundle geometry, and it undercuts the
static-order baseline by roughly 2× on *both* geometries — evidence that
the paper's Table-I evaluation (uniform bundles) does not overstate the
mechanism's advantage on its own motivating geotagging workload; the
geometry mostly shifts instance-to-instance variance, not the ranking.
"""

from __future__ import annotations

import numpy as np

from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.engine.engine import scoped_engine, use_engine
from repro.exceptions import InfeasibleError
from repro.experiments.runner import ExperimentResult
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.tolerances import meets_demand
from repro.utils.rng import ensure_rng
from repro.workloads.geo import GeoCityConfig, generate_geo_market

__all__ = ["run"]


def _uniform_rebundle(instance: AuctionInstance, rng) -> AuctionInstance:
    """Same market, bundles re-scattered uniformly with matched sizes."""
    n_tasks = instance.n_tasks
    bids = []
    for bid in instance.bids:
        size = min(len(bid.bundle), n_tasks)
        bundle = rng.choice(n_tasks, size=size, replace=False)
        bids.append(Bid(bundle, bid.price))
    return AuctionInstance(
        bids=BidProfile(bids),
        quality=instance.quality,
        demands=instance.demands,
        price_grid=instance.price_grid,
        c_min=instance.c_min,
        c_max=instance.c_max,
    )


def run(
    *,
    fast: bool = False,
    seed: int = 0,
    n_markets: int = 6,
    epsilon: float = 0.1,
) -> ExperimentResult:
    """Compare bundle geometries across fresh geo markets."""
    config = GeoCityConfig(
        rows=4 if fast else 5,
        cols=4 if fast else 6,
        n_commuters=160 if fast else 250,
    )
    if fast:
        n_markets = min(n_markets, 3)
    rng = ensure_rng(seed)
    dp = DPHSRCAuction(epsilon=epsilon)
    base = BaselineAuction(epsilon=epsilon)

    rows = []
    for market_id in range(int(n_markets)):
        market = generate_geo_market(config, rng)
        # DP and baseline share one engine per market: both sweep the
        # same instance (and the same uniform control), so the grouping
        # is computed once per geometry.
        with use_engine(scoped_engine()):
            geo_pmf = dp.price_pmf(market.instance)
            geo_base = base.price_pmf(market.instance)

            # Size-matched uniform control; redraw until feasible.
            uniform_pmf = uniform_base_pmf = None
            for _ in range(20):
                control = _uniform_rebundle(market.instance, rng)
                if meets_demand(control.coverage(), control.demands):
                    uniform_pmf = dp.price_pmf(control)
                    uniform_base_pmf = base.price_pmf(control)
                    break
        if uniform_pmf is None:
            raise InfeasibleError("no feasible uniform control in 20 draws")

        expected_winners_geo = float(
            np.dot(geo_pmf.probabilities, geo_pmf.cover_sizes)
        )
        expected_winners_uni = float(
            np.dot(uniform_pmf.probabilities, uniform_pmf.cover_sizes)
        )
        rows.append(
            (
                market_id,
                round(geo_pmf.expected_total_payment(), 1),
                round(uniform_pmf.expected_total_payment(), 1),
                round(geo_base.expected_total_payment(), 1),
                round(uniform_base_pmf.expected_total_payment(), 1),
                round(expected_winners_geo, 1),
                round(expected_winners_uni, 1),
            )
        )

    return ExperimentResult(
        name="geo_workload",
        title="Extension: route-structured vs uniform bundles (geotagging city)",
        headers=[
            "market",
            "dp_hsrc geo E[R]",
            "dp_hsrc uniform E[R]",
            "baseline geo E[R]",
            "baseline uniform E[R]",
            "E[winners] geo",
            "E[winners] uniform",
        ],
        rows=rows,
        notes=(
            f"{config.rows}x{config.cols} grid city, {config.n_commuters} "
            f"commuters, delta={config.error_threshold}; uniform control keeps "
            "worker count, bundle sizes, skills, and costs fixed",
        ),
    )
