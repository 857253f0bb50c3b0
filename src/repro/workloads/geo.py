"""Geospatial workloads: route-structured bundles on a street grid.

The paper's motivating applications are *geotagging* systems (potholes,
defibrillators): a worker's bundle is the set of road segments along a
route she actually travels, which is why the bundle leaks her location.
Table I's generator draws bundles uniformly at random; this module
builds the spatially-realistic alternative:

* a city is a ``rows × cols`` grid graph (networkx); **tasks are road
  segments** (edges);
* each commuter draws a home and a work intersection and bids the
  segments on a **shortest path** between them (ties randomized via
  jittered edge weights), so bundles are connected, overlapping corridors
  rather than uniform scatters;
* skill correlates with a per-worker device quality; cost grows with
  route length plus a device premium — mirroring the paper's observation
  that bid prices leak device class.

The ``geo_workload`` experiment contrasts auction outcomes on this
bundle geometry against size-matched uniform bundles: spatial correlation
concentrates supply on central segments and starves the periphery, which
is exactly the regime where the greedy winner-set stage earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.auction.instance import AuctionInstance
from repro.exceptions import InfeasibleError, ValidationError
from repro.mcs.tasks import TaskSet
from repro.mcs.workers import WorkerPool
from repro.tolerances import meets_demand
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["GeoCityConfig", "GeoMarket", "generate_geo_market"]


@dataclass(frozen=True)
class GeoCityConfig:
    """Parameters of the synthetic city and its commuter population.

    Attributes
    ----------
    rows, cols:
        Grid dimensions (intersections); the city has
        ``rows·(cols−1) + cols·(rows−1)`` road segments = tasks.
    n_commuters:
        Number of workers.
    device_quality_range:
        Range of the latent per-worker device quality, mapped directly to
        the mean sensing skill (values in (0.5, 1) keep everyone better
        than a coin flip, as real annotators are).
    skill_jitter:
        Std of per-(worker, segment) Gaussian jitter around the device
        quality.
    base_cost, cost_per_segment, device_premium:
        Cost model: ``base + per_segment·|route| + premium·quality``.
    error_threshold:
        Per-segment aggregation error bound δ.
    min_route_legs:
        Minimum Manhattan distance between a commuter's home and work;
        defaults to ``(rows + cols) // 2`` so routes are substantial
        corridors and even corner segments see traffic.
    """

    rows: int = 5
    cols: int = 6
    n_commuters: int = 250
    device_quality_range: tuple[float, float] = (0.55, 0.95)
    skill_jitter: float = 0.03
    base_cost: float = 2.0
    cost_per_segment: float = 1.5
    device_premium: float = 10.0
    error_threshold: float = 0.25
    min_route_legs: int | None = None

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValidationError("the grid needs at least 2x2 intersections")
        if self.n_commuters < 1:
            raise ValidationError("n_commuters must be positive")
        lo, hi = self.device_quality_range
        if not (0.5 < lo <= hi < 1.0):
            raise ValidationError("device_quality_range must lie in (0.5, 1)")
        if not (0.0 < self.error_threshold < 1.0):
            raise ValidationError("error_threshold must lie in (0, 1)")

    @property
    def n_segments(self) -> int:
        """Number of road segments (tasks)."""
        return self.rows * (self.cols - 1) + self.cols * (self.rows - 1)


@dataclass(frozen=True)
class GeoMarket:
    """A fully-instantiated geospatial market.

    Attributes
    ----------
    instance:
        The auction instance (truthful bids).
    pool:
        The worker population with private truth.
    tasks:
        The segments' hidden pothole labels and δ targets.
    segment_index:
        Mapping from grid edge (node pair) to task index, for callers
        that want to reason about the geometry.
    """

    instance: AuctionInstance
    pool: WorkerPool
    tasks: TaskSet
    segment_index: dict[tuple, int]


def _route_bundle(
    graph: nx.Graph,
    segment_index: dict[tuple, int],
    home,
    work,
) -> frozenset[int]:
    path = nx.shortest_path(graph, home, work, weight="weight")
    segments = set()
    for u, v in zip(path, path[1:]):
        key = (u, v) if (u, v) in segment_index else (v, u)
        segments.add(segment_index[key])
    return frozenset(segments)


def generate_geo_market(
    config: GeoCityConfig,
    seed: RngLike = None,
    *,
    price_grid: np.ndarray | None = None,
    c_min: float | None = None,
    c_max: float | None = None,
    max_retries: int = 20,
) -> GeoMarket:
    """Draw a geospatial market per the config.

    Parameters
    ----------
    config:
        City and population parameters.
    seed:
        Randomness source.
    price_grid, c_min, c_max:
        Market parameters; by default derived from the cost model's
        actual range (grid = 0.5-spaced lattice over the upper half of
        the cost range, mirroring Table I's [35, 60] ⊂ [10, 60]).
    max_retries:
        Redraws allowed when a draw leaves some segment uncoverable.

    Raises
    ------
    InfeasibleError
        When ``max_retries`` draws all leave an uncovered segment
        (the city is too big for the commuter population).
    """
    rng = ensure_rng(seed)
    graph = nx.grid_2d_graph(config.rows, config.cols)
    segment_index = {tuple(edge): idx for idx, edge in enumerate(graph.edges())}
    n_tasks = len(segment_index)

    for _ in range(int(max_retries)):
        nodes = list(graph.nodes())
        min_legs = config.min_route_legs
        if min_legs is None:
            min_legs = (config.rows + config.cols) // 2
        device = rng.uniform(*config.device_quality_range, size=config.n_commuters)
        bundles = []
        for _ in range(config.n_commuters):
            # Commuters travel real distances: resample until home and
            # work are at least min_legs apart (guaranteed to exist on
            # any grid with min_legs <= rows + cols - 2).
            while True:
                home, work = rng.choice(len(nodes), size=2, replace=False)
                manhattan = abs(nodes[home][0] - nodes[work][0]) + abs(
                    nodes[home][1] - nodes[work][1]
                )
                if manhattan >= min_legs:
                    break
            # Per-commuter jittered edge weights: drivers break the
            # many shortest-path ties of a grid differently, so every
            # corridor (not just one canonical staircase) sees traffic.
            for _u, _v, data in graph.edges(data=True):
                data["weight"] = 1.0 + float(rng.uniform(0, 0.2))
            bundles.append(
                _route_bundle(graph, segment_index, nodes[home], nodes[work])
            )
        skills = np.clip(
            device[:, None]
            + rng.normal(0.0, config.skill_jitter, size=(config.n_commuters, n_tasks)),
            0.5,
            0.999,
        )
        route_lengths = np.array([len(b) for b in bundles], dtype=float)
        costs = (
            config.base_cost
            + config.cost_per_segment * route_lengths
            + config.device_premium * (device - config.device_quality_range[0])
        ).round(1)

        low = float(costs.min()) if c_min is None else float(c_min)
        high = float(costs.max() * 1.2) if c_max is None else float(c_max)
        if price_grid is None:
            start = low + (high - low) / 2.0
            grid = np.round(np.arange(start, high + 0.25, 0.5), 10)
        else:
            grid = np.asarray(price_grid, dtype=float)

        pool = WorkerPool(skills=skills, bundles=tuple(bundles), costs=costs)
        tasks = TaskSet(
            true_labels=rng.choice((-1, 1), size=n_tasks),
            error_thresholds=np.full(n_tasks, config.error_threshold),
        )
        instance = pool.to_instance(
            error_thresholds=tasks.error_thresholds,
            price_grid=grid,
            c_min=low,
            c_max=high,
        )
        if meets_demand(instance.coverage(), instance.demands):
            return GeoMarket(
                instance=instance,
                pool=pool,
                tasks=tasks,
                segment_index=segment_index,
            )
    raise InfeasibleError(
        f"no feasible geo market in {max_retries} draws: "
        f"{config.n_commuters} commuters cannot cover all "
        f"{n_tasks} segments at delta={config.error_threshold}"
    )
