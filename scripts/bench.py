#!/usr/bin/env python
"""Benchmark-regression harness: time the hot paths, write BENCH_*.json.

Times three layers on pinned seeded workloads (see
``repro.bench.workloads``) and records machine-readable results so the
repository accumulates a performance trajectory across PRs:

* the greedy set-multicover kernels (vectorized vs the retained
  reference implementation), plus the ``10^5``-item scale suite (CELF
  lazy-sparse vs the dense kernel, with a hard refusal when a dense run
  is requested beyond its cell budget), the dense-vs-lazy break-even
  sweep behind the auto-dispatch density cutoff, and the chain
  break-even sweep behind the dense sweep's lockstep block size →
  ``BENCH_greedy.json``;
* ``DPHSRCAuction.price_pmf`` (full Algorithm 1 winner-set stage, both
  kernels, and the ``10^5``-worker auto-dispatch scenarios) and the
  :class:`~repro.bench.BatchAuctionRunner` serial / process backends
  over both instance transports (pickle and shared memory), each timed
  cold (its first run, which forks the shared worker pool) and warm,
  plus the ``ledger_throughput`` scenario — ``10^6`` privacy-budget charges
  through the in-memory, merged-snapshot, and append-only JSON-lines
  backends of :mod:`repro.privacy.budget` → ``BENCH_auction.json``.

Usage::

    PYTHONPATH=src python scripts/bench.py            # full pinned suite
    PYTHONPATH=src python scripts/bench.py --smoke    # CI-sized, seconds
    PYTHONPATH=src python scripts/bench.py --out-dir /tmp/bench
    PYTHONPATH=src python scripts/bench.py --smoke --trace bench-trace.jsonl

Every entry carries the workload's shape and seed; timings are
``best-of-repeats`` wall-clock seconds.  Correctness is asserted inline
(vectorized == reference selections, batched == serial outcomes, and —
since schema ``repro-bench/2`` — instrumented == uninstrumented PMFs) so
a benchmark run doubles as an integration check.

Schema ``repro-bench/2`` additionally embeds per-phase observability
metrics (see :mod:`repro.obs`): each timed entry carries a ``metrics``
object with span seconds per phase, counters, and the ledger's composed
ε from one instrumented pass run *outside* the timing loop, so the
headline timings remain recorder-free.  ``--trace PATH`` writes the
merged JSON-lines trace of those instrumented passes.

Reading a regression: compare ``seconds`` fields of the same ``name`` +
shape across commits (timings move with hardware; the ``speedup`` ratios
are the hardware-independent signal — see docs/USAGE.md §Performance).
The ``metrics.span_seconds`` breakdown localizes a regression to a phase
(price-set construction vs greedy covers vs exponential mechanism).

The ``compare`` subcommand automates exactly that reading as a CI gate::

    PYTHONPATH=src python scripts/bench.py compare OLD.json NEW.json \
        --max-regression 25 --report compare.json

Entries are matched by ``name`` + shape fields; every shared timing
field (``seconds`` / ``*_seconds``) is diffed, regressions past the
threshold are localized to span phases via the embedded
``metrics.span_seconds``, and the machine-readable report (schema
``repro-bench-compare/1``) is written to ``--report``.  Exit codes:
0 = within threshold (a self-compare is always 0), 1 = at least one
timing regressed past ``--max-regression`` percent, 2 = unusable input.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench import BENCH_SETTING, BatchAuctionRunner, seeded_auction_batch  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    seeded_cover_problem,
    seeded_sparse_cover_problem,
)
from repro.coverage import greedy as greedy_module  # noqa: E402
from repro.coverage.dispatch import use_lazy_kernel  # noqa: E402
from repro.coverage.greedy import greedy_cover, static_order_cover  # noqa: E402
from repro.coverage.lazy import lazy_sparse_greedy_cover  # noqa: E402
from repro.coverage.problem import CoverProblem  # noqa: E402
from repro.coverage.reference import (  # noqa: E402
    reference_greedy_cover,
    reference_static_order_cover,
)
from repro.engine import SweepEngine, build_plan, use_engine  # noqa: E402
from repro.engine.price_set import (  # noqa: E402
    feasible_price_set,
    group_prices_by_candidates,
)
from repro.mechanisms.baseline import BaselineAuction  # noqa: E402
from repro.mechanisms.dp_hsrc import DPHSRCAuction  # noqa: E402
from repro.obs import MetricsRecorder, PrivacyLedger, use_recorder  # noqa: E402
from repro.privacy.budget import (  # noqa: E402
    InMemoryBudgetStore,
    JsonlBudgetStore,
    use_budget_store,
)
from repro.utils.pool import shutdown_shared_pools  # noqa: E402
from repro.workloads import SETTING_I  # noqa: E402
from repro.workloads.generator import generate_instance  # noqa: E402

SCHEMA = "repro-bench/2"

#: Pinned greedy-kernel workloads: (n_items, n_constraints).
FULL_GREEDY_SHAPES = [(500, 30), (1000, 50), (2000, 50)]
SMOKE_GREEDY_SHAPES = [(60, 8), (120, 10)]

#: Pinned scale workloads (CSR-native, see seeded_sparse_cover_problem):
#: the many-subarea regime where the CELF kernel is the only practical
#: solver — density 0.008–0.04, covers in the hundreds.
FULL_SCALE_SHAPES = [(20_000, 500), (100_000, 1000)]
SMOKE_SCALE_SHAPES = [(5_000, 200)]

#: Dense-vs-lazy break-even sweep behind ``AUTO_SPARSE_MAX_DENSITY``:
#: single covers at the smallest item count auto-dispatch sends to the
#: lazy kernel and at a mid-size one, across densities around the cutoff
#: (stored entries per row = density x K).  Demands of 4 mean
#: contributions per constraint keep the 512-item shape coverable.
FULL_BREAK_EVEN_SHAPES = [(512, 200), (5_000, 200)]
SMOKE_BREAK_EVEN_SHAPES = [(512, 200)]
BREAK_EVEN_DENSITIES = (0.04, 0.05, 0.06, 0.08, 0.16)
BREAK_EVEN_DEMAND_ROWS = 4.0
#: Best-of repeats for the millisecond-scale break-even covers.
BREAK_EVEN_REPEATS = 9

#: Chain break-even sweep behind ``repro.coverage.greedy``'s block rule
#: (``_CHAIN_CELLS``, ``_CHAIN_MIN_RUNS``): one dense price sweep
#: (``build_plan``) on Setting I's own market, then on seeded markets of
#: growing N·K up to the 10^5-worker, K = 8 sweep, on both sides of the
#: rule's 24,576-cell edge.
FULL_CHAIN_SHAPES = [
    (500, 30), (500, 50), (1_000, 30), (1_000, 50), (2_000, 50), (10_000, 20), (100_000, 8),
]
SMOKE_CHAIN_SHAPES = [(500, 30)]

#: Pinned auction-scale scenarios: (n_workers, n_tasks).  The narrow
#: K=8 shape auto-dispatches to the dense kernel (density ~0.5); the
#: 200-subarea shape auto-dispatches to lazy-sparse (density ~0.02).
FULL_SCALE_AUCTIONS = [(100_000, 8), (20_000, 200)]
SMOKE_SCALE_AUCTIONS = [(2_000, 8)]

#: The dense kernel materializes (and rescans every step) the full
#: N x K gain matrix; past this many cells a dense scale run is refused
#: outright with an actionable message instead of grinding toward a
#: MemoryError.  5e7 cells = 400 MB of float64 gains plus the kernel's
#: working copies.
DENSE_SCALE_CELL_LIMIT = 50_000_000

WORKLOAD_SEED = 2016
MASTER_RUN_SEED = 7


def check_dense_scale(n_items: int, n_constraints: int) -> None:
    """Refuse a dense-kernel scale run that cannot realistically finish.

    Raises ``SystemExit`` with an actionable message — naming the
    ``--scale-solver lazy_sparse`` alternative — instead of letting the
    harness crawl into a raw ``MemoryError`` while allocating and
    rescanning the ``N x K`` dense gain matrix.
    """
    cells = n_items * n_constraints
    if cells > DENSE_SCALE_CELL_LIMIT:
        raise SystemExit(
            f"dense cover kernel refused at N={n_items:,}, K={n_constraints:,}: "
            f"{cells:,} gain cells exceed the dense budget of "
            f"{DENSE_SCALE_CELL_LIMIT:,} cells ({cells * 8 / 1e9:.1f} GB of "
            "float64 gains, rescanned on every greedy step). "
            "Re-run with --scale-solver lazy_sparse: the CELF kernel streams "
            "the CSR instance and never materializes the dense matrix."
        )


def best_of(fn, repeats: int) -> tuple[float, object]:
    """Best (minimum) wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def recorder_metrics(recorder: MetricsRecorder) -> dict:
    """The per-phase ``metrics`` object embedded in every v2 bench entry."""
    return {
        "span_seconds": recorder.span_seconds_by_kind(),
        "span_counts": recorder.span_counts_by_kind(),
        "counters": dict(sorted(recorder.counters.items())),
        "ledger_epsilon": recorder.ledger.total_epsilon,
        "ledger_entries": len(recorder.ledger.entries),
    }


def bench_greedy(shapes, repeats: int, ref_repeats: int, trace: MetricsRecorder) -> list[dict]:
    """Vectorized vs reference kernels on every pinned shape."""
    results = []
    for n_items, n_constraints in shapes:
        problem = seeded_cover_problem(n_items, n_constraints, seed=WORKLOAD_SEED)
        for name, fast, slow in (
            ("greedy_cover", greedy_cover, reference_greedy_cover),
            ("static_order_cover", static_order_cover, reference_static_order_cover),
        ):
            vec_s, vec = best_of(lambda f=fast: f(problem), repeats)
            ref_s, ref = best_of(lambda f=slow: f(problem), ref_repeats)
            if vec.order != ref.order:
                raise AssertionError(
                    f"{name} vectorized/reference divergence at N={n_items}, K={n_constraints}"
                )
            # One instrumented pass outside the timing loop: counters for
            # the v2 metrics block, plus the outcome-invariance check.
            # The bench wraps the bare kernel in its own span — standalone
            # cover calls have no price_pmf caller to time them.
            recorder = MetricsRecorder()
            with use_recorder(recorder):
                with recorder.span(
                    "greedy_group",
                    f"bench.{name}",
                    n_items=n_items,
                    n_constraints=n_constraints,
                ):
                    instrumented = fast(problem)
            if instrumented.order != vec.order:
                raise AssertionError(
                    f"{name} instrumented/uninstrumented divergence at "
                    f"N={n_items}, K={n_constraints}"
                )
            trace.merge(recorder)
            results.append(
                {
                    "name": name,
                    "n_items": n_items,
                    "n_constraints": n_constraints,
                    "seed": WORKLOAD_SEED,
                    "repeats": repeats,
                    "cover_size": vec.size,
                    "vectorized_seconds": vec_s,
                    "reference_seconds": ref_s,
                    "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
                    "match": True,
                    "metrics": recorder_metrics(recorder),
                }
            )
            print(
                f"  {name:>20} N={n_items:<5} K={n_constraints:<4} "
                f"|S|={vec.size:<4} vec={vec_s * 1e3:8.2f} ms "
                f"ref={ref_s * 1e3:9.2f} ms speedup={ref_s / vec_s:6.1f}x"
            )
    return results


def bench_greedy_scale(
    shapes, scale_solver: str, repeats: int, trace: MetricsRecorder
) -> list[dict]:
    """CELF lazy-sparse kernel on CSR-native ``10^5``-item workloads.

    The headline timing is always the lazy kernel on the CSR instance.
    Where the shape fits the dense cell budget the densified problem is
    also solved once and the two selections are asserted bit-identical;
    beyond the budget the entry records the refusal message instead
    (``--scale-solver dense`` turns that refusal into a hard exit).
    """
    results = []
    for n_items, n_constraints in shapes:
        if scale_solver == "dense":
            check_dense_scale(n_items, n_constraints)
        problem = seeded_sparse_cover_problem(n_items, n_constraints, seed=WORKLOAD_SEED)
        # One repeat at 10^5 items: a single solve is seconds, and
        # best-of only sharpens sub-millisecond noise.
        scale_repeats = repeats if n_items < 50_000 else 1
        lazy_s, lazy = best_of(lambda: lazy_sparse_greedy_cover(problem), scale_repeats)
        entry = {
            "name": "lazy_sparse_greedy_cover",
            "n_items": n_items,
            "n_constraints": n_constraints,
            "nnz": problem.nnz,
            "density": problem.density,
            "seed": WORKLOAD_SEED,
            "repeats": scale_repeats,
            "cover_size": lazy.size,
            "lazy_sparse_seconds": lazy_s,
        }
        cells = n_items * n_constraints
        if cells <= DENSE_SCALE_CELL_LIMIT:
            dense_s, dense = best_of(lambda: greedy_cover(problem.to_problem()), 1)
            if dense.order != lazy.order:
                raise AssertionError(
                    f"lazy/dense divergence at N={n_items}, K={n_constraints}"
                )
            entry["dense_seconds"] = dense_s
            entry["speedup"] = dense_s / lazy_s if lazy_s > 0 else float("inf")
            entry["match"] = True
            comparison = (
                f"dense={dense_s * 1e3:9.2f} ms speedup={entry['speedup']:6.1f}x"
            )
        else:
            try:
                check_dense_scale(n_items, n_constraints)
            except SystemExit as refusal:
                entry["dense_status"] = f"refused: {refusal}"
            comparison = "dense=refused (beyond cell budget)"
        # Instrumented pass outside the timing loop: CELF's
        # calls/iterations/evaluations counters for the v2 metrics
        # block, plus the outcome-invariance check.
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            with recorder.span(
                "greedy_scale",
                "bench.lazy_sparse_greedy_cover",
                n_items=n_items,
                n_constraints=n_constraints,
            ):
                instrumented = lazy_sparse_greedy_cover(problem)
        if instrumented.order != lazy.order:
            raise AssertionError(
                f"lazy kernel instrumented/uninstrumented divergence at "
                f"N={n_items}, K={n_constraints}"
            )
        trace.merge(recorder)
        entry["metrics"] = recorder_metrics(recorder)
        results.append(entry)
        print(
            f"  {'lazy_sparse':>20} N={n_items:<6} K={n_constraints:<4} "
            f"|S|={lazy.size:<4} lazy={lazy_s * 1e3:8.2f} ms {comparison}"
        )
    return results


def bench_dispatch_break_even(shapes, trace: MetricsRecorder) -> list[dict]:
    """Dense vs lazy single covers across densities near the dispatch cutoff.

    ``speedup`` above 1 means the lazy kernel wins; the selections are
    asserted identical.  These entries are the measurements behind
    ``repro.coverage.dispatch.AUTO_SPARSE_MAX_DENSITY``.
    """
    results = []
    for n_items, n_constraints in shapes:
        for density in BREAK_EVEN_DENSITIES:
            row_nnz = round(density * n_constraints)
            sparse = seeded_sparse_cover_problem(
                n_items,
                n_constraints,
                seed=WORKLOAD_SEED,
                row_nnz=row_nnz,
                demand_rows=BREAK_EVEN_DEMAND_ROWS,
            )
            problem = sparse.to_problem()
            dense_s, dense = best_of(lambda: greedy_cover(problem), BREAK_EVEN_REPEATS)
            lazy_s, lazy = best_of(lambda: lazy_sparse_greedy_cover(problem), BREAK_EVEN_REPEATS)
            if dense.order != lazy.order:
                raise AssertionError(
                    f"lazy/dense divergence at N={n_items}, K={n_constraints}, "
                    f"{row_nnz} entries per row"
                )
            recorder = MetricsRecorder()
            with use_recorder(recorder):
                with recorder.span(
                    "greedy_scale",
                    "bench.dispatch_break_even",
                    n_items=n_items,
                    n_constraints=n_constraints,
                ):
                    lazy_sparse_greedy_cover(problem)
            trace.merge(recorder)
            speedup = dense_s / lazy_s if lazy_s > 0 else float("inf")
            results.append(
                {
                    "name": "dispatch_break_even",
                    "n_items": n_items,
                    "n_constraints": n_constraints,
                    "row_nnz": row_nnz,
                    "density": sparse.density,
                    "seed": WORKLOAD_SEED,
                    "repeats": BREAK_EVEN_REPEATS,
                    "cover_size": lazy.size,
                    "dense_seconds": dense_s,
                    "lazy_sparse_seconds": lazy_s,
                    "speedup": speedup,
                    "match": True,
                    "metrics": recorder_metrics(recorder),
                }
            )
            print(
                f"  {'dispatch_break_even':>20} N={n_items:<6} K={n_constraints:<4} "
                f"density={sparse.density:.3f} dense={dense_s * 1e3:8.2f} ms "
                f"lazy={lazy_s * 1e3:8.2f} ms speedup={speedup:5.2f}x"
            )
    return results


def bench_chain_break_even(smoke: bool, repeats: int, trace: MetricsRecorder) -> list[dict]:
    """Dense price sweeps: lockstep chain blocks vs one group per block.

    Times ``build_plan`` with the dense kernel on each market twice: with
    ``runs_per_block`` nested groups advancing together and with one
    group per block, each resuming from the previous group's run.
    ``runs_per_block`` is the default rule's block size where that holds
    more than one group; where the default gives one group per block, the
    sweep times as many groups as ``_CHAIN_CELLS`` alone would put in a
    block (at least two) instead, the side of the rule where blocks lose.
    ``speedup`` above 1 means the blocks win; the plans are asserted
    identical.  These entries are the measurements behind
    ``repro.coverage.greedy._CHAIN_CELLS`` and ``_CHAIN_MIN_RUNS``.
    """
    markets = [generate_instance(SETTING_I, seed=WORKLOAD_SEED)[0]]
    for n_workers, n_tasks in SMOKE_CHAIN_SHAPES if smoke else FULL_CHAIN_SHAPES:
        markets += seeded_auction_batch(
            1, n_workers=n_workers, n_tasks=n_tasks, seed=WORKLOAD_SEED
        )
    results = []
    for instance in markets:
        prices = feasible_price_set(instance)
        grouping = (prices, group_prices_by_candidates(instance, prices))
        n_groups = len(grouping[1])
        cells = instance.n_workers * instance.n_tasks
        default_runs = min(
            n_groups, greedy_module._runs_per_block(instance.n_workers, instance.n_tasks)
        )
        budget_runs = max(2, greedy_module._CHAIN_CELLS // cells)
        runs_per_block = default_runs if default_runs > 1 else min(n_groups, budget_runs)

        def sweep(per_block):
            with mock.patch.object(greedy_module, "_CHAIN_CELLS", per_block * cells), \
                    mock.patch.object(greedy_module, "_CHAIN_MIN_RUNS", 1):
                return build_plan(instance, greedy_cover, grouping=grouping)

        chain_s, plan = best_of(lambda: sweep(runs_per_block), repeats)
        single_s, single = best_of(lambda: sweep(1), repeats)
        if not all(
            np.array_equal(a, b)
            for a, b in zip(plan.group_selections, single.group_selections)
        ):
            raise AssertionError(
                f"chain blocks changed the plan at N={instance.n_workers}, "
                f"K={instance.n_tasks}"
            )
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            sweep(runs_per_block)
        trace.merge(recorder)
        speedup = single_s / chain_s if chain_s > 0 else float("inf")
        results.append(
            {
                "name": "chain_break_even",
                "n_workers": instance.n_workers,
                "n_tasks": instance.n_tasks,
                "seed": WORKLOAD_SEED,
                "repeats": repeats,
                "n_groups": n_groups,
                "cells": cells,
                "default_runs_per_block": default_runs,
                "runs_per_block": runs_per_block,
                "chain_seconds": chain_s,
                "one_per_block_seconds": single_s,
                "speedup": speedup,
                "match": True,
                "metrics": recorder_metrics(recorder),
            }
        )
        print(
            f"  {'chain_break_even':>20} N={instance.n_workers:<6} K={instance.n_tasks:<4} "
            f"groups={n_groups:<3} S={runs_per_block:<3} (default {default_runs:<3}) "
            f"chain={chain_s * 1e3:8.2f} ms one-per-block={single_s * 1e3:8.2f} ms "
            f"speedup={speedup:5.2f}x"
        )
    return results


def bench_price_pmf(smoke: bool, repeats: int, trace: MetricsRecorder) -> list[dict]:
    """Full Algorithm 1 winner-set stage, vectorized and reference kernels."""
    results = []
    configs = [(60, 10)] if smoke else [(200, 20), (500, 30)]
    for n_workers, n_tasks in configs:
        [instance] = seeded_auction_batch(
            1, n_workers=n_workers, n_tasks=n_tasks, seed=WORKLOAD_SEED
        )
        vec_mech = DPHSRCAuction(epsilon=BENCH_SETTING.epsilon)
        ref_mech = DPHSRCAuction(
            epsilon=BENCH_SETTING.epsilon, cover_solver=reference_greedy_cover
        )
        vec_s, vec_pmf = best_of(lambda: vec_mech.price_pmf(instance), repeats)
        ref_s, ref_pmf = best_of(lambda: ref_mech.price_pmf(instance), max(1, repeats // 2))
        match = all(
            np.array_equal(a, b)
            for a, b in zip(vec_pmf.winner_sets, ref_pmf.winner_sets)
        )
        if not match:
            raise AssertionError("price_pmf winner sets diverged between kernels")
        # Instrumented pass outside the timing loop: the per-phase
        # breakdown for the v2 metrics block.  The PMF must stay
        # bit-identical to the recorder-free run (outcome invariance).
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            obs_pmf = vec_mech.price_pmf(instance)
        if not (
            np.array_equal(obs_pmf.probabilities, vec_pmf.probabilities)
            and all(
                np.array_equal(a, b)
                for a, b in zip(obs_pmf.winner_sets, vec_pmf.winner_sets)
            )
        ):
            raise AssertionError("price_pmf diverged with a recorder installed")
        trace.merge(recorder)
        # Greedy steps executed vs reused from the previous nested group.
        executed = int(recorder.counters.get("greedy.iterations", 0))
        reused = int(recorder.counters.get("greedy.reused_steps", 0))
        results.append(
            {
                "name": "price_pmf",
                "n_workers": n_workers,
                "n_tasks": n_tasks,
                "seed": WORKLOAD_SEED,
                "repeats": repeats,
                "support_size": vec_pmf.support_size,
                "mean_cover_size": float(np.mean(vec_pmf.cover_sizes)),
                "greedy_iterations": executed,
                "greedy_reused_steps": reused,
                "vectorized_seconds": vec_s,
                "reference_seconds": ref_s,
                "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
                "match": True,
                "metrics": recorder_metrics(recorder),
            }
        )
        print(
            f"  {'price_pmf':>20} N={n_workers:<5} K={n_tasks:<4} "
            f"|P|={vec_pmf.support_size:<4} vec={vec_s * 1e3:8.2f} ms "
            f"ref={ref_s * 1e3:9.2f} ms speedup={ref_s / vec_s:6.1f}x "
            f"steps={executed}+{reused} reused"
        )
    return results


def bench_price_pmf_scale(smoke: bool, repeats: int, trace: MetricsRecorder) -> list[dict]:
    """Full Algorithm 1 at ``10^5`` workers under kernel auto-dispatch.

    The headline timing runs ``cover_solver="auto"``; the entry records
    which kernel the dispatcher picked and cross-checks the *other*
    kernel once, asserting the PMF (probabilities and winner sets) is
    bit-identical — dispatch is a pure performance decision.
    """
    results = []
    configs = SMOKE_SCALE_AUCTIONS if smoke else FULL_SCALE_AUCTIONS
    for n_workers, n_tasks in configs:
        [instance] = seeded_auction_batch(
            1, n_workers=n_workers, n_tasks=n_tasks, seed=WORKLOAD_SEED
        )
        picked_lazy = use_lazy_kernel(
            CoverProblem(gains=instance.effective_quality, demands=instance.demands)
        )
        auto_mech = DPHSRCAuction(epsilon=BENCH_SETTING.epsilon)
        alt_name = "dense" if picked_lazy else "lazy_sparse"
        alt_mech = DPHSRCAuction(epsilon=BENCH_SETTING.epsilon, cover_solver=alt_name)
        scale_repeats = repeats if n_workers < 50_000 else 1
        auto_s, auto_pmf = best_of(lambda: auto_mech.price_pmf(instance), scale_repeats)
        alt_s, alt_pmf = best_of(lambda: alt_mech.price_pmf(instance), 1)
        if not (
            np.array_equal(auto_pmf.probabilities, alt_pmf.probabilities)
            and all(
                np.array_equal(a, b)
                for a, b in zip(auto_pmf.winner_sets, alt_pmf.winner_sets)
            )
        ):
            raise AssertionError(
                f"price_pmf kernels diverged at N={n_workers}, K={n_tasks}"
            )
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            obs_pmf = auto_mech.price_pmf(instance)
        if not np.array_equal(obs_pmf.probabilities, auto_pmf.probabilities):
            raise AssertionError("scale price_pmf diverged with a recorder installed")
        trace.merge(recorder)
        results.append(
            {
                "name": "price_pmf_scale",
                "n_workers": n_workers,
                "n_tasks": n_tasks,
                "seed": WORKLOAD_SEED,
                "repeats": scale_repeats,
                "dispatch": "lazy_sparse" if picked_lazy else "dense",
                "support_size": auto_pmf.support_size,
                "mean_cover_size": float(np.mean(auto_pmf.cover_sizes)),
                "auto_seconds": auto_s,
                "alt_kernel": alt_name,
                "alt_seconds": alt_s,
                "match": True,
                "metrics": recorder_metrics(recorder),
            }
        )
        print(
            f"  {'price_pmf_scale':>20} N={n_workers:<6} K={n_tasks:<4} "
            f"auto[{results[-1]['dispatch']}]={auto_s * 1e3:8.2f} ms "
            f"{alt_name}={alt_s * 1e3:9.2f} ms match=True"
        )
    return results


def bench_multi_mechanism(smoke: bool, repeats: int, trace: MetricsRecorder) -> list[dict]:
    """N mechanisms on one instance: pass-through vs shared SweepEngine.

    The head-to-head experiment shape (three ε values of DP-hSRC plus the
    §VII-A baseline evaluating one instance) is exactly what the plan
    cache exists for: the three DP auctions share one greedy sweep plan
    and the baseline reuses its price grouping.  Timed both ways; the
    PMFs are asserted bit-identical, so the speedup is pure reuse.
    """
    n_workers, n_tasks = (60, 10) if smoke else (300, 25)
    [instance] = seeded_auction_batch(
        1, n_workers=n_workers, n_tasks=n_tasks, seed=WORKLOAD_SEED
    )
    mechanisms = [
        DPHSRCAuction(epsilon=0.1),
        DPHSRCAuction(epsilon=0.5),
        DPHSRCAuction(epsilon=BENCH_SETTING.epsilon),
        BaselineAuction(epsilon=BENCH_SETTING.epsilon),
    ]

    def run_all():
        return [m.price_pmf(instance) for m in mechanisms]

    def run_all_shared():
        with use_engine(SweepEngine()):
            return run_all()

    plain_s, plain_pmfs = best_of(run_all, repeats)
    shared_s, shared_pmfs = best_of(run_all_shared, repeats)
    for a, b in zip(plain_pmfs, shared_pmfs):
        if not (
            np.array_equal(a.probabilities, b.probabilities)
            and all(np.array_equal(x, y) for x, y in zip(a.winner_sets, b.winner_sets))
        ):
            raise AssertionError("shared-engine PMFs diverged from pass-through")
    # Instrumented shared pass outside the timing loop: cache accounting
    # for the v2 metrics block (3 greedy-plan sharers → 2 plan hits).
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        obs_pmfs = run_all_shared()
    for a, b in zip(plain_pmfs, obs_pmfs):
        if not np.array_equal(a.probabilities, b.probabilities):
            raise AssertionError("multi-mechanism PMFs diverged with a recorder")
    trace.merge(recorder)
    speedup = plain_s / shared_s if shared_s > 0 else float("inf")
    print(
        f"  {'multi_mechanism':>20} N={n_workers:<5} K={n_tasks:<4} "
        f"M={len(mechanisms):<3} plain={plain_s * 1e3:8.2f} ms "
        f"shared={shared_s * 1e3:7.2f} ms speedup={speedup:6.1f}x"
    )
    return [
        {
            "name": "multi_mechanism",
            "n_workers": n_workers,
            "n_tasks": n_tasks,
            "n_mechanisms": len(mechanisms),
            "seed": WORKLOAD_SEED,
            "repeats": repeats,
            "pass_through_seconds": plain_s,
            "shared_engine_seconds": shared_s,
            "speedup": speedup,
            "plan_hits": recorder.counters.get("engine.plan.hits", 0.0),
            "plan_misses": recorder.counters.get("engine.plan.misses", 0.0),
            "grouping_hits": recorder.counters.get("engine.grouping.hits", 0.0),
            "match": True,
            "metrics": recorder_metrics(recorder),
        }
    ]


def bench_batch_runner(smoke: bool, repeats: int, trace: MetricsRecorder) -> list[dict]:
    """Serial vs process-pool batch execution, cold and warm; asserts identical outcomes.

    Process batches run on the shared worker pools of
    :mod:`repro.utils.pool`, which outlive a batch, so each configuration
    runs once cold and then ``repeats`` times warm: ``cold_seconds`` is the
    first run and ``seconds`` the best warm one.  The pools are shut down
    first, so the cold run at each width includes forking its pool; the
    shared-memory entry runs on the width-2 pool that the pickle entry
    already warmed.  The timed runs stay recorder-free; an instrumented
    serial pass and instrumented 2-worker pooled passes (both
    transports) then assert that (a) outcomes match the recorder-free
    run bit-for-bit and (b) the deterministically merged counters are
    identical across backends and transports.
    """
    n_instances = 8 if smoke else 32
    n_workers = 40 if smoke else 80
    batch = seeded_auction_batch(
        n_instances, n_workers=n_workers, n_tasks=10, seed=WORKLOAD_SEED
    )
    mechanism = DPHSRCAuction(epsilon=BENCH_SETTING.epsilon)
    configs = (
        [("serial", "pickle", 1)]
        + [("process", "pickle", workers) for workers in ((2,) if smoke else (2, 4))]
        + [("process", "shared_memory", 2)]
    )

    def same_outcomes(left, right) -> bool:
        return all(
            a.price == b.price and np.array_equal(a.winners, b.winners)
            for a, b in zip(left.outcomes, right.outcomes)
        )

    shutdown_shared_pools()
    serial = None
    timed = []
    for backend, transport, workers in configs:
        runner = BatchAuctionRunner(
            mechanism, backend=backend, max_workers=workers, transport=transport
        )
        runs = [runner.run(batch, seed=MASTER_RUN_SEED) for _ in range(1 + max(1, repeats))]
        serial = serial or runs[0]
        if not all(same_outcomes(serial, run) for run in runs):
            raise AssertionError(
                f"batched ({backend}:{workers}, {transport}) and serial outcomes diverged"
            )
        timed.append((backend, transport, workers, runs))

    # Instrumented passes (outside the timing loop): outcomes unchanged by
    # the recorder, merged counters identical across backends/transports.
    recorders = {}
    for backend, transport in (
        ("serial", "pickle"), ("process", "pickle"), ("process", "shared_memory")
    ):
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            instrumented = BatchAuctionRunner(
                mechanism, backend=backend, max_workers=2, transport=transport
            ).run(batch, seed=MASTER_RUN_SEED)
        if not same_outcomes(serial, instrumented):
            raise AssertionError(
                f"batch outcomes diverged with a recorder installed ({backend}, {transport})"
            )
        recorders[backend, transport] = recorder
    serial_rec = recorders["serial", "pickle"]
    for key, recorder in recorders.items():
        if recorder.counters != serial_rec.counters:
            raise AssertionError(f"merged batch counters diverged ({key})")
    trace.merge(serial_rec)

    results = []
    for backend, transport, workers, runs in timed:
        cold = runs[0].wall_time
        warm = min(run.wall_time for run in runs[1:])
        entry = {
            "name": "batch_runner",
            "backend": backend,
            "transport": transport,
            "n_instances": n_instances,
            "n_workers_per_instance": n_workers,
            "max_workers": workers,
            "seed": MASTER_RUN_SEED,
            "seconds": warm,
            "cold_seconds": cold,
            "mean_winners": float(np.mean([o.n_winners for o in runs[0].outcomes])),
            "identical_to_serial": True,
            "metrics": recorder_metrics(recorders[backend, transport]),
        }
        if backend == "process":
            entry["metrics_identical_to_serial"] = True
        results.append(entry)
        label = f"{backend}:{workers}" if backend == "process" else backend
        print(
            f"  {'batch_runner':>20} B={n_instances:<4} backend={label:<9} "
            f"{transport:<13} cold {cold * 1e3:8.2f} ms  warm {warm * 1e3:8.2f} ms "
            f"identical=True"
        )
    return results


def bench_ledger_throughput(smoke: bool, trace: MetricsRecorder) -> list[dict]:
    """Budget-store hot path: ``10^6`` charges across three backends.

    Times the same pinned multi-tenant charge stream through the sharded
    in-memory store charged serially, per-tenant local stores merged via
    ``merge_snapshot`` (the shape a fan-out would produce), and the
    append-only JSON-lines journal with batched fsync.  All three must
    land on bit-identical account snapshots, so the timings measure pure
    backend overhead.  Targets: >= 1e5 records/s in-memory, the journal
    within 5x of in-memory.
    """
    import tempfile

    n_records = 20_000 if smoke else 1_000_000
    n_tenants = 32
    fsync_every = 10_000
    tenants = [f"tenant-{i:02d}" for i in range(n_tenants)]
    rng = np.random.default_rng(WORKLOAD_SEED)
    epsilons = rng.uniform(1e-4, 1e-2, size=n_records).tolist()
    parallel = (rng.random(n_records) < 0.25).tolist()

    def charge_stream(store, indices):
        charge = store.charge
        for i in indices:
            charge(
                tenants[i % n_tenants],
                "default",
                mechanism="bench",
                epsilon=epsilons[i],
                parallel=parallel[i],
            )

    start = time.perf_counter()
    memory = InMemoryBudgetStore()
    charge_stream(memory, range(n_records))
    memory_s = time.perf_counter() - start

    # Per-tenant slices into local stores, merged at the end: every
    # account's charges stay in one slice, so the merge must reproduce
    # the serial composition bit-exactly.
    start = time.perf_counter()
    merged = InMemoryBudgetStore()
    for offset in range(n_tenants):
        local = InMemoryBudgetStore()
        charge_stream(local, range(offset, n_records, n_tenants))
        merged.merge_snapshot(local.snapshot())
    merged_s = time.perf_counter() - start
    if merged.snapshot() != memory.snapshot():
        raise AssertionError("merged per-tenant stores diverged from the serial run")

    with tempfile.TemporaryDirectory() as scratch:
        journal = JsonlBudgetStore(
            Path(scratch) / "budget.jsonl", fsync_every=fsync_every
        )
        start = time.perf_counter()
        charge_stream(journal, range(n_records))
        journal.flush()
        journal_s = time.perf_counter() - start
        if journal.snapshot() != memory.snapshot():
            raise AssertionError("journal store diverged from the in-memory run")
        journal.close()

    # Instrumented pass outside the timing loops: a slice of the same
    # stream routed through PrivacyLedger.record, so the metrics block
    # covers the full ledger -> ambient-store forwarding path the
    # mechanisms actually exercise.
    recorder = MetricsRecorder()
    sample = min(n_records, 5_000)
    with use_recorder(recorder), use_budget_store(InMemoryBudgetStore()):
        with recorder.span(
            "ledger_throughput", "bench.ledger_forwarding", n_records=sample
        ):
            for i in range(sample):
                recorder.ledger.record(
                    "bench",
                    epsilon=epsilons[i],
                    sensitivity=1.0,
                    parallel=parallel[i],
                )
                recorder.count("ledger.records_forwarded")
    trace.merge(recorder)

    entry = {
        "name": "ledger_throughput",
        "n_records": n_records,
        "n_tenants": n_tenants,
        "seed": WORKLOAD_SEED,
        "fsync_every": fsync_every,
        "in_memory_seconds": memory_s,
        "in_memory_records_per_second": n_records / memory_s,
        "merged_seconds": merged_s,
        "jsonl_seconds": journal_s,
        "jsonl_records_per_second": n_records / journal_s,
        "jsonl_slowdown": journal_s / memory_s,
        "match": True,
        "metrics": recorder_metrics(recorder),
    }
    print(
        f"  {'ledger_throughput':>20} R={n_records:<8} "
        f"mem={n_records / memory_s / 1e3:7.0f}k/s "
        f"merged={n_records / merged_s / 1e3:6.0f}k/s "
        f"jsonl={n_records / journal_s / 1e3:6.0f}k/s "
        f"slowdown={journal_s / memory_s:4.1f}x"
    )
    return [entry]


def bench_online_throughput(smoke: bool, trace: MetricsRecorder) -> list[dict]:
    """Streaming mechanism hot path: arrivals/sec at ``10^5``-worker streams.

    Times :class:`~repro.mechanisms.online.OnlineThresholdMechanism` over
    a pinned uniform arrival stream twice — serial (no persistence) and
    with stage-boundary checkpointing to a scratch file — and asserts the
    two outcomes are bit-identical, so the delta is pure checkpoint
    overhead.  The headline figure is ``serial_arrivals_per_second``;
    ``checkpoint_overhead`` (a ratio) is the hardware-independent signal
    for the persistence cost.
    """
    import tempfile

    from repro.mechanisms.online import OnlineThresholdMechanism, run_checkpointed
    from repro.workloads.streams import OnlineArrivalStream

    n_workers, n_tasks = (5_000, 8) if smoke else (100_000, 8)
    n_stages = 4
    repeats = 3 if smoke else 2
    [instance] = seeded_auction_batch(
        1, n_workers=n_workers, n_tasks=n_tasks, seed=WORKLOAD_SEED
    )
    budget = 0.25 * n_workers
    stream = OnlineArrivalStream(instance, order="uniform", seed=WORKLOAD_SEED)
    mechanism = OnlineThresholdMechanism(budget=budget, n_stages=n_stages)

    serial_s, serial_outcome = best_of(lambda: mechanism.run(stream), repeats)

    with tempfile.TemporaryDirectory() as scratch:
        ckpt_path = Path(scratch) / "online.jsonl"

        def checkpointed():
            # Fresh file each repeat: time a full checkpointed run, not a
            # resume of the previous repeat's completed file.
            ckpt_path.unlink(missing_ok=True)
            return run_checkpointed(mechanism, stream, ckpt_path)

        ckpt_s, ckpt_outcome = best_of(checkpointed, repeats)
    if ckpt_outcome != serial_outcome:
        raise AssertionError(
            f"checkpointed online run diverged from serial at N={n_workers}"
        )

    recorder = MetricsRecorder()
    with use_recorder(recorder):
        obs_outcome = mechanism.run(stream)
    if obs_outcome != serial_outcome:
        raise AssertionError("online run diverged with a recorder installed")
    trace.merge(recorder)

    entry = {
        "name": "online_throughput",
        "n_workers": n_workers,
        "n_tasks": n_tasks,
        "n_stages": n_stages,
        "seed": WORKLOAD_SEED,
        "repeats": repeats,
        "budget": budget,
        "n_winners": serial_outcome.n_winners,
        "serial_seconds": serial_s,
        "serial_arrivals_per_second": stream.n_arrivals / serial_s,
        "checkpointed_seconds": ckpt_s,
        "checkpointed_arrivals_per_second": stream.n_arrivals / ckpt_s,
        "checkpoint_overhead": ckpt_s / serial_s,
        "match": True,
        "metrics": recorder_metrics(recorder),
    }
    print(
        f"  {'online_throughput':>20} N={n_workers:<6} S={n_stages} "
        f"serial={stream.n_arrivals / serial_s / 1e3:7.0f}k/s "
        f"ckpt={stream.n_arrivals / ckpt_s / 1e3:7.0f}k/s "
        f"overhead={ckpt_s / serial_s:4.2f}x"
    )
    return [entry]


def bench_campaign_throughput(smoke: bool, trace: MetricsRecorder) -> list[dict]:
    """Campaign grid orchestration: fresh run vs checkpoint replay.

    Runs the 4-cell ``smoke`` preset campaign end-to-end in a scratch
    directory, then re-runs the same directory (every cell replays from
    the checkpoint — the resume hot path), and asserts the replayed
    report is byte-identical to the fresh one.  ``replay_speedup``
    (fresh/replay seconds) is the hardware-independent signal that
    resume is actually skipping cell work; ``cells_per_second`` is the
    headline orchestration cost.
    """
    import shutil
    import tempfile

    from repro.campaign import CampaignRunner, build_preset, build_report, report_json

    spec = build_preset("smoke", fast=True)
    repeats = 2 if smoke else 3

    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)

        def fresh():
            directory = base / "fresh"
            shutil.rmtree(directory, ignore_errors=True)
            return CampaignRunner(spec, directory).run()

        fresh_s, fresh_payloads = best_of(fresh, repeats)
        fresh_report = report_json(build_report(spec, fresh_payloads))

        # Replay: same directory, fully-checkpointed — no cell re-runs.
        replay_dir = base / "replay"
        CampaignRunner(spec, replay_dir).run()
        replay_s, replay_payloads = best_of(
            lambda: CampaignRunner(spec, replay_dir).run(), repeats
        )
        replay_report = report_json(build_report(spec, replay_payloads))
    if replay_report != fresh_report:
        raise AssertionError("replayed campaign report diverged from fresh run")

    recorder = MetricsRecorder()
    with use_recorder(recorder):
        with tempfile.TemporaryDirectory() as scratch:
            obs_payloads = CampaignRunner(spec, Path(scratch) / "obs").run()
    if report_json(build_report(spec, obs_payloads)) != fresh_report:
        raise AssertionError("campaign run diverged with a recorder installed")
    trace.merge(recorder)

    entry = {
        "name": "campaign_throughput",
        "preset": "smoke",
        "n_cells": spec.n_cells,
        "seed": spec.seed,
        "repeats": repeats,
        "fresh_seconds": fresh_s,
        "cells_per_second": spec.n_cells / fresh_s,
        "replay_seconds": replay_s,
        "replay_speedup": fresh_s / replay_s,
        "match": True,
        "metrics": recorder_metrics(recorder),
    }
    print(
        f"  {'campaign_throughput':>20} cells={spec.n_cells} "
        f"fresh={fresh_s:6.2f}s replay={replay_s * 1e3:6.1f}ms "
        f"speedup={fresh_s / replay_s:5.1f}x"
    )
    return [entry]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# ``compare`` subcommand: the bench regression gate.

COMPARE_SCHEMA = "repro-bench-compare/1"

#: Fields that identify a benchmark entry (together with ``name``).
#: Matching on shape keeps a smoke-vs-full comparison honest: entries
#: with different workload sizes simply never pair up.
SHAPE_FIELDS = (
    "backend",
    "transport",
    "n_items",
    "n_constraints",
    "n_workers",
    "n_tasks",
    "n_workers_per_instance",
    "n_instances",
    "max_workers",
    "n_mechanisms",
    "n_records",
    "n_tenants",
    "n_stages",
    "seed",
    "dispatch",
    "alt_kernel",
    "row_nnz",
)


class BenchCompareError(Exception):
    """An input file the comparator cannot use (exit code 2)."""


def _is_timing_field(key: str) -> bool:
    return key == "seconds" or key.endswith("_seconds")


def _entry_identity(entry: dict) -> dict:
    identity = {"name": entry.get("name", "?")}
    for field in SHAPE_FIELDS:
        if field in entry:
            identity[field] = entry[field]
    return identity


def _entry_key(entry: dict) -> tuple:
    return tuple(sorted(_entry_identity(entry).items()))


def load_bench_doc(path) -> dict:
    """Load one ``BENCH_*.json`` document, rejecting anything else."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchCompareError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchCompareError(f"{path} is not valid JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if not isinstance(schema, str) or not schema.startswith("repro-bench/"):
        raise BenchCompareError(
            f"{path} is not a repro-bench document (schema={schema!r})"
        )
    if not isinstance(doc.get("results"), list):
        raise BenchCompareError(f"{path} has no 'results' list")
    return doc


def _phase_deltas(old_entry: dict, new_entry: dict) -> list[dict]:
    """Per-span-kind seconds deltas, largest slowdown first.

    This is what localizes a headline regression: a jump confined to the
    ``exp_mech`` phase points at the exponential-mechanism sampler, not
    the greedy covers.  Entries predating schema v2 have no ``metrics``
    block and yield an empty localization.
    """
    old_phases = (old_entry.get("metrics") or {}).get("span_seconds") or {}
    new_phases = (new_entry.get("metrics") or {}).get("span_seconds") or {}
    deltas = []
    for kind in sorted(set(old_phases) | set(new_phases)):
        old_s = float(old_phases.get(kind, 0.0))
        new_s = float(new_phases.get(kind, 0.0))
        deltas.append(
            {
                "phase": kind,
                "old_seconds": old_s,
                "new_seconds": new_s,
                "delta_seconds": new_s - old_s,
            }
        )
    deltas.sort(key=lambda d: -d["delta_seconds"])
    return deltas


def compare_bench_docs(old_doc: dict, new_doc: dict, max_regression_pct: float) -> dict:
    """Diff two bench documents into a ``repro-bench-compare/1`` report."""
    old_index = {_entry_key(e): e for e in old_doc["results"] if isinstance(e, dict)}
    new_index = {_entry_key(e): e for e in new_doc["results"] if isinstance(e, dict)}
    comparisons: list[dict] = []
    regressions: list[dict] = []
    for key, new_entry in new_index.items():
        old_entry = old_index.get(key)
        if old_entry is None:
            continue
        identity = _entry_identity(new_entry)
        shared = sorted(
            k
            for k in new_entry
            if _is_timing_field(k) and k in old_entry
        )
        for field in shared:
            old_s = float(old_entry[field])
            new_s = float(new_entry[field])
            if old_s > 0:
                delta_pct = (new_s - old_s) / old_s * 100.0
            else:
                delta_pct = float("inf") if new_s > 0 else 0.0
            record = {
                "entry": identity,
                "field": field,
                "old_seconds": old_s,
                "new_seconds": new_s,
                "delta_pct": delta_pct,
            }
            comparisons.append(record)
            if delta_pct > max_regression_pct:
                regressions.append(
                    {**record, "phases": _phase_deltas(old_entry, new_entry)}
                )
    regressions.sort(key=lambda r: -r["delta_pct"])
    return {
        "schema": COMPARE_SCHEMA,
        "max_regression_pct": max_regression_pct,
        "old_suite": old_doc.get("suite"),
        "new_suite": new_doc.get("suite"),
        "n_matched_entries": sum(1 for k in new_index if k in old_index),
        "n_old_only": sum(1 for k in old_index if k not in new_index),
        "n_new_only": sum(1 for k in new_index if k not in old_index),
        "n_timings_compared": len(comparisons),
        "comparisons": comparisons,
        "regressions": regressions,
    }


def compare_main(argv: list[str] | None = None) -> int:
    """``bench.py compare OLD NEW`` — exit 1 past ``--max-regression``."""
    parser = argparse.ArgumentParser(
        prog="bench.py compare",
        description=(
            "Diff two BENCH_*.json documents and fail on timing regressions "
            "past the threshold, localized to span phases."
        ),
    )
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=25.0,
        metavar="PCT",
        help="fail when any timing slows down by more than PCT percent (default 25)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable repro-bench-compare/1 report there",
    )
    args = parser.parse_args(argv)
    if args.max_regression < 0:
        print("error: --max-regression must be >= 0", file=sys.stderr)
        return 2
    try:
        old_doc = load_bench_doc(args.old)
        new_doc = load_bench_doc(args.new)
    except BenchCompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if old_doc.get("smoke") != new_doc.get("smoke"):
        print(
            "warning: comparing a --smoke run against a full run; shapes "
            "differ, so most entries will not pair up",
            file=sys.stderr,
        )
    report = compare_bench_docs(old_doc, new_doc, args.max_regression)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"compared {report['n_timings_compared']} timing(s) across "
        f"{report['n_matched_entries']} matched entrie(s) "
        f"({report['n_old_only']} only in old, {report['n_new_only']} only in new)"
    )
    if not report["n_timings_compared"]:
        if report["old_suite"] == report["new_suite"] and report["n_new_only"] > 0:
            # Same suite, but every candidate entry is new — a freshly
            # landed scenario (or reshaped workload) has no baseline yet.
            # There is nothing to regress against, which is not an error;
            # the next committed baseline picks the new entries up.
            print(
                f"note: no baseline for {report['n_new_only']} new entrie(s) "
                f"in suite {report['new_suite']!r}; nothing to compare yet"
            )
            return 0
        print(
            "error: no matching entries to compare — are these the same "
            "suite and workload size?",
            file=sys.stderr,
        )
        return 2
    for reg in report["regressions"]:
        entry = reg["entry"]
        shape = " ".join(f"{k}={v}" for k, v in entry.items() if k != "name")
        print(
            f"REGRESSION {entry['name']} [{shape}] {reg['field']}: "
            f"{reg['old_seconds'] * 1e3:.2f} ms -> {reg['new_seconds'] * 1e3:.2f} ms "
            f"(+{reg['delta_pct']:.1f}% > {args.max_regression:g}%)"
        )
        for phase in reg["phases"][:3]:
            if phase["delta_seconds"] > 0:
                print(
                    f"    phase {phase['phase']}: "
                    f"{phase['old_seconds'] * 1e3:.2f} ms -> "
                    f"{phase['new_seconds'] * 1e3:.2f} ms"
                )
    if report["regressions"]:
        print(
            f"{len(report['regressions'])} timing(s) regressed past "
            f"{args.max_regression:g}%",
            file=sys.stderr,
        )
        return 1
    print(f"no timing regressed past {args.max_regression:g}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized workloads (seconds, not minutes)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory for BENCH_greedy.json / BENCH_auction.json (default: repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the merged JSON-lines trace of the instrumented passes",
    )
    parser.add_argument(
        "--scale-solver",
        choices=("lazy_sparse", "dense"),
        default="lazy_sparse",
        help=(
            "kernel demanded for the scale suite; 'dense' exits with a clear "
            "refusal on shapes beyond the dense cell budget"
        ),
    )
    args = parser.parse_args(argv)
    scale_shapes = SMOKE_SCALE_SHAPES if args.smoke else FULL_SCALE_SHAPES
    if args.scale_solver == "dense":
        # Fail fast — before any timing loop runs — if a dense kernel is
        # demanded for a shape it cannot realistically solve.
        for n_items, n_constraints in scale_shapes:
            check_dense_scale(n_items, n_constraints)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace = MetricsRecorder()

    shapes = SMOKE_GREEDY_SHAPES if args.smoke else FULL_GREEDY_SHAPES
    print("greedy kernels:")
    greedy_results = bench_greedy(
        shapes,
        repeats=args.repeats,
        ref_repeats=1 if not args.smoke else args.repeats,
        trace=trace,
    )
    print("greedy kernels at scale:")
    greedy_results += bench_greedy_scale(
        scale_shapes,
        scale_solver=args.scale_solver,
        repeats=args.repeats,
        trace=trace,
    )
    print("dispatch break-even:")
    greedy_results += bench_dispatch_break_even(
        SMOKE_BREAK_EVEN_SHAPES if args.smoke else FULL_BREAK_EVEN_SHAPES, trace=trace
    )
    print("chain break-even:")
    greedy_results += bench_chain_break_even(args.smoke, args.repeats, trace)
    greedy_doc = {
        "schema": SCHEMA,
        "suite": "greedy",
        "smoke": args.smoke,
        "environment": environment(),
        "results": greedy_results,
    }
    greedy_path = args.out_dir / "BENCH_greedy.json"
    greedy_path.write_text(json.dumps(greedy_doc, indent=2) + "\n")

    print("auction pipeline:")
    auction_doc = {
        "schema": SCHEMA,
        "suite": "auction",
        "smoke": args.smoke,
        "environment": environment(),
        "results": bench_price_pmf(args.smoke, args.repeats, trace)
        + bench_price_pmf_scale(args.smoke, args.repeats, trace)
        + bench_multi_mechanism(args.smoke, args.repeats, trace)
        + bench_batch_runner(args.smoke, args.repeats, trace)
        + bench_ledger_throughput(args.smoke, trace)
        + bench_online_throughput(args.smoke, trace)
        + bench_campaign_throughput(args.smoke, trace),
    }
    auction_path = args.out_dir / "BENCH_auction.json"
    auction_path.write_text(json.dumps(auction_doc, indent=2) + "\n")

    print(f"wrote {greedy_path} and {auction_path}")
    if args.trace is not None:
        trace_path = trace.write_trace(
            args.trace,
            meta={"generator": "scripts/bench.py", "smoke": args.smoke},
        )
        print(f"wrote {trace_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
