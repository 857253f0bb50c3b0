"""The shared worker pool: warm reuse, fresh contexts, broken-pool recovery.

Every process-backend batch and every parallel payment sweep runs on the
long-lived pools of :mod:`repro.utils.pool`.  Warm workers outlive the
ambient state they were forked under, so these tests fork a pool under
one policy (sweep engine, recorder, shared-memory batch) and then run
under another, and require the pooled result to equal the serial one.
They also kill workers — idle or mid-task — and require one transparent
resubmission, and no more.
"""

import contextvars
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.bench import shm as shm_module
from repro.engine import SweepEngine, use_engine
from repro.experiments.runner import payment_sweep
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import NULL_RECORDER, MetricsRecorder, current_recorder, use_recorder
from repro.obs.clock import MONOTONIC_CLOCK, FakeClock, current_clock, use_clock
from repro.privacy.budget import NULL_BUDGET_SCOPE, current_budget_scope
from repro.resilience import (
    RESILIENCE_OFF,
    ResilienceConfig,
    RetryPolicy,
    current_resilience,
    use_resilience,
)
from repro.utils.pool import pool_map, shared_process_pool, shutdown_shared_pools
from repro.utils.rng import spawn_seed_sequences
from repro.workloads import SETTING_I

WIDTH = 2

SWEEP_MECHANISMS = {"dp": DPHSRCAuction(0.1), "dp2": DPHSRCAuction(0.5)}
SWEEP_POINTS = [(60, 15), (70, 15)]

_PROBE = contextvars.ContextVar("test_shared_pool.probe", default="default")


class PlansTwice(DPHSRCAuction):
    """DP-hSRC that plans its instance twice: a hit when the unit caches."""

    def price_pmf(self, instance):
        super().price_pmf(instance)
        return super().price_pmf(instance)


class NullRecorderOnly(DPHSRCAuction):
    """DP-hSRC that refuses to run under a recording ambient recorder."""

    def run(self, instance, seed=None):
        if current_recorder() is not NULL_RECORDER:
            raise RuntimeError("unit inherited a recording recorder")
        return super().run(instance, seed)


class ProbesAmbient(DPHSRCAuction):
    """DP-hSRC that counts, on its own recorder, what ambient state it sees."""

    def run(self, instance, seed=None):
        recorder = current_recorder()
        if isinstance(recorder, MetricsRecorder) and "trace_id" in recorder.trace_context:
            recorder.count("probe.stamped_recorder")
        recorder.count("probe.default_clock", current_clock() is MONOTONIC_CLOCK)
        recorder.count("probe.default_budget", current_budget_scope() is NULL_BUDGET_SCOPE)
        recorder.count("probe.default_resilience", current_resilience() is RESILIENCE_OFF)
        return super().run(instance, seed)


def _read_probe(_):
    return _PROBE.get()


def _attachments(_):
    # Long enough that every worker picks up one of the first tasks.
    time.sleep(0.05)
    return os.getpid(), len(shm_module._WORKER_ATTACHMENTS)


def _log_and_die(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    os.kill(os.getpid(), signal.SIGKILL)


def _die_once(path):
    if not os.path.exists(path):
        _log_and_die(path)
    return "survived"


@pytest.fixture(autouse=True)
def fresh_pools():
    """Each test forks its own pools, and leaves none behind."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def batch():
    return seeded_auction_batch(6, n_workers=30, n_tasks=6, seed=2016)


def _policy(cache: bool):
    """The default engine when ``cache`` is set, else the pass-through one."""
    return nullcontext() if cache else use_engine(SweepEngine(cache=False))


def _plan_counters(recorder: MetricsRecorder) -> dict:
    return {k: v for k, v in recorder.counters.items() if k.startswith("engine.plan.")}


def _assert_same_outcomes(left, right):
    assert left.n_instances == right.n_instances
    for a, b in zip(left.outcomes, right.outcomes):
        assert a.price == b.price
        assert np.array_equal(a.winners, b.winners)
        assert np.array_equal(a.payments, b.payments)


def _kill_one_idle_worker():
    """Warm the width's pool, then SIGKILL one of its idle workers."""
    pool_map(WIDTH, abs, range(4))
    os.kill(next(iter(shared_process_pool(WIDTH)._processes)), signal.SIGKILL)


class TestPoolModule:
    def test_tasks_run_in_a_fresh_context(self):
        token = _PROBE.set("fork-time")
        try:
            # The first call forks the workers while the probe is set.
            first = pool_map(WIDTH, _read_probe, range(4))
        finally:
            _PROBE.reset(token)
        assert first == ["default"] * 4
        assert pool_map(WIDTH, _read_probe, range(4)) == ["default"] * 4

    def test_width_one_pool(self):
        assert pool_map(1, abs, [-1, -2, 3]) == [1, 2, 3]
        with pytest.raises(ValueError, match="max_workers >= 1"):
            shared_process_pool(0)

    def test_a_worker_death_is_recovered_by_one_resubmission(self, tmp_path):
        pool = shared_process_pool(WIDTH)
        assert pool_map(WIDTH, _die_once, [str(tmp_path / "died")]) == ["survived"]
        assert shared_process_pool(WIDTH) is not pool

    def test_a_task_that_always_kills_its_worker_raises_after_one_resubmission(
        self, tmp_path
    ):
        log = tmp_path / "attempts.txt"
        with pytest.raises(BrokenProcessPool):
            pool_map(WIDTH, _log_and_die, [str(log)])
        assert len(log.read_text(encoding="utf-8").splitlines()) == 2
        assert pool_map(WIDTH, abs, [-5]) == [5]

    def test_no_worker_outlives_shutdown(self):
        pool_map(WIDTH, abs, range(4))
        pool_map(1, abs, range(2))
        pids = [pid for w in (1, WIDTH) for pid in shared_process_pool(w)._processes]
        assert len(pids) == WIDTH + 1
        shutdown_shared_pools()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestWarmBatchRunner:
    def test_consecutive_runs_share_one_pool(self, batch):
        runner = BatchAuctionRunner(
            DPHSRCAuction(0.5), backend="process", max_workers=WIDTH
        )
        runner.run(batch, seed=1)
        pool = shared_process_pool(WIDTH)
        runner.run(batch, seed=2)
        runner.run(batch[:1], seed=3)
        assert shared_process_pool(WIDTH) is pool

    def test_mixed_runs_on_one_warm_pool_match_serial(self, batch):
        mechanism = DPHSRCAuction(0.5)
        serial_rec = MetricsRecorder()
        with use_recorder(serial_rec):
            serial = BatchAuctionRunner(mechanism, backend="serial").run(batch, seed=7)
        runs = [("pickle", False), ("shared_memory", True), ("pickle", True),
                ("shared_memory", False)]
        pool = None
        for transport, recorded in runs:
            recorder = MetricsRecorder() if recorded else NULL_RECORDER
            with use_recorder(recorder):
                result = BatchAuctionRunner(
                    mechanism, backend="process", max_workers=WIDTH, transport=transport
                ).run(batch, seed=7)
            _assert_same_outcomes(serial, result)
            if recorded:
                assert recorder.counters == serial_rec.counters
                assert recorder.histograms == serial_rec.histograms
                assert result.trace_id == serial.trace_id
            else:
                assert result.metrics is None
            pool = pool or shared_process_pool(WIDTH)
            assert shared_process_pool(WIDTH) is pool

    def test_width_one_and_one_instance_batches(self, batch):
        mechanism = DPHSRCAuction(0.5)
        serial = BatchAuctionRunner(mechanism, backend="serial").run(batch, seed=4)
        narrow = BatchAuctionRunner(mechanism, backend="process", max_workers=1).run(
            batch, seed=4
        )
        assert (narrow.backend, narrow.max_workers) == ("process", 1)
        _assert_same_outcomes(serial, narrow)
        single = BatchAuctionRunner(
            mechanism, backend="process", max_workers=WIDTH
        ).run(batch[:1], seed=4)
        assert (single.backend, single.max_workers) == ("process", 1)
        reference = BatchAuctionRunner(mechanism, backend="serial").run(batch[:1], seed=4)
        _assert_same_outcomes(reference, single)

    @pytest.mark.parametrize("fork_cache,run_cache", [(True, False), (False, True)])
    def test_units_follow_the_callers_engine_policy(
        self, batch, fork_cache, run_cache
    ):
        runner = BatchAuctionRunner(PlansTwice(0.5), backend="process", max_workers=WIDTH)
        with _policy(fork_cache):
            runner.run(batch, seed=1)
        with _policy(run_cache):
            serial_rec, pooled_rec = MetricsRecorder(), MetricsRecorder()
            with use_recorder(serial_rec):
                serial = BatchAuctionRunner(PlansTwice(0.5), backend="serial").run(batch, seed=1)
            with use_recorder(pooled_rec):
                pooled = runner.run(batch, seed=1)
        _assert_same_outcomes(serial, pooled)
        assert pooled_rec.counters == serial_rec.counters
        n = len(batch)
        expected = (
            {"engine.plan.misses": n, "engine.plan.hits": n}
            if run_cache
            else {"engine.plan.misses": 2 * n}
        )
        assert _plan_counters(pooled_rec) == expected

    def test_unrecorded_units_run_under_the_null_recorder(self, batch):
        with use_recorder(MetricsRecorder()):
            BatchAuctionRunner(
                DPHSRCAuction(0.5), backend="process", max_workers=WIDTH
            ).run(batch, seed=1)
        with use_recorder(NULL_RECORDER):
            probe = BatchAuctionRunner(
                NullRecorderOnly(0.5), backend="process", max_workers=WIDTH
            ).run(batch, seed=1)
        assert probe.n_failed == 0

    def test_pooled_units_see_their_own_recorder_and_default_policy(self, batch):
        sink = MetricsRecorder()
        retry_only = ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)
        )
        with use_clock(FakeClock()), use_resilience(retry_only), use_recorder(sink):
            result = BatchAuctionRunner(
                ProbesAmbient(0.5), backend="process", max_workers=WIDTH
            ).run(batch, seed=1)
        assert (result.backend, result.failed) == ("process", ())
        n = len(batch)
        probes = {k: v for k, v in sink.counters.items() if k.startswith("probe.")}
        assert probes == {
            "probe.stamped_recorder": n,
            "probe.default_clock": n,
            "probe.default_budget": n,
            "probe.default_resilience": n,
        }
        samples = [span for span in sink.spans if span.kind == "sample"]
        assert sorted(span.attrs["unit"] for span in samples) == list(range(n))
        assert {span.attrs["trace_id"] for span in samples} == {result.trace_id}
        # Timed by the workers' real clock, not the parent's fake one.
        assert sum(span.seconds for span in samples) > 0.0

    def test_serial_units_see_no_resilience_config(self, batch):
        """In-process units read no resilience config either: a nested
        executor must not reuse the batch's retry policy or fault plan."""
        sink = MetricsRecorder()
        retry_only = ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)
        )
        with use_resilience(retry_only), use_recorder(sink):
            result = BatchAuctionRunner(ProbesAmbient(0.5), backend="serial").run(
                batch, seed=1
            )
        assert (result.backend, result.failed) == ("serial", ())
        assert sink.counters["probe.default_resilience"] == len(batch)

    def test_warm_workers_keep_at_most_one_batch_attached(self, batch):
        runner = BatchAuctionRunner(
            DPHSRCAuction(0.5), backend="process", max_workers=WIDTH,
            transport="shared_memory",
        )
        for seed in range(3):
            assert runner.run(batch, seed=seed).n_failed == 0
        probes = pool_map(WIDTH, _attachments, range(4 * WIDTH))
        assert {pid for pid, _ in probes} == set(shared_process_pool(WIDTH)._processes)
        assert all(count <= 1 for _, count in probes)
        assert not shm_module.list_batch_segments()

    def test_idle_worker_death_does_not_break_the_next_batch(self, batch):
        mechanism = DPHSRCAuction(0.5)
        serial = BatchAuctionRunner(mechanism, backend="serial").run(batch, seed=9)
        _kill_one_idle_worker()
        pooled = BatchAuctionRunner(
            mechanism, backend="process", max_workers=WIDTH
        ).run(batch, seed=9)
        assert pooled.n_failed == 0
        _assert_same_outcomes(serial, pooled)


class TestWarmPaymentSweep:
    def _sweep(self, max_workers):
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            stats = payment_sweep(
                SETTING_I, SWEEP_MECHANISMS, SWEEP_POINTS,
                spawn_seed_sequences(1, len(SWEEP_POINTS)), n_price_samples=50,
                max_workers=max_workers,
            )
        return stats, recorder

    @pytest.mark.parametrize("fork_cache,run_cache", [(True, False), (False, True)])
    def test_points_follow_the_callers_engine_policy(self, fork_cache, run_cache):
        with _policy(fork_cache):
            self._sweep(WIDTH)
        with _policy(run_cache):
            serial_stats, serial_rec = self._sweep(None)
            pooled_stats, pooled_rec = self._sweep(WIDTH)
        assert pooled_stats == serial_stats
        assert pooled_rec.counters == serial_rec.counters
        expected = (
            {"engine.plan.misses": 2, "engine.plan.hits": 2}
            if run_cache
            else {"engine.plan.misses": 4}
        )
        assert _plan_counters(pooled_rec) == expected

    def test_idle_worker_death_does_not_break_the_next_sweep(self):
        serial_stats, serial_rec = self._sweep(None)
        _kill_one_idle_worker()
        pooled_stats, pooled_rec = self._sweep(WIDTH)
        assert pooled_stats == serial_stats
        assert pooled_rec.counters == serial_rec.counters


SRC = Path(__file__).resolve().parents[1] / "src"


def test_workers_share_the_parents_resource_tracker():
    """A pool forked before the first shared-memory batch leaks no segment.

    Needs a fresh interpreter: in this one the parent's resource tracker
    is already running.  A worker with a tracker of its own would report
    the batch segments as leaked when the pool shuts down.
    """
    script = textwrap.dedent(
        """
        from repro.bench import BatchAuctionRunner, seeded_auction_batch
        from repro.mechanisms.dp_hsrc import DPHSRCAuction
        from repro.utils.pool import shutdown_shared_pools

        batch = seeded_auction_batch(4, n_workers=30, n_tasks=6, seed=2016)
        for transport in ("pickle", "shared_memory", "shared_memory"):
            BatchAuctionRunner(
                DPHSRCAuction(0.5), backend="process", max_workers=2,
                transport=transport,
            ).run(batch, seed=1)
        shutdown_shared_pools()
        """
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "leaked" not in result.stderr, result.stderr
