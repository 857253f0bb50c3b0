"""Determinism regression: batched == serial for BatchAuctionRunner.

The runner's contract is that the master seed alone fixes every outcome:
neither the backend (serial vs process pool) nor the worker count nor
pickling round-trips may change a single price or winner set.  These
tests pin that contract, plus the order-free seed spawning it rests on.
"""

import numpy as np
import pytest

from repro.bench import (
    BENCH_SETTING,
    BatchAuctionRunner,
    BatchRunResult,
    seeded_auction_batch,
    seeded_cover_problem,
)
from repro.coverage.greedy import greedy_cover
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.utils.rng import spawn_seed_sequences


@pytest.fixture(scope="module")
def batch():
    return seeded_auction_batch(10, n_workers=30, n_tasks=6, seed=123)


def _assert_identical(a: BatchRunResult, b: BatchRunResult) -> None:
    assert a.n_instances == b.n_instances
    for left, right in zip(a.outcomes, b.outcomes):
        assert left.price == right.price
        assert np.array_equal(left.winners, right.winners)


class TestBatchedVsSerial:
    def test_process_matches_serial_across_worker_counts(self, batch):
        mechanism = DPHSRCAuction(epsilon=BENCH_SETTING.epsilon)
        serial = BatchAuctionRunner(mechanism, backend="serial").run(batch, seed=7)
        assert serial.backend == "serial"
        assert serial.max_workers == 1
        for workers in (2, 3):
            pooled = BatchAuctionRunner(
                mechanism, backend="process", max_workers=workers
            ).run(batch, seed=7)
            assert pooled.backend == "process"
            assert pooled.max_workers == workers
            _assert_identical(serial, pooled)

    def test_holds_for_the_baseline_mechanism_too(self, batch):
        mechanism = BaselineAuction(epsilon=BENCH_SETTING.epsilon)
        serial = BatchAuctionRunner(mechanism, backend="serial").run(batch, seed=11)
        pooled = BatchAuctionRunner(mechanism, backend="process", max_workers=2).run(
            batch, seed=11
        )
        _assert_identical(serial, pooled)

    def test_same_seed_reproduces_different_seed_differs(self, batch):
        runner = BatchAuctionRunner(
            DPHSRCAuction(epsilon=BENCH_SETTING.epsilon), backend="serial"
        )
        first = runner.run(batch, seed=1)
        second = runner.run(batch, seed=1)
        _assert_identical(first, second)
        other = runner.run(batch, seed=2)
        # With a 10-instance batch at ε=0.5, at least one drawn price
        # must move under a different master seed.
        assert any(
            a.price != b.price for a, b in zip(first.outcomes, other.outcomes)
        )

    def test_results_are_input_ordered_and_summarized(self, batch):
        result = BatchAuctionRunner(
            DPHSRCAuction(epsilon=BENCH_SETTING.epsilon), backend="serial"
        ).run(batch, seed=3)
        assert result.n_instances == len(batch)
        assert result.prices().shape == (len(batch),)
        assert result.total_payment == pytest.approx(
            sum(o.total_payment for o in result.outcomes)
        )
        assert result.wall_time > 0.0


class TestBackendResolution:
    def test_auto_small_batch_stays_serial(self, batch):
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="auto")
        result = runner.run(batch[:3], seed=0)
        assert result.backend == "serial"

    def test_rejects_unknown_backend_and_bad_workers(self):
        with pytest.raises(ValueError):
            BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="threads")
        with pytest.raises(ValueError):
            BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), max_workers=0)

    def test_empty_batch(self):
        result = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.5), backend="serial"
        ).run([], seed=0)
        assert result.n_instances == 0
        assert result.total_payment == 0.0


class TestSeedSpawning:
    def test_children_are_position_stable(self):
        # Child i depends only on (master, i): a longer batch under the
        # same master reuses the same prefix of streams.
        short = spawn_seed_sequences(99, 3)
        long = spawn_seed_sequences(99, 8)
        for a, b in zip(short, long):
            assert a.spawn_key == b.spawn_key
            draw_a = np.random.default_rng(a).random(4)
            draw_b = np.random.default_rng(b).random(4)
            assert np.array_equal(draw_a, draw_b)

    def test_accepts_seed_sequence_master(self):
        master = np.random.SeedSequence(5)
        children = spawn_seed_sequences(master, 2)
        assert len(children) == 2

    def test_one_seed_sequence_object_gives_equal_runs(self, batch):
        """Spawning copies the master, so reusing one object changes nothing."""
        master = np.random.SeedSequence(5)
        runner = BatchAuctionRunner(DPHSRCAuction(epsilon=0.5), backend="serial")
        first = runner.run(batch, seed=master)
        _assert_identical(first, runner.run(batch, seed=master))
        _assert_identical(first, runner.run(batch, seed=5))
        assert master.n_children_spawned == 0

    def test_rejects_generator_masters(self):
        # Generator.spawn depends on consumption state, which would make
        # "same seed" silently irreproducible — hard error instead.
        with pytest.raises(TypeError):
            spawn_seed_sequences(np.random.default_rng(0), 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)


class TestWorkloads:
    def test_seeded_cover_problem_is_reproducible_and_coverable(self):
        a = seeded_cover_problem(40, 6, seed=2016)
        b = seeded_cover_problem(40, 6, seed=2016)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.demands, b.demands)
        assert a.is_coverable()
        greedy_cover(a)  # must be solvable, not just coverable on paper

    def test_seeded_auction_batch_is_reproducible(self):
        a = seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=8)
        b = seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=8)
        for left, right in zip(a, b):
            assert np.array_equal(left.quality, right.quality)
            assert left.bids == right.bids
