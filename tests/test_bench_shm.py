"""Zero-copy shared-memory batch transport: fidelity, parity, no leaks.

Three contracts are pinned here:

* **Value fidelity** — an instance rebuilt from the columnar segment is
  equal to the original in every field the mechanisms read, and its
  arrays are zero-copy views into the pools (no hidden re-copy).
* **Transport parity** — the batch runner produces bit-identical
  outcomes and identical deterministically-merged metrics across
  ``transport="pickle"``/``"shared_memory"`` and serial/process
  backends.
* **No leaked segments** — every run, including one whose worker
  crashes mid-batch (injected via :class:`repro.resilience.FaultPlan`),
  leaves ``/dev/shm`` exactly as it found it.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    BatchAuctionRunner,
    SharedInstanceBatch,
    list_batch_segments,
    pack_instances,
    seeded_auction_batch,
)
from repro.bench.shm import SEGMENT_PREFIX
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder, use_recorder
from repro.resilience import FaultPlan, ResilienceConfig, use_resilience

pytestmark = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="requires a /dev/shm filesystem"
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def batch():
    return seeded_auction_batch(4, n_workers=30, n_tasks=6, seed=2016)


@pytest.fixture(scope="module")
def mechanism():
    return DPHSRCAuction(epsilon=0.5)


def assert_instances_equal(a, b):
    assert np.array_equal(a.quality, b.quality)
    assert np.array_equal(a.demands, b.demands)
    assert np.array_equal(a.price_grid, b.price_grid)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.effective_quality, b.effective_quality)
    assert (a.c_min, a.c_max) == (b.c_min, b.c_max)
    assert a.bids == b.bids


class TestColumnarRoundTrip:
    def test_pack_unpack_is_value_faithful(self, batch):
        packed = pack_instances(batch)
        assert packed.n_instances == len(batch)
        for i, original in enumerate(batch):
            assert_instances_equal(original, packed.unpack(i))

    def test_shared_views_are_zero_copy_and_read_only(self, batch):
        shared = SharedInstanceBatch.create(batch)
        rebuilt = None
        try:
            rebuilt = shared.batch.unpack(0)
            assert np.shares_memory(rebuilt.quality, shared.batch.floats)
            assert np.shares_memory(rebuilt.prices, shared.batch.floats)
            assert not rebuilt.quality.flags.writeable
            assert_instances_equal(batch[0], rebuilt)
        finally:
            # Release the segment views before unmapping, or close() (here
            # and again in SharedMemory.__del__) trips on exported buffers.
            del rebuilt
            shared.dispose()

    def test_handle_is_small_and_picklable(self, batch):
        shared = SharedInstanceBatch.create(batch)
        try:
            blob = pickle.dumps(shared.handle)
            # The whole point: the handle, not the arrays, crosses the
            # process boundary.
            assert len(blob) < 512
            assert pickle.loads(blob) == shared.handle
        finally:
            shared.dispose()


class TestTransportParity:
    def test_outcomes_identical_across_backends_and_transports(self, batch, mechanism):
        runs = {
            (backend, transport): BatchAuctionRunner(
                mechanism, backend=backend, max_workers=2, transport=transport
            ).run(batch, seed=7)
            for backend in ("serial", "process")
            for transport in ("pickle", "shared_memory")
        }
        reference = runs[("serial", "pickle")]
        for key, result in runs.items():
            assert result.n_failed == 0, key
            for a, b in zip(reference.outcomes, result.outcomes):
                assert a.price == b.price, key
                assert np.array_equal(a.winners, b.winners), key
                assert np.array_equal(a.payments, b.payments), key

    def test_merged_metrics_identical_across_transports(self, batch, mechanism):
        counters = {}
        for transport in ("pickle", "shared_memory"):
            recorder = MetricsRecorder()
            with use_recorder(recorder):
                BatchAuctionRunner(
                    mechanism, backend="process", max_workers=2, transport=transport
                ).run(batch, seed=7)
            counters[transport] = dict(recorder.counters)
        assert counters["pickle"] == counters["shared_memory"]

    def test_unknown_transport_is_rejected(self, mechanism):
        with pytest.raises(ValueError, match="transport must be one of"):
            BatchAuctionRunner(mechanism, transport="carrier_pigeon")


class TestNoLeakedSegments:
    def test_clean_run_leaves_dev_shm_untouched(self, batch, mechanism):
        before = list_batch_segments()
        BatchAuctionRunner(
            mechanism, backend="process", max_workers=2, transport="shared_memory"
        ).run(batch, seed=7)
        assert list_batch_segments() == before

    def test_serial_run_leaves_dev_shm_untouched(self, batch, mechanism):
        before = list_batch_segments()
        BatchAuctionRunner(mechanism, backend="serial", transport="shared_memory").run(
            batch, seed=7
        )
        assert list_batch_segments() == before

    def test_crashing_worker_still_leaves_no_segment(self, batch, mechanism):
        """A mid-batch crash quarantines the instance, not the segment."""
        self._quarantine_leaves_no_segment(batch, mechanism, "process", "crash@1")

    @pytest.mark.parametrize("plan", ["crash@1", "poison@1"])
    def test_serial_quarantine_still_leaves_no_segment(self, batch, mechanism, plan):
        """The serial backend quarantines from its own view of the segment."""
        self._quarantine_leaves_no_segment(batch, mechanism, "serial", plan)

    def _quarantine_leaves_no_segment(self, batch, mechanism, backend, plan):
        before = list_batch_segments()
        with use_resilience(ResilienceConfig(fault_plan=FaultPlan.parse(plan))):
            result = BatchAuctionRunner(
                mechanism,
                backend=backend,
                max_workers=2,
                transport="shared_memory",
            ).run(batch, seed=7)
        assert list_batch_segments() == before
        assert result.n_failed == 1
        assert result.outcomes[1] is None
        assert all(
            outcome is not None for i, outcome in enumerate(result.outcomes) if i != 1
        )

    def test_kept_quarantine_errors_pin_no_view(self):
        """A kept quarantine error does not keep the serial batch's segment mapped.

        Three ways to fail instance 1: a crash before it runs, a poisoned
        outcome, and an error raised inside the mechanism while the
        instance's zero-copy views are its locals.  Each error keeps its
        traceback, yet none may pin a view: one that did would keep the
        mapping alive past ``dispose()``, which the interpreter reports at
        exit ("Exception ignored in SharedMemory.__del__ ... BufferError"),
        hence the fresh interpreter.
        """
        script = textwrap.dedent(
            """
            from repro.bench import BatchAuctionRunner, seeded_auction_batch
            from repro.mechanisms.dp_hsrc import DPHSRCAuction
            from repro.resilience import (
                FaultPlan, FaultyMechanism, ResilienceConfig, use_resilience,
            )

            batch = seeded_auction_batch(4, n_workers=30, n_tasks=6, seed=2016)
            crash = FaultPlan.parse("crash@1")
            cases = [
                (DPHSRCAuction(0.5), crash),
                (DPHSRCAuction(0.5), FaultPlan.parse("poison@1")),
                (FaultyMechanism(DPHSRCAuction(0.5), crash), None),
            ]
            kept = []
            for mechanism, plan in cases:
                with use_resilience(ResilienceConfig(fault_plan=plan)):
                    result = BatchAuctionRunner(
                        mechanism, backend="serial", transport="shared_memory",
                    ).run(batch, seed=7)
                assert [f.index for f in result.failed] == [1], result.failed
                assert result.failed[0].cause.__traceback__ is not None
                kept.append(result)
            print("quarantined", len(kept))
            """
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "quarantined 3" in run.stdout
        assert "BufferError" not in run.stderr, run.stderr

    def test_dispose_is_idempotent(self, batch):
        shared = SharedInstanceBatch.create(batch)
        name = shared.handle.name
        assert name.startswith(SEGMENT_PREFIX)
        assert name in list_batch_segments()
        shared.dispose()
        assert name not in list_batch_segments()
        shared.dispose()  # second call must not raise
