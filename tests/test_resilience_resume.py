"""Kill-and-resume golden tests: checkpointed sweeps replay bit-identically.

The contract: a sweep killed mid-run (here: a planned crash) leaves a
durable seed-keyed checkpoint; re-running the same command completes the
remaining points and the merged results, metrics, and privacy-ledger
trail are *identical* to an uninterrupted run.  ``resilience.*``
counters are excluded from the metrics comparison — they record the
execution's history (checkpoint hits, failures), which legitimately
differs between an interrupted and a clean run; everything the pipeline
itself recorded must match exactly.
"""

import numpy as np
import pytest

from repro.exceptions import CheckpointError, InstanceExecutionError
from repro.experiments.figure_payment import run_payment_figure
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    FaultPlan,
    ResilienceConfig,
    SweepCheckpoint,
    seed_fingerprint,
    use_resilience,
)
from repro.experiments.runner import payment_sweep, sweep_checkpoint
from repro.workloads import SETTING_I

N_POINTS = 10
POINTS = [(None, 3 + i) for i in range(N_POINTS)]
MECHS = {"dp_hsrc": DPHSRCAuction(epsilon=0.1)}
SWEEP_KWARGS = dict(n_price_samples=100, seed=42)


def _golden():
    recorder = MetricsRecorder()
    results = payment_sweep(
        SETTING_I, MECHS, POINTS, recorder=recorder, **SWEEP_KWARGS
    )
    return results, recorder


def _pipeline_counters(recorder):
    return {
        name: value
        for name, value in recorder.counters.items()
        if not name.startswith("resilience.")
    }


class TestSeedFingerprint:
    def test_children_have_unique_fingerprints(self):
        children = np.random.SeedSequence(42).spawn(64)
        keys = {seed_fingerprint(child) for child in children}
        assert len(keys) == 64

    def test_fingerprint_is_stable_across_spawns(self):
        """Position i keeps its key when the sweep grows — resume-safe."""
        short = np.random.SeedSequence(42).spawn(5)
        long = np.random.SeedSequence(42).spawn(9)
        for a, b in zip(short, long):
            assert seed_fingerprint(a) == seed_fingerprint(b)


class TestSweepResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        self._kill_and_resume(tmp_path, max_workers=None)

    def test_pooled_kill_and_resume_is_bit_identical(self, tmp_path):
        """The same drill on a 2-wide pool: every point's attempt 0 runs
        before the crash settles, yet exactly the prefix is checkpointed."""
        completed = self._kill_and_resume(tmp_path, max_workers=2)
        assert len(completed) == 6

    def _kill_and_resume(self, tmp_path, *, max_workers):
        golden_results, golden_rec = _golden()

        ckpt = sweep_checkpoint(
            tmp_path, 42, n_points=N_POINTS, n_price_samples=100
        )
        # The "kill": a planned crash at point 6 aborts the sweep after
        # durably checkpointing everything that completed before it.
        with pytest.raises(InstanceExecutionError) as info:
            payment_sweep(
                SETTING_I,
                MECHS,
                POINTS,
                checkpoint=ckpt,
                fault_plan=FaultPlan.parse("crash@6"),
                recorder=MetricsRecorder(),
                max_workers=max_workers,
                **SWEEP_KWARGS,
            )
        assert info.value.index == 6
        completed = ckpt.load()
        assert 0 < len(completed) < N_POINTS

        # The resume: same command, no fault. Cached points replay from
        # the checkpoint, fresh points re-run from their original seeds.
        resumed_rec = MetricsRecorder()
        resumed = payment_sweep(
            SETTING_I,
            MECHS,
            POINTS,
            checkpoint=ckpt,
            recorder=resumed_rec,
            max_workers=max_workers,
            **SWEEP_KWARGS,
        )
        assert resumed == golden_results
        assert _pipeline_counters(resumed_rec) == _pipeline_counters(golden_rec)
        assert resumed_rec.histograms == golden_rec.histograms
        assert resumed_rec.ledger.entries == golden_rec.ledger.entries
        assert [(s.kind, s.name) for s in resumed_rec.spans] == [
            (s.kind, s.name) for s in golden_rec.spans
        ]
        # The resumed run did hit the checkpoint for the completed prefix.
        assert resumed_rec.counters["resilience.checkpoint.hits"] == len(completed)
        return completed

    def test_completed_checkpoint_skips_all_work(self, tmp_path):
        golden_results, _ = _golden()
        ckpt = sweep_checkpoint(tmp_path, 42, n_points=N_POINTS, n_price_samples=100)
        payment_sweep(SETTING_I, MECHS, POINTS, checkpoint=ckpt, **SWEEP_KWARGS)
        rec = MetricsRecorder()
        replayed = payment_sweep(
            SETTING_I, MECHS, POINTS, checkpoint=ckpt, recorder=rec, **SWEEP_KWARGS
        )
        assert replayed == golden_results
        assert rec.counters["resilience.checkpoint.hits"] == N_POINTS
        assert "resilience.checkpoint.writes" not in rec.counters

    def test_ambient_checkpoint_dir(self, tmp_path):
        """The CLI's --resume flag reaches payment_sweep via the ambient config."""
        golden_results, _ = _golden()
        config = ResilienceConfig(checkpoint_dir=tmp_path)
        with use_resilience(config):
            first = payment_sweep(SETTING_I, MECHS, POINTS, **SWEEP_KWARGS)
            second = payment_sweep(SETTING_I, MECHS, POINTS, **SWEEP_KWARGS)
        assert first == golden_results == second
        assert list(tmp_path.glob("payment_sweep-*.jsonl"))


class TestCheckpointFile:
    def test_schema_header_and_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ckpt = SweepCheckpoint(path, context={"sweep": "t"})
        ckpt.append("7:0", {"x": 1.5}, index=0)
        ckpt.append("7:1", {"x": 2.5}, index=1)
        lines = path.read_text().splitlines()
        assert f'"schema": "{CHECKPOINT_SCHEMA}"' in lines[0]
        loaded = SweepCheckpoint(path, context={"sweep": "t"}).load()
        assert loaded["7:1"]["payload"] == {"x": 2.5}

    def test_float_payloads_round_trip_exactly(self, tmp_path):
        """repr-based JSON keeps doubles bit-exact — the resume invariant."""
        value = float(np.random.default_rng(0).random() * 1e-7)
        ckpt = SweepCheckpoint(tmp_path / "ck.jsonl")
        ckpt.append("k", {"v": value})
        assert ckpt.load()["k"]["payload"]["v"] == value

    def test_context_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, context={"n_points": 10}).append("k", 1)
        with pytest.raises(CheckpointError, match="n_points"):
            SweepCheckpoint(path, context={"n_points": 20}).load()

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.append("a", 1)
        ckpt.append("b", 2)
        with path.open("a") as handle:
            handle.write('{"type": "point", "key": "c", "payl')  # killed mid-write
        loaded = SweepCheckpoint(path).load()
        assert set(loaded) == {"a", "b"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.append("a", 1)
        with path.open("a") as handle:
            handle.write("not json\n")
        ckpt.append("b", 2)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            SweepCheckpoint(path).load()

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path / "absent.jsonl").load() == {}

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"type": "meta", "schema": "repro-checkpoint/99"}\n')
        with pytest.raises(CheckpointError, match="schema"):
            SweepCheckpoint(path).load()


class TestFigureResume:
    """The Figure 1–4 driver resumes per (point, repetition) unit."""

    FIG_KWARGS = dict(
        name="figtest",
        title="resume test figure",
        setting=SETTING_I,
        sweep_axis="tasks",
        sweep_values=[3, 4],
        include_optimal=False,
        n_price_samples=50,
        seed=0,
        n_repetitions=2,
    )

    def test_crash_then_resume_reproduces_rows(self, tmp_path):
        golden = run_payment_figure(**self.FIG_KWARGS)
        chaos = ResilienceConfig(
            fault_plan=FaultPlan.parse("crash@2"), checkpoint_dir=tmp_path
        )
        with use_resilience(chaos):
            with pytest.raises(InstanceExecutionError) as info:
                run_payment_figure(**self.FIG_KWARGS)
        assert info.value.index == 2
        with use_resilience(ResilienceConfig(checkpoint_dir=tmp_path)):
            resumed = run_payment_figure(**self.FIG_KWARGS)
        assert resumed.rows == golden.rows
        assert resumed.headers == golden.headers

    def test_transient_fault_recovers_identically(self):
        from repro.resilience import RetryPolicy

        golden = run_payment_figure(**self.FIG_KWARGS)
        chaos = ResilienceConfig(
            retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
            fault_plan=FaultPlan.parse("transient@1:1"),
        )
        with use_resilience(chaos):
            recovered = run_payment_figure(**self.FIG_KWARGS)
        assert recovered.rows == golden.rows
