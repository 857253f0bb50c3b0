"""Checkpoint/resume resilience for the online mechanisms.

The headline contract: kill a checkpointed run at **every** stage
boundary (via :class:`~repro.resilience.faults.FaultPlan` crash
injection), resume from the durable file, and the final outcome is
bit-identical to an uninterrupted run — for both the deterministic and
the DP mechanism (whose per-stage randomness is keyed by stage index,
not RNG state).
"""

import pytest

from repro.exceptions import CheckpointError
from repro.mechanisms.online import (
    DPOnlineThresholdMechanism,
    OnlineState,
    OnlineThresholdMechanism,
    run_checkpointed,
)
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.faults import (
    FaultPlan,
    SimulatedCrashError,
    TransientFaultError,
)
from repro.workloads import OnlineArrivalStream, generate_instance
from repro.workloads.settings import SimulationSetting

SETTING = SimulationSetting(
    name="online-res",
    epsilon=0.5,
    c_min=1.0,
    c_max=10.0,
    bundle_size=(3, 5),
    skill_range=(0.3, 0.95),
    error_threshold_range=(0.3, 0.5),
    n_workers=40,
    n_tasks=6,
    price_range=(4.0, 10.0),
    grid_step=0.5,
)

N_STAGES = 3


@pytest.fixture(scope="module")
def stream():
    instance, _pool = generate_instance(SETTING, seed=5)
    return OnlineArrivalStream(instance, order="uniform", seed=11)


@pytest.fixture(params=["plain", "dp"])
def mechanism(request):
    if request.param == "plain":
        return OnlineThresholdMechanism(budget=120.0, n_stages=N_STAGES)
    return DPOnlineThresholdMechanism(
        budget=120.0, epsilon=0.9, n_stages=N_STAGES
    )


class TestKillAndResume:
    def test_fresh_checkpointed_run_matches_serial(self, mechanism, stream, tmp_path):
        baseline = mechanism.run(stream, seed=7)
        resumed = run_checkpointed(
            mechanism, stream, tmp_path / "ck.jsonl", seed=7
        )
        assert resumed == baseline

    @pytest.mark.parametrize("kill_stage", range(N_STAGES))
    def test_kill_at_every_stage_boundary_resumes_bit_identical(
        self, mechanism, stream, tmp_path, kill_stage
    ):
        baseline = mechanism.run(stream, seed=7)
        path = tmp_path / "ck.jsonl"
        with pytest.raises(SimulatedCrashError):
            run_checkpointed(
                mechanism,
                stream,
                path,
                seed=7,
                fault_plan=FaultPlan.parse(f"crash@{kill_stage}"),
            )
        resumed = run_checkpointed(mechanism, stream, path, seed=7)
        assert resumed == baseline

    def test_resume_from_completed_file_replays_exactly(
        self, mechanism, stream, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        first = run_checkpointed(mechanism, stream, path, seed=7)
        again = run_checkpointed(mechanism, stream, path, seed=7)
        assert again == first

    def test_transient_fault_then_resume(self, mechanism, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        with pytest.raises(TransientFaultError):
            run_checkpointed(
                mechanism,
                stream,
                path,
                seed=7,
                fault_plan=FaultPlan.parse("transient@1"),
            )
        resumed = run_checkpointed(mechanism, stream, path, seed=7)
        assert resumed == mechanism.run(stream, seed=7)


class TestCheckpointHygiene:
    def test_stage_records_carry_state_schema(self, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=N_STAGES)
        run_checkpointed(mechanism, stream, path, seed=7)
        records = SweepCheckpoint(path).load()
        assert set(records) == {f"stage:{s}" for s in range(N_STAGES)}
        for record in records.values():
            OnlineState.from_payload(record["payload"])  # round-trips

    def test_torn_tail_is_repaired_on_resume(self, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=N_STAGES)
        baseline = mechanism.run(stream, seed=7)
        with pytest.raises(SimulatedCrashError):
            run_checkpointed(
                mechanism, stream, path, seed=7,
                fault_plan=FaultPlan.parse(f"crash@{N_STAGES - 1}"),
            )
        with path.open("a") as handle:
            handle.write('{"type": "point", "key": "stage:9", "payl')
        resumed = run_checkpointed(mechanism, stream, path, seed=7)
        assert resumed == baseline

    def test_different_seed_refuses_resume(self, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        mechanism = DPOnlineThresholdMechanism(
            budget=120.0, epsilon=0.9, n_stages=N_STAGES
        )
        run_checkpointed(mechanism, stream, path, seed=7)
        with pytest.raises(CheckpointError, match="seed"):
            run_checkpointed(mechanism, stream, path, seed=8)

    def test_different_stream_refuses_resume(self, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=N_STAGES)
        run_checkpointed(mechanism, stream, path, seed=7)
        other = OnlineArrivalStream(stream.instance, order="uniform", seed=12)
        with pytest.raises(CheckpointError, match="stream"):
            run_checkpointed(mechanism, other, path, seed=7)

    def test_different_budget_refuses_resume(self, stream, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_checkpointed(
            OnlineThresholdMechanism(budget=120.0, n_stages=N_STAGES),
            stream, path, seed=7,
        )
        with pytest.raises(CheckpointError, match="budget"):
            run_checkpointed(
                OnlineThresholdMechanism(budget=90.0, n_stages=N_STAGES),
                stream, path, seed=7,
            )
