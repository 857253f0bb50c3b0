"""The resilient unit executor: an in-process call is N one-unit calls.

:meth:`repro.resilience.ResilientExecutor.run_units` is the only code
that runs units of work (batch instances, sweep points, figure
repetitions, campaign cells).  An in-process call runs each unit just
before it settles, so it is N one-unit calls by construction and the
reference here.  A pooled call prefetches every unit's attempt 0 and
must observe exactly what the in-process call observes: the same
values, failures and attempt counts, ``resilience.*`` counters, merged
unit metrics, and checkpoint records.  Because an in-process unit runs
where it settles, a raise leaves every later unit unrun and uncharged,
and a recovered unit's budget charges land where a fault-free run puts
them.
"""

import json

import numpy as np
import pytest

from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.exceptions import InstanceExecutionError
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder, current_recorder, use_recorder
from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
from repro.resilience import (
    FaultPlan,
    PoisonedResultError,
    ResilienceConfig,
    ResilientExecutor,
    RetryPolicy,
    SimulatedCrashError,
    SimulatedTimeoutError,
    SweepCheckpoint,
    use_resilience,
)

#: crash@1 and poison@6 are permanent, timeout@3 exhausts its 2 retries
#: and transient@5 recovers on its first retry.
PLAN = FaultPlan.parse("crash@1,timeout@3:5,transient@5:1,poison@6")
RETRY = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0)
N_UNITS = 8
QUARANTINED = {
    1: (SimulatedCrashError, 1),
    3: (SimulatedTimeoutError, 3),
    6: (PoisonedResultError, 1),
}


def _unit(scale, seed):
    """A seeded unit that records a counter, a histogram sample and a span."""
    recorder = current_recorder()
    with recorder.span("sweep_point", "executor-unit"):
        value = scale * float(np.random.default_rng(seed).random())
        recorder.count("test.units")
        recorder.observe("test.value", value)
    return value


def _encode(value):
    return {"value": value}


def _decode(payload):
    return payload["value"]


def _seeds():
    return np.random.SeedSequence(2016).spawn(N_UNITS)


def _executor(tmp_path, name):
    recorder = MetricsRecorder()
    checkpoint = SweepCheckpoint(tmp_path / f"{name}.jsonl", context={"test": "executor"})
    with use_resilience(ResilienceConfig(retry=RETRY, fault_plan=PLAN)), use_recorder(recorder):
        executor = ResilientExecutor(checkpoint=checkpoint)
    return executor, recorder, checkpoint


def _run(tmp_path, name, *, width, on_error):
    executor, recorder, checkpoint = _executor(tmp_path, name)
    seeds = _seeds()
    args = [(float(i + 1), seed) for i, seed in enumerate(seeds)]
    try:
        done = executor.run_units(
            _unit, args, seeds, width=width, on_error=on_error, encode=_encode, decode=_decode
        )
    except InstanceExecutionError as error:
        return None, [error], recorder, checkpoint
    return list(done.values), list(done.failed), recorder, checkpoint


def _one_at_a_time(tmp_path, *, on_error):
    """The in-process call: each unit settles before the next one starts."""
    return _run(tmp_path, "single", width=None, on_error=on_error)


def _records(checkpoint):
    lines = checkpoint.path.read_text().splitlines()[1:]
    return [
        (obj["key"], obj["index"], obj["payload"])
        for obj in (json.loads(line) for line in lines)
    ]


def _failures(failed):
    return [(f.index, type(f.cause), f.attempts) for f in failed]


def _unit_spans(recorder):
    return [(s.kind, s.name, s.attrs) for s in recorder.spans]


@pytest.mark.parametrize("width", [None, 2])
def test_quarantine_equals_one_unit_at_a_time(tmp_path, width):
    values, failed, rec, ckpt = _one_at_a_time(tmp_path, on_error="quarantine")
    multi_values, multi_failed, multi_rec, multi_ckpt = _run(
        tmp_path, f"multi-{width}", width=width, on_error="quarantine"
    )
    assert multi_values == values
    assert values == [
        None if i in QUARANTINED else _unit(float(i + 1), seed) for i, seed in enumerate(_seeds())
    ]
    assert _failures(multi_failed) == _failures(failed)
    assert {i: (cause, n) for i, cause, n in _failures(failed)} == QUARANTINED
    assert rec.counters["resilience.quarantined"] == len(QUARANTINED)
    assert multi_rec.counters == rec.counters
    assert multi_rec.counters["resilience.recovered"] == 1
    assert multi_rec.counters["test.units"] == N_UNITS - len(QUARANTINED)
    assert multi_rec.histograms == rec.histograms
    assert _unit_spans(multi_rec) == _unit_spans(rec)
    assert _records(multi_ckpt) == _records(ckpt)
    assert [index for _key, index, _payload in _records(ckpt)] == [0, 2, 4, 5, 7]


@pytest.mark.parametrize("width", [None, 2])
def test_raise_equals_one_unit_at_a_time(tmp_path, width):
    _, failed, rec, ckpt = _one_at_a_time(tmp_path, on_error="raise")
    _, multi_failed, multi_rec, multi_ckpt = _run(
        tmp_path, f"multi-{width}", width=width, on_error="raise"
    )
    assert _failures(multi_failed) == _failures(failed) == [(1, SimulatedCrashError, 1)]
    assert multi_rec.counters == rec.counters
    assert _records(multi_ckpt) == _records(ckpt)
    # Unit 0 settled, and was checkpointed, before unit 1's crash raised.
    assert [payload for _key, _index, payload in _records(ckpt)] == [
        _encode(_unit(1.0, _seeds()[0]))
    ]


@pytest.mark.parametrize("width", [None, 2])
def test_resume_replays_the_checkpoint(tmp_path, width):
    """A second call replays the checkpointed units and runs only the others."""
    first, _, _, ckpt = _run(tmp_path, f"multi-{width}", width=width, on_error="quarantine")
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        resumed = ResilientExecutor(checkpoint=ckpt).run_units(
            _unit,
            [(float(i + 1), seed) for i, seed in enumerate(_seeds())],
            _seeds(),
            width=width,
            decode=_decode,
        )
    fresh = [_unit(float(i + 1), seed) for i, seed in enumerate(_seeds())]
    assert list(resumed.values) == fresh
    assert [v for v in first if v is not None] == [
        v for i, v in enumerate(fresh) if i not in QUARANTINED
    ]
    assert recorder.counters["resilience.checkpoint.hits"] == N_UNITS - len(QUARANTINED)
    # The quarantined units run again now that no fault is planned.
    assert recorder.counters["resilience.checkpoint.writes"] == len(QUARANTINED)


def test_unknown_error_policy_is_rejected():
    with pytest.raises(ValueError, match="on_error"):
        ResilientExecutor().run_units(_unit, [], [], on_error="ignore")


class _DrawThenTimeOut:
    """Records one ledger draw per call; the first call then times out."""

    def __init__(self):
        self.calls = 0

    def __call__(self, epsilon):
        current_recorder().ledger.record("m", epsilon=epsilon, sensitivity=1.0, call=self.calls)
        self.calls += 1
        if self.calls == 1:
            raise SimulatedTimeoutError("timed out after the draw")
        return epsilon


def test_failed_attempt_draws_merge_ahead_and_are_checkpointed(tmp_path):
    """A recovered unit keeps the draw its failed attempt made, ahead of its
    own, in the sink and in the checkpoint a resumed run replays."""
    seeds = _seeds()[:1]
    checkpoint = SweepCheckpoint(tmp_path / "draws.jsonl", context={"test": "draws"})
    recorder = MetricsRecorder()
    with use_resilience(ResilienceConfig(retry=RETRY)), use_recorder(recorder):
        done = ResilientExecutor(checkpoint=checkpoint).run_units(
            _DrawThenTimeOut(), [(0.1,)], seeds
        )
    assert done.values == (0.1,)
    assert [e.attrs["call"] for e in recorder.ledger.entries] == [0, 1]
    assert done.snapshots[0]["ledger"] == recorder.ledger.snapshot()
    # The failed attempt's counters and spans stay discarded.
    assert recorder.counters["resilience.retries"] == 1

    resumed = MetricsRecorder()
    with use_recorder(resumed):
        ResilientExecutor(checkpoint=checkpoint).run_units(_DrawThenTimeOut(), [(0.1,)], seeds)
    assert resumed.counters["resilience.checkpoint.hits"] == 1
    assert resumed.ledger.snapshot() == recorder.ledger.snapshot()


def test_quarantined_unit_keeps_only_its_draws():
    """A unit that never recovers contributes its ledger and nothing else."""
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        done = ResilientExecutor().run_units(
            _DrawThenTimeOut(), [(0.25,)], _seeds()[:1], on_error="quarantine"
        )
    assert done.values == (None,)
    assert set(done.snapshots[0]) == {"ledger"}
    assert recorder.ledger.total_epsilon == 0.25
    assert not recorder.spans


def _serial_batch(mechanism, batch, seed, *, plan=None, on_error="quarantine"):
    """Run ``batch`` serially under ``plan`` and one zero-delay retry."""
    chaos = ResilienceConfig(
        retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
        fault_plan=None if plan is None else FaultPlan.parse(plan),
    )
    with use_resilience(chaos):
        return BatchAuctionRunner(mechanism, backend="serial", on_error=on_error).run(
            batch, seed=seed
        )


def test_recovered_unit_charges_where_a_fault_free_run_does():
    """Unit 0's retry is admitted before units 1 and 2 draw, so the budget
    degrades the same unit it degrades without the fault."""
    batch = seeded_auction_batch(3, n_workers=25, n_tasks=5, seed=0)
    runs = []
    for plan in (None, "transient@0:1"):
        store = InMemoryBudgetStore(limit=1.0)
        with use_budget_store(store, on_exhausted="degrade"):
            result = _serial_batch(DPHSRCAuction(0.5), batch, 3, plan=plan)
        runs.append((result, json.dumps(store.account("default").to_json_obj())))
    (clean, clean_account), (recovered, recovered_account) = runs
    assert [o.degraded for o in clean.outcomes] == [False, False, True]
    assert [o.degraded for o in recovered.outcomes] == [False, False, True]
    for left, right in zip(clean.outcomes, recovered.outcomes):
        assert left.price == right.price
        assert np.array_equal(left.winners, right.winners)
    assert recovered_account == clean_account


def test_in_process_raise_leaves_later_units_unrun_and_uncharged():
    """``crash@1`` raises before units 2 and 3 start, so the store holds
    exactly the ε the settled units' ledger holds."""
    ran = []

    class Counting(DPHSRCAuction):
        def run(self, instance, rng=None):
            ran.append(instance)
            return super().run(instance, rng)

    batch = seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=0)
    store, recorder = InMemoryBudgetStore(limit=100.0), MetricsRecorder()
    with pytest.raises(InstanceExecutionError) as info:
        with use_budget_store(store), use_recorder(recorder):
            _serial_batch(Counting(0.5), batch, 1, plan="crash@1", on_error="raise")
    assert info.value.index == 1
    assert store.spent("default") == recorder.ledger.total_epsilon == 0.5
    # The planned crash fires before unit 1's body, so only unit 0 ran.
    assert [i for i, instance in enumerate(batch) if any(instance is r for r in ran)] == [0]
