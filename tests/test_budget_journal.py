"""Durability tests for the append-only JSON-lines budget backend.

Mirrors ``test_resilience_resume.py``: a batch killed mid-run (planned
crash fault) leaves a durable budget journal; reopening it reconstructs
the composed ε of every ``(tenant, principal)`` account bit-identically,
and completing the remaining work on the reopened store lands on exactly
the accounts of an uninterrupted run.
"""

import json

import pytest

from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.exceptions import CheckpointError
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.privacy.budget import (
    BUDGET_SCHEMA,
    InMemoryBudgetStore,
    JsonlBudgetStore,
    use_budget_store,
)
from repro.resilience import FaultPlan, ResilienceConfig, use_resilience

EPS = 0.1
N = 6
TENANTS = ["acme", "globex", "acme", "initech", "globex", "acme"]


def _run(store, instances, tenants, fault_plan=None):
    runner = BatchAuctionRunner(DPHSRCAuction(epsilon=EPS), backend="serial")
    with use_resilience(ResilienceConfig(fault_plan=fault_plan)), use_budget_store(store):
        return runner.run(instances, seed=7, tenants=tenants)


class TestRoundTrip:
    def test_reopen_reproduces_composed_epsilon_exactly(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        store = JsonlBudgetStore(path, limit=1.0)
        # Awkward floats on purpose: the repr-based encoder must
        # round-trip them bit-exactly, not approximately.
        store.charge("t", "p", mechanism="m", epsilon=0.1 + 0.2 / 7)
        store.charge("t", "p", mechanism="m", epsilon=1e-9, parallel=True)
        store.charge("t", "q", mechanism="m", epsilon=0.3, degraded=True)
        store.renew("t", "p", epoch=2)
        store.charge("t", "p", mechanism="m", epsilon=0.125)
        expected = store.snapshot()
        store.close()
        reopened = JsonlBudgetStore(path, limit=1.0)
        assert reopened.snapshot() == expected
        assert reopened.spent("t", "p") == 0.125
        assert reopened.account("t", "p").epoch == 2

    def test_schema_header_is_first_line(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path, limit=0.5) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "meta"
        assert header["schema"] == BUDGET_SCHEMA
        assert header["limit"] == 0.5

    def test_journaled_overspend_replays_without_raising(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        store = JsonlBudgetStore(path, limit=0.5)
        store.charge("t", "p", mechanism="m", epsilon=0.4)
        with pytest.raises(Exception):
            store.charge("t", "p", mechanism="m", epsilon=0.4)
        store.close()
        # History already surfaced the overspend; replay reconstructs it.
        reopened = JsonlBudgetStore(path, limit=0.5)
        assert reopened.spent("t", "p") == pytest.approx(0.8)

    def test_open_for_audit_adopts_header_limits(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path, limit=0.75, limits={"vip": None}) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.25)
        audit = JsonlBudgetStore.open_for_audit(path)
        assert audit.limit_for("t") == 0.75
        assert audit.limit_for("vip") is None
        assert audit.spent("t", "p") == pytest.approx(0.25)

    def test_open_for_audit_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            JsonlBudgetStore.open_for_audit(tmp_path / "absent.jsonl")


class TestCorruption:
    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
            store.charge("t", "p", mechanism="m", epsilon=0.2)
        with path.open("a") as handle:
            handle.write('{"type": "charge", "tenant": "t", "epsi')  # killed mid-write
        reopened = JsonlBudgetStore(path)
        assert reopened.spent("t", "p") == pytest.approx(0.3)

    def test_charge_after_torn_tail_repairs_the_file(self, tmp_path):
        """Write-after-tear: the reopened store must truncate the torn
        partial line so post-crash charges land on their own lines —
        not merge into the tear and corrupt the journal mid-file."""
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        with path.open("a") as handle:
            handle.write('{"type": "charge", "tenant": "t", "epsi')  # killed mid-write
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.2)
            store.charge("t", "p", mechanism="m", epsilon=0.4)
        with JsonlBudgetStore(path) as reopened:
            assert reopened.spent("t", "p") == pytest.approx(0.7)

    def test_torn_tail_with_newline_is_truncated_on_replay(self, tmp_path):
        """A torn line that kept its newline can't be caught by the
        last-byte check on append; replay must truncate it instead."""
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        with path.open("a") as handle:
            handle.write('{"type": "charge", "tenant": "t", "epsi\n')
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.2)
        with JsonlBudgetStore(path) as reopened:
            assert reopened.spent("t", "p") == pytest.approx(0.3)

    def test_append_without_prior_replay_repairs_torn_tail(self, tmp_path):
        """The journal repairs on append even when nothing replayed
        first (the sweep checkpoint's append path)."""
        from repro.resilience import JsonlJournal

        path = tmp_path / "j.jsonl"
        journal = JsonlJournal(path, schema="test/1", label="test journal")
        journal.append({"type": "point", "x": 1})
        with path.open("a") as handle:
            handle.write('{"type": "point", "x"')  # killed mid-write
        journal.append({"type": "point", "x": 2})
        assert [obj["x"] for _, obj in journal.replay()] == [1, 2]

    def test_contradicting_limit_refuses_resume(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path, limit=0.5) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        with pytest.raises(CheckpointError, match="limit"):
            JsonlBudgetStore(path, limit=0.7)

    def test_unknown_event_type_raises(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        with path.open("a") as handle:
            handle.write('{"type": "withdraw", "tenant": "t"}\n')
            handle.write('{"type": "charge", "tenant": "t", "principal": "p", '
                         '"epsilon": 0.1}\n')
        with pytest.raises(CheckpointError, match="unknown type"):
            JsonlBudgetStore(path)

    def test_malformed_charge_event_raises(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with JsonlBudgetStore(path) as store:
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        with path.open("a") as handle:
            handle.write('{"type": "charge", "tenant": "t"}\n')
            handle.write('{"type": "charge", "tenant": "t", "principal": "p", '
                         '"epsilon": 0.1}\n')
        with pytest.raises(CheckpointError, match="bad charge event"):
            JsonlBudgetStore(path)


class TestCrashAndResume:
    def test_kill_mid_batch_then_replay_equals_uninterrupted(self, tmp_path):
        instances = seeded_auction_batch(N, n_workers=20, n_tasks=4, seed=3)

        # Golden: the uninterrupted multi-tenant batch.
        golden = JsonlBudgetStore(tmp_path / "golden.jsonl")
        _run(golden, instances, TENANTS)
        golden.close()

        # The "crash": a planned fault kills instance 3, which therefore
        # never charges; every other charge is durably journaled.
        crash_path = tmp_path / "crashed.jsonl"
        live = JsonlBudgetStore(crash_path)
        result = _run(live, instances, TENANTS, fault_plan=FaultPlan.parse("crash@3"))
        assert [err.index for err in result.failed] == [3]
        live_state = live.snapshot()
        live.close()
        del live  # the process is gone; only the journal survives

        # Replay reconstructs the crashed process's state bit-exactly.
        reopened = JsonlBudgetStore(crash_path)
        assert reopened.snapshot() == live_state

        # Resume: the quarantined instance completes on the reopened
        # store and the final accounts equal the uninterrupted run's.
        _run(reopened, [instances[3]], [TENANTS[3]])
        assert reopened.snapshot() == JsonlBudgetStore.open_for_audit(
            tmp_path / "golden.jsonl"
        ).snapshot()
        reopened.close()

    def test_journal_before_apply_ordering(self, tmp_path):
        """A charge is journaled before it lands in memory, so a kill
        between the two steps can only lose in-memory state that replay
        rebuilds — never a journaled-but-unapplied charge."""
        path = tmp_path / "budget.jsonl"
        store = JsonlBudgetStore(path)
        # Simulate the kill window: the journal has the event, the
        # in-memory store never saw it.
        store._journal.append(
            {"type": "charge", "tenant": "t", "principal": "p",
             "mechanism": "m", "epsilon": 0.25, "sensitivity": 1.0,
             "composition": "sequential", "degraded": False}
        )
        assert store.spent("t", "p") == 0.0  # memory is behind...
        store.close()
        assert JsonlBudgetStore(path).spent("t", "p") == 0.25  # ...replay is not

    def test_fsync_batching_survives_flush(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        store = JsonlBudgetStore(path, fsync_every=100)
        for _ in range(7):
            store.charge("t", "p", mechanism="m", epsilon=0.1)
        store.flush()
        store.close()
        assert JsonlBudgetStore(path).spent("t", "p") == pytest.approx(0.7)


class TestConcurrency:
    def test_concurrent_charges_replay_to_the_same_state(self, tmp_path):
        """The store's lock serializes journal append + in-memory apply
        as one unit, so threads neither interleave partial lines nor
        journal events in an order the memory state never saw — replay
        reproduces the live snapshot bit-identically."""
        import threading

        path = tmp_path / "budget.jsonl"
        store = JsonlBudgetStore(path, fsync_every=64)

        def worker(tenant):
            for _ in range(50):
                store.charge(tenant, "p", mechanism="m", epsilon=0.01)
                store.charge("shared", "p", mechanism="m", epsilon=0.01)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        live = store.snapshot()
        store.close()
        with JsonlBudgetStore(path) as reopened:
            assert reopened.snapshot() == live
            assert reopened.spent("shared", "p") == pytest.approx(4 * 50 * 0.01)


class TestParityWithInMemory:
    def test_journal_and_memory_agree_on_every_query(self, tmp_path):
        memory = InMemoryBudgetStore(limit=2.0)
        journal = JsonlBudgetStore(tmp_path / "b.jsonl", limit=2.0)
        for store in (memory, journal):
            store.charge("a", "x", mechanism="m", epsilon=0.5)
            store.charge("a", "x", mechanism="m", epsilon=0.25, parallel=True)
            store.charge("b", "y", mechanism="m", epsilon=0.125, degraded=True)
            store.renew("b", "y")
        journal.close()
        assert journal.snapshot() == memory.snapshot()
        assert journal.spent("a", "x") == memory.spent("a", "x")
        assert journal.remaining("a", "x") == memory.remaining("a", "x")
