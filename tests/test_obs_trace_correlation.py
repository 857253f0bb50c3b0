"""Cross-process trace correlation: batch runs stamp one reconstructable
timeline into every unit recorder, identically on every backend."""

import pytest

from repro.bench import BatchAuctionRunner, seeded_auction_batch
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder, render_trace_report, use_recorder


@pytest.fixture(scope="module")
def batch():
    return seeded_auction_batch(4, n_workers=25, n_tasks=5, seed=0)


def _run(batch, *, backend, transport="pickle", seed=7):
    rec = MetricsRecorder()
    with use_recorder(rec):
        result = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.5),
            backend=backend,
            max_workers=2,
            transport=transport,
        ).run(batch, seed=seed)
    return result, rec


class TestTraceId:
    def test_deterministic_and_backend_invariant(self, batch):
        serial, _ = _run(batch, backend="serial")
        pooled, _ = _run(batch, backend="process")
        shm, _ = _run(batch, backend="process", transport="shared_memory")
        assert serial.trace_id
        assert serial.trace_id == pooled.trace_id == shm.trace_id
        again, _ = _run(batch, backend="serial")
        assert again.trace_id == serial.trace_id

    def test_different_seed_different_trace(self, batch):
        a, _ = _run(batch, backend="serial", seed=7)
        b, _ = _run(batch, backend="serial", seed=8)
        assert a.trace_id != b.trace_id

    def test_no_recorder_no_trace(self, batch):
        result = BatchAuctionRunner(
            DPHSRCAuction(epsilon=0.5), backend="serial"
        ).run(batch, seed=7)
        assert result.trace_id is None
        assert result.metrics is None
        with pytest.raises(ValueError, match="recorder"):
            result.render_openmetrics()


class TestSpanStamping:
    def test_every_unit_span_carries_the_context(self, batch):
        result, rec = _run(batch, backend="process")
        units = set()
        for event in rec.spans:
            if event.kind == "batch":
                assert event.attrs["trace_id"] == result.trace_id
                assert event.attrs["span_id"] == f"{result.trace_id}:batch"
                continue
            assert event.attrs["trace_id"] == result.trace_id
            assert event.attrs["parent_span"] == f"{result.trace_id}:batch"
            units.add(event.attrs["unit"])
        assert units == {0, 1, 2, 3}

    def test_spans_carry_start_offsets(self, batch):
        _, rec = _run(batch, backend="serial")
        starts = [e.start for e in rec.spans if e.kind != "batch"]
        assert all(isinstance(s, float) and s >= 0.0 for s in starts)

    def test_merged_snapshots_identical_across_backends(self, batch):
        import json

        serial, rec_s = _run(batch, backend="serial")
        pooled, rec_p = _run(batch, backend="process")

        def unit_spans(rec):
            return [
                e.to_json_obj()["attrs"] for e in rec.spans if e.kind != "batch"
            ]

        assert unit_spans(rec_s) == unit_spans(rec_p)
        keys = ("counters", "histograms", "ledger")
        assert json.dumps(
            {k: serial.metrics[k] for k in keys}, sort_keys=True
        ) == json.dumps({k: pooled.metrics[k] for k in keys}, sort_keys=True)


class TestTimelineRendering:
    def test_report_renders_a_gantt(self, batch):
        result, rec = _run(batch, backend="serial")
        report = rec.report()
        assert "Span timeline" in report
        assert f"{result.trace_id[:8]}/u0" in report
        assert "per-unit clocks" in report

    def test_trace_file_round_trips_through_the_offline_report(self, batch, tmp_path):
        from repro.obs import read_trace, validate_trace_file

        result, rec = _run(batch, backend="process")
        path = rec.write_trace(tmp_path / "batch.jsonl")
        validate_trace_file(path)
        report = render_trace_report(read_trace(path))
        assert "Span timeline" in report
        assert f"{result.trace_id[:8]}/u3" in report

    def test_result_metrics_render_openmetrics(self, batch):
        result, _ = _run(batch, backend="serial")
        from repro.obs import parse_openmetrics

        families = parse_openmetrics(result.render_openmetrics())
        assert "repro_batch_instances" in families
        assert "repro_privacy_epsilon" in families
