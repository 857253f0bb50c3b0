"""Unit tests for repro.obs recorders, trace export, and the report."""

import ast
import json
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.obs import (
    NULL_RECORDER,
    TRACE_SCHEMA,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    SpanEvent,
    current_recorder,
    read_trace,
    use_recorder,
    validate_trace_file,
    validate_trace_lines,
)
from repro.obs.recorder import SPAN_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"


class TestNullRecorder:
    def test_default_ambient_recorder_is_the_null_singleton(self):
        assert current_recorder() is NULL_RECORDER
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert NULL_RECORDER.enabled is False

    def test_every_verb_is_a_noop(self):
        rec = NullRecorder()
        with rec.span("price_set", "anything", n_workers=3) as span:
            span.set(extra=1)
        rec.count("a", 5)
        rec.observe("b", 1.5)
        # The discarding ledger accepts records but keeps nothing.
        assert rec.ledger.record("m", epsilon=1.0, sensitivity=2.0) == 0.0
        assert rec.ledger.total_epsilon == 0.0
        assert len(rec.ledger) == 0

    def test_span_object_is_shared_and_reusable(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b")

    def test_base_recorder_is_the_null_implementation(self):
        rec = Recorder()
        rec.count("x")
        rec.observe("y", 0.0)
        with rec.span("sample"):
            pass
        assert rec.enabled is False


class TestMetricsRecorder:
    def test_span_records_kind_name_attrs_and_duration(self):
        rec = MetricsRecorder()
        with rec.span("greedy_group", "demo", n_candidates=4) as span:
            span.set(cover_size=2)
        assert len(rec.spans) == 1
        event = rec.spans[0]
        assert event.kind == "greedy_group"
        assert event.name == "demo"
        assert event.seconds >= 0.0
        assert event.attrs == {"n_candidates": 4, "cover_size": 2}

    def test_span_name_defaults_to_kind(self):
        rec = MetricsRecorder()
        with rec.span("sample"):
            pass
        assert rec.spans[0].name == "sample"

    def test_counters_accumulate(self):
        rec = MetricsRecorder()
        rec.count("greedy.iterations")
        rec.count("greedy.iterations", 4)
        assert rec.counters == {"greedy.iterations": 5.0}

    def test_histograms_sketch_samples(self):
        rec = MetricsRecorder()
        for v in (3.0, 1.0, 2.0):
            rec.observe("residual", v)
        sketch = rec.histograms["residual"]
        assert sketch.count == 3
        assert sketch.min == 1.0
        assert sketch.max == 3.0
        assert sketch.sum == 6.0
        assert sketch.quantile(0.5) == pytest.approx(2.0, rel=0.01)

    def test_aggregation_by_kind(self):
        rec = MetricsRecorder()
        for kind in ("sample", "exp_mech", "sample"):
            with rec.span(kind):
                pass
        assert rec.span_counts_by_kind() == {"exp_mech": 1, "sample": 2}
        seconds = rec.span_seconds_by_kind()
        assert sorted(seconds) == ["exp_mech", "sample"]
        assert all(s >= 0 for s in seconds.values())

    def test_span_exceptions_propagate_but_span_is_recorded(self):
        rec = MetricsRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("experiment", "boom"):
                raise RuntimeError("boom")
        assert rec.spans[0].name == "boom"


class TestUseRecorder:
    def test_installs_and_restores(self):
        rec = MetricsRecorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_scopes_nest(self):
        outer, inner = MetricsRecorder(), MetricsRecorder()
        with use_recorder(outer):
            with use_recorder(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer

    def test_restores_on_exception(self):
        rec = MetricsRecorder()
        with pytest.raises(ValueError):
            with use_recorder(rec):
                raise ValueError
        assert current_recorder() is NULL_RECORDER


def _populated_recorder() -> MetricsRecorder:
    rec = MetricsRecorder()
    with rec.span("price_set", "demo.price_set", n_workers=10):
        pass
    with rec.span("exp_mech", "demo.exp_mech"):
        pass
    rec.count("auction.runs", 2)
    rec.observe("greedy.residual_demand", 1.5)
    rec.observe("greedy.residual_demand", 0.5)
    rec.ledger.record("demo", epsilon=0.2, sensitivity=30.0)
    rec.ledger.record("demo", epsilon=0.3, sensitivity=30.0)
    return rec


class TestSnapshotMerge:
    def test_snapshot_round_trips_through_merge(self):
        src = _populated_recorder()
        snapshot = src.snapshot()
        # Snapshots must be JSON-able (hence picklable for the pool).
        json.dumps(snapshot)
        dst = MetricsRecorder()
        dst.merge_snapshot(snapshot)
        assert [e.to_json_obj() for e in dst.spans] == [
            e.to_json_obj() for e in src.spans
        ]
        assert dst.counters == src.counters
        assert dst.histograms == src.histograms
        assert dst.ledger.snapshot()["entries"] == src.ledger.snapshot()["entries"]
        assert dst.ledger.total_epsilon == src.ledger.total_epsilon

    def test_merge_accumulates_counters_and_ledger(self):
        a, b = _populated_recorder(), _populated_recorder()
        a.merge(b)
        assert a.counters["auction.runs"] == 4.0
        assert len(a.ledger) == 4
        assert a.ledger.total_epsilon == pytest.approx(1.0)

    def test_merge_order_determines_span_order(self):
        sink = MetricsRecorder()
        for name in ("first", "second"):
            part = MetricsRecorder()
            with part.span("batch", name):
                pass
            sink.merge_snapshot(part.snapshot())
        assert [e.name for e in sink.spans] == ["first", "second"]


class TestMergeSnapshotEdgeCases:
    def test_snapshot_carries_the_v2_schema(self):
        from repro.obs import METRICS_SCHEMA

        assert METRICS_SCHEMA == "repro-metrics/2"
        assert _populated_recorder().snapshot()["schema"] == METRICS_SCHEMA

    def test_empty_snapshot_is_a_noop(self):
        rec = _populated_recorder()
        before = rec.snapshot()
        rec.merge_snapshot({})
        assert rec.snapshot() == before

    def test_missing_keys_are_tolerated(self):
        rec = MetricsRecorder()
        rec.merge_snapshot({"counters": {"only.counter": 2.0}})
        rec.merge_snapshot({"histograms": {}})
        rec.merge_snapshot({"spans": []})
        assert rec.counters == {"only.counter": 2.0}
        assert rec.histograms == {}
        assert rec.spans == []

    def test_v1_raw_list_histograms_reobserve(self):
        rec = MetricsRecorder()
        rec.observe("residual", 10.0)
        # A pre-sketch snapshot stored the raw sample list.
        rec.merge_snapshot({"histograms": {"residual": [1.0, 2.0], "fresh": [5.0]}})
        assert rec.histograms["residual"].count == 3
        assert rec.histograms["residual"].min == 1.0
        assert rec.histograms["fresh"].count == 1

    def test_sketch_alpha_mismatch_rejected(self):
        import pytest as _pytest

        from repro.obs import QuantileSketch

        rec = MetricsRecorder()
        rec.observe("residual", 1.0)
        odd = QuantileSketch(relative_error=0.005)
        odd.observe(2.0)
        with _pytest.raises(ValueError, match="relative_error"):
            rec.merge_snapshot({"histograms": {"residual": odd.to_json_obj()}})

    def test_absent_name_adopts_the_incoming_sketch_alpha(self):
        from repro.obs import QuantileSketch

        rec = MetricsRecorder()
        odd = QuantileSketch(relative_error=0.005)
        odd.observe(2.0)
        rec.merge_snapshot({"histograms": {"fresh": odd.to_json_obj()}})
        assert rec.histograms["fresh"].relative_error == 0.005

    def test_four_way_process_merge_is_deterministic(self):
        import numpy as np

        rng = np.random.default_rng(17)
        chunks = [rng.lognormal(0.0, 1.5, size=400) for _ in range(4)]

        def merged(order):
            sink = MetricsRecorder()
            for i in order:
                part = MetricsRecorder()
                for v in chunks[i]:
                    part.observe("residual", v)
                part.count("runs")
                sink.merge_snapshot(part.snapshot())
            return sink

        serial = MetricsRecorder()
        for chunk in chunks:
            for v in chunk:
                serial.observe("residual", v)

        forward, backward = merged([0, 1, 2, 3]), merged([3, 2, 1, 0])
        for q in (0.1, 0.5, 0.9, 0.99):
            assert (
                forward.histograms["residual"].quantile(q)
                == backward.histograms["residual"].quantile(q)
                == serial.histograms["residual"].quantile(q)
            )
        assert forward.counters == {"runs": 4.0}


class TestTrace:
    def test_trace_lines_validate_and_summarize(self):
        rec = _populated_recorder()
        lines = rec.trace_lines(meta={"generator": "unit-test"})
        summary = validate_trace_lines(lines)
        assert summary["span_kinds"] == ["exp_mech", "price_set"]
        assert summary["n_spans"] == 2
        assert summary["counters"]["auction.runs"] == 2.0
        assert summary["ledger_entries"] == 2
        assert summary["total_epsilon"] == pytest.approx(0.5)

    def test_first_line_is_the_meta_header(self):
        lines = _populated_recorder().trace_lines(meta={"generator": "unit-test"})
        header = json.loads(lines[0])
        assert header["type"] == "meta"
        assert header["schema"] == TRACE_SCHEMA
        assert header["generator"] == "unit-test"

    def test_write_trace_and_read_back(self, tmp_path):
        rec = _populated_recorder()
        path = rec.write_trace(tmp_path / "sub" / "trace.jsonl")
        assert path.exists()
        summary = validate_trace_file(path)
        assert summary["ledger_entries"] == 2
        objs = read_trace(path)
        assert objs[0]["type"] == "meta"
        assert objs[-1]["type"] == "ledger_total"

    def test_empty_recorder_still_produces_a_valid_trace(self):
        summary = validate_trace_lines(MetricsRecorder().trace_lines())
        assert summary["n_spans"] == 0
        assert summary["total_epsilon"] == 0.0

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda lines: ["not json"] + lines[1:], "not valid JSON"),
            (lambda lines: lines[1:], "first line must be the meta header"),
            (
                lambda lines: [lines[0].replace("repro-trace/1", "bogus/9")] + lines[1:],
                "unsupported schema",
            ),
            (
                lambda lines: [
                    line.replace('"seconds"', '"SECONDS"') for line in lines
                ],
                "missing keys",
            ),
            (lambda lines: lines[:-1], "no ledger_total trailer"),
        ],
    )
    def test_malformed_traces_rejected(self, mutate, match):
        lines = _populated_recorder().trace_lines()
        with pytest.raises(ValidationError, match=match):
            validate_trace_lines(mutate(lines))

    def test_tampered_trailer_epsilon_rejected(self):
        lines = _populated_recorder().trace_lines()
        trailer = json.loads(lines[-1])
        trailer["total_epsilon"] = 99.0
        with pytest.raises(ValidationError, match="does not match"):
            validate_trace_lines(lines[:-1] + [json.dumps(trailer)])

    def test_negative_span_seconds_rejected(self):
        lines = [
            json.dumps({"type": "meta", "schema": TRACE_SCHEMA}),
            json.dumps(
                {
                    "type": "span",
                    "kind": "sample",
                    "name": "x",
                    "seconds": -1.0,
                    "attrs": {},
                }
            ),
        ]
        with pytest.raises(ValidationError, match="seconds"):
            validate_trace_lines(lines)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            validate_trace_lines([])


class TestReport:
    def test_report_contains_all_sections(self):
        report = _populated_recorder().report()
        assert "Span time by kind" in report
        assert "Counters" in report
        assert "Value histograms" in report
        assert "Privacy ledger" in report
        assert "composed ε = 0.5" in report
        # Two ledger entries → the composition trajectory chart appears.
        assert "Composed ε by draw" in report

    def test_empty_report_placeholder(self):
        assert MetricsRecorder().report() == "(no metrics recorded)"

    def test_spanless_recorder_skips_span_section(self):
        rec = MetricsRecorder()
        rec.count("only.counter")
        report = rec.report()
        assert "Counters" in report
        assert "Span time by kind" not in report


def literal_span_kinds(tree: ast.AST):
    """``(line, kind)`` of every ``<x>.span("<kind>", ...)`` call."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.lineno, node.args[0].value


class TestSpanKindRegistry:
    def test_every_literal_span_kind_under_src_is_registered(self):
        unregistered = []
        seen = set()
        for path in sorted(SRC.rglob("*.py")):
            for line, kind in literal_span_kinds(ast.parse(path.read_text())):
                seen.add(kind)
                if kind not in SPAN_KINDS:
                    unregistered.append(f"{path.relative_to(SRC)}:{line}: {kind!r}")
        assert not unregistered, "span kinds missing from SPAN_KINDS: " + ", ".join(unregistered)
        # The scan itself must see the pipeline's spans, or it checks nothing.
        assert {"price_set", "greedy_group", "campaign_cell"} <= seen

    def test_registry_has_no_duplicates(self):
        assert len(set(SPAN_KINDS)) == len(SPAN_KINDS)


def declared_context_vars(tree: ast.AST):
    """Line of every ``ContextVar(...)`` call, qualified or imported bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ContextVar":
                yield node.lineno


class TestOneAmbientContext:
    def test_src_declares_exactly_one_context_var(self):
        declared = [
            f"{path.relative_to(SRC).as_posix()}:{line}"
            for path in sorted(SRC.rglob("*.py"))
            for line in declared_context_vars(ast.parse(path.read_text()))
        ]
        assert len(declared) == 1, "ambient ContextVars under src/: " + ", ".join(declared)
        assert declared[0].startswith("repro/context.py:")
