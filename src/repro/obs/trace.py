"""JSON-lines trace export, schema validation, and the ASCII report.

A trace is a plain-text file with one JSON object per line (schema
``repro-trace/1``).  The first line is always the ``meta`` header; the
remaining lines each carry a ``type`` from :data:`LINE_TYPES`:

``meta``
    ``{"type": "meta", "schema": "repro-trace/1", ...}`` — file header;
    free-form extra keys (generator, seed, experiment name).
``span``
    One timed phase: ``kind``, ``name``, ``seconds`` (≥ 0), ``attrs``,
    and optionally ``start`` (seconds since the owning recorder's clock
    epoch — present for live-recorded spans, absent in pre-``start``
    traces).  Batch-correlated spans additionally carry ``trace_id``,
    ``parent_span``, and ``unit`` inside ``attrs`` (see
    :class:`~repro.bench.BatchAuctionRunner`), which is what lets a
    merged trace reconstruct one timeline per batch.
``counter``
    Final counter value: ``name``, ``value``.
``hist``
    Histogram summary: ``name``, ``count``, ``sum``, ``min``, ``max``,
    ``mean``, plus sketch quantiles ``p50``/``p90``/``p99`` and their
    accuracy ``relative_error`` (the recorder keeps a bounded
    :class:`~repro.obs.aggregate.QuantileSketch`, not raw samples).
``ledger``
    One ε-consuming draw: ``mechanism``, ``epsilon``, ``sensitivity``,
    ``composition`` (``sequential``/``parallel``), ``attrs``.
``ledger_total``
    Trailer: ``total_epsilon``, ``sequential_epsilon``,
    ``parallel_epsilon``, ``n_entries``, ``budget`` (now always
    ``null``).  The validator recomposes the ``ledger`` lines and rejects
    the file when the trailer disagrees.

:func:`validate_trace_lines` is shared by the test suite and the CI
``obs-smoke`` job; it raises :class:`~repro.exceptions.ValidationError`
on any malformed line and returns a summary dict (distinct span kinds,
counter values, composed ε) for further assertions.
:func:`render_trace_report` renders the same ASCII report
:meth:`~repro.obs.MetricsRecorder.report` produces, but from a saved
trace file's parsed lines (the CLI ``repro trace report`` path).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.exceptions import ValidationError
from repro.obs.encoding import dumps_json
from repro.privacy.composition import Composition, compose
from repro.utils.ascii_plot import ascii_chart
from repro.utils.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.recorder import MetricsRecorder

__all__ = [
    "TRACE_SCHEMA",
    "LINE_TYPES",
    "build_trace_lines",
    "validate_trace_lines",
    "validate_trace_file",
    "read_trace",
    "render_report",
    "render_trace_report",
]

logger = logging.getLogger("repro.obs.trace")

#: Current trace schema identifier (first line of every trace).
TRACE_SCHEMA = "repro-trace/1"

#: The closed set of line types a valid trace may contain.
LINE_TYPES = ("meta", "span", "counter", "hist", "ledger", "ledger_total")

#: Keys every line type must carry (beyond ``type``).
_REQUIRED_KEYS = {
    "meta": ("schema",),
    "span": ("kind", "name", "seconds", "attrs"),
    "counter": ("name", "value"),
    "hist": ("name", "count", "sum", "min", "max", "mean"),
    "ledger": ("mechanism", "epsilon", "sensitivity", "composition", "attrs"),
    "ledger_total": (
        "total_epsilon",
        "sequential_epsilon",
        "parallel_epsilon",
        "n_entries",
        "budget",
    ),
}


def build_trace_lines(
    recorder: "MetricsRecorder", *, meta: Mapping | None = None
) -> list[str]:
    """Serialize a recorder into schema ``repro-trace/1`` JSON lines.

    Line order is deterministic: the meta header, spans in completion
    order, counters and histogram summaries sorted by name, ledger
    entries in record order, then the ledger trailer.
    """
    header = {"type": "meta", "schema": TRACE_SCHEMA}
    header.update(dict(meta or {}))
    lines = [dumps_json(header)]
    for event in recorder.spans:
        lines.append(dumps_json(event.to_json_obj()))
    for name in sorted(recorder.counters):
        lines.append(
            dumps_json({"type": "counter", "name": name, "value": recorder.counters[name]})
        )
    for name in sorted(recorder.histograms):
        sketch = recorder.histograms[name]
        obj = {"type": "hist", "name": name, "relative_error": sketch.relative_error}
        obj.update(sketch.summary())
        lines.append(dumps_json(obj))
    ledger = recorder.ledger
    for entry in ledger.entries:
        lines.append(dumps_json(entry.to_json_obj()))
    lines.append(
        dumps_json(
            {
                "type": "ledger_total",
                "total_epsilon": ledger.total_epsilon,
                "sequential_epsilon": ledger.sequential_epsilon,
                "parallel_epsilon": ledger.parallel_epsilon,
                "n_entries": len(ledger.entries),
                "budget": None,
            }
        )
    )
    return lines


def _fail(line_no: int, message: str) -> ValidationError:
    return ValidationError(f"trace line {line_no}: {message}")


def validate_trace_lines(lines: Iterable[str]) -> dict:
    """Validate JSON-lines trace content; raise on any violation.

    Checks performed:

    * every line parses as a JSON object with a known ``type`` carrying
      that type's required keys;
    * the first line is a ``meta`` header with schema
      :data:`TRACE_SCHEMA`;
    * span ``seconds`` are non-negative (and ``start``, when present, is
      a non-negative number); ledger ``epsilon`` and ``sensitivity`` are
      positive; compositions are known;
    * the ``ledger_total`` trailer (required when any ``ledger`` line
      exists) matches the composition recomputed from the entries.

    Returns
    -------
    dict
        Summary with ``span_kinds`` (sorted distinct kinds),
        ``n_spans``, ``counters``, ``ledger_entries``, and
        ``total_epsilon``.

    Raises
    ------
    ValidationError
        On the first malformed or inconsistent line.
    """
    span_kinds: set[str] = set()
    counters: dict[str, float] = {}
    n_spans = 0
    entries: list[dict] = []
    trailer: dict | None = None
    n_lines = 0

    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        n_lines += 1
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _fail(line_no, f"not valid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise _fail(line_no, "not a JSON object")
        line_type = obj.get("type")
        if line_type not in LINE_TYPES:
            raise _fail(line_no, f"unknown line type {line_type!r}")
        missing = [key for key in _REQUIRED_KEYS[line_type] if key not in obj]
        if missing:
            raise _fail(line_no, f"{line_type} line missing keys {missing}")
        if n_lines == 1:
            if line_type != "meta":
                raise _fail(line_no, "first line must be the meta header")
            if obj["schema"] != TRACE_SCHEMA:
                raise _fail(line_no, f"unsupported schema {obj['schema']!r}")
        if line_type == "span":
            if not isinstance(obj["seconds"], (int, float)) or obj["seconds"] < 0:
                raise _fail(line_no, f"span seconds must be >= 0, got {obj['seconds']!r}")
            start = obj.get("start")
            if start is not None and (
                not isinstance(start, (int, float)) or start < 0
            ):
                raise _fail(line_no, f"span start must be >= 0, got {start!r}")
            span_kinds.add(str(obj["kind"]))
            n_spans += 1
        elif line_type == "counter":
            counters[str(obj["name"])] = float(obj["value"])
        elif line_type == "hist":
            for key in ("p50", "p90", "p99"):
                if key in obj and not isinstance(obj[key], (int, float)):
                    raise _fail(line_no, f"hist {key} must be a number, got {obj[key]!r}")
        elif line_type == "ledger":
            if not (isinstance(obj["epsilon"], (int, float)) and obj["epsilon"] > 0):
                raise _fail(line_no, f"ledger epsilon must be > 0, got {obj['epsilon']!r}")
            if not (isinstance(obj["sensitivity"], (int, float)) and obj["sensitivity"] > 0):
                raise _fail(
                    line_no, f"ledger sensitivity must be > 0, got {obj['sensitivity']!r}"
                )
            if obj["composition"] not in ("sequential", "parallel"):
                raise _fail(line_no, f"unknown composition {obj['composition']!r}")
            entries.append(obj)
        elif line_type == "ledger_total":
            trailer = obj

    if n_lines == 0:
        raise ValidationError("trace is empty")
    if entries and trailer is None:
        raise ValidationError("trace has ledger entries but no ledger_total trailer")

    total = compose(entries).total
    if trailer is not None:
        if int(trailer["n_entries"]) != len(entries):
            raise ValidationError(
                f"ledger_total counts {trailer['n_entries']} entries, trace has {len(entries)}"
            )
        if abs(float(trailer["total_epsilon"]) - total) > 1e-9:
            raise ValidationError(
                f"ledger_total ε {trailer['total_epsilon']!r} does not match the "
                f"composition of the entries ({total!r})"
            )

    return {
        "span_kinds": sorted(span_kinds),
        "n_spans": n_spans,
        "counters": counters,
        "ledger_entries": len(entries),
        "total_epsilon": total,
    }


def validate_trace_file(path) -> dict:
    """Read ``path`` and :func:`validate_trace_lines` its content."""
    text = Path(path).read_text(encoding="utf-8")
    summary = validate_trace_lines(text.splitlines())
    logger.debug("validated trace %s: %s", path, summary)
    return summary


def read_trace(path) -> list[dict]:
    """Parse a trace file into a list of line objects (no validation)."""
    return [
        json.loads(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


# -- report sections ----------------------------------------------------
#
# The recorder report and the saved-trace report share these helpers:
# each takes plain data (no recorder), returns a rendered section or
# None when there is nothing to show.


def _span_section(seconds: Mapping[str, float], counts: Mapping[str, int]) -> str | None:
    if not seconds:
        return None
    total = sum(seconds.values())
    rows = [
        (
            kind,
            counts[kind],
            seconds[kind] * 1e3,
            seconds[kind] * 1e3 / counts[kind],
            100.0 * seconds[kind] / total if total > 0 else 0.0,
        )
        for kind in seconds
    ]
    return render_table(
        ["span kind", "count", "total ms", "mean ms", "share %"],
        rows,
        title="Span time by kind",
    )


def _counter_section(counters: Mapping[str, float]) -> str | None:
    if not counters:
        return None
    return render_table(
        ["counter", "value"],
        [(name, counters[name]) for name in sorted(counters)],
        title="Counters",
    )


def _hist_section(summaries: Mapping[str, Mapping]) -> str | None:
    """Histogram table from per-name summary dicts (count/min/p50/.../max)."""
    if not summaries:
        return None
    rows = []
    for name in sorted(summaries):
        s = summaries[name]
        rows.append(
            (
                name,
                int(s["count"]),
                float(s["min"]),
                float(s.get("p50", s["mean"])),
                float(s.get("p90", s["max"])),
                float(s.get("p99", s["max"])),
                float(s["max"]),
            )
        )
    return render_table(
        ["histogram", "count", "min", "p50", "p90", "p99", "max"],
        rows,
        title="Value histograms",
    )


def _ledger_sections(
    entries: Sequence[Mapping], *, total_epsilon: float, budget: float | None = None
) -> list[str]:
    if not entries:
        return []
    sections: list[str] = []
    by_mechanism: dict[str, tuple[int, float]] = {}
    for entry in entries:
        count, eps = by_mechanism.get(entry["mechanism"], (0, 0.0))
        by_mechanism[entry["mechanism"]] = (count + 1, eps + float(entry["epsilon"]))
    rows = [(name, count, eps) for name, (count, eps) in sorted(by_mechanism.items())]
    budget_label = "unbounded" if budget is None else f"{budget:.6g}"
    sections.append(
        render_table(
            ["mechanism", "draws", "Σ ε"],
            rows,
            precision=6,
            title=(
                f"Privacy ledger (composed ε = {total_epsilon:.6g}, "
                f"budget = {budget_label})"
            ),
        )
    )
    if len(entries) >= 2:
        composition = Composition()
        running = [
            composition.add(float(entry["epsilon"]), entry.get("composition") == "parallel")
            for entry in entries
        ]
        sections.append(
            ascii_chart(
                list(range(1, len(running) + 1)),
                {"composed ε": running},
                width=min(64, max(8, len(running))),
                height=8,
                title="Composed ε by draw",
            )
        )
    return sections


def _unit_sort_key(value) -> tuple:
    # Units are usually ints but the attr vocabulary is open; sort
    # numbers numerically, everything else lexically after them.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


#: Max correlated spans drawn in one gantt before eliding the rest.
_GANTT_MAX_ROWS = 48


def _gantt_section(span_objs: Sequence[Mapping], *, width: int = 48) -> str | None:
    """ASCII gantt of trace-correlated spans, one lane per span.

    Only spans carrying both a ``start`` offset and a stamped
    ``trace_id`` attr participate — exactly the spans the batch runner
    correlates.  Offsets are relative to each *unit recorder's* clock
    epoch (processes do not share an epoch), so bars show the phase
    layout within each unit; rows group by ``(trace_id, unit, start)``
    to reconstruct the batch timeline unit by unit.
    """
    rows = [
        obj
        for obj in span_objs
        if obj.get("start") is not None and "trace_id" in (obj.get("attrs") or {})
    ]
    if not rows:
        return None
    rows.sort(
        key=lambda obj: (
            str(obj["attrs"]["trace_id"]),
            _unit_sort_key(obj["attrs"].get("unit", "")),
            float(obj["start"]),
        )
    )
    horizon = max(float(obj["start"]) + float(obj["seconds"]) for obj in rows)
    scale = width / horizon if horizon > 0 else 0.0
    shown = rows[:_GANTT_MAX_ROWS]
    labels = []
    for obj in shown:
        attrs = obj["attrs"]
        trace_id = str(attrs["trace_id"])
        unit = attrs.get("unit", "?")
        labels.append(f"{trace_id[:8]}/u{unit} {obj['kind']}")
    label_width = max(len(label) for label in labels)
    n_traces = len({str(obj["attrs"]["trace_id"]) for obj in rows})
    lines = [
        f"Span timeline ({len(rows)} correlated spans, {n_traces} trace(s), "
        f"horizon {horizon * 1e3:.3g} ms; per-unit clocks)"
    ]
    for label, obj in zip(labels, shown):
        begin = min(int(float(obj["start"]) * scale), width - 1)
        length = max(1, int(round(float(obj["seconds"]) * scale)))
        length = min(length, width - begin)
        bar = " " * begin + "#" * length
        lines.append(
            f"  {label:<{label_width}} |{bar:<{width}}| {float(obj['seconds']) * 1e3:10.3f} ms"
        )
    if len(rows) > len(shown):
        lines.append(f"  (+{len(rows) - len(shown)} more spans)")
    return "\n".join(lines)


def render_report(recorder: "MetricsRecorder") -> str:
    """ASCII summary of a recorder: phases, counters, histograms, ledger.

    Reuses :func:`repro.utils.tables.render_table` for the tabular parts
    and :func:`repro.utils.ascii_plot.ascii_chart` for the composed-ε
    trajectory (drawn when the ledger holds at least two entries).
    Histogram rows come from the recorder's quantile sketches
    (count/min/p50/p90/p99/max); batch-correlated spans additionally
    render as an ASCII gantt timeline.
    """
    sections: list[str] = []
    sections.append(
        _span_section(recorder.span_seconds_by_kind(), recorder.span_counts_by_kind())
    )
    sections.append(_gantt_section([e.to_json_obj() for e in recorder.spans]))
    sections.append(_counter_section(recorder.counters))
    sections.append(
        _hist_section(
            {name: sketch.summary() for name, sketch in recorder.histograms.items()}
        )
    )
    ledger = recorder.ledger
    sections.extend(
        _ledger_sections(
            [entry.to_json_obj() for entry in ledger.entries],
            total_epsilon=ledger.total_epsilon,
        )
    )
    sections = [s for s in sections if s]
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def render_trace_report(objs: Sequence[Mapping]) -> str:
    """Render the ASCII report from a *saved* trace's parsed lines.

    ``objs`` is :func:`read_trace` output.  Produces the same sections
    as :func:`render_report` — span table, gantt timeline, counters,
    histogram quantiles, ledger composition — but sourced from the
    serialized summaries, so a trace file written by another process (or
    merged from many) renders without reconstructing a recorder.
    """
    spans = [obj for obj in objs if obj.get("type") == "span"]
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for obj in spans:
        kind = str(obj["kind"])
        seconds[kind] = seconds.get(kind, 0.0) + float(obj["seconds"])
        counts[kind] = counts.get(kind, 0) + 1
    seconds = dict(sorted(seconds.items()))
    counters = {
        str(obj["name"]): float(obj["value"])
        for obj in objs
        if obj.get("type") == "counter"
    }
    summaries = {
        str(obj["name"]): obj for obj in objs if obj.get("type") == "hist"
    }
    entries = [obj for obj in objs if obj.get("type") == "ledger"]
    trailer = next(
        (obj for obj in reversed(objs) if obj.get("type") == "ledger_total"), None
    )
    if trailer is None:
        total_epsilon, budget = compose(entries).total, None
    else:  # traces written before the ledger lost its budget may carry one
        total_epsilon, budget = float(trailer["total_epsilon"]), trailer.get("budget")
    sections = [
        _span_section(seconds, counts),
        _gantt_section(spans),
        _counter_section(counters),
        _hist_section(summaries),
    ]
    sections.extend(
        _ledger_sections(entries, total_epsilon=total_epsilon, budget=budget)
    )
    sections = [s for s in sections if s]
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
