"""Span/metric recorders for the auction pipeline.

The recorder API is deliberately tiny — three verbs cover everything the
pipeline needs to explain itself:

* :meth:`Recorder.span` — a context manager timing one phase of work
  (price-set construction, one greedy cover group, the
  exponential-mechanism scoring, the final price draw, …);
* :meth:`Recorder.count` — a monotone counter (greedy iterations,
  candidates scanned, auction runs);
* :meth:`Recorder.observe` — a value histogram (residual demand left
  after each greedy step, winner-set sizes).

Instrumented code fetches the ambient recorder once per call via
:func:`current_recorder` (a field of :class:`~repro.context.RunContext`,
so nested scopes and threads compose correctly) and the default is the shared
:data:`NULL_RECORDER`, whose every verb is a no-op — uninstrumented runs
pay only a handful of no-op method calls per auction.

Instrumentation is **outcome-invariant by construction**: recorders only
read timestamps and values, never touch a random generator, and never
feed anything back into the computation, so auction outcomes and PMFs
are bit-identical with any recorder attached (the invariance test suite
asserts this over 50 seeds).

For parallel execution the pattern is *fresh recorder per unit of work,
deterministic merge*: each batch instance or sweep point runs under its
own :class:`MetricsRecorder`, whose picklable :meth:`MetricsRecorder.snapshot`
travels back to the parent, and snapshots are merged in **input order** —
so the serial and process-pool backends produce identical merged
counters and histograms (span wall-clock naturally differs).

Histograms are stored as bounded
:class:`~repro.obs.aggregate.QuantileSketch` summaries (snapshot schema
``repro-metrics/2``), not raw sample lists: a million observations of a
metric cost a few hundred integer buckets instead of a million floats,
and sketch merging is bucket-count addition, so the serial and pooled
paths still agree bit-for-bit on every quantile.
:meth:`MetricsRecorder.merge_snapshot` transparently absorbs v1
(raw-list) snapshots from older checkpoints by re-observing the samples.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from repro.context import current_context, use_context
from repro.obs.aggregate import DEFAULT_RELATIVE_ERROR, QuantileSketch
from repro.obs.clock import current_clock

# Canonical home of the shared trace encoder is repro.obs.encoding;
# re-exported here because every telemetry writer historically imported
# it from the recorder module.
from repro.obs.encoding import dumps_json  # noqa: F401
from repro.obs.ledger import PrivacyLedger

__all__ = [
    "METRICS_SCHEMA",
    "SpanEvent",
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "dumps_json",
]

logger = logging.getLogger("repro.obs")

#: Snapshot schema identifier.  v2 serializes histograms as
#: :class:`~repro.obs.aggregate.QuantileSketch` objects; v1 snapshots
#: (raw sample lists, no ``schema`` key) are still merged losslessly.
METRICS_SCHEMA = "repro-metrics/2"

#: Canonical span kinds emitted by the instrumented pipeline.  The
#: vocabulary is open (recorders accept any string) but these are the
#: kinds the trace validator and the bench harness know about:
#:
#: - ``price_set``   — feasible-price-set construction + price grouping
#: - ``greedy_group`` — one plan's cover sweep over all affordable-worker
#:   groups (one chained solve for the greedy kernels)
#: - ``exp_mech``    — exponential-mechanism scoring/normalization
#: - ``sample``      — drawing the final outcome from the PMF
#: - ``batch``       — one :class:`~repro.bench.BatchAuctionRunner` batch
#: - ``sweep_point`` — one payment-sweep evaluation point
#: - ``experiment``  — one CLI experiment invocation
#: - ``retry``       — one resilience backoff-and-retry of a failed unit
#: - ``online_stage`` — one stage of an online threshold mechanism
#: - ``campaign_cell`` — one cell of a :mod:`repro.campaign` run
#:
#: ``tests/test_obs_recorder.py`` checks that every literal kind passed to
#: ``.span(...)`` under ``src/`` is listed here.
SPAN_KINDS = (
    "price_set",
    "greedy_group",
    "exp_mech",
    "sample",
    "batch",
    "sweep_point",
    "experiment",
    "retry",
    "online_stage",
    "campaign_cell",
)


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: what ran, for how long, with which attributes.

    Attributes
    ----------
    kind:
        Phase category (see :data:`SPAN_KINDS` for the canonical set).
    name:
        Specific operation label, e.g. ``"dp-hsrc.greedy_group"``.
    seconds:
        Wall-clock duration.
    attrs:
        JSON-serializable context (sizes, counts, labels).
    start:
        Seconds since the owning recorder was constructed (its clock
        epoch), or ``None`` for spans merged from pre-``start`` traces.
        Offsets from different recorders share an epoch only per
        recorder — the trace gantt correlates them via the stamped
        ``trace_id``/``unit`` attrs, not by absolute time.
    """

    kind: str
    name: str
    seconds: float
    attrs: dict = field(default_factory=dict)
    start: float | None = None

    def to_json_obj(self) -> dict:
        """The span as a plain dict ready for the JSON-lines trace."""
        obj = {
            "type": "span",
            "kind": self.kind,
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }
        if self.start is not None:
            obj["start"] = self.start
        return obj


class _NullSpan:
    """Reusable do-nothing span handed out by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (no-op)."""


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An in-flight timed span owned by a :class:`MetricsRecorder`."""

    __slots__ = ("_recorder", "kind", "name", "attrs", "_start")

    def __init__(self, recorder: "MetricsRecorder", kind: str, name: str, attrs: dict):
        self._recorder = recorder
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach extra attributes discovered while the span runs."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        self._start = self._recorder._clock.now()
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self._recorder
        seconds = recorder._clock.now() - self._start
        recorder._record_span(
            SpanEvent(
                kind=self.kind,
                name=self.name,
                seconds=seconds,
                attrs=self.attrs,
                start=self._start - recorder._epoch,
            )
        )
        return False


class Recorder:
    """No-op base recorder; :class:`MetricsRecorder` overrides every verb.

    The base class *is* the null implementation so the hot path never
    branches: instrumented code calls the same three verbs whether or
    not anyone is listening.
    """

    #: Whether this recorder keeps anything.  Hot loops may use this to
    #: skip computing values that exist only to be observed.
    enabled: bool = False

    @property
    def ledger(self) -> PrivacyLedger:
        """The privacy-budget ledger attached to this recorder.

        The null recorder exposes a shared discarding ledger so
        ε-consuming call sites can record unconditionally.
        """
        return _NULL_LEDGER

    def span(self, kind: str, name: str = "", **attrs):
        """Open a timed span; use as a context manager."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of histogram ``name``."""


class NullRecorder(Recorder):
    """The zero-overhead default recorder: records nothing, returns nothing.

    All instances behave identically; the module-level
    :data:`NULL_RECORDER` singleton is what :func:`current_recorder`
    returns when no recorder is installed.
    """


#: The shared default recorder (every verb is a no-op).
NULL_RECORDER = NullRecorder()

#: Shared discarding ledger backing ``NULL_RECORDER.ledger``.
_NULL_LEDGER = PrivacyLedger(keep=False)


class MetricsRecorder(Recorder):
    """A recorder that keeps spans, counters, histograms, and a ledger.

    Parameters
    ----------
    relative_error:
        Accuracy α of the histogram sketches (default 1%); every
        quantile reported for an observed metric is within ``±α``
        relative error of the exact sample quantile.
    trace:
        Optional trace-correlation context — a mapping such as
        ``{"trace_id": ..., "parent_span": ..., "unit": ...}`` stamped
        into the attrs of every span this recorder records, so spans
        from per-unit worker recorders can be reassembled into one
        timeline after snapshot merging.

    Examples
    --------
    >>> from repro.obs import MetricsRecorder
    >>> rec = MetricsRecorder()
    >>> with rec.span("greedy_group", "demo", n_candidates=3):
    ...     rec.count("greedy.iterations", 2)
    >>> rec.counters["greedy.iterations"]
    2.0
    >>> rec.spans[0].kind
    'greedy_group'
    """

    enabled = True

    def __init__(
        self,
        *,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        trace: Mapping | None = None,
    ) -> None:
        self.spans: list[SpanEvent] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, QuantileSketch] = {}
        self.relative_error = float(relative_error)
        self.trace_context: dict = dict(trace or {})
        self._ledger = PrivacyLedger()
        self._clock = current_clock()
        self._epoch = self._clock.now()

    @property
    def ledger(self) -> PrivacyLedger:
        """The live privacy-budget ledger of this recorder."""
        return self._ledger

    # -- the three verbs ------------------------------------------------

    def span(self, kind: str, name: str = "", **attrs) -> _LiveSpan:
        """Open a timed span recording ``kind``/``name`` on exit."""
        return _LiveSpan(self, str(kind), str(name) or str(kind), dict(attrs))

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        """Absorb one sample into the sketch of histogram ``name``."""
        sketch = self.histograms.get(name)
        if sketch is None:
            sketch = self.histograms[name] = QuantileSketch(
                relative_error=self.relative_error
            )
        sketch.observe(value)

    def _record_span(self, event: SpanEvent) -> None:
        if self.trace_context:
            # The correlation context wins over same-named span attrs:
            # trace identity is recorder-level configuration, and a span
            # must not be able to reparent itself out of its unit.
            attrs = dict(event.attrs)
            attrs.update(self.trace_context)
            event = SpanEvent(
                kind=event.kind,
                name=event.name,
                seconds=event.seconds,
                attrs=attrs,
                start=event.start,
            )
        self.spans.append(event)

    # -- aggregation ----------------------------------------------------

    def span_seconds_by_kind(self) -> dict[str, float]:
        """Total seconds per span kind, keys sorted for determinism."""
        totals: dict[str, float] = {}
        for event in self.spans:
            totals[event.kind] = totals.get(event.kind, 0.0) + event.seconds
        return dict(sorted(totals.items()))

    def span_counts_by_kind(self) -> dict[str, int]:
        """Number of spans per kind, keys sorted for determinism."""
        counts: dict[str, int] = {}
        for event in self.spans:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- merging --------------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable/JSON-able dump of everything recorded so far.

        The inverse operation is :meth:`merge_snapshot`; a worker process
        returns a snapshot and the parent merges it, which is how the
        process-pool backends produce the same merged metrics as the
        serial path.  Schema ``repro-metrics/2``: histograms serialize as
        :class:`~repro.obs.aggregate.QuantileSketch` objects.
        """
        return {
            "schema": METRICS_SCHEMA,
            "spans": [event.to_json_obj() for event in self.spans],
            "counters": dict(self.counters),
            "histograms": {
                name: sketch.to_json_obj() for name, sketch in self.histograms.items()
            },
            "ledger": self._ledger.snapshot(),
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold one :meth:`snapshot` into this recorder.

        Counters add, histogram sketches merge bucket-wise, spans append
        in the snapshot's order, ledger entries append.  Merging
        snapshots in a fixed (input) order is what makes pooled metrics
        deterministic.

        Accepts both schemas: a v2 histogram entry is a serialized
        sketch (merged; its accuracy must match any sketch this recorder
        already holds under the same name), a v1 entry is a raw sample
        list (re-observed at this recorder's ``relative_error`` — old
        checkpoint files keep merging losslessly).  Missing keys and the
        empty snapshot are no-ops.
        """
        for obj in snapshot.get("spans", ()):
            start = obj.get("start")
            self.spans.append(
                SpanEvent(
                    kind=obj["kind"],
                    name=obj["name"],
                    seconds=float(obj["seconds"]),
                    attrs=dict(obj.get("attrs", {})),
                    start=None if start is None else float(start),
                )
            )
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, payload in snapshot.get("histograms", {}).items():
            if isinstance(payload, Mapping):
                incoming = QuantileSketch.from_json_obj(payload)
                existing = self.histograms.get(name)
                if existing is None:
                    # Adopt the snapshot's accuracy: merging N worker
                    # snapshots into a fresh sink must not depend on the
                    # sink's own default.
                    self.histograms[name] = incoming
                else:
                    existing.merge(incoming)
            else:  # v1 back-compat: a raw list of samples
                for v in payload:
                    self.observe(name, float(v))
        self._ledger.merge_snapshot(snapshot.get("ledger", {}))
        logger.debug(
            "merged recorder snapshot: %d spans, %d counters",
            len(snapshot.get("spans", ())),
            len(snapshot.get("counters", {})),
        )

    def merge(self, other: "MetricsRecorder") -> None:
        """Fold another recorder into this one (see :meth:`merge_snapshot`)."""
        self.merge_snapshot(other.snapshot())

    # -- export ---------------------------------------------------------

    def trace_lines(self, *, meta: Mapping | None = None) -> list[str]:
        """Serialize the recorder as JSON-lines (schema ``repro-trace/1``).

        See :mod:`repro.obs.trace` for the line-type vocabulary and the
        validator.
        """
        from repro.obs.trace import build_trace_lines

        return build_trace_lines(self, meta=meta)

    def write_trace(self, path, *, meta: Mapping | None = None) -> Path:
        """Write the JSON-lines trace to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = self.trace_lines(meta=meta)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        logger.debug("flushed trace: %d lines -> %s", len(lines), path)
        return path

    def report(self) -> str:
        """Render the ASCII summary report (tables + ε composition chart)."""
        from repro.obs.trace import render_report

        return render_report(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRecorder(spans={len(self.spans)}, "
            f"counters={len(self.counters)}, ledger={len(self._ledger.entries)})"
        )


def current_recorder() -> Recorder:
    """The ambient recorder (the :data:`NULL_RECORDER` unless one is installed)."""
    recorder = current_context().recorder
    return NULL_RECORDER if recorder is None else recorder


@contextlib.contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for the ``with`` body.

    Scopes nest and restore on exit; the installation is local to the
    current thread/async task.

    Examples
    --------
    >>> from repro.obs import MetricsRecorder, current_recorder, use_recorder
    >>> rec = MetricsRecorder()
    >>> with use_recorder(rec) as active:
    ...     current_recorder() is rec
    True
    >>> current_recorder() is rec
    False
    """
    with use_context(current_context().replace(recorder=recorder)):
        yield recorder
