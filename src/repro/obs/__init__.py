"""Observability for the auction pipeline: spans, metrics, ε ledger.

The ROADMAP's north star is a platform clearing heavy auction traffic;
operating one requires knowing *where time and privacy budget go*.  This
package supplies that substrate in three layers:

* :mod:`repro.obs.recorder` — the span/counter/histogram recorder API.
  Instrumented code (``DPHSRCAuction.price_pmf``, ``greedy_cover``,
  ``BatchAuctionRunner``, ``payment_sweep``) fetches the ambient
  recorder via :func:`current_recorder`; the default
  :data:`NULL_RECORDER` makes every probe a no-op, and installing a
  :class:`MetricsRecorder` with :func:`use_recorder` captures per-phase
  timings and counters **without changing a single outcome bit** (the
  invariance suite asserts this over 50 seeds and across process-pool
  backends).
* :mod:`repro.obs.ledger` — :class:`PrivacyLedger`, an audit log of
  every ε-consuming draw (mechanism, ε, sensitivity, composition rule),
  composed by the one core in :mod:`repro.privacy.composition`; budgets
  are enforced by the :mod:`repro.privacy.budget` store it forwards to.
* :mod:`repro.obs.trace` — JSON-lines export (schema ``repro-trace/1``),
  the validator shared with CI's ``obs-smoke`` job, and the ASCII
  summary report.

Quickstart
----------
>>> from repro import DPHSRCAuction
>>> from repro.bench import seeded_auction_batch
>>> from repro.obs import MetricsRecorder, use_recorder
>>> [instance] = seeded_auction_batch(1, n_workers=25, n_tasks=5, seed=0)
>>> rec = MetricsRecorder()
>>> with use_recorder(rec):
...     outcome = DPHSRCAuction(epsilon=0.5).run(instance, seed=1)
>>> rec.ledger.total_epsilon
0.5
>>> sorted(rec.span_counts_by_kind())
['exp_mech', 'greedy_group', 'price_set', 'sample']
"""

from repro.obs.aggregate import DEFAULT_RELATIVE_ERROR, QuantileSketch
from repro.obs.clock import (
    MONOTONIC_CLOCK,
    Clock,
    FakeClock,
    MonotonicClock,
    current_clock,
    use_clock,
)
from repro.obs.encoding import dumps_json
from repro.obs.export import parse_openmetrics, render_metrics_json, render_openmetrics
from repro.obs.ledger import LedgerEntry, PrivacyLedger
from repro.obs.recorder import (
    METRICS_SCHEMA,
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    SpanEvent,
    current_recorder,
    use_recorder,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    build_trace_lines,
    read_trace,
    render_report,
    render_trace_report,
    validate_trace_file,
    validate_trace_lines,
)

__all__ = [
    # recorder
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "SpanEvent",
    "METRICS_SCHEMA",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    # aggregation
    "QuantileSketch",
    "DEFAULT_RELATIVE_ERROR",
    # clock
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "MONOTONIC_CLOCK",
    "current_clock",
    "use_clock",
    # encoding
    "dumps_json",
    # export
    "render_openmetrics",
    "render_metrics_json",
    "parse_openmetrics",
    # ledger
    "PrivacyLedger",
    "LedgerEntry",
    # trace
    "TRACE_SCHEMA",
    "build_trace_lines",
    "validate_trace_lines",
    "validate_trace_file",
    "read_trace",
    "render_report",
    "render_trace_report",
]
