"""OpenMetrics/Prometheus text exposition of recorder + budget state.

:func:`render_openmetrics` turns a :class:`~repro.obs.MetricsRecorder`
(or one of its picklable snapshots) into the OpenMetrics text format a
scrape endpoint serves — the admin-plane counterpart of the JSON-lines
trace.  Everything the recorder knows becomes a metric family:

* counters → ``repro_<name>_total`` counter families;
* histogram sketches → ``repro_<name>`` histogram families with
  cumulative ``_bucket{le="..."}`` series derived from the
  :class:`~repro.obs.aggregate.QuantileSketch` log buckets, plus exact
  ``_sum``/``_count``;
* span phases → ``repro_span_seconds_total{kind="..."}`` and
  ``repro_spans_total{kind="..."}``;
* the :class:`~repro.obs.PrivacyLedger` → composed/sequential/parallel
  ``repro_privacy_epsilon{composition="..."}`` gauges and an entry
  count;
* an optional :class:`~repro.privacy.budget.BudgetStore` → per-
  ``(tenant, principal)`` gauges for spent/remaining/limit/degraded ε
  and charge counters.

:func:`parse_openmetrics` is the strict line-format validator the test
suite and the CI ``obs-export-smoke`` job run against the rendered
output: TYPE-before-samples, counter ``_total`` suffixes, histogram
bucket monotonicity and ``+Inf`` == ``_count``, label syntax, no
duplicate series, terminal ``# EOF``.  :func:`render_metrics_json` is
the machine-readable sibling behind ``--metrics-format json``.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Mapping, Union

from repro.exceptions import ValidationError
from repro.obs.aggregate import QuantileSketch
from repro.privacy.composition import compose

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.recorder import MetricsRecorder
    from repro.privacy.budget.store import BudgetStore

__all__ = [
    "METRIC_PREFIX",
    "render_openmetrics",
    "render_metrics_json",
    "parse_openmetrics",
]

#: Prefix of every exposed metric family.
METRIC_PREFIX = "repro"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_SAMPLE_NAME})(\{{.*\}})? (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)|[+-]Inf|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name into an exposition family name."""
    return f"{METRIC_PREFIX}_{_INVALID_NAME_CHARS.sub('_', str(name))}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # pragma: no cover - NaN never rendered today
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:  # pragma: no cover - symmetric guard
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels(**labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def _sketch_buckets(sketch: QuantileSketch) -> list[tuple[float, int]]:
    """``(le, cumulative count)`` pairs in ascending ``le`` order.

    Upper bounds come from the log-bucket geometry: a negative bucket
    with key ``k`` holds values in ``[-γ^k, -γ^(k-1))`` so its inclusive
    upper bound is ``-γ^(k-1)``; the zero bucket's bound is 0; a
    positive bucket with key ``k`` holds ``(γ^(k-1), γ^k]`` with bound
    ``γ^k``.  The terminal ``+Inf`` bucket is appended by the renderer.
    """
    gamma = (1.0 + sketch.relative_error) / (1.0 - sketch.relative_error)
    pairs: list[tuple[float, int]] = []
    cumulative = 0
    for key in sorted(sketch._neg, reverse=True):
        cumulative += sketch._neg[key]
        pairs.append((-(gamma ** (key - 1)), cumulative))
    if sketch._zero:
        cumulative += sketch._zero
        pairs.append((0.0, cumulative))
    for key in sorted(sketch._pos):
        cumulative += sketch._pos[key]
        pairs.append((gamma**key, cumulative))
    return pairs


def _normalize(source: Union["MetricsRecorder", Mapping]) -> dict:
    """Reduce a recorder or snapshot to the data the renderers need."""
    if isinstance(source, Mapping):
        snapshot = source
    else:
        snapshot = source.snapshot()
    span_seconds: dict[str, float] = {}
    span_counts: dict[str, int] = {}
    for obj in snapshot.get("spans", ()):
        kind = str(obj["kind"])
        span_seconds[kind] = span_seconds.get(kind, 0.0) + float(obj["seconds"])
        span_counts[kind] = span_counts.get(kind, 0) + 1
    histograms: dict[str, QuantileSketch] = {}
    for name, payload in snapshot.get("histograms", {}).items():
        if isinstance(payload, Mapping):
            histograms[name] = QuantileSketch.from_json_obj(payload)
        else:  # v1 raw-list snapshot
            sketch = QuantileSketch()
            sketch.observe_many(float(v) for v in payload)
            histograms[name] = sketch
    entries = snapshot.get("ledger", {}).get("entries", ())
    composition = compose(entries)
    return {
        "counters": dict(snapshot.get("counters", {})),
        "span_seconds": dict(sorted(span_seconds.items())),
        "span_counts": dict(sorted(span_counts.items())),
        "histograms": histograms,
        "ledger": {
            "entries": len(entries),
            "sequential": composition.sequential,
            "parallel": composition.parallel,
            "composed": composition.total,
        },
    }


def _sorted_accounts(budget_store: "BudgetStore"):
    return sorted(budget_store.accounts(), key=lambda a: (a.tenant, a.principal))


def render_openmetrics(
    source: Union["MetricsRecorder", Mapping],
    *,
    budget_store: "BudgetStore | None" = None,
) -> str:
    """Render recorder/snapshot state as OpenMetrics exposition text.

    Parameters
    ----------
    source:
        A :class:`~repro.obs.MetricsRecorder` or one of its
        :meth:`~repro.obs.MetricsRecorder.snapshot` dicts (both schemas).
    budget_store:
        Optional :class:`~repro.privacy.budget.BudgetStore`; its
        ``(tenant, principal)`` accounts are exposed as gauges.

    Returns
    -------
    str
        The exposition text, terminated by ``# EOF``; it passes
        :func:`parse_openmetrics`.
    """
    data = _normalize(source)
    lines: list[str] = []

    for name in sorted(data["counters"]):
        family = _metric_name(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"# HELP {family} Pipeline counter {name}.")
        lines.append(f"{family}_total {_format_value(data['counters'][name])}")

    if data["span_seconds"]:
        family = f"{METRIC_PREFIX}_span_seconds"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"# HELP {family} Total seconds spent per span kind.")
        for kind, seconds in data["span_seconds"].items():
            lines.append(f"{family}_total{_labels(kind=kind)} {_format_value(seconds)}")
        family = f"{METRIC_PREFIX}_spans"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"# HELP {family} Completed spans per span kind.")
        for kind, count in data["span_counts"].items():
            lines.append(f"{family}_total{_labels(kind=kind)} {_format_value(count)}")

    for name in sorted(data["histograms"]):
        sketch = data["histograms"][name]
        family = _metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        lines.append(
            f"# HELP {family} Quantile-sketch histogram {name} "
            f"(relative error {sketch.relative_error:g})."
        )
        for le, cumulative in _sketch_buckets(sketch):
            lines.append(
                f'{family}_bucket{{le="{_format_value(le)}"}} '
                f"{_format_value(cumulative)}"
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {_format_value(sketch.count)}')
        lines.append(f"{family}_sum {_format_value(sketch.sum)}")
        lines.append(f"{family}_count {_format_value(sketch.count)}")

    ledger = data["ledger"]
    if ledger["entries"]:
        family = f"{METRIC_PREFIX}_privacy_epsilon"
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"# HELP {family} Composed differential-privacy spend (pure DP).")
        for composition in ("sequential", "parallel", "composed"):
            lines.append(
                f"{family}{_labels(composition=composition)} "
                f"{_format_value(ledger[composition])}"
            )
        family = f"{METRIC_PREFIX}_privacy_ledger_entries"
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"# HELP {family} Recorded ε-consuming draws in the ledger.")
        lines.append(f"{family} {_format_value(ledger['entries'])}")

    if budget_store is not None:
        accounts = _sorted_accounts(budget_store)
        if accounts:
            gauges = (
                ("budget_epsilon_spent", "Composed enforced ε spent", "spent"),
                ("budget_epsilon_remaining", "Remaining enforced ε", "remaining"),
                ("budget_epsilon_limit", "Configured ε limit", "limit"),
                (
                    "budget_epsilon_degraded",
                    "ε of degraded fallback draws",
                    "degraded_epsilon",
                ),
            )
            for suffix, help_text, attr in gauges:
                family = f"{METRIC_PREFIX}_{suffix}"
                samples = []
                for account in accounts:
                    value = getattr(account, attr)
                    if value is None:  # unlimited accounts skip limit/remaining
                        continue
                    samples.append(
                        f"{family}"
                        f"{_labels(tenant=account.tenant, principal=account.principal)} "
                        f"{_format_value(float(value))}"
                    )
                if samples:
                    lines.append(f"# TYPE {family} gauge")
                    lines.append(
                        f"# HELP {family} {help_text} per (tenant, principal)."
                    )
                    lines.extend(samples)
            counters = (
                ("budget_charges", "Enforced budget charges", "n_charges"),
                ("budget_degraded_charges", "Degraded fallback charges", "n_degraded"),
            )
            for suffix, help_text, attr in counters:
                family = f"{METRIC_PREFIX}_{suffix}"
                lines.append(f"# TYPE {family} counter")
                lines.append(f"# HELP {family} {help_text} per (tenant, principal).")
                for account in accounts:
                    lines.append(
                        f"{family}_total"
                        f"{_labels(tenant=account.tenant, principal=account.principal)} "
                        f"{_format_value(getattr(account, attr))}"
                    )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_metrics_json(
    source: Union["MetricsRecorder", Mapping],
    *,
    budget_store: "BudgetStore | None" = None,
) -> dict:
    """Machine-readable metrics document (``--metrics-format json``).

    Mirrors the exposition's coverage with exact quantiles attached:
    counters, per-kind span seconds/counts, histogram summaries
    (count/sum/min/max/mean/p50/p90/p99), the ledger composition, and
    (when a store is supplied) every budget account.
    """
    data = _normalize(source)
    doc = {
        "schema": "repro-metrics-export/1",
        "counters": dict(sorted(data["counters"].items())),
        "span_seconds": data["span_seconds"],
        "span_counts": data["span_counts"],
        "histograms": {
            name: {
                "relative_error": sketch.relative_error,
                **sketch.summary(),
            }
            for name, sketch in sorted(data["histograms"].items())
        },
        "ledger": {
            "entries": data["ledger"]["entries"],
            "sequential_epsilon": data["ledger"]["sequential"],
            "parallel_epsilon": data["ledger"]["parallel"],
            "total_epsilon": data["ledger"]["composed"],
        },
    }
    if budget_store is not None:
        doc["budget_accounts"] = [
            account.to_json_obj() for account in _sorted_accounts(budget_store)
        ]
    return doc


# -- strict exposition parsing ------------------------------------------


def _parse_labels(raw: str, line_no: int) -> dict[str, str]:
    inner = raw[1:-1]
    if not inner:
        raise _fail(line_no, "empty label set {} is not allowed")
    labels: dict[str, str] = {}
    pos = 0
    while True:
        match = _LABEL_RE.match(inner, pos)
        if match is None:
            raise _fail(line_no, f"malformed label at {inner[pos:]!r}")
        name, value = match.group(1), match.group(2)
        if name in labels:
            raise _fail(line_no, f"duplicate label {name!r}")
        labels[name] = value
        pos = match.end()
        if pos == len(inner):
            return labels
        if inner[pos] != ",":
            raise _fail(line_no, f"expected ',' between labels at {inner[pos:]!r}")
        pos += 1


def _fail(line_no: int, message: str) -> ValidationError:
    return ValidationError(f"openmetrics line {line_no}: {message}")


_FAMILY_SUFFIXES = {
    "counter": ("_total",),
    "histogram": ("_bucket", "_sum", "_count"),
    "gauge": ("",),
}


def parse_openmetrics(text: str) -> dict:
    """Strictly parse OpenMetrics exposition text; raise on violations.

    Enforced format rules (the subset the exposition relies on):

    * every non-comment line matches ``name[{labels}] value`` with valid
      metric/label syntax and a parseable value;
    * ``# TYPE`` precedes its family's samples, appears once per family,
      and declares a known type (``counter``/``gauge``/``histogram``);
    * samples appear grouped directly under their family's ``# TYPE``
      with the type's mandated suffix (``_total`` for counters;
      ``_bucket``/``_sum``/``_count`` for histograms; none for gauges);
    * histogram buckets carry an ``le`` label, cumulative counts are
      non-decreasing, and the terminal ``le="+Inf"`` bucket equals
      ``_count``;
    * no duplicate series (same sample name + label set);
    * the final line is ``# EOF`` and nothing follows it.

    Returns
    -------
    dict
        ``family -> {"type": ..., "samples": [(name, labels, value)]}``.

    Raises
    ------
    ValidationError
        On the first violation.
    """
    families: dict[str, dict] = {}
    current_family: str | None = None
    seen_series: set[tuple] = set()
    eof_seen = False
    lines = text.splitlines()
    if not lines:
        raise ValidationError("openmetrics: empty exposition")
    for line_no, line in enumerate(lines, start=1):
        if eof_seen:
            raise _fail(line_no, "content after # EOF")
        if line == "# EOF":
            eof_seen = True
            continue
        if not line or line != line.strip():
            raise _fail(line_no, f"blank line or stray whitespace: {line!r}")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in ("TYPE", "HELP"):
                raise _fail(line_no, f"malformed comment line: {line!r}")
            keyword, family = parts[1], parts[2]
            if keyword == "TYPE":
                if len(parts) != 4 or parts[3] not in _FAMILY_SUFFIXES:
                    raise _fail(line_no, f"unknown metric type in: {line!r}")
                if family in families:
                    raise _fail(line_no, f"duplicate TYPE for family {family!r}")
                families[family] = {"type": parts[3], "samples": []}
                current_family = family
            else:
                if family not in families:
                    raise _fail(line_no, f"HELP before TYPE for family {family!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise _fail(line_no, f"malformed sample line: {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels = _parse_labels(raw_labels, line_no) if raw_labels else {}
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            value = float(raw_value)
        if current_family is None:
            raise _fail(line_no, f"sample {name!r} before any # TYPE")
        family_info = families[current_family]
        suffixes = _FAMILY_SUFFIXES[family_info["type"]]
        if not any(
            name == current_family + suffix if suffix else name == current_family
            for suffix in suffixes
        ):
            raise _fail(
                line_no,
                f"sample {name!r} does not belong to family "
                f"{current_family!r} (type {family_info['type']})",
            )
        if family_info["type"] == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                raise _fail(line_no, f"histogram bucket {name!r} missing 'le' label")
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            raise _fail(line_no, f"duplicate series {name}{labels!r}")
        seen_series.add(series_key)
        family_info["samples"].append((name, labels, value))
    if not eof_seen:
        raise ValidationError("openmetrics: missing terminal # EOF line")

    # Histogram coherence: buckets cumulative and capped by _count.
    for family, info in families.items():
        if info["type"] != "histogram":
            continue
        buckets = [s for s in info["samples"] if s[0] == f"{family}_bucket"]
        counts = [s for s in info["samples"] if s[0] == f"{family}_count"]
        if not buckets or len(counts) != 1:
            raise ValidationError(
                f"openmetrics: histogram {family!r} needs buckets and exactly "
                f"one _count sample"
            )
        previous = -math.inf
        cumulative = -1.0
        for _, labels, value in buckets:
            le = (
                math.inf
                if labels["le"] == "+Inf"
                else float(labels["le"])
            )
            if le <= previous:
                raise ValidationError(
                    f"openmetrics: histogram {family!r} buckets not in "
                    f"ascending le order"
                )
            if value < cumulative:
                raise ValidationError(
                    f"openmetrics: histogram {family!r} bucket counts not "
                    f"cumulative"
                )
            previous, cumulative = le, value
        if buckets[-1][1]["le"] != "+Inf":
            raise ValidationError(
                f"openmetrics: histogram {family!r} missing terminal +Inf bucket"
            )
        if buckets[-1][2] != counts[0][2]:
            raise ValidationError(
                f"openmetrics: histogram {family!r} +Inf bucket "
                f"({buckets[-1][2]}) != _count ({counts[0][2]})"
            )
    return families
