"""Bounded, mergeable quantile sketches for histogram metrics.

:class:`QuantileSketch` is a DDSketch-style log-bucketed summary: every
observed value lands in the bucket ``k = ceil(log_γ |v|)`` where
``γ = (1 + α) / (1 - α)`` for a configured *relative accuracy* ``α``
(default 1%).  Each bucket's representative value ``2γ^k / (γ + 1)`` is
within a factor ``(1 ± α)`` of every value the bucket covers, so any
quantile the sketch reports is within relative error ``α`` of the exact
sample quantile — while storage is **one integer per occupied bucket**
instead of one float per observation.  A metric spanning ``d`` decades
occupies at most ``⌈d · ln 10 / ln γ⌉`` buckets (≈ 115 per decade at
α = 1%), independent of whether it absorbed ten samples or ten million;
this is what lets a recorder survive a ``ledger_throughput``-scale run
(10^6 observations per metric) in a few kilobytes.

Merging is **deterministic**: bucket counts are integers, integer
addition is associative and commutative, and quantile queries walk the
buckets in sorted key order — so the quantiles of a sketch merged from
per-process partials are *bit-identical* to the serially accumulated
sketch, no matter how the work was partitioned.  The ``sum`` is exact
too: it is kept as Shewchuk partials (the algorithm of :func:`math.fsum`),
which represent the exact sum of every observation, and reported
correctly rounded, so it does not depend on how observations were
grouped before merging either.

Exact ``count``/``sum``/``min``/``max`` ride along, zero is its own
bucket, and negative values mirror into their own bucket store, so
``p0``/``p100`` are exact and the mean is exact.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

__all__ = ["DEFAULT_RELATIVE_ERROR", "QuantileSketch"]

#: Default relative accuracy α: reported quantiles are within ±1% of the
#: exact sample quantile.
DEFAULT_RELATIVE_ERROR = 0.01

#: ``type`` tag of the serialized sketch (inside ``repro-metrics/2``
#: snapshots); a raw JSON list in the same slot is a v1 histogram.
SKETCH_TYPE = "quantile_sketch"


class QuantileSketch:
    """Log-bucketed quantile summary with fixed relative error.

    Parameters
    ----------
    relative_error:
        The accuracy α in ``(0, 1)``: any reported quantile ``q̂``
        satisfies ``|q̂ - q| <= α·|q|`` against the exact sample quantile
        ``q`` (p0/p100 are exact, they return ``min``/``max``).

    Examples
    --------
    >>> sketch = QuantileSketch()
    >>> for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
    ...     sketch.observe(v)
    >>> sketch.count, sketch.min, sketch.max
    (5, 1.0, 100.0)
    >>> abs(sketch.quantile(0.5) - 3.0) <= 0.01 * 3.0
    True
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_rep_coeff",
        "count",
        "_partials",
        "min",
        "max",
        "_zero",
        "_pos",
        "_neg",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        relative_error = float(relative_error)
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error!r}"
            )
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._rep_coeff = 2.0 / (1.0 + self._gamma)
        self.count = 0
        self._partials: list[float] = []
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}

    # -- recording ------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        # math.log (not numpy) everywhere: one log implementation means
        # one bucketing, so serial and worker processes agree bit-for-bit.
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _representative(self, key: int) -> float:
        try:
            return self._rep_coeff * math.exp(key * self._log_gamma)
        except OverflowError:  # pragma: no cover - values near float max
            return math.inf

    def _add_exact(self, value: float) -> None:
        # Shewchuk's msum: fold ``value`` into the non-overlapping partials
        # so that they still sum exactly to every value added so far.
        partials = self._partials
        i = 0
        for partial in partials:
            if abs(value) < abs(partial):
                value, partial = partial, value
            high = value + partial
            low = partial - (high - value)
            if low:
                partials[i] = low
                i += 1
            value = high
        partials[i:] = [value]

    def observe(self, value: float) -> None:
        """Absorb one sample."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        self.count += 1
        self._add_exact(value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self._zero += 1
        elif value > 0.0:
            key = self._key(value)
            self._pos[key] = self._pos.get(key, 0) + 1
        else:
            key = self._key(-value)
            self._neg[key] = self._neg.get(key, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Absorb an iterable of samples (order-insensitive result)."""
        for value in values:
            self.observe(value)

    # -- queries --------------------------------------------------------

    @property
    def sum(self) -> float:
        """Sum of every observation, correctly rounded from the exact sum."""
        return math.fsum(self._partials)

    @property
    def mean(self) -> float:
        """Exact sample mean (NaN when empty)."""
        return self.sum / self.count if self.count else math.nan

    @property
    def n_buckets(self) -> int:
        """Occupied buckets — the sketch's size, independent of count."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def _ordered(self) -> Iterator[tuple[float, int]]:
        """Yield ``(representative value, count)`` in ascending value order."""
        for key in sorted(self._neg, reverse=True):
            yield -self._representative(key), self._neg[key]
        if self._zero:
            yield 0.0, self._zero
        for key in sorted(self._pos):
            yield self._representative(key), self._pos[key]

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (NaN when the sketch is empty).

        Within relative error ``relative_error`` of the exact sample
        quantile; ``q=0``/``q=1`` return the exact ``min``/``max`` and
        every estimate is clamped into ``[min, max]``.
        """
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return math.nan
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * (self.count - 1)
        cum = 0
        for value, bucket_count in self._ordered():
            cum += bucket_count
            if cum > target:
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - cum always reaches count

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """Batch :meth:`quantile` (one bucket walk per query)."""
        return [self.quantile(q) for q in qs]

    def summary(self) -> dict:
        """Count/sum/min/max/mean plus p50/p90/p99 — the report row."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    # -- merging / serialization ---------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (bucket counts add; order-free result).

        Raises
        ------
        ValueError
            When the accuracies differ — buckets of different γ do not
            line up, and silently re-bucketing would break the error
            bound.
        """
        if other.relative_error != self.relative_error:
            raise ValueError(
                f"cannot merge sketches with different relative_error "
                f"({self.relative_error} vs {other.relative_error})"
            )
        self.count += other.count
        for partial in tuple(other._partials):  # a copy: ``other`` may be ``self``
            self._add_exact(partial)
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self._zero += other._zero
        for key, bucket_count in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + bucket_count
        for key, bucket_count in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + bucket_count

    def to_json_obj(self) -> dict:
        """Picklable/JSON-able dump (inverse of :meth:`from_json_obj`).

        Bucket keys serialize as strings — JSON objects only have string
        keys, and round-tripping through the trace encoder must be
        lossless.
        """
        return {
            "type": SKETCH_TYPE,
            "relative_error": self.relative_error,
            "count": self.count,
            "sum": self.sum,
            "partials": list(self._partials),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self._zero,
            "positive": {str(key): self._pos[key] for key in sorted(self._pos)},
            "negative": {str(key): self._neg[key] for key in sorted(self._neg)},
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_json_obj` output.

        A dump without ``partials`` (written before the sum was kept
        exact) restores its ``sum`` as the one partial.
        """
        if obj.get("type") != SKETCH_TYPE:
            raise ValueError(
                f"not a serialized {SKETCH_TYPE} (type={obj.get('type')!r})"
            )
        sketch = cls(relative_error=float(obj["relative_error"]))
        sketch.count = int(obj["count"])
        sketch._partials = [float(p) for p in obj.get("partials", [obj["sum"]])]
        sketch.min = math.inf if obj.get("min") is None else float(obj["min"])
        sketch.max = -math.inf if obj.get("max") is None else float(obj["max"])
        sketch._zero = int(obj.get("zero", 0))
        sketch._pos = {int(k): int(v) for k, v in obj.get("positive", {}).items()}
        sketch._neg = {int(k): int(v) for k, v in obj.get("negative", {}).items()}
        return sketch

    # -- dunder plumbing ------------------------------------------------

    def __len__(self) -> int:
        """Number of absorbed samples (so a non-empty sketch is truthy)."""
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.relative_error == other.relative_error
            and self.count == other.count
            and self.sum == other.sum
            and self.min == other.min
            and self.max == other.max
            and self._zero == other._zero
            and self._pos == other._pos
            and self._neg == other._neg
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self.count}, buckets={self.n_buckets}, "
            f"relative_error={self.relative_error})"
        )
