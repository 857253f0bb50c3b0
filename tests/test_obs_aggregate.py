"""Tests for repro.obs.aggregate — the mergeable quantile sketch."""

import json
import sys

import numpy as np
import pytest

from repro.obs import DEFAULT_RELATIVE_ERROR, QuantileSketch


class TestObserve:
    def test_exact_count_sum_min_max(self):
        sketch = QuantileSketch()
        values = [3.0, -1.5, 0.0, 2.5, 100.0]
        sketch.observe_many(values)
        assert sketch.count == 5
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.min == -1.5
        assert sketch.max == 100.0
        assert sketch.mean == pytest.approx(sum(values) / 5)
        assert len(sketch) == 5

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        # In-memory sentinels are the merge identities (±inf); the
        # serialized form maps them to None.
        assert sketch.min == float("inf") and sketch.max == float("-inf")
        assert sketch.to_json_obj()["min"] is None
        assert np.isnan(sketch.quantile(0.5))
        assert np.isnan(sketch.mean)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuantileSketch().observe(bad)

    def test_extreme_boundary_quantiles_are_exact(self):
        sketch = QuantileSketch()
        sketch.observe_many([7.0, 1.0, 3.0])
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 7.0

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class TestAccuracy:
    """Quantiles stay within the documented relative-error bound."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng: rng.lognormal(0.0, 2.0, size=20_000),
            lambda rng: rng.uniform(1e-6, 1e6, size=20_000),
            lambda rng: rng.normal(0.0, 50.0, size=20_000),  # mixed signs
        ],
    )
    def test_quantiles_within_relative_error(self, seed, sampler):
        rng = np.random.default_rng(seed)
        values = sampler(rng)
        sketch = QuantileSketch()
        sketch.observe_many(values)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            approx = sketch.quantile(q)
            # |approx - exact| <= alpha * |exact|: the DDSketch guarantee
            # on the value axis (rank-exact bucket walk, bounded-error
            # representative).
            assert abs(approx - exact) <= DEFAULT_RELATIVE_ERROR * abs(exact) + 1e-12

    def test_tighter_alpha_is_tighter(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(1.0, 1.5, size=5_000)
        tight = QuantileSketch(relative_error=0.001)
        tight.observe_many(values)
        exact = float(np.quantile(values, 0.9, method="inverted_cdf"))
        assert abs(tight.quantile(0.9) - exact) <= 0.001 * exact + 1e-12


class TestMemoryBound:
    def test_bounded_at_a_million_observations(self):
        """10^6 observations over 12 decades stay within a few KB."""
        rng = np.random.default_rng(7)
        sketch = QuantileSketch()
        sketch.observe_many(rng.lognormal(0.0, 4.0, size=1_000_000))
        assert sketch.count == 1_000_000
        # gamma ~ 1.02 → ~1150 buckets per decade-range actually hit;
        # 12 decades of lognormal mass lands well under 4096 buckets.
        assert sketch.n_buckets < 4096
        payload = json.dumps(sketch.to_json_obj())
        assert sys.getsizeof(payload) < 128 * 1024
        # The dict-of-int-counts core is the whole state: a few KB of
        # keys, nothing proportional to the observation count.
        assert sketch.n_buckets * 64 < 256 * 1024

    def test_raw_list_would_not_be_bounded(self):
        # Sanity anchor for the bound above: the sketch state is >100x
        # smaller than the raw samples it replaced.
        sketch = QuantileSketch()
        rng = np.random.default_rng(11)
        values = rng.lognormal(0.0, 2.0, size=100_000)
        sketch.observe_many(values)
        assert sketch.n_buckets < len(values) / 100


class TestMerge:
    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(0.0, 2.0, size=8_000)
        whole = QuantileSketch()
        whole.observe_many(values)
        parts = [QuantileSketch() for _ in range(4)]
        for part, chunk in zip(parts, np.split(values, 4)):
            part.observe_many(chunk)
        merged = QuantileSketch()
        for part in parts:
            merged.merge(part)
        # Bucket counts are integers: merging is order-free, so the
        # quantiles are bit-identical to the single-pass sketch.
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == whole.quantile(q)
        assert merged.count == whole.count
        assert merged.min == whole.min and merged.max == whole.max

    def test_four_way_merge_order_invariance(self):
        rng = np.random.default_rng(9)
        chunks = [rng.lognormal(0.0, 1.0, size=500) for _ in range(4)]
        def merged_in(order):
            sink = QuantileSketch()
            for i in order:
                part = QuantileSketch()
                part.observe_many(chunks[i])
                sink.merge(part)
            return sink
        forward = merged_in([0, 1, 2, 3])
        backward = merged_in([3, 2, 1, 0])
        for q in (0.1, 0.5, 0.9, 0.99):
            assert forward.quantile(q) == backward.quantile(q)

    def test_sum_does_not_depend_on_grouping(self):
        # A running float sum reads 0.6000000000000001 directly and 0.6
        # merged; the exact partials give the correctly rounded 0.6 both ways.
        direct = QuantileSketch()
        direct.observe_many([0.1, 0.2, 0.3])
        merged, tail = QuantileSketch(), QuantileSketch()
        merged.observe(0.1)
        tail.observe_many([0.2, 0.3])
        merged.merge(tail)
        assert direct.sum == merged.sum == 0.6
        assert direct == merged
        direct.merge(direct)
        assert direct.sum == 1.2  # the exact 2·(0.1 + 0.2 + 0.3), rounded once

    def test_merge_rejects_mismatched_relative_error(self):
        a = QuantileSketch(relative_error=0.01)
        b = QuantileSketch(relative_error=0.001)
        with pytest.raises(ValueError, match="relative_error"):
            a.merge(b)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        sketch = QuantileSketch()
        sketch.observe_many([-3.0, 0.0, 0.0, 1.5, 2.5, 1e9, 1e-9])
        obj = sketch.to_json_obj()
        json.dumps(obj)  # must be plain-JSON-able for pool transport
        back = QuantileSketch.from_json_obj(obj)
        assert back == sketch
        for q in (0.0, 0.5, 0.99, 1.0):
            assert back.quantile(q) == sketch.quantile(q)

    def test_round_trip_keeps_the_exact_sum(self):
        sketch = QuantileSketch()
        sketch.observe_many([0.1, 0.2])
        back = QuantileSketch.from_json_obj(json.loads(json.dumps(sketch.to_json_obj())))
        for part in (sketch, back):
            part.observe(0.3)
        assert back == sketch
        assert back.sum == 0.6

    def test_dump_without_partials_restores_its_sum(self):
        sketch = QuantileSketch()
        sketch.observe_many([0.1, 0.2, 0.3])
        obj = sketch.to_json_obj()
        del obj["partials"]
        back = QuantileSketch.from_json_obj(obj)
        assert back.sum == sketch.sum
        assert back == sketch

    def test_type_tag_enforced(self):
        with pytest.raises(ValueError, match="quantile_sketch"):
            QuantileSketch.from_json_obj({"type": "bogus"})

    def test_summary_keys(self):
        sketch = QuantileSketch()
        sketch.observe_many([1.0, 2.0, 3.0])
        summary = sketch.summary()
        assert sorted(summary) == [
            "count", "max", "mean", "min", "p50", "p90", "p99", "sum",
        ]
        assert summary["count"] == 3
