"""Tests for the shared experiment plumbing (runner, figure driver)."""

import pytest

from repro.exceptions import TransientError
from repro.experiments.figure_payment import run_payment_figure
from repro.experiments.runner import payment_sweep, payment_sweep_point
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.resilience import ResilienceConfig, RetryPolicy, use_resilience
from repro.utils.rng import spawn_seed_sequences


class TestPaymentSweepPoint:
    def test_returns_stats_per_mechanism(self, tiny_setting):
        mechanisms = {
            "dp": DPHSRCAuction(epsilon=tiny_setting.epsilon),
            "base": BaselineAuction(epsilon=tiny_setting.epsilon),
        }
        stats = payment_sweep_point(
            tiny_setting, mechanisms, n_price_samples=500, seed=0
        )
        assert set(stats) == {"dp", "base"}
        assert stats["dp"].mean > 0
        assert stats["dp"].n_samples == 500

    def test_seed_determinism(self, tiny_setting):
        mechanisms = {"dp": DPHSRCAuction(epsilon=0.5)}
        a = payment_sweep_point(tiny_setting, mechanisms, n_price_samples=200, seed=3)
        b = payment_sweep_point(tiny_setting, mechanisms, n_price_samples=200, seed=3)
        assert a["dp"].mean == b["dp"].mean

    def test_population_overrides(self, tiny_setting):
        mechanisms = {"dp": DPHSRCAuction(epsilon=0.5)}
        stats = payment_sweep_point(
            tiny_setting, mechanisms, n_workers=40, n_price_samples=100, seed=1
        )
        assert stats["dp"].mean > 0


class _FlakyOnce(DPHSRCAuction):
    """Fails its first ``price_pmf`` call, after the point drew its instance."""

    def __init__(self, epsilon):
        super().__init__(epsilon=epsilon)
        self._failed = False

    def price_pmf(self, instance):
        if not self._failed:
            self._failed = True
            raise TransientError("flaky price_pmf")
        return super().price_pmf(instance)


class TestPaymentSweep:
    def test_retried_point_recovers_the_fresh_statistics(self, tiny_setting):
        """A retry redraws from the point's seed, not from a spawned-from copy."""
        points = [(None, 5), (None, 6)]
        fresh = payment_sweep(
            tiny_setting,
            {"dp": DPHSRCAuction(epsilon=0.5)},
            points,
            spawn_seed_sequences(4, len(points)),
            n_price_samples=200,
        )
        retry = ResilienceConfig(retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0))
        with use_resilience(retry):
            recovered = payment_sweep(
                tiny_setting,
                {"dp": _FlakyOnce(epsilon=0.5)},
                points,
                spawn_seed_sequences(4, len(points)),
                n_price_samples=200,
            )
        assert recovered == fresh

    def test_one_seeds_list_serves_two_sweeps(self, tiny_setting):
        mechanisms = {"dp": DPHSRCAuction(epsilon=0.5)}
        points = [(None, 5), (None, 6)]
        seeds = spawn_seed_sequences(4, len(points))
        first = payment_sweep(tiny_setting, mechanisms, points, seeds, n_price_samples=100)
        assert payment_sweep(tiny_setting, mechanisms, points, seeds, n_price_samples=100) == first

    def test_needs_one_seed_per_point(self, tiny_setting):
        with pytest.raises(ValueError, match="seeds"):
            payment_sweep(
                tiny_setting,
                {"dp": DPHSRCAuction(epsilon=0.5)},
                [(None, 5), (None, 6)],
                spawn_seed_sequences(4, 1),
            )


class TestRunPaymentFigure:
    def test_rejects_bad_axis(self, tiny_setting):
        with pytest.raises(ValueError, match="sweep_axis"):
            run_payment_figure(
                name="x",
                title="t",
                setting=tiny_setting,
                sweep_axis="price",
                sweep_values=[10],
                include_optimal=False,
            )

    def test_minimal_sweep(self, tiny_setting):
        result = run_payment_figure(
            name="mini",
            title="mini sweep",
            setting=tiny_setting,
            sweep_axis="workers",
            sweep_values=[25, 35],
            include_optimal=False,
            n_price_samples=200,
            seed=0,
        )
        assert len(result.rows) == 2
        assert result.headers[0] == "worker count"
        assert "dp_hsrc mean" in result.headers
        assert "optimal mean" not in result.headers

    def test_optimal_included_when_requested(self, tiny_setting):
        result = run_payment_figure(
            name="mini-opt",
            title="mini sweep with optimal",
            setting=tiny_setting,
            sweep_axis="tasks",
            sweep_values=[6],
            include_optimal=True,
            n_price_samples=100,
            seed=0,
            optimal_time_limit=30.0,
        )
        assert "optimal mean" in result.headers
        row = result.rows[0]
        assert row[result.headers.index("optimal mean")] <= (
            row[result.headers.index("dp_hsrc mean")] * 1.001
        )


class TestDriverRepetitions:
    def test_repetitions_note_and_aggregation(self, tiny_setting):
        """n_repetitions > 1 switches to across-instance statistics."""
        result = run_payment_figure(
            name="reps",
            title="reps",
            setting=tiny_setting,
            sweep_axis="workers",
            sweep_values=[30],
            include_optimal=False,
            n_price_samples=100,
            seed=0,
            n_repetitions=3,
        )
        assert any("across-3-instance" in note for note in result.notes)

    def test_driver_signature_accepts_repetitions(self):
        """All four figure drivers expose the knob."""
        import inspect

        from repro.experiments import figure1, figure2, figure3, figure4

        for module in (figure1, figure2, figure3, figure4):
            assert "n_repetitions" in inspect.signature(module.run).parameters
