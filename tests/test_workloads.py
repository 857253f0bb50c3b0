"""Unit tests for repro.workloads.settings and repro.workloads.generator."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.engine.price_set import feasible_price_set
from repro.workloads.generator import (
    generate_instance,
    generate_worker_population,
    matched_neighbor,
    random_bid_perturbation,
)
from repro.workloads.settings import (
    SETTING_I,
    SETTING_II,
    SETTING_III,
    SETTING_IV,
    SETTINGS,
    SimulationSetting,
)


class TestTableISettings:
    def test_all_four_registered(self):
        assert set(SETTINGS) == {"I", "II", "III", "IV"}

    def test_paper_parameters(self):
        for s in SETTINGS.values():
            assert s.epsilon == 0.1
            assert s.c_min == 10.0
            assert s.c_max == 60.0
            assert s.skill_range == (0.1, 0.9)
            assert s.error_threshold_range == (0.1, 0.2)
            assert s.price_range == (35.0, 60.0)

    def test_sweep_axes(self):
        assert SETTING_I.worker_sweep[0] == 80 and SETTING_I.worker_sweep[-1] == 140
        assert SETTING_II.task_sweep[0] == 20 and SETTING_II.task_sweep[-1] == 50
        assert SETTING_III.worker_sweep[0] == 800 and SETTING_III.worker_sweep[-1] == 1400
        assert SETTING_IV.task_sweep[0] == 200 and SETTING_IV.task_sweep[-1] == 500

    def test_bundle_sizes(self):
        assert SETTING_I.bundle_size == (10, 20)
        assert SETTING_III.bundle_size == (50, 150)

    def test_price_grid_structure(self):
        grid = SETTING_I.price_grid()
        assert grid[0] == 35.0
        assert grid[-1] == 60.0
        assert np.allclose(np.diff(grid), 0.1)
        assert grid.size == 251

    def test_cost_lattice_structure(self):
        lattice = SETTING_I.cost_lattice()
        assert lattice[0] == 10.0
        assert lattice[-1] == 60.0
        assert np.allclose(np.diff(lattice), 0.1)

    def test_with_population(self):
        s = SETTING_I.with_population(n_workers=99)
        assert s.n_workers == 99
        assert s.n_tasks == SETTING_I.n_tasks

    def test_validation_rejects_bad_configs(self):
        with pytest.raises(ValidationError):
            SimulationSetting(
                name="bad", epsilon=0.0, c_min=1, c_max=2, bundle_size=(1, 2),
                skill_range=(0, 1), error_threshold_range=(0.1, 0.2),
                n_workers=5, n_tasks=5, price_range=(1, 2),
            )
        with pytest.raises(ValidationError):
            SimulationSetting(
                name="bad", epsilon=0.1, c_min=5, c_max=2, bundle_size=(1, 2),
                skill_range=(0, 1), error_threshold_range=(0.1, 0.2),
                n_workers=5, n_tasks=5, price_range=(1, 2),
            )
        with pytest.raises(ValidationError):
            SimulationSetting(
                name="bad", epsilon=0.1, c_min=1, c_max=10, bundle_size=(1, 2),
                skill_range=(0, 1), error_threshold_range=(0.1, 0.2),
                n_workers=5, n_tasks=5, price_range=(0.5, 2),  # below c_min
            )


class TestGenerateWorkerPopulation:
    def test_shapes_and_ranges(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=0)
        assert pool.n_workers == tiny_setting.n_workers
        assert pool.n_tasks == tiny_setting.n_tasks
        lo, hi = tiny_setting.skill_range
        assert np.all((lo <= pool.skills) & (pool.skills <= hi))
        assert np.all((tiny_setting.c_min <= pool.costs) & (pool.costs <= tiny_setting.c_max))

    def test_bundle_sizes_in_range(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=1)
        blo, bhi = tiny_setting.bundle_size
        for bundle in pool.bundles:
            assert blo <= len(bundle) <= bhi

    def test_costs_on_lattice(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=2)
        lattice = tiny_setting.cost_lattice()
        for cost in pool.costs:
            assert np.any(np.isclose(lattice, cost))

    def test_population_overrides(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=3, n_workers=7, n_tasks=4)
        assert pool.n_workers == 7
        assert pool.n_tasks == 4

    def test_bundle_size_clamped_to_task_count(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=4, n_tasks=2)
        assert all(len(b) <= 2 for b in pool.bundles)

    def test_reproducible(self, tiny_setting):
        a = generate_worker_population(tiny_setting, seed=5)
        b = generate_worker_population(tiny_setting, seed=5)
        assert np.array_equal(a.skills, b.skills)
        assert a.bundles == b.bundles


class TestGenerateInstance:
    def test_instance_is_globally_feasible(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=0)
        coverage = instance.effective_quality.sum(axis=0)
        assert np.all(coverage >= instance.demands - 1e-9)

    def test_bids_are_truthful(self, tiny_setting):
        instance, pool = generate_instance(tiny_setting, seed=1)
        for bid, bundle, cost in zip(instance.bids, pool.bundles, pool.costs):
            assert bid.bundle == bundle
            assert bid.price == cost

    def test_reproducible(self, tiny_setting):
        a, _ = generate_instance(tiny_setting, seed=2)
        b, _ = generate_instance(tiny_setting, seed=2)
        assert np.array_equal(a.quality, b.quality)
        assert a.bids == b.bids

    def test_infeasible_configuration_raises(self):
        from repro.exceptions import InfeasibleError

        impossible = SimulationSetting(
            name="impossible", epsilon=0.1, c_min=1.0, c_max=10.0,
            bundle_size=(1, 1), skill_range=(0.45, 0.55),
            error_threshold_range=(0.01, 0.02), n_workers=3, n_tasks=20,
            price_range=(5.0, 10.0), grid_step=1.0,
        )
        with pytest.raises(InfeasibleError, match="feasible instance"):
            generate_instance(impossible, seed=0, max_retries=3)


class TestNeighbors:
    def test_perturbation_changes_exactly_one_bid(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=3)
        neighbor = random_bid_perturbation(instance, tiny_setting, worker=2, seed=0)
        diffs = [
            i for i in range(instance.n_workers)
            if instance.bids[i] != neighbor.bids[i]
        ]
        assert diffs == [2] or diffs == []  # redraw may coincide

    def test_perturbation_preserves_bundle_size(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=4)
        neighbor = random_bid_perturbation(instance, tiny_setting, worker=0, seed=1)
        assert len(neighbor.bids[0].bundle) == len(instance.bids[0].bundle)

    def test_matched_neighbor_same_support(self, tiny_setting):
        instance, _ = generate_instance(tiny_setting, seed=5)
        neighbor = matched_neighbor(instance, tiny_setting, worker=1, seed=2)
        assert np.allclose(
            feasible_price_set(instance), feasible_price_set(neighbor)
        )
