"""Unit tests for repro.mcs.simulation (multi-round campaigns)."""

import numpy as np
import pytest

from repro.mcs.platform import Platform
from repro.mcs.simulation import MCSSimulation
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.obs import MetricsRecorder, use_recorder
from repro.workloads.generator import generate_worker_population


def make_simulation(tiny_setting, *, estimate_skills=False, budget=None):
    # A roomier population than the fixture default: skill estimation
    # shrinks the platform's quality record, so feasibility needs slack.
    roomy = tiny_setting.with_population(n_workers=50, n_tasks=8)
    pool = generate_worker_population(roomy, seed=0)
    return MCSSimulation(
        platform=Platform(DPHSRCAuction(epsilon=tiny_setting.epsilon)),
        pool=pool,
        epsilon_per_round=tiny_setting.epsilon,
        error_threshold_range=tiny_setting.error_threshold_range,
        price_grid=tiny_setting.price_grid(),
        c_min=tiny_setting.c_min,
        c_max=tiny_setting.c_max,
        estimate_skills=estimate_skills,
        budget=budget,
    )


class TestRun:
    def test_round_count_and_indices(self, tiny_setting):
        sim = make_simulation(tiny_setting)
        records = sim.run(3, seed=1)
        assert [r.round_index for r in records] == [0, 1, 2]

    def test_epsilon_accumulates_sequentially(self, tiny_setting):
        sim = make_simulation(tiny_setting)
        records = sim.run(4, seed=2)
        expected = tiny_setting.epsilon * np.arange(1, 5)
        assert np.allclose([r.epsilon_spent for r in records], expected)

    def test_budget_enforced(self, tiny_setting):
        sim = make_simulation(tiny_setting, budget=tiny_setting.epsilon * 2 + 1e-9)
        with pytest.raises(ValueError, match="exceed"):
            sim.run(3, seed=3)

    def test_refused_round_releases_no_draw(self, tiny_setting):
        """A round's ε is spent before its price draw: a refused round draws nothing."""
        sim = make_simulation(tiny_setting, budget=tiny_setting.epsilon * 1.2)
        recorder = MetricsRecorder()
        with use_recorder(recorder), pytest.raises(ValueError, match="exceed"):
            sim.run(3, seed=3)
        assert len(recorder.ledger) == 1

    def test_oracle_platform_has_zero_record_error(self, tiny_setting):
        sim = make_simulation(tiny_setting, estimate_skills=False)
        records = sim.run(2, seed=4)
        assert all(r.skill_record_error == 0.0 for r in records)

    def test_learning_platform_updates_record(self, tiny_setting):
        sim = make_simulation(tiny_setting, estimate_skills=True)
        records = sim.run(3, seed=5)
        # After the first round the record is an estimate, so it differs
        # from the truth.
        assert records[-1].skill_record_error > 0.0
        assert not np.array_equal(sim.skill_record, sim.pool.skills)

    def test_reproducible(self, tiny_setting):
        a = make_simulation(tiny_setting).run(2, seed=6)
        b = make_simulation(tiny_setting).run(2, seed=6)
        assert a[0].sensing.outcome.price == b[0].sensing.outcome.price
        assert a[1].sensing.accuracy == b[1].sensing.accuracy

    def test_rounds_draw_fresh_tasks(self, tiny_setting):
        sim = make_simulation(tiny_setting)
        records = sim.run(2, seed=7)
        # Coverage demands differ across rounds (fresh thresholds) with
        # overwhelming probability.
        c0 = records[0].sensing.coverage
        c1 = records[1].sensing.coverage
        assert not np.allclose(c0, c1)


class TestGoldSkillEstimator:
    def test_gold_record_converges_toward_truth(self, tiny_setting):
        """With structured skills, gold scoring reduces record error."""
        rng = np.random.default_rng(0)
        roomy = tiny_setting.with_population(n_workers=60, n_tasks=8)
        base = generate_worker_population(roomy, seed=1)
        ability = rng.uniform(0.55, 0.9, size=base.n_workers)
        skills = np.clip(
            ability[:, None] + rng.normal(0, 0.04, size=base.skills.shape),
            0.5, 0.99,
        )
        from repro.mcs.workers import WorkerPool

        pool = WorkerPool(skills=skills, bundles=base.bundles, costs=base.costs)
        sim = MCSSimulation(
            platform=Platform(DPHSRCAuction(epsilon=0.5)),
            pool=pool,
            epsilon_per_round=0.5,
            error_threshold_range=tiny_setting.error_threshold_range,
            price_grid=tiny_setting.price_grid(),
            c_min=tiny_setting.c_min,
            c_max=tiny_setting.c_max,
            estimate_skills=True,
            skill_estimator="gold",
            gold_fraction=1.0,
        )
        records = sim.run(12, seed=2)
        # The record must have been updated and, restricted to workers the
        # platform actually observed (who have real gold history), the
        # estimated ability must correlate positively with the truth.
        assert not np.array_equal(sim.skill_record, pool.skills)
        observed = ~np.isclose(sim.skill_record, pool.skills).all(axis=1)
        assert observed.sum() >= 5
        est_ability = sim.skill_record[observed].mean(axis=1)
        true_ability = pool.skills[observed].mean(axis=1)
        corr = np.corrcoef(est_ability, true_ability)[0, 1]
        assert corr > 0.2

    def test_unknown_estimator_rejected(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=0)
        with pytest.raises(ValueError, match="skill_estimator"):
            MCSSimulation(
                platform=Platform(DPHSRCAuction(epsilon=0.5)),
                pool=pool,
                epsilon_per_round=0.5,
                error_threshold_range=tiny_setting.error_threshold_range,
                price_grid=tiny_setting.price_grid(),
                c_min=tiny_setting.c_min,
                c_max=tiny_setting.c_max,
                skill_estimator="astrology",
            )

    def test_bad_gold_fraction_rejected(self, tiny_setting):
        pool = generate_worker_population(tiny_setting, seed=0)
        with pytest.raises(ValueError, match="gold_fraction"):
            MCSSimulation(
                platform=Platform(DPHSRCAuction(epsilon=0.5)),
                pool=pool,
                epsilon_per_round=0.5,
                error_threshold_range=tiny_setting.error_threshold_range,
                price_grid=tiny_setting.price_grid(),
                c_min=tiny_setting.c_min,
                c_max=tiny_setting.c_max,
                gold_fraction=0.0,
            )
