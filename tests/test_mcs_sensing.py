"""Unit tests for repro.mcs.sensing."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mcs.sensing import assignment_mask, collect_labels


class TestAssignmentMask:
    def test_winners_get_their_bundles(self):
        bundle_mask = np.array([[True, False], [True, True], [False, True]])
        mask = assignment_mask(bundle_mask, winners=np.array([1]))
        assert mask.tolist() == [[False, False], [True, True], [False, False]]

    def test_empty_winners(self):
        bundle_mask = np.ones((2, 2), dtype=bool)
        assert not assignment_mask(bundle_mask, np.array([], dtype=int)).any()

    def test_out_of_range_winner(self):
        with pytest.raises(ValidationError, match="out of range"):
            assignment_mask(np.ones((2, 2), dtype=bool), np.array([5]))


class TestCollectLabels:
    def test_only_assigned_pairs_labeled(self):
        skills = np.full((2, 3), 0.8)
        truth = np.array([1, -1, 1])
        assignments = np.array([[True, False, False], [False, True, True]])
        labels = collect_labels(skills, truth, assignments, seed=0)
        assert (labels != 0).tolist() == assignments.tolist()

    def test_labels_are_pm_one_where_assigned(self):
        skills = np.full((3, 4), 0.5)
        truth = np.array([1, 1, -1, -1])
        assignments = np.ones((3, 4), dtype=bool)
        labels = collect_labels(skills, truth, assignments, seed=1)
        assert np.all(np.isin(labels, (-1, 1)))

    def test_perfect_worker_always_correct(self):
        skills = np.ones((1, 5))
        truth = np.array([1, -1, 1, -1, 1])
        labels = collect_labels(skills, truth, np.ones((1, 5), bool), seed=2)
        assert np.array_equal(labels[0], truth)

    def test_antiperfect_worker_always_wrong(self):
        skills = np.zeros((1, 5))
        truth = np.array([1, -1, 1, -1, 1])
        labels = collect_labels(skills, truth, np.ones((1, 5), bool), seed=3)
        assert np.array_equal(labels[0], -truth)

    def test_empirical_accuracy_matches_skill(self):
        theta = 0.73
        skills = np.full((1, 40_000), theta)
        truth = np.random.default_rng(4).choice((-1, 1), size=40_000)
        labels = collect_labels(skills, truth, np.ones_like(skills, bool), seed=5)
        accuracy = np.mean(labels[0] == truth)
        assert accuracy == pytest.approx(theta, abs=0.01)

    def test_reproducible_with_seed(self):
        skills = np.full((2, 4), 0.6)
        truth = np.array([1, 1, -1, -1])
        a = collect_labels(skills, truth, np.ones((2, 4), bool), seed=6)
        b = collect_labels(skills, truth, np.ones((2, 4), bool), seed=6)
        assert np.array_equal(a, b)

    def test_shape_validations(self):
        with pytest.raises(ValidationError):
            collect_labels(
                np.full((1, 2), 0.5), np.array([1]), np.ones((1, 2), bool)
            )
        with pytest.raises(ValidationError):
            collect_labels(
                np.full((1, 2), 0.5), np.array([1, -1]), np.ones((2, 2), bool)
            )

    def test_truth_must_be_pm_one(self):
        with pytest.raises(ValidationError):
            collect_labels(
                np.full((1, 1), 0.5), np.array([0]), np.ones((1, 1), bool)
            )

    @pytest.mark.parametrize(
        "skills, match",
        [
            (np.array([[0.5, np.nan]]), "finite"),
            (np.array([[np.inf, 0.5]]), "finite"),
            (np.array([[np.nan, 1.5]]), "finite"),
            (np.array([[0.5, 1.5]]), r"\[0, 1\]"),
            (np.array([[-0.1, 0.5]]), r"\[0, 1\]"),
            (np.full(2, 0.5), "2-dimensional"),
        ],
    )
    def test_bad_skills_rejected_with_the_validation_messages(self, skills, match):
        n_tasks = skills.shape[-1]
        with pytest.raises(ValidationError, match=match):
            collect_labels(skills, np.ones(n_tasks, int), np.ones(skills.shape, bool), seed=0)

    def test_read_only_and_integer_skills_accepted(self):
        truth = np.array([1, -1, 1])
        assignments = np.ones((2, 3), bool)
        frozen = np.full((2, 3), 1.0)
        frozen.setflags(write=False)
        a = collect_labels(frozen, truth, assignments, seed=7)
        b = collect_labels(np.ones((2, 3), dtype=int), truth, assignments, seed=7)
        assert np.array_equal(a, b) and np.array_equal(a[0], truth)
