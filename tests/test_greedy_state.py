"""The resumable greedy API: GreedyState and budget-masked runs.

The sweep engine solves every affordable-worker group of a price sweep
as a budget-masked restriction of the *full* instance problem through
one shared :class:`GreedyState`.  The contract is that a masked run is
bit-for-bit identical to slicing the problem down to the (sorted) masked
rows and running the plain greedy — same selections, mapped back to
original indices — for boolean masks, index arrays, and reused states.

A state remembers its last successful run and resumes a superset mask
from the first step a newly eligible item could change.  The warm-start
contract is that every mask in any sequence solves exactly as a fresh
state would, bit for bit in both ``selection`` and ``order``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import seeded_cover_problem
from repro.coverage.greedy import GreedyState, greedy_cover
from repro.coverage.problem import CoverProblem
from repro.engine import build_plan, reference_winner_schedule
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.exceptions import InfeasibleError
from repro.obs import MetricsRecorder, use_recorder
from repro.workloads import SETTING_I
from repro.workloads.generator import generate_instance


def sliced_selection(problem, candidates):
    """Plain greedy on the row-sliced sub-problem, mapped to original ids."""
    sub = CoverProblem(gains=problem.gains[candidates], demands=problem.demands)
    local = greedy_cover(sub).selection
    return np.sort(candidates[local])


def feasible_masks(problem, rng, n_masks=6):
    """Random candidate subsets that keep the problem coverable."""
    masks = []
    for _ in range(n_masks * 4):
        keep = rng.random(problem.n_items) < rng.uniform(0.5, 1.0)
        candidates = np.flatnonzero(keep)
        coverage = problem.gains[candidates].sum(axis=0)
        if np.all(coverage >= problem.demands):
            masks.append(candidates)
        if len(masks) == n_masks:
            break
    assert masks, "seeded workload produced no feasible mask"
    return masks


class TestMaskedEqualsSliced:
    @given(seed=st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_index_mask_matches_sliced_subproblem(self, seed):
        problem = seeded_cover_problem(40, 10, seed=seed)
        rng = np.random.default_rng(seed)
        for candidates in feasible_masks(problem, rng):
            masked = greedy_cover(problem, budget_mask=candidates).selection
            assert np.array_equal(masked, sliced_selection(problem, candidates))

    def test_boolean_mask_equals_index_mask(self):
        problem = seeded_cover_problem(30, 8, seed=3)
        [candidates] = feasible_masks(problem, np.random.default_rng(3), n_masks=1)
        as_bool = np.zeros(30, dtype=bool)
        as_bool[candidates] = True
        assert np.array_equal(
            greedy_cover(problem, budget_mask=candidates).selection,
            greedy_cover(problem, budget_mask=as_bool).selection,
        )

    def test_no_mask_equals_full_mask(self):
        problem = seeded_cover_problem(25, 6, seed=9)
        assert np.array_equal(
            greedy_cover(problem).selection,
            greedy_cover(problem, budget_mask=np.arange(25)).selection,
        )


class TestStateReuse:
    def test_one_state_solves_many_masks_identically(self):
        problem = seeded_cover_problem(40, 10, seed=17)
        rng = np.random.default_rng(17)
        state = GreedyState(problem)
        for candidates in feasible_masks(problem, rng):
            assert np.array_equal(
                state.solve(budget_mask=candidates).selection,
                sliced_selection(problem, candidates),
            )

    def test_state_is_not_consumed_by_a_run(self):
        problem = seeded_cover_problem(30, 8, seed=21)
        state = GreedyState(problem)
        first = state.solve()
        second = state.solve()
        assert np.array_equal(first.selection, second.selection)
        assert first.order == second.order

    def test_state_for_a_different_problem_is_rejected(self):
        a = seeded_cover_problem(20, 5, seed=1)
        b = seeded_cover_problem(20, 5, seed=2)
        with pytest.raises(ValueError, match="different CoverProblem"):
            greedy_cover(a, state=GreedyState(b))

    def test_trivial_problem_selects_nothing(self):
        problem = CoverProblem(gains=np.ones((4, 3)), demands=np.zeros(3))
        result = GreedyState(problem).solve(budget_mask=np.array([2]))
        assert result.selection.size == 0 and result.order == ()


class TestMaskValidation:
    def test_wrong_shape_boolean_mask_raises(self):
        problem = seeded_cover_problem(20, 5, seed=4)
        with pytest.raises(ValueError, match="budget_mask"):
            greedy_cover(problem, budget_mask=np.ones(19, dtype=bool))

    def test_empty_mask_is_infeasible(self):
        problem = seeded_cover_problem(20, 5, seed=4)
        with pytest.raises(InfeasibleError):
            greedy_cover(problem, budget_mask=np.array([], dtype=int))

    def test_insufficient_mask_is_infeasible(self):
        problem = seeded_cover_problem(40, 10, seed=6)
        # A single row cannot meet demands sized for ~30% of total gain.
        with pytest.raises(InfeasibleError):
            greedy_cover(problem, budget_mask=np.array([0]))


def solve_outcome(state, mask):
    """``(order, selection)`` of one solve, or ``"infeasible"``."""
    try:
        result = state.solve(budget_mask=mask)
    except InfeasibleError:
        return "infeasible"
    return result.order, tuple(int(i) for i in result.selection)


def assert_warm_equals_cold(problem, masks):
    """One shared state over ``masks`` == a fresh state per mask."""
    warm = GreedyState(problem)
    for mask in masks:
        expected = solve_outcome(GreedyState(problem), mask)
        assert solve_outcome(warm, mask) == expected


def random_problem(rng, quantized):
    """A small random instance; quantized gains make exact tie bands common."""
    n_items = int(rng.integers(4, 30))
    n_constraints = int(rng.integers(1, 8))
    if quantized:
        gains = rng.integers(0, 3, size=(n_items, n_constraints)) / 2.0
        demands = rng.integers(1, 5, size=n_constraints) / 2.0
    else:
        gains = rng.random((n_items, n_constraints)) * (rng.random((n_items, n_constraints)) < 0.5)
        demands = rng.random(n_constraints) * gains.sum(axis=0) * 0.6
    return CoverProblem(gains=gains, demands=demands)


def ascending_chain(rng, n_items):
    """Nested masks: ever-longer prefixes of a random item ranking (repeats allowed)."""
    ranking = rng.permutation(n_items)
    sizes = np.sort(rng.integers(0, n_items + 1, size=int(rng.integers(2, 10))))
    masks = []
    for size in sizes:
        mask = np.zeros(n_items, dtype=bool)
        mask[ranking[:size]] = True
        masks.append(mask)
    return masks


class TestWarmStartEqualsCold:
    @given(seed=st.integers(0, 10_000), quantized=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_ascending_superset_chains(self, seed, quantized):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, quantized)
        assert_warm_equals_cold(problem, ascending_chain(rng, problem.n_items))

    @given(seed=st.integers(0, 10_000), quantized=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_repeated_non_superset_and_infeasible_masks(self, seed, quantized):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, quantized)
        pool = ascending_chain(rng, problem.n_items) + [
            rng.random(problem.n_items) < rng.uniform(0.1, 1.0) for _ in range(4)
        ]
        # Draws with replacement: repeats, shrinking (often infeasible)
        # masks, and supersets of whatever run is remembered, in any order.
        picks = rng.integers(0, len(pool), size=12)
        assert_warm_equals_cold(problem, [pool[i] for i in picks])

    def test_lower_index_newcomer_ties_the_old_winner(self):
        # Items 0 and 1 are identical; item 2 wins step 0 outright.
        gains = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                          [1.0, 1.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 1.0, 1.0]])
        problem = CoverProblem(gains=gains, demands=np.ones(5))
        state = GreedyState(problem)
        assert state.solve(budget_mask=[1, 2]).order == (2, 1)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            # Step 0 is reused; at step 1 newcomer 0 ties item 1 and wins.
            assert state.solve(budget_mask=[0, 1, 2]).order == (2, 0)
        assert recorder.counters["greedy.reused_steps"] == 1
        assert recorder.counters["greedy.iterations"] == 1

    def test_newcomer_tying_at_step_zero_forces_a_cold_solve(self):
        gains = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        problem = CoverProblem(gains=gains, demands=np.ones(3))
        state = GreedyState(problem)
        assert state.solve(budget_mask=[1, 2]).order == (1, 2)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            assert state.solve(budget_mask=[0, 1, 2]).order == (0, 2)
        assert recorder.counters["greedy.reused_steps"] == 0

    def test_infeasible_mask_keeps_the_remembered_trajectory(self):
        gains = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                          [1.0, 1.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 1.0, 1.0],
                          [0.0, 0.0, 0.0, 0.0, 0.5]])
        problem = CoverProblem(gains=gains, demands=np.ones(5))
        state = GreedyState(problem)
        state.solve(budget_mask=[1, 2])
        with pytest.raises(InfeasibleError):
            state.solve(budget_mask=[1, 3])
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            result = state.solve(budget_mask=[0, 1, 2])
        assert result.order == (2, 0)
        assert recorder.counters["greedy.reused_steps"] == 1

    def test_identical_mask_reuses_every_step(self):
        problem = seeded_cover_problem(40, 10, seed=5)
        state = GreedyState(problem)
        first = state.solve()
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            again = state.solve()
        assert again.order == first.order
        assert recorder.counters["greedy.reused_steps"] == len(first.order)
        assert recorder.counters["greedy.iterations"] == 0

    def test_mutating_the_callers_mask_does_not_leak_into_the_state(self):
        problem = seeded_cover_problem(30, 8, seed=8)
        mask = np.ones(30, dtype=bool)
        state = GreedyState(problem)
        state.solve(budget_mask=mask)
        mask[:] = False
        mask[:3] = True
        assert solve_outcome(state, mask) == solve_outcome(GreedyState(problem), mask)


@pytest.fixture(scope="module")
def setting_one_instances():
    return [generate_instance(SETTING_I, seed=seed)[0] for seed in (2016, 7)]


class TestSweepGroups:
    def test_build_plan_matches_reference_on_setting_one(self, setting_one_instances):
        for instance in setting_one_instances:
            prices, winner_sets = reference_winner_schedule(instance, greedy_cover)
            plan = build_plan(instance, greedy_cover)
            assert np.array_equal(plan.prices, prices)
            for actual, expected in zip(plan.winner_sets, winner_sets):
                assert np.array_equal(actual, expected)

    def test_executed_plus_reused_steps_equal_cold_iterations(self, setting_one_instances):
        for instance in setting_one_instances:
            problem = CoverProblem(gains=instance.effective_quality, demands=instance.demands)
            groups = group_prices_by_candidates(instance, feasible_price_set(instance))
            warm, cold = MetricsRecorder(), MetricsRecorder()
            state = GreedyState(problem)
            for group in groups:
                with use_recorder(warm):
                    warm_order = state.solve(budget_mask=group.candidates).order
                with use_recorder(cold):
                    cold_order = GreedyState(problem).solve(budget_mask=group.candidates).order
                assert warm_order == cold_order
            executed = warm.counters["greedy.iterations"]
            reused = warm.counters["greedy.reused_steps"]
            assert reused > 0
            assert executed + reused == cold.counters["greedy.iterations"]
            assert cold.counters["greedy.reused_steps"] == 0
