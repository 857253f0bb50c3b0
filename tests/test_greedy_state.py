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
``solve_chain`` advances a whole sequence of masks in lockstep blocks;
it must match a fresh state per mask too, and one ``solve`` per mask in
its counters, samples and remembered run, for every block size — and
it makes exactly those ``solve`` calls, each block's work inside one.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import seeded_cover_problem
from repro.coverage import greedy as greedy_module
from repro.coverage.greedy import GreedyState, greedy_cover
from repro.coverage.problem import CoverProblem
from repro.coverage.reference import reference_greedy_cover
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


def chain_outcome(problem, masks, state=None):
    """``solve_chain``'s ``(order, selection)`` pairs, or its error text."""
    state = GreedyState(problem) if state is None else state
    try:
        results = state.solve_chain(masks)
    except InfeasibleError as exc:
        return str(exc)
    return [(r.order, tuple(int(i) for i in r.selection)) for r in results]


def cold_chain_outcome(problem, masks):
    """What a fresh state per mask gives, stopping at the first failure."""
    outcomes = []
    for mask in masks:
        try:
            result = GreedyState(problem).solve(budget_mask=mask)
        except InfeasibleError as exc:
            return str(exc)
        outcomes.append((result.order, tuple(int(i) for i in result.selection)))
    return outcomes


def counters_of(fn):
    """``greedy.*`` counters (in insertion order) and the residual sketch."""
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        try:
            fn()
        except InfeasibleError:
            pass
    histogram = recorder.histograms.get("greedy.residual_demand")
    return list(recorder.counters.items()), histogram and histogram.to_json_obj()


@contextlib.contextmanager
def runs_per_block(problem, per_block):
    """Patch the chain's block rule so a block holds ``per_block`` runs."""
    cells = per_block * problem.n_items * problem.n_constraints
    with mock.patch.object(greedy_module, "_CHAIN_CELLS", cells), \
            mock.patch.object(greedy_module, "_CHAIN_MIN_RUNS", 1):
        yield


#: Runs per lockstep block: one (sequential resume), two, three (so
#: longer chains hand off across blocks), and everything in one block.
BLOCK_SIZES = (1, 2, 3, 10_000)


class TestSolveChain:
    @given(
        seed=st.integers(0, 10_000),
        quantized=st.booleans(),
        per_block=st.sampled_from(BLOCK_SIZES),
    )
    @settings(max_examples=150, deadline=None)
    def test_ascending_chains_equal_cold_solves(self, seed, quantized, per_block):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, quantized)
        masks = ascending_chain(rng, problem.n_items)
        with runs_per_block(problem, per_block):
            assert chain_outcome(problem, masks) == cold_chain_outcome(problem, masks)

    @given(
        seed=st.integers(0, 10_000),
        quantized=st.booleans(),
        per_block=st.sampled_from(BLOCK_SIZES),
    )
    @settings(max_examples=150, deadline=None)
    def test_repeated_non_superset_and_infeasible_masks(self, seed, quantized, per_block):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, quantized)
        pool = ascending_chain(rng, problem.n_items) + [
            rng.random(problem.n_items) < rng.uniform(0.1, 1.0) for _ in range(4)
        ]
        masks = [pool[i] for i in rng.integers(0, len(pool), size=10)]
        state = GreedyState(problem)
        with runs_per_block(problem, per_block):
            # A second chain on the same state resumes from the first's
            # remembered run (its last success, even after a failure).
            for chain in (masks[:5], masks[5:]):
                assert chain_outcome(problem, chain, state) == cold_chain_outcome(problem, chain)

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_counters_and_samples_equal_one_solve_per_mask(self, per_block):
        # A fixed sweep, not sampled examples: a wrong reuse point changes
        # only the counters, and only in a few percent of chains.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, quantized=seed % 2 == 0)
            masks = ascending_chain(rng, problem.n_items) + [
                rng.random(problem.n_items) < 0.7 for _ in range(2)
            ]
            with runs_per_block(problem, per_block):
                chained = counters_of(lambda: GreedyState(problem).solve_chain(masks))

                def one_by_one():
                    state = GreedyState(problem)
                    for mask in masks:
                        state.solve(budget_mask=mask)

                assert chained == counters_of(one_by_one), seed

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_executed_plus_reused_steps_equal_cold_iterations(self, per_block):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, quantized=seed % 2 == 0)
            masks = [m for m in ascending_chain(rng, problem.n_items) if m.any()]
            if isinstance(cold_chain_outcome(problem, masks), str):
                continue
            warm, cold = MetricsRecorder(), MetricsRecorder()
            with runs_per_block(problem, per_block), use_recorder(warm):
                GreedyState(problem).solve_chain(masks)
            with use_recorder(cold):
                for mask in masks:
                    GreedyState(problem).solve(budget_mask=mask)
            executed = warm.counters.get("greedy.iterations", 0.0)
            reused = warm.counters.get("greedy.reused_steps", 0.0)
            assert executed + reused == cold.counters.get("greedy.iterations", 0.0)

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_lower_index_newcomer_ties_the_old_winner(self, per_block):
        # Items 0 and 1 are identical; item 2 wins step 0 outright.  In the
        # second mask, step 0 is shared and newcomer 0 ties item 1 at step 1.
        gains = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                          [1.0, 1.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 1.0, 1.0]])
        problem = CoverProblem(gains=gains, demands=np.ones(5))
        recorder = MetricsRecorder()
        with runs_per_block(problem, per_block), use_recorder(recorder):
            orders = [r.order for r in GreedyState(problem).solve_chain([[1, 2], [0, 1, 2]])]
        assert orders == [(2, 1), (2, 0)]
        assert recorder.counters["greedy.reused_steps"] == 1
        assert recorder.counters["greedy.iterations"] == 3
        # Every unpicked eligible item is scored before each executed
        # step: 2 + 1 for the first mask, 3 − 1 for the second's step 1.
        assert recorder.counters["greedy.candidates_scanned"] == 5

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_sharing_ends_at_the_band_widened_by_one_more_tol(self, per_block):
        # Newcomer 2 scores 1 − 1.5·tol at step 1: outside the dense tie
        # band of item 1's 1.0 (so item 1 still wins), but inside the
        # widened band, so the second run stops sharing at step 1.
        tol = greedy_module._TOL
        gains = np.array([[1.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0 - 1.5 * tol]])
        problem = CoverProblem(gains=gains, demands=np.ones(3))
        recorder = MetricsRecorder()
        with runs_per_block(problem, per_block), use_recorder(recorder):
            orders = [r.order for r in GreedyState(problem).solve_chain([[0, 1], [0, 1, 2]])]
        assert orders == [(0, 1), (0, 1)]
        assert recorder.counters["greedy.reused_steps"] == 1
        assert recorder.counters["greedy.iterations"] == 3

    @given(seed=st.integers(0, 10_000), quantized=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_failure_below_a_diverged_run_keeps_the_runs_before_it(self, seed, quantized):
        # The remembered run makes run 0 share and diverge, while the cold,
        # smaller run 1 takes the block's first slot and may fail later,
        # freeing its slot below a live one.  Run 0 is then remembered.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, quantized)
        remembered = rng.random(problem.n_items) < 0.8
        masks = [remembered | (rng.random(problem.n_items) < 0.5),
                 remembered & (rng.random(problem.n_items) < 0.4),
                 np.ones(problem.n_items, dtype=bool)]
        state = GreedyState(problem)
        if isinstance(chain_outcome(problem, [remembered], state), str):
            return
        assert chain_outcome(problem, masks, state) == cold_chain_outcome(problem, masks)
        assert chain_outcome(problem, masks[:1], state) == cold_chain_outcome(problem, masks[:1])

    def test_failure_frees_a_slot_below_a_diverged_run(self):
        gains = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [1.0, 1.0, 0.0]])
        problem = CoverProblem(gains=gains, demands=np.ones(3))
        state = GreedyState(problem)
        assert state.solve(budget_mask=[0, 1, 2]).order == (0, 1, 2)
        # Run 0 diverges at step 0 (newcomer 3); cold run 1 holds the first
        # slot and fails at step 1, when run 0 is still going.
        with pytest.raises(InfeasibleError, match="with 2 demands still unmet"):
            state.solve_chain([[0, 1, 2, 3], [0]])
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            assert state.solve(budget_mask=[0, 1, 2, 3]).order == (3, 2)
        assert recorder.counters["greedy.reused_steps"] == 2

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_infeasible_mask_mid_chain_raises_the_lowest_failure(self, per_block):
        gains = np.array([[1.0, 1.0, 0.0],
                          [0.0, 1.0, 1.0],
                          [0.0, 0.0, 0.5],
                          [1.0, 0.0, 1.0]])
        problem = CoverProblem(gains=gains, demands=np.ones(3))
        # Masks 1 and 3 both fail (three and one demands unmet); mask 1's
        # error is the one raised.
        masks = [[0, 1], [2], [0, 1, 3], [1]]
        state = GreedyState(problem)
        recorder = MetricsRecorder()
        with runs_per_block(problem, per_block), use_recorder(recorder):
            with pytest.raises(InfeasibleError, match="with 3 demands still unmet"):
                state.solve_chain(masks)
        assert recorder.counters["greedy.calls"] == 2
        # The remembered run is the last success: mask 0, reused in full.
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            assert state.solve(budget_mask=[0, 1]).order == (0, 1)
        assert recorder.counters["greedy.reused_steps"] == 2

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_every_mask_is_one_solve_call_that_holds_its_block(self, per_block):
        # Profilers wrap GreedyState.solve on the class: the chain calls it
        # once per mask, in order, and each block runs inside one call.
        problem = seeded_cover_problem(60, 6, seed=9)
        masks = [np.arange(size) for size in (30, 40, 40, 50, 60)]
        calls, blocks, inside = [], [], []
        solve, run = GreedyState.solve, greedy_module._Block.run

        def spy_solve(state, budget_mask=None):
            calls.append(budget_mask)
            inside.append(True)
            try:
                return solve(state, budget_mask)
            finally:
                inside.pop()

        def spy_run(block):
            blocks.append((len(block.runs), bool(inside)))
            return run(block)

        with runs_per_block(problem, per_block), \
                mock.patch.object(GreedyState, "solve", spy_solve), \
                mock.patch.object(greedy_module._Block, "run", spy_run):
            outcome = chain_outcome(problem, masks)
        assert len(outcome) == len(masks)
        assert outcome == cold_chain_outcome(problem, masks)
        assert [id(mask) for mask in calls] == [id(mask) for mask in masks]
        sizes = [min(per_block, len(masks) - lo) for lo in range(0, len(masks), per_block)]
        assert blocks == [(size, True) for size in sizes]

    @pytest.mark.parametrize("shape", [(120, 30), (500, 30), (500, 50), (2_000, 50), (10**5, 8)])
    def test_a_block_holds_one_run_or_at_least_the_minimum(self, shape):
        n_items, n_constraints = shape
        runs = greedy_module._runs_per_block(n_items, n_constraints)
        if n_items * n_constraints * greedy_module._CHAIN_MIN_RUNS <= greedy_module._CHAIN_CELLS:
            assert runs >= greedy_module._CHAIN_MIN_RUNS
            assert runs * n_items * n_constraints <= greedy_module._CHAIN_CELLS
        else:
            assert runs == 1

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_float_dust_in_the_residual_counts_as_met(self, per_block):
        # 0.1 + 0.2 leaves ~2.8e-17 of the 0.30000000000000004 demand; it
        # must snap to zero instead of forcing a pick of item 2.  The
        # second mask is no superset, so both runs step in one block.
        gains = np.array([[0.1], [0.2], [0.05]])
        problem = CoverProblem(gains=gains, demands=np.array([0.1 + 0.2]))
        with runs_per_block(problem, per_block):
            outcome = chain_outcome(problem, [[0, 1, 2], [0, 1]])
        assert outcome == [((1, 0), (0, 1))] * 2
        assert reference_greedy_cover(problem).order == (1, 0)

    @pytest.mark.parametrize("per_block", BLOCK_SIZES)
    def test_gains_within_tol_end_the_run(self, per_block):
        # After item 0 only gains of 1e-12 (≤ _TOL) are left: the run fails
        # there rather than picking them.
        gains = np.array([[1.0, 0.0], [1e-12, 1e-12], [0.0, 1e-12]])
        problem = CoverProblem(gains=gains, demands=np.ones(2))
        recorder = MetricsRecorder()
        with runs_per_block(problem, per_block), use_recorder(recorder):
            outcome = chain_outcome(problem, [[0, 1, 2], [0, 2]])
        assert outcome == "greedy cover exhausted all useful items with 1 demands still unmet"
        assert recorder.counters["greedy.calls"] == 1
        assert recorder.counters["greedy.iterations"] == 1

    def test_empty_and_trivial_chains(self):
        problem = seeded_cover_problem(20, 5, seed=4)
        assert GreedyState(problem).solve_chain([]) == []
        with pytest.raises(InfeasibleError):
            GreedyState(problem).solve_chain([None, np.array([], dtype=int), None])
        trivial = CoverProblem(gains=np.ones((4, 3)), demands=np.zeros(3))
        results = GreedyState(trivial).solve_chain([[0], None])
        assert [r.order for r in results] == [(), ()]

    @pytest.mark.parametrize("ratio", [1, 10**9])
    def test_column_gather_and_full_update_agree(self, ratio):
        # ratio 1 gathers every changed column; 10**9 always recomputes all.
        rng = np.random.default_rng(11)
        for _ in range(20):
            problem = random_problem(rng, quantized=False)
            masks = ascending_chain(rng, problem.n_items)
            with mock.patch.object(greedy_module, "_GATHER_RATIO", ratio):
                assert chain_outcome(problem, masks) == cold_chain_outcome(problem, masks)


class TestBlockedRowSums:
    @pytest.mark.parametrize("n_constraints", [1, 5, 8, 30, 129, 300])
    def test_three_d_row_sums_equal_per_row_sums_bit_for_bit(self, n_constraints):
        rng = np.random.default_rng(n_constraints)
        # Magnitudes spread over 12 decades, so a different summation
        # order would change the last bits.
        block = rng.random((4, 50, n_constraints)) * 10.0 ** rng.integers(-6, 6, (4, 50, n_constraints))
        blocked = block.sum(axis=2)
        for s in range(4):
            assert np.array_equal(blocked[s], block[s].sum(axis=1))
            assert np.array_equal(blocked[s], [row.sum() for row in block[s]])
        assert np.array_equal(block[:3].sum(axis=2), blocked[:3])
