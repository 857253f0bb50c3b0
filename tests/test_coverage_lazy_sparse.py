"""The lazy-sparse CELF kernel is pinned bit-for-bit against the dense one.

Every test here compares :func:`repro.coverage.lazy.lazy_sparse_greedy_cover`
(and :class:`~repro.coverage.lazy.LazyGreedyState`) against
:func:`repro.coverage.greedy.greedy_cover` on the same instance: same
winners, same selection order, same cover size, and the same
:class:`~repro.exceptions.InfeasibleError` verdict with the same message.
The hypothesis strategies deliberately hit the regimes where lazy
kernels classically diverge — duplicate-gain ties, near-degenerate
demands, arbitrary budget masks — and the degenerate shapes (empty
coverage, a single item, everything affordable).  ``TestFreshnessRule``
targets the rule that keeps a row's cached gain exact unless the last
winner reduced one of its columns: duplicate rows, all-zero rows,
winners that reduce only some of their columns, steps where every live
row is stale, and multi-block scoring batches.  ``TestResidualUpdate``
pins the per-pick residual update at the ``_TOL`` snap boundary, and
``TestSameWork`` pins the work one auction's price sweep does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bench import seeded_auction_batch
from repro.coverage import lazy
from repro.coverage.dispatch import (
    AUTO_SPARSE_MAX_DENSITY,
    AUTO_SPARSE_MIN_ITEMS,
    auto_cover_solver,
    resolve_cover_solver,
    use_lazy_kernel,
)
from repro.coverage.greedy import GreedyState, greedy_cover
from repro.coverage.lazy import LazyGreedyState, lazy_sparse_greedy_cover
from repro.coverage.problem import CoverProblem
from repro.coverage.sparse import SparseCoverage
from repro.engine import build_plan
from repro.exceptions import InfeasibleError, ValidationError
from repro.obs import MetricsRecorder, use_recorder


def assert_same_result(problem, budget_mask=None):
    """Dense and lazy agree exactly — result or infeasibility verdict."""
    try:
        dense = greedy_cover(problem, budget_mask=budget_mask)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as caught:
            lazy_sparse_greedy_cover(problem, budget_mask=budget_mask)
        assert str(caught.value) == str(exc)
        return None
    lazy = lazy_sparse_greedy_cover(problem, budget_mask=budget_mask)
    assert lazy.order == dense.order
    assert np.array_equal(lazy.selection, dense.selection)
    assert lazy.size == dense.size
    return dense


def assert_state_matches_cold_dense(state, problem, mask):
    """A shared lazy state's solve equals a fresh dense state's, verdicts included."""
    try:
        dense = GreedyState(problem).solve(mask)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as caught:
            state.solve(mask)
        assert str(caught.value) == str(exc)
        return None
    result = state.solve(mask)
    assert result.order == dense.order
    assert np.array_equal(result.selection, dense.selection)
    return result


def lazy_counters(problem, mask=None):
    """The ``lazy_greedy.*`` counters of one lazy solve."""
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        assert_state_matches_cold_dense(LazyGreedyState(problem), problem, mask)
    return {
        name.split(".", 1)[1]: value
        for name, value in recorder.counters.items()
        if name.startswith("lazy_greedy.")
    }


def tie_problems(max_items=14, max_constraints=5):
    """Lattice-valued gains: duplicate marginal gains are the common case."""

    @st.composite
    def build(draw):
        n_items = draw(st.integers(1, max_items))
        n_constraints = draw(st.integers(1, max_constraints))
        gains = draw(
            arrays(
                dtype=np.float64,
                shape=(n_items, n_constraints),
                elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
            )
        )
        demand_scale = draw(st.floats(0.1, 0.9))
        return CoverProblem(gains=gains, demands=gains.sum(axis=0) * demand_scale)

    return build()


def random_density_problems(max_items=30, max_constraints=8):
    """Continuous gains at a drawn density, possibly infeasible demands."""

    @st.composite
    def build(draw):
        n_items = draw(st.integers(1, max_items))
        n_constraints = draw(st.integers(1, max_constraints))
        density = draw(st.floats(0.0, 1.0))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.1, 1.0, size=(n_items, n_constraints))
        gains[rng.random(gains.shape) >= density] = 0.0
        # demand_scale > 1 makes some instances infeasible on purpose:
        # the verdict (and its message) must match the dense kernel too.
        demand_scale = draw(st.floats(0.0, 1.3))
        return CoverProblem(gains=gains, demands=gains.sum(axis=0) * demand_scale)

    return build()


def freshness_problems(max_rows=10, max_constraints=5):
    """Instances built against the rule that keeps untouched rows exact.

    Rows are drawn from a small base set with repetition (duplicate rows
    tie exactly inside one scoring block), all-zero rows are spliced in,
    columns get zero or tiny demands (winners that reduce only some of
    their columns), and an optional hub column that every row covers
    makes every live row stale after the first pick (the ``-inf`` floor).
    """

    @st.composite
    def build(draw):
        n_base = draw(st.integers(1, max_rows))
        n_constraints = draw(st.integers(1, max_constraints))
        base = draw(
            arrays(
                dtype=np.float64,
                shape=(n_base, n_constraints),
                elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
            )
        )
        picks = draw(
            st.lists(st.integers(0, n_base - 1), min_size=n_base, max_size=2 * n_base)
        )
        gains = base[picks]
        if draw(st.booleans()):
            gains[:, 0] = draw(st.sampled_from([0.1, 0.25]))
        zero_at = draw(st.lists(st.integers(0, gains.shape[0]), max_size=2))
        gains = np.insert(gains, zero_at, 0.0, axis=0)
        fractions = draw(
            arrays(
                dtype=np.float64,
                shape=(n_constraints,),
                elements=st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.9]),
            )
        )
        return CoverProblem(gains=gains, demands=gains.sum(axis=0) * fractions)

    return build()


def draw_mask_chain(data, problem):
    """Masks for one shared state: the engine's ascending supersets first,
    then repeated, arbitrary, empty and infeasible masks in drawn order."""
    n_items = problem.n_items
    price_of = data.draw(arrays(dtype=np.int64, shape=n_items, elements=st.integers(0, 3)))
    masks = [price_of <= level for level in range(4)]
    kinds = st.sampled_from(["repeat", "arbitrary", "empty", "infeasible"])
    for kind in data.draw(st.lists(kinds, max_size=6)):
        if kind == "repeat":
            masks.append(masks[-1].copy())
        elif kind == "arbitrary":
            masks.append(data.draw(arrays(dtype=bool, shape=n_items)))
        elif kind == "empty":
            masks.append(np.zeros(n_items, dtype=bool))
        else:
            # No row covering some demanded column: cannot be feasible.
            demanded = np.flatnonzero(problem.demands > 1e-6)
            if demanded.size:
                column = data.draw(st.sampled_from(demanded.tolist()))
                masks.append(problem.gains[:, column] == 0.0)
    return masks


class TestBitForBitEquivalence:
    @given(problem=tie_problems())
    @settings(max_examples=80, deadline=None)
    def test_ties_resolve_identically(self, problem):
        assert_same_result(problem)

    @given(problem=random_density_problems())
    @settings(max_examples=80, deadline=None)
    def test_random_densities_match_including_infeasible(self, problem):
        assert_same_result(problem)

    @given(problem=random_density_problems(max_items=16), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_budget_masks_match(self, problem, data):
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=problem.n_items,
                    max_size=problem.n_items,
                )
            )
        )
        assert_same_result(problem, budget_mask=mask)

    @given(problem=tie_problems(max_items=10))
    @settings(max_examples=40, deadline=None)
    def test_sparse_input_equals_dense_input(self, problem):
        sparse = SparseCoverage.from_problem(problem)
        try:
            dense = greedy_cover(problem)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                lazy_sparse_greedy_cover(sparse)
            return
        lazy = lazy_sparse_greedy_cover(sparse)
        assert lazy.order == dense.order
        assert np.array_equal(lazy.selection, dense.selection)


class TestDegenerateInstances:
    def test_empty_coverage_zero_demands_selects_nothing(self):
        problem = CoverProblem(gains=np.zeros((4, 3)), demands=np.zeros(3))
        result = assert_same_result(problem)
        assert result.size == 0
        assert result.order == ()

    def test_empty_coverage_positive_demands_is_infeasible(self):
        problem = CoverProblem(gains=np.zeros((4, 3)), demands=np.ones(3))
        assert_same_result(problem)  # asserts matching InfeasibleError

    def test_single_item(self):
        problem = CoverProblem(gains=np.array([[0.5, 0.8]]), demands=np.array([0.4, 0.6]))
        result = assert_same_result(problem)
        assert result.order == (0,)

    def test_all_items_affordable_mask_equals_no_mask(self):
        rng = np.random.default_rng(5)
        gains = rng.uniform(0.0, 1.0, size=(12, 4))
        problem = CoverProblem(gains=gains, demands=gains.sum(axis=0) * 0.4)
        unmasked = lazy_sparse_greedy_cover(problem)
        masked = lazy_sparse_greedy_cover(
            problem, budget_mask=np.ones(12, dtype=bool)
        )
        assert masked.order == unmasked.order
        assert_same_result(problem, budget_mask=np.ones(12, dtype=bool))

    def test_empty_mask_is_infeasible_like_dense(self):
        problem = CoverProblem(gains=np.ones((3, 2)), demands=np.array([1.0, 1.0]))
        assert_same_result(problem, budget_mask=np.zeros(3, dtype=bool))


class TestLazyGreedyState:
    def test_state_reuse_matches_dense_state_across_masks(self):
        rng = np.random.default_rng(11)
        gains = rng.uniform(0.0, 1.0, size=(40, 6))
        gains[rng.random(gains.shape) >= 0.4] = 0.0
        problem = CoverProblem(gains=gains, demands=gains.sum(axis=0) * 0.35)
        lazy_state = LazyGreedyState(problem)
        dense_state = GreedyState(problem)
        for trial in range(8):
            mask = np.random.default_rng(trial).random(40) < 0.7
            try:
                dense = dense_state.solve(mask)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as caught:
                    lazy_state.solve(mask)
                assert str(caught.value) == str(exc)
                continue
            lazy = lazy_state.solve(mask)
            assert lazy.order == dense.order
            assert np.array_equal(lazy.selection, dense.selection)

    def test_state_for_wrong_problem_is_rejected(self):
        a = CoverProblem(gains=np.ones((2, 2)), demands=np.array([0.5, 0.5]))
        b = CoverProblem(gains=np.ones((2, 2)), demands=np.array([0.5, 0.5]))
        state = LazyGreedyState(a)
        with pytest.raises(ValueError, match="different CoverProblem"):
            lazy_sparse_greedy_cover(b, state=state)

    def test_state_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="CoverProblem or SparseCoverage"):
            LazyGreedyState(np.ones((2, 2)))


class TestFreshnessRule:
    @given(problem=freshness_problems(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mask_chain_through_one_state_matches_cold_dense(self, problem, data):
        state = LazyGreedyState(problem)
        for mask in draw_mask_chain(data, problem):
            assert_state_matches_cold_dense(state, problem, mask)

    @given(problem=freshness_problems(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_index_masks_match_boolean_masks(self, problem, data):
        state = LazyGreedyState(problem)
        for mask in draw_mask_chain(data, problem):
            assert_state_matches_cold_dense(state, problem, np.flatnonzero(mask))

    def test_duplicate_rows_tie_inside_one_block_lowest_index_wins(self):
        # Three copies of each row: after the first pick every live row is
        # re-scored in one block and the copies tie exactly.
        base = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        problem = CoverProblem(gains=np.repeat(base, 3, axis=0), demands=np.full(3, 1.0))
        counters = lazy_counters(problem)
        assert lazy_sparse_greedy_cover(problem).order[:2] == (0, 1)
        assert counters["evaluations"] >= 8

    def test_all_zero_rows_are_never_picked(self):
        gains = np.array([[0.0, 0.0], [0.4, 0.2], [0.0, 0.0], [0.3, 0.6]])
        problem = CoverProblem(gains=gains, demands=np.array([0.5, 0.5]))
        result = lazy_sparse_greedy_cover(problem)
        assert not set(result.order) & {0, 2}
        assert_same_result(problem)
        assert_same_result(problem, budget_mask=np.array([True, False, True, False]))

    def test_rows_sharing_only_an_unreduced_column_stay_exact(self):
        # Row 0 wins first and reduces column 0 only: column 1 has no
        # demand.  Row 1 shares just column 1 with it, so its initial
        # score stays exact and step 2 re-scores nothing.  Row 1's pick
        # reduces column 2, which leaves row 2 as the only live row, stale:
        # a -inf floor that re-scores exactly that row.
        gains = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.4], [0.0, 0.0, 0.3]])
        problem = CoverProblem(gains=gains, demands=np.array([1.0, 0.0, 0.7]))
        counters = lazy_counters(problem)
        assert lazy_sparse_greedy_cover(problem).order == (0, 1, 2)
        assert counters["iterations"] == 3
        assert counters["evaluations"] == 1
        assert counters["batches"] == 1

    def test_every_live_row_stale_rescores_only_live_rows(self):
        # Picked and masked-out rows must not be re-scored back into
        # contention: with a -inf floor, gains [[0.1], [0.1]] and demand
        # [0.15] would otherwise pick row 0 twice.
        problem = CoverProblem(gains=np.array([[0.1], [0.1]]), demands=np.array([0.15]))
        assert lazy_sparse_greedy_cover(problem).order == (0, 1)
        # A hub column every row covers.  Row 3 wins step 1 and every live
        # row turns stale: step 2 re-scores rows 0, 1 and 4 (row 2 is
        # masked out), step 3 rows 1 and 4, each batch in one block.
        gains = np.array([[0.3, 0.0], [0.3, 0.0], [0.3, 0.2], [0.3, 0.1], [0.3, 0.0]])
        problem = CoverProblem(gains=gains, demands=np.array([0.9, 0.1]))
        mask = np.array([True, True, False, True, True])
        counters = lazy_counters(problem, mask)
        assert lazy_sparse_greedy_cover(problem, budget_mask=mask).order == (3, 0, 1)
        assert counters["evaluations"] == 5
        assert counters["batches"] == 2

    def test_stale_row_just_below_the_floor_joins_the_tie_band(self):
        # Row 2 wins step 1 and stales row 0 without changing its gain
        # (0.5).  Row 1 stays exact at 0.5 + 5e-10, the floor.  Row 0's
        # bound is below the floor but within _TOL of it, so it must be
        # re-scored: it ties row 1 and wins on the lower index.
        gains = np.array([[0.1, 0.4, 0.0], [0.0, 0.0, 0.5 + 5e-10], [1.0, 0.0, 0.0]])
        problem = CoverProblem(gains=gains, demands=np.array([1.1, 0.4, 0.5 + 5e-10]))
        assert_same_result(problem)
        assert lazy_sparse_greedy_cover(problem).order == (2, 0, 1)

    def test_multi_block_scoring_matches_dense(self, monkeypatch):
        def run_chains():
            recorder = MetricsRecorder()
            with use_recorder(recorder):
                for seed in range(12):
                    rng = np.random.default_rng(seed)
                    gains = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0], size=(24, 5))
                    gains[::4] = gains[1::4]  # duplicate rows across block edges
                    problem = CoverProblem(gains=gains, demands=gains.sum(axis=0) * 0.6)
                    state = LazyGreedyState(problem)
                    for level in (0.4, 0.7, 1.0, 0.7):
                        mask = np.random.default_rng(seed + 100).random(24) < level
                        assert_state_matches_cold_dense(state, problem, mask)
            return recorder.counters

        whole = run_chains()
        monkeypatch.setattr(lazy, "_SCORE_BLOCK", 3)
        split = run_chains()
        # The block size changes how rows are batched, never which rows.
        assert split["lazy_greedy.evaluations"] == whole["lazy_greedy.evaluations"]
        assert split["lazy_greedy.batches"] > whole["lazy_greedy.batches"]


TOL = lazy._TOL


class TestResidualUpdate:
    """Each pick updates the residual at its own entries, then snaps at ``_TOL``."""

    def test_gain_equal_to_the_residual_meets_the_column(self):
        # Both picks subtract exactly the residual they meet: r - q == 0.0.
        gains = np.array([[0.5, 0.25], [0.0, 0.5]])
        problem = CoverProblem(gains=gains, demands=np.array([0.5, 0.75]))
        assert assert_same_result(problem).order == (0, 1)

    @pytest.mark.parametrize("q, demand", [(1.0, 1.0 + 0.5 * TOL), (TOL, 2 * TOL)])
    def test_remainder_within_tol_snaps_to_zero(self, q, demand):
        # Row 0 leaves at most _TOL of column 0 (exactly _TOL in the second
        # case), which snaps to 0.  Kept, it would leave row 1 a gain below
        # _TOL and the cover infeasible.
        assert 0.0 < demand - q <= TOL
        gains = np.array([[q, 1.0], [0.5, 0.0]])
        problem = CoverProblem(gains=gains, demands=np.array([demand, 1.0]))
        assert assert_same_result(problem).order == (0,)

    def test_remainder_just_above_tol_is_kept(self):
        q, demand = 1.0, 1.0 + 1.01 * TOL
        assert TOL < demand - q < 1.1 * TOL
        gains = np.array([[q, 1.0], [0.5, 0.0]])
        problem = CoverProblem(gains=gains, demands=np.array([demand, 1.0]))
        assert assert_same_result(problem).order == (0, 1)

    def test_winner_entry_in_a_met_column_marks_no_row_stale(self):
        # Row 0 meets columns 0 and 3, so rows 1 and 2 turn stale and step
        # 2 re-scores both.  Row 1 wins with a stored entry in the met
        # column 0, which it does not reduce: row 2 shares only that
        # column with it, stays exact and wins step 3 without a re-score.
        gains = np.array(
            [[1.0, 0.0, 0.0, 1.0], [0.5, 0.8, 0.0, 0.0], [0.3, 0.0, 0.4, 0.0]]
        )
        problem = CoverProblem(gains=gains, demands=np.array([1.0, 0.8, 0.4, 1.0]))
        counters = lazy_counters(problem)
        assert lazy_sparse_greedy_cover(problem).order == (0, 1, 2)
        assert counters == {"calls": 1, "iterations": 3, "evaluations": 2, "batches": 1}

    def test_infeasible_mask_counts_the_demands_left_unmet(self):
        # Rows 0 and 1 meet two of the four demands; the mask leaves none
        # for the other two.
        problem = CoverProblem(gains=np.eye(4), demands=np.ones(4))
        mask = np.array([True, True, False, False])
        assert_same_result(problem, budget_mask=mask)
        with pytest.raises(InfeasibleError, match="with 2 demands still unmet"):
            lazy_sparse_greedy_cover(problem, budget_mask=mask)


class TestSameWork:
    def test_auction_price_sweep_work_is_pinned(self):
        """One auction's price sweep through the lazy kernel does pinned work.

        At 2,000 workers × 100 tasks (density 0.040) auto dispatch takes the
        CELF kernel.  The counters pin which rows each step scores and how
        they batch; a change to how a step is computed must leave them,
        and every group's selection, as they are.
        """
        (instance,) = seeded_auction_batch(1, n_workers=2000, n_tasks=100, seed=2016)
        assert instance.sparse_quality.density == pytest.approx(0.040, abs=5e-4)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            plan = build_plan(instance, auto_cover_solver)
        work = {
            name: value
            for name, value in recorder.counters.items()
            if name.startswith("lazy_greedy.")
        }
        assert plan.n_groups == 12
        assert work == {
            "lazy_greedy.calls": 12,
            "lazy_greedy.iterations": 1679,
            "lazy_greedy.evaluations": 43725,
            "lazy_greedy.batches": 882,
        }
        problem = instance.sparse_quality.to_problem()
        for group, selection in zip(plan.groups, plan.group_selections):
            cold = GreedyState(problem).solve(group.candidates)
            assert np.array_equal(selection, cold.selection)


class TestSparseCoverage:
    @given(problem=tie_problems(max_items=10))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_the_instance(self, problem):
        sparse = SparseCoverage.from_problem(problem)
        back = sparse.to_problem()
        assert np.array_equal(back.gains, problem.gains)
        assert np.array_equal(back.demands, problem.demands)
        assert sparse.nnz == np.count_nonzero(problem.gains)

    def test_rows_and_shape_accessors(self):
        gains = np.array([[0.0, 0.3, 0.0], [0.7, 0.0, 0.2]])
        sparse = SparseCoverage.from_dense(gains, np.array([0.1, 0.1, 0.1]))
        assert (sparse.n_items, sparse.n_constraints, sparse.nnz) == (2, 3, 3)
        cols, vals = sparse.row(1)
        assert cols.tolist() == [0, 2]
        assert vals.tolist() == [0.7, 0.2]
        assert sparse.density == pytest.approx(0.5)
        assert sparse.nbytes > 0

    def test_validation_rejects_malformed_csr(self):
        demands = np.array([0.5, 0.5])
        with pytest.raises(ValidationError, match="start at 0 and end at nnz"):
            SparseCoverage(
                indptr=np.array([1, 2]),
                indices=np.array([0]),
                data=np.array([1.0]),
                demands=demands,
            )
        with pytest.raises(ValidationError, match="strictly increasing"):
            SparseCoverage(
                indptr=np.array([0, 2]),
                indices=np.array([1, 0]),
                data=np.array([1.0, 1.0]),
                demands=demands,
            )
        with pytest.raises(ValidationError, match="out of range"):
            SparseCoverage(
                indptr=np.array([0, 1]),
                indices=np.array([7]),
                data=np.array([1.0]),
                demands=demands,
            )
        with pytest.raises(ValidationError, match="non-negative"):
            SparseCoverage(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                data=np.array([-1.0]),
                demands=demands,
            )

    def test_arrays_are_read_only(self):
        sparse = SparseCoverage.from_dense(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            sparse.data[0] = 2.0


class TestDispatch:
    def test_small_problems_stay_dense(self):
        problem = CoverProblem(gains=np.ones((8, 3)), demands=np.ones(3))
        assert not use_lazy_kernel(problem)

    def test_large_sparse_problems_go_lazy(self):
        n = AUTO_SPARSE_MIN_ITEMS
        gains = np.zeros((n, 100))
        gains[np.arange(n), np.arange(n) % 100] = 1.0  # density 0.01
        problem = CoverProblem(gains=gains, demands=gains.sum(axis=0) * 0.5)
        assert use_lazy_kernel(problem)

    def test_large_dense_problems_stay_dense(self):
        n = AUTO_SPARSE_MIN_ITEMS
        rng = np.random.default_rng(0)
        gains = rng.uniform(0.1, 1.0, size=(n, 10))  # density 1 > cutoff
        problem = CoverProblem(gains=gains, demands=gains.sum(axis=0) * 0.5)
        assert problem.n_items >= AUTO_SPARSE_MIN_ITEMS
        assert not use_lazy_kernel(problem)
        assert AUTO_SPARSE_MAX_DENSITY < 1.0

    def test_sparse_coverage_always_lazy(self):
        sparse = SparseCoverage.from_dense(np.ones((2, 2)), np.ones(2))
        assert use_lazy_kernel(sparse)

    @given(problem=tie_problems(max_items=10))
    @settings(max_examples=30, deadline=None)
    def test_auto_solver_is_bit_identical_to_dense(self, problem):
        try:
            dense = greedy_cover(problem)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                auto_cover_solver(problem)
            return
        assert auto_cover_solver(problem).order == dense.order

    def test_resolver_names_and_passthrough(self):
        assert resolve_cover_solver("dense") is greedy_cover
        assert resolve_cover_solver("greedy") is greedy_cover
        assert resolve_cover_solver("lazy_sparse") is lazy_sparse_greedy_cover
        assert resolve_cover_solver("auto") is auto_cover_solver
        assert resolve_cover_solver(greedy_cover) is greedy_cover

    def test_resolver_rejects_unknown_names(self):
        with pytest.raises(ValidationError, match="unknown cover_solver"):
            resolve_cover_solver("simulated_annealing")
