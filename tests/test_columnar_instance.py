"""The columnar auction instance: CSR bids from announce to cover.

Pins the representation's contracts:

* the CSR column sums (``AuctionInstance.coverage``) are bitwise NumPy's
  dense axis-0 sums, at ``K = 1`` (a pairwise sum) and ``K >= 2`` (rows
  added in order), and the instance's ``sparse_quality`` equals
  ``SparseCoverage.from_dense`` of the dense effective quality;
* bid profiles built from ``Bid`` objects, from a pool and from CSR
  arrays are indistinguishable, and every input check raises its message;
* ``Platform.run_round`` forms labels, the vote and the coverage only on
  the winners' rows, yet equals the dense expressions bit for bit, for
  PCG64 and MT19937 streams;
* ``auto`` picks the kernel the dense rule picks, from the CSR's ``nnz``.
"""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.error_bounds import achieved_error_bound
from repro.aggregation.weighted import weighted_aggregate
from repro.auction.bids import Bid, BidProfile
from repro.auction.instance import AuctionInstance
from repro.auction.outcome import AuctionOutcome
from repro.coverage.dispatch import (
    AUTO_SPARSE_MAX_DENSITY,
    AUTO_SPARSE_MIN_ITEMS,
    auto_cover_solver,
    shared_cover_state,
    use_lazy_kernel,
)
from repro.coverage.greedy import GreedyState, greedy_cover
from repro.coverage.lazy import LazyGreedyState, lazy_sparse_greedy_cover
from repro.coverage.problem import CoverProblem
from repro.coverage.sparse import SparseCoverage
from repro.exceptions import ValidationError
from repro.mcs.platform import Platform
from repro.mcs.sensing import assignment_mask
from repro.mcs.tasks import TaskSet
from repro.mcs.workers import WorkerPool
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.tolerances import DEMAND_TOL

GRID = np.round(np.arange(1.0, 10.01, 0.5), 10)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 60)
task_counts = st.sampled_from([1, 2, 3, 7])


def random_pool(rng, n, k):
    """A pool with about a fifth of its skills at exactly 0.5 (quality 0)."""
    skills = rng.uniform(0.0, 1.0, (n, k))
    skills[rng.random((n, k)) < 0.2] = 0.5
    bundles = tuple(
        frozenset(rng.choice(k, int(size), replace=False).tolist())
        for size in rng.integers(1, k + 1, n)
    )
    costs = np.round(rng.uniform(1.0, 10.0, n), 1)
    return WorkerPool(skills=skills, bundles=bundles, costs=costs)


def instance_of(pool, rng):
    return pool.to_instance(
        error_thresholds=rng.uniform(0.3, 0.5, pool.n_tasks),
        price_grid=GRID,
        c_min=1.0,
        c_max=10.0,
    )


def bits(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# column sums and the instance's CSR


@given(seed=seeds, n=sizes, k=task_counts)
@settings(max_examples=80, deadline=None)
def test_column_sums_equal_dense_sums_bitwise(seed, n, k):
    rng = np.random.default_rng(seed)
    instance = instance_of(random_pool(rng, n, k), rng)
    eff = instance.effective_quality
    masks = [rng.random(n) < rng.random(), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
    for mask in masks:
        assert bits(instance.coverage(mask)) == bits(eff[mask].sum(axis=0))
    rows = np.flatnonzero(rng.random(n) < 0.5)
    assert bits(instance.coverage(rows)) == bits(eff[rows].sum(axis=0))
    assert bits(instance.coverage()) == bits(eff.sum(axis=0))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 30])
def test_column_sums_hold_at_ten_thousand_rows(k):
    # At K = 1 NumPy sums an (n, 1) column pairwise; a plain running sum
    # differs from it in the last bits once n passes 16.
    rng = np.random.default_rng(k)
    gains = rng.uniform(0.0, 1.0, (10_000, k))
    gains[rng.random(gains.shape) < 0.6] = 0.0
    sparse = SparseCoverage.from_dense(gains, np.ones(k))
    for mask in (rng.random(10_000) < 0.7, None):
        dense = gains.sum(axis=0) if mask is None else gains[mask].sum(axis=0)
        assert bits(sparse.column_sums(mask)) == bits(dense)


@given(seed=seeds, n=sizes, k=task_counts)
@settings(max_examples=40, deadline=None)
def test_sparse_quality_equals_from_dense(seed, n, k):
    rng = np.random.default_rng(seed)
    instance = instance_of(random_pool(rng, n, k), rng)
    ref = SparseCoverage.from_dense(instance.effective_quality, instance.demands)
    got = instance.sparse_quality
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert getattr(got, name).dtype == getattr(ref, name).dtype
    assert bits(got.data) == bits(ref.data)
    assert bits(got.demands) == bits(ref.demands)
    assert np.all(got.data > 0.0)  # the θ = 0.5 entries are dropped


# ---------------------------------------------------------------------------
# bid profiles


def three_profiles(pool):
    from_bids = BidProfile([Bid(b, c) for b, c in zip(pool.bundles, pool.costs)])
    from_pool = pool.truthful_bids()
    from_csr = BidProfile.from_csr(from_pool.indptr, from_pool.indices, pool.costs)
    return from_bids, from_pool, from_csr


@given(seed=seeds, n=sizes, k=task_counts)
@settings(max_examples=40, deadline=None)
def test_profiles_from_bids_pool_and_csr_agree(seed, n, k):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, n, k)
    reference, *others = three_profiles(pool)
    worker = int(rng.integers(n))
    # 4.55 is off the cost lattice, so the replaced profile always differs.
    bid = Bid(rng.choice(k, int(rng.integers(1, k + 1)), replace=False), 4.55)
    for profile in others:
        assert list(profile) == list(reference)
        assert [profile[i] for i in range(-n, n)] == [reference[i] for i in range(-n, n)]
        assert profile[1:3] == reference[1:3]
        assert np.array_equal(profile.prices, reference.prices)
        assert np.array_equal(profile.bundle_mask(k), reference.bundle_mask(k))
        assert profile == reference and hash(profile) == hash(reference)
        restored = pickle.loads(pickle.dumps(profile))
        assert restored == reference and list(restored) == list(reference)
        replaced = profile.replace(worker, bid)
        assert replaced == reference.replace(worker, bid)
        assert list(replaced) == list(reference.replace(worker, bid))
        assert replaced != profile
        assert (profile.min_price(), profile.max_price()) == (
            reference.min_price(),
            reference.max_price(),
        )
    assert np.array_equal(reference.bundle_mask(k), pool.bundle_mask())


def test_prices_is_a_fresh_array_on_every_path():
    pool = random_pool(np.random.default_rng(3), 5, 3)
    for profile in three_profiles(pool):
        profile.prices[0] = -1.0
        assert profile.prices[0] == pool.costs[0]


def test_a_negative_zero_price_hashes_like_zero():
    a = BidProfile([Bid([0], 0.0)])
    b = BidProfile([Bid([0], -0.0)])
    assert a == b and hash(a) == hash(b)


class TestValidationErrors:
    """Every check of the object path raises the same message on the CSR path."""

    @pytest.mark.parametrize(
        "indptr, tasks, prices, message",
        [
            ([0, 1, 1], [0], [1.0, 2.0], "a bid must name at least one task"),
            ([0, 1, 2], [0, -1], [1.0, 2.0], "bundle task indices must be non-negative"),
            ([0, 1, 2], [0, 1], [1.0, -2.0], "bid price must be finite and non-negative, got -2.0"),
            ([0, 1, 2], [0, 1], [1.0, np.nan], "bid price must be finite and non-negative, got nan"),
        ],
    )
    def test_bid_checks(self, indptr, tasks, prices, message):
        rows = [tasks[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
        with pytest.raises(ValidationError, match=re.escape(message)):
            BidProfile([Bid(bundle, price) for bundle, price in zip(rows, prices)])
        with pytest.raises(ValidationError, match=re.escape(message)):
            BidProfile.from_csr(indptr, tasks, prices)

    def test_empty_profile(self):
        for build in (lambda: BidProfile([]), lambda: BidProfile.from_csr([0], [], [])):
            with pytest.raises(ValidationError, match="at least one bid"):
                build()

    def test_csr_rows_must_be_strictly_increasing(self):
        for tasks in ([1, 0], [0, 0]):
            with pytest.raises(ValidationError, match="strictly increasing"):
                BidProfile.from_csr([0, 2], tasks, [1.0])

    def test_malformed_indptr(self):
        with pytest.raises(ValidationError, match="indptr"):
            BidProfile.from_csr([0, 2, 1], [0, 1], [1.0, 2.0])

    def test_task_out_of_range(self):
        message = "bid 1 names task 5 but the instance has only 2 tasks"
        profile = BidProfile([Bid([0], 1.0), Bid([1, 5], 2.0)])
        csr = BidProfile.from_csr(profile.indptr, profile.indices, profile.prices)
        for bids in (profile, csr):
            with pytest.raises(ValidationError, match=message):
                bids.bundle_mask(2)
            with pytest.raises(ValidationError, match=message):
                AuctionInstance(bids, np.full((2, 2), 0.5), np.ones(2), GRID, 1.0, 10.0)
            with pytest.raises(ValidationError, match=message):
                AuctionInstance.from_skills(bids, np.full((2, 2), 0.9), [0.3, 0.3], GRID, 1.0, 10.0)
        bids = BidProfile([Bid([0], 1.0), Bid([1], 2.0)])
        ok = AuctionInstance(bids, np.full((2, 2), 0.5), np.ones(2), GRID, 1.0, 10.0)
        with pytest.raises(ValidationError, match=message):
            ok.replace_bid(1, Bid([1, 5], 2.0))
        with pytest.raises(ValidationError, match="not a Bid"):
            ok.bids.replace(1, "nope")

    @pytest.mark.parametrize(
        "skills, thresholds, message",
        [
            (np.array([[1.2, 0.5]]), [0.3, 0.3], "every element of skills must lie in [0, 1]"),
            (np.array([[np.nan, 0.5]]), [0.3, 0.3], "skills must contain only finite values"),
            (np.array([0.9, 0.5]), [0.3, 0.3], "skills must be 2-dimensional, got ndim=1"),
            (np.array([[0.9, 0.5]]), [0.3, 1.5], "error_thresholds must lie in the open interval"),
        ],
    )
    def test_from_skills_checks(self, skills, thresholds, message):
        bids = BidProfile([Bid([0, 1], 1.0)])
        with pytest.raises(ValidationError, match=re.escape(message)):
            AuctionInstance.from_skills(bids, skills, thresholds, GRID, 1.0, 10.0)

    def test_pool_reports_its_first_bad_worker(self):
        with pytest.raises(ValidationError, match="worker 0's bundle names an unknown task"):
            WorkerPool(skills=np.full((2, 2), 0.8), bundles=({-1}, set()), costs=np.ones(2))


# ---------------------------------------------------------------------------
# the platform round


class FixedWinners:
    """A mechanism stand-in that always picks the same winners."""

    def __init__(self, winners):
        self.winners = winners

    def run(self, instance, seed=None):
        return AuctionOutcome(winners=self.winners, price=5.0, n_workers=instance.n_workers)


def dense_round(pool, tasks, instance, winners, sensing_rng, recorded):
    """The round's quantities as the dense expressions over all N rows."""
    assignments = assignment_mask(instance.bundle_mask, winners)
    correct = sensing_rng.random(pool.skills.shape) < pool.skills
    reported = np.where(correct, tasks.true_labels[None, :], -tasks.true_labels[None, :])
    labels = np.where(assignments, reported, 0).astype(int)
    aggregated = weighted_aggregate(labels, recorded)
    coverage = instance.effective_quality[winners].sum(axis=0)
    return labels, aggregated, coverage


def round_and_reference_seeds(kind, seed):
    """The round's seed and an equal generator for the reference."""
    if kind == "pcg64":
        return seed, np.random.default_rng(seed)
    return tuple(np.random.Generator(np.random.MT19937(seed)) for _ in range(2))


@given(
    seed=seeds,
    n=sizes,
    k=task_counts,
    kind=st.sampled_from(["pcg64", "mt19937"]),
    winners_kind=st.sampled_from(["some", "all", "none"]),
    lattice_record=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_run_round_equals_the_dense_expressions(seed, n, k, kind, winners_kind, lattice_record):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, n, k)
    instance = instance_of(pool, rng)
    tasks = TaskSet.random(k, (0.3, 0.5), seed=rng)
    winners = {
        "some": np.flatnonzero(rng.random(n) < 0.4),
        "all": np.arange(n),
        "none": np.array([], dtype=int),
    }[winners_kind]
    # Lattice skills make opposing votes cancel, so zero-sum ties occur.
    record = np.round(rng.uniform(0.1, 0.9, (n, k)), 1) if lattice_record else None

    round_seed, reference_rng = round_and_reference_seeds(kind, seed)
    report = Platform(FixedWinners(winners)).run_round(
        pool, tasks, instance, seed=round_seed, recorded_skills=record
    )
    _, sensing_rng = reference_rng.spawn(2)
    labels, aggregated, coverage = dense_round(
        pool, tasks, instance, winners, sensing_rng, pool.skills if record is None else record
    )

    assert report.labels.dtype == labels.dtype
    assert np.array_equal(report.labels, labels)
    assert np.array_equal(report.aggregated, aggregated)
    assert report.accuracy == float(np.mean(aggregated == tasks.true_labels))
    assert bits(report.coverage) == bits(coverage)
    assert np.array_equal(report.demand_met, coverage >= instance.demands - DEMAND_TOL)
    assert bits(report.error_bounds) == bits(achieved_error_bound(coverage))


def round_with(pool, tasks, instance, record):
    """A round won by workers 0 and 1, aggregated with ``record``."""
    platform = Platform(FixedWinners([0, 1]))
    return platform.run_round(pool, tasks, instance, seed=1, recorded_skills=record)


class TestRecordedSkillsChecks:
    """A bad record raises even where only losing rows are bad."""

    @pytest.fixture
    def market(self):
        rng = np.random.default_rng(11)
        pool = random_pool(rng, 12, 4)
        return pool, instance_of(pool, rng), TaskSet.random(4, (0.3, 0.5), seed=rng)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda r: r.__setitem__((11, 0), 1.5), "every element of skills must lie in [0, 1]"),
            (lambda r: r.__setitem__((11, 3), np.nan), "skills must contain only finite values"),
        ],
    )
    def test_bad_values_in_a_losing_row(self, market, spoil, message):
        pool, instance, tasks = market
        record = pool.skills.copy()
        spoil(record)
        with pytest.raises(ValidationError, match=re.escape(message)):
            round_with(pool, tasks, instance, record)

    @pytest.mark.parametrize("shape", [(11, 4), (12, 3), (12,)])
    def test_mis_shaped(self, market, shape):
        pool, instance, tasks = market
        record = np.full(shape, 0.7)
        with pytest.raises(ValidationError):
            round_with(pool, tasks, instance, record)


def test_a_lazy_round_never_builds_the_dense_effective_quality():
    rng = np.random.default_rng(5)
    n, k = 600, 60
    skills = rng.uniform(0.55, 1.0, (n, k))
    bundles = tuple(frozenset(rng.choice(k, 2, replace=False).tolist()) for _ in range(n))
    pool = WorkerPool(skills=skills, bundles=bundles, costs=np.round(rng.uniform(1, 10, n), 1))
    tasks = TaskSet(true_labels=np.ones(k, dtype=int), error_thresholds=np.full(k, 0.45))
    instance = pool.to_instance(tasks.error_thresholds, GRID, 1.0, 10.0)
    assert type(shared_cover_state(auto_cover_solver, instance.sparse_quality)) is LazyGreedyState
    report = Platform(DPHSRCAuction(0.5)).run_round(pool, tasks, instance, seed=3)
    assert report.demand_met.all()
    assert "effective_quality" not in vars(instance)


# ---------------------------------------------------------------------------
# kernel dispatch


def banded_instance(n_workers, n_tasks, *, extra_entry):
    """Three bundle tasks per worker, one at quality 0: ``nnz`` = 2N exactly.

    With ``n_tasks = 40`` that is density 0.05, the cutoff itself;
    ``extra_entry`` gives one zero entry a positive quality.
    """
    skills = np.full((n_workers, n_tasks), 0.9)
    bundles = []
    for i in range(n_workers):
        tasks = [(i + s) % n_tasks for s in range(3)]
        skills[i, tasks[2]] = 0.5
        bundles.append(frozenset(tasks))
    if extra_entry:
        skills[0, 2] = 0.9
    pool = WorkerPool(skills=skills, bundles=tuple(bundles), costs=np.full(n_workers, 2.0))
    return pool.to_instance(np.full(n_tasks, 0.4), GRID, 1.0, 10.0)


@pytest.mark.parametrize("n_workers", [AUTO_SPARSE_MIN_ITEMS - 1, AUTO_SPARSE_MIN_ITEMS])
@pytest.mark.parametrize("extra_entry", [False, True])
def test_auto_picks_the_dense_rules_kernel(n_workers, extra_entry):
    instance = banded_instance(n_workers, 40, extra_entry=extra_entry)
    sparse = instance.sparse_quality
    assert (sparse.density <= AUTO_SPARSE_MAX_DENSITY) is (not extra_entry)
    dense_rule = use_lazy_kernel(CoverProblem(instance.effective_quality, instance.demands))
    assert dense_rule is (n_workers >= AUTO_SPARSE_MIN_ITEMS and not extra_entry)
    state = shared_cover_state(auto_cover_solver, sparse)
    assert type(state) is (LazyGreedyState if dense_rule else GreedyState)


def test_states_receive_the_instances_own_matrix():
    instance = banded_instance(64, 40, extra_entry=False)
    lazy = shared_cover_state(lazy_sparse_greedy_cover, instance.sparse_quality)
    assert lazy.sparse is instance.sparse_quality
    dense = shared_cover_state(greedy_cover, instance.sparse_quality)
    assert bits(dense.problem.gains) == bits(instance.effective_quality)
    assert shared_cover_state(lambda problem: None, instance.sparse_quality) is None
