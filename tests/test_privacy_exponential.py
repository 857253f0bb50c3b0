"""Unit tests for repro.privacy.exponential."""

import ast
import inspect

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from repro.exceptions import ValidationError
from repro.privacy import exponential
from repro.privacy.exponential import ExponentialMechanism, _logsumexp


class TestDistribution:
    def test_probabilities_normalize(self):
        mech = ExponentialMechanism(
            scores=np.array([-1.0, -2.0, -3.0]), epsilon=1.0, sensitivity=1.0
        )
        assert mech.probabilities.sum() == pytest.approx(1.0)

    def test_higher_score_more_likely(self):
        mech = ExponentialMechanism(
            scores=np.array([0.0, 1.0]), epsilon=1.0, sensitivity=1.0
        )
        assert mech.probabilities[1] > mech.probabilities[0]

    def test_exact_two_point_ratio(self):
        # P(1)/P(0) = exp(eps * (s1 - s0) / (2 * sens))
        mech = ExponentialMechanism(
            scores=np.array([0.0, 2.0]), epsilon=1.0, sensitivity=1.0
        )
        ratio = mech.probabilities[1] / mech.probabilities[0]
        assert ratio == pytest.approx(np.exp(1.0))

    def test_uniform_when_scores_equal(self):
        mech = ExponentialMechanism(
            scores=np.zeros(4), epsilon=5.0, sensitivity=1.0
        )
        assert np.allclose(mech.probabilities, 0.25)

    def test_tiny_epsilon_is_nearly_uniform(self):
        mech = ExponentialMechanism(
            scores=np.array([0.0, 100.0]), epsilon=1e-9, sensitivity=1.0
        )
        assert np.allclose(mech.probabilities, 0.5, atol=1e-6)

    def test_huge_epsilon_concentrates(self):
        mech = ExponentialMechanism(
            scores=np.array([0.0, 1.0]), epsilon=1e4, sensitivity=1.0
        )
        assert mech.probabilities[1] == pytest.approx(1.0)

    def test_extreme_scores_do_not_overflow(self):
        # Equivalent to Figure 5's eps=1000 on large payments.
        mech = ExponentialMechanism(
            scores=np.array([-1e6, -2e6, -3e6]), epsilon=1000.0, sensitivity=6e4
        )
        probs = mech.probabilities
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)

    def test_translation_invariance(self):
        a = ExponentialMechanism(np.array([0.0, 1.0, 3.0]), 1.0, 1.0)
        b = ExponentialMechanism(np.array([10.0, 11.0, 13.0]), 1.0, 1.0)
        assert np.allclose(a.probabilities, b.probabilities)


class TestDPGuarantee:
    def test_log_ratio_bounded_by_epsilon_on_neighbors(self, rng):
        """Shifting every score by ≤ sensitivity changes log-probs ≤ ε."""
        epsilon, sensitivity = 0.7, 2.0
        scores = rng.uniform(-10, 0, size=20)
        shift = rng.uniform(-sensitivity, sensitivity, size=20)
        a = ExponentialMechanism(scores, epsilon, sensitivity)
        b = ExponentialMechanism(scores + shift, epsilon, sensitivity)
        diff = np.abs(a.log_probabilities - b.log_probabilities)
        assert np.max(diff) <= epsilon + 1e-9

    def test_privacy_bound_reported(self):
        mech = ExponentialMechanism(np.zeros(2), epsilon=0.3, sensitivity=1.0)
        assert mech.privacy_bound_log_ratio() == 0.3


class TestSampling:
    def test_sample_in_range(self):
        mech = ExponentialMechanism(np.array([0.0, 1.0]), 1.0, 1.0)
        assert mech.sample(seed=0) in (0, 1)

    def test_sample_many_matches_distribution(self):
        mech = ExponentialMechanism(np.array([0.0, 2.0]), 1.0, 1.0)
        draws = mech.sample_many(50_000, seed=1)
        expected = mech.probabilities[1]
        assert np.mean(draws == 1) == pytest.approx(expected, abs=0.01)


class TestValidation:
    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            ExponentialMechanism(np.array([]), 1.0, 1.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValidationError, match="epsilon"):
            ExponentialMechanism(np.zeros(2), eps, 1.0)

    @pytest.mark.parametrize("sens", [0.0, -1.0])
    def test_bad_sensitivity_rejected(self, sens):
        with pytest.raises(ValidationError, match="sensitivity"):
            ExponentialMechanism(np.zeros(2), 1.0, sens)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def logit_vectors(draw):
    """Finite vectors at scales 1e-3..1e3, often with ties at the max."""
    n = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    units = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    a = np.array(units) * scale
    shape = draw(st.sampled_from(["as_drawn", "ties_at_max", "all_equal"]))
    if shape == "ties_at_max":
        tied = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        a[tied] = a.max()
    elif shape == "all_equal":
        a[:] = a[0]
    return a


# SciPy 1.15 moved logsumexp to the separated-max arithmetic the in-repo
# copy follows; older releases compute log(Σ exp(a − a_max)) + a_max.
SCIPY_WITH_SEPARATED_MAX = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 15)


@pytest.mark.skipif(
    not SCIPY_WITH_SEPARATED_MAX, reason="the installed SciPy predates this logsumexp arithmetic"
)
class TestInRepoLogSumExp:
    """The in-repo log-sum-exp is SciPy's arithmetic, bit for bit."""

    @given(a=logit_vectors())
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_bitwise(self, a):
        assert _bits(_logsumexp(a)) == _bits(logsumexp(a))

    @pytest.mark.parametrize(
        "a",
        [
            [0.0],
            [-7.25],
            [3.0, 3.0, 3.0],
            [1.0, 1.0, -2.0, 0.5],
            [-1e6, -2e6, -3e6],
            [0.0, -np.inf],
        ],
    )
    def test_fixed_vectors_equal_scipy_bitwise(self, a):
        a = np.array(a)
        assert _bits(_logsumexp(a)) == _bits(logsumexp(a))

    @pytest.mark.parametrize(
        "a", [[np.inf, 1.0], [-np.inf, -np.inf], [np.inf, 1000.0], [np.nan, 1.0]]
    )
    def test_non_finite_max_takes_scipys_direct_path(self, a):
        a = np.array(a)
        with np.errstate(all="raise"):
            ours = _logsumexp(a)
        assert _bits(ours) == _bits(logsumexp(a))

    @given(a=logit_vectors(), epsilon=st.floats(1e-3, 1e3), sensitivity=st.floats(1e-2, 1e2))
    @settings(max_examples=100, deadline=None)
    def test_log_probabilities_equal_the_scipy_formula(self, a, epsilon, sensitivity):
        mech = ExponentialMechanism(a, epsilon, sensitivity)
        logits = (epsilon * mech.scores) / (2.0 * sensitivity)
        assert mech.log_probabilities.tobytes() == (logits - logsumexp(logits)).tobytes()


def test_exponential_module_does_not_import_scipy():
    tree = ast.parse(inspect.getsource(exponential))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("value", [-3.5, 0.0, 2.0, 1e3])
def test_ties_at_the_max_add_log_m_exactly(value):
    """All-equal vectors: ``s`` is 0, so the result is ``log(m) + a_max``."""
    for m in (1, 2, 5):
        assert _logsumexp(np.full(m, value)) == np.log(np.float64(m)) + value
