"""The exponential mechanism (McSherry & Talwar, FOCS 2007).

Given a finite candidate set, a score function, and a bound ``Δu`` on how
much any single participant's data can change any candidate's score, the
mechanism samples candidate ``x`` with probability

    Pr[x] ∝ exp( ε · u(x) / (2 Δu) ),

which is ε-differentially private.  The DP-hSRC auction instantiates it
with candidates = feasible prices, score ``u(x) = −x·|S(x)|`` (negated
total payment, so cheaper prices are exponentially more likely), and
sensitivity ``Δu = N·c_max`` (one bid can change a winner set by at most
``N`` workers, each paid at most ``c_max``), recovering Equation 10 of
the paper exactly.

All weight arithmetic happens in log space (log-sum-exp) so extreme
privacy budgets (the ε = 1000 end of Figure 5) do not overflow.  The
log-sum-exp is this module's own few lines of NumPy: the arithmetic of
SciPy 1.17's ``scipy.special.logsumexp`` on a 1-D float vector, bit for
bit, without its array-API dispatch (13 against 145 µs per call on a
thirteen-price vector, measured on a 2-vCPU x86-64 host with NumPy 2.4),
so the PMF bits do not depend on which SciPy is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.exceptions import ValidationError
from repro.utils import validation
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["ExponentialMechanism"]


def _logsumexp(a: np.ndarray) -> np.float64:
    """``log(Σ exp(a))`` of a non-empty 1-D float vector, SciPy's way.

    The max is separated out for precision: with ``m`` entries equal to
    ``a_max`` and ``s`` the sum of ``exp(a − a_max)`` over the others,
    the result is ``log1p(s/m) + log(m) + a_max``.  The max entries stay
    in the summed vector as zeros, so the pairwise sum groups the others
    as SciPy's does.  An infinite or NaN max takes SciPy's direct
    ``log(Σ exp(a))`` instead.
    """
    a_max = a.max()
    if not np.isfinite(a_max):
        with np.errstate(divide="ignore", over="ignore"):
            return np.log(np.exp(a).sum())
    at_max = a == a_max
    m = np.float64(np.count_nonzero(at_max))
    shifted = np.exp(a - a_max)
    shifted[at_max] = 0.0
    s = shifted.sum()
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


@dataclass(frozen=True)
class ExponentialMechanism:
    """An instantiated exponential mechanism over a finite candidate set.

    Parameters
    ----------
    scores:
        ``(M,)`` utility score ``u(x)`` per candidate — *higher is more
        likely*.  Callers minimizing a loss should pass its negation
        (DP-hSRC passes ``−x·|S(x)|``).
    epsilon:
        Privacy budget ε > 0.
    sensitivity:
        The score sensitivity ``Δu`` > 0: an upper bound, over candidates
        ``x`` and neighboring datasets, of ``|u(x) − u'(x)|``.
    """

    scores: np.ndarray
    epsilon: float
    sensitivity: float

    def __post_init__(self) -> None:
        scores = validation.as_float_array(self.scores, "scores", ndim=1)
        if scores.size == 0:
            raise ValidationError("the exponential mechanism needs at least one candidate")
        validation.require_positive(self.epsilon, "epsilon")
        validation.require_positive(self.sensitivity, "sensitivity")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "sensitivity", float(self.sensitivity))

    @property
    def n_candidates(self) -> int:
        """Number of candidates ``M``."""
        return int(self.scores.size)

    @cached_property
    def log_probabilities(self) -> np.ndarray:
        """Normalized log-PMF, computed stably via log-sum-exp."""
        logits = (self.epsilon * self.scores) / (2.0 * self.sensitivity)
        log_probs = logits - _logsumexp(logits)
        log_probs.setflags(write=False)
        return log_probs

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Normalized PMF over the candidates."""
        probs = np.exp(self.log_probabilities)
        # Renormalize away the rounding residue of exp().
        probs = probs / probs.sum()
        probs.setflags(write=False)
        return probs

    def sample(self, seed: RngLike = None) -> int:
        """Draw one candidate index from the PMF."""
        rng = ensure_rng(seed)
        return int(rng.choice(self.n_candidates, p=self.probabilities))

    def sample_many(self, n_samples: int, seed: RngLike = None) -> np.ndarray:
        """Draw ``n_samples`` i.i.d. candidate indices."""
        rng = ensure_rng(seed)
        return rng.choice(self.n_candidates, size=int(n_samples), p=self.probabilities)

    def privacy_bound_log_ratio(self) -> float:
        """The worst-case log-probability-ratio guarantee, which is ε.

        For any neighboring dataset the log-ratio of the probability of
        any candidate is at most ``ε``: a factor ``ε/2`` from the numerator
        score shift and another ``ε/2`` from the normalizer, exactly the
        two ``exp(ε/2)`` factors in the paper's Theorem 2 proof.
        """
        return self.epsilon
