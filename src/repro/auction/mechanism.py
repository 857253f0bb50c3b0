"""Mechanism interface and exact price distributions.

Every mechanism in this library (DP-hSRC, the baseline auction, the
optimal single-price benchmark) is a *single-price* mechanism: it
computes, for each feasible price ``x`` in the price set ``P``, a winner
set ``S(x)``, and then selects the final price — deterministically for the
optimal benchmark, or randomly via the exponential mechanism for the
private mechanisms.

Because the randomness of the private mechanisms lives entirely in the
final price draw, the full outcome distribution is *analytically
available* as a probability mass function over ``P``.  The
:class:`PricePMF` type captures it, which lets the analysis package
compute expected payments, KL-divergence privacy leakage, and exact
truthfulness gaps without Monte-Carlo error.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.outcome import AuctionOutcome, _check_winner_ids, _sorted_winner_ids
from repro.exceptions import ValidationError
from repro.utils import validation
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["PricePMF", "Mechanism"]


def _settled_probabilities(probs: np.ndarray) -> np.ndarray:
    """Check a probability vector's values; return it clipped at 0, read-only."""
    if np.any(probs < -1e-12):
        raise ValidationError("probabilities must be non-negative")
    total = float(np.sum(probs))
    # np.isclose(total, 1.0, atol=1e-9)'s test in scalar arithmetic: np.isclose
    # on one float costs more than the rest of this check.
    if not abs(total - 1.0) <= 1e-9 + 1e-5 * 1.0:
        raise ValidationError(f"probabilities must sum to 1, got {total}")
    probs = np.clip(probs, 0.0, None)
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class PricePMF:
    """Exact outcome distribution of a single-price mechanism.

    The constructor validates the support once: prices, winner sets
    (ids in ``[0, N)`` and unique, checked once per distinct set) and
    probabilities, with the messages :class:`AuctionOutcome` would raise
    at a draw.  Everything built from a PMF afterwards trusts that
    support: :meth:`reweighted` checks only its new probability vector,
    and :meth:`outcome_at` builds outcomes without re-checking winners.

    Attributes
    ----------
    prices:
        ``(M,)`` strictly increasing, non-negative feasible prices (the
        set ``P``); read-only.
    probabilities:
        ``(M,)`` probability of each price; sums to 1; read-only.
    winner_sets:
        Tuple of ``M`` sorted, read-only integer arrays;
        ``winner_sets[k]`` is the winner set the mechanism commits to
        when price ``prices[k]`` is drawn.  Prices that were given one
        set object share one normalized array.
    n_workers:
        Number of workers in the underlying instance.
    degraded:
        ``True`` when this PMF came from the budget-admission fallback
        path (an exhausted tenant served by the baseline mechanism);
        propagated onto every outcome sampled from it.
    """

    prices: np.ndarray
    probabilities: np.ndarray
    winner_sets: tuple[np.ndarray, ...]
    n_workers: int
    degraded: bool = False

    def __post_init__(self) -> None:
        prices = validation.as_float_array(self.prices, "prices", ndim=1)
        probs = validation.as_float_array(self.probabilities, "probabilities", ndim=1)
        if prices.shape != probs.shape:
            raise ValidationError("prices and probabilities must have equal length")
        if prices.size == 0:
            raise ValidationError("a price PMF needs at least one support point")
        if np.any(np.diff(prices) <= 0):
            raise ValidationError("prices must be strictly increasing")
        probs = _settled_probabilities(probs)
        if len(self.winner_sets) != prices.size:
            raise ValidationError("one winner set per support price is required")
        # Prices are increasing, so the first is the smallest.
        if prices[0] < 0:
            raise ValidationError(
                f"price must be finite and non-negative, got {float(prices[0])!r}"
            )
        # Prices of one affordable-worker group share one winner-set
        # object: normalize and check each distinct object once and share
        # the result.
        normalized: dict[int, np.ndarray] = {}
        for s in self.winner_sets:
            if id(s) not in normalized:
                normalized[id(s)] = _sorted_winner_ids(s)
        _check_winner_ids(list(normalized.values()), self.n_workers)
        for ids in normalized.values():
            ids.setflags(write=False)
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(
            self, "winner_sets", tuple(normalized[id(s)] for s in self.winner_sets)
        )
        object.__setattr__(self, "degraded", bool(self.degraded))

    def reweighted(self, probabilities, *, degraded: bool = False) -> PricePMF:
        """This support under new probabilities: the trusted re-scoring path.

        Equal, field for field, to ``PricePMF(self.prices, probabilities,
        self.winner_sets, self.n_workers, degraded)``, but only the
        probability vector is checked (length, finiteness, non-negativity,
        sum, with the constructor's messages).  The read-only prices and
        winner-set arrays are shared, not copied or re-validated.
        """
        probs = validation.as_float_array(probabilities, "probabilities", ndim=1)
        if probs.shape != self.prices.shape:
            raise ValidationError("prices and probabilities must have equal length")
        pmf = object.__new__(PricePMF)
        object.__setattr__(pmf, "prices", self.prices)
        object.__setattr__(pmf, "probabilities", _settled_probabilities(probs))
        object.__setattr__(pmf, "winner_sets", self.winner_sets)
        object.__setattr__(pmf, "n_workers", self.n_workers)
        object.__setattr__(pmf, "degraded", bool(degraded))
        return pmf

    @property
    def support_size(self) -> int:
        """Number of feasible prices ``|P|``."""
        return int(self.prices.size)

    @cached_property
    def cover_sizes(self) -> np.ndarray:
        """``(M,)`` winner-set cardinalities ``|S(x)|`` per support price."""
        sizes = np.array([s.size for s in self.winner_sets], dtype=int)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def total_payments(self) -> np.ndarray:
        """``(M,)`` total payment ``x · |S(x)|`` per support price."""
        payments = self.prices * self.cover_sizes
        payments.setflags(write=False)
        return payments

    def expected_total_payment(self) -> float:
        """Exact expectation of the platform's total payment."""
        return float(np.dot(self.probabilities, self.total_payments))

    def std_total_payment(self) -> float:
        """Exact standard deviation of the platform's total payment."""
        mean = self.expected_total_payment()
        second = float(np.dot(self.probabilities, self.total_payments**2))
        return float(np.sqrt(max(second - mean * mean, 0.0)))

    def min_total_payment(self) -> float:
        """Smallest total payment over the support (``R_min`` of Thm 6)."""
        return float(np.min(self.total_payments))

    def probability_of(self, price: float) -> float:
        """Probability mass assigned to a specific support price."""
        idx = np.searchsorted(self.prices, price)
        if idx < self.prices.size and np.isclose(self.prices[idx], price):
            return float(self.probabilities[idx])
        return 0.0

    def outcome_at(self, index: int) -> AuctionOutcome:
        """The deterministic outcome committed to support index ``index``.

        Equal to ``AuctionOutcome(winners=..., price=..., n_workers=...,
        degraded=...)`` on that support point, but its winners are the
        PMF's checked, read-only winner set, shared rather than re-sorted
        and re-checked on every draw.
        """
        return AuctionOutcome._from_validated(
            self.winner_sets[index], float(self.prices[index]), self.n_workers, self.degraded
        )

    def sample_index(self, seed: RngLike = None) -> int:
        """Draw a support index according to the PMF."""
        rng = ensure_rng(seed)
        return int(rng.choice(self.support_size, p=self.probabilities))

    def sample_outcome(self, seed: RngLike = None) -> AuctionOutcome:
        """Draw a full auction outcome (price + its winner set)."""
        return self.outcome_at(self.sample_index(seed))

    def sample_prices(self, n_samples: int, seed: RngLike = None) -> np.ndarray:
        """Draw ``n_samples`` i.i.d. clearing prices (used by Figures 1–4)."""
        rng = ensure_rng(seed)
        idx = rng.choice(self.support_size, size=int(n_samples), p=self.probabilities)
        return self.prices[idx]

    def expected_utility(self, worker: int, cost: float) -> float:
        """Exact expected utility of ``worker`` with true bundle cost ``cost``.

        Averages Definition 3's utility over the price distribution; used
        by the γ-truthfulness audit, which needs exact expectations rather
        than Monte-Carlo estimates.
        """
        total = 0.0
        worker = int(worker)
        for k in range(self.support_size):
            if worker in self.winner_sets[k]:
                total += self.probabilities[k] * (self.prices[k] - cost)
        return float(total)

    def win_probability(self, worker: int) -> float:
        """Probability that ``worker`` ends up in the winner set."""
        worker = int(worker)
        return float(
            sum(
                self.probabilities[k]
                for k in range(self.support_size)
                if worker in self.winner_sets[k]
            )
        )


class Mechanism(abc.ABC):
    """Abstract single-price auction mechanism.

    Concrete mechanisms implement :meth:`price_pmf`, which maps an
    :class:`~repro.auction.instance.AuctionInstance` to the exact
    distribution over (price, winner-set) outcomes.  :meth:`run` then
    samples one outcome, which is what a deployed platform would execute.
    """

    #: Human-readable mechanism name used in experiment reports.
    name: str = "mechanism"

    @abc.abstractmethod
    def price_pmf(self, instance: AuctionInstance) -> PricePMF:
        """Compute the exact price distribution for ``instance``.

        Implementations must be deterministic: all randomness is deferred
        to sampling from the returned PMF.
        """

    def run(self, instance: AuctionInstance, seed: RngLike = None) -> AuctionOutcome:
        """Execute the mechanism once: compute the PMF, then sample it.

        With an observability recorder installed (see :mod:`repro.obs`)
        the final draw is timed under a ``sample`` span; the sampling
        itself is untouched, so outcomes are identical with or without
        a recorder.
        """
        from repro.obs import current_recorder

        pmf = self.price_pmf(instance)
        recorder = current_recorder()
        with recorder.span(
            "sample", f"{self.name}.sample", support_size=pmf.support_size
        ) as span:
            outcome = pmf.sample_outcome(seed)
            span.set(price=float(outcome.price), n_winners=int(outcome.n_winners))
        recorder.count("auction.runs")
        return outcome

    def expected_total_payment(self, instance: AuctionInstance) -> float:
        """Convenience: exact expected total payment on ``instance``."""
        return self.price_pmf(instance).expected_total_payment()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
