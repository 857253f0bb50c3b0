"""Auction outcomes: winners, the clearing price, payments, utilities.

Captures Definitions 3 (worker utility) and 4 (platform total payment).
The library's mechanisms are single-price (Section IV), so the payment to
every winner is the sampled clearing price; :class:`AuctionOutcome` still
stores a full payment vector so alternative payment rules can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.exceptions import ValidationError
from repro.utils import validation

__all__ = ["AuctionOutcome"]


def _sorted_winner_ids(winners) -> np.ndarray:
    """A winner set as a fresh sorted ``int`` array (never the caller's).

    Non-integer input goes through ``int()`` element by element, which
    truncates floats and rejects NaN and infinities.
    """
    ids = np.asarray(winners).ravel()
    if ids.dtype.kind != "i":
        ids = np.array([int(i) for i in ids], dtype=int)
    return np.sort(ids).astype(int, copy=False)


def _check_winner_ids(sets: list[np.ndarray], n_workers: int) -> None:
    """Reject sorted winner-id arrays with an id outside ``[0, N)`` or a repeat.

    The arrays are checked laid end to end in one pass (a PMF has one per
    affordable-worker group); an equal pair straddling two arrays is not
    a repeat.
    """
    ids = sets[0] if len(sets) == 1 else np.concatenate(sets)
    if ids.size == 0:
        return
    if ids.min() < 0 or ids.max() >= n_workers:
        raise ValidationError("winner indices out of range")
    repeats = ids[1:] == ids[:-1]
    if len(sets) > 1:
        ends = np.cumsum([s.size for s in sets[:-1]])
        repeats[ends[(ends > 0) & (ends < ids.size)] - 1] = False
    if repeats.any():
        raise ValidationError("winner indices must be unique")


@dataclass(frozen=True)
class AuctionOutcome:
    """The result of running a mechanism on an auction instance.

    The constructor validates its input: winner ids are sorted (one NumPy
    sort) and must lie in ``[0, N)`` without repeats (an adjacent-equality
    test), and the price must be finite and non-negative.  Outcomes drawn
    from a :class:`~repro.auction.mechanism.PricePMF` are built by a
    trusted path instead, because the PMF checked its support once when it
    was built; the two are equal field for field.

    Attributes
    ----------
    winners:
        Sorted ``(|S|,)`` integer array of winning worker indices.
    price:
        The single clearing price ``p`` sampled by the mechanism.
    n_workers:
        Total number of workers in the instance (losers receive zero
        payment and zero utility).
    payments:
        ``(N,)`` payment vector; winners receive ``price``, losers 0.
        Computed automatically when not supplied.
    degraded:
        ``True`` when this outcome came from the budget-admission
        fallback path — an exhausted tenant served by the baseline
        mechanism instead of the premium one it asked for (see
        :mod:`repro.privacy.budget`).  Defaults to ``False``.
    """

    winners: np.ndarray
    price: float
    n_workers: int
    payments: np.ndarray = field(default=None)  # type: ignore[assignment]
    degraded: bool = False

    def __post_init__(self) -> None:
        winners = _sorted_winner_ids(self.winners)
        _check_winner_ids([winners], self.n_workers)
        price = float(self.price)
        if not np.isfinite(price) or price < 0:
            raise ValidationError(f"price must be finite and non-negative, got {price!r}")

        if self.payments is None:
            payments = np.zeros(self.n_workers, dtype=float)
            payments[winners] = price
        else:
            payments = validation.as_float_array(self.payments, "payments", ndim=1)
            if payments.shape[0] != self.n_workers:
                raise ValidationError(
                    f"payments has length {payments.shape[0]} but the auction "
                    f"has {self.n_workers} workers"
                )
        winners.setflags(write=False)
        payments.setflags(write=False)
        object.__setattr__(self, "winners", winners)
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "payments", payments)
        object.__setattr__(self, "degraded", bool(self.degraded))

    @classmethod
    def _from_validated(
        cls, winners: np.ndarray, price: float, n_workers: int, degraded: bool
    ) -> AuctionOutcome:
        """The trusted constructor behind ``PricePMF.outcome_at``: no check.

        ``winners`` is a PMF's checked, read-only winner set (shared, not
        copied) and ``price`` one of its support prices.
        """
        payments = np.zeros(n_workers, dtype=float)
        payments[winners] = price
        payments.setflags(write=False)
        outcome = object.__new__(cls)
        object.__setattr__(outcome, "winners", winners)
        object.__setattr__(outcome, "price", price)
        object.__setattr__(outcome, "n_workers", n_workers)
        object.__setattr__(outcome, "payments", payments)
        object.__setattr__(outcome, "degraded", degraded)
        return outcome

    @cached_property
    def winner_set(self) -> frozenset[int]:
        """Winning worker indices as a frozenset ``S``."""
        return frozenset(int(i) for i in self.winners)

    @property
    def n_winners(self) -> int:
        """Cardinality ``|S|`` of the winner set."""
        return int(self.winners.size)

    @property
    def total_payment(self) -> float:
        """Platform's total payment ``R(p, S) = Σ_{i∈S} p_i`` (Definition 4)."""
        return float(np.sum(self.payments))

    def is_winner(self, worker: int) -> bool:
        """Whether worker ``worker`` is in the winner set."""
        return int(worker) in self.winner_set

    def utility(self, worker: int, cost: float) -> float:
        """Worker ``worker``'s utility given her true cost (Definition 3).

        ``p_i − c_i`` for winners, 0 for losers.  ``cost`` is the worker's
        *true* cost for her bundle, which may differ from her bid.
        """
        if self.is_winner(worker):
            return float(self.payments[int(worker)] - cost)
        return 0.0

    def utilities(self, costs: np.ndarray) -> np.ndarray:
        """Vector of utilities for all workers given their true costs."""
        costs = validation.as_float_array(costs, "costs", ndim=1)
        if costs.shape[0] != self.n_workers:
            raise ValidationError(
                f"costs has length {costs.shape[0]} but the auction has "
                f"{self.n_workers} workers"
            )
        util = np.zeros(self.n_workers, dtype=float)
        idx = self.winners
        util[idx] = self.payments[idx] - costs[idx]
        return util
