"""Bids and bid profiles for the hSRC auction (paper Definitions 1–2).

A worker's bid ``b_i = (Γ_i, ρ_i)`` consists of the bundle of tasks she
offers to execute and her asking price.  The *truthful* bid is the special
case where the bundle is her actually-interested bundle and the price is
her true cost (Definition 2); the library never assumes truthfulness — the
analysis package empirically audits it instead.

A single-minded bid is one sparse row: a set of task indices and one
price.  A :class:`BidProfile` therefore stores the whole profile in CSR
form (compressed sparse rows): ``indptr`` (row pointers), ``indices``
(each bundle's task indices, strictly increasing within a row) and one
price per row.  Each input is validated once, where it enters: by
:class:`Bid`, by :meth:`BidProfile.from_csr`, or by the producer of
already-validated arrays (the frozen :class:`~repro.mcs.workers.WorkerPool`,
the shared-memory transport), which wraps them without a copy.
:class:`Bid` objects are built on demand from the rows, so the auction
never pays for ``N`` Python objects it does not ask for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["Bid", "BidProfile"]


@dataclass(frozen=True, slots=True)
class Bid:
    """A single worker's sealed bid ``(Γ_i, ρ_i)``.

    Attributes
    ----------
    bundle:
        The set of task indices the worker offers to execute.  Stored as a
        ``frozenset`` so bids are hashable and immutable.
    price:
        The worker's asking price ``ρ_i`` for executing the whole bundle.
    """

    bundle: frozenset[int]
    price: float

    def __init__(self, bundle: Iterable[int], price: float) -> None:
        bundle_set = frozenset(int(j) for j in bundle)
        if any(j < 0 for j in bundle_set):
            raise ValidationError("bundle task indices must be non-negative")
        if not bundle_set:
            raise ValidationError("a bid must name at least one task")
        price = float(price)
        if not np.isfinite(price) or price < 0:
            raise ValidationError(f"bid price must be finite and non-negative, got {price!r}")
        object.__setattr__(self, "bundle", bundle_set)
        object.__setattr__(self, "price", price)

    @classmethod
    def _from_validated(cls, bundle: frozenset[int], price: float) -> "Bid":
        """A bid over an already-validated row, without re-checking it."""
        bid = object.__new__(cls)
        object.__setattr__(bid, "bundle", bundle)
        object.__setattr__(bid, "price", price)
        return bid

    def with_price(self, price: float) -> "Bid":
        """Return a copy of this bid with a different asking price."""
        return Bid(self.bundle, price)

    def with_bundle(self, bundle: Iterable[int]) -> "Bid":
        """Return a copy of this bid with a different bundle."""
        return Bid(bundle, self.price)

    def covers(self, task: int) -> bool:
        """Whether this bid's bundle contains task index ``task``."""
        return int(task) in self.bundle


class BidProfile:
    """An ordered collection of all workers' bids ``b = (b_1, ..., b_N)``.

    Stored as CSR rows (see the module docstring): bid ``i``'s bundle is
    ``indices[indptr[i]:indptr[i + 1]]`` and its price the ``i``-th entry
    of :attr:`prices`.  Indexing and iteration yield :class:`Bid` objects
    built from the rows.

    The profile is immutable; "changing one worker's bid" (the neighboring
    relation of differential privacy, Definition 7) is expressed with
    :meth:`replace`, which returns a new profile.
    """

    __slots__ = ("_indptr", "_indices", "_prices", "_bids")

    def __init__(self, bids: Sequence[Bid]) -> None:
        bids = tuple(bids)
        if not bids:
            raise ValidationError("a bid profile must contain at least one bid")
        for i, bid in enumerate(bids):
            if not isinstance(bid, Bid):
                raise ValidationError(f"element {i} of the bid profile is not a Bid")
        n = len(bids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(bid.bundle) for bid in bids], out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(sorted(bid.bundle) for bid in bids),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        prices = np.fromiter((bid.price for bid in bids), dtype=np.float64, count=n)
        self._wrap(indptr, indices, prices, bids)

    def _wrap(self, indptr, indices, prices, bids) -> None:
        for arr in (indptr, indices, prices):
            arr.setflags(write=False)
        self._indptr, self._indices, self._prices, self._bids = indptr, indices, prices, bids

    @classmethod
    def _from_validated(
        cls, indptr: np.ndarray, indices: np.ndarray, prices: np.ndarray
    ) -> "BidProfile":
        """Wrap already-validated CSR arrays (marked read-only): no copy, no check."""
        profile = object.__new__(cls)
        profile._wrap(indptr, indices, prices, None)
        return profile

    @classmethod
    def from_csr(cls, indptr, indices, prices) -> "BidProfile":
        """A profile from CSR arrays, validated as the bids they stand for.

        Row ``i``'s bundle is ``indices[indptr[i]:indptr[i + 1]]``, with
        task indices strictly increasing within the row, and its price is
        ``prices[i]``.  The arrays are copied.  The first invalid row raises
        the error its :class:`Bid` would raise.
        """
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        prices = np.array(prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size == 0:
            raise ValidationError("a bid profile must contain at least one bid")
        n = prices.size
        if (
            indptr.shape != (n + 1,)
            or indices.ndim != 1
            or indptr[0] != 0
            or indptr[-1] != indices.size
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValidationError(
                "indptr must rise from 0 to len(indices), one entry per bid plus one"
            )
        sizes = np.diff(indptr)
        row = np.repeat(np.arange(n), sizes)
        bad = (sizes == 0) | ~np.isfinite(prices) | (prices < 0)
        bad[row[indices < 0]] = True
        # A step that does not rise inside a row: a repeated or unsorted task.
        same_row = row[1:] == row[:-1]
        bad[row[1:][same_row & (indices[1:] <= indices[:-1])]] = True
        if bad.any():
            i = int(np.argmax(bad))
            Bid(indices[indptr[i] : indptr[i + 1]], prices[i])  # raises the bid's own error
            raise ValidationError(f"bid {i}'s task indices must be strictly increasing")
        return cls._from_validated(indptr, indices, prices)

    @property
    def indptr(self) -> np.ndarray:
        """``(N + 1,)`` int64 row pointers (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """All bundles' task indices, row after row (read-only int64)."""
        return self._indices

    def __len__(self) -> int:
        return int(self._prices.size)

    def __iter__(self) -> Iterator[Bid]:
        return iter(self._bid_tuple())

    def __getitem__(self, index):
        return self._bid_tuple()[index]

    def _bid_tuple(self) -> tuple[Bid, ...]:
        """Every row as a :class:`Bid`, built on first use and kept."""
        if self._bids is None:
            bounds = self._indptr.tolist()
            tasks = self._indices.tolist()
            self._bids = tuple(
                Bid._from_validated(frozenset(tasks[lo:hi]), price)
                for lo, hi, price in zip(bounds, bounds[1:], self._prices.tolist())
            )
        return self._bids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidProfile):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._prices, other._prices)
        )

    def __hash__(self) -> int:
        # ``+ 0.0`` maps -0.0 to 0.0, so equal profiles hash alike.
        return hash(
            (self._indptr.tobytes(), self._indices.tobytes(), (self._prices + 0.0).tobytes())
        )

    def __reduce__(self):
        return (BidProfile._from_validated, (self._indptr, self._indices, self._prices))

    def __repr__(self) -> str:
        return f"BidProfile(n_workers={len(self)})"

    @property
    def prices(self) -> np.ndarray:
        """Vector of asking prices ``(ρ_1, ..., ρ_N)`` (a fresh array)."""
        return self._prices.copy()

    def replace(self, worker: int, bid: Bid) -> "BidProfile":
        """Return a profile equal to this one except worker ``worker``'s bid.

        This is exactly the neighboring-profile relation used by the
        differential-privacy definition (two profiles differing in only one
        bid).
        """
        if not 0 <= worker < len(self):
            raise ValidationError(
                f"worker index {worker} out of range for {len(self)} workers"
            )
        if not isinstance(bid, Bid):
            raise ValidationError(f"element {worker} of the bid profile is not a Bid")
        lo, hi = self._indptr[worker], self._indptr[worker + 1]
        bundle = np.array(sorted(bid.bundle), dtype=np.int64)
        indptr = self._indptr.copy()
        indptr[worker + 1 :] += bundle.size - (hi - lo)
        prices = self._prices.copy()
        prices[worker] = bid.price
        return BidProfile._from_validated(
            indptr, np.concatenate([self._indices[:lo], bundle, self._indices[hi:]]), prices
        )

    def _check_tasks(self, n_tasks: int) -> None:
        """Raise unless every bundle names only tasks below ``n_tasks``."""
        last = self._indices[self._indptr[1:] - 1]  # each row's largest task
        over = np.flatnonzero(last >= n_tasks)
        if over.size:
            i = int(over[0])
            raise ValidationError(
                f"bid {i} names task {int(last[i])} but the instance has only "
                f"{n_tasks} tasks"
            )

    def bundle_mask(self, n_tasks: int) -> np.ndarray:
        """Boolean ``(N, K)`` matrix: ``mask[i, j]`` iff task j in bundle i.

        Raises if any bid names a task index ``>= n_tasks``.
        """
        self._check_tasks(n_tasks)
        mask = np.zeros((len(self), n_tasks), dtype=bool)
        mask[np.repeat(np.arange(len(self)), np.diff(self._indptr)), self._indices] = True
        return mask

    def max_price(self) -> float:
        """Largest asking price in the profile."""
        return float(self._prices.max())

    def min_price(self) -> float:
        """Smallest asking price in the profile."""
        return float(self._prices.min())
