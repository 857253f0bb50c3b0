"""CSR (compressed sparse row) storage for large covering instances.

At the ROADMAP's target scale — ``10^5``–``10^6`` workers — the dense
``(M, K)`` gain matrix of :class:`~repro.coverage.problem.CoverProblem`
is mostly zeros: a worker's bundle touches a handful of subareas, so a
row has ``O(bundle)`` nonzeros regardless of ``K``.  A
:class:`SparseCoverage` stores exactly those nonzeros in three flat
structured NumPy arrays (classic CSR: ``indptr``/``indices``/``data``)
with no Python-object rows, cutting memory from ``O(M·K)`` to
``O(nnz)`` and letting the lazy-greedy kernel
(:mod:`repro.coverage.lazy`) touch only a row's support per evaluation.

The representation is an *encoding*, not a different problem: zero
entries contribute ``min(0, Q'_j) = 0`` to every truncated-gain score,
so dropping them changes no value the greedy ever compares — and the
lazy kernel re-densifies each row into a ``K``-length scatter buffer
before summing precisely so its floating-point sums share the dense
kernel's reduction tree (see ``lazy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coverage.problem import CoverProblem
from repro.exceptions import ValidationError

__all__ = ["SparseCoverage"]


@dataclass(frozen=True)
class SparseCoverage:
    """A weighted set-multicover instance in CSR form.

    Attributes
    ----------
    indptr:
        ``(n_items + 1,)`` int64 row pointers; row ``i``'s nonzeros live
        at ``indices[indptr[i]:indptr[i+1]]`` / ``data[...]``.
    indices:
        ``(nnz,)`` int64 constraint (column) ids, strictly increasing
        within each row.
    data:
        ``(nnz,)`` float64 positive gains.
    demands:
        ``(n_constraints,)`` float64 non-negative demand vector ``Q``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    demands: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        demands = np.ascontiguousarray(self.demands, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValidationError("indptr must be a 1-D array of length n_items + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValidationError(
                "indptr must start at 0 and end at nnz "
                f"(got {int(indptr[0])}..{int(indptr[-1])} for nnz={indices.size})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if indices.shape != data.shape:
            raise ValidationError("indices and data must have the same length")
        if demands.ndim != 1:
            raise ValidationError("demands must be a 1-D array")
        if indices.size:
            if indices.min() < 0 or indices.max() >= demands.size:
                raise ValidationError("column index out of range for demands")
            # Strictly increasing columns within each row (no duplicates).
            starts = indptr[1:-1]
            starts = starts[(starts > 0) & (starts < indices.size)]
            jumps = np.diff(indices)
            jumps[starts - 1] = 1  # row boundaries may reset
            if np.any(jumps <= 0):
                raise ValidationError(
                    "indices must be strictly increasing within each row"
                )
            if data.min() < 0:
                raise ValidationError("data (gains) must be non-negative")
        if demands.size and demands.min() < 0:
            raise ValidationError("demands must be non-negative")
        for name, arr in (
            ("indptr", indptr),
            ("indices", indices),
            ("data", data),
            ("demands", demands),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # shape / size accessors
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of candidate items (rows)."""
        return int(self.indptr.size - 1)

    @property
    def n_constraints(self) -> int:
        """Number of covering constraints (columns)."""
        return int(self.demands.size)

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) gain entries."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """``nnz / (n_items · n_constraints)`` (0.0 for empty shapes)."""
        cells = self.n_items * self.n_constraints
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        """Total bytes of the four CSR arrays."""
        return int(
            self.indptr.nbytes
            + self.indices.nbytes
            + self.data.nbytes
            + self.demands.nbytes
        )

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s ``(columns, gains)`` as read-only views."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stored entries of ``rows`` (item ids), row after row.

        Returns ``(local, pos)``: entry ``e`` sits at ``indices[pos[e]]``
        / ``data[pos[e]]`` and belongs to ``rows[local[e]]``.
        """
        lo = self.indptr[rows]
        counts = self.indptr[rows + 1] - lo
        local = np.repeat(np.arange(rows.size), counts)
        # Each entry's position: its row's start plus its rank in the row.
        pos = np.arange(local.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return local, pos

    def column_sums(self, rows=None) -> np.ndarray:
        """Per-column gain totals over ``rows``, bitwise the dense sums.

        ``rows`` is ``None`` (every item), a boolean ``(n_items,)`` mask or
        an array of item ids; the result equals
        ``to_problem().gains[rows].sum(axis=0)`` bit for bit.  NumPy adds
        the rows of an ``(m, K)`` array in order when ``K >= 2``, which
        ``bincount`` reproduces entry by entry (an absent entry adds
        ``0.0``, which leaves a non-negative total unchanged).  An
        ``(m, 1)`` array is summed pairwise instead, so at ``K == 1`` the
        selected column is densified and summed the same way.
        """
        ids = np.arange(self.n_items) if rows is None else np.arange(self.n_items)[rows]
        local, pos = self.row_entries(ids)
        if self.n_constraints == 1:
            column = np.zeros(ids.size)
            column[local] = self.data[pos]
            return np.array([column.sum()])
        return np.bincount(
            self.indices[pos], weights=self.data[pos], minlength=self.n_constraints
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_problem(cls, problem: CoverProblem) -> "SparseCoverage":
        """CSR encoding of a dense :class:`CoverProblem` (zeros dropped)."""
        return cls.from_dense(problem.gains, problem.demands)

    @classmethod
    def from_dense(cls, gains, demands) -> "SparseCoverage":
        """CSR encoding of a dense ``(M, K)`` gain matrix."""
        gains = np.asarray(gains, dtype=np.float64)
        if gains.ndim != 2:
            raise ValidationError("gains must be a 2-D array")
        rows, cols = np.nonzero(gains > 0.0)
        counts = np.bincount(rows, minlength=gains.shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            indptr=indptr.astype(np.int64),
            indices=cols.astype(np.int64),
            data=gains[rows, cols],
            demands=np.asarray(demands, dtype=np.float64).copy(),
        )

    def to_problem(self) -> CoverProblem:
        """Densify back to a :class:`CoverProblem` (allocates ``M·K``)."""
        dense = np.zeros((self.n_items, self.n_constraints), dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_items), np.diff(self.indptr))
        dense[row_ids, self.indices] = self.data
        return CoverProblem(gains=dense, demands=self.demands.copy())
