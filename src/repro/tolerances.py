"""Centralized floating-point tolerance constants for the auction pipeline.

Every layer of the price-sweep pipeline compares accumulated floats
against demands or asking prices, and each comparison needs a small
guard against floating-point residue.  Historically each module carried
its own literal (``1e-9`` here, ``1 + 1e-12`` there); this module is the
single source of truth so the guards cannot silently drift apart — the
bit-for-bit equivalence contracts between the vectorized kernels, the
retained references, and the :mod:`repro.engine` sweep plans all assume
one shared tolerance regime.

Two distinct numeric concerns live here:

* :data:`DEMAND_TOL` — an **absolute** slack on demand/coverage
  comparisons.  A demand (or residual demand) within ``DEMAND_TOL`` of
  zero counts as satisfied, guarding the ``Q' -= min(Q', q)`` updates of
  Algorithm 1 against accumulation dust.  The greedy kernels also use it
  as the tie-breaking band: per-step gains within ``DEMAND_TOL`` of the
  maximum are considered tied (lowest index wins).
  :func:`meets_demand` is the one coverage-versus-demand predicate built
  on it.
* :data:`PRICE_DUST_REL` — a **relative** inflation applied to a grid
  price before comparing it against asking prices.  A grid price that
  equals an asking price exactly must include that worker among the
  affordable candidates; multiplying by ``1 + PRICE_DUST_REL`` makes the
  ``searchsorted`` candidate count robust to representation dust without
  ever pulling in a strictly more expensive worker (grid steps are many
  orders of magnitude larger than the relative guard).

The constants are intentionally tiny compared to every quantity in the
paper's Table I settings (prices ≥ 1, demands of order 1, grid steps of
order 0.1), so they only ever absorb float noise, never real mass.

``repro.coverage.simplex`` keeps its own pivot tolerance: LP pivoting
stability is a different numeric concern from demand satisfaction, even
though the current values coincide.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEMAND_TOL", "PRICE_DUST_REL", "inflate_prices", "meets_demand"]

#: Absolute slack for demand/coverage comparisons and the greedy kernels'
#: residual snapping + tie-breaking band.
DEMAND_TOL = 1e-9

#: Relative dust guard for grid-price vs asking-price comparisons: a grid
#: price equal to an asking price must count that worker as affordable.
PRICE_DUST_REL = 1e-12


def inflate_prices(prices: np.ndarray) -> np.ndarray:
    """Grid prices inflated by the relative dust guard.

    The inflated values are what gets compared (via ``searchsorted``)
    against sorted asking prices when counting affordable workers, so a
    bitwise-equal asking price lands strictly below the comparison point.
    """
    return np.asarray(prices) * (1 + PRICE_DUST_REL)


def meets_demand(coverage, demands, *, tol: float = DEMAND_TOL) -> bool:
    """Whether ``coverage`` satisfies every demand up to the slack ``tol``.

    ``coverage`` may be a ``(K,)`` vector or any array broadcasting
    against ``demands``; the answer is one ``bool`` over all entries.
    ``tol`` defaults to :data:`DEMAND_TOL`; only callers checking a
    foreign solver's output (e.g. a MILP backend) pass a looser slack.
    """
    return bool(np.all(np.asarray(coverage) >= np.asarray(demands) - tol))
