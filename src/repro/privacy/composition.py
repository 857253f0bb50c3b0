"""Pure-DP ε composition: the one core every accounting layer uses.

A platform that re-runs the DP-hSRC auction every sensing round spends
privacy budget each time it touches the same workers' bids.  Mechanisms
run on the *same* data compose sequentially (total ε = Σ ε_i); on
*disjoint* data, in parallel (only the maximum ε counts).

:class:`Composition` is the only code applying those rules and the
overspend test, and :func:`compose` runs it over recorded entries: the
accountant below, :class:`~repro.obs.PrivacyLedger`, the budget store
and the trace and export layers all compose through it.  Sequential ε
adds in input order, never via builtin ``sum()``, which is compensated
from Python 3.12 on (0.1, 0.2, 0.3 ``sum()`` to 0.6 but add to
0.6000000000000001), so every layer reports the same bits everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.tolerances import EPSILON_TOL
from repro.utils import validation

__all__ = ["Composition", "PrivacyAccountant", "advanced_composition_epsilon", "compose"]


@dataclass(slots=True)
class Composition:
    """The ``sequential`` sum and ``parallel`` max, updated in place.

    >>> composition = Composition()
    >>> [composition.add(eps) for eps in (0.1, 0.2, 0.3)]
    [0.1, 0.30000000000000004, 0.6000000000000001]
    >>> composition.add(0.5, parallel=True), composition.exceeds(1.0)
    (1.1, True)
    """

    sequential: float = 0.0
    parallel: float = 0.0

    def add(self, epsilon: float, parallel: bool = False) -> float:
        """Compose one draw of ``epsilon``; return the new total."""
        if parallel:
            if epsilon > self.parallel:
                self.parallel = epsilon
        else:
            self.sequential += epsilon
        return self.sequential + self.parallel

    @property
    def total(self) -> float:
        """Composed ε: sequential sum + parallel max."""
        return self.sequential + self.parallel

    def exceeds(self, limit: float | None) -> bool:
        """Whether the total overspends ``limit`` (``None`` = unlimited)."""
        return limit is not None and self.total > limit + EPSILON_TOL


def compose(entries: Iterable[Mapping]) -> Composition:
    """Compose ledger entries in JSON form (``epsilon``, ``composition``;
    a missing composition is sequential) in order, as they were live."""
    composition = Composition()
    for entry in entries:
        composition.add(float(entry["epsilon"]), entry.get("composition") == "parallel")
    return composition


@dataclass
class PrivacyAccountant:
    """Tracks cumulative ε spending under pure-DP composition.

    Parameters
    ----------
    budget:
        Optional total budget; :meth:`spend` raises ``ValueError`` when an
        expenditure would exceed it, before recording anything.
    """

    budget: float | None = None
    _spent: Composition = field(default_factory=Composition, init=False)

    def __post_init__(self) -> None:
        if self.budget is not None:
            validation.require_positive(self.budget, "budget")

    @property
    def spent(self) -> float:
        """Total ε consumed so far (sequential sum + parallel max)."""
        return self._spent.total

    @property
    def remaining(self) -> float | None:
        """Remaining budget, or ``None`` when unbudgeted."""
        if self.budget is None:
            return None
        return max(self.budget - self.spent, 0.0)

    def spend(self, epsilon: float, *, parallel: bool = False) -> float:
        """Record one mechanism invocation.

        Parameters
        ----------
        epsilon:
            The ε of the invoked mechanism.
        parallel:
            ``True`` when the invocation ran on data disjoint from every
            other ``parallel=True`` invocation, so only the max counts.

        Returns
        -------
        float
            Total ε consumed after this expenditure.
        """
        validation.require_positive(epsilon, "epsilon")
        spent = Composition(self._spent.sequential, self._spent.parallel)
        total = spent.add(float(epsilon), parallel)
        if spent.exceeds(self.budget):
            raise ValueError(
                f"spending ε={epsilon} would exceed the budget "
                f"({total:.6g} > {self.budget:.6g})"
            )
        self._spent = spent
        return total


def advanced_composition_epsilon(
    epsilon_per_round: float, n_rounds: int, delta_slack: float
) -> float:
    """Total ε under the advanced composition theorem (Dwork et al. 2010).

    Running an ε₀-DP mechanism ``k`` times is, for any δ' > 0,
    ``(ε', k·0 + δ')``-DP with

        ε' = ε₀·sqrt(2k·ln(1/δ')) + k·ε₀·(e^{ε₀} − 1).

    For long campaigns this grows like ``sqrt(k)`` instead of the basic
    composition's ``k``, at the cost of a δ' failure probability — the
    quantitative argument for why a deployed DP-hSRC platform can afford
    many more rounds than the naive accountant suggests.

    Parameters
    ----------
    epsilon_per_round:
        The per-invocation budget ε₀.
    n_rounds:
        Number of invocations ``k``.
    delta_slack:
        The δ' the operator is willing to tolerate (must be in (0, 1)).

    Returns
    -------
    float
        The advanced-composition ε'.
    """
    import math

    validation.require_positive(epsilon_per_round, "epsilon_per_round")
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    if not (0.0 < delta_slack < 1.0):
        raise ValueError(f"delta_slack must be in (0, 1), got {delta_slack}")
    e0, k = float(epsilon_per_round), int(n_rounds)
    return e0 * math.sqrt(2.0 * k * math.log(1.0 / delta_slack)) + k * e0 * (
        math.exp(e0) - 1.0
    )
