"""Privacy-budget accounting across mechanism invocations.

A platform that re-runs the DP-hSRC auction every sensing round spends
privacy budget each time it touches the same workers' bids.  The
accountant tracks the classic composition rules for pure ε-DP:

* **sequential composition** — mechanisms run on the *same* data compose
  additively: total ε = Σ ε_i;
* **parallel composition** — mechanisms run on *disjoint* data cost only
  the maximum ε.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tolerances import EPSILON_TOL
from repro.utils import validation

__all__ = ["PrivacyAccountant", "advanced_composition_epsilon"]


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
    _sequential_spent: float = field(default=0.0, init=False)
    _parallel_spent: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.budget is not None:
            validation.require_positive(self.budget, "budget")

    @property
    def spent(self) -> float:
        """Total ε consumed so far (sequential sum + parallel max)."""
        return self._sequential_spent + self._parallel_spent

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
        new_sequential = self._sequential_spent
        new_parallel = self._parallel_spent
        if parallel:
            new_parallel = max(new_parallel, epsilon)
        else:
            new_sequential += epsilon
        new_total = new_sequential + new_parallel
        if self.budget is not None and new_total > self.budget + EPSILON_TOL:
            raise ValueError(
                f"spending ε={epsilon} would exceed the budget "
                f"({new_total:.6g} > {self.budget:.6g})"
            )
        self._sequential_spent = new_sequential
        self._parallel_spent = new_parallel
        return self.spent


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
