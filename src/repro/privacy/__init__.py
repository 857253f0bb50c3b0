"""Differential-privacy substrate (paper Definitions 7–8, Section V).

* :mod:`~repro.privacy.exponential` — the McSherry–Talwar exponential
  mechanism, the randomization engine of the DP-hSRC auction's price draw
  (Algorithm 1, line 16).
* :mod:`~repro.privacy.laplace` — the Laplace mechanism, provided for
  completeness of the DP toolbox (used by examples releasing counts).
* :mod:`~repro.privacy.composition` — the one sequential / parallel
  composition core every ε layer uses, for multi-round deployments.
* :mod:`~repro.privacy.leakage` — divergence measures between outcome
  distributions of neighboring bid profiles: the paper's KL-divergence
  *privacy leakage* (Definition 8, Figure 5) plus max-divergence (the
  empirical ε) and total variation.
"""

from repro.privacy.exponential import ExponentialMechanism
from repro.privacy.laplace import laplace_mechanism, laplace_scale
from repro.privacy.composition import PrivacyAccountant, advanced_composition_epsilon
from repro.privacy.selection import (
    gumbel_max_sample,
    permute_and_flip_pmf_exact,
    permute_and_flip_pmf_monte_carlo,
    permute_and_flip_sample,
)
from repro.privacy.leakage import (
    kl_divergence,
    max_log_ratio,
    pmf_kl_divergence,
    pmf_max_log_ratio,
    pmf_total_variation,
    total_variation,
)

__all__ = [
    "ExponentialMechanism",
    "laplace_mechanism",
    "laplace_scale",
    "PrivacyAccountant",
    "advanced_composition_epsilon",
    "permute_and_flip_sample",
    "gumbel_max_sample",
    "permute_and_flip_pmf_exact",
    "permute_and_flip_pmf_monte_carlo",
    "kl_divergence",
    "max_log_ratio",
    "total_variation",
    "pmf_kl_divergence",
    "pmf_max_log_ratio",
    "pmf_total_variation",
]
