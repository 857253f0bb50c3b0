"""Lemma 1 arithmetic: skills and error thresholds ⇄ covering quantities.

Lemma 1 (from Ho, Jabbari & Vaughan, ICML 2013) states that weighted
aggregation with weights ``α_ij = 2θ_ij − 1`` achieves
``Pr[l̂_j ≠ l_j] ≤ δ_j`` **iff** the selected workers satisfy

    Σ_i (2θ_ij − 1)² ≥ 2 ln(1/δ_j).

This module provides the forward transformation (``quality_matrix``,
``coverage_demands``), and the inverse (``achieved_error_bound``) used to
report how tight a selection's guarantee actually is.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.utils import validation

__all__ = [
    "quality_matrix",
    "coverage_demands",
    "required_coverage",
    "achieved_error_bound",
]


def quality_matrix(skills: np.ndarray) -> np.ndarray:
    """``q_ij = (2 θ_ij − 1)²`` elementwise.

    A skill of 0.5 (random guessing) maps to quality 0; both perfect
    workers (θ=1) and perfectly *anti-correlated* workers (θ=0) map to
    quality 1, because an always-wrong binary labeler is as informative as
    an always-right one once its weight flips sign.
    """
    quality = validation.as_float_array(skills, "skills")  # a fresh copy
    validation.require_in_unit_interval(quality, "skills")
    quality *= 2.0
    quality -= 1.0
    return np.square(quality, out=quality)


def required_coverage(delta: float) -> float:
    """``Q = 2 ln(1/δ)`` — the coverage a single task needs for error ≤ δ."""
    validation.require_probability(delta, "delta", open_interval=True)
    return float(2.0 * np.log(1.0 / delta))


def coverage_demands(error_thresholds: Sequence[float]) -> np.ndarray:
    """Vector form of :func:`required_coverage` over all tasks."""
    thresholds = validation.as_float_array(error_thresholds, "error_thresholds", ndim=1)
    if thresholds.size == 0:
        raise ValidationError("error_thresholds must not be empty")
    for d in thresholds:
        validation.require_probability(float(d), "error_thresholds", open_interval=True)
    return 2.0 * np.log(1.0 / thresholds)


def achieved_error_bound(coverage: np.ndarray | float) -> np.ndarray | float:
    """Invert Lemma 1: the error bound ``δ = exp(−coverage / 2)`` achieved.

    ``coverage`` is ``Σ_i (2θ_ij − 1)²`` over the selected workers that
    cover the task.  Zero coverage gives the vacuous bound ``δ = 1``.
    """
    coverage_arr = np.asarray(coverage, dtype=float)
    if np.any(coverage_arr < 0):
        raise ValidationError("coverage must be non-negative")
    result = np.exp(-coverage_arr / 2.0)
    if np.isscalar(coverage) or coverage_arr.ndim == 0:
        return float(result)
    return result
