"""Noisy label collection from winning workers.

A worker selected for task ``τ_j`` reports the true label with
probability equal to her skill ``θ_ij`` and the flipped label otherwise —
the exact observation model behind Lemma 1.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils import validation
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["assignment_mask", "collect_labels"]


def assignment_mask(
    bundle_mask: np.ndarray, winners: np.ndarray
) -> np.ndarray:
    """Which (worker, task) pairs actually get sensed.

    A pair is assigned iff the worker won **and** the task is in her
    bundle: winners execute exactly the bundle they bid (single-minded
    bidding).

    Parameters
    ----------
    bundle_mask:
        Boolean ``(N, K)`` bundle membership.
    winners:
        Winning worker indices.
    """
    bundle_mask = np.asarray(bundle_mask, dtype=bool)
    if bundle_mask.ndim != 2:
        raise ValidationError("bundle_mask must be 2-D")
    mask = np.zeros_like(bundle_mask)
    idx = np.asarray(winners, dtype=int)
    if idx.size:
        if idx.min() < 0 or idx.max() >= bundle_mask.shape[0]:
            raise ValidationError("winner index out of range")
        mask[idx] = bundle_mask[idx]
    return mask


def collect_labels(
    skills: np.ndarray,
    true_labels: np.ndarray,
    assignments: np.ndarray,
    seed: RngLike = None,
) -> np.ndarray:
    """Draw the ±1 label matrix for all assigned (worker, task) pairs.

    Parameters
    ----------
    skills:
        ``(N, K)`` skill matrix ``θ``; ``Pr[l_ij = l_j] = θ_ij``.
    true_labels:
        ``(K,)`` hidden ground truth (±1).
    assignments:
        Boolean ``(N, K)`` matrix of pairs to sense.
    seed:
        Randomness source.

    Returns
    -------
    numpy.ndarray
        ``(N, K)`` integer matrix: ±1 where assigned, 0 elsewhere.
    """
    # Read in place (a pool's skills were validated when it was built) and
    # accept on one min/max pass, which NaN also fails; the full checks run
    # only to word a rejection.
    skills = np.asarray(skills, dtype=float)
    if skills.ndim != 2 or (
        skills.size and not (skills.min() >= 0.0 and skills.max() <= 1.0)
    ):
        validation.require_in_unit_interval(
            validation.as_float_array(skills, "skills", ndim=2), "skills"
        )
    true_labels = np.asarray(true_labels, dtype=int)
    if true_labels.ndim != 1 or not np.all(np.isin(true_labels, (-1, 1))):
        raise ValidationError("true_labels must be a 1-D array of ±1")
    assignments = np.asarray(assignments, dtype=bool)
    if assignments.shape != skills.shape:
        raise ValidationError("assignments must match the skills shape")
    if true_labels.shape[0] != skills.shape[1]:
        raise ValidationError("true_labels length must match the task count")

    rng = ensure_rng(seed)
    # The whole (N, K) block is drawn, so a cell's draw never depends on
    # who won; labels are formed only on the rows with an assignment.
    uniform = rng.random(skills.shape)
    rows = np.flatnonzero(assignments.any(axis=1))
    reported = np.where(uniform[rows] < skills[rows], true_labels, -true_labels)
    labels = np.zeros(skills.shape, dtype=int)
    labels[rows] = np.where(assignments[rows], reported, 0)
    return labels
