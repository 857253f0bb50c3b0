"""Deterministic random-number-generator plumbing.

All randomized components of the library (instance generators, the
exponential mechanism, sensing noise) accept a ``seed`` argument that can
be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalizes the three
forms so call sites never branch on the type, and :func:`spawn_rngs`
derives independent child generators for parallel sub-experiments so that
adding a new consumer of randomness never perturbs existing streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "RngLike",
    "ensure_rng",
    "ensure_seed_sequence",
    "fresh_seed_sequence",
    "spawn_rngs",
    "spawn_seed_sequences",
]

RngLike = Union[None, int, np.random.Generator]
"""Anything accepted where a source of randomness is expected."""


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, or
        an existing :class:`numpy.random.Generator` which is returned
        unchanged (so a caller-supplied generator is *shared*, not copied).

    Examples
    --------
    >>> g = ensure_rng(7)
    >>> h = ensure_rng(7)
    >>> float(g.random()) == float(h.random())
    True
    >>> ensure_rng(g) is g
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn` so each child has its own
    stream; mutating one never affects the others.  Useful for running the
    points of a parameter sweep with isolated randomness.

    Parameters
    ----------
    seed:
        Parent seed or generator (see :func:`ensure_rng`).
    count:
        Number of children; must be non-negative.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return ensure_rng(seed).spawn(count)


def spawn_seed_sequences(
    seed: Union[RngLike, np.random.SeedSequence], count: int
) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent, *order-free* child seed sequences.

    Unlike :func:`spawn_rngs`, the children are plain
    :class:`numpy.random.SeedSequence` objects — cheap to pickle and
    independent of any generator's consumption state — so work item ``i``
    gets the same stream no matter which process executes it or in what
    order.  This is what makes batched and serial runs of
    :class:`repro.bench.BatchAuctionRunner` byte-identical.  The children
    are spawned from a :func:`fresh_seed_sequence` copy of ``seed``, so
    they do not depend on how often the caller's object spawned before.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy per call), an ``int``, or an existing
        :class:`numpy.random.SeedSequence`.  A ``Generator`` is rejected:
        its children would depend on how much randomness was already
        consumed, silently breaking cross-run reproducibility.
    count:
        Number of children; must be non-negative.

    Examples
    --------
    >>> a = spawn_seed_sequences(7, 3)
    >>> b = spawn_seed_sequences(7, 3)
    >>> [s.spawn_key for s in a] == [s.spawn_key for s in b]
    True
    >>> float(np.random.default_rng(a[2]).random()) == float(
    ...     np.random.default_rng(b[2]).random())
    True
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return fresh_seed_sequence(seed).spawn(count)


def ensure_seed_sequence(
    seed: Union[RngLike, np.random.SeedSequence],
) -> np.random.SeedSequence:
    """Normalize a master seed to a :class:`numpy.random.SeedSequence`.

    Accepts ``None`` (fresh OS entropy), an ``int``, or an existing
    ``SeedSequence`` (returned unchanged).  A ``Generator`` is rejected
    for the same reason as in :func:`spawn_seed_sequences`: its children
    would depend on consumption order, silently breaking order-free
    reproducibility (and the seed-keyed checkpoint identities built on
    top of it).

    Examples
    --------
    >>> ensure_seed_sequence(7).entropy
    7
    >>> ss = np.random.SeedSequence(7)
    >>> ensure_seed_sequence(ss) is ss
    True
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed)
    raise TypeError(
        "seed must be None, an int, or a numpy SeedSequence for "
        f"order-free spawning, got {type(seed).__name__}"
    )


def fresh_seed_sequence(
    seed: Union[RngLike, np.random.SeedSequence],
) -> np.random.SeedSequence:
    """``seed`` as a :class:`~numpy.random.SeedSequence` that has spawned nothing.

    :meth:`SeedSequence.spawn <numpy.random.SeedSequence.spawn>` advances
    the spawning object's child counter, so a second spawn of one object
    returns new children.  Rebuilding the sequence from its
    ``(entropy, spawn_key, pool_size)`` gives a copy whose children
    depend on the seed alone: every use of it draws what the first use
    of the original drew.  ``seed`` is normalized as in
    :func:`ensure_seed_sequence`.

    Examples
    --------
    >>> ss = np.random.SeedSequence(7)
    >>> first = ss.spawn(1)[0].spawn_key
    >>> ss.spawn(1)[0].spawn_key == first
    False
    >>> fresh_seed_sequence(ss).spawn(1)[0].spawn_key == first
    True
    """
    seed = ensure_seed_sequence(seed)
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    )
