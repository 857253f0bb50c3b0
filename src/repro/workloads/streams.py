"""Seeded arrival streams for the online mechanisms.

An :class:`OnlineArrivalStream` turns a one-shot
:class:`~repro.auction.instance.AuctionInstance` into a *stream*: a
deterministic arrival order over the instance's workers, optionally
thinned by churn (a seeded fraction of workers never shows up).  The
online mechanisms (:mod:`repro.mechanisms.online`) consume arrivals one
at a time and must commit to irrevocable accept/reject + payment
decisions, so the *order* is the adversary's lever — this module models
the orderings an MCS platform actually faces:

``uniform``
    A seeded uniform permutation — the secretary-model assumption under
    which the stage-based threshold mechanism's competitive guarantee
    holds.
``as_given``
    Workers arrive in index order (the degenerate "replay the dataset"
    stream).
``adversarial``
    Workers arrive in descending static-density order: the most
    valuable-per-dollar workers are burned inside the observation
    prefix, the classic worst case for sample-then-threshold mechanisms.
``bursty``
    Workers arrive in seeded bursts; within a burst arrivals are sorted
    by ascending asking price, modeling cost-correlated flash crowds
    (e.g. a transit hub emptying at rush hour).

Streams are frozen and fully determined by ``(instance, order, seed,
churn, n_bursts)``: two streams built from equal parameters yield
bit-identical arrival sequences, which is what the replay/irrevocability
property suites and the checkpoint/resume golden pins lean on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.exceptions import ValidationError
from repro.workloads.settings import SimulationSetting

__all__ = [
    "ARRIVAL_ORDERS",
    "ONLINE_SETTING",
    "OnlineArrivalStream",
    "static_density",
    "static_gains",
]

#: The arrival orderings a stream can realize.
ARRIVAL_ORDERS = ("uniform", "as_given", "adversarial", "bursty")

#: The market ``repro online`` and the campaign's ``online_stream`` cells
#: stream: Table I's shape on a 1–10 cost scale.  Size it with
#: :meth:`~repro.workloads.settings.SimulationSetting.with_population`;
#: :func:`~repro.workloads.generator.generate_instance` reads neither its
#: ``name`` nor its ``epsilon`` (the DP variant takes its own ε).
ONLINE_SETTING = SimulationSetting(
    name="online",
    epsilon=0.5,
    c_min=1.0,
    c_max=10.0,
    bundle_size=(3, 5),
    skill_range=(0.3, 0.95),
    error_threshold_range=(0.3, 0.5),
    n_workers=200,
    n_tasks=8,
    price_range=(4.0, 10.0),
    grid_step=0.5,
)


def static_gains(instance: AuctionInstance) -> np.ndarray:
    """Per-worker stand-alone truncated coverage value ``v_i``.

    ``v_i = Σ_j min(q_ij, Q_j)`` over the worker's bundle — the value she
    contributes to an empty platform.  It upper-bounds her *marginal*
    gain against any partial coverage (residual demands only shrink), so
    the online mechanisms use it both as the density statistic for
    threshold calibration and as a sound fast-path rejection screen.
    It is the instance's read-only, once-built
    :attr:`~repro.auction.instance.AuctionInstance.static_gains`, which
    every stage of a run and the adversarial order read.
    """
    return instance.static_gains


def static_density(gains: np.ndarray, bids: np.ndarray) -> np.ndarray:
    """Static density ``v_i / b_i`` of workers' :func:`static_gains` at their bids.

    The value per unit of ask that orders the adversarial stream and
    calibrates the online thresholds; ``inf`` at a zero bid.  A tiny
    positive bid overflows its density to ``inf``, which ranks it first,
    as a zero bid is ranked: expected, so not warned about.  It takes the
    gains rather than the instance because a calibration also sums them.
    """
    with np.errstate(over="ignore"):
        return np.where(bids > 0.0, gains / np.where(bids > 0.0, bids, 1.0), np.inf)


@dataclass(frozen=True)
class OnlineArrivalStream:
    """A deterministic, seeded arrival order over an instance's workers.

    Parameters
    ----------
    instance:
        The underlying auction instance (bids, qualities, demands).
    order:
        One of :data:`ARRIVAL_ORDERS`.
    seed:
        Integer seed fixing the permutation / churn draw / burst split.
    churn:
        Fraction in ``[0, 1)`` of workers that never arrive (each worker
        is dropped independently with this probability, seeded).  If the
        draw would drop everyone, the single worker with the smallest
        churn draw is retained so the stream is never empty.
    n_bursts:
        Number of bursts for the ``bursty`` order (ignored otherwise).

    Notes
    -----
    The ``uniform``/``as_given`` arrival sequences depend only on
    ``(n_workers, seed, churn)`` — not on the bids — so a neighboring
    instance (one bid replaced) sees the *same* arrival order, which is
    what the differential-privacy audits require.  ``adversarial`` and
    ``bursty`` intentionally break that: they sort by bid-derived keys.
    """

    instance: AuctionInstance
    order: str = "uniform"
    seed: int = 0
    churn: float = 0.0
    n_bursts: int = 4

    def __post_init__(self) -> None:
        if self.order not in ARRIVAL_ORDERS:
            raise ValidationError(
                f"order must be one of {ARRIVAL_ORDERS}, got {self.order!r}"
            )
        if not 0.0 <= float(self.churn) < 1.0:
            raise ValidationError(f"churn must be in [0, 1), got {self.churn}")
        if int(self.n_bursts) < 1:
            raise ValidationError(f"n_bursts must be >= 1, got {self.n_bursts}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "churn", float(self.churn))
        object.__setattr__(self, "n_bursts", int(self.n_bursts))

    @cached_property
    def arrivals(self) -> np.ndarray:
        """The arrival sequence as original worker indices (read-only)."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        n = self.instance.n_workers
        # Churn draw happens first (and always), so the surviving set is
        # identical across orders sharing (n, seed, churn).
        draws = rng.random(n)
        if self.churn > 0.0:
            survivors = np.flatnonzero(draws >= self.churn)
            if survivors.size == 0:
                survivors = np.array([int(np.argmin(draws))])
        else:
            survivors = np.arange(n)

        if self.order == "as_given":
            seq = survivors
        elif self.order == "uniform":
            seq = rng.permutation(survivors)
        elif self.order == "adversarial":
            gains = self.instance.static_gains[survivors]
            density = static_density(gains, self.instance.prices[survivors])
            # Descending density, ties broken by ascending worker index.
            seq = survivors[np.lexsort((survivors, -density))]
        else:  # bursty
            shuffled = rng.permutation(survivors)
            chunks = np.array_split(shuffled, min(self.n_bursts, shuffled.size))
            prices = self.instance.prices
            parts = [
                chunk[np.lexsort((chunk, prices[chunk]))]
                for chunk in chunks
                if chunk.size
            ]
            seq = np.concatenate(parts)

        seq = np.ascontiguousarray(seq, dtype=np.int64)
        seq.setflags(write=False)
        return seq

    @property
    def n_arrivals(self) -> int:
        """Number of workers that actually arrive (post-churn)."""
        return int(self.arrivals.size)

    def prefix(self, k: int) -> np.ndarray:
        """The first ``k`` arrivals (original worker indices)."""
        return self.arrivals[: int(k)]

    def fingerprint(self) -> str:
        """A stable identity for checkpoint headers.

        Covers the stream parameters *and* a CRC of the realized arrival
        sequence, so a checkpoint written against one stream refuses to
        resume against a different ordering of the same instance.
        """
        crc = zlib.crc32(self.arrivals.tobytes())
        return (
            f"{self.order}:{self.seed}:{self.churn!r}:{self.n_bursts}:"
            f"{self.instance.n_workers}:{self.n_arrivals}:{crc:08x}"
        )

    def with_instance(self, instance: AuctionInstance) -> "OnlineArrivalStream":
        """The same stream parameters over a different (e.g. neighbor) instance.

        For the bid-independent orders (``uniform``/``as_given``) and an
        instance with the same worker count, the realized arrival
        sequence is identical — the construction the DP audits need.
        """
        return OnlineArrivalStream(
            instance=instance,
            order=self.order,
            seed=self.seed,
            churn=self.churn,
            n_bursts=self.n_bursts,
        )
