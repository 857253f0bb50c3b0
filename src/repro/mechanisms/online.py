"""Online (streaming) incentive mechanisms — stage-based threshold auctions.

The paper's DP-hSRC auction is offline: every bid is on the table before
the winner sets are computed.  Real MCS platforms face workers arriving
in a stream, each demanding an irrevocable accept/reject + payment
decision on the spot.  This module implements the OMG-shaped answer
(arXiv 1306.5677, truthful online budget-feasible crowdsensing):

* :class:`OnlineThresholdMechanism` — a stage-based secretary-style
  mechanism.  The arrival horizon is split into :attr:`n_stages` stages
  with *doubling* budget allocations ``B/2^{S-1}, …, B/2, B``; the
  prefix before the first stage is a pure observation window.  At each
  stage boundary the mechanism recalibrates a **density threshold** ρ
  from every worker seen so far (a greedy value simulation under the
  stage allocation), then runs the stage as a posted-price market: an
  arriving worker with marginal truncated coverage gain ``g`` is offered
  ``p = g/ρ`` and accepted iff her ask is at most ``p`` and the payment
  fits the stage allocation.  Decisions and payments are irrevocable,
  the hard budget holds on every prefix, and — because the offer never
  reads the worker's ask — winners are paid at least their bid and no
  worker can gain by misreporting her price (a monotone allocation with
  critical-payment ``p``).

* :class:`DPOnlineThresholdMechanism` — the DP-composed variant.  Each
  stage's threshold is drawn by an exponential mechanism over a *public*
  density lattice with a sensitivity-1 count score, spending
  ``ε/n_stages`` per stage through the ambient
  :class:`~repro.privacy.budget.BudgetScope` admission path (``refuse``
  raises pre-spend; ``degrade`` falls back to the non-private
  calibration for the remaining stages and tags the outcome) and
  recording every draw in the ambient privacy ledger.  The released
  threshold *sequence* is ε-DP by sequential composition; the
  statistical suite measures this empirically.

* :func:`run_checkpointed` — mid-stream resilience.  Stage-boundary
  states persist to a :class:`~repro.resilience.checkpoint.SweepCheckpoint`
  (schema ``repro-checkpoint/1``); a killed run resumes from the last
  durable stage and the resumed outcome is bit-identical to an
  uninterrupted one (per-stage randomness comes from
  ``SeedSequence(seed).spawn(n_stages)``, so no RNG state needs saving).
  The ambient :func:`~repro.resilience.use_resilience` config's fault
  plan, keyed by stage index, injects faults at stage boundaries.

Determinism contracts (pinned by the golden suites):

* Same ``(stream, seed)`` ⇒ bit-identical :class:`OnlineOutcome`.
* ``fast_screen`` on/off ⇒ bit-identical outcomes (the static-gain
  screen only skips workers the full check would reject, and float
  division is monotone in its numerator).
* kill-and-resume at any stage boundary ⇒ bit-identical outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.exceptions import ValidationError
from repro.obs import current_recorder
from repro.privacy.budget.context import admit_draw, record_draw
from repro.privacy.composition import Composition
from repro.privacy.exponential import ExponentialMechanism
from repro.resilience.checkpoint import SweepCheckpoint, seed_fingerprint
from repro.resilience.context import current_resilience
from repro.tolerances import DEMAND_TOL
from repro.utils import validation
from repro.workloads.streams import OnlineArrivalStream, static_density

__all__ = [
    "ONLINE_STATE_SCHEMA",
    "OnlineState",
    "OnlineOutcome",
    "OnlineThresholdMechanism",
    "DPOnlineThresholdMechanism",
    "run_checkpointed",
]

#: Schema tag carried by serialized mid-stream states.
ONLINE_STATE_SCHEMA = "repro-online-state/1"


def _encode_threshold(value: float) -> float | None:
    """JSON encoding for a threshold (``inf`` → ``None``)."""
    return None if math.isinf(value) else float(value)


def _decode_threshold(value: float | None) -> float:
    return math.inf if value is None else float(value)


@dataclass
class OnlineState:
    """Mid-stream progress of one online run (JSON round-trippable).

    A state is a pure value: resuming from a state is bit-identical to
    never having stopped, because every per-stage random draw is keyed
    by the stage index (not by how much of the stream ran before).

    Attributes
    ----------
    next_arrival:
        Number of arrivals already processed (index into the stream).
    stage:
        Number of *completed* stages.
    spent:
        Total payments committed so far.
    covered:
        ``(K,)`` truncated coverage accumulated so far (never exceeds
        the demands).
    winners / payments:
        Accepted workers in acceptance order and their exact payments.
    decisions:
        One boolean per processed arrival (irrevocable).
    thresholds:
        The effective (monotone non-increasing) density threshold of
        each completed stage; ``inf`` means "reject everything".
    degraded:
        ``True`` once the DP variant fell back to non-private
        calibration under the ``degrade`` admission policy.
    charged_epsilon:
        Total privacy budget consumed by threshold draws so far.
    """

    next_arrival: int = 0
    stage: int = 0
    spent: float = 0.0
    covered: np.ndarray = field(default_factory=lambda: np.zeros(0))
    winners: list[int] = field(default_factory=list)
    payments: list[float] = field(default_factory=list)
    decisions: list[bool] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    degraded: bool = False
    charged_epsilon: float = 0.0

    @property
    def current_threshold(self) -> float:
        """The threshold in force (``inf`` before the first calibration)."""
        return self.thresholds[-1] if self.thresholds else math.inf

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (floats round-trip exactly)."""
        return {
            "schema": ONLINE_STATE_SCHEMA,
            "next_arrival": int(self.next_arrival),
            "stage": int(self.stage),
            "spent": float(self.spent),
            "covered": [float(c) for c in self.covered],
            "winners": [int(w) for w in self.winners],
            "payments": [float(p) for p in self.payments],
            "decisions": [bool(d) for d in self.decisions],
            "thresholds": [_encode_threshold(t) for t in self.thresholds],
            "degraded": bool(self.degraded),
            "charged_epsilon": float(self.charged_epsilon),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "OnlineState":
        """Rebuild a state from :meth:`to_payload` output."""
        if payload.get("schema") != ONLINE_STATE_SCHEMA:
            raise ValidationError(
                f"online state payload has schema {payload.get('schema')!r}, "
                f"expected {ONLINE_STATE_SCHEMA!r}"
            )
        return cls(
            next_arrival=int(payload["next_arrival"]),
            stage=int(payload["stage"]),
            spent=float(payload["spent"]),
            covered=np.asarray(payload["covered"], dtype=float),
            winners=[int(w) for w in payload["winners"]],
            payments=[float(p) for p in payload["payments"]],
            decisions=[bool(d) for d in payload["decisions"]],
            thresholds=[_decode_threshold(t) for t in payload["thresholds"]],
            degraded=bool(payload["degraded"]),
            charged_epsilon=float(payload["charged_epsilon"]),
        )


@dataclass(frozen=True)
class OnlineOutcome:
    """The committed result of one complete online run.

    All sequence fields are tuples, so outcomes compare exactly with
    ``==`` — the bit-identity contracts (replay, kill-and-resume,
    fast-screen on/off) are plain equality assertions.

    Attributes
    ----------
    winners:
        Accepted workers (original indices) in acceptance order.
    payments:
        Exact payment per winner, aligned with ``winners``.
    decisions:
        One boolean per arrival position in the stream.
    thresholds:
        Per-stage effective density thresholds (non-increasing).
    value:
        Truncated coverage value achieved, ``Σ_j min(Q_j, Σ_win q_ij)``.
    spent / budget:
        Total payments committed and the hard budget (``spent ≤ budget``
        on every prefix by construction).
    degraded:
        ``True`` if the DP variant degraded to non-private calibration.
    charged_epsilon:
        Total ε consumed by the threshold draws (0 for the non-DP
        mechanism).
    """

    winners: tuple[int, ...]
    payments: tuple[float, ...]
    decisions: tuple[bool, ...]
    thresholds: tuple[float, ...]
    value: float
    spent: float
    budget: float
    n_arrivals: int
    n_workers: int
    degraded: bool = False
    charged_epsilon: float = 0.0

    @property
    def n_winners(self) -> int:
        """Number of accepted workers."""
        return len(self.winners)

    def payment_vector(self) -> np.ndarray:
        """``(n_workers,)`` payments: winners their price, losers 0."""
        vector = np.zeros(self.n_workers)
        for worker, payment in zip(self.winners, self.payments):
            vector[worker] = payment
        return vector

    def to_payload(self) -> dict:
        """A JSON-serializable form (floats round-trip exactly)."""
        return {
            "winners": list(self.winners),
            "payments": list(self.payments),
            "decisions": list(self.decisions),
            "thresholds": [_encode_threshold(t) for t in self.thresholds],
            "value": self.value,
            "spent": self.spent,
            "budget": self.budget,
            "n_arrivals": self.n_arrivals,
            "n_workers": self.n_workers,
            "degraded": self.degraded,
            "charged_epsilon": self.charged_epsilon,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "OnlineOutcome":
        """Rebuild an outcome from :meth:`to_payload` output."""
        return cls(
            winners=tuple(int(w) for w in payload["winners"]),
            payments=tuple(float(p) for p in payload["payments"]),
            decisions=tuple(bool(d) for d in payload["decisions"]),
            thresholds=tuple(_decode_threshold(t) for t in payload["thresholds"]),
            value=float(payload["value"]),
            spent=float(payload["spent"]),
            budget=float(payload["budget"]),
            n_arrivals=int(payload["n_arrivals"]),
            n_workers=int(payload["n_workers"]),
            degraded=bool(payload["degraded"]),
            charged_epsilon=float(payload["charged_epsilon"]),
        )


class OnlineThresholdMechanism:
    """Stage-based secretary-style online threshold mechanism (OMG-shaped).

    Parameters
    ----------
    budget:
        Hard payment budget ``B`` — never exceeded on any prefix.
    n_stages:
        Number of acceptance stages ``S``.  Stage ``s`` (0-based) covers
        arrivals ``[n/2^{S-s}, n/2^{S-s-1})`` and may spend up to the
        doubling allocation ``B/2^{S-1-s}``; the prefix before the first
        stage is observation-only.
    fast_screen:
        Use the static-gain screen to skip arrivals the full marginal
        check would reject anyway.  Outcomes are bit-identical either
        way (the golden suite pins this); ``False`` forces the reference
        per-arrival path.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.auction import Bid, BidProfile, AuctionInstance
    >>> from repro.workloads.streams import OnlineArrivalStream
    >>> bids = BidProfile([Bid([0], 1.0) for _ in range(8)])
    >>> inst = AuctionInstance(
    ...     bids=bids, quality=np.full((8, 1), 0.64),
    ...     demands=np.array([2.0]), price_grid=np.array([1.0]),
    ...     c_min=1.0, c_max=2.0,
    ... )
    >>> stream = OnlineArrivalStream(inst, order="uniform", seed=3)
    >>> outcome = OnlineThresholdMechanism(budget=6.0, n_stages=2).run(stream)
    >>> outcome.spent <= 6.0
    True
    """

    name = "online-threshold"

    def __init__(
        self, budget: float, *, n_stages: int = 4, fast_screen: bool = True
    ) -> None:
        validation.require_positive(budget, "budget")
        if int(n_stages) < 1:
            raise ValidationError(f"n_stages must be >= 1, got {n_stages}")
        self.budget = float(budget)
        self.n_stages = int(n_stages)
        self.fast_screen = bool(fast_screen)

    # ------------------------------------------------------------------
    # Stage geometry
    # ------------------------------------------------------------------

    def stage_boundaries(self, n_arrivals: int) -> list[int]:
        """Arrival indices delimiting the stages: ``[b_0, …, b_S]``.

        ``[0, b_0)`` is the observation prefix; stage ``s`` processes
        arrivals ``[b_s, b_{s+1})``.  ``b_s = ⌊n / 2^{S-s}⌋``, so each
        stage doubles the seen prefix, matching the doubling budgets.
        """
        n = int(n_arrivals)
        return [n // (2 ** (self.n_stages - s)) for s in range(self.n_stages + 1)]

    def stage_allocation(self, stage: int) -> float:
        """The cumulative spend cap through stage ``stage`` (doubling)."""
        return self.budget / (2 ** (self.n_stages - 1 - int(stage)))

    # ------------------------------------------------------------------
    # Calibration (overridden by the DP variant)
    # ------------------------------------------------------------------

    def _calibrate(
        self,
        instance: AuctionInstance,
        sample: np.ndarray,
        allocation: float,
        state: OnlineState,
        seed,
    ) -> float:
        """Density threshold from the observed sample (deterministic).

        Simulates a static-density greedy fill of the stage allocation
        over the sample and returns ``value / (2·allocation)`` — the
        OMG-style "half the achievable rate" threshold.  Returns ``inf``
        (reject everything) when the sample is empty or worthless.
        """
        if sample.size == 0:
            return math.inf
        gains = instance.static_gains[sample]
        bids = instance.prices[sample]
        order = np.lexsort((sample, -static_density(gains, bids)))
        cumulative = np.cumsum(bids[order])
        value = float(gains[order][cumulative <= allocation].sum())
        if value <= DEMAND_TOL:
            return math.inf
        return value / (2.0 * allocation)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def initial_state(self, stream: OnlineArrivalStream) -> OnlineState:
        """A fresh pre-stream state for ``stream``."""
        return OnlineState(covered=np.zeros(stream.instance.n_tasks))

    def advance_stage(
        self, stream: OnlineArrivalStream, state: OnlineState, *, seed=None
    ) -> OnlineState:
        """Run the next stage (calibrate, then process its arrivals).

        Mutates and returns ``state``.  Stage randomness (DP variant
        only) is derived from ``SeedSequence(seed).spawn(n_stages)`` by
        stage index, so advancing from a restored state draws exactly
        what an uninterrupted run would have drawn.
        """
        s = state.stage
        if s >= self.n_stages:
            raise ValidationError(
                f"all {self.n_stages} stages already completed"
            )
        bounds = self.stage_boundaries(stream.n_arrivals)
        recorder = current_recorder()
        instance = stream.instance
        arrivals = stream.arrivals

        if s == 0 and state.next_arrival < bounds[0]:
            observed = bounds[0] - state.next_arrival
            state.decisions.extend([False] * observed)
            state.next_arrival = bounds[0]
            recorder.count("online.observed", observed)
        if state.next_arrival != bounds[s]:
            raise ValidationError(
                f"state is at arrival {state.next_arrival} but stage {s} "
                f"starts at {bounds[s]} — state/stream mismatch"
            )

        start, end = bounds[s], bounds[s + 1]
        allocation = self.stage_allocation(s)
        with recorder.span(
            "online_stage",
            f"online.stage.{s}",
            stage=s,
            arrivals=end - start,
            sample_size=start,
            allocation=allocation,
        ) as span:
            candidate = self._calibrate(
                instance, arrivals[:start], allocation, state, seed
            )
            threshold = min(state.current_threshold, candidate)
            state.thresholds.append(threshold)
            accepts = self._process_segment(
                instance, arrivals[start:end], state, threshold, allocation
            )
            span.set(
                threshold=_encode_threshold(threshold),
                accepts=accepts,
                spent=state.spent,
            )
        recorder.count("online.arrivals", end - start)
        recorder.count("online.accepts", accepts)
        recorder.count("online.rejects", (end - start) - accepts)
        recorder.count("online.stage.calibrations")
        state.stage = s + 1
        return state

    def _process_segment(
        self,
        instance: AuctionInstance,
        segment: np.ndarray,
        state: OnlineState,
        threshold: float,
        allocation: float,
    ) -> int:
        """Posted-price processing of one stage's arrivals.  Returns accepts."""
        n_seg = int(segment.size)
        if n_seg == 0:
            return 0
        if math.isinf(threshold) or threshold <= 0.0:
            state.decisions.extend([False] * n_seg)
            state.next_arrival += n_seg
            return 0

        demands = instance.demands
        eff = instance.effective_quality
        bids = instance.prices[segment]
        decisions = np.zeros(n_seg, dtype=bool)
        if self.fast_screen:
            # Sound screen: the static gain bounds the marginal gain, and
            # float division is monotone in its numerator, so a worker
            # whose static offer is below her ask can never be accepted
            # by the full check below.
            candidates = np.flatnonzero(instance.static_gains[segment] / threshold >= bids)
        else:
            candidates = np.arange(n_seg)

        accepts = 0
        for pos in candidates:
            worker = int(segment[pos])
            residual = demands - state.covered
            contribution = np.minimum(eff[worker], residual)
            gain = float(contribution.sum())
            if gain <= DEMAND_TOL:
                continue
            payment = gain / threshold
            if payment < float(bids[pos]):
                continue
            if state.spent + payment > allocation:
                continue
            state.covered = state.covered + contribution
            state.spent += payment
            state.winners.append(worker)
            state.payments.append(payment)
            decisions[pos] = True
            accepts += 1
        state.decisions.extend(bool(d) for d in decisions)
        state.next_arrival += n_seg
        return accepts

    def run_stages(
        self,
        stream: OnlineArrivalStream,
        *,
        seed=None,
        state: OnlineState | None = None,
        upto: int | None = None,
        checkpoint: SweepCheckpoint | None = None,
    ) -> OnlineState:
        """Advance through stages ``state.stage … upto-1`` and return the state.

        ``checkpoint`` (if given) durably records the state after each
        completed stage under key ``stage:<s>``.  The ambient
        :func:`~repro.resilience.current_resilience` config's fault plan,
        keyed by stage index, raises its planned fault *at the start* of
        the target stage — i.e. after the previous stage's record is
        durable but before any of the target stage's work, modeling a
        kill at the stage boundary.
        """
        fault_plan = current_resilience().fault_plan
        if state is None:
            state = self.initial_state(stream)
        last = self.n_stages if upto is None else min(int(upto), self.n_stages)
        for s in range(state.stage, last):
            if fault_plan is not None:
                fault_plan.raise_if_planned(s, 0, poison_as_error=True)
            state = self.advance_stage(stream, state, seed=seed)
            if checkpoint is not None:
                checkpoint.append(f"stage:{s}", state.to_payload(), index=s)
        return state

    def finalize(
        self, stream: OnlineArrivalStream, state: OnlineState
    ) -> OnlineOutcome:
        """Package a fully-advanced state as an :class:`OnlineOutcome`."""
        if state.stage != self.n_stages:
            raise ValidationError(
                f"cannot finalize: {state.stage}/{self.n_stages} stages done"
            )
        return OnlineOutcome(
            winners=tuple(state.winners),
            payments=tuple(state.payments),
            decisions=tuple(state.decisions),
            thresholds=tuple(state.thresholds),
            value=float(state.covered.sum()),
            spent=float(state.spent),
            budget=self.budget,
            n_arrivals=stream.n_arrivals,
            n_workers=stream.instance.n_workers,
            degraded=bool(state.degraded),
            charged_epsilon=float(state.charged_epsilon),
        )

    def run(self, stream: OnlineArrivalStream, *, seed=None) -> OnlineOutcome:
        """Process the whole stream and return the committed outcome.

        Raises
        ------
        BudgetExceededError
            DP variant only: the ambient admission controller refused a
            stage's ε draw under the ``refuse`` policy.
        """
        return self.finalize(stream, self.run_stages(stream, seed=seed))


class DPOnlineThresholdMechanism(OnlineThresholdMechanism):
    """Online threshold mechanism with ε-DP stage calibration.

    Each stage's threshold is drawn by an exponential mechanism over the
    public density lattice :meth:`threshold_candidates`, with utility
    ``u(t) = −|C(t) − k_s|`` where ``C(t)`` counts sample workers whose
    static density clears ``t`` and ``k_s = max(1, ⌊A_s / c_mid⌋)`` is
    the *public* target head-count the stage allocation affords at the
    midpoint cost.  One bid change moves exactly one worker's density,
    so ``|ΔC(t)| ≤ 1`` at every candidate and the score sensitivity
    is 1.  Each draw spends ``ε/n_stages``; by sequential composition
    the released threshold sequence is ε-DP (decisions and payments then
    post-process thresholds *and* the individual's own bid, exactly the
    release model of the paper's price-stage guarantee).

    Each draw is admitted before any ε is spent and then recorded, by
    :func:`~repro.privacy.budget.context.admit_draw` and
    :func:`~repro.privacy.budget.context.record_draw`: ``refuse`` raises
    :class:`~repro.exceptions.BudgetExceededError` pre-spend; ``degrade``
    permanently falls back to the parent's non-private calibration for
    the remaining stages, tags the outcome ``degraded=True``, and counts
    ``budget.degraded`` once.

    Parameters
    ----------
    budget, n_stages, fast_screen:
        As for :class:`OnlineThresholdMechanism`.
    epsilon:
        Total privacy budget ε split evenly across stages.
    n_candidates:
        Size of the public density lattice.
    """

    name = "online-dp"

    def __init__(
        self,
        budget: float,
        epsilon: float,
        *,
        n_stages: int = 4,
        n_candidates: int = 32,
        fast_screen: bool = True,
    ) -> None:
        super().__init__(budget, n_stages=n_stages, fast_screen=fast_screen)
        validation.require_positive(epsilon, "epsilon")
        if int(n_candidates) < 2:
            raise ValidationError(f"n_candidates must be >= 2, got {n_candidates}")
        self.epsilon = float(epsilon)
        self.n_candidates = int(n_candidates)

    @property
    def stage_epsilon(self) -> float:
        """ε spent per stage calibration (``ε / n_stages``)."""
        return self.epsilon / self.n_stages

    def threshold_candidates(self, instance: AuctionInstance) -> np.ndarray:
        """The public density lattice the stage thresholds are drawn from.

        Built only from public instance data (total demand and the cost
        bounds), so neighboring instances share the lattice exactly — a
        requirement for the exponential mechanism's guarantee and for
        the frequency-based empirical-ε estimator.
        """
        cost_floor = instance.c_min if instance.c_min > 0 else instance.c_max / 100.0
        density_max = instance.total_demand() / cost_floor
        if density_max <= 0.0:
            return np.array([1.0])
        return np.geomspace(density_max / 1024.0, density_max, num=self.n_candidates)

    def _candidate_scores(
        self, instance: AuctionInstance, sample: np.ndarray, allocation: float
    ) -> np.ndarray:
        """Sensitivity-1 utility per candidate: ``−|C(t) − k|``."""
        candidates = self.threshold_candidates(instance)
        if sample.size:
            gains = instance.static_gains[sample]
            density = static_density(gains, instance.prices[sample])
            counts = (density[None, :] >= candidates[:, None]).sum(axis=1)
        else:
            counts = np.zeros(candidates.size)
        cost_mid = (instance.c_min + instance.c_max) / 2.0
        target = max(1.0, math.floor(allocation / cost_mid))
        return -np.abs(counts - target)

    def _stage_seed(self, seed, stage: int) -> np.random.SeedSequence:
        """The stage's independent child seed (resume-invariant).

        Always spawns from a *fresh* :class:`~numpy.random.SeedSequence`
        (a passed-in sequence is rebuilt from its entropy/spawn-key), so
        the stage draw never depends on how many times the caller's
        object spawned before — that is what makes kill-and-resume
        bit-identical without persisting RNG state.
        """
        if isinstance(seed, np.random.SeedSequence):
            base = np.random.SeedSequence(
                entropy=seed.entropy, spawn_key=seed.spawn_key
            )
        else:
            base = np.random.SeedSequence(seed)
        return base.spawn(self.n_stages)[int(stage)]

    def _calibrate(
        self,
        instance: AuctionInstance,
        sample: np.ndarray,
        allocation: float,
        state: OnlineState,
        seed,
    ) -> float:
        # A degrade decision holds for the remaining stages: they calibrate
        # without drawing, so they are not admitted again.
        if state.degraded or admit_draw(self.name, self.stage_epsilon):
            state.degraded = True
            return super()._calibrate(instance, sample, allocation, state, seed)
        candidates = self.threshold_candidates(instance)
        scores = self._candidate_scores(instance, sample, allocation)
        with current_recorder().span(
            "exp_mech",
            f"{self.name}.stage.{state.stage}.threshold",
            support_size=int(candidates.size),
        ):
            mechanism = ExponentialMechanism(
                scores=scores, epsilon=self.stage_epsilon, sensitivity=1.0
            )
            rng = np.random.default_rng(self._stage_seed(seed, state.stage))
            index = mechanism.sample(rng)
        state.charged_epsilon = Composition(state.charged_epsilon).add(self.stage_epsilon)
        record_draw(
            self.name,
            epsilon=self.stage_epsilon,
            sensitivity=1.0,
            stage=int(state.stage),
            support_size=int(candidates.size),
            n_workers=instance.n_workers,
        )
        return float(candidates[index])

    def calibration_pmf(
        self, stream: OnlineArrivalStream, stage: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact (candidates, probabilities) of a stage's raw threshold draw.

        The sample a stage calibrates from is a fixed arrival prefix —
        independent of earlier accept/reject decisions — so each stage's
        *pre-monotonicity* draw distribution is exactly computable,
        which the chi-square statistical suite exploits.
        """
        bounds = self.stage_boundaries(stream.n_arrivals)
        sample = stream.arrivals[: bounds[int(stage)]]
        scores = self._candidate_scores(
            stream.instance, sample, self.stage_allocation(int(stage))
        )
        mechanism = ExponentialMechanism(
            scores=scores, epsilon=self.stage_epsilon, sensitivity=1.0
        )
        return self.threshold_candidates(stream.instance), mechanism.probabilities


def run_checkpointed(
    mechanism: OnlineThresholdMechanism,
    stream: OnlineArrivalStream,
    path,
    *,
    seed: int = 0,
) -> OnlineOutcome:
    """Run ``mechanism`` on ``stream`` with stage-boundary checkpointing.

    If ``path`` already holds a compatible checkpoint (same mechanism,
    stream fingerprint, stage count, and seed), the run resumes from the
    latest durable stage; otherwise it starts fresh.  Either way the
    returned outcome is bit-identical to an uninterrupted
    ``mechanism.run(stream, seed=seed)`` — the resilience suite kills a
    run at every stage boundary and pins exactly that.

    Parameters
    ----------
    mechanism, stream:
        The online mechanism and its arrival stream.
    path:
        Checkpoint file (JSON-lines, schema ``repro-checkpoint/1``).
    seed:
        Master seed for the per-stage randomness (DP variant).  Part of
        the checkpoint context: a file written under a different seed
        refuses to resume.

    Chaos testing installs a :class:`~repro.resilience.faults.FaultPlan`
    keyed by *stage index* with :func:`~repro.resilience.use_resilience`;
    :meth:`OnlineThresholdMechanism.run_stages` raises its faults at
    stage boundaries.
    """
    checkpoint = SweepCheckpoint(
        path,
        context={
            "mechanism": mechanism.name,
            "budget": float(mechanism.budget),
            "n_stages": int(mechanism.n_stages),
            "stream": stream.fingerprint(),
            "seed": seed_fingerprint(seed),
        },
    )
    state: OnlineState | None = None
    if checkpoint.exists():
        records = checkpoint.load()
        stages = sorted(
            int(key.split(":", 1)[1]) for key in records if key.startswith("stage:")
        )
        if stages:
            state = OnlineState.from_payload(records[f"stage:{stages[-1]}"]["payload"])
    state = mechanism.run_stages(stream, seed=seed, state=state, checkpoint=checkpoint)
    return mechanism.finalize(stream, state)
