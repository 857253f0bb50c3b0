"""Statistical verification of the online mechanisms (``statistical`` tier).

Excluded from tier-1 by the default ``-m "not scale and not statistical"``
addopts; run explicitly with ``pytest -m statistical``.  The CI
``online-smoke`` job runs a bounded variant via ``REPRO_STAT_SMOKE=1``.

All randomness is seeded — every estimate below is a fixed number, so a
failure is a real regression, not bad luck:

* **Empirical competitive ratio** — ≥200 seeded arrival permutations vs
  the offline optimum; the mean must stay inside the analytic
  ``8·n_stages`` envelope.
* **Exact per-stage DP divergence** — each stage's calibration PMF on a
  neighboring stream diverges by at most ``ε/n_stages`` (and measurably
  more than zero, so the check is not vacuous).
* **Empirical ε** — a black-box observer of released threshold
  sequences measures at most the ledger-charged ε plus sampling noise.
* **Chi-square** — sampled stage-0 thresholds through the deployed
  ``run`` path are consistent with the exact ``calibration_pmf``.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

from repro.analysis.online import competitive_audit, online_empirical_epsilon
from repro.auction.bids import Bid
from repro.mechanisms.online import (
    DPOnlineThresholdMechanism,
    OnlineThresholdMechanism,
)
from repro.obs import MetricsRecorder, use_recorder
from repro.workloads import OnlineArrivalStream, generate_instance
from repro.workloads.settings import SimulationSetting

pytestmark = pytest.mark.statistical

#: Bounded-CI mode: fewer samples, same assertions (validated offline).
SMOKE = os.environ.get("REPRO_STAT_SMOKE") == "1"

N_PERMUTATIONS = 60 if SMOKE else 200
N_EPS_SAMPLES = 800 if SMOKE else 2_500
N_CHI_SAMPLES = 500 if SMOKE else 1_500
#: Sampling-noise allowance on the empirical-ε estimate (rare threshold
#: tuples carry log-ratio noise even for a perfectly private mechanism).
EPS_ALLOWANCE = 0.5
#: Rare-tuple floor for the empirical-ε maximization.  A tuple seen k
#: times on one side and never on the other contributes log(k+1) of pure
#: noise, so the floor must grow as the sample budget shrinks relative
#: to the joint support.
EPS_MIN_COUNT = 20 if SMOKE else 10
P_VALUE_FLOOR = 1e-3

SETTING = SimulationSetting(
    name="online-stat",
    epsilon=0.5,
    c_min=1.0,
    c_max=10.0,
    bundle_size=(3, 5),
    skill_range=(0.3, 0.95),
    error_threshold_range=(0.3, 0.5),
    n_workers=40,
    n_tasks=6,
    price_range=(4.0, 10.0),
    grid_step=0.5,
)


@pytest.fixture(scope="module")
def market():
    instance, _pool = generate_instance(SETTING, seed=5)
    return instance


@pytest.fixture(scope="module")
def neighbor_streams(market):
    """A stream and its one-bid neighbor sharing the same arrival order.

    The perturbed worker is the *first arrival*, so she sits inside
    every stage's calibration sample; dropping her ask to ``c_min``
    moves her static density hard enough to shift the candidate counts
    — making the exact-divergence check non-vacuous.
    """
    stream = OnlineArrivalStream(market, order="uniform", seed=11)
    worker = int(stream.arrivals[0])
    perturbed = market.replace_bid(
        worker, Bid(sorted(market.bids[worker].bundle), SETTING.c_min)
    )
    return stream, stream.with_instance(perturbed)


class TestCompetitiveRatio:
    def test_mean_ratio_within_analytic_bound(self, market):
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=3)
        report = competitive_audit(
            mechanism, market, n_permutations=N_PERMUTATIONS, seed=0
        )
        assert report.n_permutations == N_PERMUTATIONS
        assert np.isfinite(report.ratios).all()
        assert report.satisfied, (
            f"mean competitive ratio {report.mean_ratio:.3f} exceeds "
            f"analytic bound {report.bound}"
        )
        assert report.worst_ratio <= report.bound
        assert report.fraction_within_bound == 1.0
        assert report.mean_regret >= 0.0

    def test_dp_variant_stays_within_bound(self, market):
        mechanism = DPOnlineThresholdMechanism(
            budget=120.0, epsilon=1.2, n_stages=3
        )
        report = competitive_audit(
            mechanism, market, n_permutations=max(N_PERMUTATIONS // 2, 30), seed=1
        )
        assert np.isfinite(report.ratios).all()
        assert report.satisfied

    def test_adversarial_and_bursty_orders_still_produce_value(self, market):
        mechanism = OnlineThresholdMechanism(budget=120.0, n_stages=3)
        for order in ("adversarial", "bursty"):
            report = competitive_audit(
                mechanism,
                market,
                n_permutations=max(N_PERMUTATIONS // 4, 20),
                seed=2,
                order=order,
                churn=0.2,
            )
            assert report.order == order
            assert np.mean(np.isfinite(report.ratios)) >= 0.9
            assert report.mean_regret <= report.offline_value


class TestDifferentialPrivacy:
    EPSILON = 1.2
    N_STAGES = 2

    def _mechanism(self):
        return DPOnlineThresholdMechanism(
            budget=120.0,
            epsilon=self.EPSILON,
            n_stages=self.N_STAGES,
            n_candidates=32,
        )

    def test_exact_per_stage_divergence_within_stage_epsilon(
        self, neighbor_streams
    ):
        mechanism = self._mechanism()
        stream_a, stream_b = neighbor_streams
        divergences = []
        for stage in range(self.N_STAGES):
            _, pmf_a = mechanism.calibration_pmf(stream_a, stage)
            _, pmf_b = mechanism.calibration_pmf(stream_b, stage)
            divergences.append(float(np.max(np.abs(np.log(pmf_a / pmf_b)))))
        for divergence in divergences:
            assert divergence <= mechanism.stage_epsilon + 1e-9
        # Non-vacuous: the neighbor measurably moves the distribution.
        assert max(divergences) > 0.0

    def test_empirical_epsilon_within_charged_budget(self, neighbor_streams):
        mechanism = self._mechanism()
        stream_a, stream_b = neighbor_streams
        estimate = online_empirical_epsilon(
            mechanism,
            stream_a,
            stream_b,
            n_samples=N_EPS_SAMPLES,
            seed=2026,
            min_count=EPS_MIN_COUNT,
        )
        assert 0.0 < estimate <= self.EPSILON + EPS_ALLOWANCE, (
            f"empirical epsilon {estimate:.3f} exceeds charged "
            f"{self.EPSILON} + allowance {EPS_ALLOWANCE}"
        )

    def test_charged_epsilon_matches_ledger_on_audited_path(
        self, neighbor_streams
    ):
        recorder = MetricsRecorder()
        mechanism = self._mechanism()
        with use_recorder(recorder):
            outcome = mechanism.run(neighbor_streams[0], seed=3)
        assert outcome.charged_epsilon == pytest.approx(self.EPSILON)
        assert recorder.ledger.total_epsilon == pytest.approx(self.EPSILON)

    def test_chi_square_sampled_thresholds_match_calibration_pmf(
        self, neighbor_streams
    ):
        mechanism = self._mechanism()
        stream, _ = neighbor_streams
        candidates, probabilities = mechanism.calibration_pmf(stream, stage=0)
        counts = np.zeros(candidates.size)
        for child in np.random.SeedSequence(77).spawn(N_CHI_SAMPLES):
            outcome = mechanism.run(stream, seed=child)
            index = int(np.searchsorted(candidates, outcome.thresholds[0]))
            assert math.isclose(candidates[index], outcome.thresholds[0])
            counts[index] += 1
        # Pool support points with tiny expected mass so the chi-square
        # approximation holds (textbook >=5 expected per cell).
        keep = probabilities * N_CHI_SAMPLES >= 5.0
        pooled_counts = np.append(counts[keep], counts[~keep].sum())
        pooled_expected = np.append(
            probabilities[keep] * N_CHI_SAMPLES,
            probabilities[~keep].sum() * N_CHI_SAMPLES,
        )
        if pooled_expected[-1] == 0.0:
            assert pooled_counts[-1] == 0.0
            pooled_counts, pooled_expected = pooled_counts[:-1], pooled_expected[:-1]
        result = stats.chisquare(pooled_counts, pooled_expected)
        assert result.pvalue > P_VALUE_FLOOR, (
            f"sampled thresholds inconsistent with calibration_pmf "
            f"(p={result.pvalue:.2e})"
        )
