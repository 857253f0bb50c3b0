"""One release path for every ε draw: admit, degrade, charge, record.

``repro.privacy.budget.context`` owns two functions that every DP draw in
``src/`` goes through: ``admit_draw`` before the draw (refuse raises,
degrade counts ``budget.degraded``) and ``record_draw`` after it (the
ledger entry, forwarded to the store as an enforced or a degraded
charge).  The source test pins that no other code admits or records a
draw; the matrix pins what each draw path does under each budget state.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.auction.mechanism import PricePMF
from repro.auction.outcome import AuctionOutcome
from repro.bench import seeded_auction_batch
from repro.exceptions import BudgetExceededError
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction, reweight_pmf
from repro.mechanisms.dp_variants import PermuteFlipHSRCAuction
from repro.mechanisms.online import DPOnlineThresholdMechanism
from repro.obs import MetricsRecorder, use_recorder
from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
from repro.workloads import OnlineArrivalStream

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CONTEXT = "privacy/budget/context.py"


def _call_sites():
    """``(module, enclosing qualname, call node)`` for every call in ``src/``."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                sites.append((module, ".".join(scope), child))
            visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, ())
    return sites


def _method_callers(sites, method, receiver=None):
    """Where ``<receiver>.method(`` is called (any receiver when ``None``)."""
    found = set()
    for module, scope, call in sites:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != method:
            continue
        target = func.value
        name = getattr(target, "attr", getattr(target, "id", None))
        if receiver is None or name == receiver:
            found.add((module, scope))
    return found


class TestOneOwner:
    @pytest.fixture(scope="class")
    def sites(self):
        return _call_sites()

    def test_only_the_scope_and_admit_draw_call_admit(self, sites):
        assert _method_callers(sites, "admit") == {
            (CONTEXT, "BudgetScope.admit"),
            (CONTEXT, "admit_draw"),
        }

    def test_only_record_draw_records_in_the_ledger(self, sites):
        assert _method_callers(sites, "record", receiver="ledger") == {
            (CONTEXT, "record_draw")
        }

    def test_only_admit_draw_counts_a_degraded_draw(self, sites):
        counters = {
            (module, scope)
            for module, scope, call in sites
            if isinstance(call.func, ast.Attribute)
            and call.func.attr == "count"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "budget.degraded"
        }
        assert counters == {(CONTEXT, "admit_draw")}

    def test_no_option_skips_the_release_path(self):
        offenders = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if "record_ledger" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


EPSILON = 0.5  # per draw, and per stage of the 4-stage online mechanism
#: Below every path's per-draw ε: the account cannot afford the first draw.
EXHAUSTED = 0.125


@pytest.fixture(scope="module")
def instance():
    [instance] = seeded_auction_batch(1, n_workers=30, n_tasks=6, seed=2016)
    return instance


@pytest.fixture(scope="module")
def base_pmf(instance):
    """The PMF ``reweight_pmf`` re-scores, built outside any scope."""
    return DPHSRCAuction(1.0).price_pmf(instance)


def _draw(path, instance, base_pmf):
    if path == "dp-hsrc":
        return DPHSRCAuction(EPSILON).run(instance, seed=1)
    if path == "baseline":
        return BaselineAuction(EPSILON).run(instance, seed=1)
    if path == "reweight":
        return reweight_pmf(base_pmf, instance, EPSILON)
    if path == "permute-flip.pmf":
        return PermuteFlipHSRCAuction(EPSILON, pmf_samples=500).price_pmf(instance)
    if path == "permute-flip.run":
        return PermuteFlipHSRCAuction(EPSILON).run(instance, seed=1)
    stream = OnlineArrivalStream(instance, order="uniform", seed=11)
    return DPOnlineThresholdMechanism(budget=60.0, epsilon=4 * EPSILON, n_stages=4).run(
        stream, seed=7
    )


PATHS = (
    "dp-hsrc",
    "baseline",
    "reweight",
    "permute-flip.pmf",
    "permute-flip.run",
    "online-dp",
)


def _same(a, b):
    """Bitwise equality of two draws' results: a PMF, an outcome or an online outcome."""
    if isinstance(a, PricePMF):
        return (
            np.array_equal(a.prices, b.prices)
            and np.array_equal(a.probabilities, b.probabilities)
            and all(map(np.array_equal, a.winner_sets, b.winner_sets))
            and a.degraded == b.degraded
        )
    if isinstance(a, AuctionOutcome):
        return (
            np.array_equal(a.winners, b.winners)
            and a.price == b.price
            and np.array_equal(a.payments, b.payments)
            and a.degraded == b.degraded
        )
    return a == b


def _account(store):
    account = store.account("t")
    if account is None:
        return 0.0, 0.0, 0, 0
    return account.spent, account.degraded_epsilon, account.n_charges, account.n_degraded


@pytest.mark.parametrize("path", PATHS)
class TestReleaseMatrix:
    def test_no_store(self, path, instance, base_pmf):
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            result = _draw(path, instance, base_pmf)
        assert not result.degraded
        assert "budget.degraded" not in recorder.counters
        assert recorder.ledger.entries
        assert all("degraded" not in e.attrs for e in recorder.ledger.entries)

    def test_affordable(self, path, instance, base_pmf):
        with use_recorder(MetricsRecorder()):
            unbudgeted = _draw(path, instance, base_pmf)
        recorder, store = MetricsRecorder(), InMemoryBudgetStore(limit=100.0)
        with use_recorder(recorder), use_budget_store(store, tenant="t"):
            result = _draw(path, instance, base_pmf)
        assert not result.degraded
        assert _same(result, unbudgeted)
        spent, degraded, n_charges, n_degraded = _account(store)
        assert n_degraded == 0 and degraded == 0.0
        assert n_charges + n_degraded == len(recorder.ledger.entries) > 0
        assert recorder.ledger.total_epsilon == spent + degraded
        assert "budget.degraded" not in recorder.counters

    def test_exhausted_refuse_raises_before_the_account_moves(
        self, path, instance, base_pmf
    ):
        recorder, store = MetricsRecorder(), InMemoryBudgetStore(limit=EXHAUSTED)
        with use_recorder(recorder), use_budget_store(store, tenant="t"):
            with pytest.raises(BudgetExceededError) as excinfo:
                _draw(path, instance, base_pmf)
        assert excinfo.value.tenant == "t"
        assert _account(store) == (0.0, 0.0, 0, 0)
        assert recorder.ledger.entries == []
        assert "budget.degraded" not in recorder.counters

    def test_exhausted_degrade_counts_once_and_tags(self, path, instance, base_pmf):
        recorder, store = MetricsRecorder(), InMemoryBudgetStore(limit=EXHAUSTED)
        with use_recorder(recorder), use_budget_store(
            store, tenant="t", on_exhausted="degrade"
        ):
            result = _draw(path, instance, base_pmf)
        assert result.degraded
        assert recorder.counters["budget.degraded"] == 1
        spent, degraded, n_charges, n_degraded = _account(store)
        assert spent == 0.0 and n_charges == 0
        entries = recorder.ledger.entries
        assert n_charges + n_degraded == len(entries)
        assert all(e.attrs["degraded"] is True for e in entries)
        assert recorder.ledger.total_epsilon == spent + degraded
