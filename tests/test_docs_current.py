"""Documentation freshness checks.

docs/API.md is generated from docstrings; this test regenerates it in a
temp location and fails when the committed copy is stale, so public-API
changes cannot silently rot the reference.
"""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


class TestAPIDocsFresh:
    def test_api_md_matches_generator(self, tmp_path, monkeypatch):
        committed = (REPO / "docs" / "API.md").read_text()

        # Run the generator for real into a temporary file and compare it
        # with the committed copy (the generator is deterministic), so a
        # stale copy is reported, never overwritten.  It calls sys.exit()
        # when run as __main__, which is fine — 0 means success.
        target = tmp_path / "API.md"
        monkeypatch.setattr(sys, "argv", ["gen_api_docs.py", str(target)])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(
                str(REPO / "scripts" / "gen_api_docs.py"), run_name="__main__"
            )
        assert excinfo.value.code == 0
        regenerated = target.read_text()
        assert regenerated == committed, (
            "docs/API.md is stale; run `python scripts/gen_api_docs.py`"
        )

    def test_api_md_mentions_headline_classes(self):
        text = (REPO / "docs" / "API.md").read_text()
        for name in ("DPHSRCAuction", "PricePMF", "plan_campaign", "covering_lp_simplex"):
            assert name in text


class TestExperimentsDocFresh:
    def test_experiments_md_matches_registry(self):
        """EXPERIMENTS.md must be regenerated after registry edits.

        The builder renders sections from repro.experiments.REGISTRY, so
        comparing its output against the committed file catches both
        stale commentary and missing/renamed sections.
        """
        committed = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        module = runpy.run_path(str(REPO / "scripts" / "build_experiments_md.py"))
        assert module["build_text"]() == committed, (
            "EXPERIMENTS.md is stale; run `python scripts/build_experiments_md.py`"
        )

    def test_every_registry_experiment_has_a_section(self):
        from repro.experiments import REGISTRY

        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for spec in REGISTRY:
            assert f"## {spec.artifact}" in text


class TestDesignDocCrossReferences:
    """DESIGN.md must reference only modules that actually exist."""

    def test_experiment_registry_documented(self):
        from repro.experiments import EXPERIMENTS

        design = (REPO / "DESIGN.md").read_text()
        # Every paper artifact experiment must appear in DESIGN.md.
        for name in ("figure1", "figure2", "figure3", "figure4", "figure5",
                     "table2"):
            assert name in design
        # And the registry must expose them all.
        for name in ("figure1", "table2", "price_of_privacy", "geo_workload"):
            assert name in EXPERIMENTS

    def test_theory_doc_references_real_tests(self):
        theory = (REPO / "docs" / "THEORY.md").read_text()
        for line in theory.splitlines():
            if "tests/" in line:
                for token in line.split("`"):
                    if token.startswith("tests/") and token.endswith(".py"):
                        assert (REPO / token).exists(), f"THEORY.md references missing {token}"


class TestUsageGuideReferences:
    """USAGE.md recipes must reference real public names."""

    def test_backtick_identifiers_resolve(self):
        import re

        import repro
        import repro.analysis
        import repro.io
        import repro.mechanisms

        text = (REPO / "docs" / "USAGE.md").read_text()
        known = set(repro.__all__) | set(repro.analysis.__all__) | set(
            repro.mechanisms.__all__
        ) | {"Mechanism", "AuctionOutcome", "PrivacyAccountant", "MCSSimulation"}
        for match in re.findall(r"`([A-Z][A-Za-z]+)`", text):
            assert match in known, f"USAGE.md mentions unknown class {match!r}"

    def test_first_recipe_runs(self):
        """The hand-built market recipe must execute as written."""
        import numpy as np

        from repro import AuctionInstance, Bid, BidProfile
        from repro.analysis import diagnose

        bids = BidProfile([
            Bid(bundle={0, 1}, price=12.0),
            Bid(bundle={1, 2}, price=9.5),
            Bid(bundle={0, 2}, price=15.0),
        ])
        instance = AuctionInstance.from_skills(
            bids=bids,
            skills=np.array([[0.9, 0.8, 0.5],
                             [0.7, 0.75, 0.85],
                             [0.6, 0.5, 0.95]]),
            error_thresholds=[0.2, 0.2, 0.25],
            price_grid=np.arange(8.0, 20.5, 0.5),
            c_min=5.0, c_max=20.0,
        )
        report = diagnose(instance)
        assert "coverable" in report.summary()
