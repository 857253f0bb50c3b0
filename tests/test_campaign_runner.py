"""Tests for the campaign runner: artifacts, resume, budget tenants."""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CellSpec,
    build_report,
    decode_result,
    encode_result,
    render_report,
    report_json,
)
from repro.campaign.artifacts import read_cell_result
from repro.campaign.cells import CELL_KINDS, CellKind, register_cell_kind
from repro.exceptions import InstanceExecutionError, ValidationError
from repro.experiments.runner import ExperimentResult
from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
from repro.privacy.budget.context import current_budget_scope
from repro.resilience import ResilienceConfig, use_resilience
from repro.resilience.faults import FaultPlan


@pytest.fixture
def toy_kind():
    """A registered instant cell kind recording each run's budget tenant."""
    seen_tenants: list[str] = []

    def runner(cell, context):
        seen_tenants.append(current_budget_scope().tenant)
        value = float(cell.knobs.get("value", 1.0))
        return ExperimentResult(
            name=cell.name,
            title=f"toy {cell.name}",
            headers=["x", "y"],
            rows=[(1, value), (2, value * 2)],
            notes=(f"seed={context.seed}",),
        )

    kind = CellKind(name="toy_test_kind", summary="instant test cell", runner=runner)
    register_cell_kind(kind)
    try:
        yield seen_tenants
    finally:
        del CELL_KINDS["toy_test_kind"]


def toy_spec(n=3, **spec_kwargs):
    return CampaignSpec(
        name="toyspec",
        cells=tuple(
            CellSpec(name=f"cell{i}", kind="toy_test_kind", knobs={"value": i + 1.0})
            for i in range(n)
        ),
        **spec_kwargs,
    )


class TestEncodeDecode:
    def test_round_trip_identity(self):
        result = ExperimentResult(
            name="r",
            title="T",
            headers=["a", "b", "c"],
            rows=[(1, 2.5, "s"), (True, None, -0.0)],
            notes=("n1", "n2"),
            precision=2,
        )
        assert decode_result(encode_result(result)) == result

    def test_non_finite_floats_round_trip_through_json(self):
        result = ExperimentResult(
            name="r",
            title="T",
            headers=["a"],
            rows=[(float("inf"),), (float("-inf"),)],
        )
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_nan_tagged(self):
        from repro.campaign.artifacts import _decode_cell, _encode_cell
        import math

        tagged = _encode_cell(float("nan"))
        assert tagged == {"__float__": "nan"}
        assert math.isnan(_decode_cell(tagged))

    def test_unencodable_cell_rejected(self):
        result = ExperimentResult(
            name="r", title="T", headers=["a"], rows=[(object(),)]
        )
        with pytest.raises(ValidationError, match="not JSON-encodable"):
            encode_result(result)


class TestRunnerLayout:
    def test_artifact_folders(self, tmp_path, toy_kind):
        spec = toy_spec()
        runner = CampaignRunner(spec, tmp_path)
        payloads = runner.run()
        assert sorted(payloads) == ["cell0", "cell1", "cell2"]
        assert runner.spec_path.exists()
        assert runner.checkpoint_path.exists()
        for i in range(3):
            folder = runner.cell_dir(f"cell{i}")
            assert (folder / "result.json").exists()
            assert (folder / "metrics.json").exists()
            assert (folder / "trace.jsonl").exists()
            # result.json round-trips to exactly what run() returned.
            assert encode_result(read_cell_result(folder)) == payloads[f"cell{i}"]

    def test_cell_dir_validates_name(self, tmp_path, toy_kind):
        runner = CampaignRunner(toy_spec(), tmp_path)
        with pytest.raises(ValidationError):
            runner.cell_dir("not_a_cell")

    def test_load_spec_round_trip(self, tmp_path, toy_kind):
        spec = toy_spec()
        CampaignRunner(spec, tmp_path).run()
        assert CampaignRunner.load_spec(tmp_path) == spec

    def test_load_spec_missing_dir(self, tmp_path):
        with pytest.raises(ValidationError, match="not a campaign directory"):
            CampaignRunner.load_spec(tmp_path / "nope")

    def test_mismatched_spec_refused(self, tmp_path, toy_kind):
        CampaignRunner(toy_spec(), tmp_path).run()
        other = toy_spec(seed=99)
        with pytest.raises(ValidationError, match="different campaign"):
            CampaignRunner(other, tmp_path).run()


class TestKillAndResume:
    def test_crash_then_resume_is_byte_identical(self, tmp_path, toy_kind):
        spec = toy_spec(4)

        ref = CampaignRunner(spec, tmp_path / "ref")
        ref_doc = build_report(spec, ref.run())

        broken = CampaignRunner(spec, tmp_path / "int")
        with pytest.raises(InstanceExecutionError):
            with use_resilience(ResilienceConfig(fault_plan=FaultPlan.parse("crash@2"))):
                broken.run()
        statuses = [s["status"] for s in broken.status()]
        assert statuses == ["done", "done", "pending", "pending"]

        resumed = CampaignRunner(spec, tmp_path / "int")
        doc = build_report(spec, resumed.run())
        assert report_json(doc) == report_json(ref_doc)
        assert render_report(doc) == render_report(ref_doc)
        for i in range(4):
            a = (tmp_path / "ref" / "cells" / f"cell{i}" / "result.json").read_bytes()
            b = (tmp_path / "int" / "cells" / f"cell{i}" / "result.json").read_bytes()
            assert a == b

    def test_resume_does_not_rerun_completed_cells(self, tmp_path, toy_kind):
        spec = toy_spec(3)
        runner = CampaignRunner(spec, tmp_path)
        runner.run()
        assert len(toy_kind) == 3
        # A full re-run replays every cell from the checkpoint.
        again = CampaignRunner(spec, tmp_path)
        payloads = again.run()
        assert len(toy_kind) == 3  # no additional executions
        assert sorted(payloads) == ["cell0", "cell1", "cell2"]

    def test_status_and_payloads_before_any_run(self, tmp_path, toy_kind):
        runner = CampaignRunner(toy_spec(), tmp_path)
        assert all(s["status"] == "pending" for s in runner.status())
        assert runner.payloads() == {}


class TestBudgetTenants:
    def test_each_cell_charges_its_own_tenant(self, tmp_path, toy_kind):
        spec = CampaignSpec(
            name="tenants",
            cells=(
                CellSpec(name="a", kind="toy_test_kind"),
                CellSpec(name="b", kind="toy_test_kind", tenant="shared"),
                CellSpec(name="c", kind="toy_test_kind", tenant="shared"),
            ),
        )
        with use_budget_store(InMemoryBudgetStore(limit=100.0)):
            CampaignRunner(spec, tmp_path).run()
        assert toy_kind == ["a", "shared", "shared"]

    def test_without_store_tenant_still_set(self, tmp_path, toy_kind):
        CampaignRunner(toy_spec(1), tmp_path).run()
        assert toy_kind == ["cell0"]


class TestSmokePresetIntegration:
    def test_smoke_campaign_cells_match_standalone_runs(self, tmp_path):
        """An 'experiment' campaign cell reproduces the standalone run."""
        from repro.campaign import build_preset
        from repro.cli import run_experiment

        spec = build_preset("smoke")
        runner = CampaignRunner(spec, tmp_path)
        payloads = runner.run()
        standalone = run_experiment("table1", fast=True, seed=0)
        assert payloads["table1"] == encode_result(standalone)
