"""Run policy is set in one place: the ambient run context.

The retry policy, the fault plan and the metrics sink reach every
executor through :func:`repro.resilience.use_resilience` and
:func:`repro.obs.use_recorder` alone; no driver takes them as arguments.
A unit runs under no resilience config, in-process as on the pool, so a
fault plan applies only to the indices of the executor that read it.
"""

import ast
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, CellSpec
from repro.exceptions import InstanceExecutionError
from repro.resilience import FaultPlan, ResilienceConfig, use_resilience

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Run-policy parameter names no function in ``src/`` may take.
POLICY = {"retry", "fault_plan", "sleep"}

#: Ships the fault plan to a pooled attempt, so it takes it as an argument.
ATTEMPT = "repro.resilience.executor:_attempt"


def _signatures() -> list[tuple[str, list[str]]]:
    """``(module:qualname, parameter names)`` of every function in ``src/``."""
    found = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                found.append((f"{module}:{prefix}{name}", params))
                visit(child, module, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return found


def _params(qualname: str) -> list[str]:
    [params] = [params for name, params in _signatures() if name == qualname]
    return params


class TestOnePlaceForRunPolicy:
    def test_no_function_takes_a_policy_parameter(self):
        offenders = [
            (name, sorted(POLICY & set(params)))
            for name, params in _signatures()
            if POLICY & set(params) and name != ATTEMPT
        ]
        assert offenders == []
        assert "fault_plan" in _params(ATTEMPT)

    def test_executor_takes_only_a_checkpoint(self):
        assert _params("repro.resilience.executor:ResilientExecutor.__init__") == [
            "self",
            "checkpoint",
        ]

    @pytest.mark.parametrize(
        "qualname",
        [
            "repro.bench.batch:BatchAuctionRunner.run",
            "repro.experiments.runner:payment_sweep",
        ],
    )
    def test_drivers_take_no_recorder(self, qualname):
        assert "recorder" not in _params(qualname)


class TestFaultPlanIndexSpace:
    def test_campaign_plan_fails_its_own_cell(self, tmp_path):
        """``crash@2`` fails campaign cell 2, not unit 2 of cell 0's figure."""
        cells = tuple(
            CellSpec(
                name=f"cell{i}",
                kind="payment_figure",
                knobs={"axis": "tasks", "values": [3, 4, 5], "n_price_samples": 50},
            )
            for i in range(4)
        )
        runner = CampaignRunner(CampaignSpec(name="policy", fast=True, cells=cells), tmp_path)
        crash = ResilienceConfig(fault_plan=FaultPlan.parse("crash@2"))
        with pytest.raises(InstanceExecutionError) as info, use_resilience(crash):
            runner.run()
        assert info.value.index == 2
        assert [s["status"] for s in runner.status()] == ["done", "done", "pending", "pending"]
