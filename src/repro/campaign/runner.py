"""Execute a campaign grid with checkpoint/resume and per-cell artifacts.

The :class:`CampaignRunner` is deliberately thin glue over existing
subsystems:

* the cells are the units of one in-process
  :meth:`~repro.resilience.ResilientExecutor.run_units` call, keyed by
  child ``i`` of ``SeedSequence(spec.seed)`` — fault injection,
  deterministic retry, and checkpoint/resume all come for free, each
  cell settles (and checkpoints) before the next starts, and a killed
  campaign resumes bit-identically at every cell boundary; the ambient
  resilience config's fault plan is keyed by cell index;
* the checkpoint (``<dir>/checkpoint.jsonl``, schema
  ``repro-checkpoint/1``) pins the spec fingerprint in its header, so it
  can never silently resume a different grid;
* every cell runs under its own fresh
  :class:`~repro.obs.MetricsRecorder` (merged into the ambient one
  afterwards) and its own budget tenant
  (:meth:`~repro.privacy.budget.BudgetScope.with_tenant`) — a campaign
  under one ambient budget store accounts each cell separately;
* artifacts (result JSON, metrics snapshot, trace) are written from
  *inside* the unit, so resumed cells replay their checkpoint payload
  instead of rewriting artifacts.

The runner returns the per-cell result payloads the report module
renders; payloads restored from the checkpoint are byte-equivalent to
freshly computed ones (floats round-trip through ``repr``-based JSON),
which is what makes the post-resume report byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.campaign.artifacts import encode_result, write_cell_artifacts
from repro.campaign.cells import CellContext, get_cell_kind
from repro.campaign.spec import CampaignSpec
from repro.exceptions import ValidationError
from repro.obs import MetricsRecorder, current_recorder, use_recorder
from repro.privacy.budget.context import current_budget_scope, use_budget_scope
from repro.resilience.checkpoint import SweepCheckpoint, seed_fingerprint
from repro.resilience.executor import ResilientExecutor

__all__ = ["CampaignRunner"]


class CampaignRunner:
    """Run (or resume) one :class:`~repro.campaign.spec.CampaignSpec`.

    Parameters
    ----------
    spec:
        The campaign grid.
    directory:
        The campaign's home; owns ``campaign.json``, the checkpoint, the
        per-cell artifact folders, and the final report files.

    Examples
    --------
    >>> import tempfile
    >>> from repro.campaign import CampaignSpec, CellSpec
    >>> spec = CampaignSpec(
    ...     name="demo",
    ...     fast=True,
    ...     cells=(CellSpec(name="table1", kind="experiment"),),
    ... )
    >>> runner = CampaignRunner(spec, tempfile.mkdtemp())
    >>> sorted(runner.run())
    ['table1']
    """

    def __init__(self, spec: CampaignSpec, directory: Union[str, Path]) -> None:
        self.spec = spec
        self.directory = Path(directory)

    # -- layout ---------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        """``<dir>/campaign.json`` — the pinned spec."""
        return self.directory / "campaign.json"

    @property
    def checkpoint_path(self) -> Path:
        """``<dir>/checkpoint.jsonl`` — one record per completed cell."""
        return self.directory / "checkpoint.jsonl"

    def cell_dir(self, name: str) -> Path:
        """``<dir>/cells/<name>/`` — the cell's artifact folder."""
        self.spec.cell(name)  # validates the name
        return self.directory / "cells" / name

    @classmethod
    def load_spec(cls, directory: Union[str, Path]) -> CampaignSpec:
        """Read the pinned spec back from ``<dir>/campaign.json``."""
        path = Path(directory) / "campaign.json"
        if not path.exists():
            raise ValidationError(
                f"{path} does not exist — not a campaign directory (run "
                "'repro campaign run' with --preset or --spec first)"
            )
        return CampaignSpec.from_payload(json.loads(path.read_text(encoding="utf-8")))

    # -- plumbing -------------------------------------------------------

    def checkpoint(self) -> SweepCheckpoint:
        """The campaign's cell-boundary checkpoint (fingerprint-pinned)."""
        return SweepCheckpoint(
            self.checkpoint_path,
            context={
                "campaign": self.spec.name,
                "fingerprint": self.spec.fingerprint(),
                "n_cells": self.spec.n_cells,
                "seed": self.spec.seed,
                "fast": self.spec.fast,
            },
        )

    def _unit_seeds(self) -> list[np.random.SeedSequence]:
        # Checkpoint keys only; cell kinds derive their own run seeds
        # from spec.seed so campaign cells match standalone runs.
        return np.random.SeedSequence(self.spec.seed).spawn(self.spec.n_cells)

    def pin_spec(self) -> None:
        """Write ``campaign.json`` (or verify it matches this spec).

        A directory already pinned to a *different* spec is refused —
        the guard that keeps artifacts, checkpoint, and report mutually
        consistent across resumes.
        """
        payload = self.spec.to_payload()
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text(encoding="utf-8"))
            if existing != payload:
                raise ValidationError(
                    f"{self.spec_path} pins a different campaign "
                    f"({existing.get('name')!r}); use a fresh directory or "
                    "delete the old campaign first"
                )
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    # -- status ---------------------------------------------------------

    def status(self) -> list[dict]:
        """Per-cell state: ``done`` (checkpointed) or ``pending``."""
        cached = self.checkpoint().load() if self.checkpoint_path.exists() else {}
        seeds = self._unit_seeds()
        return [
            {
                "cell": cell.name,
                "kind": cell.kind,
                "tenant": cell.resolved_tenant,
                "status": "done" if seed_fingerprint(seed) in cached else "pending",
            }
            for cell, seed in zip(self.spec.cells, seeds)
        ]

    def payloads(self) -> dict[str, dict]:
        """Completed cells' result payloads, straight from the checkpoint."""
        cached = self.checkpoint().load() if self.checkpoint_path.exists() else {}
        seeds = self._unit_seeds()
        out: dict[str, dict] = {}
        for cell, seed in zip(self.spec.cells, seeds):
            record = cached.get(seed_fingerprint(seed))
            if record is not None:
                out[cell.name] = record["payload"]
        return out

    # -- execution ------------------------------------------------------

    def run(self) -> dict[str, dict]:
        """Execute every pending cell; returns all result payloads.

        Raises
        ------
        InstanceExecutionError
            A cell failed permanently (or a planned crash fault fired);
            completed cells are already checkpointed, so re-running
            resumes after them.
        """
        self.pin_spec()
        context = CellContext(
            campaign=self.spec.name, fast=self.spec.fast, seed=self.spec.seed
        )

        def run_cell(cell, kind) -> dict:
            cell_recorder = MetricsRecorder()
            scope = current_budget_scope().with_tenant(cell.resolved_tenant)
            with use_budget_scope(scope), use_recorder(cell_recorder):
                with cell_recorder.span("campaign_cell", cell.name, cell_kind=cell.kind):
                    result = kind.runner(cell, context)
            write_cell_artifacts(
                self.directory / "cells" / cell.name,
                campaign=self.spec.name,
                cell=cell,
                result=result,
                recorder=cell_recorder,
            )
            outer = current_recorder()
            if isinstance(outer, MetricsRecorder):
                outer.merge_snapshot(cell_recorder.snapshot())
            return encode_result(result)

        cells = self.spec.cells
        done = ResilientExecutor(checkpoint=self.checkpoint()).run_units(
            run_cell,
            [(cell, get_cell_kind(cell.kind)) for cell in cells],
            self._unit_seeds(),
        )
        return {cell.name: payload for cell, payload in zip(cells, done.values)}
