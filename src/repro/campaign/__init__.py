"""Declarative experiment campaigns (grids of cells) with resume.

The paper's evaluation is a grid of (mechanism × workload × scale)
cells; this package makes that grid a first-class, declarative object:

* :class:`~repro.campaign.spec.CampaignSpec` — a named list of
  :class:`~repro.campaign.spec.CellSpec`\\ s, each naming a *cell kind*
  from the typed registry (:mod:`repro.campaign.cells`) plus free-form
  knobs, JSON round-trippable (schema ``repro-campaign-spec/1``).
* :class:`~repro.campaign.runner.CampaignRunner` — executes the grid
  serially through :class:`~repro.resilience.ResilientExecutor` +
  :class:`~repro.resilience.SweepCheckpoint`, so a killed campaign
  resumes bit-identically at every cell boundary; each cell gets its own
  artifact folder (result JSON, metrics snapshot, trace) and its own
  budget tenant under an ambient :mod:`repro.privacy.budget` store.
* :mod:`repro.campaign.report` — the cross-cell comparison report
  (ASCII + JSON, schema ``repro-campaign/1``), rebuilt purely from the
  spec + checkpoint so an interrupted-then-resumed campaign reports
  byte-for-byte what an uninterrupted one does.
* :mod:`repro.campaign.presets` — ready-made campaigns (``smoke``,
  ``paper``, ``zoo``) used by the CLI (``repro campaign run --preset``)
  and CI's kill-and-resume drill.

See docs/USAGE.md ("Campaigns") for the walkthrough and DESIGN.md §12
for the design rationale.
"""

from repro.campaign.artifacts import (
    CELL_RESULT_SCHEMA,
    decode_result,
    encode_result,
    write_cell_artifacts,
)
from repro.campaign.cells import (
    CELL_KINDS,
    CellContext,
    CellKind,
    get_cell_kind,
    register_cell_kind,
)
from repro.campaign.presets import PRESETS, build_preset
from repro.campaign.report import (
    CAMPAIGN_REPORT_SCHEMA,
    build_report,
    render_report,
    report_json,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CAMPAIGN_SPEC_SCHEMA, CampaignSpec, CellSpec
from repro.utils.pool import shared_process_pool, shutdown_shared_pools

__all__ = [
    "CAMPAIGN_SPEC_SCHEMA",
    "CAMPAIGN_REPORT_SCHEMA",
    "CELL_RESULT_SCHEMA",
    "CellSpec",
    "CampaignSpec",
    "CellKind",
    "CellContext",
    "CELL_KINDS",
    "register_cell_kind",
    "get_cell_kind",
    "CampaignRunner",
    "build_report",
    "render_report",
    "report_json",
    "encode_result",
    "decode_result",
    "write_cell_artifacts",
    "PRESETS",
    "build_preset",
    "shared_process_pool",
    "shutdown_shared_pools",
]
