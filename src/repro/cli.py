"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro figure1            # full-scale Figure 1 series
    python -m repro table2 --fast      # CI-sized Table II
    python -m repro all --fast         # everything, quickly
    python -m repro list               # available experiments

Each experiment prints the numeric series the corresponding paper
artifact plots; EXPERIMENTS.md records a reference run.

Observability (see docs/OBSERVABILITY.md)::

    python -m repro figure5 --fast --trace trace.jsonl   # JSON-lines trace
    python -m repro figure5 --fast --metrics             # ASCII summary
    python -m repro figure5 --fast --metrics-format openmetrics  # scrapeable
    python -m repro trace validate trace.jsonl           # schema check
    python -m repro trace report trace.jsonl             # offline summary
    python -m repro figure5 --fast -vv                   # debug logging

Streaming mechanisms (see docs/USAGE.md §Online)::

    python -m repro online --budget 120 --stages 4       # streaming auction
    python -m repro online --budget 120 --dp 0.9         # ε-DP calibration
    python -m repro online --budget 120 --resume ck.jsonl  # kill-and-resume

Campaigns (see docs/USAGE.md §Campaigns)::

    python -m repro experiments --list                   # registry + summaries
    python -m repro campaign run --preset smoke --dir camp/
    python -m repro campaign status --dir camp/          # per-cell progress
    python -m repro campaign resume --dir camp/          # continue after a kill
    python -m repro campaign report --dir camp/ --json   # repro-campaign/1 doc

``--trace``/``--metrics`` install a :class:`repro.obs.MetricsRecorder`
around the experiment runs; instrumentation is outcome-invariant, so the
printed series are bit-identical with and without it.

Resilience (see docs/RESILIENCE.md)::

    python -m repro figure4 --fast --max-retries 3      # retry transient failures
    python -m repro figure4 --fast --resume ckpt/       # checkpoint + resume sweeps
    python -m repro figure4 --fast --fault-plan transient@0:1 --max-retries 2

``--max-retries``/``--resume``/``--fault-plan`` install an ambient
:class:`repro.resilience.ResilienceConfig` around the experiment runs.
Retries and resumes replay each unit's original seed, so recovered and
resumed series are bit-identical to an uninterrupted run; a permanent
instance failure exits with code 3.

Performance (see docs/USAGE.md §Sharing the price sweep)::

    python -m repro figure5 --fast --no-plan-cache   # disable plan sharing

``--no-plan-cache`` installs an ambient pass-through
:class:`repro.engine.SweepEngine`, so every mechanism recomputes its
price sweep; the printed series are bit-identical either way.

Privacy budget (see docs/PRIVACY_BUDGET.md)::

    python -m repro figure5 --fast --budget 5.0                  # per-tenant ε limit
    python -m repro figure5 --fast --budget 5.0 --on-exhausted degrade
    python -m repro figure5 --fast --budget 5.0 --budget-store budget.jsonl
    python -m repro audit --budget-store budget.jsonl            # cross-run audit

``--budget``/``--budget-store`` install an ambient
:class:`repro.privacy.budget.BudgetStore` (durable when a store path is
given) charged by every ε-consuming draw; ``--on-exhausted`` picks the
admission policy (``refuse`` exits with code 4, ``degrade`` falls back
to the baseline mechanism).  The ``audit`` pseudo-experiment renders the
per-account audit report of an existing journal.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
from typing import Sequence

from repro.experiments import EXPERIMENTS

__all__ = ["main", "run_experiment", "configure_logging"]


def configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` root logger.

    ``verbosity`` counts ``-v`` flags: 0 leaves the library's default
    :class:`logging.NullHandler` alone, 1 enables INFO, 2+ enables DEBUG
    (which includes recorder flush/merge messages from ``repro.obs``).
    Idempotent: repeated calls reconfigure the level instead of stacking
    handlers.
    """
    if verbosity <= 0:
        return
    logger = logging.getLogger("repro")
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    for handler in logger.handlers:
        if isinstance(handler, logging.StreamHandler) and not isinstance(
            handler, logging.NullHandler
        ):
            handler.setLevel(level)
            break
    else:
        handler = logging.StreamHandler(sys.stderr)
        handler.setLevel(level)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(level)


def run_experiment(name: str, *, fast: bool = False, seed: int = 0):
    """Import and run one experiment module by registry name."""
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.run(fast=fast, seed=seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Enabling Privacy-Preserving "
            "Incentives for Mobile Crowd Sensing Systems' (ICDCS 2016)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name, 'all', 'report' (writes reproduction_report.md), "
            "'audit' (renders a budget journal's audit report), or 'list'"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="run a shrunken sweep (seconds instead of minutes/hours)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format for experiment results (default: table)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the result there instead of stdout (single experiment only)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append an ASCII chart after each chartable result (table format only)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr (-v: INFO, -vv: DEBUG, incl. recorder flushes)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record per-phase spans/metrics and write a JSON-lines trace there",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the ASCII metrics/ledger summary after the experiments",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("ascii", "openmetrics", "json"),
        default="ascii",
        help=(
            "metrics output format: 'ascii' (human report, default), "
            "'openmetrics' (scrapeable text exposition incl. ledger-ε and "
            "budget-account gauges), or 'json' (structured export); a "
            "non-ascii format implies --metrics"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry transient instance/point failures up to N times on a "
            "deterministic exponential-backoff schedule (retries reuse the "
            "unit's original seed, so recovered results are bit-identical)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "checkpoint sweep progress into DIR and skip work already "
            "recorded there, so a killed run resumes bit-identically"
        ),
    )
    parser.add_argument(
        "--no-plan-cache",
        action="store_true",
        help=(
            "disable the shared sweep-plan cache (repro.engine.SweepEngine); "
            "every mechanism recomputes its price sweep from scratch — "
            "results are bit-identical, only slower (see docs/USAGE.md)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=(
            "inject seeded faults for chaos testing, e.g. "
            "'crash@2,transient@5:2' (kinds: crash, timeout, transient, "
            "poison; see docs/RESILIENCE.md)"
        ),
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="EPS",
        help=(
            "per-tenant privacy budget: every ε-consuming draw charges an "
            "ambient budget store and admission stops a tenant that would "
            "exceed EPS (see docs/PRIVACY_BUDGET.md)"
        ),
    )
    parser.add_argument(
        "--budget-store",
        default=None,
        metavar="PATH",
        help=(
            "durable append-only JSON-lines budget journal; reopening the "
            "same PATH resumes the accounts across runs (required by the "
            "'audit' pseudo-experiment)"
        ),
    )
    parser.add_argument(
        "--on-exhausted",
        choices=("refuse", "degrade"),
        default="refuse",
        help=(
            "admission policy for an exhausted tenant: 'refuse' aborts with "
            "exit code 4, 'degrade' serves the baseline mechanism instead "
            "(outcomes tagged degraded; default: refuse)"
        ),
    )
    return parser


def _trace_main(argv: Sequence[str]) -> int:
    """``repro trace {validate,report} PATH`` — offline trace tooling.

    ``validate`` checks a ``repro-trace/1`` file against the schema
    (exit 1 on any violation); ``report`` validates and then renders the
    same ASCII summary the live recorder produces, reconstructed purely
    from the file.
    """
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Validate or summarize a repro-trace/1 JSON-lines file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, blurb in (
        ("validate", "check the trace against the repro-trace/1 schema"),
        ("report", "validate, then print the ASCII summary report"),
    ):
        cmd = sub.add_parser(command, help=blurb)
        cmd.add_argument("path", help="path to the JSON-lines trace file")
    args = parser.parse_args(argv)

    from repro.exceptions import ValidationError
    from repro.obs import read_trace, render_trace_report, validate_trace_file

    try:
        summary = validate_trace_file(args.path)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(
            f"{args.path}: valid repro-trace/1 "
            f"({summary['n_spans']} span(s), "
            f"{summary['ledger_entries']} ledger entrie(s), "
            f"composed ε = {summary['total_epsilon']:g})"
        )
        return 0
    try:
        print(render_trace_report(read_trace(args.path)))
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; swap stdout for devnull so
        # the interpreter's exit-time flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _online_main(argv: Sequence[str]) -> int:
    """``repro online`` — run a streaming mechanism over a seeded arrival stream.

    Generates a Table-I-shaped market, streams it through the stage-based
    online threshold mechanism (optionally the ε-DP variant), and prints
    the committed outcome.  ``--resume PATH`` checkpoints stage-boundary
    state into PATH and resumes bit-identically after a kill;
    ``--fault-plan`` injects stage-indexed faults for chaos drills.
    Exit codes: 0 ok, 2 invalid arguments, 3 injected fault (re-run with
    the same ``--resume`` to recover), 4 privacy budget exhausted.
    """
    parser = argparse.ArgumentParser(
        prog="repro online",
        description=(
            "Run the stage-based online (streaming) threshold mechanism "
            "over a seeded worker arrival stream."
        ),
    )
    parser.add_argument(
        "--budget", type=float, required=True, metavar="B",
        help="hard payment budget, never exceeded on any stream prefix",
    )
    parser.add_argument(
        "--stages", type=int, default=4, metavar="S",
        help="number of doubling-allocation acceptance stages (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=200, help="market size (default 200)"
    )
    parser.add_argument(
        "--tasks", type=int, default=8, help="number of sensing tasks (default 8)"
    )
    parser.add_argument(
        "--order",
        choices=("uniform", "as_given", "adversarial", "bursty"),
        default="uniform",
        help="arrival order model (default uniform random permutation)",
    )
    parser.add_argument(
        "--churn", type=float, default=0.0, metavar="P",
        help="probability each worker drops out before arriving (default 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed for the market, the arrivals, and the DP draws",
    )
    parser.add_argument(
        "--dp", type=float, default=None, metavar="EPS",
        help="use the ε-DP calibration variant with total budget EPS",
    )
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help=(
            "checkpoint stage-boundary state into PATH; a rerun resumes "
            "from the last durable stage, bit-identically"
        ),
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject stage-indexed faults, e.g. 'crash@2' (chaos testing)",
    )
    parser.add_argument(
        "--privacy-limit", type=float, default=None, metavar="EPS",
        help="admission-control the DP draws against a per-tenant ε limit",
    )
    parser.add_argument(
        "--on-exhausted",
        choices=("refuse", "degrade"),
        default="refuse",
        help=(
            "policy when --privacy-limit is exhausted: 'refuse' exits 4, "
            "'degrade' finishes with non-private calibration (default refuse)"
        ),
    )
    args = parser.parse_args(argv)

    from contextlib import ExitStack, nullcontext

    from repro.exceptions import BudgetExceededError
    from repro.mechanisms.online import (
        DPOnlineThresholdMechanism,
        OnlineThresholdMechanism,
        run_checkpointed,
    )
    from repro.privacy.budget import InMemoryBudgetStore, use_budget_store
    from repro.resilience import FaultPlan, ResilienceConfig, use_resilience
    from repro.resilience.faults import FaultInjectedError
    from repro.workloads import OnlineArrivalStream, generate_instance
    from repro.workloads.settings import SimulationSetting

    try:
        setting = SimulationSetting(
            name="online-cli",
            epsilon=args.dp if args.dp is not None else 0.5,
            c_min=1.0,
            c_max=10.0,
            bundle_size=(3, 5),
            skill_range=(0.3, 0.95),
            error_threshold_range=(0.3, 0.5),
            n_workers=args.workers,
            n_tasks=args.tasks,
            price_range=(4.0, 10.0),
            grid_step=0.5,
        )
        instance, _pool = generate_instance(setting, seed=args.seed)
        stream = OnlineArrivalStream(
            instance, order=args.order, seed=args.seed, churn=args.churn
        )
        if args.dp is not None:
            mechanism = DPOnlineThresholdMechanism(
                budget=args.budget, epsilon=args.dp, n_stages=args.stages
            )
        else:
            mechanism = OnlineThresholdMechanism(
                budget=args.budget, n_stages=args.stages
            )
        fault_plan = (
            None if args.fault_plan is None else FaultPlan.parse(args.fault_plan)
        )
        budget_scope = (
            nullcontext()
            if args.privacy_limit is None
            else use_budget_store(
                InMemoryBudgetStore(limit=args.privacy_limit),
                on_exhausted=args.on_exhausted,
            )
        )
        with ExitStack() as stack:
            stack.enter_context(budget_scope)
            stack.enter_context(use_resilience(ResilienceConfig(fault_plan=fault_plan)))
            if args.resume is not None:
                outcome = run_checkpointed(mechanism, stream, args.resume, seed=args.seed)
            else:
                outcome = mechanism.run(stream, seed=args.seed)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: raise --privacy-limit or use --on-exhausted degrade to "
            "finish with non-private calibration",
            file=sys.stderr,
        )
        return 4
    except FaultInjectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.resume is not None:
            print(
                f"hint: stages completed so far are checkpointed in "
                f"{args.resume}; re-run the same command to resume",
                file=sys.stderr,
            )
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"online[{mechanism.name}] workers={instance.n_workers} "
        f"arrivals={stream.n_arrivals} order={args.order} stages={args.stages}"
    )
    print(
        f"  winners={outcome.n_winners} spent={outcome.spent:.2f} "
        f"budget={outcome.budget:g} value={outcome.value:.3f}"
    )
    thresholds = ", ".join(
        "inf" if t == float("inf") else f"{t:.4f}" for t in outcome.thresholds
    )
    print(f"  thresholds=[{thresholds}]")
    if args.dp is not None:
        print(
            f"  charged_epsilon={outcome.charged_epsilon:g} "
            f"degraded={outcome.degraded}"
        )
    return 0


def _experiments_main(argv: Sequence[str]) -> int:
    """``repro experiments --list`` — the experiment registry, with summaries.

    Unlike the bare ``repro list`` (names only, kept for compatibility),
    this renders each registry entry's one-line summary, so the listing
    is the same source of truth EXPERIMENTS.md and the campaign presets
    are generated from.
    """
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Inspect the experiment registry.",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        required=True,
        help="list every registered experiment with its summary",
    )
    parser.parse_args(argv)

    from repro.experiments import REGISTRY

    width = max(len(spec.name) for spec in REGISTRY)
    for spec in REGISTRY:
        print(f"{spec.name:<{width}}  {spec.artifact}: {spec.summary}")
    return 0


def _campaign_main(argv: Sequence[str]) -> int:
    """``repro campaign {run,resume,status,report}`` — declarative grids.

    ``run`` pins a campaign spec (from ``--preset`` or a ``--spec`` JSON
    file) into ``--dir`` and executes every cell through the resilient
    executor, checkpointing at each cell boundary; ``resume`` re-runs
    against the pinned spec, replaying completed cells from the
    checkpoint; ``status`` lists per-cell progress; ``report`` renders
    the cross-cell comparison (``--json`` for the ``repro-campaign/1``
    document).  A completed run/resume writes ``report.txt`` and
    ``report.json`` into the campaign directory.  Exit codes: 0 ok,
    2 invalid arguments/spec, 3 cell failure (re-run ``resume`` to
    recover), 4 privacy budget exhausted.
    """
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run, resume, and report declarative experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser, *, resilience: bool) -> None:
        cmd.add_argument(
            "--dir", required=True, metavar="DIR",
            help="campaign directory (spec pin, checkpoint, per-cell artifacts)",
        )
        if not resilience:
            return
        cmd.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="retry transient cell failures up to N times",
        )
        cmd.add_argument(
            "--fault-plan", default=None, metavar="SPEC",
            help="inject cell-indexed faults, e.g. 'crash@2' (chaos drills)",
        )
        cmd.add_argument(
            "--budget", type=float, default=None, metavar="EPS",
            help="per-cell privacy budget (each cell charges its own tenant)",
        )
        cmd.add_argument(
            "--budget-store", default=None, metavar="PATH",
            help="durable JSON-lines budget journal shared across cells",
        )
        cmd.add_argument(
            "--on-exhausted", choices=("refuse", "degrade"), default="refuse",
            help="admission policy for an exhausted cell tenant (default refuse)",
        )

    run_cmd = sub.add_parser("run", help="pin a spec and execute the grid")
    group = run_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--preset", default=None,
        help="built-in campaign preset (smoke, paper, zoo)",
    )
    group.add_argument(
        "--spec", default=None, metavar="FILE",
        help="campaign spec JSON file (schema repro-campaign-spec/1)",
    )
    run_cmd.add_argument(
        "--seed", type=int, default=0, help="campaign master seed (default 0)"
    )
    run_cmd.add_argument(
        "--fast", action="store_true", default=None,
        help="CI-sized cells (presets keep their own default when omitted)",
    )
    add_common(run_cmd, resilience=True)

    resume_cmd = sub.add_parser(
        "resume", help="continue the pinned campaign from its checkpoint"
    )
    add_common(resume_cmd, resilience=True)

    status_cmd = sub.add_parser("status", help="per-cell progress of a campaign")
    add_common(status_cmd, resilience=False)

    report_cmd = sub.add_parser(
        "report", help="render the cross-cell report from completed cells"
    )
    report_cmd.add_argument(
        "--json", action="store_true",
        help="emit the repro-campaign/1 JSON document instead of ASCII",
    )
    add_common(report_cmd, resilience=False)

    args = parser.parse_args(argv)

    import json
    from contextlib import ExitStack, nullcontext
    from pathlib import Path

    from repro.campaign import (
        CampaignRunner,
        CampaignSpec,
        build_preset,
        build_report,
        render_report,
        report_json,
    )
    from repro.exceptions import (
        BudgetExceededError,
        CheckpointError,
        InstanceExecutionError,
        ValidationError,
    )
    from repro.privacy.budget import (
        InMemoryBudgetStore,
        JsonlBudgetStore,
        use_budget_store,
    )
    from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy, use_resilience

    directory = Path(args.dir)
    try:
        if args.command == "run":
            if args.preset is not None:
                spec = build_preset(args.preset, seed=args.seed, fast=args.fast)
            else:
                payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
                spec = CampaignSpec.from_payload(payload)
                if args.seed != 0 or args.fast is not None:
                    print(
                        "error: --seed/--fast apply to presets; a spec file "
                        "pins its own seed and fast flag",
                        file=sys.stderr,
                    )
                    return 2
        else:
            spec = CampaignRunner.load_spec(directory)
    except (OSError, ValueError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "status":
        runner = CampaignRunner(spec, directory)
        width = max(len(s["cell"]) for s in runner.status())
        done = 0
        for entry in runner.status():
            done += entry["status"] == "done"
            print(
                f"{entry['cell']:<{width}}  {entry['status']:<7}  "
                f"kind={entry['kind']} tenant={entry['tenant']}"
            )
        print(f"{done}/{spec.n_cells} cells done")
        return 0

    if args.command == "report":
        runner = CampaignRunner(spec, directory)
        doc = build_report(spec, runner.payloads())
        if args.json:
            sys.stdout.write(report_json(doc))
        else:
            print(render_report(doc))
        return 0

    try:
        retry = None
        if args.max_retries is not None:
            retry = RetryPolicy(max_retries=args.max_retries)
        fault_plan = (
            None if args.fault_plan is None else FaultPlan.parse(args.fault_plan)
        )
        budget_store = None
        if args.budget_store is not None:
            budget_store = JsonlBudgetStore(args.budget_store, limit=args.budget)
        elif args.budget is not None:
            budget_store = InMemoryBudgetStore(limit=args.budget)
    except (ValueError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = CampaignRunner(spec, directory)
    budget_scope = (
        nullcontext()
        if budget_store is None
        else use_budget_store(budget_store, on_exhausted=args.on_exhausted)
    )
    try:
        with ExitStack() as stack:
            if isinstance(budget_store, JsonlBudgetStore):
                stack.enter_context(budget_store)
            stack.enter_context(budget_scope)
            stack.enter_context(
                use_resilience(ResilienceConfig(retry=retry, fault_plan=fault_plan))
            )
            payloads = runner.run()
    except InstanceExecutionError as exc:
        if isinstance(exc.cause, BudgetExceededError):
            print(f"error: {exc}", file=sys.stderr)
            print(
                "hint: the cell's privacy budget is exhausted; raise --budget "
                "or use --on-exhausted degrade",
                file=sys.stderr,
            )
            return 4
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: completed cells are checkpointed in {directory}; run "
            f"'repro campaign resume --dir {directory}' to continue",
            file=sys.stderr,
        )
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = build_report(spec, payloads)
    text = render_report(doc)
    (directory / "report.txt").write_text(text + "\n", encoding="utf-8")
    (directory / "report.json").write_text(report_json(doc), encoding="utf-8")
    print(text)
    print(f"\nwrote {directory / 'report.txt'} and {directory / 'report.json'}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "online":
        return _online_main(argv[1:])
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "experiments":
        return _experiments_main(argv[1:])
    args = _build_parser().parse_args(argv)
    configure_logging(args.verbose)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.experiment == "report":
        from repro.experiments.report import write_report

        out = write_report("reproduction_report.md", fast=args.fast, seed=args.seed)
        print(f"wrote {out}")
        return 0

    if args.experiment == "audit":
        from repro.exceptions import CheckpointError
        from repro.privacy.budget import JsonlBudgetStore, render_audit_report

        if args.budget_store is None:
            print("error: 'audit' requires --budget-store PATH", file=sys.stderr)
            return 2
        try:
            with JsonlBudgetStore.open_for_audit(args.budget_store) as store:
                print(render_audit_report(store))
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.output is not None and len(names) != 1:
        print("error: --output requires a single experiment", file=sys.stderr)
        return 2
    from contextlib import ExitStack, nullcontext

    from repro.engine import SweepEngine, current_engine, use_engine
    from repro.exceptions import (
        BudgetExceededError,
        CheckpointError,
        InstanceExecutionError,
    )
    from repro.experiments.export import render
    from repro.obs import NULL_RECORDER, MetricsRecorder, use_recorder
    from repro.privacy.budget import (
        InMemoryBudgetStore,
        JsonlBudgetStore,
        render_audit_report,
        use_budget_store,
    )
    from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy, use_resilience

    # A non-ascii --metrics-format implies metrics recording: asking for
    # an OpenMetrics/JSON exposition without --metrics would otherwise
    # silently print an empty document.
    want_metrics = args.metrics or args.metrics_format != "ascii"
    recorder = (
        MetricsRecorder() if (args.trace is not None or want_metrics) else NULL_RECORDER
    )
    try:
        retry = None
        if args.max_retries is not None:
            retry = RetryPolicy(max_retries=args.max_retries)
        fault_plan = None if args.fault_plan is None else FaultPlan.parse(args.fault_plan)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resilience = ResilienceConfig(
        retry=retry, fault_plan=fault_plan, checkpoint_dir=args.resume
    )
    # --no-plan-cache installs an ambient pass-through engine; every
    # scoped_engine() inside the experiments clones its policy, so no
    # sweep plan is cached anywhere in the run.
    engine = SweepEngine(cache=False) if args.no_plan_cache else current_engine()
    budget_store = None
    try:
        if args.budget_store is not None:
            budget_store = JsonlBudgetStore(args.budget_store, limit=args.budget)
        elif args.budget is not None:
            budget_store = InMemoryBudgetStore(limit=args.budget)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    budget_scope = (
        nullcontext()
        if budget_store is None
        else use_budget_store(budget_store, on_exhausted=args.on_exhausted)
    )
    try:
        with ExitStack() as stack:
            if isinstance(budget_store, JsonlBudgetStore):
                stack.enter_context(budget_store)
            stack.enter_context(use_recorder(recorder))
            stack.enter_context(use_resilience(resilience))
            stack.enter_context(use_engine(engine))
            stack.enter_context(budget_scope)
            for name in names:
                with recorder.span("experiment", name, fast=args.fast, seed=args.seed):
                    result = run_experiment(name, fast=args.fast, seed=args.seed)
                text = render(result, args.format)
                if args.plot and args.format == "table":
                    from repro.experiments.export import plot

                    chart = plot(result)
                    if chart is not None:
                        text += "\n\n" + chart
                if args.output is not None:
                    from pathlib import Path

                    Path(args.output).write_text(text + "\n", encoding="utf-8")
                    print(f"wrote {args.output}")
                else:
                    print(text)
                    print()
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: the privacy budget is exhausted; raise --budget, renew the "
            "journal, or use --on-exhausted degrade to fall back to the "
            "baseline mechanism",
            file=sys.stderr,
        )
        return 4
    except InstanceExecutionError as exc:
        if isinstance(exc.cause, BudgetExceededError):
            print(f"error: {exc}", file=sys.stderr)
            print(
                "hint: the privacy budget is exhausted; raise --budget, renew "
                "the journal, or use --on-exhausted degrade to fall back to "
                "the baseline mechanism",
                file=sys.stderr,
            )
            return 4
        print(f"error: {exc}", file=sys.stderr)
        if args.resume is not None:
            print(
                f"hint: completed work is checkpointed under {args.resume}; "
                "re-run the same command to resume",
                file=sys.stderr,
            )
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if want_metrics:
        if args.metrics_format == "openmetrics":
            from repro.obs import render_openmetrics

            # render_openmetrics already ends with "# EOF\n"; print
            # without adding a second trailing newline so the output is
            # a byte-exact OpenMetrics document.
            sys.stdout.write(render_openmetrics(recorder, budget_store=budget_store))
        elif args.metrics_format == "json":
            import json as _json

            from repro.obs import render_metrics_json

            print(
                _json.dumps(
                    render_metrics_json(recorder, budget_store=budget_store),
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(recorder.report())
            print()
            if budget_store is not None:
                print(render_audit_report(budget_store))
                print()
    if args.trace is not None:
        path = recorder.write_trace(
            args.trace,
            meta={
                "generator": "repro-cli",
                "experiments": names,
                "fast": args.fast,
                "seed": args.seed,
            },
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
