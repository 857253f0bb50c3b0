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
resumed series are bit-identical to an uninterrupted run.

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
admission policy (``refuse`` stops the run, ``degrade`` falls back to
the baseline mechanism).  The ``audit`` pseudo-experiment renders the
per-account audit report of an existing journal.

``repro <experiment>``, ``repro campaign`` and ``repro online`` share one
exit-code table; a failure prints one ``error:`` line, and a ``hint:``
line for codes 3 and 4::

    0  success
    2  invalid arguments, spec or checkpoint (ValueError, CheckpointError)
    3  a unit failed for good or an injected fault fired (resume hint)
    4  a privacy budget is exhausted under --on-exhausted refuse

``repro trace`` exits 1 on an invalid or unreadable trace.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence

from repro.exceptions import BudgetExceededError, CheckpointError, InstanceExecutionError
from repro.experiments import EXPERIMENTS
from repro.resilience import FaultInjectedError

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


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the run-policy flags that :func:`_run_policy` installs."""
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help=(
            "retry transient unit failures (instances, sweep points, campaign "
            "cells) up to N times on a deterministic backoff schedule; retries "
            "reuse the unit's seed, so recovered results are bit-identical"
        ),
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help=(
            "inject seeded faults for chaos testing, e.g. 'crash@2,transient@5:2' "
            "(kinds: crash, timeout, transient, poison; see docs/RESILIENCE.md)"
        ),
    )
    parser.add_argument(
        "--budget", type=float, default=None, metavar="EPS",
        help=(
            "per-tenant privacy budget (a campaign cell is its own tenant): "
            "admission stops a tenant whose ε-consuming draws would exceed EPS "
            "(see docs/PRIVACY_BUDGET.md)"
        ),
    )
    parser.add_argument(
        "--budget-store", default=None, metavar="PATH",
        help=(
            "durable append-only JSON-lines budget journal; reopening the same "
            "PATH resumes its accounts (required by the 'audit' pseudo-experiment)"
        ),
    )
    parser.add_argument(
        "--on-exhausted", choices=("refuse", "degrade"), default="refuse",
        help=(
            "admission policy for an exhausted tenant: 'refuse' exits 4, "
            "'degrade' serves the baseline mechanism instead (default: refuse)"
        ),
    )


@contextmanager
def _run_policy(
    args: argparse.Namespace, *, limit: float | None, checkpoint_dir: str | None = None
) -> Iterator:
    """Install the run policy that ``args`` asks for; yields the budget store.

    Builds the :class:`~repro.resilience.ResilienceConfig` (retry policy,
    fault plan, ``checkpoint_dir``) and, when ``--budget-store`` or
    ``limit`` is set, a durable or an in-memory budget store, then enters
    the store, its ``use_budget_store`` scope and ``use_resilience``.  The
    store is ``None`` when neither is set.  ``repro online`` declares no
    ``--max-retries`` or ``--budget-store`` and passes ``--privacy-limit``
    as ``limit``.  An invalid value raises before anything is entered.
    """
    from repro.privacy.budget import InMemoryBudgetStore, JsonlBudgetStore, use_budget_store
    from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy, use_resilience

    max_retries = getattr(args, "max_retries", None)
    config = ResilienceConfig(
        retry=None if max_retries is None else RetryPolicy(max_retries=max_retries),
        fault_plan=None if args.fault_plan is None else FaultPlan.parse(args.fault_plan),
        checkpoint_dir=checkpoint_dir,
    )
    path = getattr(args, "budget_store", None)
    with ExitStack() as stack:
        store = None
        if path is not None:
            store = stack.enter_context(JsonlBudgetStore(path, limit=limit))
        elif limit is not None:
            store = InMemoryBudgetStore(limit=limit)
        if store is not None:
            stack.enter_context(use_budget_store(store, on_exhausted=args.on_exhausted))
        stack.enter_context(use_resilience(config))
        yield store


#: What a command catches around its run; :func:`_exit_code` maps each to
#: its exit code.
_FAILURES = (
    ValueError,
    CheckpointError,
    InstanceExecutionError,
    FaultInjectedError,
    BudgetExceededError,
)


def _exit_code(
    exc: BaseException, *, limit_flag: str = "--budget", resume: str | None = None
) -> int:
    """Report one of :data:`_FAILURES` on stderr and return its exit code.

    4 for an exhausted privacy budget, raw or as a failed unit's cause,
    with a hint naming ``limit_flag``; 3 for a failed unit or an injected
    fault, with the ``resume`` hint when there is one; 2 otherwise
    (invalid arguments, spec or checkpoint).
    """
    print(f"error: {exc}", file=sys.stderr)
    cause = exc.cause if isinstance(exc, InstanceExecutionError) else exc
    if isinstance(cause, BudgetExceededError):
        print(
            f"hint: the privacy budget is exhausted; raise {limit_flag} or use "
            "--on-exhausted degrade",
            file=sys.stderr,
        )
        return 4
    if isinstance(exc, (InstanceExecutionError, FaultInjectedError)):
        if resume is not None:
            print(f"hint: {resume}", file=sys.stderr)
        return 3
    return 2


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
    _add_policy_flags(parser)
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
    Exit codes follow the module's table; ``--privacy-limit`` is the
    limit a code-4 hint names.
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

    from repro.mechanisms.online import (
        DPOnlineThresholdMechanism,
        OnlineThresholdMechanism,
        run_checkpointed,
    )
    from repro.workloads import OnlineArrivalStream, generate_instance
    from repro.workloads.streams import ONLINE_SETTING

    try:
        instance, _pool = generate_instance(
            ONLINE_SETTING.with_population(n_workers=args.workers, n_tasks=args.tasks),
            seed=args.seed,
        )
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
        with _run_policy(args, limit=args.privacy_limit):
            if args.resume is not None:
                outcome = run_checkpointed(mechanism, stream, args.resume, seed=args.seed)
            else:
                outcome = mechanism.run(stream, seed=args.seed)
    except _FAILURES as exc:
        return _exit_code(
            exc,
            limit_flag="--privacy-limit",
            resume=None
            if args.resume is None
            else (
                f"stages completed so far are checkpointed in {args.resume}; "
                "re-run the same command to resume"
            ),
        )

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
    ``report.json`` into the campaign directory.  Exit codes follow the
    module's table; a spec that cannot be read or parsed exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run, resume, and report declarative experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
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
    resume_cmd = sub.add_parser(
        "resume", help="continue the pinned campaign from its checkpoint"
    )
    status_cmd = sub.add_parser("status", help="per-cell progress of a campaign")
    report_cmd = sub.add_parser(
        "report", help="render the cross-cell report from completed cells"
    )
    report_cmd.add_argument(
        "--json", action="store_true",
        help="emit the repro-campaign/1 JSON document instead of ASCII",
    )
    for cmd in (run_cmd, resume_cmd, status_cmd, report_cmd):
        cmd.add_argument(
            "--dir", required=True, metavar="DIR",
            help="campaign directory (spec pin, checkpoint, per-cell artifacts)",
        )
    for cmd in (run_cmd, resume_cmd):
        _add_policy_flags(cmd)

    args = parser.parse_args(argv)

    import json
    from pathlib import Path

    from repro.campaign import (
        CampaignRunner,
        CampaignSpec,
        build_preset,
        build_report,
        render_report,
        report_json,
    )

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = CampaignRunner(spec, directory)
    try:
        if args.command == "status":
            entries = runner.status()
            width = max(len(entry["cell"]) for entry in entries)
            for entry in entries:
                print(
                    f"{entry['cell']:<{width}}  {entry['status']:<7}  "
                    f"kind={entry['kind']} tenant={entry['tenant']}"
                )
            done = sum(entry["status"] == "done" for entry in entries)
            print(f"{done}/{spec.n_cells} cells done")
            return 0
        if args.command == "report":
            doc = build_report(spec, runner.payloads())
            if args.json:
                sys.stdout.write(report_json(doc))
            else:
                print(render_report(doc))
            return 0
        with _run_policy(args, limit=args.budget):
            payloads = runner.run()
    except _FAILURES as exc:
        return _exit_code(
            exc,
            resume=(
                f"completed cells are checkpointed in {directory}; run "
                f"'repro campaign resume --dir {directory}' to continue"
            ),
        )

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
        from repro.privacy.budget import JsonlBudgetStore, render_audit_report

        if args.budget_store is None:
            print("error: 'audit' requires --budget-store PATH", file=sys.stderr)
            return 2
        try:
            with JsonlBudgetStore.open_for_audit(args.budget_store) as store:
                print(render_audit_report(store))
        except _FAILURES as exc:
            return _exit_code(exc)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.output is not None and len(names) != 1:
        print("error: --output requires a single experiment", file=sys.stderr)
        return 2
    from repro.engine import SweepEngine, current_engine, use_engine
    from repro.experiments.export import render
    from repro.obs import NULL_RECORDER, MetricsRecorder, use_recorder
    from repro.privacy.budget import render_audit_report

    # A non-ascii --metrics-format implies metrics recording: asking for
    # an OpenMetrics/JSON exposition without --metrics would otherwise
    # silently print an empty document.
    want_metrics = args.metrics or args.metrics_format != "ascii"
    recorder = (
        MetricsRecorder() if (args.trace is not None or want_metrics) else NULL_RECORDER
    )
    # --no-plan-cache installs an ambient pass-through engine; every
    # scoped_engine() inside the experiments clones its policy, so no
    # sweep plan is cached anywhere in the run.
    engine = SweepEngine(cache=False) if args.no_plan_cache else current_engine()
    try:
        with (
            _run_policy(args, limit=args.budget, checkpoint_dir=args.resume) as budget_store,
            use_recorder(recorder),
            use_engine(engine),
        ):
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
    except _FAILURES as exc:
        return _exit_code(
            exc,
            resume=None
            if args.resume is None
            else (
                f"completed work is checkpointed under {args.resume}; "
                "re-run the same command to resume"
            ),
        )
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
