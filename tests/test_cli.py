"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "table2" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fast_flag_and_seed(self, capsys):
        assert main(["ablation_grid", "--fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ablation" in out

    def test_fast_runs_are_seed_deterministic(self, capsys):
        main(["figure5", "--fast", "--seed", "9"])
        first = capsys.readouterr().out
        main(["figure5", "--fast", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestObservabilityFlags:
    def test_trace_flag_writes_a_valid_trace(self, capsys, tmp_path):
        from repro.obs import read_trace, validate_trace_file

        trace = tmp_path / "trace.jsonl"
        assert main(["figure5", "--fast", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        summary = validate_trace_file(trace)
        assert len(summary["span_kinds"]) >= 4
        assert "experiment" in summary["span_kinds"]
        assert summary["ledger_entries"] > 0
        assert summary["total_epsilon"] > 0
        header = read_trace(trace)[0]
        assert header["generator"] == "repro-cli"
        assert header["experiments"] == ["figure5"]

    def test_tracing_does_not_change_the_printed_series(self, capsys, tmp_path):
        main(["figure5", "--fast", "--seed", "4"])
        bare = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        main(["figure5", "--fast", "--seed", "4", "--trace", str(trace)])
        traced = capsys.readouterr().out
        # Identical output modulo the trailing "wrote <path>" line.
        assert traced.startswith(bare)
        assert traced[len(bare):].strip() == f"wrote {trace}"

    def test_metrics_flag_prints_the_summary_report(self, capsys):
        assert main(["figure5", "--fast", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Span time by kind" in out
        assert "Privacy ledger" in out

    def test_resilience_flags_install_the_ambient_config(self, capsys, tmp_path):
        """--max-retries/--resume/--fault-plan reach the experiment scope.

        A plan targeting index 99 injects nothing into table1, so this
        verifies the plumbing end-to-end without a chaos run (the chaos
        round trip is CI's chaos-smoke job and the resilience suites).
        """
        assert (
            main(
                [
                    "table1",
                    "--fault-plan",
                    "transient@99:1",
                    "--max-retries",
                    "2",
                    "--resume",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "Table I" in capsys.readouterr().out

    def test_malformed_fault_plan_exits_2(self, capsys):
        assert main(["table1", "--fault-plan", "explode@oops"]) == 2
        assert "fault" in capsys.readouterr().err

    def test_negative_max_retries_exits_2(self, capsys):
        assert main(["table1", "--max-retries", "-3"]) == 2
        assert "max_retries" in capsys.readouterr().err

    def test_verbose_flag_configures_repro_logging(self):
        import logging

        from repro.cli import configure_logging

        logger = logging.getLogger("repro")
        before_level = logger.level
        before_handlers = list(logger.handlers)
        try:
            configure_logging(2)
            assert logger.level == logging.DEBUG
            n_handlers = len(logger.handlers)
            # Idempotent: a second call must not stack handlers.
            configure_logging(1)
            assert len(logger.handlers) == n_handlers
            assert logger.level == logging.INFO
        finally:
            logger.setLevel(before_level)
            logger.handlers[:] = before_handlers


class TestExitContract:
    """``repro``, ``repro online`` and ``repro campaign`` share one exit table:
    an invalid value or an unusable checkpoint exits 2 with one error line."""

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_invalid_budget_exits_2(self, capsys, budget):
        assert main(["table1", "--budget", budget]) == 2
        assert capsys.readouterr().err.count("error:") == 1

    def test_online_resume_under_another_seed_exits_2(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck.jsonl")
        args = ["online", "--budget", "120", "--stages", "3", "--workers", "60"]
        assert main([*args, "--resume", ckpt, "--seed", "0"]) == 0
        capsys.readouterr()
        assert main([*args, "--seed", "4", "--resume", ckpt]) == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("fault_plan", [None, "transient@99:1"])
    def test_resume_hint_names_fault_plan_only_when_given(
        self, capsys, monkeypatch, tmp_path, fault_plan
    ):
        from repro import cli
        from repro.resilience.faults import SimulatedCrashError

        def crash(name, **kwargs):
            raise SimulatedCrashError(f"injected crash in {name}")

        monkeypatch.setattr(cli, "run_experiment", crash)
        flags = [] if fault_plan is None else ["--fault-plan", fault_plan]
        assert main(["table1", "--resume", str(tmp_path), *flags]) == 3
        err = capsys.readouterr().err
        hints = [line for line in err.splitlines() if line.startswith("hint:")]
        assert len(hints) == 1
        assert f"checkpointed under {tmp_path}" in hints[0]
        assert ("--fault-plan" in hints[0]) == (fault_plan is not None)

    @pytest.mark.parametrize("command", ["resume", "status", "report"])
    def test_corrupted_campaign_checkpoint_exits_2(self, capsys, tmp_path, command):
        import json

        from repro.campaign import CampaignSpec, CellSpec

        spec = CampaignSpec(
            name="one", fast=True, cells=(CellSpec(name="table1", kind="experiment"),)
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_payload()))
        directory = tmp_path / "camp"
        assert main(["campaign", "run", "--spec", str(spec_file), "--dir", str(directory)]) == 0
        checkpoint = directory / "checkpoint.jsonl"
        lines = checkpoint.read_text().splitlines(keepends=True)
        lines[1] = "{}\n"  # a well-formed line that is not a checkpoint record
        checkpoint.write_text("".join(lines))
        capsys.readouterr()
        assert main(["campaign", command, "--dir", str(directory)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "line 2" in err


class TestMetricsFormats:
    def test_openmetrics_format_passes_the_strict_parser(self, capsys):
        from repro.obs import parse_openmetrics

        assert main(["figure5", "--fast", "--metrics-format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        # The exposition document starts after the experiment table.
        start = out.index("# TYPE")
        families = parse_openmetrics(out[start:])
        assert "repro_privacy_epsilon" in families
        assert any(info["type"] == "histogram" for info in families.values())
        assert out.endswith("# EOF\n")

    def test_openmetrics_includes_budget_account_gauges(self, capsys):
        from repro.obs import parse_openmetrics

        assert (
            main(
                [
                    "figure5",
                    "--fast",
                    "--metrics-format",
                    "openmetrics",
                    "--budget",
                    "50000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        families = parse_openmetrics(out[out.index("# TYPE"):])
        samples = families["repro_budget_epsilon_remaining"]["samples"]
        assert samples[0][1]["tenant"] == "default"

    def test_json_format_is_machine_readable(self, capsys):
        import json

        assert main(["figure5", "--fast", "--metrics-format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index('{"'):] if '{"' in out else out[out.index("{"):])
        assert doc["schema"] == "repro-metrics-export/1"
        assert doc["ledger"]["total_epsilon"] > 0

    def test_non_ascii_format_implies_metrics(self, capsys):
        # Without --metrics, a non-ascii format still records and prints.
        assert main(["table1", "--metrics-format", "openmetrics"]) == 0
        assert "# EOF" in capsys.readouterr().out

    def test_ascii_format_without_metrics_prints_no_report(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Span time by kind" not in out
        assert "# EOF" not in out


class TestTraceSubcommand:
    def _write_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["figure5", "--fast", "--trace", str(trace)]) == 0
        return trace

    def test_validate_accepts_a_good_trace(self, capsys, tmp_path):
        trace = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "valid repro-trace/1" in out
        assert str(trace) in out

    def test_validate_rejects_a_tampered_trace(self, capsys, tmp_path):
        trace = self._write_trace(tmp_path)
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n")  # drop the trailer
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 1
        assert "ledger_total" in capsys.readouterr().err

    def test_validate_missing_file_exits_one(self, capsys):
        assert main(["trace", "validate", "/nonexistent/trace.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_renders_the_offline_summary(self, capsys, tmp_path):
        trace = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Span time by kind" in out
        assert "Privacy ledger" in out

    def test_report_validates_first(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "report", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
