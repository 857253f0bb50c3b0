"""Tests for the scripts/bench.py ``compare`` regression gate."""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _doc(entries, suite="auction", smoke=True):
    return {
        "schema": "repro-bench/2",
        "suite": suite,
        "smoke": smoke,
        "environment": {},
        "results": entries,
    }


def _entry(seconds=1.0, exp_mech=0.6, **overrides):
    entry = {
        "name": "batch_runner",
        "backend": "serial",
        "transport": "pickle",
        "n_instances": 8,
        "seed": 7,
        "seconds": seconds,
        "metrics": {
            "span_seconds": {"exp_mech": exp_mech, "greedy_group": 0.3},
            "span_counts": {"exp_mech": 8, "greedy_group": 20},
            "counters": {},
            "ledger_epsilon": 4.0,
            "ledger_entries": 8,
        },
    }
    entry.update(overrides)
    return entry


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestCompareDocs:
    def test_self_compare_has_no_regressions(self):
        doc = _doc([_entry()])
        report = bench.compare_bench_docs(doc, doc, 25.0)
        assert report["schema"] == "repro-bench-compare/1"
        assert report["n_matched_entries"] == 1
        assert report["n_timings_compared"] == 1
        assert report["regressions"] == []
        assert report["comparisons"][0]["delta_pct"] == 0.0

    def test_regression_past_threshold_is_flagged_and_localized(self):
        old = _doc([_entry(seconds=1.0, exp_mech=0.6)])
        new = _doc([_entry(seconds=1.5, exp_mech=1.1)])
        report = bench.compare_bench_docs(old, new, 25.0)
        [reg] = report["regressions"]
        assert reg["field"] == "seconds"
        assert reg["delta_pct"] == pytest.approx(50.0)
        # The phase breakdown points at exp_mech, not greedy_group.
        assert reg["phases"][0]["phase"] == "exp_mech"
        assert reg["phases"][0]["delta_seconds"] == pytest.approx(0.5)

    def test_speedup_within_threshold_passes(self):
        old = _doc([_entry(seconds=1.0)])
        new = _doc([_entry(seconds=1.1)])
        assert bench.compare_bench_docs(old, new, 25.0)["regressions"] == []
        faster = _doc([_entry(seconds=0.2)])
        assert bench.compare_bench_docs(old, faster, 25.0)["regressions"] == []

    def test_entries_match_on_name_and_shape(self):
        old = _doc([_entry(backend="serial"), _entry(backend="process", seconds=2.0)])
        new = _doc([_entry(backend="serial", seconds=10.0)])
        report = bench.compare_bench_docs(old, new, 25.0)
        assert report["n_matched_entries"] == 1
        assert report["n_old_only"] == 1
        assert report["n_new_only"] == 0
        # Only the matching serial entry is compared (and regresses).
        assert [r["entry"]["backend"] for r in report["regressions"]] == ["serial"]

    def test_all_shared_timing_fields_are_compared(self):
        entry_extra = _entry()
        entry_extra["vectorized_seconds"] = 0.2
        entry_extra["reference_seconds"] = 2.0
        doc = _doc([entry_extra])
        report = bench.compare_bench_docs(doc, doc, 25.0)
        fields = {c["field"] for c in report["comparisons"]}
        assert fields == {"seconds", "vectorized_seconds", "reference_seconds"}

    def test_v1_entries_without_metrics_localize_to_nothing(self):
        old_entry = _entry(seconds=1.0)
        new_entry = _entry(seconds=2.0)
        del old_entry["metrics"], new_entry["metrics"]
        report = bench.compare_bench_docs(_doc([old_entry]), _doc([new_entry]), 25.0)
        [reg] = report["regressions"]
        assert reg["phases"] == []


class TestCompareMain:
    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", _doc([_entry()]))
        assert bench.compare_main([str(path), str(path)]) == 0
        assert "no timing regressed" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _doc([_entry(seconds=1.0)]))
        new = _write(
            tmp_path, "new.json", _doc([_entry(seconds=1.6, exp_mech=1.2)])
        )
        assert (
            bench.compare_main(
                [str(old), str(new), "--max-regression", "25", "--report",
                 str(tmp_path / "report.json")]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "exp_mech" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "repro-bench-compare/1"
        assert len(report["regressions"]) == 1

    def test_regression_at_exactly_the_threshold_passes(self, tmp_path):
        old = _write(tmp_path, "old.json", _doc([_entry(seconds=1.0)]))
        new = _write(tmp_path, "new.json", _doc([_entry(seconds=1.25)]))
        assert bench.compare_main([str(old), str(new), "--max-regression", "25"]) == 0

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        good = _write(tmp_path, "a.json", _doc([_entry()]))
        assert bench.compare_main([str(tmp_path / "missing.json"), str(good)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        good = _write(tmp_path, "a.json", _doc([_entry()]))
        assert bench.compare_main([str(bad), str(good)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_exits_two(self, tmp_path, capsys):
        wrong = _write(tmp_path, "wrong.json", {"schema": "other/1", "results": []})
        good = _write(tmp_path, "a.json", _doc([_entry()]))
        assert bench.compare_main([str(wrong), str(good)]) == 2
        assert "repro-bench" in capsys.readouterr().err

    def test_disjoint_suites_exit_two(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", _doc([_entry()]))
        b = _write(
            tmp_path, "b.json", _doc([_entry(name="price_pmf")], suite="greedy")
        )
        assert bench.compare_main([str(a), str(b)]) == 2
        assert "no matching entries" in capsys.readouterr().err

    def test_new_only_scenario_in_same_suite_exits_zero(self, tmp_path, capsys):
        """A freshly landed scenario has no baseline — that is not a failure."""
        old = _write(tmp_path, "old.json", _doc([_entry()]))
        new = _write(
            tmp_path,
            "new.json",
            _doc([_entry(), _entry(name="online_throughput", n_instances=1)]),
        )
        assert bench.compare_main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "no timing regressed" in out

    def test_all_new_entries_in_same_suite_exit_zero_with_note(
        self, tmp_path, capsys
    ):
        """First landing of a suite's only scenario: nothing to compare yet."""
        old = _write(tmp_path, "old.json", _doc([_entry()]))
        new = _write(
            tmp_path,
            "new.json",
            _doc([_entry(name="online_throughput", n_instances=1)]),
        )
        assert bench.compare_main([str(old), str(new)]) == 0
        assert "nothing to compare yet" in capsys.readouterr().out

    def test_all_new_entries_still_fail_across_suites(self, tmp_path, capsys):
        """The new-only tolerance must not mask comparing the wrong files."""
        a = _write(tmp_path, "a.json", _doc([_entry()]))
        b = _write(
            tmp_path,
            "b.json",
            _doc([_entry(name="online_throughput")], suite="greedy"),
        )
        assert bench.compare_main([str(a), str(b)]) == 2
        assert "no matching entries" in capsys.readouterr().err

    def test_negative_threshold_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", _doc([_entry()]))
        assert (
            bench.compare_main([str(path), str(path), "--max-regression", "-5"]) == 2
        )

    def test_main_dispatches_the_subcommand(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", _doc([_entry()]))
        assert bench.main(["compare", str(path), str(path)]) == 0


class TestCommittedBaselines:
    """The committed BENCH_*.json stay loadable and self-comparable."""

    @pytest.mark.parametrize("name", ["BENCH_greedy.json", "BENCH_auction.json"])
    def test_committed_doc_self_compares_clean(self, name):
        path = _BENCH_PATH.parents[1] / name
        if not path.exists():
            pytest.skip(f"{name} not committed")
        doc = bench.load_bench_doc(path)
        report = bench.compare_bench_docs(doc, doc, 25.0)
        assert report["n_timings_compared"] > 0
        assert report["regressions"] == []

    def test_auction_baseline_covers_campaign_and_greedy_reuse(self):
        path = _BENCH_PATH.parents[1] / "BENCH_auction.json"
        if not path.exists():
            pytest.skip("BENCH_auction.json not committed")
        results = bench.load_bench_doc(path)["results"]
        names = {entry["name"] for entry in results}
        # The campaign-smoke CI gate compares against this entry.
        assert "campaign_throughput" in names
        price_pmf = [entry for entry in results if entry["name"] == "price_pmf"]
        assert price_pmf
        for entry in price_pmf:
            assert entry["greedy_reused_steps"] > 0
            assert entry["metrics"]["counters"]["greedy.reused_steps"] == entry["greedy_reused_steps"]
