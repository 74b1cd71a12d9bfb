"""Command-line interface."""

import json

import pytest

from repro.cli import main
from repro.logs.format import write_trace
from repro.obs import METRICS_SNAPSHOT
from repro.schema import require_valid, validate


class TestRulesCommand:
    def test_lists_all_rules(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rule0", "rule3", "rule6"):
            assert rule_id in out

    def test_relaxed_flag_shows_filters(self, capsys):
        assert main(["--", "rules"][1:] + ["--relaxed"]) == 0
        out = capsys.readouterr().out
        assert "filter:" in out


class TestSimulateAndCheck:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        code = main(
            ["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "simulated" in capsys.readouterr().out

    def test_check_passes_on_nominal_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        main(["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)])
        capsys.readouterr()
        code = main(["check", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "warp_drive"])

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_duration_is_a_usage_error(self, value, capsys, monkeypatch):
        """Regression: ``0`` simulated the scenario's full 120 s, ``nan``
        and ``-1`` simulated 0 s and exited 0, and ``inf`` never
        returned."""
        from repro.hil.simulator import HilSimulator

        monkeypatch.setattr(HilSimulator, "step", None)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "steady_follow", "--duration", value])
        assert excinfo.value.code == 2
        assert (
            "must be a positive number of seconds, got %s" % value
            in capsys.readouterr().err
        )


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-oracle" in capsys.readouterr().out


class TestOnlineCommand:
    def test_online_streams_and_reports(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        main(["simulate", "steady_follow", "--duration", "12", "--out", str(out_file)])
        capsys.readouterr()
        code = main(["online", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming" in out
        assert "rule0" in out


class TestRulesExport:
    def test_export_and_recheck(self, tmp_path, capsys):
        rules_file = tmp_path / "paper.rules"
        assert main(["rules", "--export", str(rules_file)]) == 0
        assert rules_file.exists()
        trace_file = tmp_path / "t.csv"
        main(["simulate", "steady_follow", "--duration", "10", "--out", str(trace_file)])
        capsys.readouterr()
        assert main(["check", str(trace_file), "--rules", str(rules_file)]) == 0


class TestLintCommand:
    BAD_SPEC = "[rule broken]\nformula = Velocty > 10\n"
    WARN_SPEC = "[rule warned]\nformula = delta(Velocity) < 10\n"

    def test_paper_rules_lint_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "paper rules (strict)" in out
        assert "0 error(s)" in out

    def test_relaxed_paper_rules_lint_clean(self, capsys):
        assert main(["lint", "--relaxed"]) == 0
        assert "paper rules (relaxed)" in capsys.readouterr().out

    def test_error_findings_set_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SL101" in out
        assert "Velocty" in out
        assert "lint failed" in out

    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.rules"
        path.write_text(self.WARN_SPEC, encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SL501" in out

    def test_diagnostics_point_at_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        main(["lint", str(path)])
        assert "%s:1:" % path in capsys.readouterr().out

    def test_json_report_is_schema_valid(self, tmp_path, capsys):
        from repro.analysis import LINT_REPORT

        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        code = main(["lint", str(path), "--format", "json"])
        report = require_valid(
            LINT_REPORT, json.loads(capsys.readouterr().out)
        )
        assert code == 1
        assert report["counts"]["error"] == 1
        assert report["targets"][0]["name"] == str(path)

    def test_multiple_files_aggregate(self, tmp_path, capsys):
        good = tmp_path / "good.rules"
        good.write_text(
            "[rule g]\nformula = Velocity > 10\nsettle = 500ms\n",
            encoding="utf-8",
        )
        bad = tmp_path / "bad.rules"
        bad.write_text(self.BAD_SPEC, encoding="utf-8")
        code = main(["lint", str(good), str(bad), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert len(report["targets"]) == 2

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "mangled.rules"
        path.write_text("formula = x > 0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(path)])
        assert excinfo.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope.rules")])
        assert excinfo.value.code == 2

    def test_no_dbc_disables_signal_checks(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text(self.BAD_SPEC, encoding="utf-8")
        assert main(["lint", str(path), "--no-dbc"]) == 0
        assert "SL101" not in capsys.readouterr().out

    def test_example_rules_files_lint_clean(self, capsys):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        files = sorted(str(p) for p in examples.glob("*.rules"))
        assert len(files) >= 2
        assert main(["lint"] + files) == 0


class TestOnlineCustomRules:
    def test_online_with_custom_rules_file(self, tmp_path, capsys):
        rules_file = tmp_path / "paper.rules"
        assert main(["rules", "--export", str(rules_file)]) == 0
        trace_file = tmp_path / "t.csv"
        main(["simulate", "steady_follow", "--duration", "10",
              "--out", str(trace_file)])
        capsys.readouterr()
        code = main(["online", str(trace_file), "--rules", str(rules_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming" in out


#: Short campaign knobs so table1 smoke runs stay fast.
FAST_TABLE1 = ["--hold", "0.5", "--gap", "0.25", "--settle", "3"]


class TestTable1Command:
    def test_limit_and_out_write_table(self, tmp_path, capsys):
        out_file = tmp_path / "table1.txt"
        code = main(
            ["table1", "--seed", "11", "--limit", "2", "--out", str(out_file)]
            + FAST_TABLE1
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Random Velocity" in out
        assert "shape checks" in out
        text = out_file.read_text()
        assert "FAULT INJECTION RESULTS" in text
        assert "Random TargetRange" in text

    def test_parallel_matches_sequential_output(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        par_file = tmp_path / "par.txt"
        argv = ["table1", "--seed", "11", "--limit", "3"] + FAST_TABLE1
        assert main(argv + ["--out", str(seq_file)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(par_file)]) == 0
        capsys.readouterr()
        assert par_file.read_bytes() == seq_file.read_bytes()

    def test_strict_fails_on_rejected_injections(self, capsys):
        # Random SelHeadway draws out-of-range enum values that the HIL
        # profile vetoes, so a strict run over the single-signal rows
        # must exit nonzero and say why.
        argv = ["table1", "--seed", "11", "--quick", "--limit", "8",
                "--strict"] + FAST_TABLE1
        assert main(argv) == 1
        assert "strict mode" in capsys.readouterr().out

    def test_vehicle_profile_admits_enums_so_strict_passes(self, capsys):
        argv = ["table1", "--seed", "11", "--quick", "--limit", "8",
                "--strict", "--profile", "vehicle"] + FAST_TABLE1
        assert main(argv) == 0
        capsys.readouterr()


class TestStreamDiscipline:
    """Progress goes to stderr; piped stdout carries only the results."""

    def test_table1_progress_on_stderr_table_on_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "t.txt"
        argv = ["table1", "--seed", "11", "--limit", "2",
                "--out", str(out_file)] + FAST_TABLE1
        assert main(argv) == 0
        captured = capsys.readouterr()
        # Progress rows and the file notice stream to stderr...
        assert "Random Velocity" in captured.err
        assert "table written to" in captured.err
        # ...while stdout is exactly the table + shape summary.
        assert "table written to" not in captured.out
        assert captured.out.strip() == out_file.read_text().strip()

    def test_reproduce_progress_on_stderr(self, capsys, monkeypatch):
        import repro.testing.reproducer as reproducer

        # Stub the heavy campaign: this test is about the streams only.
        def fake_reproduce(seed, quick, progress, jobs):
            progress("table1", "Random Velocity")

            class Result:
                ok = True

                def report(self):
                    return "REPRODUCTION REPORT (stub)"

            return Result()

        monkeypatch.setattr(reproducer, "reproduce", fake_reproduce)
        assert main(["reproduce", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "[table1] Random Velocity" in captured.err
        assert "[table1]" not in captured.out
        assert "REPRODUCTION REPORT" in captured.out


class TestMetricsOut:
    def test_table1_metrics_snapshot_is_schema_valid(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        argv = ["table1", "--seed", "11", "--limit", "2",
                "--metrics-out", str(metrics_file)] + FAST_TABLE1
        assert main(argv) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(METRICS_SNAPSHOT, snapshot) == []
        assert snapshot["counters"]["campaign.tests"] == 2
        assert any(
            name.startswith("monitor.rule.") for name in snapshot["histograms"]
        )
        # The human summary goes to stderr, never stdout.
        assert "campaign.tests" in captured.err
        assert "campaign.tests" not in captured.out

    def test_parallel_metrics_match_and_letters_byte_identical(
        self, tmp_path, capsys
    ):
        """The acceptance criterion: a parallel metrics-on run emits a
        schema-valid snapshot merged across workers while its table
        stays byte-identical to a metrics-off sequential run."""
        plain_file = tmp_path / "plain.txt"
        metrics_table = tmp_path / "metered.txt"
        metrics_file = tmp_path / "metrics.json"
        argv = ["table1", "--seed", "11", "--limit", "3"] + FAST_TABLE1
        assert main(argv + ["--out", str(plain_file)]) == 0
        assert main(
            argv
            + ["--jobs", "4", "--out", str(metrics_table),
               "--metrics-out", str(metrics_file)]
        ) == 0
        capsys.readouterr()
        assert metrics_table.read_bytes() == plain_file.read_bytes()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(METRICS_SNAPSHOT, snapshot) == []
        assert snapshot["counters"]["campaign.tests"] == 3
        assert snapshot["histograms"]["campaign.test.seconds"]["count"] == 3
        for phase in ("sim", "inject", "check"):
            assert "campaign.%s.seconds" % phase in snapshot["histograms"]

    def test_check_metrics_out(self, tmp_path, capsys):
        trace_file = tmp_path / "t.csv"
        metrics_file = tmp_path / "m.json"
        main(["simulate", "steady_follow", "--duration", "12",
              "--out", str(trace_file)])
        capsys.readouterr()
        assert main(
            ["check", str(trace_file), "--metrics-out", str(metrics_file)]
        ) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(metrics_file.read_text())
        assert validate(METRICS_SNAPSHOT, snapshot) == []
        assert snapshot["counters"]["monitor.checks"] == 1
        assert snapshot["counters"]["logs.read.blocks"] >= 1
        assert snapshot["counters"]["logs.read.irregular_blocks"] == 0
        assert any(
            name.startswith("eval.formula.") for name in snapshot["histograms"]
        )
        assert "metrics snapshot written" in captured.err
        assert "PASS" in captured.out


class TestDriveCommand:
    def test_drive_reports_all_scenarios(self, tmp_path, capsys):
        code = main(["drive", "--seed", "5", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0  # triage leaves the drive clean
        assert "vehicle:hills_cruise" in out
        assert (tmp_path / "vehicle_free_cruise.csv").exists()

    def test_missing_out_dir_is_created(self, tmp_path, capsys):
        """Regression: a missing ``--out-dir`` was a FileNotFoundError."""
        out_dir = tmp_path / "new" / "logs"
        assert main(["drive", "--seed", "5", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "vehicle_free_cruise.csv").exists()

class TestAuditCommand:
    def test_paper_rules_audit_clean_strict(self, capsys):
        # The acceptance bar: the paper artifacts pass a strict audit.
        assert main(["audit", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "paper rules (strict)" in out
        assert "0 error(s)" in out
        assert "summary:" in out

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import AUDIT_REPORT

        assert main(["audit", "--format", "json", "--strict"]) == 0
        report = require_valid(
            AUDIT_REPORT, json.loads(capsys.readouterr().out)
        )
        assert report["schema"] == "repro.audit/v1"
        assert report["counts"]["error"] == 0

    def test_unknown_profile_fails_strict(self, capsys):
        # AU401 is an error, so --strict must exit nonzero...
        assert main(["audit", "--strict", "--profile", "dspace"]) == 1
        assert "AU401" in capsys.readouterr().out
        # ...but without --strict the same findings only inform.
        assert main(["audit", "--profile", "dspace"]) == 0
        capsys.readouterr()

    def test_audit_spec_file(self, tmp_path, capsys):
        path = tmp_path / "one.rules"
        path.write_text(
            "[rule g]\nformula = Velocity > 10\nsettle = 500ms\n",
            encoding="utf-8",
        )
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        # A single-rule set leaves most signals unmonitored.
        assert "AU201" in out


class TestTable1TimingOptions:
    """``table1`` refuses a bad ``--hold/--gap/--settle/--limit`` as a
    usage error.  Regression: ``--hold nan`` and ``--hold -1`` printed
    an all-S table, ``--hold inf`` never finished, ``--settle -5`` ran
    a different plan, and ``--limit -1`` silently dropped the last
    row."""

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--hold", "nan", "must be a positive number of seconds"),
            ("--hold", "-1", "must be a positive number of seconds"),
            ("--hold", "inf", "must be a positive number of seconds"),
            ("--hold", "0", "must be a positive number of seconds"),
            ("--gap", "nan", "must be a finite number of seconds >= 0"),
            ("--gap", "-1", "must be a finite number of seconds >= 0"),
            ("--gap", "inf", "must be a finite number of seconds >= 0"),
            ("--settle", "-5", "must be a finite number of seconds >= 0"),
            ("--settle", "nan", "must be a finite number of seconds >= 0"),
            ("--settle", "inf", "must be a finite number of seconds >= 0"),
            ("--limit", "-1", "must be >= 1"),
            ("--limit", "0", "must be >= 1"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, option, value, message, capsys):
        argv = ["table1", "--limit", "1"] + FAST_TABLE1 + [option, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "%s, got %s" % (message, value) in capsys.readouterr().err


class TestNegativeThresholds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{trace}", "--near-miss-threshold", "-1"],
            ["table1", "--limit", "1", "--near-miss-threshold", "-1"],
            ["margins", "--threshold", "-1"],
        ],
        ids=["check", "table1-near-miss", "margins"],
    )
    def test_rejected_as_usage_error(
        self, argv, tmp_path, nominal_trace, capsys
    ):
        trace = tmp_path / "trace.csv"
        write_trace(nominal_trace, str(trace))
        args = [arg.format(trace=trace) for arg in argv]
        if args[0] == "table1":
            args += FAST_TABLE1
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err


class TestMarginsCommand:
    def test_paper_rules_text_report(self, capsys):
        assert main(["margins"]) == 0
        out = capsys.readouterr().out
        assert "margins paper rules (strict)" in out
        assert "rule margins (nominal DBC ranges):" in out
        assert "top falsification seeds:" in out
        assert "summary: 7 rule(s) (0 provably safe)" in out

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import MARGINS_REPORT

        assert main(["margins", "--format", "json"]) == 0
        report = require_valid(
            MARGINS_REPORT, json.loads(capsys.readouterr().out)
        )
        assert report["schema"] == "repro.margins/v1"
        # No paper cell is prunable: every cell seeds falsification.
        assert report["summary"]["prunable_cells"] == 0
        assert report["summary"]["seeds"] == report["summary"]["cells"]

    def test_seeds_out_is_deterministic_and_ranked(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["margins", "--seeds-out", str(first)]) == 0
        assert main(["margins", "--seeds-out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        seeds = json.loads(first.read_text())
        assert [entry["rank"] for entry in seeds] == list(
            range(1, len(seeds) + 1)
        )
        assert {"rank", "test", "rule", "lower", "upper"} <= set(seeds[0])

    def test_threshold_must_be_non_negative(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["margins", "--threshold", "-1"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_margins_spec_file(self, tmp_path, capsys):
        path = tmp_path / "one.rules"
        path.write_text(
            "[rule safe]\nformula = Velocity < 500\n", encoding="utf-8"
        )
        assert main(["margins", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "provably safe" in out


class TestOpposedInfiniteConstants:
    """The lexer reads ``1e999`` as inf, so ``1e999 - 1e999`` is NaN at
    run time: every static analysis answers the rule instead of
    building an invalid interval."""

    @pytest.mark.parametrize(
        "command", ["lint", "audit", "margins", "automata"]
    )
    def test_analysis_answers_inf_minus_inf(self, command, tmp_path, capsys):
        from repro.analysis import has_errors, lint_file
        from repro.can.fsracc import fsracc_database

        path = tmp_path / "overflow.rules"
        path.write_text(
            "[rule overflow]\nformula = Velocity < 1e999 - 1e999\n",
            encoding="utf-8",
        )
        assert main([command, str(path)]) == 0
        captured = capsys.readouterr()
        assert "overflow" in captured.out
        assert "Traceback" not in captured.err
        assert not has_errors(
            lint_file(str(path), database=fsracc_database())
        )


class TestAutomataCommand:
    def test_paper_rules_text_report(self, capsys):
        assert main(["automata"]) == 0
        out = capsys.readouterr().out
        assert "automata paper rules (strict)" in out
        assert "0 neither" in out
        for rule_id in ("rule0", "rule3", "rule6"):
            assert rule_id in out

    def test_strict_paper_rules_exit_zero(self):
        # Every paper rule is monitorable, so --strict must not trip.
        assert main(["automata", "--strict"]) == 0

    def test_json_report_is_schema_valid(self, capsys):
        from repro.analysis import AUTOMATA_REPORT

        assert main(["automata", "--format", "json"]) == 0
        report = require_valid(
            AUTOMATA_REPORT, json.loads(capsys.readouterr().out)
        )
        assert report["summary"]["bounded"] == 7

    def test_json_out_matches_golden_fixture(self, tmp_path, capsys):
        import os

        golden = os.path.join(
            os.path.dirname(__file__), "..", "results", "automata_paper.json"
        )
        out_file = tmp_path / "automata.json"
        code = main(
            ["automata", "--format", "json", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        with open(golden, encoding="utf-8") as handle:
            assert out_file.read_text(encoding="utf-8") == handle.read()

    def test_dot_dir_writes_one_graph_per_rule(self, tmp_path, capsys):
        dot_dir = tmp_path / "dots"
        assert main(["automata", "--dot-dir", str(dot_dir)]) == 0
        capsys.readouterr()
        files = sorted(path.name for path in dot_dir.iterdir())
        assert files == ["rule%d.dot" % i for i in range(7)]
        for path in dot_dir.iterdir():
            assert path.read_text(encoding="utf-8").startswith("digraph")

    def test_rules_file_target(self, tmp_path, capsys):
        path = tmp_path / "custom.rules"
        path.write_text(
            "[rule custom]\nformula = always[0, 100ms] Velocity >= 0\n",
            encoding="utf-8",
        )
        assert main(["automata", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "custom: bounded" in out

    def test_unsupported_rules_do_not_trip_strict(self, tmp_path, capsys):
        # Past-time operators fall outside the automata fragment; they
        # report "unsupported", which is not a monitorability failure.
        path = tmp_path / "past.rules"
        path.write_text(
            "[rule past]\nformula = once[0, 100ms] BrakeRequested\n",
            encoding="utf-8",
        )
        assert main(["automata", str(path), "--strict"]) == 0
        assert "unsupported" in capsys.readouterr().out

    def test_max_states_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["automata", "--max-states", "0"])
        assert excinfo.value.code == 2
        assert (
            "argument --max-states: is a count and must be >= 1, got 0"
            in capsys.readouterr().err
        )

    def test_malformed_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[rule broken\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["automata", str(path)])
        assert excinfo.value.code == 2


class TestFleetCommand:
    def _write_logs(self, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        for scenario in ("steady_follow", "cut_in"):
            main(
                [
                    "simulate", scenario, "--duration", "10",
                    "--out", str(log_dir / ("%s.csv" % scenario)),
                ]
            )
        capsys.readouterr()
        return log_dir

    def test_replay_writes_validated_rollup(self, tmp_path, capsys):
        from repro.fleet import FLEET_ROLLUP

        log_dir = self._write_logs(tmp_path, capsys)
        rollup_file = tmp_path / "rollup.json"
        code = main(
            [
                "fleet", "replay", str(log_dir),
                "--streams", "4",
                "--rollup-out", str(rollup_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: 4 stream(s)" in out
        rollup = json.loads(rollup_file.read_text())
        assert validate(FLEET_ROLLUP, rollup) == []
        assert rollup["fleet"]["streams"] == 4
        assert all(e["chunks"] > 0 for e in rollup["streams"].values())

    def test_observability_flag_attaches_bandwidth_hints(
        self, tmp_path, capsys
    ):
        from repro.fleet import FLEET_ROLLUP

        log_dir = self._write_logs(tmp_path, capsys)
        rollup_file = tmp_path / "rollup.json"
        code = main(
            [
                "fleet", "replay", str(log_dir),
                "--streams", "2",
                "--observability",
                "--rollup-out", str(rollup_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rollup = json.loads(rollup_file.read_text())
        assert validate(FLEET_ROLLUP, rollup) == []
        for entry in rollup["streams"].values():
            assert entry["observability"] is not None
        fleet_block = rollup["fleet"]["observability"]
        # Every paper-rule signal is load-bearing: nothing droppable.
        assert fleet_block["droppable"] == []
        assert fleet_block["bandwidth_hint"] == 0.0

    def test_empty_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "replay", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_bare_fleet_prints_help(self, capsys):
        assert main(["fleet"]) == 2
        assert "replay" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--inbox", "0", "must be >= 1, got 0"),
            ("--streams", "0", "must be >= 1, got 0"),
            ("--period", "0", "must be a positive number of seconds, got 0"),
            ("--period", "nan", "must be a positive number of seconds, got nan"),
            ("--retention", "nan", "must be a finite number of seconds >= 0, got nan"),
            ("--retention", "inf", "must be a finite number of seconds >= 0, got inf"),
            ("--retention", "-1", "must be a finite number of seconds >= 0, got -1"),
            ("--min-chunk-rows", "0", "must be >= 1, got 0"),
            ("--min-chunk-rows", "-4", "must be >= 1, got -4"),
            ("--status-port", "-1", "must be a TCP port in 0-65535, got -1"),
            ("--status-port", "70000", "must be a TCP port in 0-65535, got 70000"),
        ],
    )
    def test_non_positive_sizes_are_usage_errors(
        self, option, value, message, tmp_path, capsys
    ):
        """Regression: these exited 1 with a raw traceback (``--retention
        nan/inf``: ValueError/OverflowError; ``--status-port``: an
        OverflowError from ``bind()``), or, for ``--min-chunk-rows``,
        were silently clamped to 1."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "replay", str(tmp_path), option, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert option in err and message in err

    def test_online_period_must_be_positive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["online", str(tmp_path / "t.csv"), "--period", "-0.02"])
        assert excinfo.value.code == 2
        assert "must be a positive number of seconds" in capsys.readouterr().err


class TestPeriodOption:
    """Every command's ``--period`` refuses a non-positive or non-finite
    value as a usage error.  Regression: ``check`` died with a raw
    TraceError or ValueError traceback, ``lint`` accepted 0, and
    ``audit``, ``margins`` and ``automata`` raised ZeroDivisionError."""

    @pytest.mark.parametrize(
        "command", ["check", "lint", "audit", "margins", "automata"]
    )
    @pytest.mark.parametrize("value", ["0", "-0.02", "nan", "inf"])
    def test_bad_period_is_a_usage_error(self, command, value, tmp_path, capsys):
        argv = [command, "--period", value]
        if command == "check":
            argv.insert(1, str(tmp_path / "t.csv"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert (
            "must be a positive number of seconds, got %s" % value
            in capsys.readouterr().err
        )


class TestTable1Backend:
    """Table I has one checking path: ``--backend`` is not an option."""

    def test_unknown_backend_rejected(self, capsys):
        for backend in ("columnar", "per-trace", "rowwise"):
            with pytest.raises(SystemExit) as excinfo:
                main(["table1", "--backend", backend])
            assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_trace_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "pack", "out.rtc", "--drive"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
