"""Command-line interface.

Entry point ``repro-oracle`` with subcommands:

* ``rules`` — list the safety rules and their formulas;
* ``simulate`` — run one HIL scenario and write the captured trace;
* ``check`` — run the monitor over a stored trace file;
* ``drive`` — generate the synthetic real-vehicle drive logs;
* ``online`` — stream a stored trace through the online monitor;
* ``lint`` — statically analyze rule specifications (the bundled paper
  rules, or ``.rules`` files) and report diagnostics; exit code 1 when
  any error-level finding exists (``--format json`` for tooling);
* ``reproduce`` — regenerate the paper's core results (``--jobs N``
  fans the campaign out to worker processes);
* ``table1`` — run the robustness campaign and print Table I
  (``--jobs N`` for parallel execution, ``--out`` to persist the
  table, ``--strict`` to fail when the type-checker rejects any
  injection, ``--metrics-out`` to capture an observability snapshot).

Stream discipline: results (tables, reports, rule listings) go to
stdout; progress lines and metrics summaries go to stderr, so piped
output stays clean (``table1 ... > table.txt`` captures only the table).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.monitor import Monitor
from repro.core.oracle import TestOracle
from repro.hil.simulator import HilSimulator
from repro.logs.format import read_trace, write_trace
from repro.logs.vehicle_logs import generate_drive_logs
from repro.errors import SpecError
from repro.rules.safety_rules import paper_rules, paper_specset
from repro.testing.campaign import (
    GAP_TIME,
    HOLD_TIME,
    SETTLE_TIME,
    RobustnessCampaign,
    single_signal_tests,
    table1_tests,
)
from repro.vehicle.scenario import STANDARD_SCENARIOS


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 means all cores), got %d" % jobs
        )
    return jobs


def _non_negative(value: str) -> float:
    number = float(value)
    if not number >= 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %s" % value)
    return number


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %s" % value)
    return number


def _period(value: str) -> float:
    number = float(value)
    if not (number > 0 and math.isfinite(number)):
        raise argparse.ArgumentTypeError(
            "must be a positive number of seconds, got %s" % value
        )
    return number


def _duration(value: str) -> float:
    number = float(value)
    if not (number >= 0 and math.isfinite(number)):
        raise argparse.ArgumentTypeError(
            "must be a finite number of seconds >= 0, got %s" % value
        )
    return number


def _progress(text: str) -> None:
    """Progress lines go to stderr so piped stdout stays clean."""
    print(text, file=sys.stderr, flush=True)


def _load_specset(path: Optional[str], relaxed: bool = False):
    """The spec set a subcommand works on.

    ``None`` means the bundled paper rules (strict or relaxed); a path
    loads a ``.rules`` file.  Unreadable or malformed files abort with
    exit code 2, like argparse usage errors.
    """
    if path is None:
        return paper_specset(relaxed=relaxed)
    from repro.core.specfile import load_specs

    try:
        return load_specs(path)
    except OSError as exc:
        _progress("cannot read rules file %s: %s" % (path, exc))
        raise SystemExit(2)
    except SpecError as exc:
        _progress("cannot parse rules file %s: %s" % (path, exc))
        raise SystemExit(2)


def _metrics_registry(args: argparse.Namespace):
    """An enabled registry when ``--metrics-out`` was given, else the no-op."""
    from repro.obs import NULL_REGISTRY, MetricsRegistry

    if getattr(args, "metrics_out", None):
        return MetricsRegistry()
    return NULL_REGISTRY


def _write_metrics(registry, path: str) -> None:
    """Persist a validated snapshot; the human summary goes to stderr."""
    from repro.obs import METRICS_SNAPSHOT
    from repro.schema import require_valid

    snapshot = require_valid(METRICS_SNAPSHOT, registry.snapshot())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    _progress("")
    _progress(registry.summary())
    _progress("metrics snapshot written to %s" % path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-oracle",
        description="Monitor-based test oracles for CPS testing (DSN 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command")

    rules_cmd = sub.add_parser("rules", help="list the safety rules")
    rules_cmd.add_argument(
        "--relaxed", action="store_true", help="show the relaxed variants"
    )
    rules_cmd.add_argument(
        "--export", default=None, help="write the rule set to a .rules file"
    )
    rules_cmd.set_defaults(handler=_cmd_rules)

    sim_cmd = sub.add_parser("simulate", help="run one HIL scenario")
    sim_cmd.add_argument(
        "scenario", choices=sorted(STANDARD_SCENARIOS), help="scenario name"
    )
    sim_cmd.add_argument("--duration", type=float, default=None)
    sim_cmd.add_argument("--seed", type=int, default=0)
    sim_cmd.add_argument("--out", default=None, help="trace output file")
    sim_cmd.set_defaults(handler=_cmd_simulate)

    check_cmd = sub.add_parser("check", help="check a stored trace file")
    check_cmd.add_argument("trace", help="trace file written by this tool")
    check_cmd.add_argument("--relaxed", action="store_true")
    check_cmd.add_argument("--period", type=_period, default=0.02)
    check_cmd.add_argument(
        "--coverage",
        action="store_true",
        help="also print monitoring coverage (gate/premise exercise)",
    )
    check_cmd.add_argument(
        "--rules",
        default=None,
        help="check a custom .rules file instead of the paper rules",
    )
    check_cmd.add_argument(
        "--metrics-out",
        default=None,
        help=(
            "write an observability snapshot (per-rule and per-node "
            "evaluation timings) to this JSON file; the human-readable "
            "summary goes to stderr"
        ),
    )
    check_cmd.add_argument(
        "--robustness",
        action="store_true",
        help=(
            "also compute quantitative robustness margins per rule "
            "(how far each verdict was from flipping); letters are "
            "unchanged"
        ),
    )
    check_cmd.add_argument(
        "--near-miss-threshold",
        type=_non_negative,
        default=None,
        help=(
            "flag passing rules whose margin is at most this value "
            "(implies --robustness)"
        ),
    )
    check_cmd.set_defaults(handler=_cmd_check)

    drive_cmd = sub.add_parser(
        "drive", help="generate the synthetic real-vehicle drive and check it"
    )
    drive_cmd.add_argument("--seed", type=int, default=0)
    drive_cmd.add_argument(
        "--out-dir", default=None, help="write trace files here (created if missing)"
    )
    drive_cmd.set_defaults(handler=_cmd_drive)

    online_cmd = sub.add_parser(
        "online", help="stream a stored trace through the online monitor"
    )
    online_cmd.add_argument("trace", help="trace file written by this tool")
    online_cmd.add_argument("--relaxed", action="store_true")
    online_cmd.add_argument("--period", type=_period, default=0.02)
    online_cmd.add_argument(
        "--rules",
        default=None,
        help="stream against a custom .rules file instead of the paper rules",
    )
    online_cmd.add_argument(
        "--robustness",
        action="store_true",
        help=(
            "stream quantitative margin intervals that tighten per "
            "chunk, with early decisions when an interval excludes zero"
        ),
    )
    online_cmd.set_defaults(handler=_cmd_online)

    fleet_cmd = sub.add_parser(
        "fleet", help="fleet-scale online monitoring service"
    )
    fleet_sub = fleet_cmd.add_subparsers(dest="fleet_command")
    fleet_cmd.set_defaults(handler=_cmd_fleet_help, fleet_parser=fleet_cmd)
    replay_cmd = fleet_sub.add_parser(
        "replay",
        help="fan a directory of vehicle logs across N monitor streams",
    )
    replay_cmd.add_argument("log_dir", help="directory of trace files to replay")
    replay_cmd.add_argument(
        "--streams",
        type=_positive_int,
        default=8,
        help="stream count (logs are cycled)",
    )
    replay_cmd.add_argument("--pattern", default="*.csv", help="log filename glob")
    replay_cmd.add_argument("--relaxed", action="store_true")
    replay_cmd.add_argument(
        "--rules",
        default=None,
        help="monitor against a custom .rules file instead of the paper rules",
    )
    replay_cmd.add_argument("--period", type=_period, default=0.02)
    replay_cmd.add_argument("--min-chunk-rows", type=int, default=50)
    replay_cmd.add_argument(
        "--retention", type=float, default=1.0, help="history kept per stream (s)"
    )
    replay_cmd.add_argument(
        "--inbox",
        type=_positive_int,
        default=1024,
        help="bounded inbox size per stream, in events",
    )
    replay_cmd.add_argument(
        "--policy",
        choices=("block", "drop"),
        default="block",
        help="what a full inbox does to new events",
    )
    replay_cmd.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="serve live repro.fleet/v1 rollups on this port (0 = ephemeral)",
    )
    replay_cmd.add_argument(
        "--rollup-out",
        default=None,
        help="write the final validated repro.fleet/v1 rollup JSON here",
    )
    replay_cmd.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 when any stream reports a violation",
    )
    replay_cmd.add_argument(
        "--robustness",
        action="store_true",
        help=(
            "stream per-rule robustness margins: every rollup entry "
            "gains a 'margins' block, plus a fleet-level worst-margin "
            "aggregate"
        ),
    )
    replay_cmd.add_argument(
        "--observability",
        action="store_true",
        help=(
            "attach the symbolic-automata minimal observable-signal "
            "hint: every rollup entry gains an 'observability' block "
            "(required/droppable partition and bandwidth hint), plus a "
            "fleet-level union"
        ),
    )
    replay_cmd.set_defaults(handler=_cmd_fleet_replay)

    lint_cmd = sub.add_parser(
        "lint",
        help="statically analyze rule specifications (speclint)",
    )
    lint_cmd.add_argument(
        "files",
        nargs="*",
        help=(
            ".rules files to lint; with no files the bundled paper rules "
            "are analyzed"
        ),
    )
    lint_cmd.add_argument(
        "--relaxed",
        action="store_true",
        help="lint the relaxed paper-rule variants (no effect with files)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    lint_cmd.add_argument("--period", type=_period, default=0.02)
    lint_cmd.add_argument(
        "--no-dbc",
        action="store_true",
        help=(
            "lint without the FSRACC CAN database (disables signal "
            "resolution, range, and multi-rate checks)"
        ),
    )
    lint_cmd.set_defaults(handler=_cmd_lint)

    audit_cmd = sub.add_parser(
        "audit",
        help=(
            "cross-artifact campaign audit: rule-set verification, "
            "monitoring coverage, and injection-plan checks"
        ),
    )
    audit_cmd.add_argument(
        "files",
        nargs="*",
        help=(
            ".rules files to audit; with no files the bundled paper "
            "rules are audited against the full Table I plan"
        ),
    )
    audit_cmd.add_argument(
        "--relaxed",
        action="store_true",
        help="audit the relaxed paper-rule variants (no effect with files)",
    )
    audit_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    audit_cmd.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on error-level findings (same gate as lint)",
    )
    audit_cmd.add_argument(
        "--profile",
        default="hil",
        help=(
            "checker profile name the plan will run under (free-form; "
            "unknown names are themselves an audit finding)"
        ),
    )
    audit_cmd.add_argument(
        "--period",
        type=_period,
        default=None,
        help="monitor sampling period in seconds (default: plan period)",
    )
    audit_cmd.set_defaults(handler=_cmd_audit)

    margins_cmd = sub.add_parser(
        "margins",
        help=(
            "static robustness-margin prover: per-rule [lower, upper] "
            "bounds, per-cell pruning verdicts, and a ranked "
            "falsification seed list"
        ),
    )
    margins_cmd.add_argument(
        "files",
        nargs="*",
        help=(
            ".rules files to analyze; with no files the bundled paper "
            "rules are analyzed against the full Table I plan"
        ),
    )
    margins_cmd.add_argument(
        "--relaxed",
        action="store_true",
        help="analyze the relaxed paper-rule variants (no effect with files)",
    )
    margins_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text; json is repro.margins/v1)",
    )
    margins_cmd.add_argument(
        "--out", default=None, help="also write the report here"
    )
    margins_cmd.add_argument(
        "--seeds-out",
        default=None,
        help=(
            "write the ranked falsification seed list (the non-prunable "
            "cells, lowest static lower bound first) to this JSON file"
        ),
    )
    margins_cmd.add_argument(
        "--threshold",
        type=_non_negative,
        default=0.0,
        help=(
            "pruning bar: cells whose static lower bound exceeds this "
            "are reported prunable (must be >= 0; default 0)"
        ),
    )
    margins_cmd.add_argument(
        "--period",
        type=_period,
        default=None,
        help="monitor sampling period in seconds (default: plan period)",
    )
    margins_cmd.set_defaults(handler=_cmd_margins)

    automata_cmd = sub.add_parser(
        "automata",
        help=(
            "symbolic monitor automata: per-rule monitorability "
            "certificates (safety/co-safety class, exact decision "
            "horizon vs the online monitor's) and minimal "
            "observable-signal sets"
        ),
    )
    automata_cmd.add_argument(
        "files",
        nargs="*",
        help=(
            ".rules files to compile; with no files the bundled paper "
            "rules are compiled"
        ),
    )
    automata_cmd.add_argument(
        "--relaxed",
        action="store_true",
        help="compile the relaxed paper-rule variants (no effect with files)",
    )
    automata_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text; json is repro.automata/v1)",
    )
    automata_cmd.add_argument(
        "--out", default=None, help="also write the report here"
    )
    automata_cmd.add_argument(
        "--dot-dir",
        default=None,
        help=(
            "write one Graphviz .dot file per compiled rule into this "
            "directory (created if missing)"
        ),
    )
    automata_cmd.add_argument(
        "--period",
        type=_period,
        default=None,
        help="monitor sampling period in seconds (default: 0.02)",
    )
    automata_cmd.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="state budget per automaton (default 20000)",
    )
    automata_cmd.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit non-zero when any compiled rule is 'neither' safety "
            "nor co-safety (no finite horizon decides it)"
        ),
    )
    automata_cmd.set_defaults(handler=_cmd_automata)

    repro_cmd = sub.add_parser(
        "reproduce",
        help="regenerate the paper's core results and judge the reproduction",
    )
    repro_cmd.add_argument("--seed", type=int, default=2014)
    repro_cmd.add_argument(
        "--quick", action="store_true",
        help="single-signal Table I rows only (about 3x faster)",
    )
    repro_cmd.add_argument("--out", default=None, help="write the report here")
    repro_cmd.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for the campaign (0 = all cores; default 1)",
    )
    repro_cmd.set_defaults(handler=_cmd_reproduce)

    table_cmd = sub.add_parser(
        "table1", help="run the robustness campaign and print Table I"
    )
    table_cmd.add_argument("--seed", type=int, default=2014)
    table_cmd.add_argument(
        "--quick",
        action="store_true",
        help="single-signal rows only (about a third of the full runtime)",
    )
    table_cmd.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes (0 = all cores; default 1); the letter "
            "matrix is bit-identical to a sequential run"
        ),
    )
    table_cmd.add_argument("--out", default=None, help="write the table here")
    table_cmd.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit nonzero if the type-checker rejected any injection "
            "(on the hil profile enum injections are routinely rejected, "
            "so this flags campaigns whose plan was not fully executed)"
        ),
    )
    table_cmd.add_argument(
        "--profile",
        choices=("hil", "vehicle"),
        default="hil",
        help="injection type-checker profile (default hil)",
    )
    table_cmd.add_argument(
        "--hold", type=_period, default=HOLD_TIME,
        help="seconds each fault is held (default %s)" % HOLD_TIME,
    )
    table_cmd.add_argument(
        "--gap", type=_duration, default=GAP_TIME,
        help="pass-through seconds between injections (default %s)" % GAP_TIME,
    )
    table_cmd.add_argument(
        "--settle", type=_duration, default=SETTLE_TIME,
        help="seconds before the first injection (default %s)" % SETTLE_TIME,
    )
    table_cmd.add_argument(
        "--limit", type=_positive_int, default=None,
        help="run only the first N rows (smoke testing)",
    )
    table_cmd.add_argument(
        "--metrics-out",
        default=None,
        help=(
            "write a campaign observability snapshot (per-test phase "
            "spans, per-rule timings, merged across workers) to this "
            "JSON file; the letter matrix is unaffected"
        ),
    )
    table_cmd.add_argument(
        "--robustness",
        action="store_true",
        help=(
            "also compute the margin-heatmap variant of Table I (how "
            "close each cell came to violation); letters are unchanged"
        ),
    )
    table_cmd.add_argument(
        "--near-miss-threshold",
        type=_non_negative,
        default=None,
        help=(
            "flag passing cells whose margin is at most this value "
            "(implies --robustness)"
        ),
    )
    table_cmd.add_argument(
        "--margins-out",
        default=None,
        help=(
            "write the canonical repro.robustness.table1/v1 margins "
            "JSON here (implies --robustness)"
        ),
    )
    table_cmd.set_defaults(handler=_cmd_table1)

    return parser


def _cmd_rules(args: argparse.Namespace) -> int:
    if args.export:
        from repro.core.specfile import SpecSet, dump_specs

        dump_specs(SpecSet(rules=paper_rules(relaxed=args.relaxed)), args.export)
        print("rule set written to %s" % args.export)
        return 0
    for rule in paper_rules(relaxed=args.relaxed):
        print("%s  %s" % (rule.rule_id, rule.name))
        print("    formula: %s" % rule.formula)
        if rule.gate is not None:
            print("    gate:    %s" % rule.gate)
        for intent_filter in rule.filters:
            print("    filter:  %s" % intent_filter.describe())
        if rule.description:
            print("    %s" % rule.description)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = STANDARD_SCENARIOS[args.scenario]
    simulator = HilSimulator(scenario, seed=args.seed)
    result = simulator.run(args.duration)
    print(
        "simulated %.1f s: %d frames, %d collisions, min gap %.1f m"
        % (result.duration, result.frames_sent, result.collisions, result.min_gap)
    )
    if args.out:
        write_trace(result.trace, args.out)
        print("trace written to %s" % args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.obs import use_registry

    registry = _metrics_registry(args)
    with use_registry(registry):
        trace = read_trace(args.trace)
        monitor = _load_specset(args.rules, relaxed=args.relaxed).monitor(
            period=args.period
        )
        report = monitor.check(
            trace,
            robustness=args.robustness,
            near_miss_threshold=args.near_miss_threshold,
        )
        outcome = TestOracle(monitor).judge_report(report)
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    print(outcome.report.summary())
    print()
    print(outcome.explain())
    if args.coverage:
        from repro.core.coverage import coverage_report

        print()
        print(coverage_report(monitor, trace).summary())
    return 1 if outcome.failed else 0


def _cmd_drive(args: argparse.Namespace) -> int:
    monitor = Monitor(paper_rules())
    relaxed = Monitor(paper_rules(relaxed=True))
    failed = False
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for trace in generate_drive_logs(seed=args.seed):
        strict_report = monitor.check(trace)
        relaxed_report = relaxed.check(trace)
        print(
            "%-26s strict=%s relaxed=%s"
            % (
                trace.name,
                "".join(strict_report.letters()[rid] for rid in sorted(strict_report.letters())),
                "".join(relaxed_report.letters()[rid] for rid in sorted(relaxed_report.letters())),
            )
        )
        failed |= not relaxed_report.all_satisfied
        if args.out_dir:
            path = "%s/%s.csv" % (args.out_dir, trace.name.replace(":", "_"))
            write_trace(trace, path)
            print("  written to %s" % path)
    return 1 if failed else 0


def _cmd_online(args: argparse.Namespace) -> int:
    from repro.core.online import OnlineMonitor

    trace = read_trace(args.trace)
    specs = _load_specset(args.rules, relaxed=args.relaxed)
    online = OnlineMonitor(
        specs.rules,
        machines=specs.machines,
        period=args.period,
        robustness=args.robustness,
    )
    print(
        "streaming %d events (decision latency bound %.2f s)..."
        % (trace.update_count(), online.decision_latency)
    )
    for violation in online.feed_trace(trace):
        print("  LIVE %s" % violation)
    report = online.finish(trace_name=trace.name)
    print()
    print(report.summary())
    if args.robustness:
        for rule_id, decided_at in sorted(online.early_decisions().items()):
            print(
                "early decision: %s certainly violated by stream time %.3fs"
                % (rule_id, decided_at)
            )
    return 1 if report.violated_rules() else 0


def _cmd_fleet_help(args: argparse.Namespace) -> int:
    args.fleet_parser.print_help()
    return 2


def _cmd_fleet_replay(args: argparse.Namespace) -> int:
    from repro.errors import TraceError
    from repro.fleet import FLEET_ROLLUP, load_log_directory, replay_traces
    from repro.schema import require_valid

    specs = _load_specset(args.rules, relaxed=args.relaxed)
    try:
        traces = load_log_directory(args.log_dir, pattern=args.pattern)
    except (OSError, TraceError) as exc:
        _progress("cannot load logs: %s" % exc)
        raise SystemExit(2)
    _progress(
        "replaying %d log(s) across %d stream(s) (policy=%s, inbox=%d)..."
        % (len(traces), args.streams, args.policy, args.inbox)
    )
    report = replay_traces(
        traces,
        specs.rules,
        machines=specs.machines,
        streams=args.streams,
        period=args.period,
        min_chunk_rows=args.min_chunk_rows,
        retention=args.retention,
        inbox_events=args.inbox,
        policy=args.policy,
        status_port=args.status_port,
        robustness=args.robustness,
        observability=args.observability,
    )
    rollup = require_valid(FLEET_ROLLUP, report.rollup)
    if args.rollup_out:
        with open(args.rollup_out, "w", encoding="utf-8") as handle:
            json.dump(rollup, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _progress("fleet rollup written to %s" % args.rollup_out)
    print(report.summary())
    if args.fail_on_violation and report.violated_streams():
        return 1
    return 0


def _spec_targets(args: argparse.Namespace) -> List[Tuple[str, object]]:
    """``(name, spec set)`` pairs an analysis command works on: each
    ``.rules`` file given, or else the paper rules (strict or relaxed)."""
    if args.files:
        return [(path, _load_specset(path)) for path in args.files]
    variant = "relaxed" if args.relaxed else "strict"
    return [("paper rules (%s)" % variant, paper_specset(args.relaxed))]


def _print_reports(
    args: argparse.Namespace, reports: Sequence, to_dict: Callable
) -> None:
    """Print the reports as text or JSON (one target unwrapped) and
    copy the output to ``--out`` when given."""
    if args.format == "json":
        dumps = [to_dict(report) for report in reports]
        text = json.dumps(
            dumps[0] if len(dumps) == 1 else dumps, indent=2, sort_keys=True
        )
    else:
        text = "\n\n".join(report.format_text() for report in reports)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _progress("report written to %s" % args.out)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        build_report,
        count_by_severity,
        has_errors,
        lint_specs,
    )

    database = None
    if not args.no_dbc:
        from repro.can.fsracc import fsracc_database

        database = fsracc_database()

    targets = _spec_targets(args)

    results = [
        (name, lint_specs(specs, database=database, period=args.period))
        for name, specs in targets
    ]
    failed = any(has_errors(diagnostics) for _, diagnostics in results)

    if args.format == "json":
        print(json.dumps(build_report(results), indent=2))
        return 1 if failed else 0

    for name, diagnostics in results:
        counts = count_by_severity(diagnostics)
        print(
            "%s: %d error(s), %d warning(s), %d info"
            % (name, counts["error"], counts["warning"], counts["info"])
        )
        for diagnostic in diagnostics:
            print("  %s" % diagnostic.format())
    if failed:
        print("\nlint failed: error-level findings present")
    return 1 if failed else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import (
        CampaignPlan,
        audit_specs,
        build_audit_report,
        paper_plan,
    )

    plan = paper_plan()
    if args.profile != plan.profile:
        plan = CampaignPlan(
            tests=plan.tests, profile=args.profile, period=plan.period
        )

    targets = _spec_targets(args)

    reports = [
        audit_specs(
            specs, plan=plan, period=args.period, target=name
        )
        for name, specs in targets
    ]
    failed = any(report.failed for report in reports)

    if args.format == "json":
        print(json.dumps(build_audit_report(reports), indent=2))
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.format_text())
        if failed and args.strict:
            print("\naudit failed: error-level findings present")
    return 1 if failed and args.strict else 0


def _cmd_margins(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_margins_specs,
        build_margins_report,
        paper_plan,
    )

    plan = paper_plan()
    targets = _spec_targets(args)

    reports = [
        analyze_margins_specs(
            specs,
            plan=plan,
            period=args.period,
            threshold=args.threshold,
            target=name,
        )
        for name, specs in targets
    ]

    _print_reports(args, reports, build_margins_report)

    if args.seeds_out:
        # Ranked work list for falsification: one entry per live cell,
        # most promising (lowest static lower bound) first.  With a
        # single target the file is the seeds array itself.
        seed_dumps = [
            {"target": dump["name"], "seeds": dump["seeds"]}
            for dump in (build_margins_report(report) for report in reports)
        ]
        payload = (
            seed_dumps[0]["seeds"] if len(seed_dumps) == 1 else seed_dumps
        )
        with open(args.seeds_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _progress("falsification seeds written to %s" % args.seeds_out)
    return 0


def _cmd_automata(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import (
        analyze_automata_specs,
        build_automata_report,
        to_dot,
    )
    from repro.analysis.automata import DEFAULT_STATE_BUDGET

    max_states = (
        args.max_states if args.max_states is not None else DEFAULT_STATE_BUDGET
    )
    if max_states < 1:
        print("automata: --max-states must be positive", file=sys.stderr)
        return 2

    targets = _spec_targets(args)

    reports = [
        analyze_automata_specs(
            specs,
            period=args.period,
            target=name,
            max_states=max_states,
        )
        for name, specs in targets
    ]

    _print_reports(args, reports, build_automata_report)

    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
        written = 0
        for report in reports:
            for entry in report.rules:
                if entry.automaton is None:
                    continue
                path = os.path.join(args.dot_dir, "%s.dot" % entry.rule_id)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(to_dot(entry.automaton, entry.rule_id) + "\n")
                written += 1
        _progress("%d automaton graph(s) written to %s" % (written, args.dot_dir))

    failed = any(report.failed for report in reports)
    return 1 if failed and args.strict else 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.testing.reproducer import reproduce

    result = reproduce(
        seed=args.seed,
        quick=args.quick,
        progress=lambda stage, detail: _progress("[%s] %s" % (stage, detail)),
        jobs=args.jobs,
    )
    print()
    print(result.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.report() + "\n")
        _progress("report written to %s" % args.out)
    return 0 if result.ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.hil.typecheck import checker_named
    from repro.obs import use_registry

    campaign = RobustnessCampaign(
        seed=args.seed,
        checker=checker_named(args.profile),
        hold_time=args.hold,
        gap_time=args.gap,
        settle_time=args.settle,
        robustness=args.robustness or args.margins_out is not None,
        near_miss_threshold=args.near_miss_threshold,
    )
    tests = single_signal_tests() if args.quick else table1_tests()
    if args.limit is not None:
        tests = tests[: args.limit]

    def progress(test, outcome):
        # Sequential runs pass a TestOutcome, parallel runs a TableRow;
        # both expose the per-rule letters.
        letters = " ".join(
            outcome.letters[rid] for rid in sorted(outcome.letters)
        )
        _progress("%-28s %s" % (test.label, letters))

    registry = _metrics_registry(args)
    with use_registry(registry):
        table = campaign.run_table1(
            tests=tests, progress=progress, jobs=args.jobs
        )
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    text = "%s\n\n%s" % (table.format(), table.shape_summary())
    if campaign.robustness:
        text += "\n\n%s" % table.margin_heatmap()
    print()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _progress("table written to %s" % args.out)
    if args.margins_out:
        with open(args.margins_out, "w", encoding="utf-8") as handle:
            json.dump(
                table.margins_json(), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        _progress("margins written to %s" % args.margins_out)
    rejections = sum(row.rejections for row in table.rows)
    if args.strict and rejections > 0:
        print(
            "\nstrict mode: %d injection(s) rejected by the %r type-checker"
            % (rejections, args.profile)
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
