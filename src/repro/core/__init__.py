"""The monitor core — the paper's primary contribution.

A specification language (simplified bounded MTL plus state machines),
an offline trace evaluator with three-valued verdicts, multi-rate and
warm-up handling, intent-approximation filters, and the monitor/oracle
built on top.
"""

from repro.core.ast import (
    Always,
    And,
    Binary,
    BoolConst,
    Comparison,
    Constant,
    Eventually,
    Expr,
    Formula,
    Fresh,
    Historically,
    Implies,
    InState,
    Next,
    Once,
    Not,
    Or,
    SignalPredicate,
    SignalRef,
    TraceFunc,
    Unary,
)
from repro.core.coverage import CoverageReport, RuleCoverage, coverage_report
from repro.core.evaluator import (
    EvalContext,
    evaluate_expr,
    evaluate_formula,
    evaluate_robustness,
    future_reach,
    past_reach,
)
from repro.core.intent import (
    DurationFilter,
    IntentFilter,
    MagnitudeFilter,
    PersistenceFilter,
    apply_filters,
)
from repro.core.monitor import (
    DEFAULT_PERIOD,
    Monitor,
    MonitorReport,
    Rule,
    RuleResult,
)
from repro.core.online import OnlineMonitor
from repro.core.oracle import OracleResult, OracleVerdict, TestOracle
from repro.core.parser import parse_expr, parse_formula
from repro.core.resampler import (
    TrendComparison,
    compare_trends,
    update_interval_histogram,
)
from repro.core.robustness import (
    Bounds,
    RuleRobustness,
    float_from_json,
    float_to_json,
    summarize_bounds,
)
from repro.core.specfile import (
    SpecOrigin,
    SpecSet,
    dump_specs,
    dumps_specs,
    load_specs,
    loads_specs,
)
from repro.core.statemachine import StateMachine, Transition
from repro.core.types import Verdict, summarize_codes
from repro.core.violations import (
    NearMiss,
    Severity,
    Violation,
    annotate_margins,
    extract_violations,
    merge_close,
)
from repro.core.warmup import WarmupSpec, activation_warmup
from repro.core.windows import (
    bounds_to_rows,
    future_aggregate,
    past_aggregate,
    sliding_extreme,
)

__all__ = [
    "Always",
    "And",
    "Binary",
    "Bounds",
    "BoolConst",
    "Comparison",
    "Constant",
    "CoverageReport",
    "DEFAULT_PERIOD",
    "DurationFilter",
    "EvalContext",
    "Eventually",
    "Expr",
    "Formula",
    "Fresh",
    "Historically",
    "Implies",
    "InState",
    "IntentFilter",
    "MagnitudeFilter",
    "Monitor",
    "MonitorReport",
    "NearMiss",
    "Next",
    "Not",
    "Once",
    "OnlineMonitor",
    "Or",
    "OracleResult",
    "OracleVerdict",
    "PersistenceFilter",
    "Rule",
    "RuleCoverage",
    "RuleRobustness",
    "RuleResult",
    "Severity",
    "SignalPredicate",
    "SignalRef",
    "SpecOrigin",
    "SpecSet",
    "StateMachine",
    "TestOracle",
    "TraceFunc",
    "Transition",
    "TrendComparison",
    "Unary",
    "Verdict",
    "Violation",
    "WarmupSpec",
    "activation_warmup",
    "annotate_margins",
    "apply_filters",
    "bounds_to_rows",
    "compare_trends",
    "coverage_report",
    "evaluate_expr",
    "evaluate_formula",
    "evaluate_robustness",
    "float_from_json",
    "float_to_json",
    "future_aggregate",
    "future_reach",
    "past_aggregate",
    "past_reach",
    "dump_specs",
    "dumps_specs",
    "extract_violations",
    "load_specs",
    "loads_specs",
    "merge_close",
    "parse_expr",
    "parse_formula",
    "sliding_extreme",
    "summarize_bounds",
    "summarize_codes",
    "update_interval_histogram",
]
