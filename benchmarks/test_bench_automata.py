"""E21 — symbolic automata: certificate quality and compile cost.

One artifact:

* ``automata_certificates.txt`` — per paper rule, the automaton's
  monitorability certificate (class, exact decision horizon in rows)
  next to the horizon the online monitor provisions from syntactic
  future-reach, plus the observability partition.  The artifact holds
  verdicts only; the compile cost is measured by the ``audit``
  workload of ``bench/run.py``.  The point of the static pass is that
  certificates cost milliseconds while measuring decision latency
  empirically costs a drive log.

The contracts the artifact witnesses (also asserted, so the bench
doubles as a smoke test):

* every paper rule classifies as bounded — no unmonitorable rule ever
  ships in the strict set;
* the exact horizon never exceeds the monitor's provisioned horizon
  (the certificate can only tighten, never invalidate, the buffer
  sizing);
* the compile pass is cheaper than producing and streaming one
  nominal drive (asserted on the host clock, not published).
"""

from __future__ import annotations

import time

from repro.analysis.automata import analyze_automata
from repro.core.online import OnlineMonitor
from repro.hil.simulator import HilSimulator
from repro.rules.safety_rules import paper_rules
from repro.vehicle.scenario import steady_follow

#: Same seed as every other reproduction artifact (see conftest.py).
SEED = 2014


def test_certificates_against_streamed_drive(publish):
    rules = paper_rules()

    started = time.perf_counter()
    report = analyze_automata(rules, target="paper rules")
    compile_s = time.perf_counter() - started

    # The empirical side: simulate one nominal drive and stream it
    # through the monitor — producing the log is part of the cost of
    # measuring decision latency empirically.
    started = time.perf_counter()
    simulator = HilSimulator(scenario=steady_follow(duration=30.0), seed=SEED)
    simulator.run_for(30.0)
    trace = simulator.result().trace
    monitor = OnlineMonitor(rules)
    monitor.feed_trace(trace)
    monitor.finish()
    stream_s = time.perf_counter() - started

    lines = [
        "SYMBOLIC AUTOMATA CERTIFICATES VS MONITOR PROVISIONING (E21)",
        "",
        "%-8s %-10s %-14s %-14s %s"
        % ("rule", "class", "exact horizon", "monitor rows", "droppable"),
    ]
    all_bounded = True
    never_looser = True
    for entry in report.rules:
        assert entry.status == "ok", entry.reason
        certificate = entry.certificate
        all_bounded = all_bounded and certificate.classification == "bounded"
        exact = certificate.horizon_rows
        provisioned = entry.monitor_horizon_rows
        if exact is not None and provisioned is not None:
            never_looser = never_looser and exact <= provisioned
        lines.append(
            "%-8s %-10s %-14s %-14s %s"
            % (
                entry.rule_id,
                certificate.classification,
                exact,
                provisioned,
                ", ".join(entry.observability.droppable) or "-",
            )
        )
    lines.append("")
    lines.append("all rules bounded: %s" % all_bounded)
    lines.append("no certificate looser than the monitor: %s" % never_looser)
    publish("automata_certificates.txt", "\n".join(lines))

    assert all_bounded
    assert never_looser
    assert compile_s < stream_s
