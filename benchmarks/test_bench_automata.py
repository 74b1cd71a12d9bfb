"""E21 — symbolic automata: certificate quality.

One artifact:

* ``automata_certificates.txt`` — per paper rule, the automaton's
  monitorability certificate (class, exact decision horizon in rows)
  next to the horizon the online monitor provisions from syntactic
  future-reach, plus the observability partition.  The artifact holds
  verdicts only; the compile cost is measured by the ``audit``
  workload of ``bench/run.py``.

The contracts the artifact witnesses (also asserted, so the bench
doubles as a smoke test):

* every paper rule classifies as bounded — no unmonitorable rule ever
  ships in the strict set;
* the exact horizon never exceeds the monitor's provisioned horizon
  (the certificate can only tighten, never invalidate, the buffer
  sizing).
"""

from __future__ import annotations

from repro.analysis.automata import analyze_automata
from repro.rules.safety_rules import paper_rules


def test_certificates_against_monitor_provisioning(publish):
    report = analyze_automata(paper_rules(), target="paper rules")

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
