"""E2 — Table I: fault injection results.

Runs the full robustness campaign (24 single-signal tests plus 8
multi-signal tests, each injection held 20 s) and regenerates the
paper's Table I.  Exact cells are not expected to match — the substrate
is a synthetic simulator — but the qualitative *shape* must reproduce:

* Rule #0's column is all S;
* the pedal/throttle/headway rows are all S;
* every control-critical signal produces violations;
* six of the seven rules are detected as violated somewhere.

The campaign itself is a session fixture shared with the other benches.
"""


def test_table1_fault_injection_results(table1, publish):
    text = "\n\n".join([table1.format(), table1.shape_summary()])
    publish("table1.txt", text)

    checks = table1.shape_checks()
    assert checks["rule0_never_violated"]
    assert checks["quiet_signals_clean"]
    assert checks["critical_signals_violated"]
    assert checks["most_rules_detected"]
    assert len(table1.rows) == 32
    # The reproduction should agree with a majority of published cells.
    assert table1.cell_agreement() >= 0.6
