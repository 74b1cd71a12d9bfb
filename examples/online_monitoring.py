"""Online (runtime) monitoring of a live bus stream.

The paper monitored stored logs but argues runtime monitoring is
equally possible.  This script attaches an :class:`OnlineMonitor`
directly to the HIL's CAN bus as a listener: violations surface *while
the simulation runs*, within the monitor's bounded decision latency, and
with bounded memory.  At the end, the streaming verdicts are compared to
an offline check of the full captured trace — they are identical.

Run:  python examples/online_monitoring.py
"""

from repro import Monitor, paper_rules
from repro.core import OnlineMonitor
from repro.hil import HilSimulator
from repro.vehicle import steady_follow


def main() -> None:
    simulator = HilSimulator(steady_follow(1e9), seed=21)
    online = OnlineMonitor(paper_rules(), min_chunk_rows=50)
    print(
        "decision latency bound: %.2f s (rule #1's 5 s window dominates)"
        % online.decision_latency
    )

    # Attach the monitor to the live bus, exactly like a bolt-on box:
    # each frame's signals arrive as one block of events.
    def on_frame(message, timestamp, values):
        for violation in online.feed_block(
            [timestamp] * len(values),
            list(values),
            [float(value) for value in values.values()],
        ):
            print("  LIVE %s" % violation)

    simulator.bus.add_listener(on_frame)

    print("\ndriving nominally for 15 s ...")
    simulator.run_for(15.0)
    print("injecting TargetRelVel = +60 (wrong-sign relative velocity) ...")
    simulator.injection.inject_value("TargetRelVel", 60.0)
    simulator.run_for(20.0)
    simulator.injection.clear_all()
    print("fault cleared; driving 10 s more ...")
    simulator.run_for(10.0)

    report = online.finish()
    print()
    print(report.summary())

    offline = Monitor(paper_rules()).check(simulator.result().trace)
    print()
    print(
        "streaming verdicts identical to offline check: %s"
        % (offline.letters() == report.letters())
    )


if __name__ == "__main__":
    main()
