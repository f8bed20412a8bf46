"""Time the power manager on its own, per decision.

    python analysis/policy_cost.py [--repeat N]

Run it from the repository root; it imports qapm from ``src/`` there.  It
records every decision of two runs, the 2 s cpu-2 table1 run and the
jitter-cpu4 scenario at seed 1 (table1 on cpu-4 with seeded jitter, 50 us
switch stalls and 1 ms micro steps), with each decision's inputs as the
run passed them.  It then replays those calls on a manager bound afresh
to the run's tasks, levels and mode, and prints ns per decision, the
minimum over ``--repeat`` replays (default 50).  Standard library only.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from qapm import sim  # noqa: E402
from qapm.scenario import builtin_table1, resolve_cpu  # noqa: E402

RUNS = (
    ("table1 cpu-2, 2 s",
     builtin_table1(cpu=resolve_cpu("cpu-2")).with_(duration_s=2.0)),
    ("jitter-cpu4 seed 1",
     builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
         c_jitter=0.2, seed=1, switch_overhead_us=50, micro_step_us=1000,
         trace_cadence_ms=None)),
)


def recorded_decisions(sc):
    """The manager's arguments in a run of ``sc`` and every decision's
    (trigger, error, base_periods, in_flight, work), the lists copied as
    they were when the decision was made."""
    bound = []
    calls = []
    real = sim.manager

    def recording(*args):
        bound.append(args)
        decide = real(*args)

        def spy(trigger, error, base_periods, in_flight, work):
            calls.append((trigger, error, base_periods[:], in_flight[:],
                          work[:]))
            return decide(trigger, error, base_periods, in_flight, work)
        return spy

    sim.manager = recording
    try:
        sim.run_loop(sc)
    finally:
        sim.manager = real
    return bound[0], calls


def best_replay(args, calls, repeat: int) -> float:
    """Least wall time, in seconds, of ``repeat`` replays of ``calls`` on a
    manager freshly bound to ``args``; the binding is not timed."""
    times = []
    for _ in range(repeat):
        decide = sim.manager(*args)
        start = time.perf_counter()
        for trigger, error, base, in_flight, work in calls:
            decide(trigger, error, base, in_flight, work)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=50)
    repeat = ap.parse_args(argv).repeat
    for label, sc in RUNS:
        args, calls = recorded_decisions(sc)
        t = best_replay(args, calls, repeat)
        print(f"{label}: {len(calls)} decisions, "
              f"{t / len(calls) * 1e9:.0f} ns per decision")
    return 0


if __name__ == "__main__":
    sys.exit(main())
