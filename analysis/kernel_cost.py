"""Time the plant kernel on its own, per micro step and per trace sample.

    python analysis/kernel_cost.py [--repeat N]

Run it from the repository root; it imports qapm from ``src/`` there.  It
prints, for each builtin table1 plant, the kernel's ns per micro step over
one 2 s span at 100 us (one ``advance`` call, no trace samples) and its ns
per trace sample (the same span with a 1 ms cadence, less the span with
none, over the 2,001 samples it takes).  It then records every ``advance`` call of the
2 s cpu-2 table1 run, with its 1 ms trace, and prints how long replaying
those calls on fresh plants takes, with the trace and with none.  Last it
replays, with no trace, every ``advance`` call of the jitter-cpu4 scenario
at seed 1 (table1 on cpu-4 with seeded jitter, 50 us switch stalls and
1 ms micro steps, the scenario ``analysis/policy_cost.py`` builds), whose
plants take no samples.  Each figure is the minimum over ``--repeat``
timings (default 50).  Standard library only.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from qapm import sim  # noqa: E402
from qapm.plant import StateSpacePlant  # noqa: E402
from qapm.scenario import builtin_table1, resolve_cpu  # noqa: E402

JITTER_CPU4 = builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
    c_jitter=0.2, seed=1, switch_overhead_us=50, micro_step_us=1000,
    trace_cadence_ms=None)
SPAN_US = 2_000_000
MICRO_US = 100
CADENCE_US = 1_000


def best(setup, repeat: int) -> float:
    """Least wall time, in seconds, of ``repeat`` calls of ``run``, each
    from a fresh ``run = setup()`` that is not timed."""
    times = []
    for _ in range(repeat):
        run = setup()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def one_span(tf, every):
    """A fresh plant's integration across the whole span in one call."""
    def setup():
        advance = StateSpacePlant(tf, MICRO_US, sample_every_us=every).advance
        return lambda: advance(SPAN_US, 1.0, 1.0)
    return setup


def recorded_calls(sc):
    """Every plant's (tick, r, u) per call of a run of ``sc``, in call order,
    as (plant index, tick, r, u)."""
    calls = []
    built = []
    real = sim.StateSpacePlant

    def recording(*args, **kwargs):
        plant = real(*args, **kwargs)
        i, advance = len(built), plant.advance
        built.append((args, kwargs))

        def spy(tick, r, u):
            calls.append((i, tick, r, u))
            return advance(tick, r, u)
        plant.advance = spy
        return plant

    sim.StateSpacePlant = recording
    try:
        sim.run_loop(sc)
    finally:
        sim.StateSpacePlant = real
    return built, calls


def replay(built, calls, every):
    """Fresh plants' replay of ``calls``, with the sample cadence
    ``every``."""
    def setup():
        advances = [StateSpacePlant(*args, **dict(kwargs,
                                                  sample_every_us=every))
                    .advance for args, kwargs in built]

        def run():
            for i, tick, r, u in calls:
                advances[i](tick, r, u)
        return run
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=50)
    repeat = ap.parse_args(argv).repeat
    steps = SPAN_US // MICRO_US
    samples = SPAN_US // CADENCE_US + 1
    sc = builtin_table1(cpu=resolve_cpu("cpu-2")).with_(duration_s=2.0)
    print(f"one {SPAN_US / 1e6:g} s span at {MICRO_US} us: {steps} micro "
          f"steps, {samples} samples at {CADENCE_US} us")
    for lp in sorted(sc.loops, key=lambda lp: lp.task.id):
        bare = best(one_span(lp.plant, None), repeat)
        traced = best(one_span(lp.plant, CADENCE_US), repeat)
        print(f"loop {lp.task.id} (order {len(lp.plant.den) - 1}): "
              f"{bare / steps * 1e9:6.1f} ns/micro step, "
              f"{(traced - bare) / samples * 1e9:6.1f} ns/sample")
    built, calls = recorded_calls(sc)
    # the calls a run with no trace makes are the same ones
    for label, every in (("1 ms trace", CADENCE_US), ("no trace", None)):
        t = best(replay(built, calls, every), repeat)
        print(f"replay of the 2 s cpu-2 run's {len(calls)} advance calls, "
              f"{label}: {t * 1e3:.2f} ms")
    built, calls = recorded_calls(JITTER_CPU4)
    t = best(replay(built, calls, None), repeat)
    print(f"replay of the jitter-cpu4 seed 1 run's {len(calls)} advance "
          f"calls, no trace: {t * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
