"""Shared fixtures.

The six benchmark runs (osDVS baseline plus the five processor variants
under the full scheme) are expensive enough to run once per session and
share between the simulator tests and the acceptance gate.  `long_rows`
lays a trace out one row per loop per visit, for the tests that read a
loop's values over time.  `scale_factors` reads the period adaptation
law through the bound power manager.
"""

import pytest

from qapm.cli import SWEEP_CASES
from qapm.policy import CpuLevels, manager
from qapm.scenario import builtin_table1, resolve_cpu
from qapm.sim import run_loop


@pytest.fixture(scope="session")
def bench_runs():
    """Dict of the six benchmark SimResults, keyed per `cli.SWEEP_CASES`."""
    out = {}
    for key, mode, cpu in SWEEP_CASES:
        sc = builtin_table1(cpu=resolve_cpu(cpu), mode=mode)
        out[key] = run_loop(sc)
    return out


@pytest.fixture
def overload_scenario():
    """A 2 s table1 run on cpu-2 that no speed or period choice can serve.

    Every loop's period is pinned at h0 (h_max = h0), and execution times
    vary by +/-50 %, so the demand often exceeds full speed at the longest
    period allowed and deadlines are missed.
    """
    sc = builtin_table1(cpu=resolve_cpu("cpu-2"))
    loops = tuple(
        lp.with_(task=lp.task.with_(h_max=lp.task.h0))
        for lp in sc.loops
    )
    return sc.with_(loops=loops, c_jitter=0.5, seed=3, duration_s=2.0)


def long_rows(trace):
    """The trace as one tuple per loop per visit, visit by visit and loops
    in task-id order: (time_s, loop id, r, y, e, u, h_eff_ms, alpha,
    energy_inst), with time_s = tick * 1e-6, e = r - y, h_eff_ms =
    h * 1000.0 and energy_inst = alpha * alpha."""
    ids = [lid for lid, _ in trace.loops]
    return [(tick * 1e-6, lid, r, y, r - y, u, h * 1000.0, alpha,
             alpha * alpha)
            for (tick, r, alpha, periods, us), ys in zip(
                trace.visits, zip(*[y for _, y in trace.loops]))
            for lid, y, u, h in zip(ids, ys, us, periods)]


def scale_factors(spec):
    """The period a decision at error e adapts ``spec``'s loop to, over
    h0, as a function of e; the loop is alone on an ideal CPU."""
    decide = manager((spec,), CpuLevels((1.0,), ideal=True))
    args = [spec.h0], [None], [spec.c_nom]
    return lambda e: decide(0, e, *args)[0][0] / spec.h0
