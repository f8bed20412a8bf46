"""Shared fixtures.

The six benchmark runs (osDVS baseline plus the five processor variants
under the full scheme) are expensive enough to run once per session and
share between the simulator tests and the acceptance gate.
"""

import pytest

from qapm.cli import SWEEP_CASES
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
