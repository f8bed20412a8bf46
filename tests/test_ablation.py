"""Why criteria 2 and 4 are red: the loop-1-fixed ablation.

README's "Why criteria 2 and 4 are red" puts both failures down to loop 1's
period adaptation.  This runs the five adaptive CPUs for the full 12 s with
loop 1's period fixed (``h_max`` = ``h0``, 10 ms) and no trace, and checks
the explanation as signs and orderings against the builtin runs: with loop
1 fixed, every CPU spends more energy, loop 1 loses less QoC over osDVS,
every E_AVG is within criterion 2's tolerance of its target and the worst
multiple-voltage rise is within criterion 4's bound.  When a later change
breaks the explanation, this test says so.  It is outside the acceptance
gate: the gate judges the builtin scheme, not the ablation.
"""

import pytest

from qapm.scenario import builtin_table1, resolve_cpu
from qapm.sim import run_loop

from test_acceptance import ADAPTIVE, E_TARGETS, MULTI_LEVEL


@pytest.fixture(scope="module")
def loop1_fixed():
    """The 12 s report of each adaptive CPU's run with loop 1's period fixed
    at h0, keyed by CPU name."""
    out = {}
    for cpu in ADAPTIVE:
        sc = builtin_table1(cpu=resolve_cpu(cpu)).with_(trace_cadence_ms=None)
        loops = tuple(lp.with_(task=lp.task.with_(h_max=lp.task.h0))
                      if lp.task.id == 1 else lp for lp in sc.loops)
        out[cpu] = run_loop(sc.with_(loops=loops)).report
    return out


def test_fixing_loop_1_explains_both_reds(bench_runs, loop1_fixed):
    j1_osdvs = bench_runs["osdvs"].report.j[1]

    def rise(rep):
        return (rep.j[1] - j1_osdvs) / j1_osdvs

    for cpu in ADAPTIVE:
        builtin, fixed = bench_runs[cpu].report, loop1_fixed[cpu]
        assert fixed.e_avg > builtin.e_avg, cpu
        assert rise(fixed) < rise(builtin), cpu
        assert abs(fixed.e_avg - E_TARGETS[cpu]) <= 0.08, cpu
        assert fixed.misses == 0, cpu
    assert max(rise(loop1_fixed[cpu]) for cpu in MULTI_LEVEL) < 0.10
