"""Power-manager policy: period adaptation, speed selection, reclaiming.

Oracle values are frozen from hand calculations; the benchmark task set
(c_nom = 2 ms, h0 = 10/7/8/9 ms, h_max = 40/30/30/40 ms) gives a nominal
workload of exactly 1207/1260.
"""

import math
import random

import pytest

from qapm.policy import (
    AdaptationParams,
    ConfigurationError,
    CpuLevels,
    TaskSpec,
    ideal_speed,
    manager,
    quantize_speed,
    reclaim_periods,
)

from conftest import scale_factors

ADAPT = AdaptationParams(beta=40.0, e_min=0.02, e_max=0.3)

# The four benchmark tasks (seconds).
TASKS = (
    TaskSpec(1, 0.002, 0.010, 0.040, ADAPT),
    TaskSpec(2, 0.002, 0.007, 0.030, ADAPT),
    TaskSpec(3, 0.002, 0.008, 0.030, ADAPT),
    TaskSpec(4, 0.002, 0.009, 0.040, ADAPT),
)

CPU1 = CpuLevels((0.5, 1.0), name="cpu-1")
CPU2 = CpuLevels((0.45, 0.64, 0.92, 1.0), name="cpu-2")
IDEAL = CpuLevels((1.0,), ideal=True, name="cpu-ideal")

NOMINAL_WORKLOAD = 1207.0 / 1260.0  # sum of c_nom / h0


# --- period adaptation ----------------------------------------------------

def adapted(e, spec):
    """The period a decision at error ``e`` adapts ``spec``'s loop to."""
    return manager((spec,), IDEAL)(0, e, [spec.h0], [None], [spec.c_nom])[0][0]


def test_scale_factor_steady_state_pins_to_stretch_limit():
    for e in (0.0, 0.01, 0.02):
        assert scale_factors(TASKS[0])(e) == 4.0
        assert scale_factors(TASKS[1])(e) == pytest.approx(30.0 / 7.0)


def test_scale_factor_transient_pins_to_one():
    for e in (0.3, 0.5, 1.0, 100.0):
        assert scale_factors(TASKS[0])(e) == 1.0


def test_scale_factor_interior_oracle():
    # beta=40, thresholds 0.02/0.3, ratio 4:
    # w = (exp(-40*0.10) - exp(-12)) / (exp(-0.8) - exp(-12)), eta = 1 + 3w
    assert scale_factors(TASKS[0])(0.10) == pytest.approx(
        1.1222472609799168, rel=1e-12
    )
    # ratio 30/7 at e = 0.05
    assert scale_factors(TASKS[1])(0.05) == pytest.approx(
        1.9896067274294387, rel=1e-12
    )


def test_scale_factor_equals_the_formula_bit_for_bit():
    # The interpolation's ends are computed once per parameter set, from
    # the same expressions as the factor's own, so the adapted period is
    # the same float as the formula written out in full, clamp included.
    rng = random.Random(9)
    for _ in range(2_000):
        p = AdaptationParams(rng.uniform(0.5, 120.0), rng.uniform(0.0, 0.2),
                             rng.uniform(0.25, 0.6))
        spec = TaskSpec(1, 1.0, 10.0, 10.0 * rng.uniform(1.0, 12.0), p)
        e = rng.uniform(p.e_min, p.e_max)
        lo, hi = math.exp(-p.beta * p.e_max), math.exp(-p.beta * p.e_min)
        w = (math.exp(-p.beta * e) - lo) / (hi - lo)
        h = (w * (spec.stretch_limit - 1.0) + 1.0) * spec.h0
        assert adapted(e, spec) == min(max(h, spec.h0), spec.h_max)
    assert repr(ADAPT) == "AdaptationParams(beta=40.0, e_min=0.02, e_max=0.3)"
    assert ADAPT == AdaptationParams(40.0, 0.02, 0.3)


def test_adapt_period_scales_h0_and_stays_in_range():
    assert adapted(0.10, TASKS[0]) == pytest.approx(0.011222472609799167)
    assert adapted(0.0, TASKS[0]) == 0.040
    assert adapted(1.0, TASKS[0]) == 0.010
    for e in (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 2.0):
        for spec in TASKS:
            h = adapted(e, spec)
            assert spec.h0 <= h <= spec.h_max


def test_scale_factor_properties_randomized():
    # Range, monotonicity, and continuity at the thresholds over 1e5
    # randomized (error, parameters) samples.
    rng = random.Random(20260818)
    for _ in range(100_000):
        beta = rng.uniform(0.5, 120.0)
        e_min = rng.uniform(0.0, 0.4)
        e_max = e_min + rng.uniform(1e-3, 0.6)
        ratio = rng.uniform(1.0, 12.0)
        spec = TaskSpec(1, 1.0, 10.0, 10.0 * ratio,
                        AdaptationParams(beta, e_min, e_max))
        e1 = rng.uniform(0.0, e_max * 1.5)
        e2 = rng.uniform(0.0, e_max * 1.5)
        factor = scale_factors(spec)
        f1 = factor(e1)
        f2 = factor(e2)
        assert 1.0 - 1e-12 <= f1 <= ratio + 1e-12
        if e1 < e2:  # non-increasing in the error
            assert f1 >= f2 - 1e-9
        elif e2 < e1:
            assert f2 >= f1 - 1e-9
        # continuity where the exponential meets the clamps
        assert abs(factor(e_min) - ratio) <= 1e-9 * ratio
        assert abs(factor(e_max) - 1.0) <= 1e-9


def test_scale_factor_local_continuity():
    factor = scale_factors(TASKS[0])
    rng = random.Random(7)
    for _ in range(2000):
        e = rng.uniform(0.0, 0.4)
        d = 1e-9
        assert abs(factor(e + d) - factor(e)) < 1e-6


# --- ideal speed ----------------------------------------------------------

def test_ideal_speed_oracles():
    assert ideal_speed((t.c_nom, t.h0) for t in TASKS) == pytest.approx(
        NOMINAL_WORKLOAD, rel=1e-15
    )
    assert ideal_speed((t.c_nom, t.h_max) for t in TASKS) == pytest.approx(
        7.0 / 30.0, rel=1e-15
    )
    assert ideal_speed([(2.0, 10.0)]) == pytest.approx(0.2)


# --- quantization ---------------------------------------------------------

def test_quantize_picks_smallest_sufficient_level():
    assert quantize_speed(0.70, CPU2) == 0.92
    assert quantize_speed(0.30, CPU1) == 0.5
    assert quantize_speed(0.97, CPU1) == 1.0


def test_quantize_exact_level_match():
    assert quantize_speed(0.64, CPU2) == 0.64
    # tiny float excess must not bump to the next level
    assert quantize_speed(0.64 + 1e-13, CPU2) == 0.64


def test_quantize_ideal_passthrough():
    assert quantize_speed(NOMINAL_WORKLOAD, IDEAL) == NOMINAL_WORKLOAD
    assert quantize_speed(0.123456, IDEAL) == 0.123456


def test_quantize_matches_bruteforce_on_random_level_sets():
    rng = random.Random(42)
    for _ in range(10_000):
        n = rng.randint(1, 9)
        levels = sorted(set(round(rng.uniform(0.05, 0.99), 3) for _ in range(n)))
        levels.append(1.0)
        cpu = CpuLevels(tuple(levels))
        # a random demand, and demands on both sides of each level's
        # tolerance band (EXACT_LEVEL_TOL = 1e-12)
        demands = [rng.uniform(1e-3, 1.0)]
        for lvl in cpu.levels:
            demands += [lvl - 2e-12, lvl - 0.5e-12, lvl + 0.5e-12, lvl + 2e-12]
        for a in demands:
            expect = min(l for l in cpu.levels if l >= min(a, 1.0) - 1e-12)
            assert quantize_speed(a, cpu) == expect, (a, cpu.levels)


def test_quantize_idempotent_and_monotone_under_refinement():
    rng = random.Random(99)
    for _ in range(2000):
        base = sorted(set(round(rng.uniform(0.1, 0.95), 3) for _ in range(4)))
        coarse = CpuLevels(tuple(base + [1.0]))
        extra = sorted(set(base + [round(rng.uniform(0.1, 0.95), 3)
                                   for _ in range(3)]))
        fine = CpuLevels(tuple(extra + [1.0]))
        a = rng.uniform(0.05, 1.0)
        qc = quantize_speed(a, coarse)
        qf = quantize_speed(a, fine)
        # a level set that is a superset never selects a higher speed
        assert qf <= qc + 1e-15
        # quantized speeds are fixed points
        assert quantize_speed(qc, coarse) == qc
        assert quantize_speed(qf, fine) == qf


# --- reclaiming -----------------------------------------------------------

def test_reclaim_oracle_steady_on_two_level_cpu():
    # all periods at h_max: workload 7/30, quantized to 0.5 on cpu-1,
    # scale = (7/30)/0.5 = 7/15
    eff = reclaim_periods((0.040, 0.030, 0.030, 0.040), 7.0 / 30.0, 0.5)
    expect = (0.018666666666666668, 0.014, 0.014, 0.018666666666666668)
    assert eff == pytest.approx(expect, rel=1e-12)


def test_reclaim_oracle_nominal_at_full_speed():
    eff = reclaim_periods((0.010, 0.007, 0.008, 0.009), NOMINAL_WORKLOAD, 1.0)
    expect = (0.009579365079365079, 0.006705555555555556,
              0.007663492063492064, 0.008621428571428572)
    assert eff == pytest.approx(expect, rel=1e-12)
    # reclaiming may push periods below their nominal values
    assert all(e < h for e, h in zip(eff, (0.010, 0.007, 0.008, 0.009)))


def test_reclaim_identity_when_speed_matches_workload():
    base = (0.040, 0.030, 0.030, 0.040)
    assert reclaim_periods(base, 7.0 / 30.0, 7.0 / 30.0) == pytest.approx(base)


def test_reclaim_restores_full_utilization_randomized():
    # After reclaiming, sum(c_i / h_i) / alpha == 1 to within 1e-9,
    # over 1e4 randomized task sets and level sets.
    rng = random.Random(1207)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        cs = [rng.uniform(1e-4, 5e-3) for _ in range(n)]
        hs = [c / rng.uniform(0.01, 0.9 / n) for c in cs]
        ai = ideal_speed(zip(cs, hs))
        if ai > 1.0:
            continue
        lv = sorted(set(round(rng.uniform(0.05, 0.99), 3) for _ in range(5)))
        cpu = CpuLevels(tuple(lv + [1.0]))
        alpha = quantize_speed(ai, cpu)
        eff = reclaim_periods(hs, ai, alpha)
        u = sum(c / h for c, h in zip(cs, eff))
        assert abs(u / alpha - 1.0) <= 1e-9


# --- one full decision ------------------------------------------------------

C_NOM = [t.c_nom for t in TASKS]
NOT_RELEASED = [None] * len(TASKS)


def test_decide_steady_state_ideal_cpu():
    base = [t.h_max for t in TASKS]
    decide = manager(TASKS, IDEAL)
    b, periods, ticks, ai, alpha = decide(0, 0.01, base, NOT_RELEASED, C_NOM)
    assert ai == pytest.approx(7.0 / 30.0, rel=1e-12)
    assert alpha == ai
    # at matched speed the reclaimed periods equal the adapted ones
    assert periods == pytest.approx(b, rel=1e-12)
    assert ticks == 40_000


def test_decide_transient_ideal_cpu():
    base = [t.h0 for t in TASKS]
    decide = manager(TASKS, IDEAL)
    b, _, _, _, alpha = decide(0, 0.5, base, NOT_RELEASED, C_NOM)
    assert b[0] == TASKS[0].h0
    assert alpha == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)


def test_decide_steady_state_two_level_cpu():
    base = [t.h_max for t in TASKS]
    decide = manager(TASKS, CPU1)
    _, periods, ticks, _, alpha = decide(0, 0.0, base, NOT_RELEASED, C_NOM)
    assert alpha == 0.5
    assert periods[1:] == pytest.approx(
        [0.014, 0.014, 0.018666666666666668], rel=1e-12)
    # the trigger's reclaimed period, rounded half-up to the tick
    assert ticks == 18_667
    assert periods[0] == 18_667 * 1e-6


def test_decide_only_trigger_period_readapted():
    base = [0.020, 0.010, 0.012, 0.030]
    b = manager(TASKS, IDEAL)(2, 0.0, base, NOT_RELEASED, C_NOM)[0]
    assert b[0] == base[0]
    assert b[1] == base[1]
    assert b[3] == base[3]
    assert b[2] == TASKS[2].h_max


def test_decide_work_override():
    base = [t.h0 for t in TASKS]
    ai = manager(TASKS, IDEAL)(0, 0.01, base, NOT_RELEASED,
                               [0.004, 0.002, 0.002, 0.002])[3]
    # trigger parks at h_max; the drawn work doubles its share
    assert ai == pytest.approx(
        0.004 / 0.040 + 0.002 / 0.007 + 0.002 / 0.008 + 0.002 / 0.009
    )


# --- covering the job windows in flight -------------------------------------

def fixed(tid, c_nom, h0, h_max=None):
    """A task whose period adapts only when ``h_max`` is given."""
    return TaskSpec(tid, c_nom, h0, h0 if h_max is None else h_max, ADAPT)


def test_in_flight_demand_counts_old_period_of_jobs_in_flight():
    # Loop 1 is released at 10 ms; loop 2's job in flight has a 4 ms window
    # although its planned period is 8 ms, so it counts at 2/4 and the
    # ideal CPU runs at 0.2 + 0.5 instead of the workload 0.2 + 0.25.  The
    # trigger's own job in flight does not count.
    specs = (fixed(1, 0.002, 0.010), fixed(2, 0.002, 0.008))
    base, work = [0.010, 0.008], [0.002, 0.002]
    decide = manager(specs, IDEAL)
    _, periods, _, ai, alpha = decide(0, 0.5, base, [20_000, 4_000], work)
    assert ai == pytest.approx(0.2 + 0.25)
    assert alpha == pytest.approx(0.2 + 0.5)
    assert periods == base  # a raised speed reclaims nothing more
    # a longer window in flight counts as it is and raises nothing
    alpha = manager(specs, IDEAL)(0, 0.5, base, [None, 16_000], work)[4]
    assert alpha == pytest.approx(0.2 + 0.25)


def test_in_flight_demand_unreleased_loop_counts_at_new_period():
    # On cpu-1 the workload 0.45 runs at 0.5 with both periods reclaimed
    # by 0.9; a loop not released yet counts at its reclaimed period, so
    # the demand is exactly the level.
    specs = (fixed(1, 0.002, 0.010), fixed(2, 0.002, 0.008))
    _, periods, ticks, _, alpha = manager(specs, CPU1)(
        0, 0.5, [0.010, 0.008], [None, None], [0.002, 0.002])
    assert alpha == 0.5
    assert ticks == 9_000
    assert periods == pytest.approx([0.009, 0.0072], rel=1e-12)


def test_in_flight_demand_equals_workload_when_nothing_changed():
    base = [t.h0 for t in TASKS]
    in_flight = [round(t.h0 * 1e6) for t in TASKS]
    _, _, _, ai, alpha = manager(TASKS, IDEAL)(2, 1.0, base, in_flight, C_NOM)
    assert alpha == ai == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)


def test_cover_demand_keeps_speed_that_already_covers():
    # Workload 0.4 runs at 0.45 on cpu-2; the demand 0.225 + 0.2 fits.
    specs = (fixed(1, 0.002, 0.010), fixed(2, 0.002, 0.010))
    alpha = manager(specs, CPU2)(0, 0.5, [0.010, 0.010], [None, 10_000],
                                 [0.002, 0.002])[4]
    assert alpha == 0.45


def test_cover_demand_raises_to_lowest_covering_level():
    # The same set with loop 2's 4 ms window in flight: 0.225 + 0.5 needs
    # 0.92; a 2 ms window needs more than full speed.
    specs = (fixed(1, 0.002, 0.010), fixed(2, 0.002, 0.010))
    base, work = [0.010, 0.010], [0.002, 0.002]
    assert manager(specs, CPU2)(0, 0.5, base, [None, 4_000], work)[4] == 0.92
    assert manager(specs, CPU2)(0, 0.5, base, [None, 2_000], work)[4] == 1.0


def test_fit_period_fills_the_free_capacity():
    # Loop 1's 2 ms at 4 ms beside loop 2's window of 3 ms in 4 ms is 1.25
    # of full speed: loop 1's period is lengthened to 8 ms, where its job
    # fits the free quarter.
    specs = (fixed(1, 0.002, 0.004, 0.040), fixed(2, 0.003, 0.012))
    base, work = [0.004, 0.012], [0.002, 0.003]
    decide = manager(specs, IDEAL)
    _, periods, ticks, _, alpha = decide(0, 0.5, base, [None, 4_000], work)
    assert (ticks, periods[0], alpha) == (8_000, 0.008, 1.0)
    # capped at h_max when even that does not fit
    for window in (3_100, 2_000):
        _, periods, ticks, _, alpha = decide(0, 0.5, base, [None, window],
                                             work)
        assert (ticks, periods[0], alpha) == (40_000, 0.040, 1.0)


def test_saturated_workload_runs_at_full_speed_without_reclaiming():
    specs = (fixed(1, 0.006, 0.010), fixed(2, 0.006, 0.010))
    base = [0.010, 0.010]
    b, periods, ticks, ai, alpha = manager(specs, CPU2)(
        1, 0.5, base, [None, None], [0.006, 0.006])
    assert ai == pytest.approx(1.2)
    assert alpha == 1.0
    assert ticks == 10_000
    assert periods == b == base


def test_fixed_period_modes_keep_nominal_periods():
    base = [t.h_max for t in TASKS]
    for mode, expect in (("osdvs", NOMINAL_WORKLOAD), ("dvs-only", 1.0)):
        decide = manager(TASKS, CPU1, mode)
        b, periods, ticks, ai, alpha = decide(0, 0.0, base, NOT_RELEASED,
                                              C_NOM)
        assert b == periods == [t.h0 for t in TASKS]
        assert ticks == 10_000
        assert ai == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)
        assert alpha == pytest.approx(expect, rel=1e-12)


# --- schedulability and construction checks --------------------------------

def test_adaptation_never_breaks_schedulability():
    # Period adaptation only stretches periods, so any feasible nominal
    # set stays feasible whatever the errors are.
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 5)
        specs = []
        for i in range(n):
            h0 = rng.uniform(0.004, 0.05)
            c = h0 * rng.uniform(0.01, 0.9 / n)
            specs.append(TaskSpec(i + 1, c, h0, h0 * rng.uniform(1.0, 6.0), ADAPT))
        u0 = ideal_speed((s.c_nom, s.h0) for s in specs)
        if u0 > 1.0:
            continue
        hs = [adapted(rng.uniform(0.0, 0.5), s) for s in specs]
        assert ideal_speed(
            (s.c_nom, h) for s, h in zip(specs, hs)
        ) <= 1.0 + 1e-9


def test_adaptation_params_validation():
    with pytest.raises(ConfigurationError):
        AdaptationParams(beta=0.0, e_min=0.02, e_max=0.3)
    with pytest.raises(ConfigurationError):
        AdaptationParams(beta=-1.0, e_min=0.02, e_max=0.3)
    with pytest.raises(ConfigurationError):
        AdaptationParams(beta=40.0, e_min=0.3, e_max=0.3)
    with pytest.raises(ConfigurationError):
        AdaptationParams(beta=40.0, e_min=0.5, e_max=0.3)
    # a beta whose interpolation ends coincide: both 1.0, both 0.0
    for beta in (1.0e-300, 1.0e5):
        with pytest.raises(ConfigurationError, match=r"^beta must make .* "
                           rf"differ, got beta={beta}"):
            AdaptationParams(beta=beta, e_min=0.02, e_max=0.3)


def test_task_spec_validation():
    with pytest.raises(ConfigurationError):
        TaskSpec(1, 0.008, 0.007, 0.030, ADAPT)  # c_nom > h0
    with pytest.raises(ConfigurationError):
        TaskSpec(1, 0.002, 0.010, 0.009, ADAPT)  # h_max < h0
    with pytest.raises(ConfigurationError):
        TaskSpec(1, 0.0, 0.010, 0.040, ADAPT)


def test_cpu_levels_validation():
    with pytest.raises(ConfigurationError):
        CpuLevels((1.0, 0.5))  # not ascending
    with pytest.raises(ConfigurationError):
        CpuLevels((0.5, 0.9))  # top level must be 1.0
    with pytest.raises(ConfigurationError):
        CpuLevels(())
    with pytest.raises(ConfigurationError):
        CpuLevels((0.5, 0.5, 1.0))  # duplicates


def test_stretch_limit():
    assert TASKS[0].stretch_limit == 4.0
    assert TASKS[1].stretch_limit == pytest.approx(30.0 / 7.0)
