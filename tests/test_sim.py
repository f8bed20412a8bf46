"""Event-driven co-simulation: EDF dispatch, timing semantics, accounting.

Beyond unit oracles, post-hoc audits reconstruct the schedule from the
recorded segments, released jobs and speed changes and check that every
dispatch decision was earliest-deadline-first, that the processor never
idled while work was pending, and that each job was served its work.
"""

import bisect
import hashlib
import random
import re

import pytest

from qapm import sim
from qapm.cli import SWEEP_CASES
from qapm.pid import Pid, PidGains
from qapm.plant import DivergenceError, TransferFunction, tf_to_state_space
from qapm.policy import AdaptationParams, ConfigurationError, CpuLevels, TaskSpec
from qapm.scenario import MODES, LoopSpec, Scenario, builtin_table1, resolve_cpu
from qapm.sim import _RESIDUE_TICKS, run_loop

from conftest import long_rows

NOMINAL_WORKLOAD = 1207.0 / 1260.0


# --- EDF dispatch ------------------------------------------------------------

def busy_idle(res):
    """(busy, idle) ticks of a run: the served time its segments cover and
    the rest of its duration."""
    busy = sum(e - s for s, e, _ in res.segments)
    return busy, round(res.report.duration_s * 1e6) - busy


def two_loops(*tasks):
    """A 20 ms run of one loop per (task id, c_nom, h0), in that order, at
    full speed with fixed periods."""
    base = builtin_table1().loops[0]
    loops = tuple(base.with_(task=base.task.with_(id=i, c_nom=c, h0=h))
                  for i, c, h in tasks)
    return run_loop(Scenario(name="two", loops=loops,
                             cpu=CpuLevels((1.0,), name="full"),
                             mode="dvs-only", duration_s=0.02))


# A 2 ms job every 10 ms and a 12 ms job every 20 ms: both release at 0,
# and the short loop's second job, released at 10 ms, has the long job's
# deadline, 20 ms.
SHORT, LONG = (0.002, 0.01), (0.012, 0.02)


def test_edf_runs_the_earliest_deadline_first():
    # At 0 the short loop's job (deadline 10 ms) runs first, though the
    # long loop has the lower task id.
    res = two_loops((1, *LONG), (2, *SHORT))
    assert res.segments[0] == (0, 2000, 2)


def test_edf_tie_goes_to_the_earlier_release():
    # At 10 ms the long loop's job (released at 0, task id 2) keeps the CPU
    # against the short loop's second job (released at 10 ms, task id 1).
    res = two_loops((1, *SHORT), (2, *LONG))
    assert res.segments == [(0, 2000, 1), (2000, 14_000, 2),
                            (14_000, 16_000, 1)]
    assert res.report.misses == 0
    # Equal deadlines and releases: the lower task id runs first, whatever
    # the scenario's order.
    res = two_loops((2, *SHORT), (1, *SHORT))
    assert res.segments[:2] == [(0, 2000, 1), (2000, 4000, 2)]


def test_cpu_idles_when_no_job_is_ready():
    # Every job released before 20 ms is done at 16 ms; the jobs released
    # at the final instant get no service.
    res = two_loops((1, *SHORT), (2, *LONG))
    assert res.segments[-1][1] == 16_000
    assert busy_idle(res) == (16_000, 4000)
    assert [j.completion for j in res.jobs] == [2000, 14_000, 16_000,
                                                None, None]


# --- closed-form single-loop runs ---------------------------------------------

def one_loop(cpu, mode, **over):
    sc = Scenario(name="one", loops=(builtin_table1().loops[0],), cpu=cpu,
                  mode=mode, duration_s=2.0)
    return run_loop(sc.with_(**over) if over else sc)


def test_single_loop_reclaimed_to_full_utilization():
    # One 2 ms task on a {0.5, 1.0} processor: the workload never needs
    # more than alpha = 0.5, and reclaiming always pins the period at
    # c_nom / alpha = 4 ms.  The processor is busy 100% of the time, every
    # job finishes exactly at its deadline, and E_AVG = 0.5^2.
    res = one_loop(resolve_cpu("cpu-1"), "qapm")
    assert busy_idle(res) == (2_000_000, 0)
    assert res.report.misses == 0
    assert len(res.jobs) == 501
    assert {j.deadline - j.release for j in res.jobs} == {4000}
    assert all(j.completion == j.deadline for j in res.jobs
               if j.completion is not None)
    assert res.report.e_avg == pytest.approx(0.25, rel=1e-9)


def test_single_loop_fixed_full_speed():
    # dvs-only on a one-level processor: period stays at h0 = 10 ms and
    # each 2 ms job runs in exactly 2000 ticks.
    res = one_loop(CpuLevels((1.0,), name="full"), "dvs-only")
    assert len(res.jobs) == 201
    assert {j.deadline - j.release for j in res.jobs} == {10_000}
    assert {j.completion - j.release for j in res.jobs
            if j.completion is not None} == {2000}
    assert res.report.e_avg == pytest.approx(1.0)
    assert busy_idle(res)[0] == 400_000


def test_single_loop_dvs_only_halves_speed():
    # Same workload quantized onto {0.5, 1.0}: alpha = 0.5, so the same
    # job takes 4000 ticks and energy drops to a quarter.
    res = one_loop(resolve_cpu("cpu-1"), "dvs-only")
    assert {j.completion - j.release for j in res.jobs
            if j.completion is not None} == {4000}
    assert {j.deadline - j.release for j in res.jobs} == {10_000}
    assert res.report.e_avg == pytest.approx(0.25, rel=1e-9)
    assert {a for _, a in res.report.speed_changes} == {1.0, 0.5}


# --- execution-time jitter and overload handling -------------------------------

def test_jitter_misses_recorded_and_run_continues(overload_scenario):
    res = run_loop(overload_scenario)
    rep = res.report
    assert rep.misses == 694
    assert len(res.jobs) == 1007
    # a missed job is one that was still unfinished past its deadline
    missed = [j for j in res.jobs if j.missed]
    assert len(missed) >= 1
    for j in missed:
        assert j.completion is None or j.completion > j.deadline
    # the run keeps releasing jobs to the very end
    assert max(j.release for j in res.jobs) > 1_900_000


def test_jitter_overload_saturates_at_full_speed():
    # With +/-20% execution noise the instantaneous demand can exceed
    # capacity; the manager then pins alpha = 1 instead of failing.
    sc = builtin_table1(cpu=resolve_cpu("cpu-2")).with_(
        duration_s=2.0, c_jitter=0.2, seed=3)
    rep = run_loop(sc).report
    saturated = [(ai, a) for _, ai, a in rep.utilization if ai > 1.0]
    assert len(saturated) == 48
    assert all(a == 1.0 for _, a in saturated)
    assert {a for _, a in rep.speed_changes} <= {0.45, 0.64, 0.92, 1.0}


# --- schedule audits -----------------------------------------------------------

def edf_key(j):
    return (j.deadline, j.release, j.task_id)


def reconstruct(res):
    """(sorted segments, jobs sorted by release, per-task release index)."""
    segments = sorted(res.segments)
    jobs = sorted(res.jobs, key=lambda j: j.release)
    by_task = {}
    for j in res.jobs:
        by_task.setdefault(j.task_id, []).append(j)
    for js in by_task.values():
        js.sort(key=lambda j: j.release)
    return segments, jobs, by_task


def running_job(by_task, task_id, t):
    """The job of ``task_id`` whose execution window covers time t."""
    js = by_task[task_id]
    i = bisect.bisect_right([j.release for j in js], t) - 1
    while i >= 0:
        j = js[i]
        if j.completion is None or j.completion > t:
            return j
        i -= 1
    raise AssertionError(f"no active job of task {task_id} at {t}")


@pytest.fixture(scope="module")
def audit_run():
    sc = builtin_table1(cpu=resolve_cpu("cpu-1")).with_(duration_s=2.0)
    return run_loop(sc)


@pytest.fixture(scope="module")
def audit_run_cpu2():
    sc = builtin_table1(cpu=resolve_cpu("cpu-2")).with_(duration_s=2.0)
    return run_loop(sc)


def test_every_dispatch_is_edf(audit_run):
    segments, jobs, by_task = reconstruct(audit_run)
    releases = [j.release for j in jobs]
    add = 0
    active = []
    for s, e, tid in segments:
        while add < len(jobs) and jobs[add].release <= s:
            active.append(jobs[add])
            add += 1
        active = [j for j in active if j.completion is None or j.completion > s]
        run = running_job(by_task, tid, s)
        best = min(edf_key(j) for j in active)
        assert edf_key(run) == best, f"segment at {s} runs {tid}, not the EDF pick"
        # jobs released while this segment kept running must not have had
        # a tighter deadline than the job it kept running
        lo = bisect.bisect_right(releases, s)
        hi = bisect.bisect_left(releases, e)
        for j in jobs[lo:hi]:
            assert edf_key(j) > edf_key(run), (
                f"missed preemption at {j.release} inside segment ({s},{e})"
            )


def test_work_conserving(audit_run):
    segments, jobs, _ = reconstruct(audit_run)
    end_tick = round(audit_run.report.duration_s * 1e6)
    gaps = []
    prev = 0
    for s, e, _ in segments:
        if s > prev:
            gaps.append((prev, s))
        prev = max(prev, e)
    if prev < end_tick:
        gaps.append((prev, end_tick))
    for g0, g1 in gaps:
        for j in jobs:
            pending = j.release <= g0 and (j.completion is None
                                           or j.completion > g0)
            assert not pending, f"idle at {g0} with job {j.task_id} pending"
            assert not (g0 < j.release < g1), (
                f"release at {j.release} inside idle gap ({g0},{g1})"
            )


def test_segments_partition_busy_time(audit_run):
    segments = sorted(audit_run.segments)
    assert all(s < e for s, e, _ in segments)
    assert all(a[1] <= b[0] for a, b in zip(segments, segments[1:]))
    assert 0 <= segments[0][0] and segments[-1][1] <= 2_000_000


def speed_integral(changes, t0, t1):
    """Integral of alpha dt in seconds over ticks [t0, t1]."""
    total = 0.0
    for (start, alpha), (end, _) in zip(changes, changes[1:] + [(t1, None)]):
        lo, hi = max(start, t0), min(end, t1)
        if lo < hi:
            total += alpha * (hi - lo) * 1e-6
    return total


def test_each_job_is_served_its_work(audit_run, audit_run_cpu2):
    # Rebuilt from the outputs alone: the service a job received is the
    # speed integrated over its task's segments between its release and
    # its completion.  That must be its nominal work, short by at most the
    # residue a completion rounds away, the bound the simulator checks
    # itself (no switch stalls here).
    for res in (audit_run, audit_run_cpu2):
        assert res.report.misses == 0  # so a task's segments are one job's
        changes = res.report.speed_changes
        c_nom = {lp.task.id: lp.task.c_nom for lp in builtin_table1().loops}
        segments = {}
        for s, e, tid in res.segments:
            segments.setdefault(tid, []).append((s, e))
        ticks = [t for t, _ in changes]
        done = [j for j in res.jobs if j.completion is not None]
        assert len(done) > 600
        for j in done:
            served = sum(speed_integral(changes, max(s, j.release),
                                        min(e, j.completion))
                         for s, e in segments[j.task_id]
                         if s < j.completion and e > j.release)
            alpha = changes[bisect.bisect_right(ticks, j.completion) - 1][1]
            assert served == pytest.approx(
                c_nom[j.task_id], abs=alpha * _RESIDUE_TICKS * 1e-6), (
                f"{res.report.cpu}: job of task {j.task_id} released at "
                f"{j.release} served {served!r}s")


# --- timing invariants on the benchmark runs ------------------------------------

def test_deadline_equals_next_release(bench_runs):
    # The deadline assigned at release is also the next release time of
    # the same task, for every job and every run.
    for res in bench_runs.values():
        by_task = {}
        for j in res.jobs:
            by_task.setdefault(j.task_id, []).append(j)
        for js in by_task.values():
            js.sort(key=lambda j: j.release)
            for a, b in zip(js, js[1:]):
                assert a.deadline == b.release


def test_time_accounting(bench_runs):
    for res in bench_runs.values():
        busy, idle = busy_idle(res)
        assert busy > 0 and idle >= 0 and busy + idle == 12_000_000


def test_osdvs_runs_at_constant_nominal_workload(bench_runs):
    rep = bench_runs["osdvs"].report
    assert rep.speed_changes[0] == (0, 1.0)
    assert len(rep.speed_changes) == 2
    tick, alpha = rep.speed_changes[1]
    assert tick == 0
    assert alpha == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)
    for _, ai, a in rep.utilization:
        assert a == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)
        assert ai == pytest.approx(NOMINAL_WORKLOAD, rel=1e-12)


def test_osdvs_keeps_nominal_periods(bench_runs):
    expect = {1: 10_000, 2: 7_000, 3: 8_000, 4: 9_000}
    for j in bench_runs["osdvs"].jobs:
        assert j.deadline - j.release == expect[j.task_id]


def test_adaptive_speeds_stay_on_the_level_set(bench_runs):
    for name, levels in (("cpu-1", {0.5, 1.0}),
                         ("cpu-2", {0.45, 0.64, 0.92, 1.0})):
        rep = bench_runs[name].report
        assert {a for _, a in rep.speed_changes} <= levels
        assert all(a in levels for _, _, a in rep.utilization)


def test_first_periods_reclaimed_from_nominal(bench_runs):
    # At t = 0 every error is at its transient maximum, so base periods sit
    # at h0; on a discrete CPU the workload 1207/1260 quantizes to 1.0 and
    # reclaiming scales all periods by 1207/1260 (9579.4, 6705.6, 7663.5 and
    # 8621.4 us).  Rounded to the nearest tick, all four would need a speed
    # of 1.000016.  Loop 1 is released first, and its 9579 us would not fit
    # at full speed beside the others' planned periods, so it is lengthened
    # to 9580 us; after that the other three fit at their rounded periods.
    first = {j.task_id: j for j in bench_runs["cpu-1"].jobs if j.release == 0}
    assert {tid: j.deadline for tid, j in first.items()} == {
        1: 9580, 2: 6706, 3: 7663, 4: 8621,
    }
    assert sum(2000 / j.deadline for j in first.values()) <= 1.0
    # the ideal processor runs exactly at the workload, so nothing is
    # reclaimed and the first periods are the nominal ones
    first = {j.task_id: j for j in bench_runs["cpu-ideal"].jobs if j.release == 0}
    assert {tid: j.deadline for tid, j in first.items()} == {
        1: 10_000, 2: 7_000, 3: 8_000, 4: 9_000,
    }


def test_periods_never_exceed_h_max(bench_runs):
    h_max_ticks = {1: 40_000, 2: 30_000, 3: 30_000, 4: 40_000}
    for res in bench_runs.values():
        for j in res.jobs:
            assert 0 < j.deadline - j.release <= h_max_ticks[j.task_id]


def test_period_stats_match_job_counts(bench_runs):
    for res in bench_runs.values():
        per_task = {}
        for j in res.jobs:
            per_task[j.task_id] = per_task.get(j.task_id, 0) + 1
        for tid, stats in res.report.period_stats_ms.items():
            assert stats["count"] == per_task[tid]
            assert 0 < stats["min"] <= stats["mean"] <= stats["max"]


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_report_sums_run_left_to_right(bench_runs):
    # Python 3.12 made sum() compensated; the report adds left to right,
    # so its unrounded figures are the same under every interpreter.  A
    # loop's period in force is its nominal h0 under osDVS, and its job's
    # window in whole ticks under the full scheme.
    h0 = {lp.task.id: lp.task.h0 for lp in builtin_table1().loops}
    for name, res in bench_runs.items():
        rep = res.report
        assert rep.j_sum == left_to_right(rep.j.values()), name
        ms = {}
        for j in res.jobs:
            h = h0[j.task_id] if name == "osdvs" else (j.deadline - j.release) * 1e-6
            ms.setdefault(j.task_id, []).append(h * 1000.0)
        for tid, values in ms.items():
            mean = left_to_right(values) / len(values)
            assert rep.period_stats_ms[tid]["mean"] == mean, (name, tid)


def count_advances(monkeypatch):
    """A list that records (label, span, tick) for every call the run makes
    of a plant's kernel entry, ``advance(tick, r, u)``."""
    calls = []
    build = sim.tf_to_state_space

    def counted_plant(*args, **kwargs):
        plant = build(*args, **kwargs)
        advance = plant.advance

        def counted(tick, r, u):
            span = tick - plant.time_us
            y = advance(tick, r, u)
            calls.append((plant.label, span, tick))
            return y

        plant.advance = counted
        return plant

    monkeypatch.setattr(sim, "tf_to_state_space", counted_plant)
    return calls


@pytest.mark.parametrize("cpu", ["cpu-1", "cpu-2", "cpu-ideal"])
def test_results_do_not_depend_on_trace_cadence(cpu, monkeypatch):
    # A trace sample observes the run and changes nothing in it; not even
    # how the plants' spans are cut, so the kernel calls are the same.
    calls = count_advances(monkeypatch)
    sc = builtin_table1(cpu=resolve_cpu(cpu)).with_(duration_s=2.0)
    first = None
    for cadence in (0.25, 0.5, 1.0, 2.0, 10.0, None):
        calls.clear()
        res = run_loop(sc.with_(trace_cadence_ms=cadence))
        assert len(long_rows(res.trace)) == (
            0 if cadence is None else (round(2000 / cadence) + 1) * 4)
        seen = (
            calls[:],
            [(j.task_id, j.release, j.deadline, j.completion, j.missed)
             for j in res.jobs],
            res.report.speed_changes,
            res.report.utilization,
            res.report.misses,
            res.report.j,  # exact floats, not only their 6 digits in the JSON
            res.report.to_json(),  # the bytes write_json puts in report.json
        )
        if first is None:
            first = seen
        else:
            assert seen == first, f"{cpu}: trace cadence {cadence} ms differs"


def test_trace_rows_do_not_depend_on_cadence():
    # Each row is the same bit for bit whichever cadence samples its tick.
    sc = builtin_table1(cpu=resolve_cpu("cpu-2")).with_(duration_s=2.0)
    fine = long_rows(run_loop(sc.with_(trace_cadence_ms=0.25)).trace)
    rows = long_rows(run_loop(sc).trace)
    assert len(rows) == 2001 * 4
    every_4th_tick = [row for i, row in enumerate(fine) if i // 4 % 4 == 0]
    assert [repr(r) for r in rows] == [repr(r) for r in every_4th_tick]


def test_report_iae_is_each_plants_running_sum(monkeypatch):
    plants = []

    def capture(*args, **kwargs):
        plants.append(tf_to_state_space(*args, **kwargs))
        return plants[-1]

    monkeypatch.setattr("qapm.sim.tf_to_state_space", capture)
    sc = builtin_table1(cpu=resolve_cpu("cpu-2")).with_(
        duration_s=2.0, trace_cadence_ms=0.25)
    res = run_loop(sc)
    j = res.report.j
    assert j == {lp.task.id: p.iae for lp, p in zip(sc.loops, plants)}
    # Independent check: the trapezoid integral of |e| over the trace.
    for lid in j:
        rows = [(t, abs(e)) for t, loop, _, _, e, *_ in long_rows(res.trace)
                if loop == lid]
        trace_iae = sum((t1 - t0) * (e0 + e1) / 2
                        for (t0, e0), (t1, e1) in zip(rows, rows[1:]))
        assert trace_iae == pytest.approx(j[lid], rel=1e-3)


def test_reference_is_a_square_wave_from_one():
    # r steps 0 -> 1 at t = 0 and toggles every perturbation_s = 1 s; a
    # sample at a step instant already sees the new value.
    res = run_loop(builtin_table1().with_(duration_s=2.5))
    seen = {}
    for t, _, r, *_ in long_rows(res.trace):
        tick = round(t * 1e6)
        seen.setdefault(tick, set()).add(r)
    assert len(seen) == 2501
    for tick, rs in seen.items():
        assert rs == ({0.0} if 1_000_000 <= tick < 2_000_000 else {1.0}), tick


def test_trace_row_counts(bench_runs):
    # 1 ms cadence inclusive of both endpoints, four loops
    for res in bench_runs.values():
        assert len(long_rows(res.trace)) == 12_001 * 4


def test_all_loops_release_at_time_zero(bench_runs):
    for res in bench_runs.values():
        assert {j.task_id for j in res.jobs if j.release == 0} == {1, 2, 3, 4}


def test_releases_at_one_tick_run_in_task_id_order():
    sc = builtin_table1().with_(duration_s=0.1)
    res = run_loop(sc.with_(loops=sc.loops[::-1]))
    assert [j.task_id for j in res.jobs if j.release == 0] == [1, 2, 3, 4]


# --- frozen outputs and work counters ----------------------------------------

def jitter_cpu4(seed):
    """Table1 on cpu-4 with seeded jitter, switch stalls, 1 ms micro steps
    and a 10 ms trace: the benchmark's off-grid workload."""
    return builtin_table1(cpu=resolve_cpu("cpu-4")).with_(
        c_jitter=0.2, seed=seed, switch_overhead_us=50, micro_step_us=1000,
        trace_cadence_ms=10.0)


# SHA-256 of report.to_json(), the bytes of report.json.  Re-pin only where
# a change to the model's numerics is the cause, and log old -> new.
REPORT_SHA256 = {
    "osdvs": "36fe312f6b212cc1916febb1cc492c842e70fef14b5d9841996fd825f2b7ffdb",
    "cpu-1": "23bc157fef04ac525e4f86e1157ece9be9ee953283f1fce8c7fe5fd0f6c22c0a",
    "cpu-2": "8a11d51a6adb3bd0c96e0b69eb2c2b9bec9b2cd0bc6a73203e6952edabf7a25a",
    "cpu-3": "d95f87d9e925b43e4aba581907d7905c2268e7e1d0a48801b9ee36eaa290e06c",
    "cpu-4": "a49f5d21a3621d2b685060228a2e39aa404bdc13526489ec9b2d1ea011fcd4f1",
    "cpu-ideal": "13b66b063904555a8eb18524cb1a6ff57ea1ace530ff7eae289bf240dc01e17e",
    "overload": "ead8a5eefbf34accaa9709ddf41553206eb2f03ce75cea8815e6e8707b44bd14",
    "jitter-cpu4": "baeca7c9bbfac385ed89db55655d6d252111ea4beb6e54b6f9b413aaa151c8f4",
}
# (j_sum, e_avg, misses) of the same runs, unrounded, asserted before the
# hashes so that a failing pin names what moved.  Re-pin with the hashes.
REPORT_FIGURES = {
    "osdvs": (7.698649055472716, 0.9176423532375914, 0),
    "cpu-1": (8.098220511308025, 0.7562056874999993, 0),
    "cpu-2": (8.226804849632437, 0.5884289989333334, 0),
    "cpu-3": (8.206017567961927, 0.5071618929583325, 0),
    "cpu-4": (8.34733309829557, 0.4371043426784165, 0),
    "cpu-ideal": (8.597469105884723, 0.38747844008503346, 0),
    "overload": (1.366036416816594, 0.9972921088, 694),
    "jitter-cpu4": (8.394166794766287, 0.4415651976854993, 0),
}


def test_reports_are_pinned(bench_runs, overload_scenario):
    # The six canonical 12 s runs, the overload fixture and the jitter run.
    reports = {key: res.report for key, res in bench_runs.items()}
    reports["overload"] = run_loop(overload_scenario).report
    reports["jitter-cpu4"] = run_loop(jitter_cpu4(1)).report
    assert {key: (rep.j_sum, rep.e_avg, rep.misses)
            for key, rep in reports.items()} == REPORT_FIGURES
    got = {key: hashlib.sha256(rep.to_json().encode()).hexdigest()
           for key, rep in reports.items()}
    assert got == REPORT_SHA256


def stall_run(cpu):
    # Speed switches stall for 2 ms, which the demand check does not count.
    return builtin_table1(cpu=resolve_cpu(cpu)).with_(
        duration_s=2.0, switch_overhead_us=2000)


# SHA-256 of the exact run record: every job's (task_id, release, deadline,
# completion, missed), the segments, speed changes and utilization, repr of
# report.j and of the energy integral, busy and idle ticks, and the trace
# rows.  Unlike report.json, nothing is rounded, so the guard, stall and
# miss paths are checked bit for bit.  Same re-pin rule as REPORT_SHA256.
RECORD_SHA256 = {
    "jitter-cpu4-seed1": ("ae5cfc2fb76387e6c848a6617fdc7a05"
                          "20fa6dcf19b8415bf2e09a98fbbff3cc", 0),
    "jitter-cpu4-seed2": ("2e8bc79c888239e988da78e8a526b6e0"
                          "18d5f82115da76c455c6571ef2259bf0", 0),
    "overload": ("64d02288b880eff3a392cb1cb0861aa0"
                 "9e0c4e0f4d1bf4aa82016d9f30130465", 694),
    "stall-cpu2": ("b4bfcdfc1869be5c7a3e23ecdc906138"
                   "73ce469a7f8a273760c48d1a95af9e05", 93),
    "stall-cpu4": ("7379262437102300949f99a34f28aafd"
                   "db099f5fd061c194c763c9cb3c840bd4", 347),
    "dvs-only-cpu3": ("db02045b1c8eecf66b8d23537e96fe29"
                      "fe7dbaf2e5b10ac7376b7e3942c4c9ab", 0),
    "osdvs-jitter": ("1415c6edac603188fec7b3bc2c4be016"
                     "c0e6045b27f615bca70d081e698a77a9", 43),
}


def record_sha256(res):
    rep = res.report
    record = (
        [(j.task_id, j.release, j.deadline, j.completion, j.missed)
         for j in res.jobs],
        res.segments, rep.speed_changes, rep.utilization, rep.j,
        rep.energy_integral, *busy_idle(res), long_rows(res.trace),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["as-listed", "reversed"])
def test_run_records_are_pinned(overload_scenario, reverse):
    # A run holds its loops in task-id order, so a scenario that lists them
    # reversed gives the same record and the same report.json bytes.
    cases = {
        "jitter-cpu4-seed1": jitter_cpu4(1),
        "jitter-cpu4-seed2": jitter_cpu4(2),
        "overload": overload_scenario,
        "stall-cpu2": stall_run("cpu-2"),
        "stall-cpu4": stall_run("cpu-4"),
        "dvs-only-cpu3": builtin_table1(
            cpu=resolve_cpu("cpu-3"), mode="dvs-only").with_(duration_s=2.0),
        "osdvs-jitter": builtin_table1(mode="osdvs").with_(
            duration_s=2.0, c_jitter=0.3),
    }
    got = {}
    for key, sc in cases.items():
        res = run_loop(sc.with_(loops=sc.loops[::-1]) if reverse else sc)
        got[key] = (record_sha256(res), res.report.misses)
        if reverse:
            assert res.report.to_json() == run_loop(sc).report.to_json(), key
    assert got == RECORD_SHA256


def test_pid_interval_is_the_released_jobs_period(monkeypatch):
    # Each job's controller call is given the period just decided for that
    # job, not the time since the loop's previous release; on the jitter
    # run the two differ.  Under qapm that period is the job's deadline
    # minus its release; under osDVS it is the loop's h0, which whole ticks
    # can miss in the last bit (7000 * 1e-6 != 0.007).
    pids = []

    class RecordingPid(Pid):
        def __init__(self, gains):
            super().__init__(gains)
            self.intervals = []
            pids.append(self)

        def compute(self, error, h_s):
            self.intervals.append(h_s)
            return super().compute(error, h_s)

    monkeypatch.setattr(sim, "Pid", RecordingPid)
    sc = jitter_cpu4(1)
    res = run_loop(sc)
    assert len(pids) == len(sc.loops)
    differs = 0
    for pid, lp in zip(pids, sc.loops):
        jobs = [j for j in res.jobs if j.task_id == lp.task.id]
        assert [round(h * 1e6) for h in pid.intervals] == \
            [j.deadline - j.release for j in jobs]
        differs += sum(a.deadline - a.release != a.release - b.release
                       for a, b in zip(jobs[1:], jobs))
    assert differs > 0
    pids.clear()
    res = run_loop(sc.with_(mode="osdvs"))
    assert len(pids) == len(sc.loops)
    for pid, lp in zip(pids, sc.loops):
        jobs = [j for j in res.jobs if j.task_id == lp.task.id]
        assert jobs and pid.intervals == [lp.task.h0] * len(jobs)


def test_one_integrate_call_per_plant_advance(monkeypatch):
    # Each event that needs a plant is one call of its kernel entry, which
    # ends at the instant of that event: its own loop's release or
    # completion, a reference step, or the end of the run.  The calls that
    # integrate are pinned, and no two share a plant and an instant.  The
    # only calls that integrate nothing are the reference step and the
    # first release at t = 0, one each per plant.  Each release makes one
    # power-manager decision.  The jitter run steps off the micro-step
    # grid at every completion.
    all_calls = count_advances(monkeypatch)
    decisions = []
    bind = sim.manager

    def counted_manager(*args):
        decide = bind(*args)

        def counted(trigger, *rest):
            decisions.append(trigger)
            return decide(trigger, *rest)
        return counted

    monkeypatch.setattr(sim, "manager", counted_manager)
    cases = (
        (builtin_table1(cpu=resolve_cpu("cpu-2")).with_(duration_s=2.0),
         1_348, 673),
        (jitter_cpu4(1), 6_851, 3_404),
    )
    for sc, n_calls, n_decisions in cases:
        all_calls.clear()
        decisions.clear()
        res = run_loop(sc)
        calls = [call for call in all_calls if call[1]]
        labels = [f"loop {lp.task.id}" for lp in sc.loops]
        assert sorted(call for call in all_calls if not call[1]) == \
            sorted((label, 0, 0) for label in labels * 2)
        end, step = round(sc.duration_s * 1e6), round(sc.perturbation_s * 1e6)
        common = set(range(0, end, step)) | {end}  # reference steps, the end
        instants = {f"loop {lp.task.id}": set(common) for lp in sc.loops}
        for j in res.jobs:
            instants[f"loop {j.task_id}"].update((j.release, j.completion))
        assert all(span > 0 and t in instants[label]
                   for label, span, t in calls)
        assert len(set((label, t) for label, _, t in calls)) == len(calls)
        assert (len(calls), len(decisions)) == (n_calls, n_decisions)
        assert len(decisions) == len(res.jobs)


def test_manager_bound_once_per_run_decides_once_per_release(monkeypatch):
    # Each run binds the power manager once, and its decision is called
    # once per release, in release order, for the loop released.  A
    # decision keeps no state between calls (a second call with the same
    # inputs gives the same result) and modifies none of its inputs.
    bound = []
    bind = sim.manager

    def checked_manager(specs, levels, mode):
        decide = bind(specs, levels, mode)
        triggers = []
        bound.append((mode, levels, triggers))

        def checked(trigger, error, base_periods, in_flight, work):
            before = (base_periods[:], in_flight[:], work[:])
            result = decide(trigger, error, base_periods, in_flight, work)
            assert (base_periods, in_flight, work) == before
            assert decide(trigger, error, base_periods, in_flight,
                          work) == result
            triggers.append(specs[trigger].id)
            return result
        return checked

    monkeypatch.setattr(sim, "manager", checked_manager)
    cases = [builtin_table1(cpu=resolve_cpu(cpu), mode=mode).with_(
        duration_s=0.5) for _, mode, cpu in SWEEP_CASES]
    cases.append(jitter_cpu4(1))
    for sc in cases:
        bound.clear()
        res = run_loop(sc)
        assert [(mode, levels) for mode, levels, _ in bound] == \
            [(sc.mode, sc.cpu)]
        assert bound[0][2] == [j.task_id for j in res.jobs]


# --- degenerate scenarios --------------------------------------------------------

def test_zero_duration_run():
    sc = builtin_table1().with_(duration_s=0.0)
    res = run_loop(sc)
    assert res.jobs == []
    assert res.report.e_avg is None
    assert res.report.misses == 0
    assert res.report.j_sum == 0.0
    assert busy_idle(res) == (0, 0)


def test_empty_task_set_idles_at_full_speed():
    sc = Scenario(name="empty", loops=(), cpu=resolve_cpu("cpu-ideal"),
                  duration_s=0.5)
    res = run_loop(sc)
    assert res.jobs == []
    assert busy_idle(res) == (0, 500_000)
    assert res.report.e_avg == pytest.approx(1.0)
    assert res.report.j_sum == 0.0


_LOOPS = builtin_table1().loops


@pytest.mark.parametrize("field, changes", (
    # rounds to 0 ticks; a zero-length run, so that without the check the
    # run returns at once instead of sampling the trace forever
    ("trace_cadence_ms", {"trace_cadence_ms": 1e-4, "duration_s": 0.0}),
    ("perturbation_s", {"perturbation_s": 0.0}),
    ("perturbation_s", {"perturbation_s": 1e-7}),  # rounds to 0 ticks
    # A scenario built in code may hold any type; each scalar's is checked
    # as a file's is, and a bool is no number.
    ("duration_s", {"duration_s": "2.0"}),
    ("perturbation_s", {"perturbation_s": "1.0"}),
    ("micro_step_us", {"micro_step_us": "100"}),
    ("micro_step_us", {"micro_step_us": 100.5}),
    ("micro_step_us", {"micro_step_us": True}),
    ("trace_cadence_ms", {"trace_cadence_ms": "1.0"}),
    ("c_jitter", {"c_jitter": None}),
    ("seed", {"seed": True}),
    ("switch_overhead_us", {"switch_overhead_us": True}),
    ("duration_s", {"duration_s": 10**400}),  # no float holds it
    # So is the type of the name, the processor and each loop; a loop's
    # parts are checked as the `LoopSpec` is built (see test_scenario).
    ("name", {"name": 5}),
    ("cpu", {"cpu": "cpu-2", "duration_s": 0.01}),
    ("loops[0]", {"loops": (1,)}),
    ("mode", {"mode": 1}),
    ("trace_cadence_ms", {"trace_cadence_ms": True}),  # null or a number
    ("loops[1]", {"loops": (_LOOPS[0], _LOOPS[1].task)}),
    ("loops", {"loops": 5}),  # checked before it is made a tuple
))
def test_run_loop_rejects_an_invalid_scenario(field, changes):
    # run_loop is never handed an invalid scenario: building one raises a
    # one-line error naming the field.
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(field)}: [^\n]*$"):
        builtin_table1().with_(**changes)


# --- robustness: random scenarios -------------------------------------------

def _magnitude(rng):
    """A float of either sign, log-uniform in magnitude from 1e-310 to
    1e308."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-310, 308)


def _random_loop(rng, lid):
    """A loop of order 1-3 with coefficients and gains of either sign from
    1e-310 to 1e308, on a feasible nominal timing."""
    order = rng.randint(1, 3)
    h0_ms = rng.randint(2, 20)
    return LoopSpec(
        TaskSpec(lid, h0_ms * rng.uniform(0.05, 0.3) / 1000.0,
                 h0_ms / 1000.0, h0_ms * rng.uniform(1.0, 5.0) / 1000.0,
                 _random_adaptation(rng)),
        TransferFunction(
            tuple(_magnitude(rng) for _ in range(rng.randint(1, order))),
            tuple(_magnitude(rng) for _ in range(order + 1))),
        PidGains(*(_magnitude(rng) for _ in range(3))))


def _random_adaptation(rng):
    """Thresholds from 0 or 1e-310 up to 1e3 apart, and a beta from 1e-8
    to 1e6; rejected when the ends of the interpolation coincide."""
    e_min = rng.choice((0.0, 10.0 ** rng.uniform(-310, 0)))
    return AdaptationParams(10.0 ** rng.uniform(-8, 6), e_min,
                            e_min + 10.0 ** rng.uniform(-6, 3))


def _random_levels(rng):
    """The ideal processor, a builtin one, or 1-5 random levels below 1.0
    (any as small as 1e-310) and 1.0."""
    pick = rng.randint(0, 2)
    if pick == 0:
        return resolve_cpu(rng.choice(("cpu-1", "cpu-2", "cpu-3", "cpu-4",
                                       "cpu-ideal")))
    if pick == 1:
        return CpuLevels((1.0,), ideal=True, name="ideal")
    below = sorted(10.0 ** rng.uniform(-310, 0)
                   for _ in range(rng.randint(1, 5)))
    return CpuLevels(tuple(below) + (1.0,), name="random")


def _random_scenario(rng):
    """A 0.05 s run of 1-3 random loops; raises ConfigurationError when a
    part or the scenario breaks a range check."""
    return Scenario(
        name="random",
        loops=tuple(_random_loop(rng, i) for i in range(1, rng.randint(2, 4))),
        cpu=_random_levels(rng), mode=rng.choice(MODES), duration_s=0.05,
        perturbation_s=0.02, micro_step_us=rng.choice((10, 100, 1000)),
        trace_cadence_ms=rng.choice((None, 1.0)), seed=rng.randint(0, 9),
        c_jitter=rng.choice((0.0, 0.5)),
        switch_overhead_us=rng.choice((0, 50)))


def test_random_scenarios_are_rejected_run_or_diverge():
    # Every draw is rejected as it is built, runs to its end, or raises
    # DivergenceError; anything else (a ValueError from a NaN period, a
    # ZeroDivisionError) is a defect.  The seed and ranges stay as they
    # are: a failing draw is fixed in the package, not drawn around.
    rng = random.Random(23)
    outcomes = {"rejected": 0, "ran": 0, "diverged": 0}
    for draw in range(400):
        try:
            sc = _random_scenario(rng)
        except ConfigurationError:
            outcomes["rejected"] += 1
            continue
        try:
            run_loop(sc)
        except DivergenceError:
            outcomes["diverged"] += 1
        except Exception as exc:
            pytest.fail(f"draw {draw}: {exc!r} from {sc!r}")
        else:
            outcomes["ran"] += 1
    assert min(outcomes.values()) >= 20, outcomes
