"""Event-driven co-simulation: EDF dispatch, timing semantics, accounting.

Beyond unit oracles, post-hoc audits reconstruct the schedule from the
recorded segments, released jobs and speed changes and check that every
dispatch decision was earliest-deadline-first, that the processor never
idled while work was pending, and that each job was served its work.
"""

import bisect

import pytest

from qapm.policy import CpuLevels
from qapm.scenario import Scenario, builtin_table1, resolve_cpu
from qapm.sim import _RESIDUE_TICKS, Job, Simulator, edf_select, run_loop

NOMINAL_WORKLOAD = 1207.0 / 1260.0


def job(task_id, release, deadline, work=0.002):
    return Job(task_id, release, deadline, work, 0.0)


# --- EDF selection -----------------------------------------------------------

def test_edf_picks_earliest_deadline():
    a = job(1, 0, 12_000)
    b = job(2, 0, 9_000)
    assert edf_select([a, b]) is b


def test_edf_tie_broken_by_release_then_id():
    a = job(1, 2_000, 9_000)
    b = job(2, 0, 9_000)
    assert edf_select([a, b]) is b
    c = job(3, 0, 9_000)
    assert edf_select([b, c]) is b


def test_edf_empty_set_idles():
    assert edf_select([]) is None


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
    assert res.idle_ticks == 0
    assert res.busy_ticks == 2_000_000
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
    assert res.busy_ticks == 400_000


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
    assert sum(e - s for s, e, _ in segments) == audit_run.busy_ticks


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
        assert res.busy_ticks + res.idle_ticks == 12_000_000


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


@pytest.mark.parametrize("cpu", ["cpu-1", "cpu-2", "cpu-ideal"])
def test_results_do_not_depend_on_trace_cadence(cpu):
    # A trace sample observes the run and changes nothing in it.
    sc = builtin_table1(cpu=resolve_cpu(cpu)).with_(duration_s=2.0)
    first = None
    for cadence in (0.25, 0.5, 1.0, 2.0, 10.0):
        res = run_loop(sc.with_(trace_cadence_ms=cadence))
        assert len(res.trace.rows) == (round(2000 / cadence) + 1) * 4
        seen = (
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


def test_report_iae_is_each_plants_running_sum():
    sim = Simulator(builtin_table1(cpu=resolve_cpu("cpu-2")).with_(
        duration_s=2.0, trace_cadence_ms=0.25))
    res = sim.run()
    j = res.report.j
    assert j == {lr.task.id: lr.plant.iae for lr in sim.loops}
    assert res.report.j_sum == sum(j.values())
    # Independent check: the trapezoid integral of |e| over the trace.
    for lid in j:
        rows = [(t, abs(e)) for t, loop, _, _, e, *_ in res.trace.rows
                if loop == lid]
        trace_iae = sum((t1 - t0) * (e0 + e1) / 2
                        for (t0, e0), (t1, e1) in zip(rows, rows[1:]))
        assert trace_iae == pytest.approx(j[lid], rel=1e-3)


def test_reference_is_a_square_wave_from_one():
    # r steps 0 -> 1 at t = 0 and toggles every perturbation_s = 1 s; a
    # sample at a step instant already sees the new value.
    res = run_loop(builtin_table1().with_(duration_s=2.5))
    seen = {}
    for t, _, r, *_ in res.trace.rows:
        tick = round(t * 1e6)
        seen.setdefault(tick, set()).add(r)
    assert len(seen) == 2501
    for tick, rs in seen.items():
        assert rs == ({0.0} if 1_000_000 <= tick < 2_000_000 else {1.0}), tick


def test_trace_row_counts(bench_runs):
    # 1 ms cadence inclusive of both endpoints, four loops
    for res in bench_runs.values():
        assert len(res.trace.rows) == 12_001 * 4


def test_all_loops_release_at_time_zero(bench_runs):
    for res in bench_runs.values():
        assert {j.task_id for j in res.jobs if j.release == 0} == {1, 2, 3, 4}


# --- degenerate scenarios --------------------------------------------------------

def test_zero_duration_run():
    sc = builtin_table1().with_(duration_s=0.0)
    res = run_loop(sc)
    assert res.jobs == []
    assert res.report.e_avg is None
    assert res.report.misses == 0
    assert res.report.j_sum == 0.0
    assert res.busy_ticks == 0 and res.idle_ticks == 0


def test_empty_task_set_idles_at_full_speed():
    sc = Scenario(name="empty", loops=(), cpu=resolve_cpu("cpu-ideal"),
                  duration_s=0.5)
    res = run_loop(sc)
    assert res.jobs == []
    assert res.idle_ticks == 500_000
    assert res.report.e_avg == pytest.approx(1.0)
    assert res.report.j_sum == 0.0
