"""Deterministic control/scheduling co-simulation engine.

`run_loop` runs one scenario as one event loop over local variables: job
releases (sample + control output + power-manager decision), preemptive
EDF dispatch, speed-scaled execution accounting, job completions
(actuation), reference steps, and trace sampling.  Each event source keeps
only its next instant: every loop its next release, the reference its next
step, the trace its next sample, and the running job its completion.  The
lists the run records (jobs, segments, speed changes, utilization, trace
visits) go to `_result` once the loop ends.

The released, unfinished jobs are a heap keyed (deadline, release,
task_id), so the key is the EDF order; a loop releases at most one job per
tick, so no two keys are equal.  Dispatch runs the head; a completion pops
it.  The running job is charged the nominal work it was served only where
its service rate may change, and at exactly three places: when a speed
decision is applied at a release (whether or not the speed changes), when
it completes (before a held slow-down is applied), and when the dispatcher
switches jobs.  The float sums depend on that order.

The run holds its loops in task-id order, whatever order the scenario
lists them in: loop i is the loop with the i-th lowest task id in every
per-loop list, so in the power manager's inputs and float sums, in the
trace's columns and in the report's per-loop keys.  The results therefore
do not depend on the listing.

Each rule the loop applies at several places has one owner: `_charge`,
`_completion_tick` (recomputed wherever the rate changes) and `_switch` (a
speed with its stall).

Each plant integrates its dynamics, with the held actuator value, on the
grid of micro-step instants k * micro_step_us counted from t = 0, and
splits a step only where its own loop samples (release) or actuates
(completion) and at reference steps.  It is advanced lazily, when one of
those events needs its state, by one call of its kernel entry,
``plant.advance(tick, r, u)``, which integrates it to that event's tick and
returns y there; other loops' events do not touch it.  The plant keeps
its state and its place on the grid as its own attributes, which the
kernel reads and writes (see `plant.StateSpacePlant`); a call at a tick
the plant has already reached integrates nothing.  The run keeps the held
actuator values, one list in task-id order: a completion writes its
loop's entry after advancing the plant, and every call passes the entry
in force.

The trace has one row at every multiple of ``trace_cadence_ms`` up to the
end of the run.  A trace visit at tick t appends one tuple of what is in
force then, (t, r, alpha, periods, a copy of the held u), and advances no
plant.
Each plant writes its own y(t) while it integrates across t (see
`plant.StateSpacePlant`).  The run hands the visits and each plant's
samples, uncopied, to a `metrics.TraceRecorder`, which alone forms the CSV
rows and the chart series from them.  The trace therefore touches neither
the step partition nor the job accounting nor the dispatcher, so every
result but the trace itself is the same at any trace cadence.  A cadence
of None records no trace at all.

Each release makes one power-manager decision, a call of the ``decide``
that `policy.manager` binds once per run, from the simulator's plain
lists: the adapted base periods, each loop's last drawn execution time and
the period, in ticks, of each loop's job in flight.  The periods in force
it returns are one list, kept as returned, which the controller, the
release and the trace read in task-id order.
Under ``qapm`` the decision also covers the job windows it leaves in
force, so EDF meets every deadline; when even full speed falls short, the
trigger's new period is lengthened just enough to fit, up to its
``h_max``.  Without execution-time jitter that always fits, since the
loop's previous window fitted; with jitter, or with speed-switch stalls
(which the decision does not count), deadlines may be missed.  A speed
decrease is held here, not in the decision, until the jobs in flight at
decision time have completed (the slow-down guard).

The simulator owns the speed ``alpha`` and its change list.  The run's
energy, the integral of alpha^2, is summed over that list at the end.
Float sums run left to right, as `sum` did before Python 3.12 compensated
it, so no result depends on the interpreter.

Time is integer microsecond ticks.  Event order at equal ticks is fixed:
completions, then reference steps, then releases in task-id order, then
trace samples.  A completing job therefore actuates before a same-tick
release samples the plant, and releases see the new reference.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from random import Random

from .metrics import RunReport, TraceRecorder
from .pid import Pid
from .plant import tf_to_state_space
from .policy import manager
from .scenario import Scenario

__all__ = ["Job", "SimResult", "run_loop"]

_NEVER = math.inf  # tick of an event source with nothing pending

# A completion may round down to the previous tick, leaving at most one
# tick of service unconsumed; anything larger is an accounting bug.
_RESIDUE_TICKS = 2.5


class Job:
    """One released instance of a control task."""

    __slots__ = (
        "task_id", "release", "deadline", "remaining", "u", "completion",
        "missed",
    )

    def __init__(self, task_id, release, deadline, work, u):
        self.task_id = task_id
        self.release = release          # ticks
        self.deadline = deadline        # ticks, absolute
        self.remaining = work           # nominal seconds at alpha = 1
        self.u = u                      # control output, applied at completion
        self.completion = None          # ticks, set when done
        self.missed = False


class SimResult:
    def __init__(self, report: RunReport, trace: TraceRecorder, jobs: list,
                 segments: list):
        self.report = report
        self.trace = trace
        self.jobs = jobs
        # (start_tick, end_tick, task_id)
        self.segments = segments


def _charge(job, charged_at, blocked_until, now, alpha):
    """Take from ``job`` the work served at ``alpha`` from its last charge
    point ``charged_at`` to ``now``, less the switch stall that ends at
    ``blocked_until``; ``remaining`` stops at zero."""
    run_from = charged_at if charged_at > blocked_until else blocked_until
    if run_from < now:
        job.remaining -= (now - run_from) * 1e-6 * alpha
        if job.remaining < 0.0:
            job.remaining = 0.0


def _completion_tick(job, now, blocked_until, alpha):
    """The tick ``job`` completes at when it runs at ``alpha`` from ``now``,
    or from the end of the stall; floored, so the sub-tick residue is
    forgiven."""
    start = now if now >= blocked_until else blocked_until
    return start + int(job.remaining / alpha * 1e6)


def _switch(speed_changes, now, alpha, stall, blocked_until):
    """Record the change to speed ``alpha`` at ``now``; returns the end of
    the switch stall in force after it."""
    speed_changes.append((now, alpha))
    if stall and now + stall > blocked_until:
        return now + stall
    return blocked_until


def _sum(values):
    """Left-to-right float sum (see the module docstring)."""
    total = 0.0
    for v in values:
        total += v
    return total


def run_loop(sc: Scenario) -> SimResult:
    """Run one scenario start to finish.

    Raises `DivergenceError`, naming the loop and the simulated time it was
    found at, when a plant's state goes non-finite.
    """
    end_tick = round(sc.duration_s * 1e6)
    trace_step = (None if sc.trace_cadence_ms is None
                  else round(sc.trace_cadence_ms * 1000))
    # Loop i is the loop with the i-th lowest task id, in every list below.
    loops = sorted(sc.loops, key=lambda lp: lp.task.id)
    specs = [lp.task for lp in loops]
    plants = [tf_to_state_space(lp.plant, sc.micro_step_us,
                                label=f"loop {lp.task.id}",
                                sample_every_us=trace_step)
              for lp in loops]
    # The power manager and each loop's control law, bound once per run.
    decide = manager(specs, sc.cpu, sc.mode)
    computes = [Pid(lp.gains).compute for lp in loops]
    # Each plant's kernel entry, ``advance(tick, r, u)`` -> y, and the
    # actuator value each plant holds: a completion writes it, every
    # advance passes it.
    advances = [plant.advance for plant in plants]
    held = [0.0] * len(loops)
    # What the run records.
    # (tick, alpha) per actual speed change, tick 0 included
    speed_changes: list[tuple[int, float]] = [(0, 1.0)]
    # (tick, r, alpha, periods, u per loop) per trace visit
    visits: list[tuple] = []
    utilization: list[tuple[float, float, float]] = []
    jobs: list[Job] = []
    segments: list[tuple[int, int, int]] = []
    # period in force at each release, seconds, per loop
    h_log: list[list[float]] = [[] for _ in specs]
    if end_tick == 0:
        return _result(sc, end_tick, specs, plants, h_log, speed_changes,
                       visits, utilization, jobs, segments)

    ref_step = round(sc.perturbation_s * 1e6)
    stall = sc.switch_overhead_us
    c_jitter = sc.c_jitter
    random = Random(sc.seed).random
    never = _NEVER

    # The power manager's inputs: the adapted periods, the last drawn
    # execution time of each loop (jitter hook) and the period, in ticks,
    # each loop's job in flight was released with.  Its output ``periods``
    # is each loop's period in force, in seconds.
    base_periods = [t.h0 for t in specs]
    periods = base_periods[:]
    work = [t.c_nom for t in specs]
    in_flight = [None] * len(specs)
    # Each loop's next release; the first of equal ticks is the lowest
    # task id.
    next_release = [0] * len(specs)
    first_release = 0 if specs else never
    ids = [t.id for t in specs]
    c_noms = [t.c_nom for t in specs]
    index_of = {tid: i for i, tid in enumerate(ids)}
    ready = []              # heap of (deadline, release, task_id, job)

    alpha = 1.0
    r = 0.0
    next_ref = 0
    next_trace = never if trace_step is None else 0
    running = None
    done_at = never                     # completion tick of the running job
    charged_at = 0                      # running job charged up to this tick
    blocked_until = 0                   # end of the last switch stall
    guard = None                        # jobs a held slow-down waits for
    pending_alpha = None                # the held slow-down
    seg_start = 0

    while True:
        # The earliest pending event other than a trace sample; a tie goes
        # to the completion, then the reference step, then the release of
        # the lowest task id.
        tick = done_at
        idx = None
        if next_ref < tick:
            tick = next_ref
        if first_release < tick:
            tick = first_release
            idx = next_release.index(tick)
        # Trace samples rank last at equal ticks.  A visit records the
        # values in force at its tick, ``periods`` uncopied, as nothing
        # mutates a list `decide` returned, and advances no plant.
        while next_trace < tick and next_trace <= end_tick:
            visits.append((next_trace, r, alpha, periods, tuple(held)))
            next_trace += trace_step
        if tick > end_tick:
            break
        now = tick

        if idx is not None:
            # Release: sample the plant, decide, compute the control.
            e = r - advances[idx](now, r, held[idx])
            w = c_noms[idx]
            if c_jitter > 0.0:
                w *= 1.0 + c_jitter * (2.0 * random() - 1.0)
            work[idx] = w
            # The manager re-decides the period before the control
            # computation runs, so the controller sees the period now in
            # force.
            base_periods, periods, ticks, alpha_ideal, a = decide(
                idx, abs(e), base_periods, in_flight, work)
            utilization.append((now * 1e-6, alpha_ideal, a))
            # Speed increases take effect at once.  A decrease is held
            # until every job in flight at decision time has completed:
            # those jobs' deadlines were budgeted at the old speed, and the
            # reclaimed schedule runs at full utilization with no slack to
            # absorb the longer service a mid-job slowdown would cause.
            if a < alpha and guard is None:
                guard = {entry[3] for entry in ready
                         if entry[3].remaining > 0.0} or None
            if a >= alpha or guard is None:
                guard = None
                # Charge the running job at the speed and stall in force
                # until now, then apply the decision.
                if running is not None:
                    _charge(running, charged_at, blocked_until, now, alpha)
                charged_at = now
                if a != alpha:
                    alpha = a
                    blocked_until = _switch(speed_changes, now, a, stall,
                                            blocked_until)
                    if running is not None:
                        done_at = _completion_tick(running, now,
                                                   blocked_until, alpha)
            else:
                pending_alpha = a
            h = periods[idx]
            u = computes[idx](e, h)
            in_flight[idx] = ticks
            deadline = now + ticks
            next_release[idx] = deadline
            first_release = min(next_release)
            h_log[idx].append(h)
            job = Job(ids[idx], now, deadline, w, u)
            heappush(ready, (deadline, now, ids[idx], job))
            jobs.append(job)
        elif tick == done_at:
            # Completion: charge the job, actuate its plant.
            job = running
            _charge(job, charged_at, blocked_until, now, alpha)
            charged_at = now
            if job.remaining > alpha * _RESIDUE_TICKS * 1e-6 + 1e-12:
                raise RuntimeError(
                    f"task {job.task_id}: completion fired with "
                    f"{job.remaining!r}s left")
            job.remaining = 0.0
            job.completion = now
            job.missed = now > job.deadline
            if heappop(ready)[3] is not job:
                raise RuntimeError(
                    f"task {job.task_id}: completed job was not the EDF head")
            if guard is not None:
                guard.discard(job)
                if not guard:
                    # Apply the held slow-down; the job just charged was
                    # the one running, and the dispatch below plans the
                    # next completion.
                    guard = None
                    if pending_alpha != alpha:
                        alpha = pending_alpha
                        blocked_until = _switch(speed_changes, now, alpha,
                                                stall, blocked_until)
            i = index_of[job.task_id]
            advances[i](now, r, held[i])
            held[i] = job.u
        else:
            # Reference step: a square wave shared by all loops, 1 from
            # even steps, 0 from odd.  The ready set is unchanged, so is
            # the job to run.
            for advance, u in zip(advances, held):
                advance(now, r, u)
            r = 1.0 if now // ref_step % 2 == 0 else 0.0
            next_ref = now + ref_step
            if next_ref >= end_tick:  # no step at the final instant
                next_ref = never
            continue

        # Dispatch: the running job is charged up to a change.
        job = ready[0][3] if ready else None
        if job is not running:
            if running is not None:
                _charge(running, charged_at, blocked_until, now, alpha)
                if seg_start < now:
                    segments.append((seg_start, now, running.task_id))
            charged_at = now
            running = job
            seg_start = now
            if job is None:
                done_at = never
            else:
                done_at = _completion_tick(job, now, blocked_until, alpha)

    # jobs left unfinished past their deadline; the rest were marked when
    # they completed
    for _, _, _, job in ready:
        if job.deadline < end_tick and job.remaining > 0.0:
            job.missed = True
    for advance, u in zip(advances, held):
        advance(end_tick, r, u)
    if running is not None and seg_start < end_tick:
        segments.append((seg_start, end_tick, running.task_id))
    return _result(sc, end_tick, specs, plants, h_log, speed_changes, visits,
                   utilization, jobs, segments)


def _result(sc, end_tick, specs, plants, h_log, speed_changes, visits,
            utilization, jobs, segments) -> SimResult:
    """The report and the trace of a run from the lists it recorded."""
    integral = 0.0
    ends = [t for t, _ in speed_changes[1:]] + [end_tick]
    for (t0, a), t1 in zip(speed_changes, ends):
        integral += a * a * (t1 - t0) * 1e-6
    duration_s = end_tick * 1e-6
    period_stats = {}
    for task, hs in zip(specs, h_log):
        # a loop that never released reports zeros
        ms = [h * 1000.0 for h in hs] or [0.0]
        period_stats[task.id] = {
            "min": min(ms), "max": max(ms),
            "mean": _sum(ms) / len(ms), "count": len(hs),
        }
    j = {task.id: plant.iae for task, plant in zip(specs, plants)}
    for plant in plants:
        if len(plant.samples) != len(visits):
            raise RuntimeError(
                f"{plant.label}: {len(plant.samples)} trace samples "
                f"for {len(visits)} visits")
    trace = TraceRecorder(visits, [(task.id, plant.samples)
                                   for task, plant in zip(specs, plants)])
    report = RunReport(
        scenario=sc.name,
        mode=sc.mode,
        cpu=sc.cpu.name or "custom",
        duration_s=duration_s,
        seed=sc.seed,
        j=j,
        j_sum=_sum(j.values()),
        e_avg=(integral / duration_s) if duration_s > 0 else None,
        energy_integral=integral,
        misses=sum(job.missed for job in jobs),
        period_stats_ms=period_stats,
        utilization=utilization,
        speed_changes=speed_changes,
    )
    return SimResult(report=report, trace=trace, jobs=jobs, segments=segments)
