"""Deterministic control/scheduling co-simulation engine.

One event loop drives everything: job releases (sample + control output +
power-policy invocation), preemptive EDF dispatch, speed-scaled execution
accounting, job completions (actuation), reference steps, and trace
sampling.  Each event source keeps only its next instant: every loop its
next release, the reference its next step, the trace its next sample, and
the running job its completion.  The running job is charged the nominal
work it was served only where its service rate may change: when it is
dispatched or preempted, when a speed decision is applied, and when it
completes.  Its completion tick is recomputed wherever the rate changes.

Each plant integrates its dynamics, with the held actuator value, on the
grid of micro-step instants k * micro_step_us counted from t = 0, and
splits a step only where its own loop samples (release) or actuates
(completion) and at reference steps.  It is advanced lazily, when one of
those events needs its state, by one `StateSpacePlant.integrate` call to
that event's tick; other loops' events do not touch it.  The plant keeps
its own place on the grid (see `plant.StateSpacePlant`).

The trace has one row per loop at every multiple of ``trace_cadence_ms``
up to the end of the run.  A trace visit at tick t records what the
simulator holds then (r, u, h_eff, alpha and the energy draw) and advances
no plant.  Each plant writes its own y(t) while it integrates across t (see
`plant.StateSpacePlant`).  The run hands these lists, uncopied, to a
`metrics.TraceRecorder` as columns; rows, with e = r - y, are formed only
when the trace is written or read.  The trace therefore touches neither
the step partition nor the job accounting nor the dispatcher, so every
result but the trace itself is the same at any trace cadence.  A cadence
of None records no trace at all.

Each release makes one power-manager decision, `policy.decide`, from the
simulator's plain lists: the adapted base periods, each loop's last drawn
execution time and the period, in ticks, of each loop's job in flight.  The
periods in force it returns are one list, kept as returned, which the
controller, the release and the trace read by loop index.
Under ``qapm`` the decision also covers the job windows it leaves in
force, so EDF meets every deadline; when even full speed falls short, the
trigger's new period is lengthened just enough to fit, up to its
``h_max``.  Without execution-time jitter that always fits, since the
loop's previous window fitted; with jitter, or with speed-switch stalls
(which the decision does not count), deadlines may be missed.  A speed
decrease is held here, not in the decision, until the jobs in flight at
decision time have completed (the slow-down guard).

The simulator owns the speed ``alpha`` and its change list.  The run's
energy, the integral of alpha^2, is summed over that list at the end, and
busy time over the dispatch segments.

Time is integer microsecond ticks.  Event order at equal ticks is fixed:
completions, then reference steps, then releases, then trace samples, then
task id.  A completing job therefore actuates before a same-tick release
samples the plant, and releases see the new reference.
"""

from __future__ import annotations

import math
import random

from .metrics import RunReport, TraceRecorder
from .pid import Pid
from .plant import tf_to_state_space
from .policy import ConfigurationError, decide
from .scenario import Scenario, validate

__all__ = ["Job", "SimResult", "Simulator", "run_loop", "edf_select"]

# Event kind priorities; lower runs first at an equal tick.  Trace samples
# come after all three.
PRI_COMPLETION = 0
PRI_REF_STEP = 1
PRI_RELEASE = 2
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


def edf_select(ready):
    """Job with the earliest absolute deadline; ties by release, then task id."""
    best = None
    for job in ready:
        if best is None or job.deadline < best.deadline or (
                job.deadline == best.deadline
                and (job.release, job.task_id) < (best.release, best.task_id)):
            best = job
    return best


class _LoopRuntime:
    __slots__ = (
        "index", "task", "plant", "pid", "next_release", "periods",
        "trace_u", "trace_h_ms",
    )

    def __init__(self, index, task, plant, pid):
        self.index = index              # position in the scenario's loops
        self.task = task
        self.plant = plant
        self.pid = pid
        self.next_release = 0           # tick
        self.periods = []               # period in force at each release, seconds
        self.trace_u = []               # u and h_eff at each trace visit
        self.trace_h_ms = []


class SimResult:
    def __init__(self, report: RunReport, trace: TraceRecorder, jobs: list,
                 segments: list, busy_ticks: int, idle_ticks: int):
        self.report = report
        self.trace = trace
        self.jobs = jobs
        # (start_tick, end_tick, task_id)
        self.segments = segments
        self.busy_ticks = busy_ticks
        self.idle_ticks = idle_ticks


class Simulator:
    """Runs one scenario to completion; never reused across runs."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.end_tick = round(sc.duration_s * 1e6)
        self.trace_step = (None if sc.trace_cadence_ms is None
                           else round(sc.trace_cadence_ms * 1000))
        self.loops = [
            _LoopRuntime(
                i,
                lp.task,
                tf_to_state_space(lp.plant, sc.micro_step_us,
                                  label=f"loop {lp.task.id}",
                                  sample_every_us=self.trace_step),
                Pid(lp.gains),
            )
            for i, lp in enumerate(sc.loops)
        ]
        self.by_id = {lr.task.id: lr for lr in self.loops}
        self.specs = [lr.task for lr in self.loops]
        self.by_task_id = sorted(self.loops, key=lambda lr: lr.task.id)
        # The power manager's inputs: adapted periods, the last drawn
        # execution time of each loop (jitter hook) and the period, in
        # ticks, each loop's job in flight was released with.  Its output
        # ``periods`` is each loop's period in force, in seconds.
        self.base_periods = [t.h0 for t in self.specs]
        self.periods = self.base_periods[:]
        self.work = [t.c_nom for t in self.specs]
        self.in_flight = [None] * len(self.specs)
        self.r = 0.0
        self.rng = random.Random(sc.seed)

        self.now = 0
        # The next instant of each event source (releases: per loop).
        self.ref_step = round(sc.perturbation_s * 1e6)
        self.next_ref = 0
        self.next_trace = _NEVER if self.trace_step is None else 0
        self.done_at = _NEVER           # completion tick of the running job
        self.ready: list[Job] = []
        self.running: Job | None = None
        self.charged_at = 0             # running job charged up to this tick
        self.blocked_until = 0
        self.guard: set[Job] | None = None
        self.pending_alpha = 1.0
        self.seg_start = 0

        self.alpha = 1.0
        # (tick, alpha) per actual speed change, tick 0 included
        self.speed_changes: list[tuple[int, float]] = [(0, 1.0)]
        # (time_s, r, alpha, energy draw) per trace visit
        self.trace_visits: list[tuple] = []
        self.utilization: list[tuple[float, float, float]] = []
        self.jobs: list[Job] = []
        self.segments: list[tuple[int, int, int]] = []

    # -- time advance ----------------------------------------------------

    def _advance_plant(self, lr, tick):
        """Integrate ``lr``'s plant up to ``tick``."""
        span = tick - lr.plant.time_us
        if span > 0:
            lr.plant.integrate(span, self.r)

    def _charge(self):
        """Charge the running job the work served since it was last charged.

        The speed and the switch stall are constant in between, since both
        change only where this is called first.
        """
        job = self.running
        if job is not None:
            run_from = max(self.charged_at, self.blocked_until)
            if run_from < self.now:
                job.remaining -= (self.now - run_from) * 1e-6 * self.alpha
                if job.remaining < 0.0:
                    job.remaining = 0.0
        self.charged_at = self.now

    def _plan_completion(self):
        job = self.running
        if job is None:
            self.done_at = _NEVER
            return
        base = max(self.now, self.blocked_until)
        # floor; the sub-tick residue is forgiven
        self.done_at = base + int(job.remaining / self.alpha * 1e6)

    # -- policy ----------------------------------------------------------

    def _apply_alpha(self, alpha: float):
        self.pending_alpha = None
        self._charge()  # at the speed and stall in force until now
        if alpha != self.alpha:
            self.alpha = alpha
            self.speed_changes.append((self.now, alpha))
            if self.sc.switch_overhead_us:
                self.blocked_until = max(self.blocked_until,
                                         self.now + self.sc.switch_overhead_us)
            self._plan_completion()

    # -- event handlers ----------------------------------------------------

    def _on_release(self, lr: _LoopRuntime):
        sc = self.sc
        self._advance_plant(lr, self.now)
        e = self.r - lr.plant.sample()

        work = lr.task.c_nom
        if sc.c_jitter > 0.0:
            work *= 1.0 + sc.c_jitter * (2.0 * self.rng.random() - 1.0)
        idx = lr.index
        self.work[idx] = work

        # The manager re-decides the period before the control computation
        # runs, so the controller sees the period now in force.
        self.base_periods, self.periods, ticks, alpha_ideal, alpha = decide(
            self.specs, idx, abs(e), self.base_periods, self.in_flight,
            self.work, sc.cpu, sc.mode)
        self.utilization.append((self.now * 1e-6, alpha_ideal, alpha))
        # Speed increases take effect at once.  A decrease is held until
        # every job in flight at decision time has completed: those jobs'
        # deadlines were budgeted at the old speed, and the reclaimed
        # schedule runs at full utilization with no slack to absorb the
        # longer service a mid-job slowdown would cause.
        if alpha >= self.alpha:
            self.guard = None
            self._apply_alpha(alpha)
        elif self.guard is not None:
            self.pending_alpha = alpha
        else:
            in_flight = {j for j in self.ready if j.remaining > 0.0}
            if in_flight:
                self.guard = in_flight
                self.pending_alpha = alpha
            else:
                self._apply_alpha(alpha)
        h = self.periods[idx]
        u = lr.pid.compute(e, h)

        self.in_flight[idx] = ticks
        lr.next_release = self.now + ticks
        lr.periods.append(h)
        job = Job(lr.task.id, self.now, lr.next_release, work, u)
        self.ready.append(job)
        self.jobs.append(job)

    def _on_completion(self):
        job = self.running
        self._charge()
        task_id = job.task_id
        residue_limit = self.alpha * _RESIDUE_TICKS * 1e-6 + 1e-12
        if job.remaining > residue_limit:
            raise RuntimeError(
                f"task {task_id}: completion fired with {job.remaining!r}s left"
            )
        job.remaining = 0.0
        job.completion = self.now
        job.missed = self.now > job.deadline
        self.ready.remove(job)
        if self.guard is not None:
            self.guard.discard(job)
            if not self.guard:
                self.guard = None
                self._apply_alpha(self.pending_alpha)
        lr = self.by_id[task_id]
        self._advance_plant(lr, self.now)
        lr.plant.actuate(job.u)

    def _on_ref_step(self):
        # A square wave shared by all loops: 1 from even steps, 0 from odd.
        for lr in self.loops:
            self._advance_plant(lr, self.now)
        self.r = 1.0 if self.now // self.ref_step % 2 == 0 else 0.0
        self.next_ref = self.now + self.ref_step
        if self.next_ref >= self.end_tick:  # no step at the final instant
            self.next_ref = _NEVER

    def _on_trace(self, tick):
        # Runs at or after self.now and before the next event: the values
        # in force are the values at ``tick``.
        alpha = self.alpha
        self.trace_visits.append((tick * 1e-6, self.r, alpha, alpha * alpha))
        for lr, h in zip(self.loops, self.periods):
            lr.trace_u.append(lr.plant.u)
            lr.trace_h_ms.append(h * 1000.0)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self):
        job = edf_select(self.ready)
        if job is self.running:
            return
        self._charge()
        if self.running is not None and self.seg_start < self.now:
            self.segments.append((self.seg_start, self.now, self.running.task_id))
        self.running = job
        self.seg_start = self.now
        self._plan_completion()

    # -- main loop -----------------------------------------------------------

    def _next_event(self):
        """(tick, kind, loop) of the earliest pending event other than a
        trace sample, scanned in priority order so a tie goes to the first:
        the completion, the reference step, then releases by task id."""
        tick, kind, loop = self.done_at, PRI_COMPLETION, None
        if self.next_ref < tick:
            tick, kind = self.next_ref, PRI_REF_STEP
        for lr in self.by_task_id:
            if lr.next_release < tick:
                tick, kind, loop = lr.next_release, PRI_RELEASE, lr
        return tick, kind, loop

    def run(self) -> SimResult:
        if self.end_tick == 0:
            return self._finalize()
        while True:
            tick, kind, lr = self._next_event()
            # Trace samples rank last at equal ticks.
            while self.next_trace < tick and self.next_trace <= self.end_tick:
                self._on_trace(self.next_trace)
                self.next_trace += self.trace_step
            if tick > self.end_tick:
                break
            self.now = tick
            if kind == PRI_COMPLETION:
                self._on_completion()
            elif kind == PRI_REF_STEP:
                # The ready set is unchanged, so is the job to run.
                self._on_ref_step()
                continue
            else:
                self._on_release(lr)
            self._dispatch()
        self.now = self.end_tick
        # jobs left unfinished past their deadline; the rest were marked
        # when they completed
        for job in self.ready:
            if job.deadline < self.end_tick and job.remaining > 0.0:
                job.missed = True
        for lr in self.loops:
            self._advance_plant(lr, self.end_tick)
        return self._finalize()

    def _finalize(self) -> SimResult:
        if self.running is not None and self.seg_start < self.now:
            self.segments.append((self.seg_start, self.now, self.running.task_id))
        changes = self.speed_changes
        integral = 0.0
        ends = [t for t, _ in changes[1:]] + [self.end_tick]
        for (t0, a), t1 in zip(changes, ends):
            integral += a * a * (t1 - t0) * 1e-6
        busy_ticks = sum(end - start for start, end, _ in self.segments)
        duration_s = self.end_tick * 1e-6
        period_stats = {}
        for lr in self.loops:
            if lr.periods:
                ms = [h * 1000.0 for h in lr.periods]
                period_stats[lr.task.id] = {
                    "min": min(ms), "max": max(ms),
                    "mean": sum(ms) / len(ms), "count": len(ms),
                }
            else:
                period_stats[lr.task.id] = {
                    "min": 0.0, "max": 0.0, "mean": 0.0, "count": 0,
                }
        j = {lr.task.id: lr.plant.iae for lr in self.loops}
        visits = self.trace_visits
        for lr in self.loops:
            if len(lr.plant.samples) != len(visits):
                raise RuntimeError(
                    f"{lr.plant.label}: {len(lr.plant.samples)} trace samples "
                    f"for {len(visits)} visits")
        trace = TraceRecorder(visits, [
            (lr.task.id, lr.plant.samples, lr.trace_u, lr.trace_h_ms)
            for lr in self.loops])
        report = RunReport(
            scenario=self.sc.name,
            mode=self.sc.mode,
            cpu=self.sc.cpu.name or "custom",
            duration_s=duration_s,
            seed=self.sc.seed,
            j=j,
            j_sum=sum(j.values()),
            e_avg=(integral / duration_s) if duration_s > 0 else None,
            energy_integral=integral,
            misses=sum(job.missed for job in self.jobs),
            period_stats_ms=period_stats,
            utilization=self.utilization,
            speed_changes=changes,
        )
        return SimResult(
            report=report,
            trace=trace,
            jobs=self.jobs,
            segments=self.segments,
            busy_ticks=busy_ticks,
            idle_ticks=self.end_tick - busy_ticks,
        )


def run_loop(sc: Scenario) -> SimResult:
    """Run one scenario start to finish.

    Raises `ConfigurationError`, one line per problem `scenario.validate`
    finds, before any event runs, and `DivergenceError`, naming the loop
    and the simulated time it was found at, when a plant's state goes
    non-finite.
    """
    errors = validate(sc)
    if errors:
        raise ConfigurationError("\n".join(errors))
    return Simulator(sc).run()
