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
those events or a trace sample needs its state; other loops' events do
not touch it.  A trace sample at tick t advances the plants to the last
grid instant at or before t and reads y(t) from a copy of the state
integrated the remaining partial step.  It touches neither the step
partition nor the job accounting nor the dispatcher, so every result but
the trace itself is the same at any trace cadence.

Under ``qapm`` each decision also checks the job windows it leaves in
force: the trigger's new job at its new period, rounded to the tick, and
every other loop's job in flight at the period it was released with (see
`policy.in_flight_demand`).  The speed is raised to the lowest level that
covers this demand, so EDF meets every deadline.  The reclaimed periods are
not shrunk again for the higher speed; the spare capacity drains any
backlog.  When the demand exceeds full speed, the CPU runs at full speed
and the trigger's new period is lengthened just enough to fit, up to its
``h_max``.  Without execution-time jitter that always fits, since the
loop's previous window fitted; with jitter, or with speed-switch stalls
(which the check does not count), deadlines may be missed.

Time is integer microsecond ticks.  Event order at equal ticks is fixed:
completions, then reference steps, then releases, then trace samples, then
task id.  A completing job therefore actuates before a same-tick release
samples the plant, and releases see the new reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .metrics import EnergyAccumulator, RunReport, TraceRecorder
from .pid import Pid
from .plant import tf_to_state_space
from .policy import (
    PolicyDecision,
    SchedulabilityError,
    adapt_period,
    cover_demand,
    fit_period,
    ideal_speed,
    in_flight_demand,
    policy_step,
    quantize_speed,
)
from .scenario import Scenario

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


def _ticks(seconds: float) -> int:
    """Period in seconds rounded half-up to the tick grid."""
    return int(seconds * 1e6 + 0.5)


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
        if best is None or (job.deadline, job.release, job.task_id) < (
                best.deadline, best.release, best.task_id):
            best = job
    return best


class _LoopRuntime:
    __slots__ = (
        "task", "plant", "pid", "eff_period", "plant_tick", "next_release",
        "current_work", "period_series",
    )

    def __init__(self, task, plant, pid):
        self.task = task
        self.plant = plant
        self.pid = pid
        self.eff_period = task.h0       # seconds; governs this loop's next release
        self.plant_tick = 0             # tick the plant has integrated to
        self.next_release = 0           # tick
        self.current_work = task.c_nom  # last drawn execution time (jitter hook)
        self.period_series = []         # (tick, eff_period_s, period_ticks)


@dataclass
class SimResult:
    report: RunReport
    trace: TraceRecorder
    jobs: list = field(default_factory=list)
    segments: list = field(default_factory=list)  # (start_tick, end_tick, task_id)
    busy_ticks: int = 0
    idle_ticks: int = 0


class Simulator:
    """Runs one scenario to completion; never reused across runs."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.end_tick = round(sc.duration_s * 1e6)
        self.loops = [
            _LoopRuntime(
                lp.task,
                tf_to_state_space(lp.plant, sc.micro_step_us,
                                  label=f"loop {lp.task.id}"),
                Pid(lp.gains),
            )
            for lp in sc.loops
        ]
        self.by_id = {lr.task.id: lr for lr in self.loops}
        self.specs = [lr.task for lr in self.loops]
        self.index_of = {lr.task.id: i for i, lr in enumerate(self.loops)}
        self.base_periods = [t.h0 for t in self.specs]
        self.r = 0.0
        self.rng = random.Random(sc.seed)

        self.now = 0
        # The next instant of each event source (releases: per loop).
        self.ref_step = round(sc.perturbation_s * 1e6)
        self.next_ref = 0
        self.trace_step = round(sc.trace_cadence_ms * 1000)
        self.next_trace = 0
        self.done_at = _NEVER           # completion tick of the running job
        self.ready: list[Job] = []
        self.running: Job | None = None
        self.charged_at = 0             # running job charged up to this tick
        self.blocked_until = 0
        self.guard: set[Job] | None = None
        self.pending_alpha = 1.0
        self.seg_start = 0

        self.energy = EnergyAccumulator(alpha0=1.0)
        self.trace = TraceRecorder()
        self.utilization: list[tuple[int, float, float]] = []
        self.jobs: list[Job] = []
        self.segments: list[tuple[int, int, int]] = []
        self.busy_ticks = 0
        self.idle_ticks = 0
        self.misses = 0

    # -- time advance ----------------------------------------------------

    def _advance_plant(self, lr, tick):
        """Integrate ``lr``'s plant up to ``tick`` on the micro-step grid."""
        t = lr.plant_tick
        if tick <= t:
            return
        plant = lr.plant
        off = t % plant.micro_step_us
        if off:  # a partial step back onto the grid first
            t = min(t - off + plant.micro_step_us, tick)
            plant.integrate(t - lr.plant_tick, self.r)
        if tick > t:
            plant.integrate(tick - t, self.r)
        lr.plant_tick = tick

    def _advance_to(self, tick):
        span = tick - self.now
        if span < 0:
            raise RuntimeError(f"event order violation: {tick} < {self.now}")
        if self.running is not None:
            self.busy_ticks += span
        else:
            self.idle_ticks += span
        self.now = tick

    def _charge(self):
        """Charge the running job the work served since it was last charged.

        The speed and the switch stall are constant in between, since both
        change only where this is called first.
        """
        job = self.running
        if job is not None:
            run_from = max(self.charged_at, self.blocked_until)
            if run_from < self.now:
                job.remaining -= (self.now - run_from) * 1e-6 * self.energy.alpha
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
        self.done_at = base + int(job.remaining / self.energy.alpha * 1e6)

    def _check_deadlines(self):
        for job in self.ready:
            if not job.missed and job.deadline < self.now and job.remaining > 0.0:
                job.missed = True
                self.misses += 1

    # -- policy ----------------------------------------------------------

    def _invoke_policy(self, trigger_id: int, error: float):
        sc = self.sc
        work = [lr.current_work for lr in self.loops]
        idx = self.index_of[trigger_id]
        if sc.mode == "qapm":
            try:
                dec = policy_step(self.specs, idx, error, self.base_periods,
                                  sc.cpu, work=work)
            except SchedulabilityError:
                # Demand exceeds capacity (only reachable with execution
                # time jitter or deliberately infeasible sets): saturate at
                # full speed and skip reclaiming.
                base = list(self.base_periods)
                base[idx] = adapt_period(error, self.specs[idx])
                ai = ideal_speed(zip(work, base))
                dec = PolicyDecision(
                    alpha_ideal=ai, alpha=1.0,
                    base_periods=tuple(base), effective_periods=tuple(base),
                )
            periods = list(dec.effective_periods)
            alpha_ideal = dec.alpha_ideal
            alpha = self._cover_in_flight(idx, work, periods, dec.alpha)
            self.base_periods = list(dec.base_periods)
            for lr, h in zip(self.loops, periods):
                lr.eff_period = h
        elif sc.mode == "osdvs":
            alpha_ideal = ideal_speed(zip(work, (t.h0 for t in self.specs)))
            alpha = min(alpha_ideal, 1.0)
        else:  # dvs-only
            alpha_ideal = ideal_speed(zip(work, (t.h0 for t in self.specs)))
            try:
                alpha = quantize_speed(alpha_ideal, sc.cpu)
            except SchedulabilityError:
                alpha = 1.0
        self.utilization.append((self.now, alpha_ideal, alpha))
        self._request_alpha(alpha)

    def _cover_in_flight(self, idx, work, periods, alpha):
        """Speed at or above ``alpha`` at which EDF meets the jobs in flight
        and the trigger's new one.  Sets ``periods[idx]`` to the trigger's
        period on the tick grid, lengthened when even full speed falls short.
        """
        periods[idx] = _ticks(periods[idx]) * 1e-6
        in_flight = [lr.period_series[-1][2] * 1e-6 if lr.period_series
                     else None for lr in self.loops]
        demand = in_flight_demand(work, idx, periods, in_flight)
        try:
            return cover_demand(alpha, demand, self.sc.cpu)
        except SchedulabilityError:
            spec = self.specs[idx]
            others = demand - work[idx] / periods[idx]
            fit = fit_period(work[idx], others, spec.h_max)
            periods[idx] = min(math.ceil(fit * 1e6), _ticks(spec.h_max)) * 1e-6
            return 1.0

    def _request_alpha(self, alpha: float):
        # Speed increases take effect at once.  A decrease is held until
        # every job in flight at decision time has completed: those jobs'
        # deadlines were budgeted at the old speed, and the reclaimed
        # schedule runs at full utilization with no slack to absorb the
        # longer service a mid-job slowdown would cause.
        if alpha >= self.energy.alpha:
            self.guard = None
            self._apply_alpha(alpha)
            return
        if self.guard is None:
            in_flight = {j for j in self.ready if j.remaining > 0.0}
            if not in_flight:
                self._apply_alpha(alpha)
                return
            self.guard = in_flight
        self.pending_alpha = alpha

    def _apply_alpha(self, alpha: float):
        self.pending_alpha = None
        self._charge()  # at the speed and stall in force until now
        if self.energy.set_alpha(self.now, alpha):
            if self.sc.switch_overhead_us:
                self.blocked_until = max(self.blocked_until,
                                         self.now + self.sc.switch_overhead_us)
            self._plan_completion()

    # -- event handlers ----------------------------------------------------

    def _on_release(self, lr: _LoopRuntime):
        self._advance_plant(lr, self.now)
        y = lr.plant.sample()
        e = self.r - y

        work = lr.task.c_nom
        if self.sc.c_jitter > 0.0:
            work *= 1.0 + self.sc.c_jitter * (2.0 * self.rng.random() - 1.0)
        lr.current_work = work

        self._invoke_policy(lr.task.id, abs(e))
        # The manager re-decides the period before the control computation
        # runs, so the controller sees the period now in force.
        u = lr.pid.compute(e, lr.eff_period)

        period_ticks = _ticks(lr.eff_period)
        lr.next_release = self.now + period_ticks
        job = Job(lr.task.id, self.now, lr.next_release, work, u)
        lr.period_series.append((self.now, lr.eff_period, period_ticks))
        self.ready.append(job)
        self.jobs.append(job)

    def _on_completion(self):
        job = self.running
        self._charge()
        task_id = job.task_id
        residue_limit = self.energy.alpha * _RESIDUE_TICKS * 1e-6 + 1e-12
        if job.remaining > residue_limit:
            raise RuntimeError(
                f"task {task_id}: completion fired with {job.remaining!r}s left"
            )
        job.remaining = 0.0
        job.completion = self.now
        if not job.missed and self.now > job.deadline:
            job.missed = True
            self.misses += 1
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
        # Runs at or after self.now and before the next event: the state in
        # force is the state at ``tick``.
        t_s = tick * 1e-6
        alpha = self.energy.alpha
        e_inst = alpha * alpha
        for lr in self.loops:
            self._advance_plant(lr, tick - tick % lr.plant.micro_step_us)
            rest = tick - lr.plant_tick
            y = lr.plant.sample_after(rest) if rest else lr.plant.sample()
            self.trace.add(t_s, lr.task.id, self.r, y, self.r - y, lr.plant.u,
                           lr.eff_period * 1000.0, alpha, e_inst)

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
        """(tick, kind, task id, loop) of the earliest pending event other
        than a trace sample; no two pending events share a kind and id."""
        return min(
            [(self.done_at, PRI_COMPLETION, 0, None),
             (self.next_ref, PRI_REF_STEP, 0, None)]
            + [(lr.next_release, PRI_RELEASE, lr.task.id, lr)
               for lr in self.loops])

    def run(self) -> SimResult:
        if self.end_tick == 0:
            return self._finalize()
        while True:
            tick, kind, _, lr = self._next_event()
            # Trace samples rank last at equal ticks.
            while self.next_trace < tick and self.next_trace <= self.end_tick:
                self._on_trace(self.next_trace)
                self.next_trace += self.trace_step
            if tick > self.end_tick:
                break
            if tick > self.now:
                self._advance_to(tick)
                self._check_deadlines()
            if kind == PRI_COMPLETION:
                self._on_completion()
            elif kind == PRI_REF_STEP:
                self._on_ref_step()
            else:
                self._on_release(lr)
            self._dispatch()
        if self.now < self.end_tick:
            self._advance_to(self.end_tick)
            self._check_deadlines()
        for lr in self.loops:
            self._advance_plant(lr, self.end_tick)
        return self._finalize()

    def _finalize(self) -> SimResult:
        if self.running is not None and self.seg_start < self.now:
            self.segments.append((self.seg_start, self.now, self.running.task_id))
        integral = self.energy.finalize(self.end_tick)
        duration_s = self.end_tick * 1e-6
        period_stats = {}
        for lr in self.loops:
            series = lr.period_series
            if series:
                ms = [h * 1000.0 for _, h, _ in series]
                period_stats[lr.task.id] = {
                    "min": min(ms), "max": max(ms),
                    "mean": sum(ms) / len(ms), "count": len(ms),
                }
            else:
                period_stats[lr.task.id] = {
                    "min": 0.0, "max": 0.0, "mean": 0.0, "count": 0,
                }
        j = {lr.task.id: lr.plant.iae for lr in self.loops}
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
            misses=self.misses,
            period_stats_ms=period_stats,
            utilization=[(t * 1e-6, ai, a) for t, ai, a in self.utilization],
            speed_changes=list(self.energy.changes),
        )
        return SimResult(
            report=report,
            trace=self.trace,
            jobs=self.jobs,
            segments=self.segments,
            busy_ticks=self.busy_ticks,
            idle_ticks=self.idle_ticks,
        )


def run_loop(sc: Scenario) -> SimResult:
    """Run one scenario start to finish."""
    return Simulator(sc).run()
