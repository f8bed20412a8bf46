"""Three-stage power manager: period adaptation, voltage scaling, reclaiming.

The manager runs every time a control task releases a new job, as one
call of the decision `manager` binds to a run's tasks, levels and mode.
It first stretches or shrinks the sampling period of the
triggering loop according to how large its control error currently is
(small error -> long period -> less work).  It then picks the lowest
discrete CPU speed that still fits the total workload, and shrinks *all*
sampling periods by the resulting workload/speed ratio so the CPU ends up
exactly 100% utilized.  Last, it raises the speed where the jobs already in
flight need more, so EDF meets every deadline.

The value types are immutable and the functions pure; a bound decision
keeps no state between calls and modifies none of its inputs, so it is
safe to call concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from types import UnionType
from typing import Iterable, Sequence

__all__ = [
    "Value",
    "AdaptationParams",
    "TaskSpec",
    "CpuLevels",
    "ConfigurationError",
    "checked",
    "ideal_speed",
    "quantize_speed",
    "reclaim_periods",
    "manager",
]

# |alpha_ideal - level| below this counts as an exact level match.
EXACT_LEVEL_TOL = 1e-12

# Feasible float sums may land a few ulps above 1; treat that as 1.
ONE_SLACK = 1e-9


class ConfigurationError(ValueError):
    """A task, level set, or scenario violates a structural invariant."""


def checked(errors: list[str], path: str, v, kind):
    """``v`` as a value of ``kind``; when it is not one, None, and one
    message naming ``path`` added to ``errors``.

    ``kind`` is a type, ``k | None``, or ``(k,)`` for a tuple or list of
    ``k``, which is returned as a tuple, its item ``i`` named ``path[i]``.
    A ``float`` kind takes a finite float, or an int converted to one; NaN
    and +-inf are rejected, and a bool, though an int, is no number.
    """
    if type(kind) is tuple:
        if not isinstance(v, (tuple, list)):
            errors.append(f"{path}: expected tuple, got {v!r}")
            return None
        item = kind[0]
        return tuple([checked(errors, f"{path}[{i}]", x, item)
                      for i, x in enumerate(v)])
    if type(kind) is UnionType:
        return None if v is None else checked(errors, path, v, kind.__args__[0])
    if type(v) is not bool:
        if kind is float and isinstance(v, (int, float)):
            try:
                v = float(v)
            except OverflowError:
                errors.append(f"{path}: integer out of float range")
                return None
            if math.isfinite(v):
                return v
            errors.append(f"{path}: must be finite, got {v}")
            return None
        if isinstance(v, kind):
            return v
    elif kind is bool:
        return v
    errors.append(f"{path}: expected {kind.__name__}, got {v!r}")
    return None


class Value:
    """Base of the immutable value types, each valid by construction.

    A subclass lists its fields in ``_fields``, in the order its
    ``__init__`` takes them, and the kind of each, as `checked` takes it,
    in ``_kinds``.  Its ``__init__`` hands the fields to ``_set`` before
    its range checks, so those only ever see fields of the right kind,
    floats finite.
    Equality, hashing, repr, `with_`, copy and pickle go by type and those
    fields.
    """

    _fields: tuple[str, ...] = ()
    _kinds: tuple = ()

    def _set(self, *values) -> tuple:
        """Store ``values``, one per field, each checked and converted to
        its kind, and return them; raises one `ConfigurationError` naming
        every field of the wrong kind or not finite (see `checked`)."""
        errors: list[str] = []
        values = tuple([checked(errors, f, v, k)
                        for f, v, k in zip(self._fields, values, self._kinds)])
        if errors:
            raise ConfigurationError("; ".join(errors))
        self.__dict__.update(zip(self._fields, values))
        return values

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({args})"

    def with_(self, **changes):
        """A copy with ``changes`` applied, checked as a new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __reduce__(self):
        return type(self), self._values()


class AdaptationParams(Value):
    """Error thresholds and exponent gain for period adaptation.

    Below ``e_min`` the period jumps to its maximum, above ``e_max`` it is
    pinned to its nominal minimum, and in between it interpolates
    exponentially with steepness ``beta``.
    """

    _fields = ("beta", "e_min", "e_max")
    _kinds = (float, float, float)

    def __init__(self, beta: float, e_min: float, e_max: float):
        beta, e_min, e_max = self._set(beta, e_min, e_max)
        if not beta > 0:
            raise ConfigurationError(f"beta must be positive, got {beta}")
        if not (0 <= e_min < e_max):
            raise ConfigurationError(
                f"need 0 <= e_min < e_max, got e_min={e_min} e_max={e_max}"
            )
        # The ends of the exponential interpolation, fixed per parameter
        # set; not fields, so not in repr, eq or the constructor.  Equal
        # ends, from a beta too small or too large for float, leave the
        # period adaptation (see `manager`) nothing to interpolate between.
        lo, hi = math.exp(-beta * e_max), math.exp(-beta * e_min)
        if lo == hi:
            raise ConfigurationError(
                f"beta must make exp(-beta*e_min) and exp(-beta*e_max) "
                f"differ, got beta={beta} (both {hi})")
        self.__dict__.update(_exp_lo=lo, _exp_hi=hi)


class TaskSpec(Value):
    """Static timing attributes of one control task.

    Time values are unit-agnostic; callers must just be consistent (the
    simulator uses seconds).  ``c_nom`` is the execution time at full CPU
    speed; at speed ``alpha`` the task takes ``c_nom / alpha``.
    """

    _fields = ("id", "c_nom", "h0", "h_max", "adaptation")
    _kinds = (int, float, float, float, AdaptationParams)

    def __init__(self, id: int, c_nom: float, h0: float, h_max: float,
                 adaptation: AdaptationParams):
        id, c_nom, h0, h_max, adaptation = self._set(id, c_nom, h0, h_max,
                                                     adaptation)
        if not (0 < c_nom <= h0 <= h_max):
            raise ConfigurationError(
                f"task {id}: need 0 < c_nom <= h0 <= h_max, "
                f"got c_nom={c_nom} h0={h0} h_max={h_max}"
            )
        # The largest period scale factor, not a field (see AdaptationParams).
        self.__dict__.update(stretch_limit=h_max / h0)


class CpuLevels(Value):
    """The discrete set of normalized CPU speeds, highest always 1.0.

    With ``ideal=True`` the processor scales continuously over (0, 1] and
    ``levels`` is ignored by quantization.
    """

    _fields = ("levels", "ideal", "name")
    _kinds = ((float,), bool, str)

    def __init__(self, levels: Sequence[float], ideal: bool = False, name: str = ""):
        levels, ideal, name = self._set(levels, ideal, name)
        if not ideal:
            if not levels:
                raise ConfigurationError("level set is empty")
            if levels[0] <= 0:
                raise ConfigurationError(f"levels must be positive, got {levels[0]}")
            if any(a >= b for a, b in zip(levels, levels[1:])):
                raise ConfigurationError(f"levels not strictly ascending: {levels}")
            if levels[-1] != 1.0:
                raise ConfigurationError(f"highest level must be 1.0, got {levels[-1]}")


def ideal_speed(tasks: Iterable[tuple[float, float]]) -> float:
    """Workload of the task set: sum of c_nom / period.

    ``tasks`` yields (nominal execution time, current period) pairs.  This
    is the lowest continuous speed that keeps the set schedulable, so it is
    what an ideal continuously-scaling processor would run at.  No clamping
    is applied.
    """
    total = 0.0
    for c_nom, period in tasks:
        total += c_nom / period
    return total


def quantize_speed(alpha_ideal: float, levels: CpuLevels) -> float:
    """Map the ideal speed onto the available level set.

    Picks the smallest level that is >= alpha_ideal (within
    ``EXACT_LEVEL_TOL`` for equality), or the lowest level when even that
    exceeds the demand.  Ideal processors pass the value through.  A
    workload above full speed runs at full speed.
    """
    if alpha_ideal > 1.0:
        alpha_ideal = 1.0
    if levels.ideal:
        return alpha_ideal
    # The first level >= the demand less the tolerance; the top level is
    # 1.0, so the index is always in range.
    lv = levels.levels
    return lv[bisect_left(lv, alpha_ideal - EXACT_LEVEL_TOL)]


def reclaim_periods(
    base_periods: Sequence[float], alpha_ideal: float, alpha: float
) -> list[float]:
    """Shrink all periods by alpha_ideal/alpha so utilization returns to 1.

    After quantization the CPU runs faster than the workload needs
    (alpha >= alpha_ideal), which would leave it partly idle.  Scaling
    every period by the ratio hands the spare capacity back to the loops
    as faster sampling.  Periods may drop below their nominal values.
    """
    scale = alpha_ideal / alpha
    return [h * scale for h in base_periods]


def _ticks(seconds: float) -> int:
    """``seconds`` rounded half-up to whole microsecond ticks, at least
    one: the clock's resolution."""
    ticks = int(seconds * 1e6 + 0.5)
    return ticks if ticks > 1 else 1


def manager(specs: Sequence[TaskSpec], levels: CpuLevels, mode: str = "qapm"):
    """The power manager of one run, bound to its tasks, levels and mode.

    Returns ``decide(trigger, error, base_periods, in_flight, work)``, the
    decision at a release of loop ``trigger``, which returns
    ``(base_periods, periods, ticks, alpha_ideal, alpha)``: the
    error-adapted periods before reclaiming and the periods in force, both
    in seconds; the trigger's period in whole microsecond ticks, which
    ``periods[trigger]`` equals under ``qapm``; the workload and the speed
    to run at.  A period rounds half-up to ticks, and to no fewer than one
    tick, the clock's resolution, in every mode: a period under half a
    microsecond, given or reclaimed, is released every tick.
    ``work`` is each loop's execution time at full speed (the trigger's
    for the job being released), and ``in_flight[j]`` the period, in
    ticks, that loop j's job in flight was released with, or None before
    its first release.

    Under ``qapm`` only the trigger's base period is re-adapted from
    ``error``: h0 times h_max/h0 up to ``e_min``, 1 from ``e_max`` on, and
    1 + (h_max/h0 - 1) * w in between, w the exponential interpolation
    (exp(-beta*e) - exp(-beta*e_max)) / (exp(-beta*e_min) -
    exp(-beta*e_max)); clamped to [h0, h_max].  The speed is the lowest
    level that fits the workload and every period is reclaimed by
    alpha_ideal / alpha; a workload above full speed runs at full speed
    and reclaims nothing.  The speed then also covers the job windows in
    force until the next decision: the trigger's new job at its new period
    and every other job in flight at the period it was released with,

        D = w_i/h'_i + sum_{j != i} w_j/P_j

    Deadlines equal next releases, so while the speed stays at or above D
    a fluid schedule meets every window, and so does EDF
    (processor-demand criterion).  The reclaimed periods are not shrunk
    again for a speed raised this way.  When D exceeds full speed, the CPU
    runs at full speed and the trigger's period becomes the shortest
    whole tick at which its job fits beside the others, up to its
    ``h_max``.

    ``dvs-only`` keeps the nominal periods and runs at the workload's
    quantized level; on an ideal processor that is the workload itself,
    the optimal standard DVS scheme (osDVS).  ``periods[trigger]`` is h0
    there, from which ``ticks * 1e-6`` can differ in the last bit, and
    every decision returns the same list of them, twice.
    Each task's constants are read once, here.  ``decide`` keeps no state
    between calls and modifies none of its inputs; a caller modifies no
    list it returns.
    """
    if mode != "qapm":
        nominal = [s.h0 for s in specs]
        nominal_ticks = [_ticks(h) for h in nominal]

        def decide(trigger, error, base_periods, in_flight, work):
            alpha_ideal = ideal_speed(zip(work, nominal))
            alpha = quantize_speed(alpha_ideal, levels)
            return nominal, nominal, nominal_ticks[trigger], alpha_ideal, alpha
        return decide

    # Per task: h0, h_max, the stretch limit h_max/h0, e_min, e_max, beta,
    # the interpolation's ends and h_max in ticks.
    tasks = [(s.h0, s.h_max, s.stretch_limit, s.adaptation.e_min,
              s.adaptation.e_max, s.adaptation.beta, s.adaptation._exp_lo,
              s.adaptation._exp_hi, _ticks(s.h_max)) for s in specs]
    exp, ceil = math.exp, math.ceil
    full = 1.0 + ONE_SLACK

    def decide(trigger, error, base_periods, in_flight, work):
        h0, h_max, ratio, e_min, e_max, beta, lo, hi, h_max_us = tasks[trigger]
        if error <= e_min:
            h = ratio * h0
        elif error >= e_max:
            h = h0
        else:
            h = ((exp(-beta * error) - lo) / (hi - lo) * (ratio - 1.0)
                 + 1.0) * h0
        if h < h0:
            h = h0
        elif h > h_max:
            h = h_max
        base = list(base_periods)
        base[trigger] = h
        alpha_ideal = ideal_speed(zip(work, base))
        if alpha_ideal > full:
            alpha = 1.0
            periods = base[:]
        else:
            alpha = quantize_speed(alpha_ideal, levels)
            periods = reclaim_periods(base, alpha_ideal, alpha)
        ticks = _ticks(periods[trigger])
        periods[trigger] = ticks * 1e-6
        demand = 0.0
        for j, w in enumerate(work):
            p = in_flight[j]
            demand += w / (periods[j] if j == trigger or p is None
                           else p * 1e-6)
        if demand > alpha + EXACT_LEVEL_TOL:
            if demand <= full:
                alpha = quantize_speed(demand, levels)
            else:
                w = work[trigger]
                free = 1.0 - (demand - w / periods[trigger])
                fit = h_max if free * h_max <= w else w / free
                ticks = min(ceil(fit * 1e6), h_max_us)
                periods[trigger] = ticks * 1e-6
                alpha = 1.0
        return base, periods, ticks, alpha_ideal, alpha
    return decide
