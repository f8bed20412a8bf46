"""Discrete PID controller with an explicit, variable sampling interval.

The control task passes the period just decided for the job it releases,
not the time since its previous sample: the output is held about that
long, and a period the power manager rescales changes the integral and
derivative weights on the very job that starts it.  Under ``qapm`` that
period is the job's deadline minus its release; ``dvs-only`` passes the
loop's nominal period h0, which that interval rounds to whole ticks.
"""

from __future__ import annotations

from .policy import Value

__all__ = ["PidGains", "Pid"]


class PidGains(Value):
    _fields = ("kp", "ki", "kd")
    _kinds = (float, float, float)

    def __init__(self, kp: float, ki: float, kd: float):
        self._set(kp, ki, kd)


class Pid:
    """Positional form: u = kp*e + I + kd*(e - e_prev)/h.

    The integral term accumulates ki*h*e before the output is formed, so
    a constant error contributes from the first sample.  The derivative
    is zero on the first sample (no previous error exists).
    """

    def __init__(self, gains: PidGains):
        self._kp, self._ki, self._kd = gains.kp, gains.ki, gains.kd
        self._integral = 0.0
        self._prev_error = None

    def compute(self, error: float, h_s: float) -> float:
        """Control output for this sample; h_s > 0 is the sampling interval
        in seconds."""
        self._integral += self._ki * h_s * error
        if self._prev_error is None:
            derivative = 0.0
        else:
            derivative = self._kd * (error - self._prev_error) / h_s
        self._prev_error = error
        return self._kp * error + self._integral + derivative
