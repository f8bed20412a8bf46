"""Discrete PID controller with an explicit, variable sampling interval.

The control task passes the interval that actually elapsed since its
previous sample, so period rescaling by the power manager changes the
integral and derivative weights on the very next job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .policy import ConfigurationError

__all__ = ["PidGains", "Pid"]


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or v != v:
                raise ConfigurationError(f"gain {name} must be a number, got {v!r}")


class Pid:
    """Positional form: u = kp*e + I + kd*(e - e_prev)/h.

    The integral term accumulates ki*h*e before the output is formed, so
    a constant error contributes from the first sample.  The derivative
    is zero on the first sample (no previous error exists).
    """

    def __init__(self, gains: PidGains):
        self.gains = gains
        self._integral = 0.0
        self._prev_error = 0.0
        self._primed = False

    def compute(self, error: float, h_s: float) -> float:
        """Control output for this sample; h_s is the elapsed interval in seconds."""
        if h_s <= 0.0:
            raise ValueError(f"sampling interval must be positive, got {h_s}")
        g = self.gains
        self._integral += g.ki * h_s * error
        if self._primed:
            derivative = g.kd * (error - self._prev_error) / h_s
        else:
            derivative = 0.0
        self._prev_error = error
        self._primed = True
        return g.kp * error + self._integral + derivative
