"""Continuous LTI plants: transfer functions, state-space form, integration.

Plants are strictly proper single-input single-output systems driven by a
zero-order-hold actuator: the input ``u`` stays constant between `actuate`
calls.  Integration is classical fixed-step RK4, applied as the exact
per-step linear map it is for such a plant, and accumulates the integral
of absolute error against the current reference at micro-step resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policy import ConfigurationError

__all__ = [
    "TransferFunction",
    "StateSpacePlant",
    "DivergenceError",
    "tf_to_state_space",
]

DEFAULT_MICRO_STEP_US = 100
MAX_MICRO_STEP_US = 1000
# Largest plant order accepted.
MAX_STATE = 8


class DivergenceError(ArithmeticError):
    """Plant state became non-finite during integration."""


@dataclass(frozen=True)
class TransferFunction:
    """SISO transfer function, coefficients in ascending powers of s.

    Must be strictly proper: numerator degree below denominator degree.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        num = _strip(self.num)
        den = _strip(self.den)
        if not den or len(den) < 2:
            raise ConfigurationError(f"denominator degree must be >= 1: {self.den}")
        if not num:
            raise ConfigurationError("numerator is zero")
        if len(num) >= len(den):
            raise ConfigurationError(
                f"transfer function not strictly proper: num degree "
                f"{len(num) - 1} >= den degree {len(den) - 1}"
            )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.den) - 1

    @property
    def dc_gain(self) -> float:
        """Steady-state gain, value at s = 0."""
        return self.num[0] / self.den[0]


def _strip(coeffs) -> tuple[float, ...]:
    """Drop trailing (highest-power) zero coefficients."""
    out = [float(v) for v in coeffs]
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


def tf_to_state_space(
    tf: TransferFunction,
    micro_step_us: int = DEFAULT_MICRO_STEP_US,
    label: str = "plant",
) -> "StateSpacePlant":
    """Controllable-canonical realization of a strictly proper tf.

    The denominator is normalized to monic; D is zero.  Any realization
    with the same input/output map would do, this one is fixed for
    deterministic state traces.
    """
    lead = tf.den[-1]
    a_coeffs = [v / lead for v in tf.den[:-1]]
    n = len(a_coeffs)
    a = [0.0] * (n * n)
    for i in range(n - 1):
        a[i * n + i + 1] = 1.0
    for j in range(n):
        a[(n - 1) * n + j] = -a_coeffs[j]
    b = [0.0] * n
    b[n - 1] = 1.0
    c = [0.0] * n
    for j, v in enumerate(tf.num):
        c[j] = v / lead
    return StateSpacePlant(a, b, c, micro_step_us=micro_step_us, label=label)


class StateSpacePlant:
    """x' = A x + B u, y = C x, with a held (zero-order-hold) input.

    ``a`` is A flattened row-major.  State starts at rest (x = 0, u = 0).

    One classical RK4 step of length h is, for this linear system with u
    held, exactly the affine map x <- M x + N u.  The plant builds (M, N)
    for its micro step once and takes every full micro step with it; a
    shorter final step is one plain RK4 step.  ``iae`` is the running
    integral of |r - y| over everything integrated so far: each step adds
    its trapezoid term straight into it, so how a span is split at
    micro-step boundaries does not change the sum.
    """

    def __init__(self, a, b, c, micro_step_us: int = DEFAULT_MICRO_STEP_US,
                 label: str = "plant"):
        n = len(b)
        if len(c) != n or len(a) != n * n:
            raise ConfigurationError(f"{label}: inconsistent matrix dimensions")
        if n > MAX_STATE:
            raise ConfigurationError(
                f"{label}: order {n} exceeds supported maximum {MAX_STATE}"
            )
        if not 1 <= int(micro_step_us) <= MAX_MICRO_STEP_US:
            raise ConfigurationError(
                f"{label}: micro step must be in [1, {MAX_MICRO_STEP_US}] us, "
                f"got {micro_step_us}"
            )
        self.n = n
        self.a = [float(v) for v in a]
        self.b = [float(v) for v in b]
        self.c = [float(v) for v in c]
        self.x = [0.0] * n
        self.u = 0.0
        self.iae = 0.0
        self.micro_step_us = int(micro_step_us)
        self.label = label
        # Column j of M is one step from the unit vector e_j with u = 0;
        # N is one step from x = 0 with u = 1.
        h, idx = self.micro_step_us * 1e-6, range(n)
        cols = [_rk4_step(self.a, self.b, [float(i == j) for i in idx], 0.0, h)
                for j in idx]
        self._m = [[col[i] for col in cols] for i in idx]
        self._n = _rk4_step(self.a, self.b, [0.0] * n, 1.0, h)

    def _march(self, span_us: int, r: float, iae: float):
        """State and output ``span_us`` microseconds ahead of the current
        state, and ``iae`` plus the trapezoid term of |r - y| of every step.

        Full micro steps first, then one shorter step for the remainder.
        """
        if span_us < 0:
            raise ValueError(f"{self.label}: negative span {span_us}")
        idx = range(self.n)
        c, u, x = self.c, self.u, self.x
        y = _output(c, x)
        full, rem = divmod(span_us, self.micro_step_us)
        if full:
            rows = self._m
            g = [v * u for v in self._n]
            half_h = self.micro_step_us * 0.5e-6
            for _ in range(full):
                nxt = []
                for i in idx:
                    acc = g[i]
                    row = rows[i]
                    for j in idx:
                        acc += row[j] * x[j]
                    nxt.append(acc)
                x = nxt
                y_prev = y
                y = 0.0
                for i in idx:
                    y += c[i] * x[i]
                iae += (abs(r - y_prev) + abs(r - y)) * half_h
        if rem:
            x = _rk4_step(self.a, self.b, x, u, rem * 1e-6)
            y_prev, y = y, _output(c, x)
            iae += (abs(r - y_prev) + abs(r - y)) * (rem * 0.5e-6)
        return x, y, iae

    def sample(self) -> float:
        """Current output y = C x."""
        return _output(self.c, self.x)

    def sample_after(self, span_us: int) -> float:
        """Output ``span_us`` microseconds ahead; the plant itself (state
        and ``iae``) does not move."""
        return self._march(span_us, 0.0, 0.0)[1]

    def actuate(self, u: float) -> None:
        """Replace the held actuator value."""
        self.u = u

    def integrate(self, span_us: int, r: float = 0.0) -> None:
        """Advance the plant by ``span_us`` microseconds with the reference
        held at ``r``, adding the integral of |r - y(t)| over the span
        (trapezoid over the micro-step samples, in seconds) to ``iae``."""
        self.x, y, self.iae = self._march(span_us, r, self.iae)
        if not math.isfinite(y) or any(not math.isfinite(v) for v in self.x):
            raise DivergenceError(f"{self.label}: state diverged (non-finite)")


def _output(c, x) -> float:
    y = 0.0
    for i in range(len(x)):
        y += c[i] * x[i]
    return y


def _rk4_step(a, b, x, u, h):
    """One classical RK4 step of x' = A x + B u from ``x``; a new list."""
    n = len(x)

    def deriv(xs):
        out = []
        for i in range(n):
            acc = b[i] * u
            for j in range(n):
                acc += a[i * n + j] * xs[j]
            out.append(acc)
        return out

    hh, h6 = h * 0.5, h / 6.0
    k1 = deriv(x)
    k2 = deriv([xi + hh * k for xi, k in zip(x, k1)])
    k3 = deriv([xi + hh * k for xi, k in zip(x, k2)])
    k4 = deriv([xi + h * k for xi, k in zip(x, k3)])
    return [xi + h6 * (p + 2.0 * q + 2.0 * s + t)
            for xi, p, q, s, t in zip(x, k1, k2, k3, k4)]
