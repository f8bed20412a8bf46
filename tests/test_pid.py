"""Discrete PID with variable sampling interval."""

import random

import pytest

from qapm.pid import Pid, PidGains
from qapm.policy import ConfigurationError


def test_pure_proportional():
    pid = Pid(PidGains(1.0, 0.0, 0.0))
    assert pid.compute(0.5, 0.01) == 0.5
    assert pid.compute(-0.25, 0.002) == -0.25


def test_integral_accumulates_per_interval():
    pid = Pid(PidGains(0.0, 2.0, 0.0))
    assert pid.compute(1.0, 0.010) == pytest.approx(0.02)
    assert pid.compute(1.0, 0.010) == pytest.approx(0.04)


def test_derivative_on_error_difference():
    pid = Pid(PidGains(0.0, 0.0, 1.0))
    assert pid.compute(0.0, 0.010) == 0.0
    # (0.1 - 0.0) / 0.01
    assert pid.compute(0.1, 0.010) == pytest.approx(10.0)


def test_no_derivative_kick_on_first_sample():
    pid = Pid(PidGains(0.0, 0.0, 5.0))
    assert pid.compute(0.7, 0.001) == 0.0


def test_integral_tracks_variable_intervals():
    # With kp = kd = 0 the output is ki * sum(h_j * e_j) whatever the
    # interval sequence; this is what makes period rescaling safe.
    rng = random.Random(3)
    ki = 1.7
    pid = Pid(PidGains(0.0, ki, 0.0))
    acc = 0.0
    for _ in range(500):
        e = rng.uniform(-1.0, 1.0)
        h = rng.uniform(1e-4, 0.05)
        acc += h * e
        assert pid.compute(e, h) == pytest.approx(ki * acc, abs=1e-12)


def test_constant_error_integral_scales_with_elapsed_time():
    ki = 3.0
    e = 0.4
    hs = [0.010, 0.007, 0.021, 0.0005]
    pid = Pid(PidGains(0.0, ki, 0.0))
    u = 0.0
    for h in hs:
        u = pid.compute(e, h)
    assert u == pytest.approx(ki * e * sum(hs))


def test_all_three_terms_combine():
    pid = Pid(PidGains(2.0, 1.0, 0.5))
    u1 = pid.compute(1.0, 0.1)
    assert u1 == pytest.approx(2.0 + 0.1)  # P + I, derivative suppressed
    u2 = pid.compute(0.5, 0.1)
    assert u2 == pytest.approx(2.0 * 0.5 + 0.15 + 0.5 * (0.5 - 1.0) / 0.1)


def test_rejects_nonpositive_interval():
    pid = Pid(PidGains(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        pid.compute(0.1, 0.0)
    with pytest.raises(ValueError):
        pid.compute(0.1, -0.01)


def test_gains_validation():
    with pytest.raises(ConfigurationError):
        PidGains(float("nan"), 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        PidGains(1.0, "x", 0.0)
