"""Plant models: transfer functions, RK4 integration.

The second benchmark plant 1/(s^2 + 10 s + 20) has real poles at
-5 +/- sqrt(5), so its unit step response has the closed form

    y(t) = 1/20 + c1 exp(p1 t) + c2 exp(p2 t)

with c1 = 1 / (p1 (p1 - p2)) and c2 = 1 / (p2 (p2 - p1)).  That is the
independent oracle the integrator is checked against.  Stepping with the
per-plant transition map is checked against plain stepwise RK4 on random
systems of every supported order.
"""

import math
import random

import pytest

from qapm.plant import (
    MAX_STATE,
    DivergenceError,
    StateSpacePlant,
    TransferFunction,
    tf_to_state_space,
)
from qapm.policy import ConfigurationError

LOOP1_TF = TransferFunction((1.0,), (50.0, 1000.0))       # 1/(1000s + 50)
LOOP2_TF = TransferFunction((1.0,), (20.0, 10.0, 1.0))    # 1/(s^2 + 10s + 20)
LOOP3_TF = TransferFunction((1.0,), (10.0, 6.0, 0.5))     # 1/(0.5s^2 + 6s + 10)


def loop2_step(t: float) -> float:
    r5 = math.sqrt(5.0)
    p1, p2 = -5.0 + r5, -5.0 - r5
    c1 = 1.0 / (p1 * (p1 - p2))
    c2 = 1.0 / (p2 * (p2 - p1))
    return 0.05 + c1 * math.exp(p1 * t) + c2 * math.exp(p2 * t)


def loop2_plant(micro_step_us: int = 100) -> StateSpacePlant:
    return tf_to_state_space(LOOP2_TF, micro_step_us=micro_step_us)


# --- transfer functions -----------------------------------------------------

def test_dc_gains_of_benchmark_plants():
    assert LOOP1_TF.dc_gain == pytest.approx(0.02)
    assert LOOP2_TF.dc_gain == pytest.approx(0.05)
    assert LOOP3_TF.dc_gain == pytest.approx(0.1)


def test_orders():
    assert LOOP1_TF.order == 1
    assert LOOP2_TF.order == 2


def test_trailing_zero_coefficients_stripped():
    tf = TransferFunction((1.0, 0.0), (50.0, 1000.0, 0.0))
    assert tf.order == 1
    assert tf.num == (1.0,)


def test_rejects_improper_or_degenerate():
    with pytest.raises(ConfigurationError):
        TransferFunction((1.0, 2.0), (1.0, 1.0))  # proper but not strictly
    with pytest.raises(ConfigurationError):
        TransferFunction((1.0,), (5.0,))  # degree 0 denominator
    with pytest.raises(ConfigurationError):
        TransferFunction((0.0,), (1.0, 1.0))  # zero numerator


def test_canonical_realization_first_order():
    # 1/(1000s + 50) normalizes to x' = -0.05 x + u, y = 0.001 x
    p = tf_to_state_space(LOOP1_TF)
    assert list(p.a) == [-0.05]
    assert list(p.b) == [1.0]
    assert list(p.c) == [0.001]


def test_canonical_realization_second_order():
    p = loop2_plant()
    assert list(p.a) == [0.0, 1.0, -20.0, -10.0]
    assert list(p.b) == [0.0, 1.0]
    assert list(p.c) == [1.0, 0.0]


# --- integration accuracy ---------------------------------------------------

def test_step_response_matches_analytic_within_1e_6():
    p = loop2_plant(micro_step_us=100)
    p.actuate(1.0)
    worst = 0.0
    t_us = 0
    for _ in range(300):  # 3 s in 10 ms chunks
        p.integrate(10_000)
        t_us += 10_000
        worst = max(worst, abs(p.sample() - loop2_step(t_us * 1e-6)))
    assert worst <= 1e-6


def test_fourth_order_convergence():
    # Fourth-order method: halving the step cuts the error ~16x.  Checked
    # at coarse steps where truncation dominates rounding noise.
    def max_err(micro):
        p = loop2_plant(micro_step_us=micro)
        p.actuate(1.0)
        worst = 0.0
        t_us = 0
        for _ in range(125):  # 0.5 s in 4 ms chunks
            p.integrate(4_000)
            t_us += 4_000
            worst = max(worst, abs(p.sample() - loop2_step(t_us * 1e-6)))
        return worst

    e800, e400 = max_err(800), max_err(400)
    assert 12.0 <= e800 / e400 <= 20.0


def test_linearity():
    p1 = loop2_plant()
    p2 = loop2_plant()
    p1.actuate(0.7)
    p2.actuate(1.4)
    for _ in range(50):
        p1.integrate(10_000)
        p2.integrate(10_000)
        assert p2.sample() == pytest.approx(2.0 * p1.sample(), rel=1e-9)


def test_actuation_holds_between_samples_and_keeps_output_continuous():
    p = loop2_plant()
    p.actuate(1.0)
    p.integrate(200_000)
    y_before = p.sample()
    p.actuate(-3.0)  # input jumps, state and output do not
    assert p.sample() == y_before
    p.integrate(100_000)
    assert p.sample() != y_before


def test_homogeneous_response_decays():
    p = loop2_plant()
    p.x[0] = 1.0  # released from a deflected state, zero input
    checkpoints = []
    for _ in range(8):
        p.integrate(1_000_000)
        checkpoints.append(abs(p.sample()))
    assert checkpoints[-1] < 1e-6
    assert all(a > b for a, b in zip(checkpoints[1:], checkpoints[2:]))


def test_zero_span_is_a_no_op():
    p = loop2_plant()
    p.actuate(1.0)
    p.integrate(50_000, r=1.0)
    x_before, iae_before, y_before = list(p.x), p.iae, p.sample()
    assert p.sample_after(0) == y_before
    p.integrate(0, r=1.0)
    assert list(p.x) == x_before
    assert p.iae == iae_before


def test_span_shorter_than_micro_step_is_one_partial_step():
    p1 = StateSpacePlant([-3.0], [1.0], [1.0], micro_step_us=100)
    p2 = StateSpacePlant([-3.0], [1.0], [1.0], micro_step_us=37)
    for p in (p1, p2):
        p.x[0] = 0.2
        p.actuate(1.0)
        p.integrate(37)
    assert p1.x == p2.x
    assert p1.iae == p2.iae


def test_negative_span_raises():
    p = loop2_plant()
    with pytest.raises(ValueError):
        p.integrate(-1)
    with pytest.raises(ValueError):
        p.sample_after(-1)
    assert p.x == [0.0, 0.0]


def test_sample_after_leaves_the_plant_where_it_was():
    a = loop2_plant()
    b = loop2_plant()
    for p in (a, b):
        p.actuate(1.0)
        p.integrate(20_000, r=1.0)
    y = a.sample_after(1_234)
    assert (a.x, a.iae) == (b.x, b.iae)
    b.integrate(1_234, r=1.0)
    assert y == b.sample()


# --- transition map against stepwise RK4 ----------------------------------------

def rk4_reference(a, b, c, x, u, r, span_us, micro_step_us):
    """Plain stepwise RK4 over ``span_us``: full steps, then the remainder.
    Returns the final state and the trapezoid integral of |r - y|."""
    n = len(x)

    def f(xs):
        return [b[i] * u + sum(a[i * n + j] * xs[j] for j in range(n))
                for i in range(n)]

    def out(xs):
        return sum(ci * xi for ci, xi in zip(c, xs))

    full, rem = divmod(span_us, micro_step_us)
    iae = 0.0
    for h_us in [micro_step_us] * full + ([rem] if rem else []):
        h = h_us * 1e-6
        k1 = f(x)
        k2 = f([xi + h / 2 * k for xi, k in zip(x, k1)])
        k3 = f([xi + h / 2 * k for xi, k in zip(x, k2)])
        k4 = f([xi + h * k for xi, k in zip(x, k3)])
        y0 = out(x)
        x = [xi + h / 6 * (p + 2 * q + 2 * s + t)
             for xi, p, q, s, t in zip(x, k1, k2, k3, k4)]
        iae += (abs(r - y0) + abs(r - out(x))) / 2 * h
    return x, iae


@pytest.mark.parametrize("micro", (37, 100, 250, 1000))
def test_transition_map_matches_stepwise_rk4_for_every_order(micro):
    rng = random.Random(micro)
    for n in range(1, MAX_STATE + 1):
        for _ in range(3):
            a = [rng.uniform(-8.0, 2.0) if i == j else rng.uniform(-2.0, 2.0)
                 for i in range(n) for j in range(n)]
            b = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            c = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            x0 = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            u, r = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            # a span with a partial final step, then one whole number of steps
            spans = (rng.randint(1, 20) * micro + rng.randint(1, micro - 1),
                     rng.randint(1, 20) * micro)
            p = StateSpacePlant(a, b, c, micro_step_us=micro)
            p.x = list(x0)
            p.actuate(u)
            x, iae = x0, 0.0
            for span in spans:
                p.integrate(span, r)
                x, d = rk4_reference(a, b, c, x, u, r, span, micro)
                iae += d
                assert p.x == pytest.approx(x, rel=0.0, abs=1e-12), (n, span)
                assert p.iae == pytest.approx(iae, rel=0.0, abs=1e-12), (n, span)


def test_partial_final_step_is_exact_decomposition():
    # One 250 us span steps 100+100+50 internally, identical to separate
    # calls that cover the same boundaries.
    a = loop2_plant()
    b = loop2_plant()
    a.actuate(2.0)
    b.actuate(2.0)
    a.integrate(250)
    b.integrate(100)
    b.integrate(150)
    assert list(a.x) == list(b.x)


def test_iae_of_held_error():
    # Plant at rest with zero input and unit reference: |r - y| = 1
    # throughout, so one second integrates to exactly 1.
    p = loop2_plant()
    p.integrate(1_000_000, r=1.0)
    assert p.iae == pytest.approx(1.0, rel=1e-9)
    assert p.sample() == 0.0


def test_iae_is_nonnegative_and_additive():
    # Every micro step adds its term to the running sum, so splitting a
    # span at a micro-step boundary leaves the sum bit for bit the same.
    p1 = loop2_plant()
    p1.actuate(1.0)
    p1.integrate(400_000, r=0.05)
    p2 = loop2_plant()
    p2.actuate(1.0)
    p2.integrate(150_000, r=0.05)
    p2.integrate(250_000, r=0.05)
    assert p1.iae > 0.0
    assert p2.iae == p1.iae


def test_divergence_raises_with_label():
    # x' = 50 x doubles every ~14 ms; a long span overflows to inf.
    p = StateSpacePlant([50.0], [1.0], [1.0], micro_step_us=1000,
                        label="runaway")
    p.x[0] = 1.0
    with pytest.raises(DivergenceError, match="runaway"):
        p.integrate(20_000_000)


def test_construction_validation():
    with pytest.raises(ConfigurationError):
        StateSpacePlant([1.0], [1.0, 2.0], [1.0])  # dimension mismatch
    with pytest.raises(ConfigurationError):
        StateSpacePlant([0.0], [1.0], [1.0], micro_step_us=0)
    with pytest.raises(ConfigurationError):
        StateSpacePlant([0.0], [1.0], [1.0], micro_step_us=1001)
    n = MAX_STATE + 1
    with pytest.raises(ConfigurationError):
        StateSpacePlant([0.0] * (n * n), [0.0] * n, [0.0] * n)
