"""Plant models: transfer functions, RK4 integration.

The second benchmark plant 1/(s^2 + 10 s + 20) has real poles at
-5 +/- sqrt(5), so its unit step response has the closed form

    y(t) = 1/20 + c1 exp(p1 t) + c2 exp(p2 t)

with c1 = 1 / (p1 (p1 - p2)) and c2 = 1 / (p2 (p2 - p1)).  That is the
independent oracle the integrator is checked against.  Stepping with the
per-plant transition map is checked against plain stepwise RK4 on random
transfer functions of every supported order, and the unrolled kernel
against the same arithmetic written as loops over the order, for exact
equality; both references take the realization's A, B and C written out
in full.
"""

import math
import random

import pytest

from qapm.plant import (
    MAX_STATE,
    DivergenceError,
    StateSpacePlant,
    TransferFunction,
    _pattern,
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
    return StateSpacePlant(LOOP2_TF, micro_step_us=micro_step_us)


# --- transfer functions -----------------------------------------------------

def test_dc_gains_of_benchmark_plants():
    # the steady-state gain, the value at s = 0
    for tf, gain in ((LOOP1_TF, 0.02), (LOOP2_TF, 0.05), (LOOP3_TF, 0.1)):
        assert tf.num[0] / tf.den[0] == pytest.approx(gain)


def test_orders():
    assert len(LOOP1_TF.den) - 1 == 1
    assert len(LOOP2_TF.den) - 1 == 2


def test_trailing_zero_coefficients_stripped():
    tf = TransferFunction((1.0, 0.0), (50.0, 1000.0, 0.0))
    assert len(tf.den) - 1 == 1
    assert tf.num == (1.0,)


def test_rejects_improper_or_degenerate():
    with pytest.raises(ConfigurationError):
        TransferFunction((1.0, 2.0), (1.0, 1.0))  # proper but not strictly
    with pytest.raises(ConfigurationError):
        TransferFunction((1.0,), (5.0,))  # degree 0 denominator
    with pytest.raises(ConfigurationError):
        TransferFunction((0.0,), (1.0, 1.0))  # zero numerator


def test_construction_validation():
    # The order is checked where the plant is specified.
    tf = TransferFunction((1.0,), (1.0,) * (MAX_STATE + 1))
    assert len(tf.den) - 1 == MAX_STATE
    with pytest.raises(ConfigurationError,
                       match=f"^order {MAX_STATE + 1} exceeds supported "
                             f"maximum {MAX_STATE}$"):
        TransferFunction((1.0,), (1.0,) * (MAX_STATE + 2))
    # The realization divides every coefficient by the leading denominator
    # one; a plant whose quotients overflow is rejected here.
    for num, den in (((1.0,), (1.0, 1e-310)), ((1e300,), (1.0, 1e-10)),
                     ((1.0,), (-1e300, 2.0, 1e-10))):
        with pytest.raises(ConfigurationError, match="^monic form overflows"):
            TransferFunction(num, den)
    assert TransferFunction((1e-300,), (1e300, 1e-8)).den == (1e300, 1e-8)
    # A numerator whose quotients all underflow to zero would give a plant
    # whose output is zero whatever its input.
    with pytest.raises(ConfigurationError,
                       match=r"^numerator is zero in monic form: "
                             r"\(1e-320,\)$"):
        TransferFunction((1e-320,), (1.0, 1e10))
    # One that underflows in part is accepted.
    assert StateSpacePlant(TransferFunction((1e-320, 1.0), (1.0, 1.0, 1e10)),
                           micro_step_us=100).c == [0.0, 1e-10]


def test_canonical_realization_first_order():
    # 1/(1000s + 50) normalizes to x' = -0.05 x + u, y = 0.001 x
    p = StateSpacePlant(LOOP1_TF, micro_step_us=100)
    assert p.a == [-0.05]
    assert p.c == [0.001]


def test_canonical_realization_second_order():
    # x0' = x1, x1' = u - 20 x0 - 10 x1: A's last row, and C zero-padded
    p = loop2_plant()
    assert p.a == [-20.0, -10.0]
    assert p.c == [1.0, 0.0]
    q = StateSpacePlant(TransferFunction((3.0, 1.5), (20.0, 10.0, 0.5)),
                        micro_step_us=100)
    assert q.a == [-40.0, -20.0]
    assert q.c == [6.0, 3.0]


# --- integration accuracy ---------------------------------------------------

def test_step_response_matches_analytic_within_1e_6():
    p = loop2_plant(micro_step_us=100)
    worst = 0.0
    t_us = 0
    for _ in range(300):  # 3 s in 10 ms chunks
        y = p.advance(p.time_us + 10_000, 0.0, 1.0)
        t_us += 10_000
        worst = max(worst, abs(y - loop2_step(t_us * 1e-6)))
    assert worst <= 1e-6


def test_fourth_order_convergence():
    # Fourth-order method: halving the step cuts the error ~16x.  Checked
    # at coarse steps where truncation dominates rounding noise.
    def max_err(micro):
        p = loop2_plant(micro_step_us=micro)
        worst = 0.0
        t_us = 0
        for _ in range(125):  # 0.5 s in 4 ms chunks
            y = p.advance(p.time_us + 4_000, 0.0, 1.0)
            t_us += 4_000
            worst = max(worst, abs(y - loop2_step(t_us * 1e-6)))
        return worst

    e800, e400 = max_err(800), max_err(400)
    assert 12.0 <= e800 / e400 <= 20.0


def test_linearity():
    p1 = loop2_plant()
    p2 = loop2_plant()
    for _ in range(50):
        y1 = p1.advance(p1.time_us + 10_000, 0.0, 0.7)
        y2 = p2.advance(p2.time_us + 10_000, 0.0, 1.4)
        assert y2 == pytest.approx(2.0 * y1, rel=1e-9)


def test_actuation_holds_between_samples_and_keeps_output_continuous():
    p = loop2_plant()
    y_before = p.advance(200_000, 0.0, 1.0)
    # input jumps, state and output do not
    assert p.advance(200_000, 0.0, -3.0) == y_before
    assert p.advance(300_000, 0.0, -3.0) != y_before


def test_homogeneous_response_decays():
    p = loop2_plant()
    p.x[0] = 1.0  # released from a deflected state, zero input
    checkpoints = []
    for _ in range(8):
        checkpoints.append(abs(p.advance(p.time_us + 1_000_000, 0.0, 0.0)))
    assert checkpoints[-1] < 1e-6
    assert all(a > b for a, b in zip(checkpoints[1:], checkpoints[2:]))


def test_zero_span_is_a_no_op():
    p = StateSpacePlant(LOOP2_TF, micro_step_us=100, sample_every_us=25_000)
    y_before = p.advance(50_000, 1.0, 1.0)
    x_before, iae_before = list(p.x), p.iae
    assert p.samples[-1] == y_before  # the sample due at 50 ms
    y = p.advance(50_000, 1.0, 1.0)
    assert list(p.x) == x_before
    assert p.iae == iae_before
    assert y == y_before
    assert len(p.samples) == 3


def test_zero_span_returns_current_output():
    # 2/(s + 1), x' = -x + u, y = 2 x, at x = 0.5: a zero span changes
    # nothing, and the output it reads, and writes for the sample due now,
    # is the current one.
    p = StateSpacePlant(TransferFunction((2.0,), (1.0, 1.0)),
                        micro_step_us=100, sample_every_us=100)
    p.x[0] = 0.5
    y = p.advance(0, 0.0, 0.0)
    assert p.samples == [1.0]
    assert p.iae == 0.0
    assert y == 1.0
    assert p.x[0] == 0.5


def test_span_shorter_than_micro_step_is_one_partial_step():
    tf = TransferFunction((1.0,), (3.0, 1.0))  # x' = -3 x + u, y = x
    p1 = StateSpacePlant(tf, micro_step_us=100)
    p2 = StateSpacePlant(tf, micro_step_us=37)
    for p in (p1, p2):
        p.x[0] = 0.2
        p.advance(37, 0.0, 1.0)
    assert p1.x == p2.x
    assert p1.iae == p2.iae


def test_samples_leave_the_plant_where_it_was():
    # Samples off the grid take their partial step on temporaries: the
    # plant ends the span as one that samples nothing does, and each sample
    # is the output of a plant integrated to that instant in one span.
    a = StateSpacePlant(LOOP2_TF, micro_step_us=100, sample_every_us=1_234)
    b = loop2_plant()
    ya, yb = (p.advance(5_000, 1.0, 1.0) for p in (a, b))
    assert (a.x, a.iae, ya) == (b.x, b.iae, yb)
    assert len(a.samples) == 5
    for k, y in enumerate(a.samples):
        c = loop2_plant()
        assert y == c.advance(k * 1_234, 1.0, 1.0), k


# --- transition map against stepwise RK4 ----------------------------------------

def companion(tf):
    """A (flattened row-major), B and C of the controllable-canonical
    realization of ``tf``, written out in full: A's rows but the last are
    shifts, its last row and C are the monic form's coefficients, B is the
    last unit vector."""
    n, lead = len(tf.den) - 1, tf.den[-1]
    a = [float(j == i + 1) for i in range(n - 1) for j in range(n)]
    a += [-(v / lead) for v in tf.den[:-1]]
    c = [v / lead for v in tf.num] + [0.0] * (n - len(tf.num))
    return a, [0.0] * (n - 1) + [1.0], c


def random_tf(rng, n):
    """An order-``n`` transfer function with coefficients drawn from 0,
    +-1 and uniform values, so A's last row meets exact zeros, exact ones
    and other values, and C exact zeros and other values."""
    def coef():
        return rng.choice((0.0, 1.0, -1.0, rng.uniform(-2.0, 2.0)))

    lead = rng.choice((1.0, -1.0, rng.uniform(0.5, 2.0)))
    num = [0.0]
    while not any(num):
        num = [coef() for _ in range(rng.randint(1, n))]
    return TransferFunction(num, [coef() for _ in range(n)] + [lead])


def pattern_kinds(p):
    """The kinds of coefficient (see `_pattern`) ``p``'s A row and C hold."""
    n = len(p.x)
    pat = _pattern(p)
    return {("a", k) for k in pat[:n]} | {("c", k) for k in pat[n:]}


ALL_KINDS = {("a", "0"), ("a", "1"), ("a", "*"), ("c", "0"), ("c", "*")}


def rk4_reference(a, b, c, x, u, r, span_us, micro_step_us, start_us=0):
    """Plain stepwise RK4 over ``span_us`` from ``start_us``: a partial step
    to the next multiple of the micro step (or the span's end, if sooner),
    full steps, then the remainder.  Returns the final state and the
    trapezoid integral of |r - y|."""
    n = len(x)

    def f(xs):
        return [b[i] * u + sum(a[i * n + j] * xs[j] for j in range(n))
                for i in range(n)]

    def out(xs):
        return sum(ci * xi for ci, xi in zip(c, xs))

    lead = min(-start_us % micro_step_us, span_us)
    full, rem = divmod(span_us - lead, micro_step_us)
    iae = 0.0
    for h_us in [lead] * bool(lead) + [micro_step_us] * full + [rem] * bool(rem):
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
    kinds = set()
    for n in range(1, MAX_STATE + 1):
        for _ in range(3):
            tf = random_tf(rng, n)
            a, b, c = companion(tf)
            x0 = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            u, r = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
            # a span with a partial final step, then one whole number of steps
            spans = (rng.randint(1, 20) * micro + rng.randint(1, micro - 1),
                     rng.randint(1, 20) * micro)
            p = StateSpacePlant(tf, micro_step_us=micro)
            kinds |= pattern_kinds(p)
            p.x = list(x0)
            x, iae, now = x0, 0.0, 0
            for span in spans:
                p.advance(p.time_us + span, r, u)
                x, d = rk4_reference(a, b, c, x, u, r, span, micro, now)
                iae += d
                now += span
                assert p.x == pytest.approx(x, rel=0.0, abs=1e-12), (n, span)
                assert p.iae == pytest.approx(iae, rel=0.0, abs=1e-12), (n, span)
    assert kinds == ALL_KINDS


def generic_rk4_step(a, b, x, u, h):
    """One classical RK4 step of x' = A x + B u from ``x``, looping over the
    order; the operation order the plant's kernel must reproduce."""
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


def generic_output(c, x):
    y = 0.0
    for i in range(len(x)):
        y += c[i] * x[i]
    return y


def generic_march(a, b, c, x, u, r, iae, span_us, micro_step_us, start_us):
    """(x, y, iae) after ``span_us`` from ``start_us``, with loops over the
    order: one RK4 step to the next multiple of the micro step (or the
    span's end, if sooner), full micro steps with the map (M, N) built from
    `generic_rk4_step`, then the remainder as one RK4 step, each step
    adding its trapezoid IAE term."""
    idx = range(len(x))
    h = micro_step_us * 1e-6
    cols = [generic_rk4_step(a, b, [float(i == j) for i in idx], 0.0, h)
            for j in idx]
    rows = [[col[i] for col in cols] for i in idx]
    n_vec = generic_rk4_step(a, b, [0.0] * len(x), 1.0, h)
    y = generic_output(c, x)
    lead = min(-start_us % micro_step_us, span_us)
    if lead:
        x = generic_rk4_step(a, b, x, u, lead * 1e-6)
        y_prev, y = y, generic_output(c, x)
        iae += (abs(r - y_prev) + abs(r - y)) * (lead * 0.5e-6)
    full, rem = divmod(span_us - lead, micro_step_us)
    if full:
        g = [v * u for v in n_vec]
        half_h = micro_step_us * 0.5e-6
        for _ in range(full):
            nxt = []
            for i in idx:
                acc = g[i]
                for j in idx:
                    acc += rows[i][j] * x[j]
                nxt.append(acc)
            x = nxt
            y_prev, y = y, generic_output(c, x)
            iae += (abs(r - y_prev) + abs(r - y)) * half_h
    if rem:
        x = generic_rk4_step(a, b, x, u, rem * 1e-6)
        y_prev, y = y, generic_output(c, x)
        iae += (abs(r - y_prev) + abs(r - y)) * (rem * 0.5e-6)
    return x, y, iae


def bits(values):
    """Exact identity of floats, telling -0.0 from 0.0."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("micro", (37, 100, 1000))
def test_kernel_equals_generic_loops_exactly(micro):
    # The unrolled kernel must apply the same float operations in the same
    # order as the loops, so state, IAE and samples are equal, not merely
    # close.  Spans that end off the micro-step grid leave the next span to
    # step back onto it first.  A sample at a grid instant is the output
    # there; any other is one RK4 step from the last grid instant before
    # it, or from the span's start while the span is off the grid.  Each
    # order meets the two boundaries of that rule: a sample at the end of
    # the lead step back onto the grid, and one at a span end off the grid.
    # A cadence of three micro steps takes a sample where a span starts on
    # the grid and the span's later ones a block of three steps apart.  Zero
    # and negative coefficients, a plant at rest and a zero input exercise
    # signed zeros; coefficients of exactly 1.0 the ones the kernel does not
    # multiply by.
    rng = random.Random(7000 + micro)
    kinds = set()
    for n in range(1, MAX_STATE + 1):
        tf = random_tf(rng, n)
        a, b, c = companion(tf)
        met = set()
        # every micro step, every third, then at a cadence off the grid
        off_grid = rng.randint(0, 2) * micro + rng.randint(1, micro - 1)
        for every in (micro, 3 * micro, off_grid):
            p = StateSpacePlant(tf, micro_step_us=micro,
                                sample_every_us=every)
            kinds |= pattern_kinds(p)
            x, iae, now, samples = list(p.x), 0.0, 0, []
            for k in range(12):
                full = rng.randint(1, 20) * micro
                part = rng.randint(1, micro - 1)
                lead = -now % micro
                if k < 10:
                    # at rest first, for an instant or, every third micro
                    # step, from a sample at the span's start; then with a
                    # partial final step, whole steps only, or a partial
                    # step only
                    span = (full + part, full, part)[k % 3]
                    if k == 0 and every != 3 * micro:
                        span = 0
                elif every % micro == 0:
                    # off the grid, then across a sample at the lead's end
                    span = lead + full if lead else part
                else:
                    # to the next sample instant off the grid
                    at = len(samples) * every
                    span = at + (at % micro == 0) * every - now
                u = 0.0 if k < 2 else rng.choice((0.0, rng.uniform(-2.0, 2.0)))
                r = rng.choice((0.0, 1.0, rng.uniform(-1.0, 1.0)))
                got = p.advance(p.time_us + span, r, u)
                first = len(samples) * every
                for at in range(first, now + span + 1, every):
                    if lead and at == now + lead:
                        met.add("lead step end")
                    if at == now + span and at % micro:
                        met.add("span end off the grid")
                    if at == now < now + span and every == 3 * micro:
                        met.add("span start on the grid")
                    if at > first and every == 3 * micro:
                        met.add("block of 3 steps")
                    done = max(now, at // micro * micro)
                    x_done = generic_march(a, b, c, x, u, r, 0.0, done - now,
                                           micro, now)[0]
                    if at > done:
                        x_done = generic_rk4_step(a, b, x_done, u,
                                                  (at - done) * 1e-6)
                    samples.append(generic_output(c, x_done))
                assert bits(p.samples) == bits(samples), (n, every, span)
                x, y, iae = generic_march(a, b, c, x, u, r, iae, span, micro,
                                          now)
                now += span
                assert bits(p.x) == bits(x), (n, every, span)
                assert bits([p.iae, got]) == bits([iae, y]), (n, every, span)
        assert met == {"lead step end", "span end off the grid",
                       "span start on the grid", "block of 3 steps"}, n
    assert kinds == ALL_KINDS


@pytest.mark.parametrize("micro", (1, 37, 100, 1000))
def test_plant_without_samples_advances_as_one_with_samples(micro):
    # A plant built with no cadence runs the kernel compiled without the
    # sample rule, which takes its lead and remainder steps inline.  It
    # returns the y, and leaves the x, iae and time_us, that a plant taking
    # samples does, bit for bit, at cadences of one and three micro steps
    # and one off the grid.  The spans are random: zero, from the grid,
    # from off it, and inside the lead step back onto it.  A plant with a
    # pole at 20 per micro step raises the same DivergenceError text from
    # both, with the same state written.
    rng = random.Random(9100 + micro)
    met = set()
    for n in range(1, MAX_STATE + 1):
        runaway = TransferFunction(
            (1.0,), (0.0,) * (n - 1) + (-20.0 / (micro * 1e-6), 1.0))
        for tf in (random_tf(rng, n), runaway):
            for every in (micro, 3 * micro, 2 * micro + 1):
                bare = StateSpacePlant(tf, micro, label=f"order {n}")
                sampled = StateSpacePlant(tf, micro, label=f"order {n}",
                                          sample_every_us=every)
                for _ in range(100):
                    lead = -bare.time_us % micro
                    span = rng.choice((
                        0, lead + rng.randint(0, 20) * micro,
                        rng.randint(1, 20 * micro),
                        rng.randint(1, lead - 1) if lead > 1 else 0))
                    met.add("zero" if not span else "on the grid" if not lead
                            else "inside the lead" if span < lead
                            else "off the grid")
                    u = rng.choice((0.0, rng.uniform(-2.0, 2.0)))
                    r = rng.choice((0.0, 1.0, rng.uniform(-1.0, 1.0)))
                    got = []
                    for p in (bare, sampled):
                        try:
                            got.append(bits([p.advance(p.time_us + span,
                                                       r, u)]))
                        except DivergenceError as exc:
                            got.append(str(exc))
                    assert got[0] == got[1], (n, every, span)
                    assert bits(bare.x + [bare.iae]) == \
                        bits(sampled.x + [sampled.iae]), (n, every, span)
                    assert bare.time_us == sampled.time_us
                    if isinstance(got[0], str):
                        break
                assert bare.samples == []
                if tf is runaway:
                    assert got[0].startswith(f"order {n}: state diverged")
                    met.add("diverged")
    assert met == {"zero", "on the grid", "diverged"} | (
        {"inside the lead", "off the grid"} if micro > 1 else set())


def test_advance_returns_the_output_at_tick():
    # `advance(tick, r, u)` integrates the plant to ``tick`` and returns y
    # = C x there, bit for bit: spans on and off the 100 us grid, zero
    # spans, and a 130 us sample cadence that falls on the grid only every
    # 1.3 ms.
    rng = random.Random(7)
    p = StateSpacePlant(LOOP3_TF, micro_step_us=100, sample_every_us=130)
    for span in (0, 100, 37, 63, 250, 0, 1_000, 1, 99, 4_321):
        u, r = rng.uniform(-5.0, 5.0), rng.uniform(-0.5, 0.5)
        tick = p.time_us + span
        y = p.advance(tick, r, u)
        assert p.time_us == tick
        assert bits([y]) == bits([generic_output(p.c, p.x)]), span
    assert p.time_us == 5_871 and len(p.samples) == 46


def test_advance_starts_from_an_assigned_state():
    # A fresh plant given another plant's state, by assignment or in place,
    # advances from it: on the grid, with the same input, both reach the
    # same x and y.
    p = loop2_plant()
    p.advance(30_000, 1.0, 2.0)
    q, s = loop2_plant(), loop2_plant()
    q.x = list(p.x)
    s.x[:] = p.x
    y = p.advance(p.time_us + 12_345, 1.0, -1.0)
    for other in (q, s):
        assert other.advance(12_345, 1.0, -1.0) == y
        assert bits(other.x) == bits(p.x)
    assert y != loop2_plant().advance(12_345, 1.0, -1.0)


def test_sample_at_a_step_end_is_the_output_there():
    # A sample at the end of a span's final partial step, or at the end of
    # the partial step back onto the grid, is the y that step computed.
    p = StateSpacePlant(LOOP2_TF, micro_step_us=100, sample_every_us=150)
    y = p.advance(150, 1.0, 1.0)  # 100 + 50, sample at 150
    assert p.samples[-1] == y
    q = StateSpacePlant(LOOP2_TF, micro_step_us=100, sample_every_us=200)
    q.advance(150, 1.0, 1.0)
    y = q.advance(200, 1.0, 1.0)  # 50 back onto the grid, sample at 200
    assert q.samples[-1] == y
    y = q.advance(430, 1.0, 1.0)  # 200 + 30 after the grid step at 400
    assert len(q.samples) == 3
    assert q.samples[-1] != y


def test_partial_final_step_is_exact_decomposition():
    # One 250 us span steps 100+100+50 internally, identical to separate
    # calls that cover the same boundaries.
    a = loop2_plant()
    b = loop2_plant()
    a.advance(250, 0.0, 2.0)
    b.advance(100, 0.0, 2.0)
    b.advance(250, 0.0, 2.0)
    assert list(a.x) == list(b.x)


def test_iae_of_held_error():
    # Plant at rest with zero input and unit reference: |r - y| = 1
    # throughout, so one second integrates to exactly 1.
    p = loop2_plant()
    y = p.advance(1_000_000, 1.0, 0.0)
    assert p.iae == pytest.approx(1.0, rel=1e-9)
    assert y == 0.0


def test_iae_is_nonnegative_and_additive():
    # Every micro step adds its term to the running sum, so splitting a
    # span at a micro-step boundary leaves the sum bit for bit the same.
    p1 = loop2_plant()
    p1.advance(400_000, 0.05, 1.0)
    p2 = loop2_plant()
    p2.advance(150_000, 0.05, 1.0)
    p2.advance(400_000, 0.05, 1.0)
    assert p1.iae > 0.0
    assert p2.iae == p1.iae


def test_divergence_raises_with_label():
    # 1/(s - 50), x' = 50 x + u, doubles every ~14 ms; a long span
    # overflows to inf.
    p = StateSpacePlant(TransferFunction((1.0,), (-50.0, 1.0)),
                        micro_step_us=1000, label="runaway")
    p.x[0] = 1.0
    with pytest.raises(DivergenceError, match="runaway"):
        p.advance(20_000_000, 0.0, 0.0)


def test_divergence_seen_in_a_state_component_y_leaves_out():
    # 1/(s + 1)^5: y = x0 leaves x1 to x4 out.  u enters x4, and each RK4
    # stage carries it one shift further down the chain, so a span of one
    # partial step, which takes no step of the map, carries u = inf as far
    # as x1 but not into x0; y stays 0.0, and the call still raises.
    tf = TransferFunction((1.0,), (1.0, 5.0, 10.0, 10.0, 5.0, 1.0))
    p = StateSpacePlant(tf, micro_step_us=1000, label="hidden")
    with pytest.raises(DivergenceError, match="^hidden: state diverged"):
        p.advance(500, 0.0, math.inf)
    assert p.x[0] == 0.0 and not math.isfinite(p.x[1])


@pytest.mark.parametrize("n", (1, 2, MAX_STATE))
def test_divergence_flag_covers_every_kind_of_step(n):
    # 1/s^n is a pure shift chain, x_i' = x_{i+1} and x_{n-1}' = u, with
    # y = x0.  With u = 0 every step maps a state with x0 alone nonzero to
    # itself.  Each span starts 70 us off the grid, then takes three micro
    # steps and a final 45 us step.  An inf or nan at either end of the
    # state raises, naming the plant; an x0 at the edge of the float range,
    # with y there too, is finite and passes unchanged.
    tf = TransferFunction((1.0,), (0.0,) * n + (1.0,))

    def plant(x):
        p = StateSpacePlant(tf, micro_step_us=100, label=f"order-{n} plant")
        p.advance(30, 0.0, 0.0)
        p.x = list(x)
        return p

    for bad in (math.inf, -math.inf, math.nan):
        for i in {0, n - 1}:
            x = [1.0] * n
            x[i] = bad
            p = plant(x)
            with pytest.raises(DivergenceError, match=f"order-{n} plant: state diverged"):
                p.advance(30 + 70 + 300 + 45, 0.0, 0.0)
    for big in (1e308, -1e308):
        x = [big] + [0.0] * (n - 1)
        p = plant(x)
        y = p.advance(30 + 70 + 300 + 45, 0.0, 0.0)
        assert p.x == x
        assert y == big

