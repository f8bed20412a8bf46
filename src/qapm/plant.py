"""Continuous LTI plants: transfer functions and their integration.

Plants are strictly proper single-input single-output systems driven by a
zero-order-hold actuator, each built from its transfer function in
controllable-canonical form: a plant is driven only by ``advance(tick, r,
u)``, which integrates it to ``tick`` with the input held at ``u`` and
returns y there.  Integration is classical fixed-step RK4, applied as the
exact per-step linear map it is for such a plant, and accumulates the
integral of absolute error against the current reference at micro-step
resolution.  A plant given a sample cadence also writes its output at
every multiple of that cadence it integrates across, by the rule that
`StateSpacePlant` states.  One kernel does all of it.  Its source is
unrolled for the plant order n and the pattern of exact zeros and ones in
A's last row and in C, and compiled once per order, coefficient pattern
and whether the plant takes trace samples, on the first plant that has
them; a plant with no cadence, as in any run with no trace, gets a kernel
without the sample rule.  A's other rows are shifts and B is the last
unit vector, so they are written into the source as such.  It leaves out
every term whose coefficient is exactly zero and every multiplication by
an A coefficient of exactly 1.0; leaving them out changes no output bit.
Each plant binds the kernel, once, to itself and to everything fixed for
the plant: its coefficients, micro step and label and, if it samples, its
cadence and samples list, as keyword defaults and closure cells that the
kernel reads as locals.  The kernel takes |r - y| by a sign test and adds y's leading 0.0
once per run of micro steps; these forms, like the terms it leaves out,
give the bits the plain forms give (see `_TEMPLATE`).
"""

from __future__ import annotations

import math

from .policy import ConfigurationError, Value

__all__ = [
    "TransferFunction",
    "StateSpacePlant",
    "DivergenceError",
]

# Largest plant order accepted.
MAX_STATE = 8


class DivergenceError(ArithmeticError):
    """Plant state became non-finite during integration."""


class TransferFunction(Value):
    """SISO transfer function, coefficients in ascending powers of s.

    Must be strictly proper, numerator degree below denominator degree, at
    most `MAX_STATE`, with a finite monic form (divided by den[-1]) whose
    numerator is not zero.
    """

    _fields = ("num", "den")
    _kinds = ((float,), (float,))

    def __init__(self, num, den):
        n, d = map(_strip, self._set(num, den))
        if len(d) < 2:
            raise ConfigurationError(f"denominator degree must be >= 1: {den}")
        if not any([v / d[-1] for v in n]):  # zero, or zero once monic
            raise ConfigurationError(f"numerator is zero in monic form: {n}")
        if len(n) >= len(d):
            raise ConfigurationError(
                f"transfer function not strictly proper: num degree "
                f"{len(n) - 1} >= den degree {len(d) - 1}"
            )
        if len(d) - 1 > MAX_STATE:
            raise ConfigurationError(
                f"order {len(d) - 1} exceeds supported maximum {MAX_STATE}")
        if not all([math.isfinite(v / d[-1]) for v in n + d]):
            raise ConfigurationError(
                f"monic form overflows: num={n} den={d} divided by {d[-1]}")
        self.__dict__.update(num=n, den=d)  # stored stripped


def _strip(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Drop trailing (highest-power) zero coefficients."""
    out = list(coeffs)
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


class StateSpacePlant:
    """The controllable-canonical realization of ``tf``, x' = A x + B u,
    y = C x, with a held (zero-order-hold) input.

    With the denominator divided by its leading coefficient, A's rows 0 to
    n - 2 are shifts, x_i' = x_{i+1}, and its last row is ``a`` =
    -den[:-1] / den[-1]; B is the last unit vector, so x_{n-1}' = u + a x;
    ``c`` is num / den[-1], zero-padded to n; D is zero.  Any realization
    with the same input/output map would do, this one is fixed for
    deterministic state traces.  State starts at rest, x = 0.
    `TransferFunction` checks the order and the monic form, and a
    `Scenario` checks its micro step when it is built.

    One classical RK4 step of length h is, for this linear system with u
    held, exactly the affine map x <- M x + N u.  The plant's one entry is
    ``advance(tick, r, u)``, the kernel compiled once per order, coefficient
    pattern (of exact zeros and ones in ``a`` and ``c``) and whether the
    plant takes trace samples (see `_kernel`), and bound here to the plant:
    it integrates to ``tick`` with the input held at ``u`` and the
    reference at ``r``, and returns y at ``tick``.  The coefficients are
    read once, here: the pattern picks the kernel, and the values are bound
    into it.  The state is the plant's own attributes ``x``, ``time_us``,
    ``next_sample_us`` and ``iae``, which only the kernel writes after
    ``__init__``, and a kernel with no samples never touches
    ``next_sample_us``; but for an ``x`` a caller assigns or
    edits in place: the kernel computes y from ``x`` on entry, so the next
    advance starts from it.  The kernel builds (M, N) for the micro step
    with its own RK4 step, which leaves out A's zero terms as every RK4
    step does; M and N are used whole.  The plant steps on the grid of
    multiples of the micro step from its start, and ``time_us`` is how far
    it has integrated.  A span that starts off the grid first takes one
    plain RK4 step back onto it, then every full micro step with the map,
    and a shorter final step as one plain RK4 step; all in one kernel call.
    ``iae`` is the running integral of |r - y| over everything integrated
    so far: each step adds its trapezoid term straight into it, so how a
    span is split at micro-step boundaries does not change the sum.  When
    y or the state is no longer finite, ``advance`` raises
    `DivergenceError`, naming the plant's label and ``tick``.

    The sample rule: with ``sample_every_us`` set, ``samples[k]`` is y at
    k * sample_every_us from the start, appended while a span crosses that
    instant.  At a grid instant it is the y computed there; anywhere else
    it is one RK4 step on temporaries from the last grid instant before it,
    or from the span's start while the span is still off the grid.  A
    cadence of a whole number of micro steps has every sample on the grid,
    so each is the y computed there.
    """

    def __init__(self, tf: TransferFunction, micro_step_us: int,
                 label: str = "plant", sample_every_us: int | None = None):
        lead = tf.den[-1]
        n = len(tf.den) - 1
        self.a = [-(v / lead) for v in tf.den[:-1]]
        self.c = [v / lead for v in tf.num] + [0.0] * (n - len(tf.num))
        self.micro_step_us = int(micro_step_us)
        self.label = label
        self.samples: list[float] = []
        # At rest at time 0, with the first sample due now if any.
        self.x = [0.0] * n
        self.time_us = 0
        self.next_sample_us = 0 if sample_every_us else math.inf
        self.iae = 0.0
        self.advance = _kernel(n, _pattern(self), bool(sample_every_us))(
            self, sample_every_us)


# Kernel factory per (plant order, coefficient pattern, whether the plant
# takes trace samples), compiled on first use.
_KERNELS: dict = {}


def _pattern(p: StateSpacePlant) -> str:
    """Which of ``p``'s coefficients the kernel's source leaves out or does
    not multiply by: '0' for an exact zero (either sign), '1' for an exact
    1.0 in A's last row, '*' for any other, a 1.0 in C among them; A's last
    row, then C."""
    return "".join(["0" if v == 0.0 else "1" if v == 1.0 else "*"
                    for v in p.a] + ["0" if v == 0.0 else "*" for v in p.c])


def _kernel(n: int, pattern: str, sampled: bool):
    """``make(p, every)`` for plants of order ``n`` whose coefficients have
    ``pattern`` (see `_pattern`), compiled once per order, coefficient
    pattern and whether the plant takes trace samples (``sampled``).  It
    returns ``advance(tick, r, u)`` with everything else bound: the plant
    ``p``, its coefficients, micro step and ``label`` and, when
    ``sampled``, its samples list ``out`` (through its ``append``) and the
    sample cadence ``every``.  A call reads ``p.x``, the time
    ``t = p.time_us`` and ``p.iae``, integrates from ``t`` to ``tick`` on
    the grid of multiples of the micro step, with the input held at ``u``
    and the reference at ``r``, writes those three back and returns y at
    ``tick``.  When ``sampled`` it also reads the next-sample offset
    ``at = p.next_sample_us`` and appends to ``out`` y at the offsets
    ``at``, ``at + every``, ... from ``t`` that lie within the span, by the
    sample rule of `StateSpacePlant`; ``at`` becomes the offset of the next
    one from ``tick``.  When a cadence is a whole number k of micro steps,
    after the first sample in a span it takes the rest k micro steps apart,
    a block at a time.  A kernel built without samples has no sample rule
    and never touches ``next_sample_us``.  When y or the state is no longer
    finite it raises `DivergenceError`, naming ``label`` and ``tick``, with
    the state already written."""
    make = _KERNELS.get((n, pattern, sampled))
    if make is None:
        namespace: dict = {"DivergenceError": DivergenceError}
        exec(compile(_source(n, pattern, sampled),
                     f"<qapm.plant kernel, order {n}, {pattern}"
                     f"{'' if sampled else ', no samples'}>", "exec"),
             namespace)
        make = _KERNELS[n, pattern, sampled] = namespace["make"]
    return make


# The kernel is compiled once per order, coefficient pattern and whether
# the plant takes trace samples; those three are the only inputs to its
# source, and coefficients come from the plant given to ``make``, never as
# source text; rk4 and advance bind them as keyword defaults, read as
# locals.  Lines between ``#if sampled`` and ``#else`` are kept only for a
# plant that takes samples, and lines between ``#else`` and ``#end`` only
# for one that takes none; `_source` drops the others, and the marker
# lines, before it fills the placeholders, as it drops zero terms.  Each
# placeholder is one line of source but ``{partial}``.  Every sum
# keeps the left-to-right order of a loop over the index, less the terms
# the pattern drops: row i of the map is g_i + m_i0*x0 + m_i1*x1 + ...
# (all n*n terms; M and N are whatever RK4 makes of A and B), the output
# 0.0 + c0*x0 + c1*x1 + ... (the 0.0 turns a -0.0 into +0.0), each RK4
# stage row i < n - 1 the shift s_{i+1}, and its last row u + a0*s0 +
# a1*s1 + ... over A's last row: each is the full row b_i*u + A_i0*s0 +
# A_i1*s1 + ... less the terms below.  A term whose coefficient is
# exactly +-0.0 is left out, and a factor of A or B that is exactly 1.0 is
# not multiplied by; an empty sum is 0.0.  C's ones stay multiplied, so
# plants that differ only there share a kernel.  On finite values that
# changes at most the sign of a zero: v + (+-0.0) is v unless v is a zero,
# v * 1.0 is v, and a sum or product of operands equal but for the signs of
# zeros is equal but for the sign of a zero.  Nothing with such a zero
# leaves the kernel: y and every sample pass through a leading 0.0 or
# 0.0 + y, and the IAE sums terms of |r - y| >= 0 onto +0.0, so every
# output has the bits the full sums give.  Only a non-finite state could
# tell: where a kept 0.0 * inf would be nan, a term left out may leave a
# component finite.  But the first non-finite value comes from the same
# operation either way, no + or * makes a finite value of a non-finite
# operand, every RK4 step's x_i is x_i plus more, and the map keeps all its
# terms; so whether the state is finite at the end of a call does not
# change.  The end-of-call check tests y and each x_i whose C term was left
# out, which y no longer sees.
# The micro-step loop leaves out y's 0.0 and adds it after the loop or in
# ``0.0 + y`` for a sample: the sums differ only in the sign of a zero.  In
# the kernel |r - y| is r - y if r >= y else y - r, which is abs(r - y) but
# for the sign of a zero when r is -0.0; it only enters the trapezoid sums,
# which start from +0.0 and so end with the same bits.  A -0.0 y in the
# loop, for a +0.0 one, moves only the sign of a zero the same way.  The
# sample rule (see `StateSpacePlant`) is applied at two sites: the
# lead-region loop takes the samples before the lead step's end, and the
# main loop every one from there to the span's end; with
# ``blk = range(k)`` for a cadence of k whole micro steps, it takes the
# first of them and then the rest in blocks of k steps, one sample after
# each block.  A kernel with no samples takes the span's full micro steps
# in one loop, and its lead and remainder steps inline: ``{partial}`` is
# rk4's body, the same operations in the same order on the same values,
# so it gives rk4's bits without its call.  A sample is taken on
# temporaries, and the sampling kernel's loops take the same micro steps
# in the same order, so both kernels give a plant the same y, x and IAE.
_TEMPLATE = """\
def make(p, every):
    {a_vars}, = p.a
    {c_vars}, = p.c
#if sampled
    step_us, out, label = p.micro_step_us, p.samples, p.label
    # A cadence of k whole micro steps puts every sample on the grid.
    blk = range(every // step_us) if every and not every % step_us else None
#else
    step_us, label = p.micro_step_us, p.label
#end

    def rk4({rk4_params}):
        hh = h * 0.5
        h6 = h / 6.0
        {k1}
        {s2}
        {k2}
        {s3}
        {k3}
        {s4}
        {k4}
        return {step},

    # Column j of M is one step from the unit vector e_j with u = 0;
    # N is one step from x = 0 with u = 1.
    h = step_us * 1e-6
    cols = [rk4(*[float(i == j) for i in range({n})], 0.0, h)
            for j in range({n})]
    {m_vars}, = [col[i] for i in range({n}) for col in cols]
    {n_vars}, = rk4(*[0.0] * {n}, 1.0, h)

#if sampled
    def advance(tick, r, u, p=p, append=out.append, every=every, blk=blk,
                {advance_bind},
                step_us=step_us, half_h=step_us * 0.5e-6, rk4=rk4):
        {x_vars}, = p.x
        t, at, iae = p.time_us, p.next_sample_us, p.iae
#else
    def advance(tick, r, u, p=p, {advance_bind},
                step_us=step_us, half_h=step_us * 0.5e-6):
        {x_vars}, = p.x
        t, iae = p.time_us, p.iae
#end
        span = tick - t
        y = {y}
        e = r - y if r >= y else y - r
        # Off the grid, a partial step back onto it first, or across the
        # whole span if that ends sooner.
        lead = -t % step_us
        if lead > span:
            lead = span
        if lead:
#if sampled
            while at < lead:
                {s_vars}, = rk4({x_vars}, u, at * 1e-6)
                append({y_s})
                at += every
            {x_vars}, = rk4({x_vars}, u, lead * 1e-6)
#else
            h = lead * 1e-6
            {partial}
#end
            y = {y}
            f = r - y if r >= y else y - r
            iae += (e + f) * (lead * 0.5e-6)
            e = f
            span -= lead
#if sampled
            at -= lead
#end
        full = span // step_us
        rem = span % step_us
        {g}
#if sampled
        done = 0
        while True:
            # Micro steps up to the sample at ``at``; all of them if none.
            upto = full if at > span else at // step_us
            for _ in range(upto - done):
                {x_vars}, = {map},
                y = {y_loop}
                f = r - y if r >= y else y - r
                iae += (e + f) * half_h
                e = f
            if at > span:
                break
            done = upto
            part = at - upto * step_us
            if part:
                {s_vars}, = rk4({x_vars}, u, part * 1e-6)
                append({y_s})
            else:
                append(0.0 + y)
                if blk:
                    # The span's later samples, a block of k steps apart.
                    more = (span - at) // every
                    for _ in range(more):
                        for _ in blk:
                            {x_vars}, = {map},
                            y = {y_loop}
                            f = r - y if r >= y else y - r
                            iae += (e + f) * half_h
                            e = f
                        append(0.0 + y)
                    at += more * every
                    done = at // step_us
            at += every
#else
        for _ in range(full):
            {x_vars}, = {map},
            y = {y_loop}
            f = r - y if r >= y else y - r
            iae += (e + f) * half_h
            e = f
#end
        y = 0.0 + y
        if rem:
#if sampled
            {x_vars}, = rk4({x_vars}, u, rem * 1e-6)
#else
            h = rem * 1e-6
            {partial}
#end
            y = {y}
            f = r - y if r >= y else y - r
            iae += (e + f) * (rem * 0.5e-6)
        p.x = [{x_vars}]
        p.time_us = tick
#if sampled
        p.next_sample_us = at - span
#end
        p.iae = iae
        # v - v is nan for a non-finite v, else 0.0.  y is finite only
        # when each x_i it sums is; the x_i it leaves out are added here.
        if {finite} != 0.0:
            raise DivergenceError(
                f"{{label}}: state diverged (non-finite) "
                f"by t = {{tick * 1e-6:.6f}} s")
        return y

    return advance
"""
def _source(n: int, pattern: str, sampled: bool) -> str:
    """Source of the kernel factory for order ``n``, coefficient
    ``pattern`` (see `_pattern`) and, by ``sampled``, with or without the
    sample rule, fully unrolled."""
    idx = range(n)
    a_pat, c_pat = pattern[:n], pattern[n:]
    c_in = [i for i in idx if c_pat[i] != "0"]
    a_in = [f"a{j}" for j in idx if a_pat[j] == "*"]

    def vec(fmt):
        return ", ".join(fmt.format(i=i) for i in idx)

    def total(terms, first=""):
        return " + ".join([first] * bool(first) + terms) or "0.0"

    def deriv(k, s):  # k = A s + B u, one tuple assignment
        last = " + ".join(["u"] + [
            f"{s}{j}" if a_pat[j] == "1" else f"a{j} * {s}{j}"
            for j in idx if a_pat[j] != "0"])
        return (vec(k + "{i}") + ", = "
                + ", ".join([f"{s}{i}" for i in idx[1:]] + [last]) + ",")

    def stage(k, h):  # s = x + h k
        return vec("s{i}") + ", = " + vec(f"x{{i}} + {h} * {k}{{i}}") + ","

    def output(v, first="0.0"):  # y = C v over the kept terms
        return total([f"c{i} * {v}{i}" for i in c_in], first)

    def bind(names):  # name=name: a keyword default, read as a local
        return [f"{v}={v}" for v in names]

    m_vars = ", ".join(f"m{i}_{j}" for i in idx for j in idx)
    n_vars, x_vars = vec("n{i}"), vec("x{i}")
    stages = dict(k1=deriv("p", "x"), s2=stage("p", "hh"),
                  k2=deriv("q", "s"), s3=stage("q", "hh"),
                  k3=deriv("v", "s"), s4=stage("v", "h"),
                  k4=deriv("w", "s"))
    step = vec("x{i} + h6 * (p{i} + 2.0 * q{i} + 2.0 * v{i} + w{i})")
    keep, lines = True, []
    for line in _TEMPLATE.splitlines(keepends=True):
        if line in ("#if sampled\n", "#else\n", "#end\n"):
            keep = line == "#end\n" or (line == "#if sampled\n") == sampled
        elif keep:
            lines.append(line)
    return "".join(lines).format(
        n=n,
        a_vars=vec("a{i}"), c_vars=vec("c{i}"),
        m_vars=m_vars, n_vars=n_vars, x_vars=x_vars, s_vars=vec("s{i}"),
        rk4_params=", ".join([x_vars, "u", "h"] + bind(a_in)),
        advance_bind=", ".join(bind(m_vars.split(", ") + n_vars.split(", ")
                                    + [f"c{i}" for i in c_in]
                                    + a_in * (not sampled))),
        **stages, step=step,
        partial="\n            ".join(["hh = h * 0.5", "h6 = h / 6.0",
                                        *stages.values(),
                                        f"{x_vars}, = {step},"]),
        y=output("x"), y_loop=output("x", first=""), y_s=output("s"),
        finite="y - y" + "".join(f" + x{i} - x{i}" for i in idx
                                 if i not in c_in),
        g="; ".join(f"g{i} = n{i} * u" for i in idx),
        map=", ".join(total([f"m{i}_{j} * x{j}" for j in idx], f"g{i}")
                      for i in idx),
    )
