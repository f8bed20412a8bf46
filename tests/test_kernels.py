"""Edge cases of the plant integrator's stepping kernel.

The integrator is the per-plant RK4 transition map inside
`qapm.plant.StateSpacePlant`; these checks drive it through the plant.
"""

from qapm.plant import StateSpacePlant


def test_zero_span_returns_current_output():
    # x' = -x + u, y = 2 x, at x = 0.5: a zero span changes nothing and
    # the output read after it is the current one.
    p = StateSpacePlant([-1.0], [1.0], [2.0], micro_step_us=100)
    p.x[0] = 0.5
    assert p.sample_after(0) == 1.0
    p.integrate(0, r=0.0)
    assert p.iae == 0.0
    assert p.sample() == 1.0
    assert p.x[0] == 0.5
