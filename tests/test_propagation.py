import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import propagator_time_ordered, random_couplings, svd_propagator
from spinholonomy import (
    OutOfRange,
    ExchangeCouplings,
    ZeroCoupling,
    analytic_entangler,
    arm_hamiltonians,
    build_hamiltonians,
    couplings_to_polar,
    expm_hermitian,
    gaussian_pulse,
    propagator_closed_form,
    pulse_area,
    scaled_to_area,
    solve_cyclic,
    square_pulse,
    tabulated_pulse,
)
from spinholonomy.linalg import max_abs, unitarity_defect
from spinholonomy.propagation import star_product
from spinholonomy.spin_chain import _embed_stars, _star_couplings


def random_tabulated(rng, duration, nodes=16):
    times = np.linspace(0.0, duration, nodes + 1)
    values = rng.uniform(0.2, 1.0, size=nodes + 1)
    return tabulated_pulse(list(zip(times, values)))


# --- pulse areas ------------------------------------------------------

def test_square_area_is_rectangle():
    assert pulse_area(square_pulse(2.0, 5.0), 3.0) == 6.0


def test_area_at_zero():
    for p in (square_pulse(1.0, 1.0), gaussian_pulse(1.0, 1.0)):
        assert pulse_area(p, 0.0) == 0.0


def trapezoid_area(p, t, points):
    """Dense uniform trapezoid rule over the envelope on ``[0, t]``."""
    grid = np.linspace(0.0, t, points)
    return np.trapezoid([p.envelope(x) for x in grid], grid)


def test_gaussian_area_against_trapezoid_oracle():
    cases = [
        (gaussian_pulse(3.0, 2.0), 2.0, 1_000_001),
        (gaussian_pulse(0.7, 5.0), 1.1, 200_001),  # before the peak
        (gaussian_pulse(1.5, 1.0), 0.9, 200_001),  # into the falling tail
        (gaussian_pulse(2.0, 4.0), 0.01, 2_001),  # deep in the leading tail
    ]
    for p, t, points in cases:
        assert abs(pulse_area(p, t) - trapezoid_area(p, t, points)) <= 1e-9


def test_tabulated_area_against_trapezoid_oracle(rng):
    p = random_tabulated(rng, 1.5)
    late_start = tabulated_pulse([(0.4, 0.8), (1.0, 0.3), (1.6, 1.1), (2.0, 0.5)])
    # A repeated sample time is a jump; an even point count puts it at a
    # cell midpoint, where the trapezoid rule's error from the jump cancels.
    jump = tabulated_pulse([(0.0, 0.2), (0.7, 0.9), (0.7, 0.4), (1.4, 1.0)])
    cases = [
        (p, 1.5, 300_001),
        (p, 0.05, 1_001),  # inside the first segment
        (late_start, 0.25, 1_001),  # before the first sample
        (late_start, 1.3, 50_001),
        (jump, 1.4, 50_000),
    ]
    for p, t, points in cases:
        assert abs(pulse_area(p, t) - trapezoid_area(p, t, points)) <= 1e-9


def test_area_rejects_out_of_window():
    with pytest.raises(OutOfRange):
        pulse_area(square_pulse(1.0, 1.0), 1.5)
    with pytest.raises(OutOfRange):
        pulse_area(square_pulse(1.0, 1.0), -0.1)


def test_scaled_to_area(rng):
    p = scaled_to_area(random_tabulated(rng, 2.0), 4.0)
    assert abs(pulse_area(p, p.duration) - 4.0) <= 1e-9


# --- cyclicity --------------------------------------------------------

def test_solve_cyclic_direct_formula():
    assert solve_cyclic(math.pi, 1.0, 0).duration == 1.0
    assert abs(solve_cyclic(1.0, 1.0, 1).duration - 3 * math.pi) <= 1e-15


def test_solve_cyclic_area_condition(rng):
    for _ in range(50):
        omega = rng.uniform(0.1, 3.0)
        amp = rng.uniform(0.1, 3.0)
        n = int(rng.integers(0, 4))
        p = solve_cyclic(omega, amp, n)
        assert abs(pulse_area(p, p.duration) * omega - (2 * n + 1) * math.pi) <= 1e-12


def test_solve_cyclic_rejects_zero_omega():
    with pytest.raises(ZeroCoupling):
        solve_cyclic(0.0, 1.0, 0)


@pytest.mark.parametrize(
    "omega, amplitude, winding",
    [(1.0, 1.0, int(1e308)), (7e-321, 1.0, 0), (1.0, 1e-320, 0), (1e300, 1e300, 0)],
)
def test_solve_cyclic_rejects_overflowing_duration(omega, amplitude, winding):
    # (2n+1) pi / (amplitude omega) overflows to inf (or to an int too large
    # for a float) or underflows to 0: a ValueError naming all three inputs.
    with pytest.raises(ValueError, match="not a finite positive float") as info:
        solve_cyclic(omega, amplitude, winding)
    message = str(info.value)
    assert f"omega={omega!r}" in message and f"amplitude={amplitude!r}" in message
    assert f"winding={winding!r}" in message


def test_cyclic_pulse_gives_block_diagonal_propagator(rng):
    c = random_couplings(rng)
    omega = couplings_to_polar(c).omega
    p = solve_cyclic(omega, 1.3, 0)
    u = propagator_closed_form(build_hamiltonians(c), pulse_area(p, p.duration))
    assert max_abs(u[:4, 4:]) <= 1e-12
    assert max_abs(u[4:, :4]) <= 1e-12


# --- closed form ------------------------------------------------------

def test_closed_form_zero_area_is_identity(rng):
    ham = build_hamiltonians(random_couplings(rng))
    assert max_abs(propagator_closed_form(ham, 0.0) - np.eye(8)) <= 1e-15


def test_closed_form_matches_exponential(rng):
    for _ in range(200):
        c = random_couplings(rng)
        ham = build_hamiltonians(c)
        area = rng.uniform(0.0, 10.0)
        u_closed = propagator_closed_form(ham, area)
        u_exp = expm_hermitian(ham.h_eff, area)
        assert max_abs(u_closed - u_exp) <= 1e-10
        assert unitarity_defect(u_closed) <= 1e-12


COUPLING = st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(j=st.tuples(COUPLING, COUPLING, COUPLING, COUPLING), area=st.floats(0.0, 10.0))
def test_closed_form_equals_expm_at_any_couplings(j, area):
    # Two references: the eigendecomposition and the paper's SVD double sum.
    c = ExchangeCouplings(*j)
    ham = build_hamiltonians(c)
    u = propagator_closed_form(ham, area)
    assert max_abs(u - expm_hermitian(ham.h_eff, area)) <= 1e-12
    assert max_abs(u - svd_propagator(c, area)) <= 1e-12


# --- time-ordered oracle ----------------------------------------------

def test_time_ordered_zero_hamiltonian():
    u = propagator_time_ordered([(np.zeros((8, 8)), lambda t: 1.0)], 1.0, 7)
    assert max_abs(u - np.eye(8)) == 0


def test_time_ordered_square_matches_closed_form(rng):
    for _ in range(20):
        c = random_couplings(rng)
        ham = build_hamiltonians(c)
        p = solve_cyclic(couplings_to_polar(c).omega, 1.0, 0)
        u = propagator_time_ordered([(ham.h_eff, p.envelope)], p.duration, 200)
        want = propagator_closed_form(ham, pulse_area(p, p.duration))
        assert max_abs(u - want) <= 1e-8


def test_time_ordered_two_arms_sum_to_chain(rng):
    from spinholonomy import arm_hamiltonians

    for _ in range(10):
        c = random_couplings(rng)
        h1, h2 = arm_hamiltonians(c)
        p = solve_cyclic(couplings_to_polar(c).omega, 0.8, 1)
        u = propagator_time_ordered(
            [(h1, p.envelope), (h2, p.envelope)], p.duration, 200
        )
        want = propagator_closed_form(
            build_hamiltonians(c), pulse_area(p, p.duration)
        )
        assert max_abs(u - want) <= 1e-8


def test_time_ordered_noncommuting_parts_match_plain_product(rng):
    # The arm Hamiltonians do not commute, so only the time order of the
    # steps gives this product; the plain loop applies each step in turn.
    from spinholonomy import arm_hamiltonians

    for _ in range(5):
        h1, h2 = arm_hamiltonians(random_couplings(rng))
        duration, steps = rng.uniform(0.5, 2.0), 60
        p = gaussian_pulse(rng.uniform(0.5, 2.0), duration)

        def ramp(t, _d=duration):
            return 0.3 + t / _d

        u = propagator_time_ordered([(h1, p.envelope), (h2, ramp)], duration, steps)
        dt = duration / steps
        want = np.eye(8, dtype=complex)
        for i in range(steps):
            t = (i + 0.5) * dt
            want = expm_hermitian(p.envelope(t) * h1 + ramp(t) * h2, dt) @ want
        assert max_abs(u - want) <= 1e-12


def test_time_ordered_unitarity(rng):
    for _ in range(20):
        c = random_couplings(rng)
        ham = build_hamiltonians(c)
        p = gaussian_pulse(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        u = propagator_time_ordered([(ham.h_eff, p.envelope)], p.duration, 50)
        assert unitarity_defect(u) <= 1e-10


# --- closed-form star steps ---------------------------------------------

LEAVES = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    b1=LEAVES,
    b2=LEAVES,
    c=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    w=st.floats(0.0, 5.0),
)
@example(b1=[1.0, 0.5j, 0, 0], b2=[0, 0, 0.3, -1j], c=(0.0, 0.0), w=1.3)  # b = 0
@example(b1=[1.0, 0.5j, 0.2, 0], b2=[0, 0.7, 0.3, -1j], c=(1.4, 0.0), w=2.1)  # arm 2 off
@example(b1=[1.0, 0.5j, 0.2, 0], b2=[0, 0.7, 0.3, -1j], c=(0.0, -0.8), w=2.1)  # arm 1 off
def test_star_step_equals_expm(b1, b2, c, w):
    b1, b2 = np.reshape(b1, (2, 2)), np.reshape(b2, (2, 2))
    u = star_product(b1, b2, np.array([[c]]), w)
    for s in range(2):
        b = c[0] * b1[s] + c[1] * b2[s]
        h = np.zeros((3, 3), dtype=complex)
        h[1:, 0], h[0, 1:] = b, b.conj()
        assert max_abs(u[0, s] - expm_hermitian(h, w)) <= 1e-13


def test_cyclic_square_pulse_is_the_star_reflection(rng):
    # At r * area = pi each star is diag(-1, 1 - 2 b^ b^dag), and the
    # ancilla-|0> block of the embedded stars is the holonomic gate.
    for _ in range(20):
        c = random_couplings(rng)
        polar = couplings_to_polar(c)
        p = solve_cyclic(polar.omega, float(rng.uniform(0.3, 2.0)), int(rng.integers(0, 3)))
        h1, h2 = arm_hamiltonians(c)
        b1, b2 = _star_couplings(h1), _star_couplings(h2)
        u = star_product(b1, b2, np.full((200, 1, 2), p.amplitude), p.duration / 200)[0]
        for s in range(2):
            b_hat = (b1[s] + b2[s]) / np.linalg.norm(b1[s] + b2[s])
            want = np.eye(3, dtype=complex)
            want[0, 0] = -1.0
            want[1:, 1:] -= 2 * np.outer(b_hat, b_hat.conj())
            assert max_abs(u[s] - want) <= 1e-14
        full = _embed_stars(u, 1.0)
        gate = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
        assert max_abs(full[:4, :4] - gate) <= 1e-14


# --- shape independence and convergence --------------------------------

def test_pulse_shape_independence(rng):
    # Equal-area pulses of any shape realize the same propagator.
    for _ in range(5):
        c = random_couplings(rng, min_omega=0.3)
        ham = build_hamiltonians(c)
        omega = couplings_to_polar(c).omega
        area = math.pi / omega
        duration = rng.uniform(0.8, 1.5)
        shapes = [
            scaled_to_area(square_pulse(1.0, duration), area),
            scaled_to_area(gaussian_pulse(1.0, duration), area),
            scaled_to_area(random_tabulated(rng, duration), area),
        ]
        gates = [
            propagator_time_ordered([(ham.h_eff, p.envelope)], duration, 4000)
            for p in shapes
        ]
        for u in gates[1:]:
            assert max_abs(u - gates[0]) <= 1e-8


def test_doubling_steps_improves_convergence(rng):
    # Midpoint stepping is second order: doubling the step count shrinks
    # the deviation from the closed form by at least a factor of 3.
    improved = []
    for _ in range(20):
        c = random_couplings(rng, min_omega=0.3)
        ham = build_hamiltonians(c)
        duration = rng.uniform(0.5, 2.0)
        peak = rng.uniform(0.5, 2.0)

        def envelope(t, _d=duration, _p=peak):
            return _p * t * (_d - t)

        area = peak * duration**3 / 6  # integral of p t (d - t)
        want = propagator_closed_form(ham, area)
        dev = [
            max_abs(
                propagator_time_ordered([(ham.h_eff, envelope)], duration, n) - want
            )
            for n in (64, 128)
        ]
        improved.append(dev[0] / dev[1])
    assert min(improved) >= 3.0


@pytest.mark.parametrize(
    "duration, message",
    [
        (5e-324, "gaussian width duration / 8 rounds to 0 at duration 5e-324"),
        (math.nan, "pulse duration must be positive and finite, got nan"),
    ],
    ids=["vanishing-width", "nan"],
)
def test_gaussian_duration_is_checked_where_built(duration, message):
    # The CLI's gaussian is the unit one; a library caller still sets the duration.
    with pytest.raises(ValueError, match=re.escape(message)):
        gaussian_pulse(1.0, duration)


def test_pulse_plan_validation():
    with pytest.raises(ValueError):
        square_pulse(1.0, -1.0)
    with pytest.raises(ValueError):
        tabulated_pulse([(0.0, 1.0)])  # too few samples
    with pytest.raises(ValueError, match="at least two samples"):
        tabulated_pulse([])
    with pytest.raises(ValueError):
        tabulated_pulse([(0.0, 1.0), (2.0, 1.0), (1.0, 0.5)])  # non-monotone times
    with pytest.raises(ValueError, match="samples must be finite"):
        tabulated_pulse([(0.0, 1.0), (math.nan, 1.0)])
    with pytest.raises(ValueError, match="samples must be finite"):
        tabulated_pulse([(0.0, 1.0), (0.5, math.nan), (1.0, 0.5)])  # NaN is not the peak
    with pytest.raises(ValueError, match="finite"):
        square_pulse(math.nan, 1.0)
    with pytest.raises(ValueError, match="finite"):
        square_pulse(1.0, math.nan)
    with pytest.raises(ValueError, match="finite"):
        gaussian_pulse(1.0, math.inf)
    with pytest.raises(ValueError, match="positive"):
        solve_cyclic(1.0, math.nan)
    with pytest.raises(ZeroCoupling):
        solve_cyclic(math.nan, 1.0)
