import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import polar_to_couplings, random_couplings
from spinholonomy import (
    NonUnitaryInput,
    analytic_entangler,
    build_hamiltonians,
    couplings_to_polar,
    extract_register_gate,
    propagator_closed_form,
    pulse_area,
    solve_cyclic,
)
from spinholonomy.gates import _entangler_matrices
from spinholonomy.linalg import max_abs, unitarity_defect
from spinholonomy.spin_chain import PolarCouplings


def cyclic_gate(c, winding=0, amplitude=1.0):
    omega = couplings_to_polar(c).omega
    p = solve_cyclic(omega, amplitude, winding)
    u = propagator_closed_form(build_hamiltonians(c), pulse_area(p, p.duration))
    return extract_register_gate(u)


def test_extract_identity():
    g = extract_register_gate(np.eye(8))
    assert max_abs(g.matrix - np.eye(4)) == 0
    assert g.leakage == 0.0


def test_extract_symmetric_point_gate(rng):
    from spinholonomy import ExchangeCouplings

    g = cyclic_gate(ExchangeCouplings(1.0, 1.0))
    want = np.array(
        [[1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, -1]], dtype=complex
    )
    assert max_abs(g.matrix - want) <= 1e-10
    assert g.leakage <= 1e-10


def test_half_area_pulse_leaks(rng):
    # Stopping at half the cyclic area leaves weight outside the
    # ancilla-|0> subspace.
    c = random_couplings(rng)
    omega = couplings_to_polar(c).omega
    u = propagator_closed_form(build_hamiltonians(c), math.pi / (2 * omega))
    g = extract_register_gate(u)
    assert g.leakage > 0.01


def test_extract_rejects_non_unitary():
    with pytest.raises(NonUnitaryInput):
        extract_register_gate(1.01 * np.eye(8))


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_extract_rejects_non_finite_propagator(bad):
    u = np.eye(8, dtype=complex)
    u[5, 2] = bad
    with pytest.raises(NonUnitaryInput, match="non-finite"):
        extract_register_gate(u)


def test_analytic_theta_zero_is_diagonal():
    g = analytic_entangler(0.0)
    assert max_abs(g.matrix - np.diag([1.0, 1.0, -1.0, -1.0])) == 0


def test_analytic_quarter_pi_middle_block():
    g = analytic_entangler(math.pi / 4)
    assert max_abs(g.matrix[1:3, 1:3] - np.array([[0, -1], [-1, 0]])) <= 1e-15


def test_analytic_eighth_pi_with_quarter_phase():
    # theta = pi/8, phi1 + phi2 = pi/2: middle block by hand is
    # [[sqrt2/2, -i sqrt2/2], [i sqrt2/2, -sqrt2/2]].
    r = math.sqrt(2) / 2
    g = analytic_entangler(math.pi / 8, math.pi / 4, math.pi / 4)
    want = np.array([[r, -1j * r], [1j * r, -r]])
    assert max_abs(g.matrix[1:3, 1:3] - want) <= 1e-15
    # cross-check against the simulated pulse for matching couplings
    c = polar_to_couplings(
        PolarCouplings(omega=1.0, theta=math.pi / 8, phi1=math.pi / 4, phi2=math.pi / 4)
    )
    sim = cyclic_gate(c)
    assert max_abs(sim.matrix - g.matrix) <= 1e-9


def test_extracted_equals_analytic(rng):
    for winding in (0, 1, 2):
        for _ in range(20):
            c = random_couplings(rng)
            p = couplings_to_polar(c)
            g = cyclic_gate(c, winding=winding, amplitude=float(rng.uniform(0.3, 2.0)))
            ideal = analytic_entangler(p.theta, p.phi1, p.phi2)
            assert g.leakage <= 1e-10
            assert max_abs(g.matrix - ideal.matrix) <= 1e-9
            assert unitarity_defect(g.matrix) <= 1e-9


def test_gate_is_involutory(rng):
    for _ in range(50):
        c = random_couplings(rng)
        p = couplings_to_polar(c)
        m = analytic_entangler(p.theta, p.phi1, p.phi2).matrix
        assert max_abs(m @ m - np.eye(4)) <= 1e-12
        assert max_abs(m - m.conj().T) <= 1e-12  # Hermitian as well


ANGLE = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE)
def test_gate_is_involutory_at_any_angles(theta, phi1, phi2):
    m = analytic_entangler(theta, phi1, phi2).matrix
    assert max_abs(m @ m - np.eye(4)) <= 1e-12
    assert max_abs(m - m.conj().T) <= 1e-12


def test_winding_independence(rng):
    # Only the parity of the odd multiple matters: n = 0 and n = 3 give
    # the same gate.
    for _ in range(10):
        c = random_couplings(rng)
        g0 = cyclic_gate(c, winding=0)
        g3 = cyclic_gate(c, winding=3)
        assert max_abs(g0.matrix - g3.matrix) <= 1e-9


def _literal_entangler(theta, phi1, phi2):
    """The closed form as one 4x4 literal of Python scalars: the per-gate
    reference for the one-pass stack."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    e = np.exp(1j * (phi1 + phi2))
    return np.array(
        [[1, 0, 0, 0], [0, c, -e * s, 0], [0, -np.conj(e) * s, -c, 0], [0, 0, 0, -1]],
        dtype=np.complex128,
    )


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, -1.1), (math.pi, 0.0)])
@pytest.mark.parametrize("grid", [2, 101, 1001])
def test_entangler_stack_is_bit_identical_to_per_gate(grid, phases):
    # Bit for bit, signed zeros included: numpy's vectorized sin and cos
    # could differ in the last bit, so the one-pass stack must not use them.
    thetas = np.linspace(0.0, math.pi / 4, grid).tolist()
    stack = _entangler_matrices(thetas, *phases)
    per_gate = np.array([analytic_entangler(t, *phases).matrix for t in thetas])
    literal = np.array([_literal_entangler(t, *phases) for t in thetas])
    assert stack.shape == (grid, 4, 4)
    assert stack.tobytes() == per_gate.tobytes() == literal.tobytes()
