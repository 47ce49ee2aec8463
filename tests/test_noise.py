import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinholonomy import (
    DimensionOverflow,
    ExchangeCouplings,
    HyperfineBath,
    NonCyclicPulse,
    NonUnitaryTarget,
    PolarCouplings,
    amplitude_noise_sweep,
    analytic_entangler,
    arm_hamiltonians,
    build_hamiltonians,
    build_hyperfine_hamiltonian,
    couplings_to_polar,
    dephasing_sweep,
    dm_sweep,
    extract_register_gate,
    gaussian_pulse,
    hyperfine_channel,
    polar_to_couplings,
    process_fidelity,
    propagator_closed_form,
    propagator_time_ordered,
    scaled_to_area,
    solve_cyclic,
    square_pulse,
    tabulated_pulse,
)
from spinholonomy.linalg import hermiticity_defect, max_abs

from helpers import (
    dense_dephasing_fidelity,
    dense_hyperfine_hamiltonian,
    stepped_amplitude_fidelity,
    symmetric_couplings,
)

SYM = ExchangeCouplings(1.0, 1.0)


def sym_pulse(winding=0, amplitude=1.0):
    return solve_cyclic(couplings_to_polar(SYM).omega, amplitude, winding)


@pytest.fixture
def no_exponentials(monkeypatch):
    """Fail any test that lets an input reach an exponential."""

    def refuse(*args, **kwargs):
        raise AssertionError("input reached an exponential")

    for name in (
        "spinholonomy.noise.expm_hermitian",
        "spinholonomy.noise.propagator_closed_form",
        "spinholonomy.propagation.expm_hermitian",
    ):
        monkeypatch.setattr(name, refuse)


SHAPES = ("square", "gaussian", "tabulated")


def cyclic_pulse(shape, couplings, duration):
    """A pulse of the given shape scaled to the cyclic area pi / omega."""
    if shape == "square":
        base = square_pulse(1.0, duration)
    elif shape == "gaussian":
        base = gaussian_pulse(1.0, duration)
    else:
        # The plateau gives consecutive steps with equal envelope samples.
        base = tabulated_pulse(
            [(0.0, 0.3), (0.4 * duration, 1.0), (0.6 * duration, 1.0), (duration, 0.5)]
        )
    return scaled_to_area(base, math.pi / couplings_to_polar(couplings).omega)


# --- process fidelity ---------------------------------------------------

def test_fidelity_of_equal_gates():
    v = analytic_entangler(0.61, 0.2, -0.3)
    assert abs(process_fidelity(v, v) - 1.0) <= 1e-14


def test_fidelity_ignores_global_phase():
    from spinholonomy.gates import RegisterGate

    v = analytic_entangler(0.61, 0.2, -0.3)
    shifted = RegisterGate(matrix=np.exp(0.7j) * v.matrix, leakage=0.0)
    assert abs(process_fidelity(v, shifted) - 1.0) <= 1e-14


def test_fidelity_regression_point():
    # Direct trace evaluation for theta vs theta + 0.01 at phi = 0:
    # tr(V^dag A) = 2 + 2 cos(0.02), so F = cos(0.01)^4.
    target = analytic_entangler(math.pi / 4)
    actual = analytic_entangler(math.pi / 4 + 0.01)
    want = math.cos(0.01) ** 4
    assert abs(process_fidelity(target, actual) - want) <= 1e-12


def test_fidelity_rejects_leaky_target(rng):
    c = SYM
    omega = couplings_to_polar(c).omega
    u = propagator_closed_form(build_hamiltonians(c), math.pi / (2 * omega))
    leaky = extract_register_gate(u)
    with pytest.raises(NonUnitaryTarget):
        process_fidelity(leaky, leaky)


# --- DM perturbation sweep ----------------------------------------------

def test_dm_sweep_clean_limit_and_symmetry():
    table = dm_sweep(1.0, 1.0, [1.0, 3.0, 1e6], [1.0, 3.0, 1e6], sym_pulse())
    f = table.fidelity
    assert f[2, 2] >= 1 - 1e-6
    assert np.all((0.0 <= f) & (f <= 1.0))
    assert max_abs(f - f.T) <= 1e-9  # arm exchange symmetry for j1 == j2


def test_dm_sweep_monotone_along_diagonal():
    ds = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    table = dm_sweep(1.0, 1.0, ds, ds, sym_pulse())
    diag = np.diag(table.fidelity)
    assert np.all(np.diff(diag) >= -1e-12)


def test_dm_sweep_rejects_noncyclic_pulse():
    with pytest.raises(NonCyclicPulse):
        dm_sweep(1.0, 1.0, [1.0], [1.0], square_pulse(1.0, 1.0))


def test_dm_sweep_rejects_asymmetric_couplings():
    with pytest.raises(ValueError):
        dm_sweep(1.0, 1.1, [1.0], [1.0], sym_pulse())


# --- amplitude noise sweep ----------------------------------------------

def test_amplitude_sweep_zero_offset_is_exact():
    table = amplitude_noise_sweep(SYM, [math.inf], [math.inf], sym_pulse())
    assert abs(table.fidelity[0, 0] - 1.0) <= 1e-9


def test_amplitude_sweep_small_offset_bound():
    table = amplitude_noise_sweep(SYM, [1e3], [1e3], sym_pulse())
    assert table.fidelity[0, 0] >= 0.999


def test_amplitude_sweep_symmetric_grid():
    ratios = [10.0, 40.0, 160.0]
    table = amplitude_noise_sweep(SYM, ratios, ratios, sym_pulse())
    f = table.fidelity
    assert max_abs(f - f.T) <= 1e-9
    assert np.all((0.0 <= f) & (f <= 1.0))


def test_amplitude_sweep_rejects_noncyclic_pulse():
    with pytest.raises(NonCyclicPulse):
        amplitude_noise_sweep(SYM, [10.0], [10.0], square_pulse(1.0, 2.0))


def test_amplitude_sweep_empty_axis_gives_empty_grid():
    assert amplitude_noise_sweep(SYM, [], [10.0], sym_pulse()).fidelity.shape == (0, 1)


RATIOS = st.one_of(st.floats(5.0, 200.0), st.floats(-200.0, -5.0))
ANGLE = st.floats(-math.pi, math.pi)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=4, deadline=None)
@given(
    polar=st.builds(
        PolarCouplings, st.floats(0.3, 2.0), st.floats(0.05, 1.5), ANGLE, ANGLE
    ),
    duration=st.floats(0.8, 2.5),
    ratios1=st.lists(RATIOS, max_size=2),
    ratios2=st.lists(RATIOS, max_size=2),
)
def test_amplitude_sweep_matches_stepped_oracle(shape, polar, duration, ratios1, ratios2):
    couplings = polar_to_couplings(polar)
    pulse = cyclic_pulse(shape, couplings, duration)
    ratios1, ratios2 = [math.inf] + ratios1, [math.inf] + ratios2
    table = amplitude_noise_sweep(couplings, ratios1, ratios2, pulse)
    for i, r1 in enumerate(ratios1):
        for k, r2 in enumerate(ratios2):
            want = stepped_amplitude_fidelity(couplings, pulse, r1, r2)
            assert abs(table.fidelity[i, k] - want) <= 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_amplitude_sweep_equals_pointwise_propagation(shape):
    # The stacked sweep and a per-point time-ordered product do the same
    # arithmetic, so the grids agree bit for bit.
    couplings = ExchangeCouplings(1.1, -0.6, 0.3, 0.8)
    pulse = cyclic_pulse(shape, couplings, 1.7)
    ratios1, ratios2 = [math.inf, -12.0, 35.0], [8.0, math.inf, -60.0]
    table = amplitude_noise_sweep(couplings, ratios1, ratios2, pulse)
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    h1, h2 = arm_hamiltonians(couplings)
    grid = np.zeros((3, 3))
    for i, r1 in enumerate(ratios1):
        for k, r2 in enumerate(ratios2):
            d1 = 0.0 if math.isinf(r1) else pulse.amplitude / r1
            d2 = 0.0 if math.isinf(r2) else pulse.amplitude / r2
            u = propagator_time_ordered(
                [
                    (h1, lambda t: pulse.envelope(t) + d1),
                    (h2, lambda t: pulse.envelope(t) + d2),
                ],
                pulse.duration,
                200,
            )
            grid[i, k] = process_fidelity(target, extract_register_gate(u))
    assert np.array_equal(table.fidelity, grid)


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_amplitude_sweep_rejects_bad_ratio_at_entry(no_exponentials, bad):
    with pytest.raises(ValueError, match=rf"ratio2 .*{bad!r}"):
        amplitude_noise_sweep(SYM, [10.0], [20.0, bad], sym_pulse())


@pytest.mark.parametrize("bad", [math.nan, 0.0, -2.0])
def test_dm_sweep_rejects_bad_ratio_at_entry(no_exponentials, bad):
    with pytest.raises(ValueError, match=rf"d1 .*{bad!r}"):
        dm_sweep(1.0, 1.0, [3.0, bad], [3.0], sym_pulse())


# --- hyperfine bath -----------------------------------------------------

def test_hyperfine_zero_coupling_is_zero_operator():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=1)
    assert max_abs(build_hyperfine_hamiltonian(bath)) == 0.0


def test_hyperfine_hermitian():
    bath = HyperfineBath(total_coupling=0.7, op_time=1.0, nuclei_per_electron=1)
    assert hermiticity_defect(build_hyperfine_hamiltonian(bath)) <= 1e-14


def test_hyperfine_conserves_total_magnetization():
    # Isotropic contact coupling commutes with the total spin-z of
    # electrons plus nuclei.
    bath = HyperfineBath(total_coupling=1.3, op_time=1.0, nuclei_per_electron=1)
    h = build_hyperfine_hamiltonian(bath)
    sz = np.diag([0.5, -0.5]).astype(complex)
    dim = 8 * bath.bath_dim
    total_sz = np.zeros((dim, dim), dtype=complex)
    for site in range(6):  # 3 electrons + 3 nuclei
        ops = [np.eye(2, dtype=complex)] * 6
        ops[site] = sz
        full = ops[0]
        for o in ops[1:]:
            full = np.kron(full, o)
        total_sz += full
    assert max_abs(h @ total_sz - total_sz @ h) <= 1e-12


def test_hyperfine_dimension_cap():
    big = HyperfineBath(total_coupling=1.0, op_time=1.0, nuclei_per_electron=4)
    with pytest.raises(DimensionOverflow):
        build_hyperfine_hamiltonian(big)
    # N = 3 sits exactly at the default cap and is allowed
    edge = HyperfineBath(total_coupling=1.0, op_time=1.0, nuclei_per_electron=3)
    assert build_hyperfine_hamiltonian(edge).shape == (4096, 4096)


def test_bath_ratio_round_trip():
    bath = HyperfineBath.from_ratio(7.5, op_time=2.0)
    assert abs(bath.lam - 7.5) <= 1e-12


# --- dephasing channel and sweep ----------------------------------------

def test_channel_completeness():
    for lam in (2.0, 9.0):
        channel = hyperfine_channel(HyperfineBath.from_ratio(lam, 1.0), SYM)
        assert channel.completeness_defect() <= 1e-9
        assert channel.kraus.shape == (4096, 8, 8)


def test_dephasing_decoupled_limit():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    table = dephasing_sweep(bath, [1e9], SYM)
    assert table.fidelity[0] >= 1 - 1e-6


def test_dephasing_trend_and_range():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    table = dephasing_sweep(bath, [2.0, 4.0, 8.0], SYM)
    f = table.fidelity
    assert np.all((0.0 <= f) & (f <= 1.0))
    assert np.all(np.diff(f) >= -1e-6)


def test_dephasing_requires_symmetric_theta():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    with pytest.raises(ValueError):
        dephasing_sweep(bath, [5.0], ExchangeCouplings(1.0, 0.5))


def test_sweep_rows_are_deterministic():
    table = dm_sweep(1.0, 1.0, [1.0, 2.0], [3.0, 4.0], sym_pulse())
    rows = list(table.rows())
    assert [r[:2] for r in rows] == [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]


def test_dephasing_sweep_respects_dim_cap():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=2)
    with pytest.raises(DimensionOverflow):
        dephasing_sweep(bath, [5.0], SYM, dim_cap=100)


# --- sector engine against the dense oracle ------------------------------

SCALES = st.floats(0.5, 2.0)
DM_ANGLES = st.floats(-0.5, 0.5)
OP_TIMES = st.floats(0.5, 2.0)
LAMBDAS = st.floats(1.0, 20.0)


@pytest.mark.parametrize("nuclei", [1, 2])
@settings(max_examples=15, deadline=None)
@given(scale=SCALES, phi1=DM_ANGLES, phi2=DM_ANGLES, op_time=OP_TIMES, lam=LAMBDAS)
def test_dephasing_sweep_matches_dense_oracle(nuclei, scale, phi1, phi2, op_time, lam):
    couplings = symmetric_couplings(scale, phi1, phi2)
    template = HyperfineBath(0.0, op_time, nuclei)
    table = dephasing_sweep(template, [lam], couplings)
    bath = HyperfineBath.from_ratio(lam, op_time, nuclei)
    assert abs(table.fidelity[0] - dense_dephasing_fidelity(bath, couplings)) <= 1e-12


@pytest.mark.parametrize("nuclei", [1, 2])
@settings(max_examples=10, deadline=None)
@given(coupling=st.floats(-2.0, 2.0))
def test_hyperfine_hamiltonian_matches_dense_oracle(nuclei, coupling):
    bath = HyperfineBath(coupling, 1.0, nuclei)
    assert max_abs(build_hyperfine_hamiltonian(bath) - dense_hyperfine_hamiltonian(bath)) <= 1e-15


@settings(max_examples=15, deadline=None)
@given(scale=SCALES, phi1=DM_ANGLES, phi2=DM_ANGLES, op_time=OP_TIMES, lam=LAMBDAS)
def test_channel_complete_and_consistent_with_sweep(scale, phi1, phi2, op_time, lam):
    couplings = symmetric_couplings(scale, phi1, phi2)
    channel = hyperfine_channel(HyperfineBath.from_ratio(lam, op_time, 1), couplings)
    assert channel.completeness_defect() <= 1e-9
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    swept = dephasing_sweep(HyperfineBath(0.0, op_time, 1), [lam], couplings)
    assert abs(process_fidelity(target, channel) - swept.fidelity[0]) <= 1e-12


def test_dephasing_n3_point_memory_and_time():
    # The dense N = 3 operator alone is one 4096^2 complex matrix (256 MiB).
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=3)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = dephasing_sweep(bath, [10.0], SYM)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert elapsed < 30.0
    assert 0.0 <= table.fidelity[0] <= 1.0


# --- non-finite inputs on the dephasing path -------------------------------

def test_dephasing_rejects_nan_coupling(no_exponentials):
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    with pytest.raises(ValueError, match="theta"):
        dephasing_sweep(bath, [5.0], ExchangeCouplings(math.nan, 1.0))


def test_bath_rejects_non_finite_parameters():
    for op_time in (math.nan, math.inf):
        with pytest.raises(ValueError, match="op_time"):
            HyperfineBath(total_coupling=0.0, op_time=op_time)
    with pytest.raises(ValueError, match="op_time"):
        HyperfineBath.from_ratio(5.0, math.nan)
    for coupling in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling"):
            HyperfineBath(total_coupling=coupling, op_time=1.0)


def test_dephasing_rejects_nan_lambda(no_exponentials):
    with pytest.raises(ValueError, match="lambda"):
        HyperfineBath.from_ratio(math.nan, 1.0)
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    with pytest.raises(ValueError, match="lambda"):
        dephasing_sweep(bath, [2.0, math.nan], SYM)


def test_infinite_lambda_means_no_bath():
    assert HyperfineBath.from_ratio(math.inf, 1.0).total_coupling == 0.0


def test_hyperfine_channel_rejects_non_finite_couplings(no_exponentials):
    bath = HyperfineBath.from_ratio(5.0, 1.0, nuclei_per_electron=1)
    with pytest.raises(ValueError, match="finite"):
        hyperfine_channel(bath, ExchangeCouplings(math.inf, math.inf))

