import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    couplings_to_polar,
    dephasing_sweep,
    dm_sweep,
    expm_hermitian,
    extract_register_gate,
    gaussian_pulse,
    hyperfine_channel,
    process_fidelity,
    propagator_closed_form,
    scaled_to_area,
    solve_cyclic,
    square_pulse,
    tabulated_pulse,
)
from spinholonomy.linalg import max_abs
from spinholonomy.noise import (
    _DRIVE_PHASE,
    MEMORY_BUDGET,
    SIZE_CLASSES,
    _block_generators,
    _entry_terms,
    _estimated_bytes,
    _exchange_image,
    _half_propagators,
    _multiplet_plan,
    _triples,
)

from helpers import (
    choi_matrix,
    dense_dephasing_fidelity,
    dense_hyperfine_kraus,
    dense_pulse_generator,
    kraus_fidelity,
    polar_to_couplings,
    propagator_time_ordered,
    random_couplings,
    sector_dephasing_fidelity,
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


def test_sweep_fidelity_exceeds_one_by_at_most_a_few_ulp(rng):
    # F is not clipped: near-clean points may read a few ulp above 1 (up to
    # 4 eps measured), never more than 8 eps.
    bound = 1.0 + 8 * np.finfo(float).eps
    for _ in range(20):
        j = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        omega = couplings_to_polar(ExchangeCouplings(j, j)).omega
        pulse = solve_cyclic(omega, float(rng.uniform(0.3, 2.0)), int(rng.integers(0, 3)))
        ratios = 10.0 ** rng.uniform(6.0, 16.0, size=(2, 3))
        assert dm_sweep(j, j, ratios[0], ratios[1], pulse).fidelity.max() <= bound
        c = random_couplings(rng)
        omega = couplings_to_polar(c).omega
        pulse = solve_cyclic(omega, float(rng.uniform(0.3, 2.0)), int(rng.integers(0, 3)))
        ratios = [[math.inf, *rng.uniform(5.0, 1e6, size=2)] for _ in range(2)]
        table = amplitude_noise_sweep(c, ratios[0], ratios[1], pulse, steps=20)
        assert table.fidelity.max() <= bound


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
    # The closed-form star steps and the per-point eigh steps evaluate the
    # same midpoint product; they differ by roundoff only.
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
    assert max_abs(table.fidelity - grid) <= 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_amplitude_sweep_needs_no_exponential(no_exponentials, monkeypatch, shape):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called eigh")

    monkeypatch.setattr("numpy.linalg.eigh", refuse)
    couplings = ExchangeCouplings(0.9, 1.3, -0.4, 0.2)
    pulse = cyclic_pulse(shape, couplings, 1.3)
    table = amplitude_noise_sweep(couplings, [math.inf, 25.0], [-40.0, math.inf], pulse)
    assert table.fidelity.shape == (2, 2)
    assert abs(table.fidelity[0, 1] - 1.0) <= 1e-9
    assert np.all((0.0 < table.fidelity) & (table.fidelity < 1.0 + 1e-12))


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_amplitude_sweep_rejects_bad_ratio_at_entry(no_exponentials, bad):
    with pytest.raises(ValueError, match=rf"ratio2 .*{bad!r}"):
        amplitude_noise_sweep(SYM, [10.0], [20.0, bad], sym_pulse())


@pytest.mark.parametrize("tiny", [1e-310, -5e-324])
def test_amplitude_sweep_rejects_overflowing_offset_at_entry(no_exponentials, tiny):
    with pytest.raises(ValueError, match=rf"ratio1 {tiny!r} .*overflow"):
        amplitude_noise_sweep(SYM, [10.0, tiny], [20.0], sym_pulse())


def test_amplitude_sweep_huge_finite_offset_stays_finite():
    # amplitude / 1e-200 is finite, but |b|^2 and b b^dag would overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = amplitude_noise_sweep(SYM, [1e-200], [10.0], sym_pulse()).fidelity
    assert 0.0 <= f[0, 0] <= 1.0


@pytest.mark.parametrize("bad", [math.nan, 0.0, -2.0])
def test_dm_sweep_rejects_bad_ratio_at_entry(no_exponentials, bad):
    with pytest.raises(ValueError, match=rf"d1 .*{bad!r}"):
        dm_sweep(1.0, 1.0, [3.0, bad], [3.0], sym_pulse())


# --- hyperfine bath -----------------------------------------------------

def test_block_counts_per_n():
    # Block entries sum G d^2 and Kraus operators (sum_j (2j+1)^2)^3, counted
    # from N alone: 128 bytes per entry, plus 1 KiB per operator for the channel.
    for n, entries, kraus in ((2, 11_160, 1_000), (4, 326_292, 42_875), (6, 3_410_912, 592_704)):
        assert _estimated_bytes(n, False) == 128 * entries
        assert _estimated_bytes(n, True) == 128 * entries + 1024 * kraus
    assert sum(int(dims @ dims) for *_, dims in _triples(2)) == 11_160
    assert sum(nb * nb for _, nb, *_ in _triples(2)) == 1_000


def test_over_budget_n_is_refused_before_the_plan(no_exponentials):
    # Both routes admit N = 6 (the channel's estimate, the larger, is
    # 0.97 GiB); N = 7 is the smallest N over the budget.
    assert _estimated_bytes(6, True) <= MEMORY_BUDGET
    with pytest.raises(DimensionOverflow):
        _estimated_bytes(7, False)
    before = _multiplet_plan.cache_info()
    for n in (7, 10**6):
        named = rf"N = {n} needs an estimated \d+ bytes or more, over the {MEMORY_BUDGET}-byte"
        with pytest.raises(DimensionOverflow, match=named):
            dephasing_sweep(HyperfineBath(0.0, 1.0, n), [5.0], SYM)
        with pytest.raises(DimensionOverflow, match=named):
            hyperfine_channel(HyperfineBath.from_ratio(5.0, 1.0, n), SYM)
    assert _multiplet_plan.cache_info() == before


@pytest.mark.parametrize("nuclei", [1.5, 2.0, True])
def test_bath_rejects_non_integer_nuclei(nuclei):
    with pytest.raises(ValueError, match="nuclei_per_electron"):
        HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=nuclei)
    with pytest.raises(ValueError, match="nuclei_per_electron"):
        HyperfineBath.from_ratio(5.0, 1.0, nuclei)


def test_bath_coupling_overflow_names_lambda_and_op_time():
    # The phase N / lambda is checked first: an overflow that lambda alone
    # causes names lambda alone.
    with pytest.raises(ValueError, match=r"overflows at lambda = 5.0, op_time = 1e-320"):
        HyperfineBath.from_ratio(5.0, 1e-320)
    with pytest.raises(ValueError, match=r"N / lambda overflows at lambda = 1e-320$"):
        HyperfineBath.from_ratio(1e-320, 1.0)


def test_bath_phase_overflow_is_refused_before_any_exponential(no_exponentials):
    # A = N / (lambda * tau) = 4e123 is finite; the phase A * tau = N / lambda is not.
    with pytest.raises(ValueError, match=r"N / lambda overflows at lambda = 5e-324"):
        dephasing_sweep(HyperfineBath(0.0, 1e200, 2), [5e-324], SYM)


def test_bath_ratio_round_trip():
    bath = HyperfineBath.from_ratio(7.5, op_time=2.0)
    assert abs(bath.total_coupling * bath.op_time - 2 / 7.5) <= 1e-12


# --- dephasing channel and sweep ----------------------------------------

def test_channel_completeness():
    for lam in (2.0, 9.0):
        channel = hyperfine_channel(HyperfineBath.from_ratio(lam, 1.0), SYM)
        assert channel.completeness_defect() <= 1e-9
        assert channel.kraus.shape == (1000, 8, 8)


@pytest.mark.parametrize("nuclei", [1, 2, 3, 4, 5, 6])
def test_dephasing_limits_at_every_admitted_n(nuclei):
    # At every N the memory check admits, F = 1 within 2 ulp without a bath
    # (lambda = 1e9), and F does not fall as lambda grows from a value
    # >= 0: over the CLI's 20 default lambdas up to N = 4, over five of
    # them at N = 5 and 6 (the smallest step is 8.8e-5, at N = 1).
    lambdas = range(1, 21) if nuclei <= 4 else (1, 2, 5, 10, 20)
    f = dephasing_sweep(HyperfineBath(0.0, 1.0, nuclei), [*lambdas, 1e9], SYM).fidelity
    if nuclei >= 5:
        _multiplet_plan.cache_clear()  # their plans hold up to 170 MB
    assert abs(f[-1] - 1.0) <= 2 * np.spacing(1.0)
    assert f[0] >= 0.0 and np.all(np.diff(f) >= 0.0)


def test_dephasing_requires_symmetric_theta():
    bath = HyperfineBath(total_coupling=0.0, op_time=1.0)
    with pytest.raises(ValueError):
        dephasing_sweep(bath, [5.0], ExchangeCouplings(1.0, 0.5))


def test_sweep_rows_are_deterministic():
    table = dm_sweep(1.0, 1.0, [1.0, 2.0], [3.0, 4.0], sym_pulse())
    rows = list(table.rows())
    assert [r[:2] for r in rows] == [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]


@pytest.mark.parametrize("nuclei", [1, 2, 3, 4])
def test_traced_peak_is_within_the_estimate(nuclei):
    # From a cold plan cache, one sweep point and one channel each allocate
    # no more than the estimate that admitted them.
    couplings = symmetric_couplings(1.2, 0.3, -0.2)
    calls = {
        False: lambda: dephasing_sweep(HyperfineBath(0.0, 1.0, nuclei), [4.0], couplings),
        True: lambda: hyperfine_channel(HyperfineBath.from_ratio(4.0, 1.0, nuclei), couplings),
    }
    for channel, call in calls.items():
        _multiplet_plan.cache_clear()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _estimated_bytes(nuclei, channel)


# --- multiplet engine against the dense and sector oracles -----------------

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
@given(coupling=st.floats(-2.0, 2.0), scale=SCALES, phi1=DM_ANGLES, phi2=DM_ANGLES)
@example(coupling=0.0, scale=1.0, phi1=0.0, phi2=0.0)
def test_block_spectrum_matches_dense_oracle(nuclei, coupling, scale, phi1, phi2):
    # Each half stands for m_t copies of its block, twice where the block
    # also stands for its S_z < 0 mirror and twice again where its triple
    # also stands for its exchange image, so the spectra of the halves,
    # pad rows and columns cut off and each repeated that many times, are
    # the spectrum of the dense bit-basis generator at tau_op = 1.  The
    # gauge is a unitary change of basis, so the DM angles move no
    # eigenvalue.  Together with symmetry this pins the contact and drive
    # halves and S_z conservation up to a change of basis.  The spectra
    # come from eigh, as in expm_hermitian: the values-only eigvalsh
    # (OpenBLAS 0.3.31) lost 7e-11 on a block with entries near 1e-87,
    # where eigh stayed at 1e-14.
    couplings = symmetric_couplings(scale, phi1, phi2)
    bath = HyperfineBath(coupling, 1.0, nuclei)
    spectra = []
    for k in _multiplet_plan(nuclei).classes:
        for part in (k.drive, k.contact):
            assert part.dtype == np.float64
            assert np.array_equal(part, np.swapaxes(part, 1, 2))
        h = k.drive + coupling * k.contact
        for g, n in enumerate(k.size):
            assert not h[g, n:].any() and not h[g, :, n:].any()  # the pad is zero
            spectra.append(np.repeat(np.linalg.eigh(h[g, :n, :n])[0], k.copies[g]))
    want = np.linalg.eigh(dense_pulse_generator(bath, couplings))[0]
    assert max_abs(np.sort(np.concatenate(spectra)) - want) <= 1e-12


@pytest.mark.parametrize("nuclei", [1, 2, 3, 4])
def test_multiplet_plan_covers_the_bath_once(nuclei):
    # sum over halves of copies * size is 8 * 2**(3N): every chain-plus-bath
    # state in exactly one half copy; the plan is built once and read-only.
    plan = _multiplet_plan(nuclei)
    covered = sum(int(k.copies @ k.size) for k in plan.classes)
    assert covered == 8 * 2 ** (3 * nuclei)
    assert all(k.drive.shape[1] in SIZE_CLASSES for k in plan.classes)
    assert _multiplet_plan(nuclei) is plan
    with pytest.raises(ValueError):
        plan.classes[0].contact[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        plan.share[0, 0] = 0.0


@pytest.mark.parametrize("nuclei", [1, 2, 3, 4])
def test_lower_blocks_mirror_their_partners(nuclei):
    # The pi rotation about y maps state (c, k) of a triple to (7 - c, 2j - k)
    # with a sign that is constant on a block: each S_z < 0 block, listed as
    # the images of its partner's states, has the partner's contact and
    # drive blocks entry by entry (the signed permutation is the identity).
    # Electron exchange maps each triple onto its image entry by entry.
    triples = list(_triples(nuclei))
    number = {triple[0]: t for t, triple in enumerate(triples)}
    for triple in triples:
        twice_j, nb, _, _, order, dims = triple
        blocks = np.split(order, np.cumsum(dims)[:-1])
        for lower, upper in zip(blocks, blocks[::-1][: len(blocks) // 2]):
            assert np.array_equal(np.sort(8 * nb - 1 - upper), np.sort(lower))
            mirror = _block_generators(nuclei, triple, 8 * nb - 1 - upper)
            for got, want in zip(mirror, _block_generators(nuclei, triple, upper)):
                assert np.array_equal(got, want)
        image = triples[number[twice_j[0], twice_j[2], twice_j[1]]]
        for states in blocks:
            exchanged = _block_generators(nuclei, image, _exchange_image(triple)[states])
            for got, want in zip(exchanged, _block_generators(nuclei, triple, states)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("nuclei", [1, 2, 3])
@settings(max_examples=5, deadline=None)
@given(lam=st.floats(0.5, 50.0))
def test_halves_give_the_block_propagators(nuclei, lam):
    # Every entry of every block, S_z < 0 blocks and exchange images
    # included, gathered from the padded halves' propagators, against one
    # exponential of the unsplit block.
    plan = _multiplet_plan(nuclei)
    phase = nuclei / lam
    flat = _half_propagators(plan, phase)
    start = 0
    for triple in _triples(nuclei):
        nb, order, dims = triple[1], triple[4], triple[5]
        for states in np.split(order, np.cumsum(dims)[:-1]):
            got = np.zeros((len(states), len(states)), dtype=np.complex128)
            for k in range(2):
                keep, position, coef = _entry_terms(
                    plan.row, plan.col, plan.share, *(start + states,) * 2, k
                )
                got[keep] += coef * flat[position]
            drive, contact = _block_generators(nuclei, triple, states)
            want = expm_hermitian(_DRIVE_PHASE * drive + phase * contact, 1.0)
            assert max_abs(got - want) <= 1e-13
        start += 8 * nb


@pytest.mark.parametrize("nuclei, calls", [(1, 2), (2, 4), (3, 6)])
def test_point_exponentiates_one_stack_per_size_class(monkeypatch, nuclei, calls):
    # One sweep point exponentiates each size class once, every generator
    # real; the halves hold the S_z >= 0 blocks of the triples with
    # j_1 <= j_2, each state once.
    seen = []

    def spy(h, scale):
        seen.append(h)
        return expm_hermitian(h, scale)

    monkeypatch.setattr("spinholonomy.noise.expm_hermitian", spy)
    dephasing_sweep(HyperfineBath(0.0, 1.0, nuclei), [4.0], symmetric_couplings(1.2, 0.3, -0.2))
    plan = _multiplet_plan(nuclei)
    assert len(seen) == len(plan.classes) == calls
    assert all(h.dtype == np.float64 for h in seen)
    assert [h.shape for h in seen] == [k.drive.shape for k in plan.classes]
    upper = sum(
        int(np.sum(dims[len(dims) // 2 :]))
        for twice_j, *_, dims in _triples(nuclei)
        if twice_j[1] <= twice_j[2]
    )
    assert sum(int(k.size.sum()) for k in plan.classes) == upper


@pytest.mark.parametrize("nuclei", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(scale=SCALES, phi1=ANGLE, phi2=ANGLE, op_time=OP_TIMES, lam=LAMBDAS)
def test_dephasing_depends_on_n_and_lambda_alone(nuclei, scale, phi1, phi2, op_time, lam):
    # The DM angles are a gauge, the scale and tau_op cancel in the
    # calibrated pulse: F is the XY-only point at unit scale and tau_op,
    # bit for bit, since neither enters the arithmetic.
    couplings = symmetric_couplings(scale, phi1, phi2)
    got = dephasing_sweep(HyperfineBath(0.0, op_time, nuclei), [lam], couplings).fidelity[0]
    want = dephasing_sweep(HyperfineBath(0.0, 1.0, nuclei), [lam], SYM).fidelity[0]
    assert got == want


@pytest.mark.parametrize("offset", [5e-10, -5e-10])
def test_couplings_inside_the_theta_guard_give_the_working_point(offset):
    # theta = pi/4 +- 5e-10 passes the 1e-9 guard and is evaluated at pi/4:
    # its F moves by O(1e-9) from its own exact value, onto the working
    # point's, bit for bit.
    polar = PolarCouplings(omega=1.3, theta=math.pi / 4 + offset, phi1=0.4, phi2=-1.1)
    couplings = polar_to_couplings(polar)
    assert abs(couplings_to_polar(couplings).theta - math.pi / 4 - offset) <= 1e-15
    for n in (1, 2):
        got = dephasing_sweep(HyperfineBath(0.0, 1.0, n), [3.0, 12.0], couplings).fidelity
        want = dephasing_sweep(HyperfineBath(0.0, 1.0, n), [3.0, 12.0], SYM).fidelity
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nuclei", [1, 2])
@pytest.mark.parametrize("lam", [2.0, 9.0])
def test_channel_choi_matches_dense_bit_basis_channel(nuclei, lam):
    couplings = symmetric_couplings(1.3, 0.2, -0.35)
    bath = HyperfineBath.from_ratio(lam, 1.2, nuclei)
    kraus = hyperfine_channel(bath, couplings).kraus
    assert max_abs(choi_matrix(kraus) - choi_matrix(dense_hyperfine_kraus(bath, couplings))) <= 1e-12


def test_sweep_and_channel_match_sector_oracle_at_n3():
    # N = 3 is the first N with a multiplicity above 1 (two j = 1/2
    # multiplets per electron), so it checks the weights m_t.
    couplings = symmetric_couplings(1.2, 0.3, -0.2)
    bath = HyperfineBath.from_ratio(4.0, 0.9, 3)
    want = sector_dephasing_fidelity(bath, couplings)
    table = dephasing_sweep(HyperfineBath(0.0, 0.9, 3), [4.0], couplings)
    assert abs(table.fidelity[0] - want) <= 1e-12
    channel = hyperfine_channel(bath, couplings)
    assert channel.kraus.shape == (8000, 8, 8)
    assert channel.completeness_defect() <= 1e-9
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    assert abs(kraus_fidelity(target, channel.kraus) - want) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(scale=SCALES, phi1=DM_ANGLES, phi2=DM_ANGLES, op_time=OP_TIMES, lam=LAMBDAS)
def test_channel_complete_and_consistent_with_sweep(scale, phi1, phi2, op_time, lam):
    couplings = symmetric_couplings(scale, phi1, phi2)
    channel = hyperfine_channel(HyperfineBath.from_ratio(lam, op_time, 1), couplings)
    assert channel.completeness_defect() <= 1e-9
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    swept = dephasing_sweep(HyperfineBath(0.0, op_time, 1), [lam], couplings)
    assert abs(kraus_fidelity(target, channel.kraus) - swept.fidelity[0]) <= 1e-12


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

# Both dephasing routes, at N = 1 and lambda = 5.
ROUTES = {
    "sweep": lambda couplings: dephasing_sweep(HyperfineBath(0.0, 1.0, 1), [5.0], couplings),
    "channel": lambda couplings: hyperfine_channel(
        HyperfineBath.from_ratio(5.0, 1.0, 1), couplings
    ),
}


@pytest.mark.parametrize(
    "couplings",
    [ExchangeCouplings(math.nan, 1.0), ExchangeCouplings(1.0, 1.0, math.inf, 0.0)],
    ids=["j1-nan", "d1-inf"],
)
@pytest.mark.parametrize("route", ROUTES)
def test_non_finite_coupling_is_named_on_both_routes(no_exponentials, route, couplings):
    # A non-finite coupling makes theta NaN: it is named before theta is checked.
    with pytest.raises(ValueError, match="exchange couplings must be finite") as exc:
        ROUTES[route](couplings)
    assert "theta" not in str(exc.value)


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


def test_hyperfine_channel_requires_symmetric_theta(no_exponentials):
    bath = HyperfineBath.from_ratio(5.0, 1.0, nuclei_per_electron=1)
    with pytest.raises(ValueError, match=r"hyperfine_channel requires theta = pi/4 .*theta = 0\.46"):
        hyperfine_channel(bath, ExchangeCouplings(1.0, 0.5))
