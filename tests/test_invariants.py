import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    gate_metrics_oracle,
    haar_stack,
    haar_unitary,
    local_product,
    makhlin_oracle,
    weyl_oracle,
)
from spinholonomy import (
    MAX_ENTANGLING_POWER,
    NonCanonicalInput,
    NonUnitaryInput,
    WEYL_VERTICES,
    analytic_entangler,
    classify_entangler,
    entangling_power,
    gate_metrics,
    invariants_from_weyl,
    makhlin_invariants,
    weyl_coordinates,
)
from spinholonomy.invariants import _PE_EQUATIONS, in_perfect_polyhedron

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# double-CNOT: |a b> -> |b, a xor b>
DCNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex
)


def family_gate(theta):
    return analytic_entangler(theta).matrix


# --- Makhlin invariants -------------------------------------------------

def test_invariants_identity():
    g1, g2 = makhlin_invariants(np.eye(4))
    assert abs(g1 - 1) <= 1e-12 and abs(g2 - 3) <= 1e-12


def test_invariants_cnot():
    g1, g2 = makhlin_invariants(CNOT)
    assert abs(g1) <= 1e-12 and abs(g2 - 1) <= 1e-12


def test_invariants_maximal_family_point():
    g1, g2 = makhlin_invariants(family_gate(math.pi / 4))
    assert abs(g1) <= 1e-10 and abs(g2 + 1) <= 1e-10


def test_invariants_family_closed_form():
    for theta in np.linspace(0.0, math.pi / 4, 50):
        g1, g2 = makhlin_invariants(family_gate(theta))
        assert abs(g1 - 0.25 * (1 + math.cos(4 * theta)) ** 2) <= 1e-9
        assert abs(g2 - (1 + 2 * math.cos(4 * theta))) <= 1e-9


def test_invariants_reject_non_unitary():
    with pytest.raises(NonUnitaryInput):
        makhlin_invariants(np.diag([1.0, 1.0, 1.0, 1.1]))


# --- Weyl coordinates ---------------------------------------------------

def test_weyl_identity():
    assert np.allclose(weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-12)


def test_weyl_family_diagonal_edge():
    for theta in np.linspace(0.0, math.pi / 4, 60)[1:]:
        c = weyl_coordinates(family_gate(theta))
        assert np.allclose(c, (2 * theta, 2 * theta, 0.0), atol=1e-9)


def test_weyl_cnot():
    # Independent check: the CNOT point must sit at (pi/2, 0, 0); its
    # invariants G1 = 0, G2 = 1 confirm it through the inverse relations.
    c = weyl_coordinates(CNOT)
    assert np.allclose(c, (math.pi / 2, 0.0, 0.0), atol=1e-9)
    g1, g2 = invariants_from_weyl(*c)
    assert abs(g1) <= 1e-12 and abs(g2 - 1) <= 1e-12


def test_weyl_named_gates():
    assert np.allclose(weyl_coordinates(SWAP), WEYL_VERTICES["A3"], atol=1e-9)
    assert np.allclose(weyl_coordinates(DCNOT), WEYL_VERTICES["A2"], atol=1e-9)


def test_weyl_stable_under_degenerate_spectra():
    # Identity and SWAP have fully degenerate eigenphases; the tie-break
    # must still land on their canonical points.
    for u, want in ((np.eye(4), (0, 0, 0)), (SWAP, WEYL_VERTICES["A3"])):
        for phase in (1.0, 1j, np.exp(0.3j)):
            assert np.allclose(weyl_coordinates(phase * u), want, atol=1e-9)


def test_weyl_in_chamber_for_random_gates(rng):
    for _ in range(300):
        c1, c2, c3 = weyl_coordinates(haar_unitary(rng, 4))
        assert c1 >= c2 >= c3 >= 0
        assert c1 + c2 <= math.pi + 1e-12
        if c3 <= 1e-9:
            assert c1 <= math.pi / 2 + 1e-9


# --- invariants from coordinates ---------------------------------------

def test_invariant_relations_consistency(rng):
    for _ in range(500):
        u = haar_unitary(rng, 4)
        g1, g2 = makhlin_invariants(u)
        h1, h2 = invariants_from_weyl(*weyl_coordinates(u))
        assert abs(g1 - h1) <= 1e-9
        assert abs(g2 - h2) <= 1e-9


def test_local_invariance(rng):
    for _ in range(500):
        u = haar_unitary(rng, 4)
        dressed = local_product(rng) @ u @ local_product(rng)
        g1, g2 = makhlin_invariants(u)
        h1, h2 = makhlin_invariants(dressed)
        assert abs(g1 - h1) <= 1e-9 and abs(g2 - h2) <= 1e-9
        cu = np.array(weyl_coordinates(u))
        cd = np.array(weyl_coordinates(dressed))
        assert np.max(np.abs(cu - cd)) <= 1e-9
        assert abs(entangling_power(g1) - entangling_power(h1)) <= 1e-9


# --- entangling power ---------------------------------------------------

def test_entangling_power_endpoints():
    assert abs(entangling_power(makhlin_invariants(family_gate(math.pi / 4))[0]) - 2 / 9) <= 1e-12
    assert abs(entangling_power(makhlin_invariants(family_gate(0.0))[0])) <= 1e-12
    assert abs(entangling_power(makhlin_invariants(family_gate(math.pi / 8))[0]) - 1 / 6) <= 1e-10


def test_entangling_power_range(rng):
    for _ in range(300):
        ep = entangling_power(makhlin_invariants(haar_unitary(rng, 4))[0])
        assert 0.0 <= ep <= MAX_ENTANGLING_POWER


# --- classification -----------------------------------------------------

def test_classify_family_points():
    assert classify_entangler((2 * 3 * math.pi / 16, 2 * 3 * math.pi / 16, 0.0)) == "perfect"
    assert classify_entangler((math.pi / 8, math.pi / 8, 0.0)) == "entangling"
    assert classify_entangler(WEYL_VERTICES["A2"]) == "special_perfect"


def test_classify_cnot_point_is_perfect_not_special():
    # The L vertex maximally entangles some product state but not a full
    # product basis.
    assert classify_entangler(WEYL_VERTICES["L"]) == "perfect"


def test_classify_origin_and_swap():
    assert classify_entangler((0.0, 0.0, 0.0)) == "local"
    assert classify_entangler(WEYL_VERTICES["A3"]) == "entangling"  # zero power, nonlocal


def test_classify_hull_vertices_inclusive():
    # M and N have c1 > pi/2, outside the canonical region; their classes
    # are probed through the base-plane mirror (Q) and P instead.
    assert classify_entangler(WEYL_VERTICES["Q"]) == "perfect"
    assert classify_entangler(WEYL_VERTICES["P"]) == "perfect"


def test_classify_rejects_non_canonical():
    with pytest.raises(NonCanonicalInput):
        classify_entangler((0.1, 0.5, 0.0))


def test_classifier_boundary_on_fine_grid():
    thetas = np.linspace(0.0, math.pi / 4, 1000)
    classes = [gate_metrics(family_gate(float(t))).entangler_class for t in thetas]
    perfect = [cls in ("perfect", "special_perfect") for cls in classes]
    first = perfect.index(True)
    assert all(perfect[first:])
    spacing = thetas[1] - thetas[0]
    assert abs(thetas[first] - math.pi / 8) <= spacing
    assert classes[-1] == "special_perfect"


# --- perfect-entangler facet table ---------------------------------------

PE_VERTICES = np.array([WEYL_VERTICES[k] for k in ("L", "M", "N", "P", "Q", "A2")])


def facet_vertices(row):
    """The polyhedron vertices lying on the plane of one facet row."""
    return PE_VERTICES[np.abs(PE_VERTICES @ row[:3] + row[3]) <= 1e-12]


def test_facet_planes_unit_normals_through_vertices():
    assert _PE_EQUATIONS.shape == (7, 4)
    for row in _PE_EQUATIONS:
        assert abs(np.linalg.norm(row[:3]) - 1.0) <= 1e-15
        assert len(facet_vertices(row)) >= 3
        assert np.all(PE_VERTICES @ row[:3] + row[3] <= 1e-12)


WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).filter(
    lambda w: sum(w) > 1e-3
)


@settings(max_examples=200, deadline=None)
@given(weights=WEIGHTS)
def test_convex_combinations_of_vertices_are_inside(weights):
    w = np.array(weights) / sum(weights)
    assert in_perfect_polyhedron(w @ PE_VERTICES)


@settings(max_examples=200, deadline=None)
@given(facet=st.integers(0, 6), weights=WEIGHTS)
def test_points_pushed_off_a_facet_are_outside(facet, weights):
    row = _PE_EQUATIONS[facet]
    on_facet = facet_vertices(row)
    centroid = on_facet.mean(axis=0)
    w = np.array(weights[: len(on_facet)]) + 1e-3
    point = (w / w.sum()) @ on_facet
    for p in (centroid, point):
        assert not in_perfect_polyhedron(p + 1e-6 * row[:3])


def test_gate_metrics_bundle(rng):
    m = gate_metrics(family_gate(math.pi / 4))
    assert m.entangler_class == "special_perfect"
    assert abs(m.ep - 2 / 9) <= 1e-12
    assert np.allclose(m.weyl, WEYL_VERTICES["A2"], atol=1e-9)


# --- stacked evaluation ---------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=10, deadline=None)
@given(size=st.sampled_from([1, 127, 128, 129, 300]), seed=SEEDS)
def test_stacked_metrics_equal_one_gate_oracle(size, seed):
    # Sizes around the pass length of 128 cover the pass edges.
    stack = haar_stack(np.random.default_rng(seed), size)
    metrics = gate_metrics(stack)
    assert len(metrics) == size
    for u, m in zip(stack, metrics):
        assert (m.g1, m.g2, m.weyl, m.ep, m.entangler_class) == gate_metrics_oracle(u)
    g1, g2 = makhlin_invariants(stack)
    assert np.array_equal(g1, [m.g1 for m in metrics])
    assert np.array_equal(g2, [m.g2 for m in metrics])
    assert np.array_equal(weyl_coordinates(stack), [m.weyl for m in metrics])


def test_single_gate_is_the_one_member_stack(rng):
    u = haar_unitary(rng, 4)
    assert gate_metrics(u) == gate_metrics(u[None])[0]
    assert makhlin_invariants(u) == makhlin_oracle(u)
    assert weyl_coordinates(u) == weyl_oracle(u)


def test_theta_family_stack_equals_oracle():
    thetas = np.linspace(0.0, math.pi / 4, 201)
    stack = np.array([family_gate(float(t)) for t in thetas])
    for u, m in zip(stack, gate_metrics(stack)):
        assert (m.g1, m.g2, m.weyl, m.ep, m.entangler_class) == gate_metrics_oracle(u)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, phase=st.floats(-math.pi, math.pi))
def test_weyl_point_and_class_locally_invariant(seed, phase):
    rng = np.random.default_rng(seed)
    stack = haar_stack(rng, 16)
    left = np.array([local_product(rng) for _ in stack])
    right = np.array([local_product(rng) for _ in stack])
    dressed = np.exp(1j * phase) * (left @ stack @ right)
    plain, moved = gate_metrics(stack), gate_metrics(dressed)
    for a, b in zip(plain, moved):
        assert np.max(np.abs(np.subtract(a.weyl, b.weyl))) <= 1e-9
        assert a.entangler_class == b.entangler_class


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_invariants_from_weyl_round_trip(seed):
    stack = haar_stack(np.random.default_rng(seed), 16)
    g1, g2 = makhlin_invariants(stack)
    for c, a, b in zip(weyl_coordinates(stack), g1, g2):
        h1, h2 = invariants_from_weyl(*c)
        assert abs(h1 - a) <= 1e-9 and abs(h2 - b) <= 1e-9


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_member_rejected(rng, bad):
    stack = haar_stack(rng, 5)
    stack[3, 1, 2] = bad
    for fn in (gate_metrics, makhlin_invariants, weyl_coordinates):
        with pytest.raises(NonUnitaryInput, match="non-finite"):
            fn(stack)
        with pytest.raises(NonUnitaryInput, match="non-finite"):
            fn(stack[3])


def test_non_unitary_member_rejected(rng):
    stack = haar_stack(rng, 5)
    stack[2] *= 1.1
    with pytest.raises(NonUnitaryInput, match="deviates from unitarity"):
        gate_metrics(stack)
    with pytest.raises(NonUnitaryInput, match="4x4"):
        gate_metrics(np.eye(3))


def test_classify_stack_equals_pointwise():
    points = [WEYL_VERTICES[k] for k in ("O", "L", "Q", "P", "A2", "A3")]
    points.append((math.pi / 8, math.pi / 8, 0.0))
    assert classify_entangler(points) == [classify_entangler(p) for p in points]
    assert classify_entangler(points) == [
        "local", "perfect", "perfect", "perfect", "special_perfect", "entangling", "entangling"
    ]
