"""Robustness studies: fidelity metric and the three noise families.

The target in every study is the register gate that the calibrated pulse
would realize on the clean chain.  Fidelity is the process fidelity

    F = sum_k |tr(V^dag M_k)|^2 / d^2,        d = 4,

over the Kraus operators restricted to the ancilla-|0> register block; for
a plain (possibly leaky) gate this is ``|tr(V^dag M)|^2 / 16``.  It is
basis independent, removes global phases, penalizes leakage automatically,
and reduces to 1 exactly when the realized operation equals the target.
The average-gate-fidelity convention can be derived from it as
``(d F + 1) / (d + 1)``.

Three perturbations are studied:

* a static Dzyaloshinskii-Moriya term while the pulse is calibrated for the
  XY-only couplings (strength parametrized by ``d_i = sqrt(J1^2+J2^2)/D_i``);
* independent amplitude offsets on the two chain arms,
  ``Omega_i = Omega + delta_i`` (parametrized by the ratios
  ``Omega / delta_i``);
* dephasing from a spin-1/2 nuclear bath with homogeneous hyperfine
  coupling ``A/N`` per nucleus, swept against ``lambda = N / (A tau_op)``,
  the hyperfine-decoherence to gate-operation time ratio.

Sweep points are independent.  The DM and amplitude grids are evaluated
through a thread pool when more than one CPU is available; the dephasing
sweep evaluates its points in order, since each is a handful of small
exponentials.  Results are always gathered in deterministic axis order.

The dephasing generator is constant over the square pulse and conserves
total S_z, so one pulse is exactly one exponential per magnetization
sector; see :func:`dephasing_sweep`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionOverflow,
    NonCyclicPulse,
    NonUnitaryTarget,
)
from .gates import RegisterGate, analytic_entangler, extract_register_gate
from .linalg import CMatrix, expm_hermitian, unitarity_defect
from .propagation import (
    PulsePlan,
    cyclicity_defect,
    propagator_closed_form,
    propagator_time_ordered,
    pulse_area,
)
from .spin_chain import (
    ExchangeCouplings,
    arm_hamiltonians,
    build_hamiltonians,
    couplings_to_polar,
)

CYCLIC_TOL = 1e-9
TARGET_LEAKAGE_TOL = 1e-10
DEFAULT_STEPS = 200
DEFAULT_DIM_CAP = 4096


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation parameters; exactly one family is active per run.

    ``d1_ratio``/``d2_ratio`` parametrize the DM perturbation,
    ``delta1``/``delta2`` (or equivalently ``ratio1``/``ratio2``) the arm
    amplitude offsets.
    """

    d1_ratio: float | None = None
    d2_ratio: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    ratio1: float | None = None
    ratio2: float | None = None

    def family(self) -> str:
        dm = self.d1_ratio is not None or self.d2_ratio is not None
        amp = any(
            v is not None for v in (self.delta1, self.delta2, self.ratio1, self.ratio2)
        )
        if dm == amp:
            raise ValueError("exactly one noise family must be active")
        return "dm" if dm else "amplitude"


@dataclass(frozen=True)
class HyperfineBath:
    """Homogeneously coupled spin-1/2 nuclear bath, N nuclei per electron.

    ``total_coupling`` is A; every per-nucleus constant is A/N.  The bath
    Hilbert space has dimension 2**(3N) -- 64 for the default N = 2, giving
    a 512-dimensional chain-plus-bath space.
    """

    total_coupling: float
    op_time: float
    nuclei_per_electron: int = 2

    def __post_init__(self):
        if self.nuclei_per_electron < 1:
            raise ValueError("need at least one nucleus per electron")
        if not (math.isfinite(self.op_time) and self.op_time > 0):
            raise ValueError(f"op_time must be positive and finite, got {self.op_time!r}")
        if not math.isfinite(self.total_coupling):
            raise ValueError(
                f"hyperfine coupling A must be finite, got {self.total_coupling!r}"
            )

    @property
    def bath_dim(self) -> int:
        return 2 ** (3 * self.nuclei_per_electron)

    @property
    def lam(self) -> float:
        """Decoherence-to-operation time ratio N / (A * tau_op)."""
        if self.total_coupling == 0:
            return math.inf
        return self.nuclei_per_electron / (self.total_coupling * self.op_time)

    @classmethod
    def from_ratio(
        cls, lam: float, op_time: float, nuclei_per_electron: int = 2
    ) -> "HyperfineBath":
        """Bath with coupling A = N / (lambda * tau_op); lambda = inf is no bath."""
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam!r}")
        a = nuclei_per_electron / (lam * op_time)
        return cls(total_coupling=a, op_time=op_time, nuclei_per_electron=nuclei_per_electron)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Operator-sum representation: a stack of Kraus operators (K, 8, 8)."""

    kraus: np.ndarray

    def completeness_defect(self) -> float:
        total = np.einsum("kij,kil->jl", self.kraus.conj(), self.kraus)
        return float(np.max(np.abs(total - np.eye(total.shape[0]))))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Axis values, the fidelity grid, and the configuration that made it."""

    axis_names: tuple[str, ...]
    axis_values: tuple[tuple[float, ...], ...]
    fidelity: np.ndarray
    config: dict

    def rows(self):
        """Rows (axis values..., fidelity) in deterministic axis order."""
        if len(self.axis_names) == 1:
            for x, f in zip(self.axis_values[0], self.fidelity):
                yield (x, float(f))
        else:
            for i, x in enumerate(self.axis_values[0]):
                for j, y in enumerate(self.axis_values[1]):
                    yield (x, y, float(self.fidelity[i, j]))


def process_fidelity(
    target: RegisterGate, actual: RegisterGate | QuantumChannel
) -> float:
    """Process fidelity of a realized operation against a unitary target.

    Raises
    ------
    NonUnitaryTarget
        If the target gate is leaky or non-unitary.
    """
    if target.leakage > TARGET_LEAKAGE_TOL or unitarity_defect(target.matrix) > 1e-9:
        raise NonUnitaryTarget(
            f"target has leakage {target.leakage:.3e}; a unitary gate is required"
        )
    v = target.matrix
    if isinstance(actual, QuantumChannel):
        blocks = actual.kraus[:, :4, :4]
        overlaps = np.einsum("sp,ksp->k", v.conj(), blocks)
        return float(np.sum(np.abs(overlaps) ** 2) / 16.0)
    overlap = np.einsum("sp,sp->", v.conj(), actual.matrix)
    return float(abs(overlap) ** 2 / 16.0)


def _map_grid(point_fn, points, workers: int | None):
    if workers is None:
        workers = os.cpu_count() or 1
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(point_fn, points))
    return [point_fn(p) for p in points]


def _require_cyclic(pulse: PulsePlan, omega: float):
    defect = cyclicity_defect(pulse, omega)
    if defect > CYCLIC_TOL:
        raise NonCyclicPulse(
            f"pulse area times omega misses an odd multiple of pi by {defect:.3e}"
        )


def dm_sweep(
    j1: float,
    j2: float,
    d1_ratios,
    d2_ratios,
    pulse: PulsePlan,
    workers: int | None = None,
) -> SweepTable:
    """Fidelity grid against a static DM perturbation.

    The pulse is calibrated for the XY-only couplings; each grid point adds
    a DM term of strength ``D_i = sqrt(j1^2 + j2^2) / d_i`` and compares
    the realized gate with the clean XY gate.  Requires ``j1 == j2`` (the
    maximally entangling working point).
    """
    if j1 != j2:
        raise ValueError("dm_sweep targets the symmetric point; need j1 == j2")
    xy = ExchangeCouplings(j1=j1, j2=j2)
    polar_xy = couplings_to_polar(xy)
    _require_cyclic(pulse, polar_xy.omega)
    area = pulse_area(pulse, pulse.duration)
    target = analytic_entangler(polar_xy.theta, polar_xy.phi1, polar_xy.phi2)
    scale = math.hypot(j1, j2)
    d1_ratios = tuple(float(x) for x in d1_ratios)
    d2_ratios = tuple(float(x) for x in d2_ratios)

    def one(point):
        d1, d2 = point
        if d1 <= 0 or d2 <= 0:
            raise ValueError("DM ratios d_i must be positive")
        ham = build_hamiltonians(
            ExchangeCouplings(j1=j1, j2=j2, d1=scale / d1, d2=scale / d2)
        )
        gate = extract_register_gate(propagator_closed_form(ham, area))
        return process_fidelity(target, gate)

    points = [(d1, d2) for d1 in d1_ratios for d2 in d2_ratios]
    values = _map_grid(one, points, workers)
    grid = np.array(values).reshape(len(d1_ratios), len(d2_ratios))
    return SweepTable(
        axis_names=("d1", "d2"),
        axis_values=(d1_ratios, d2_ratios),
        fidelity=grid,
        config={"j1": j1, "j2": j2, "pulse": pulse, "family": "dm"},
    )


def amplitude_noise_sweep(
    couplings: ExchangeCouplings,
    ratios1,
    ratios2,
    pulse: PulsePlan,
    steps: int = DEFAULT_STEPS,
    workers: int | None = None,
) -> SweepTable:
    """Fidelity grid against independent arm-amplitude offsets.

    Each arm's envelope is offset by ``delta_i = Omega / ratio_i`` (a ratio
    of ``inf`` means no offset); the two arm Hamiltonians do not commute,
    so the perturbed propagator is evaluated by time-ordered stepping.
    """
    polar = couplings_to_polar(couplings)
    _require_cyclic(pulse, polar.omega)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    h1, h2 = arm_hamiltonians(couplings)
    omega_amp = pulse.amplitude
    ratios1 = tuple(float(x) for x in ratios1)
    ratios2 = tuple(float(x) for x in ratios2)

    def one(point):
        r1, r2 = point
        if r1 == 0 or r2 == 0:
            raise ValueError("amplitude ratios must be nonzero (inf for no offset)")
        d1 = 0.0 if math.isinf(r1) else omega_amp / r1
        d2 = 0.0 if math.isinf(r2) else omega_amp / r2
        u = propagator_time_ordered(
            [
                (h1, lambda t: pulse.envelope(t) + d1),
                (h2, lambda t: pulse.envelope(t) + d2),
            ],
            pulse.duration,
            steps,
        )
        return process_fidelity(target, extract_register_gate(u))

    points = [(r1, r2) for r1 in ratios1 for r2 in ratios2]
    values = _map_grid(one, points, workers)
    grid = np.array(values).reshape(len(ratios1), len(ratios2))
    return SweepTable(
        axis_names=("ratio1", "ratio2"),
        axis_values=(ratios1, ratios2),
        fidelity=grid,
        config={"couplings": couplings, "pulse": pulse, "steps": steps, "family": "amplitude"},
    )


def _sector_states(nuclei: int, dim_cap: int) -> list[np.ndarray]:
    """Basis indices of each total-S_z sector of the chain-plus-bath space.

    Index ``c * 2**(3N) + b`` is ``|chain c> (x) |bath b>``; site ``p`` of
    the ``3 + 3N`` (a, 1, 2, then the nuclei by electron) is bit
    ``2 + 3N - p``.  Sector ``k`` holds the ascending indices with ``k``
    spins down.

    Raises
    ------
    DimensionOverflow
        If ``8 * 2**(3N)`` exceeds ``dim_cap``.
    """
    sites = 3 + 3 * nuclei
    dim = 1 << sites
    if dim > dim_cap:
        raise DimensionOverflow(
            f"chain-plus-bath dimension {dim} exceeds cap {dim_cap}"
        )
    index = np.arange(dim)
    down = sum((index >> p) & 1 for p in range(sites))
    return [np.flatnonzero(down == k) for k in range(sites + 1)]


def _contact_block(states: np.ndarray, nuclei: int) -> np.ndarray:
    """Sector block of ``sum_{l,k} (1/N) S^(l) . I^(l,k)`` (real).

    ``S . I = Sz Iz + (S+ I- + S- I+) / 2`` is +1/4 on aligned and -1/4 on
    opposite spins, and exchanges opposite spins with amplitude 1/2.
    """
    sites = 3 + 3 * nuclei
    block = np.zeros((len(states), len(states)))
    diag = np.zeros(len(states))
    for l in range(3):
        for k in range(nuclei):
            e_bit = sites - 1 - l
            n_bit = sites - 4 - l * nuclei - k
            opposite = ((states >> e_bit) ^ (states >> n_bit)) & 1
            diag += 0.25 - 0.5 * opposite
            flip = np.flatnonzero(opposite)
            swapped = states[flip] ^ ((1 << e_bit) | (1 << n_bit))
            block[np.searchsorted(states, swapped), flip] = 0.5
    np.fill_diagonal(block, diag)
    return block / nuclei


def _chain_block(h0: CMatrix, states: np.ndarray, nuclei: int) -> CMatrix:
    """Sector block of ``H0 (x) 1_bath``: chain entries between equal bath states."""
    bits = 3 * nuclei
    chain, bath = states >> bits, states & ((1 << bits) - 1)
    return np.where(bath[:, None] == bath[None, :], h0[np.ix_(chain, chain)], 0.0)


def _scatter(blocks, dim: int) -> CMatrix:
    """Dense operator from ``(basis indices, block)`` pairs of disjoint sectors."""
    dense = np.zeros((dim, dim), dtype=np.complex128)
    for states, block in blocks:
        dense[np.ix_(states, states)] = block
    return dense


def build_hyperfine_hamiltonian(
    bath: HyperfineBath, dim_cap: int = DEFAULT_DIM_CAP
) -> CMatrix:
    """Isotropic contact interaction of each electron with its own nuclei.

    Returns the chain-plus-bath operator
    ``sum_{l,k} (A/N) S^(l) . I^(l,k)`` where electron ``l`` couples only
    to its ``N`` private nuclei; nuclei are ordered by electron (a, 1, 2).
    The interaction conserves total magnetization; the dense matrix is
    assembled from its total-S_z sector blocks.

    Raises
    ------
    DimensionOverflow
        If ``8 * 2**(3N)`` exceeds ``dim_cap``.
    """
    n = bath.nuclei_per_electron
    sectors = _sector_states(n, dim_cap)
    return _scatter(
        ((s, bath.total_coupling * _contact_block(s, n)) for s in sectors),
        8 * bath.bath_dim,
    )


def _pulse_sectors(
    bath: HyperfineBath, couplings: ExchangeCouplings, dim_cap: int
) -> list[tuple[np.ndarray, CMatrix, np.ndarray]]:
    """Per total-S_z sector: basis indices, drive block and unit contact block.

    The drive is ``amplitude * H0 (x) 1_bath`` for the square pulse
    calibrated cyclic over ``bath.op_time``; with the static bath the
    generator ``drive + A * contact`` is constant over the pulse.
    """
    values = (couplings.j1, couplings.j2, couplings.d1, couplings.d2)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"exchange couplings must be finite, got {values}")
    amplitude = math.pi / (bath.op_time * couplings_to_polar(couplings).omega)
    h0 = build_hamiltonians(couplings).h_eff
    n = bath.nuclei_per_electron
    return [
        (s, amplitude * _chain_block(h0, s, n), _contact_block(s, n))
        for s in _sector_states(n, dim_cap)
    ]


def hyperfine_channel(
    bath: HyperfineBath,
    couplings: ExchangeCouplings,
    steps: int = DEFAULT_STEPS,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> QuantumChannel:
    """Operator-sum representation of one gate pulse under the bath.

    The chain-plus-bath evolves under
    ``envelope(t) * H0 (x) 1_bath + H_hyperfine`` for the square pulse
    calibrated cyclic over ``bath.op_time``; the bath starts maximally
    mixed (unpolarized nuclei), so the Kraus operators are
    ``M_ij = <j|U|i> / sqrt(bath_dim)`` over bath basis states.  The
    generator is constant, so U is one exponential per total-S_z sector,
    scattered into the dense chain-plus-bath matrix.  ``steps`` is
    validated but does not change the result: the midpoint product of a
    constant generator is exactly that exponential.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim_b = bath.bath_dim
    u = _scatter(
        (
            (s, expm_hermitian(drive + bath.total_coupling * contact, bath.op_time))
            for s, drive, contact in _pulse_sectors(bath, couplings, dim_cap)
        ),
        8 * dim_b,
    )
    # M_ij[s, s'] = <s, j| U |s', i> / sqrt(dim_b)
    u4 = u.reshape(8, dim_b, 8, dim_b)
    kraus = (
        np.transpose(u4, (1, 3, 0, 2)).reshape(dim_b * dim_b, 8, 8)
        / math.sqrt(dim_b)
    )
    return QuantumChannel(kraus=kraus)


def _register_terms(states: np.ndarray, target: CMatrix, nuclei: int):
    """Where a sector's ancilla-|0> block lands in the overlap ``O[j, i]``.

    Returns the block's positions in the sector, the flat index
    ``j * bath_dim + i`` of each of its entries ``<s, j|U|s', i>`` and the
    weight ``conj(V[s, s'])`` it carries.
    """
    bits = 3 * nuclei
    register = np.flatnonzero(states < (4 << bits))
    chain = states[register] >> bits
    bath = states[register] & ((1 << bits) - 1)
    pair = (bath[:, None] << bits) | bath[None, :]
    return register, pair, target.conj()[np.ix_(chain, chain)]


def dephasing_sweep(
    bath_template: HyperfineBath,
    lambdas,
    couplings: ExchangeCouplings,
    steps: int = DEFAULT_STEPS,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> SweepTable:
    """Fidelity versus the decoherence-to-operation time ratio.

    ``lambda`` is swept by varying the total coupling A at fixed
    ``op_time`` so the pulse calibration never changes.  Requires
    couplings at the maximally entangling point theta = pi/4.

    Each point exponentiates ``drive + A * contact`` once per total-S_z
    sector and contracts the process fidelity of the Kraus family
    ``M_ij = <j|U|i> / sqrt(d_b)`` directly from the ancilla-|0> blocks,

        F = sum_{ij} |sum_{s,s'} conj(V[s, s']) <s, j|U|s', i>|^2 / (16 d_b),

    without forming U or the Kraus operators.  ``steps`` is validated and
    recorded in the config but does not change the result, since the
    midpoint product of a constant generator is exactly one exponential.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    polar = couplings_to_polar(couplings)
    if not abs(polar.theta - math.pi / 4) <= 1e-9:
        raise ValueError(
            f"dephasing_sweep requires theta = pi/4 couplings, got theta = {polar.theta!r}"
        )
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    lambdas = tuple(float(x) for x in lambdas)
    n = bath_template.nuclei_per_electron
    tau = bath_template.op_time
    # Only the overall bath coupling A = N / (lambda * tau) varies with
    # lambda; every lambda is checked before any work starts.
    totals = [HyperfineBath.from_ratio(lam, tau, n).total_coupling for lam in lambdas]
    sectors = _pulse_sectors(bath_template, couplings, dim_cap)
    terms = [_register_terms(s, target, n) for s, _, _ in sectors]
    dim_b = bath_template.bath_dim

    values = []
    for a_total in totals:
        overlap = np.zeros(dim_b * dim_b, dtype=np.complex128)
        for (_, drive, contact), (register, pair, weight) in zip(sectors, terms):
            u = expm_hermitian(drive + a_total * contact, tau)
            np.add.at(overlap, pair, weight * u[np.ix_(register, register)])
        values.append(float(np.vdot(overlap, overlap).real / (16.0 * dim_b)))
    return SweepTable(
        axis_names=("lambda",),
        axis_values=(lambdas,),
        fidelity=np.array(values),
        config={
            "couplings": couplings,
            "op_time": bath_template.op_time,
            "nuclei_per_electron": bath_template.nuclei_per_electron,
            "steps": steps,
            "family": "dephasing",
        },
    )


__all__ = [
    "NoiseConfig",
    "HyperfineBath",
    "QuantumChannel",
    "SweepTable",
    "process_fidelity",
    "dm_sweep",
    "amplitude_noise_sweep",
    "build_hyperfine_hamiltonian",
    "hyperfine_channel",
    "dephasing_sweep",
    "DEFAULT_STEPS",
    "DEFAULT_DIM_CAP",
]
