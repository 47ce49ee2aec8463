"""Robustness studies: fidelity metric and the three noise families.

The target in every study is the register gate that the calibrated pulse
would realize on the clean chain.  Fidelity is the process fidelity

    F = sum_k |tr(V^dag M_k)|^2 / d^2,        d = 4,

over the Kraus operators restricted to the ancilla-|0> register block; for
a plain (possibly leaky) gate this is ``|tr(V^dag M)|^2 / 16``.  It is
basis independent, removes global phases, penalizes leakage automatically,
and reduces to 1 exactly when the realized operation equals the target;
it is not clipped, so rounding may put it a few ulp above 1.
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

Every sweep runs in the calling thread and returns its grid in axis
order.  The DM grid is a loop of closed-form gates, each one exact step
on the two S_z stars the chain acts on.  The amplitude grid
shares one envelope and one pair of arm Hamiltonians across its points,
which differ only in two scalar offsets, so it is stepped once for the
whole grid, each step in closed form on the two S_z stars the arms act
on; ``expm_hermitian`` serves only the dephasing blocks below.

The dephasing generator is constant over the square pulse.  The coupling
is the same for every nucleus, so each electron's nuclei enter only
through their total spin: the bath splits into multiplet triples, each
repeated ``m_t`` times, and total S_z is conserved inside each triple.
One pulse is therefore exactly one exponential per S_z block of the
triples, and the dephasing sweep and the Kraus channel share that block
plan; see :func:`dephasing_sweep` and :func:`hyperfine_channel`, which
refuse an N whose memory, counted from its block sizes, exceeds the budget.
Two symmetries halve that work.  The z-axis DM term is a gauge on the
chain (Shekhtman, Entin-Wohlman & Aharony, PRL 69, 836 (1992)): phases on
the chain states, with the matching rotation of the nuclei, make every
block real symmetric (:func:`_pulse_blocks`).  And the pi rotation of
every spin maps the S_z = M block onto the -M block, so only the blocks
with M >= 0 are exponentiated (:func:`_multiplet_plan`).
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionOverflow, NonUnitaryTarget
from .gates import EXTRACT_UNITARY_TOL, RegisterGate, analytic_entangler, extract_register_gate
from .linalg import expm_hermitian, require_unitary, unitarity_defect
from .propagation import (
    PulsePlan,
    _midpoint_samples,
    _require_cyclic,
    propagator_closed_form,
    pulse_area,
    star_product,
)
from .spin_chain import (
    ExchangeCouplings,
    _embed_stars,
    _star_couplings,
    arm_hamiltonians,
    build_hamiltonians,
    couplings_to_polar,
)

TARGET_LEAKAGE_TOL = 1e-10
DEFAULT_STEPS = 200
MEMORY_BUDGET = 2**30  # bytes; a larger estimate is refused (N >= 7)


@dataclass(frozen=True)
class HyperfineBath:
    """Homogeneously coupled spin-1/2 nuclear bath, N nuclei per electron.

    ``total_coupling`` is A; every per-nucleus constant is A/N.  The bath
    Hilbert space has dimension 2**(3N) -- 64 for the default N = 2, giving
    a 512-dimensional chain-plus-bath space, which the dephasing routes never
    form: they work on its S_z blocks and refuse an N whose estimated memory
    exceeds ``MEMORY_BUDGET`` (N >= 7).  ``op_time`` is only the time unit,
    since the gate's dephasing depends on N and lambda alone.  N must be an
    ``int`` >= 1.
    """

    total_coupling: float
    op_time: float
    nuclei_per_electron: int = 2

    def __post_init__(self):
        n = self.nuclei_per_electron
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"nuclei_per_electron must be an integer >= 1, got {n!r}")
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
        """Bath with coupling A = N / (lambda * tau_op); lambda = inf is no bath.

        Raises
        ------
        ValueError
            If lambda is not positive, ``op_time`` or N is invalid, or the
            phase ``A * tau_op = N / lambda`` or, after it, A overflows.
        """
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam!r}")
        cls(0.0, op_time, nuclei_per_electron)  # checks op_time and N before dividing
        if math.isinf(nuclei_per_electron / lam):
            raise ValueError(f"the bath phase N / lambda overflows at lambda = {lam!r}")
        rate = lam * op_time
        a = nuclei_per_electron / rate if rate > 0 else math.inf
        if math.isinf(a):
            raise ValueError(
                f"hyperfine coupling A = N / (lambda * op_time) overflows at "
                f"lambda = {lam!r}, op_time = {op_time!r}"
            )
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
    """Axis names and values and the fidelity grid over them (axis order)."""

    axis_names: tuple[str, ...]
    axis_values: tuple[tuple[float, ...], ...]
    fidelity: np.ndarray

    def rows(self):
        """Rows (axis values..., fidelity) in deterministic axis order."""
        if len(self.axis_names) == 1:
            for x, f in zip(self.axis_values[0], self.fidelity):
                yield (x, float(f))
        else:
            for i, x in enumerate(self.axis_values[0]):
                for j, y in enumerate(self.axis_values[1]):
                    yield (x, y, float(self.fidelity[i, j]))


def _require_unitary_target(target: RegisterGate) -> None:
    if target.leakage > TARGET_LEAKAGE_TOL or unitarity_defect(target.matrix) > 1e-9:
        msg = f"target has leakage {target.leakage:.3e}; a unitary gate is required"
        raise NonUnitaryTarget(msg)


def process_fidelity(
    target: RegisterGate, actual: RegisterGate | QuantumChannel
) -> float:
    """Process fidelity of a realized operation against a unitary target.

    The value is not clipped: when the operation equals the target up to
    rounding it may exceed 1 by a few ulp.

    Raises
    ------
    NonUnitaryTarget
        If the target gate is leaky or non-unitary.
    """
    _require_unitary_target(target)
    v = target.matrix
    if isinstance(actual, QuantumChannel):
        blocks = actual.kraus[:, :4, :4]
        overlaps = np.einsum("sp,ksp->k", v.conj(), blocks)
        return float(np.sum(np.abs(overlaps) ** 2) / 16.0)
    overlap = np.einsum("sp,sp->", v.conj(), actual.matrix)
    return float(abs(overlap) ** 2 / 16.0)


def dm_sweep(
    j1: float,
    j2: float,
    d1_ratios,
    d2_ratios,
    pulse: PulsePlan,
) -> SweepTable:
    """Fidelity grid against a static DM perturbation.

    The pulse is calibrated for the XY-only couplings; each grid point adds
    a DM term of strength ``D_i = sqrt(j1^2 + j2^2) / d_i`` and compares
    the realized gate with the clean XY gate.  Requires ``j1 == j2`` (the
    maximally entangling working point).  Fidelities are not clipped; a
    near-clean point may read a few ulp above 1.

    Raises
    ------
    ValueError
        If a ratio ``d_i`` is not positive (NaN included) or its strength
        ``D_i`` overflows, before any gate.
    """
    d1_ratios = tuple(float(x) for x in d1_ratios)
    d2_ratios = tuple(float(x) for x in d2_ratios)
    scale = math.hypot(j1, j2)
    for axis, ratios in (("d1", d1_ratios), ("d2", d2_ratios)):
        for d in ratios:
            if not d > 0:
                raise ValueError(f"DM ratio {axis} must be positive; got {d!r}")
            if math.isinf(scale / d):
                msg = f"DM ratio {axis} {d!r} makes D = sqrt(j1^2 + j2^2) / {axis} overflow"
                raise ValueError(msg)
    if j1 != j2:
        raise ValueError("dm_sweep targets the symmetric point; need j1 == j2")
    xy = ExchangeCouplings(j1=j1, j2=j2)
    polar_xy = couplings_to_polar(xy)
    _require_cyclic(pulse, polar_xy.omega)
    area = pulse_area(pulse, pulse.duration)
    target = analytic_entangler(polar_xy.theta, polar_xy.phi1, polar_xy.phi2)
    values = []
    for d1 in d1_ratios:
        for d2 in d2_ratios:
            ham = build_hamiltonians(
                ExchangeCouplings(j1=j1, j2=j2, d1=scale / d1, d2=scale / d2)
            )
            gate = extract_register_gate(propagator_closed_form(ham, area))
            values.append(process_fidelity(target, gate))
    grid = np.array(values).reshape(len(d1_ratios), len(d2_ratios))
    return SweepTable(
        axis_names=("d1", "d2"),
        axis_values=(d1_ratios, d2_ratios),
        fidelity=grid,
    )


def amplitude_noise_sweep(
    couplings: ExchangeCouplings,
    ratios1,
    ratios2,
    pulse: PulsePlan,
    steps: int = DEFAULT_STEPS,
) -> SweepTable:
    """Fidelity grid against independent arm-amplitude offsets.

    Each arm's envelope is offset by ``delta_i = Omega / ratio_i`` (a ratio
    of ``inf`` means no offset); the two arm Hamiltonians do not commute,
    so the perturbed propagator is evaluated by time-ordered stepping.  The
    grid points differ only in their offsets, so the envelope is sampled
    once and the grid is stepped as one stack by ``star_product``: the
    product of :func:`propagator_time_ordered`, each step in closed form.
    Fidelities are not clipped; a near-clean point may read a few ulp
    above 1.

    Raises
    ------
    ValueError
        If a ratio is zero or NaN, or its offset's phase over the pulse,
        ``|delta_i| * duration * max|b_i|`` with ``b_i`` the arm's leaf
        couplings (the offset's part of the step phase that the star step
        takes the cosine of), overflows, before any step.
    """
    ratios1 = tuple(float(x) for x in ratios1)
    ratios2 = tuple(float(x) for x in ratios2)
    polar = couplings_to_polar(couplings)
    _require_cyclic(pulse, polar.omega)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    _require_unitary_target(target)
    b1, b2 = (_star_couplings(h) for h in arm_hamiltonians(couplings))
    offsets = []
    for axis, ratios, b in (("ratio1", ratios1, b1), ("ratio2", ratios2, b2)):
        for r in ratios:
            if r == 0 or math.isnan(r):
                raise ValueError(f"{axis} must be nonzero, not NaN (inf: no offset); got {r!r}")
            phase = abs(pulse.amplitude / r) * pulse.duration * float(np.max(np.abs(b)))
            if not math.isfinite(phase):
                raise ValueError(
                    f"{axis} {r!r} makes the offset's phase over the pulse, "
                    f"|amplitude / {axis}| * duration * |b|, overflow (got {phase!r})"
                )
        offsets.append([pulse.amplitude / r for r in ratios])
    grid_offsets = np.array([(a, b) for a in offsets[0] for b in offsets[1]]).reshape(-1, 2)
    dt, envelope = _midpoint_samples([pulse.envelope], pulse.duration, steps)
    u = star_product(b1, b2, envelope[:, :, None] + grid_offsets, dt)
    require_unitary(u, "propagator", EXTRACT_UNITARY_TOL)
    overlap = np.einsum("sp,ksp->k", target.matrix.conj(), _embed_stars(u, 1.0)[:, :4, :4])
    grid = (np.abs(overlap) ** 2 / 16.0).reshape(len(ratios1), len(ratios2))
    return SweepTable(
        axis_names=("ratio1", "ratio2"),
        axis_values=(ratios1, ratios2),
        fidelity=grid,
    )


def _multiplicity(nuclei: int, twice_j: int) -> int:
    """Number of spin-j multiplets, ``j = twice_j / 2``, among ``nuclei``
    spin-1/2s: ``C(N, N/2 - j) - C(N, N/2 - j - 1)``."""
    k = (nuclei - twice_j) // 2
    return math.comb(nuclei, k) - (math.comb(nuclei, k - 1) if k else 0)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """The total-S_z blocks of one dimension d, stacked: G blocks, the
    ``S_z >= 0`` blocks first and then the ``S_z < 0`` ones.

    A block state is ``|chain c> (x) |mu>`` with ``mu`` a state of the
    block's multiplet triple.  ``pair`` numbers the bath pair
    ``(mu', mu)`` of each entry ``<c', mu'|U|c, mu>`` across all triples;
    the entries between ancilla-|0> chain states (``c, c' < 4``) sit at
    the flat positions ``register`` of a ``(G, d, d)`` stack, and
    ``target`` is the flat index ``4 c' + c`` of the target entry that
    weighs each of them.  ``partner[i]`` is the ``S_z > 0`` block whose
    states, mapped by the pi rotation (:func:`_multiplet_plan`), are the
    states of ``S_z < 0`` block ``G - len(partner) + i`` in its order.
    """

    contact: np.ndarray  # (G, d, d): blocks of (1/N) sum_l S^(l) . J^(l)
    arms: np.ndarray  # (2, G, d, d): blocks of the unit XY arms (x) 1_bath
    chain: np.ndarray  # (G, d)
    bath: np.ndarray  # (G, d)
    pair: np.ndarray  # (G, d, d)
    register: np.ndarray
    target: np.ndarray
    partner: np.ndarray  # (G_-,)


@dataclass(frozen=True, eq=False)
class _MultipletPlan:
    """Every S_z block of the contact term, grouped by dimension, and the
    multiplicity ``m_t`` of the triple of each bath pair."""

    groups: tuple[_Blocks, ...]
    weight: np.ndarray


def _triples(nuclei: int):
    """Each multiplet triple ``t = (j_a, j_1, j_2)``: twice its j values, its
    bath dimension ``n_b``, the electron-down bits and twice-m values (2j down)
    of its states ``c * n_b + mu``, the states stably sorted by S_z, and the S_z block sizes."""
    for twice_j in itertools.product(range(nuclei % 2, nuclei + 1, 2), repeat=3):
        sizes = tuple(tj + 1 for tj in twice_j)
        nb = math.prod(sizes)
        chain, bath = np.divmod(np.arange(8 * nb), nb)
        down = (chain[:, None] >> np.array([2, 1, 0])) & 1  # electrons a, 1, 2
        twice_m = np.array(twice_j) - 2 * np.stack(np.unravel_index(bath, sizes), axis=1)
        twice_mz = np.sum(1 - 2 * down + twice_m, axis=1)
        dims = np.unique(twice_mz, return_counts=True)[1]
        yield twice_j, nb, down, twice_m, np.argsort(twice_mz, kind="stable"), dims


@lru_cache(maxsize=None)
def _estimated_bytes(nuclei: int, channel: bool) -> int:
    """Bytes a dephasing call needs at N, counted from the block sizes: 128
    per block entry (plan, drives and exponentials; 60 to 100 measured at
    N = 1 to 4) and, for the ``channel``, 1 KiB per Kraus operator.  Raises
    :class:`DimensionOverflow` as soon as the count exceeds ``MEMORY_BUDGET``."""
    total = 0
    for _, nb, _, _, _, dims in _triples(nuclei):
        total += 128 * int(dims @ dims) + channel * 1024 * nb * nb
        if total > MEMORY_BUDGET:
            msg = f"N = {nuclei} needs an estimated {total} bytes or more"
            raise DimensionOverflow(f"{msg}, over the {MEMORY_BUDGET}-byte memory budget")
    return total


@lru_cache(maxsize=None)
def _multiplet_plan(nuclei: int) -> _MultipletPlan:
    """Block structure of the unit contact term and of the unit XY arms; it
    depends on N alone.

    With one coupling for every nucleus, ``sum_k S^(l) . I^(l,k) =
    S^(l) . J^(l)`` with ``J^(l)`` the total spin of electron ``l``'s
    nuclei, so each electron's bath splits into spin-j multiplets, ``m_N(j)``
    copies each.  The contact term acts identically on the
    ``m_t = m(j_a) m(j_1) m(j_2)`` copies of each multiplet triple
    ``t = (j_a, j_1, j_2)`` (:func:`_triples`) and conserves the total S_z
    inside it; the blocks are built from the ladder elements
    ``sqrt(j(j+1) - m(m+1))``.

    Pairing: the pi rotation about y of every spin commutes with the contact
    term and with the XY arms, and maps state ``(c, k)`` of a triple (``k``
    the multiplet indices, 0 for m = j) to ``(7 - c, 2j - k)``, that is
    state ``x`` to ``8 n_b - 1 - x``, with the sign
    ``(-1)^(popcount(c) + sum k)``.  That sign is constant on an S_z block,
    so it cancels: listing each ``S_z < 0`` block's states as the images
    of its ``S_z > 0`` partner's makes its blocks equal to the partner's,
    entry by entry, and so is its propagator.  At odd N the ``S_z = 0``
    blocks map onto themselves.
    """
    unit_arms = [h.real for h in arm_hamiltonians(ExchangeCouplings(1.0, 1.0))]
    by_dim = defaultdict(lambda: ([], []))  # per d: the S_z >= 0 blocks, the S_z < 0 ones
    weight = []
    for twice_j, nb, down, twice_m, order, dims in _triples(nuclei):
        strides = (nb // (twice_j[0] + 1), twice_j[2] + 1, 1)
        offset = len(weight)
        blocks = np.split(order, np.cumsum(dims)[:-1])  # by S_z, symmetric about 0
        lower = len(blocks) // 2
        for i in range(lower):
            blocks[i] = 8 * nb - 1 - blocks[-1 - i]
        position = np.empty(8 * nb, dtype=np.intp)
        for states in blocks:
            position[states] = np.arange(len(states))
        index = {}
        for i in (*range(lower, len(blocks)), *range(lower)):
            states = blocks[i]
            contact = np.diag(np.sum((1 - 2 * down[states]) * twice_m[states], axis=1) / 4.0)
            for l, (tj, stride) in enumerate(zip(twice_j, strides)):
                # S^- J^+ / 2: electron l up -> down, its multiplet m -> m + 1.
                up = states[(down[states, l] == 0) & (twice_m[states, l] < tj)]
                tm = twice_m[up, l]
                rows = position[up + (4 >> l) * nb - stride]
                cols = position[up]
                contact[rows, cols] = contact[cols, rows] = 0.25 * np.sqrt(
                    (tj - tm) * (tj + tm + 2)
                )
            c, mu = np.divmod(states, nb)
            same = mu[:, None] == mu[None, :]
            arms = [np.where(same, arm[c[:, None], c[None, :]], 0.0) for arm in unit_arms]
            parts = (contact / nuclei, arms, c, mu, offset + mu[:, None] * nb + mu[None, :])
            upper, mirrored = by_dim[len(states)]
            if i >= lower:
                index[i] = len(upper)
                upper.append(parts)
            else:
                mirrored.append((parts, index[len(blocks) - 1 - i]))
        weight += [math.prod(_multiplicity(nuclei, tj) for tj in twice_j)] * nb * nb

    groups = []
    for _, (upper, mirrored) in sorted(by_dim.items()):
        stacked = upper + [parts for parts, _ in mirrored]
        contact, arms, chain, bath, pair = (np.stack(part) for part in zip(*stacked))
        partner = np.array([index for _, index in mirrored], dtype=np.intp)
        inside = chain < 4
        register = np.flatnonzero(inside[:, :, None] & inside[:, None, :])
        target = (4 * chain[:, :, None] + chain[:, None, :]).ravel()[register]
        arms = np.ascontiguousarray(np.swapaxes(arms, 0, 1))
        groups.append(_Blocks(contact, arms, chain, bath, pair, register, target, partner))
    plan = _MultipletPlan(groups=tuple(groups), weight=np.array(weight))
    for group in plan.groups:
        for array in vars(group).values():
            array.setflags(write=False)
    plan.weight.setflags(write=False)
    return plan


def _pulse_blocks(
    bath: HyperfineBath, couplings: ExchangeCouplings, channel: bool
) -> tuple[_MultipletPlan, list[np.ndarray]]:
    """The plan for ``bath``'s N and, per block group, the real drive blocks
    of its ``S_z >= 0`` blocks in the DM-free gauge.

    The drive is ``amplitude * H0 (x) 1_bath`` for the square pulse
    calibrated cyclic over ``bath.op_time``.  With the chain phases
    ``D(c) = exp(i (phi1 b1(c) - phi2 b2(c)))``, ``b1``, ``b2`` the bits of
    sites 1 and 2, ``H0 = D^dag H_xy D`` with ``H_xy`` the XY chain of the
    couplings ``2 |alpha_k|``, and the matching z rotation of the nuclei
    leaves the contact term unchanged.  The drive blocks in that gauge are
    ``a1 X1 + a2 X2`` with ``a_k = 2 |alpha_k| * amplitude`` and ``X_k`` the
    plan's real unit arm blocks.  With the static bath the generator
    ``drive + A * contact`` is constant over the pulse.

    Raises
    ------
    ValueError
        If a coupling is not finite.
    DimensionOverflow
        If N's estimated bytes, Kraus stack too if ``channel``, exceed the budget.
    """
    values = (couplings.j1, couplings.j2, couplings.d1, couplings.d2)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"exchange couplings must be finite, got {values}")
    _estimated_bytes(bath.nuclei_per_electron, channel)  # refuses an N over the budget
    amplitude = math.pi / (bath.op_time * couplings_to_polar(couplings).omega)
    a1, a2 = (2 * abs(alpha) * amplitude for alpha in (couplings.alpha1, couplings.alpha2))
    plan = _multiplet_plan(bath.nuclei_per_electron)
    drives = []
    for g in plan.groups:
        upper = len(g.contact) - len(g.partner)
        drives.append(a1 * g.arms[0, :upper] + a2 * g.arms[1, :upper])
    return plan, drives


def _block_propagators(
    plan: _MultipletPlan, drives: list[np.ndarray], total_coupling: float, op_time: float
):
    """Each group with the ``(G, d, d)`` propagators of its blocks in the
    DM-free gauge at coupling A: one real exponential per ``S_z >= 0``
    block, and each ``S_z < 0`` block a copy of its partner's."""
    for g, drive in zip(plan.groups, drives):
        upper = expm_hermitian(drive + total_coupling * g.contact[: len(drive)], op_time)
        yield g, np.concatenate([upper, upper[g.partner]])


def hyperfine_channel(bath: HyperfineBath, couplings: ExchangeCouplings) -> QuantumChannel:
    """Operator-sum representation of one gate pulse under the bath.

    The chain-plus-bath evolves under
    ``envelope(t) * H0 (x) 1_bath + H_hyperfine`` for the square pulse
    calibrated cyclic over ``bath.op_time``; the bath starts maximally
    mixed (unpolarized nuclei).  The evolution is ``U_t`` on each of the
    ``m_t`` copies of multiplet triple ``t`` (one exponential per S_z
    block), so tracing the bath out leaves one Kraus operator
    ``sqrt(m_t / d_b) <c', mu'|U_t|c, mu>`` per bath pair ``(mu', mu)``
    of each triple: 1,000 at N = 2.  This is the same map as the
    ``d_b**2`` operators ``<j|U|i> / sqrt(d_b)`` over bath basis states.

    The blocks are exponentiated in the DM-free real gauge and paired by
    the pi rotation (:func:`_pulse_blocks`, :func:`_multiplet_plan`), and
    each block is taken back through the chain phases,
    ``conj(D(c')) U D(c)``, before it is scattered.  The bath's gauge
    phases are left out: they multiply each Kraus operator by a phase of
    its own, which does not change the channel.

    Raises
    ------
    ValueError
        If a coupling is not finite, before any exponential.
    DimensionOverflow
        If N's estimated bytes exceed ``MEMORY_BUDGET`` (N >= 7), before any plan.
    """
    plan, drives = _pulse_blocks(bath, couplings, True)
    polar = couplings_to_polar(couplings)
    chain = np.arange(8)
    phases = np.exp(1j * (polar.phi1 * ((chain >> 1) & 1) - polar.phi2 * (chain & 1)))
    scale = np.sqrt(plan.weight / bath.bath_dim)
    kraus = np.zeros((len(plan.weight), 8, 8), dtype=np.complex128)
    for g, u in _block_propagators(plan, drives, bath.total_coupling, bath.op_time):
        d = phases[g.chain]
        u *= d.conj()[:, :, None] * d[:, None, :]
        kraus[g.pair, g.chain[:, :, None], g.chain[:, None, :]] = scale[g.pair] * u
    return QuantumChannel(kraus=kraus)


def dephasing_sweep(
    bath_template: HyperfineBath, lambdas, couplings: ExchangeCouplings
) -> SweepTable:
    """Fidelity versus the decoherence-to-operation time ratio.

    ``lambda`` is swept by varying the total coupling A at fixed
    ``op_time`` so the pulse calibration never changes.  Requires
    couplings at the maximally entangling point theta = pi/4.

    Each point exponentiates ``drive + A * contact`` once per S_z block of
    the multiplet triples (one stacked call per block dimension; at most
    48 states at N = 2 and 92 at N = 3) and contracts the process fidelity
    directly from the ancilla-|0> entries of the blocks,

        O_t[mu', mu] = sum_{s,s'} conj(V[s, s']) <s, mu'|U_t|s', mu>,
        F = sum_t m_t ||O_t||^2 / (16 d_b),

    without forming U or the Kraus operators.  The Frobenius norm does not
    depend on the bath basis, so this is the fidelity of the bit-basis
    Kraus family ``<j|U|i> / sqrt(d_b)``.

    The blocks are real in the DM-free gauge of :func:`_pulse_blocks`, and
    only the ``S_z >= 0`` blocks are exponentiated: each ``S_z < 0`` block
    is its partner's under the pi rotation (:func:`_multiplet_plan`).  The
    gauge turns the target into ``analytic_entangler(theta, 0, 0)`` and
    each ``O_t`` into the same matrix up to phases of its rows and columns,
    which leave F unchanged, so the sweep contracts against that target.

    Raises
    ------
    ValueError
        If theta is not pi/4, a lambda is not positive or a coupling is
        not finite, before any exponential.
    DimensionOverflow
        If N's estimated bytes exceed ``MEMORY_BUDGET`` (N >= 7), before any plan.
    """
    polar = couplings_to_polar(couplings)
    if not abs(polar.theta - math.pi / 4) <= 1e-9:
        raise ValueError(
            f"dephasing_sweep requires theta = pi/4 couplings, got theta = {polar.theta!r}"
        )
    target = analytic_entangler(polar.theta).matrix
    lambdas = tuple(float(x) for x in lambdas)
    n = bath_template.nuclei_per_electron
    tau = bath_template.op_time
    # Only the overall bath coupling A = N / (lambda * tau) varies with
    # lambda; every lambda is checked before any work starts.
    totals = [HyperfineBath.from_ratio(lam, tau, n).total_coupling for lam in lambdas]
    plan, drives = _pulse_blocks(bath_template, couplings, False)
    pairs = np.concatenate([g.pair.ravel()[g.register] for g in plan.groups])
    weights = np.concatenate([target.conj().ravel()[g.target] for g in plan.groups])
    size = len(plan.weight)

    values = []
    for a_total in totals:
        entries = weights * np.concatenate(
            [u.reshape(-1)[g.register] for g, u in _block_propagators(plan, drives, a_total, tau)]
        )
        overlap = np.bincount(pairs, entries.real, size) + 1j * np.bincount(
            pairs, entries.imag, size
        )
        norms = plan.weight @ (overlap.real**2 + overlap.imag**2)
        values.append(float(norms / (16.0 * bath_template.bath_dim)))
    return SweepTable(
        axis_names=("lambda",),
        axis_values=(lambdas,),
        fidelity=np.array(values),
    )


__all__ = [
    "HyperfineBath",
    "QuantumChannel",
    "SweepTable",
    "process_fidelity",
    "dm_sweep",
    "amplitude_noise_sweep",
    "hyperfine_channel",
    "dephasing_sweep",
    "DEFAULT_STEPS",
    "MEMORY_BUDGET",
]
