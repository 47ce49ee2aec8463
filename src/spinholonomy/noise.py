"""Robustness studies: fidelity metric and the three noise families.

The target in every study is the register gate that the calibrated pulse
would realize on the clean chain.  Fidelity is the process fidelity

    F = sum_k |tr(V^dag M_k)|^2 / d^2,        d = 4,

over the Kraus operators restricted to the ancilla-|0> register block; for
a plain (possibly leaky) gate this is ``|tr(V^dag M)|^2 / 16``, which
:func:`process_fidelity` evaluates, and the dephasing sweep contracts the
sum over its Kraus family without forming it.  F is basis independent,
removes global phases, penalizes leakage automatically, and reduces to 1
exactly when the realized operation equals the target; it is not clipped,
so rounding may put it a few ulp above 1.
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

The dephasing routes work at the maximally entangling point theta = pi/4,
where both arms are driven equally and F depends on N and lambda alone;
the couplings and the time unit are checked but do not enter the
arithmetic.  The dephasing generator is constant over the square pulse.
The coupling is the same for every nucleus, so each electron's nuclei
enter only through their total spin: the bath splits into multiplet
triples, each repeated ``m_t`` times, and total S_z is conserved inside
each triple.  One pulse is therefore exactly one exponential per S_z block
of the triples, and the dephasing sweep and the Kraus channel share one
plan of those blocks; see :func:`dephasing_sweep` and
:func:`hyperfine_channel`, which refuse an N whose memory, counted from
its block sizes, exceeds the budget.  Three symmetries cut that work.  The
z-axis DM term is a gauge on the chain (Shekhtman, Entin-Wohlman &
Aharony, PRL 69, 836 (1992)): phases on the chain states, with the
matching rotation of the nuclei, make every block real symmetric.  The pi
rotation of every spin maps the S_z = M block onto the -M block, and
electron exchange maps each triple onto the one with the two electrons'
multiplets swapped; a block that either maps onto itself splits into an
even and an odd half (:func:`_multiplet_plan`).  The halves are padded to
the sizes of ``SIZE_CLASSES``, one stacked real exponential per size.
"""

from __future__ import annotations

import itertools
import math
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

#: The padded sizes of the dephasing block halves, a x1.5 ladder from 8 to
#: 308: each half is exponentiated in the smallest size that holds it, and
#: 308 holds every block of an N that the memory budget admits.
SIZE_CLASSES = tuple(math.ceil(8 * 1.5**k) for k in range(10))

#: The drive phase ``a tau`` of each arm at theta = pi/4, over the square
#: pulse calibrated cyclic: ``2 |alpha| (pi / omega)`` with
#: ``|alpha| = omega / sqrt(2)``.
_DRIVE_PHASE = math.sqrt(2) * math.pi


@dataclass(frozen=True)
class HyperfineBath:
    """Homogeneously coupled spin-1/2 nuclear bath, N nuclei per electron.

    ``total_coupling`` is A; every per-nucleus constant is A/N.  The bath
    Hilbert space has dimension 2**(3N) -- 64 for the default N = 2, giving
    a 512-dimensional chain-plus-bath space, which the dephasing routes never
    form: they work on halves of its S_z blocks and refuse an N whose
    estimated memory exceeds ``MEMORY_BUDGET`` (N >= 7).  ``op_time`` is
    only the time unit: it is checked, but the gate's dephasing depends on
    N and lambda alone, and the sweep's arithmetic never reads tau.  N must
    be an ``int`` >= 1.
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


def process_fidelity(target: RegisterGate, actual: RegisterGate) -> float:
    """Process fidelity ``|tr(V^dag M)|^2 / 16`` of a realized register gate
    against a unitary target.

    The value is not clipped: when the operation equals the target up to
    rounding it may exceed 1 by a few ulp.

    Raises
    ------
    NonUnitaryTarget
        If the target gate is leaky or non-unitary.
    """
    _require_unitary_target(target)
    overlap = np.einsum("sp,sp->", target.matrix.conj(), actual.matrix)
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
    once and the grid is stepped as one stack by ``star_product``, the
    midpoint-rule product with each step in closed form.
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
    dt, envelope = _midpoint_samples(pulse, steps)
    u = star_product(b1, b2, envelope[:, None, None] + grid_offsets, dt)
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
class _SizeClass:
    """The block halves of one padded size ``s``, stacked: G of them, each
    zero-padded from its own ``size``.  A pad row and column leave a half's
    exponential block diagonal, an identity on the pad, which no gather
    reads."""

    drive: np.ndarray  # (G, s, s): sqrt(2) pi (X1 + X2) on each half
    contact: np.ndarray  # (G, s, s): the unit contact term on each half
    size: np.ndarray  # (G,)
    copies: np.ndarray  # (G,): chain-plus-bath copies of each half's spectrum


@dataclass(frozen=True, eq=False)
class _MultipletPlan:
    """The halves in their size classes, and how each block entry is
    gathered from their propagators, raveled and concatenated into one flat
    array.

    The states of every triple are numbered triple after triple, in the
    order of :func:`_triples`.  State ``x`` has one component per half of
    the block that it or its representative lies in (at most two), and
    entry ``<x'|U|x>`` of a block is the sum over the components ``k`` that
    both states have of ``+-sqrt|share[x', k] share[x, k]| * flat[row[x', k]
    + col[x, k]]``, the sign that of the product.  ``index``, ``pair`` and
    ``coef`` are that gather for the sweep, weighed by the target:
    ``O[pair] = sum coef * flat[index]`` over the ancilla-|0> entries of the
    kept triples, and ``weight`` is each of their bath pairs' ``m_t``,
    doubled where the triple also stands for its exchange image.
    """

    classes: tuple[_SizeClass, ...]
    row: np.ndarray  # (S, 2)
    col: np.ndarray  # (S, 2)
    share: np.ndarray  # (S, 2): 1, +-1/2, or 0 where a state has no component
    index: np.ndarray
    pair: np.ndarray
    coef: np.ndarray
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
    per block entry (plan, padded halves and exponentials; 26 to 91 traced
    at N = 1 to 4) and, for the ``channel``, 1 KiB per Kraus operator.  Raises
    :class:`DimensionOverflow` as soon as the count exceeds ``MEMORY_BUDGET``."""
    total = 0
    for _, nb, _, _, _, dims in _triples(nuclei):
        total += 128 * int(dims @ dims) + channel * 1024 * nb * nb
        if total > MEMORY_BUDGET:
            msg = f"N = {nuclei} needs an estimated {total} bytes or more"
            raise DimensionOverflow(f"{msg}, over the {MEMORY_BUDGET}-byte memory budget")
    return total


def _exchange_image(triple) -> np.ndarray:
    """Electron exchange on the states of triple ``(j_a, j_1, j_2)``: the
    number of each state's image in triple ``(j_a, j_2, j_1)``, chain bits
    1 and 2 swapped and the multiplet indices of electrons 1 and 2 with
    them."""
    twice_j, nb = triple[0], triple[1]
    chain, mu = np.divmod(np.arange(8 * nb), nb)
    sizes = tuple(tj + 1 for tj in twice_j)
    ka, k1, k2 = np.unravel_index(mu, sizes)
    swapped = (chain & 4) | ((chain & 1) << 1) | ((chain >> 1) & 1)
    return swapped * nb + np.ravel_multi_index((ka, k2, k1), (sizes[0], sizes[2], sizes[1]))


def _block_generators(nuclei: int, triple, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit drive ``X1 + X2`` and the unit contact term
    ``(1/N) sum_l S^(l) . J^(l)`` on ``states`` of one triple of
    :func:`_triples`, in that order: real symmetric ``(d, d)`` each.

    The contact blocks are built from the ladder elements
    ``sqrt(j(j+1) - m(m+1))``; ``X1``, ``X2`` are the unit XY arms, which
    the DM-free gauge of :func:`dephasing_sweep` leaves real.
    """
    twice_j, nb, down, twice_m = triple[:4]
    strides = (nb // (twice_j[0] + 1), twice_j[2] + 1, 1)
    position = np.empty(8 * nb, dtype=np.intp)
    position[states] = np.arange(len(states))
    contact = np.diag(np.sum((1 - 2 * down[states]) * twice_m[states], axis=1) / 4.0)
    for l, (tj, stride) in enumerate(zip(twice_j, strides)):
        # S^- J^+ / 2: electron l up -> down, its multiplet m -> m + 1.
        up = states[(down[states, l] == 0) & (twice_m[states, l] < tj)]
        tm = twice_m[up, l]
        rows = position[up + (4 >> l) * nb - stride]
        cols = position[up]
        contact[rows, cols] = contact[cols, rows] = 0.25 * np.sqrt((tj - tm) * (tj + tm + 2))
    unit = build_hamiltonians(ExchangeCouplings(1.0, 1.0)).h_eff.real
    c, mu = np.divmod(states, nb)
    drive = np.where(mu[:, None] == mu[None, :], unit[c[:, None], c[None, :]], 0.0)
    return drive, contact / nuclei


def _halves(image: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The halves of a block under an involution that commutes with its
    generator, ``image[i]`` the position of state ``i``'s image (the
    identity leaves one half, the block).  Per nonempty half, each state's
    position in it and its share, the signed square of its coefficient: a
    fixed state is an even member (share 1), and a pair ``x``, ``Px`` gives
    the even member ``(x + Px)/sqrt 2`` and the odd member
    ``(x - Px)/sqrt 2`` (shares 1/2, and 1/2 for ``x``, -1/2 for ``Px``)."""
    own = np.arange(len(image))
    first = np.minimum(own, image)
    even = (np.cumsum(own <= image) - 1)[first], np.where(own == image, 1.0, 0.5)
    odd = (np.cumsum(own < image) - 1)[first], np.sign(image - own) * 0.5
    return [even, odd] if np.any(own < image) else [even]


def _entry_terms(row, col, share, rows: np.ndarray, cols: np.ndarray, k: int):
    """Component ``k`` of the entries ``<rows|U|cols>`` (state numbers of
    one block): the mask of the entries that have it, and their flat
    positions and coefficients (:class:`_MultipletPlan`)."""
    part = share[rows, k][:, None] * share[cols, k][None, :]
    keep = part != 0
    position = (row[rows, k][:, None] + col[cols, k][None, :])[keep]
    return keep, position, np.copysign(np.sqrt(np.abs(part[keep])), part[keep])


@lru_cache(maxsize=None)
def _multiplet_plan(nuclei: int) -> _MultipletPlan:
    """The exponentiated halves and the gathers from them; they depend on
    N alone.

    With one coupling for every nucleus, ``sum_k S^(l) . I^(l,k) =
    S^(l) . J^(l)`` with ``J^(l)`` the total spin of electron ``l``'s
    nuclei, so each electron's bath splits into spin-j multiplets, ``m_N(j)``
    copies each.  The contact term acts identically on the
    ``m_t = m(j_a) m(j_1) m(j_2)`` copies of each multiplet triple
    ``t = (j_a, j_1, j_2)`` (:func:`_triples`) and conserves the total S_z
    inside it.  Three symmetries of the generator at theta = pi/4 cut what
    is exponentiated:

    * The pi rotation about y of every spin maps state ``(c, k)`` of a
      triple (``k`` the multiplet indices, 0 for m = j) to
      ``(7 - c, 2j - k)``, that is state ``x`` to ``8 n_b - 1 - x``, with
      the sign ``(-1)^(popcount(c) + sum k)``.  That sign is constant on an
      S_z block, so it cancels: each ``S_z < 0`` entry equals the entry
      between the images in the ``S_z > 0`` partner, and only the
      ``S_z >= 0`` blocks are built.
    * Electron exchange P (:func:`_exchange_image`) maps triple
      ``(j_a, j_1, j_2)`` onto ``(j_a, j_2, j_1)`` entry by entry, with
      equal arms: the triples with ``j_1 > j_2`` read their images, and the
      sweep weighs the images twice, since the target is exchange
      symmetric but for its entries ``+-cos(2 theta)``, 6e-17 at the
      double nearest pi/4 (zeroing them leaves the default sweep's F
      unchanged, bit for bit, at N = 1 to 4).
    * P maps a ``j_1 = j_2`` triple onto itself, and at odd N the pi
      rotation maps each ``S_z = 0`` block onto itself: such a block splits
      into the even and odd halves of its involution (:func:`_halves`), P
      where it applies.

    Each half is zero-padded to the smallest size of ``SIZE_CLASSES`` that
    holds it, and the halves of one size are stacked.
    """
    triples = list(_triples(nuclei))
    starts = np.cumsum([0] + [8 * triple[1] for triple in triples])
    number = {triple[0]: t for t, triple in enumerate(triples)}
    # The kept triples, j_1 <= j_2, each with its m_t, doubled where it
    # also stands for its exchange image.
    kept = {
        t: math.prod(_multiplicity(nuclei, tj) for tj in twice_j) * (1 + (twice_j[1] < twice_j[2]))
        for t, (twice_j, *_) in enumerate(triples)
        if twice_j[1] <= twice_j[2]
    }
    halves, members = [], []
    for t, copies in kept.items():
        triple = triples[t]
        twice_j, nb, _, _, order, dims = triple
        exchanged = twice_j[1] == twice_j[2]
        image = _exchange_image(triple) if exchanged else 8 * nb - 1 - np.arange(8 * nb)
        blocks = np.split(order, np.cumsum(dims)[:-1])  # by S_z, symmetric about 0
        position = np.empty(8 * nb, dtype=np.intp)
        for i in range(len(blocks) // 2, len(blocks)):
            states = blocks[i]
            position[states] = np.arange(len(states))
            mirrored = 2 * i + 1 == len(blocks)  # the S_z = 0 block
            split = position[image[states]] if exchanged or mirrored else np.arange(len(states))
            drive, contact = _block_generators(nuclei, triple, states)
            for k, (index, part) in enumerate(_halves(split)):
                has = part != 0
                q = np.zeros((len(states), index[has].max() + 1))
                q[has, index[has]] = np.sign(part[has]) * np.sqrt(np.abs(part[has]))
                halves.append((q.T @ drive @ q, q.T @ contact @ q, copies * (2 - mirrored)))
                members.append((starts[t] + states[has], k, index[has], part[has]))

    sizes = np.array([len(half[0]) for half in halves])
    ladder = np.searchsorted(SIZE_CLASSES, sizes)
    base = np.zeros(len(halves), dtype=np.intp)
    width = np.zeros(len(halves), dtype=np.intp)
    classes, flat = [], 0
    for c in sorted(set(ladder.tolist())):
        group = np.flatnonzero(ladder == c)
        s = SIZE_CLASSES[c]
        drive, contact = np.zeros((2, len(group), s, s))
        for g, h in enumerate(group):
            drive[g, : sizes[h], : sizes[h]], contact[g, : sizes[h], : sizes[h]] = halves[h][:2]
        base[group] = flat + s * s * np.arange(len(group))
        width[group] = s
        flat += s * s * len(group)
        copies = np.array([halves[h][2] for h in group])
        classes.append(_SizeClass(_DRIVE_PHASE * drive, contact, sizes[group], copies))

    row = np.zeros((starts[-1], 2), dtype=np.intp)
    col = np.zeros((starts[-1], 2), dtype=np.intp)
    share = np.zeros((starts[-1], 2))
    for h, (states, k, index, part) in enumerate(members):
        row[states, k] = base[h] + width[h] * index
        col[states, k] = index
        share[states, k] = part
    # The S_z < 0 states copy their images' components, then every state of
    # a dropped triple its exchange image's.
    moves = []
    for t in kept:
        nb, order, dims = triples[t][1], triples[t][4], triples[t][5]
        lower = order[: np.sum(dims[: len(dims) // 2])]
        moves.append((starts[t] + lower, starts[t] + 8 * nb - 1 - lower))
    for t, triple in enumerate(triples):
        if t not in kept:
            j_a, j_1, j_2 = triple[0]
            source = starts[number[j_a, j_2, j_1]] + _exchange_image(triple)
            moves.append((starts[t] + np.arange(8 * triple[1]), source))
    for states, source in moves:
        for table in (row, col, share):
            table[states] = table[source]

    # The sweep's gather: the ancilla-|0> entries (chain < 4) of every block
    # of the kept triples against the target, equal terms merged.
    target = analytic_entangler(math.pi / 4).matrix.real
    terms, weight = [], []
    for t, copies in kept.items():
        nb, order, dims = triples[t][1], triples[t][4], triples[t][5]
        for states in np.split(order, np.cumsum(dims)[:-1]):
            states = states[states < 4 * nb]
            c, mu = np.divmod(states, nb)
            v = target[c[:, None], c[None, :]]
            pair = len(weight) + mu[:, None] * nb + mu[None, :]
            for k in range(2):
                keep, position, coef = _entry_terms(row, col, share, *(starts[t] + states,) * 2, k)
                coef *= v[keep]
                terms.append((pair[keep] * flat + position, coef))
        weight += [copies] * nb * nb
    key, inverse = np.unique(np.concatenate([key for key, _ in terms]), return_inverse=True)
    coef = np.bincount(inverse, np.concatenate([coef for _, coef in terms]))
    pair, index = np.divmod(key[coef != 0], flat)
    plan = _MultipletPlan(
        tuple(classes), row, col, share, index, pair, coef[coef != 0], np.array(weight, float)
    )
    for array in (row, col, share, index, pair, plan.coef, plan.weight):
        array.setflags(write=False)
    for size_class in classes:
        for array in vars(size_class).values():
            array.setflags(write=False)
    return plan


def _half_propagators(plan: _MultipletPlan, phase: float) -> np.ndarray:
    """The flat propagators of every half at the bath phase ``A tau``: one
    real exponential of ``drive + phase * contact`` per size class."""
    return np.concatenate(
        [expm_hermitian(k.drive + phase * k.contact, 1.0).reshape(-1) for k in plan.classes]
    )


def _working_point(couplings: ExchangeCouplings, caller: str):
    """The polar couplings, refused with a ``ValueError`` naming the
    couplings unless they are finite, then naming theta unless theta is
    pi/4 within 1e-9."""
    values = (couplings.j1, couplings.j2, couplings.d1, couplings.d2)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"exchange couplings must be finite, got {values}")
    polar = couplings_to_polar(couplings)
    if not abs(polar.theta - math.pi / 4) <= 1e-9:
        raise ValueError(f"{caller} requires theta = pi/4 couplings, got theta = {polar.theta!r}")
    return polar


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

    The blocks are evaluated at the working point of
    :func:`dephasing_sweep`, at the bath phase ``A * op_time``: every entry
    is gathered from the same halves (:func:`_multiplet_plan`), and each
    block is taken back through the chain phases, ``conj(D(c')) U D(c)``,
    before it is scattered.  The bath's gauge phases are left out: they
    multiply each Kraus operator by a phase of its own, which does not
    change the channel.

    Raises
    ------
    ValueError
        If a coupling is not finite or theta is not pi/4 (the halves are
        exact only with equal arms), before any exponential.
    DimensionOverflow
        If N's estimated bytes exceed ``MEMORY_BUDGET`` (N >= 7), before any plan.
    """
    n = bath.nuclei_per_electron
    polar = _working_point(couplings, "hyperfine_channel")
    _estimated_bytes(n, True)
    plan = _multiplet_plan(n)
    flat = _half_propagators(plan, bath.total_coupling * bath.op_time)
    chain = np.arange(8)
    phases = np.exp(1j * (polar.phi1 * ((chain >> 1) & 1) - polar.phi2 * (chain & 1)))
    triples = list(_triples(n))
    kraus = np.zeros((sum(triple[1] ** 2 for triple in triples), 8, 8), dtype=np.complex128)
    start = offset = 0
    for twice_j, nb, _, _, order, dims in triples:
        scale = math.sqrt(math.prod(_multiplicity(n, tj) for tj in twice_j) / bath.bath_dim)
        for states in np.split(order, np.cumsum(dims)[:-1]):
            u = np.zeros((len(states), len(states)), dtype=np.complex128)
            for k in range(2):
                keep, position, coef = _entry_terms(
                    plan.row, plan.col, plan.share, *(start + states,) * 2, k
                )
                u[keep] += coef * flat[position]
            c, mu = np.divmod(states, nb)
            d = phases[c]
            u *= scale * d.conj()[:, None] * d[None, :]
            kraus[offset + mu[:, None] * nb + mu[None, :], c[:, None], c[None, :]] = u
        start += 8 * nb
        offset += nb * nb
    return QuantumChannel(kraus=kraus)


def dephasing_sweep(
    bath_template: HyperfineBath, lambdas, couplings: ExchangeCouplings
) -> SweepTable:
    """Fidelity versus the decoherence-to-operation time ratio.

    ``lambda`` is swept by varying the total coupling A at fixed
    ``op_time`` so the pulse calibration never changes.  Requires
    couplings at the maximally entangling point theta = pi/4.

    Working point: every point is evaluated at theta = pi/4, where both
    arms get the drive phase ``a tau = sqrt(2) pi`` of the square pulse
    calibrated cyclic, the bath phase is ``A tau = N / lambda``, and the
    target is ``analytic_entangler(pi/4)``.  The couplings' scale and DM
    angles and ``op_time`` are checked but drop out: F depends on N and
    lambda alone.  Couplings inside the 1e-9 guard on theta are evaluated
    at pi/4 too, which moves their F by O(1e-9) against their exact value.

    Each point exponentiates ``drive + (N / lambda) * contact`` once per
    size class of block halves (:func:`_multiplet_plan`; 4 stacked calls
    at N = 2) and contracts the process fidelity directly from the
    ancilla-|0> entries of the blocks,

        O_t[mu', mu] = sum_{s,s'} conj(V[s, s']) <s, mu'|U_t|s', mu>,
        F = sum_t m_t ||O_t||^2 / (16 d_b),

    each entry a gather of at most two terms of the halves' propagators,
    without forming U or the Kraus operators.  The Frobenius norm does not
    depend on the bath basis, so this is the fidelity of the bit-basis
    Kraus family ``<j|U|i> / sqrt(d_b)``.

    The blocks are real in the DM-free gauge: with the chain phases
    ``D(c) = exp(i (phi1 b1(c) - phi2 b2(c)))``, ``b1``, ``b2`` the bits of
    sites 1 and 2, ``H0 = D^dag H_xy D`` is the XY chain of the couplings
    ``2 |alpha_k|`` (Shekhtman, Entin-Wohlman & Aharony, PRL 69, 836
    (1992)), and the matching z rotation of the nuclei leaves the contact
    term unchanged.  The gauge turns the target into
    ``analytic_entangler(theta, 0, 0)`` and each ``O_t`` into the same
    matrix up to phases of its rows and columns, which leave F unchanged.

    Raises
    ------
    ValueError
        If a coupling is not finite, theta is not pi/4 or a lambda is not
        positive, before any exponential.
    DimensionOverflow
        If N's estimated bytes exceed ``MEMORY_BUDGET`` (N >= 7), before any plan.
    """
    _working_point(couplings, "dephasing_sweep")
    lambdas = tuple(float(x) for x in lambdas)
    n = bath_template.nuclei_per_electron
    for lam in lambdas:  # every lambda is checked before any work starts
        HyperfineBath.from_ratio(lam, bath_template.op_time, n)
    _estimated_bytes(n, False)
    plan = _multiplet_plan(n)
    size = len(plan.weight)

    values = []
    for lam in lambdas:
        entries = plan.coef * _half_propagators(plan, n / lam)[plan.index]
        overlap = np.bincount(plan.pair, entries.real, size) + 1j * np.bincount(
            plan.pair, entries.imag, size
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
