"""Pulse envelopes, pulse areas, cyclicity, and the full chain propagator.

The chain is driven by a common scalar envelope, ``H(t) = envelope(t) * H0``,
so the propagator depends on time only through the accumulated pulse area
``a_t = integral_0^t envelope(s) ds``.  Two independent evaluation routes are
provided:

* :func:`propagator_closed_form` assembles the 8x8 unitary from the
  closed-form SVD factors of the exchange matrix;
* :func:`propagator_time_ordered` is a brute-force midpoint-rule product of
  per-step exponentials that also handles several independently enveloped
  Hamiltonian parts (needed for noise studies, where the parts do not
  commute).

A square pulse of amplitude ``Omega`` and duration ``tau`` realizes the gate
when the cyclicity condition ``a_tau * omega = (2n + 1) * pi`` holds; only
odd multiples are produced by :func:`solve_cyclic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonCyclicPulse, OutOfRange, ZeroCoupling
from .linalg import CMatrix, dagger, expm_hermitian, kron
from .spin_chain import HamiltonianSet

#: Standard deviation of the gaussian envelope as a fraction of the duration.
#: Narrow enough that the clipped tails are negligible at double precision.
GAUSSIAN_WIDTH_FRACTION = 1.0 / 8.0

PULSE_SHAPES = ("square", "gaussian", "tabulated")

#: Largest cyclicity defect accepted before a pulse drives a gate.
CYCLIC_TOL = 1e-9


@dataclass(frozen=True)
class PulsePlan:
    """An envelope shape with amplitude, duration and winding number.

    ``amplitude`` is the constant value for a square pulse and the peak for
    a gaussian; tabulated shapes carry explicit ``samples`` of (time, value)
    pairs that are linearly interpolated.  ``winding`` records the integer n
    of the cyclicity condition the plan was solved for (0 when the plan was
    built directly).  Durations must be positive and every number finite.
    """

    shape: str
    amplitude: float
    duration: float
    winding: int = 0
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.shape == "tabulated":
            if not self.samples or len(self.samples) < 2:
                raise ValueError("tabulated pulse needs at least two samples")
            if not all(math.isfinite(x) for sample in self.samples for x in sample):
                raise ValueError(f"tabulated samples must be finite, got {self.samples!r}")
            times = [t for t, _ in self.samples]
            if sorted(times) != times:
                raise ValueError("tabulated sample times must be increasing")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"pulse amplitude must be finite, got {self.amplitude!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(
                f"pulse duration must be positive and finite, got {self.duration!r}"
            )

    def envelope(self, t: float) -> float:
        """Instantaneous envelope value at time ``t``."""
        if self.shape == "square":
            return self.amplitude
        if self.shape == "gaussian":
            sigma = GAUSSIAN_WIDTH_FRACTION * self.duration
            x = (t - 0.5 * self.duration) / sigma
            return self.amplitude * math.exp(-0.5 * x * x)
        return float(np.interp(t, *zip(*self.samples)))


def square_pulse(amplitude: float, duration: float, winding: int = 0) -> PulsePlan:
    return PulsePlan("square", amplitude, duration, winding)


def gaussian_pulse(peak: float, duration: float, winding: int = 0) -> PulsePlan:
    return PulsePlan("gaussian", peak, duration, winding)


def tabulated_pulse(
    samples: Sequence[tuple[float, float]], winding: int = 0
) -> PulsePlan:
    samples = tuple((float(t), float(v)) for t, v in samples)
    peak = max(v for _, v in samples)
    return PulsePlan("tabulated", peak, samples[-1][0], winding, samples)


def pulse_area(p: PulsePlan, t: float) -> float:
    """Accumulated area ``integral_0^t envelope(s) ds``, in closed form.

    Gaussian: a difference of two ``math.erf`` values.  Tabulated: the
    trapezoid sum over the knots 0, the samples in ``(0, t]`` and ``t``,
    exact for the linear interpolant (a repeated sample time is a jump).

    Raises
    ------
    OutOfRange
        If ``t`` lies outside ``[0, duration]``.
    """
    if t < 0 or t > p.duration:
        raise OutOfRange(f"t={t!r} outside pulse window [0, {p.duration!r}]")
    if t == 0:
        return 0.0
    if p.shape == "square":
        return p.amplitude * t
    if p.shape == "gaussian":
        sigma = GAUSSIAN_WIDTH_FRACTION * p.duration
        half, scale = 0.5 * p.duration, sigma * math.sqrt(2.0)
        edges = math.erf((t - half) / scale) + math.erf(half / scale)
        return p.amplitude * sigma * math.sqrt(math.pi / 2) * edges
    knots = [(0.0, p.envelope(0.0))] + [(s, v) for s, v in p.samples if 0 < s <= t]
    if knots[-1][0] < t:
        knots.append((t, p.envelope(t)))
    pairs = zip(knots, knots[1:])
    return math.fsum(0.5 * (s1 - s0) * (v0 + v1) for (s0, v0), (s1, v1) in pairs)


def scaled_to_area(p: PulsePlan, area: float) -> PulsePlan:
    """Rescale the envelope values so the total area equals ``area``."""
    current = pulse_area(p, p.duration)
    if current <= 0:
        raise ValueError("cannot rescale a pulse with non-positive area")
    factor = area / current
    samples = tuple((t, v * factor) for t, v in p.samples) if p.samples else None
    return PulsePlan(p.shape, p.amplitude * factor, p.duration, p.winding, samples)


def solve_cyclic(omega: float, amplitude: float, winding: int = 0) -> PulsePlan:
    """Square pulse whose area satisfies ``a_tau * omega = (2n + 1) * pi``.

    Raises
    ------
    ZeroCoupling
        If ``omega`` is not positive (NaN included).
    """
    if not omega > 0:
        raise ZeroCoupling(f"cyclic pulse needs omega > 0, got {omega!r}")
    if not amplitude > 0:
        raise ValueError(f"pulse amplitude must be positive, got {amplitude!r}")
    if winding < 0:
        raise ValueError("winding must be a non-negative integer")
    duration = (2 * winding + 1) * math.pi / (amplitude * omega)
    return square_pulse(amplitude, duration, winding)


def cyclicity_defect(p: PulsePlan, omega: float) -> float:
    """Distance of ``a_tau * omega`` from the nearest odd multiple of pi."""
    phase = pulse_area(p, p.duration) * omega / math.pi
    k = 2 * max(round((phase - 1) / 2), 0) + 1
    return abs(phase - k) * math.pi


def _require_cyclic(p: PulsePlan, omega: float):
    """Raise :class:`NonCyclicPulse` unless ``p`` is cyclic for ``omega``."""
    defect = cyclicity_defect(p, omega)
    if not defect <= CYCLIC_TOL:
        raise NonCyclicPulse(
            f"pulse area times omega misses an odd multiple of pi by {defect:.3e}"
        )


def propagator_closed_form(h: HamiltonianSet, area: float) -> CMatrix:
    """The 8x8 propagator at pulse area ``area`` from the factored form.

    Assembled as the double sum over ancilla blocks
    ``sum_{k,l} i^|k-l| |l><k| (x) V_l cos(a T + |k-l| pi/2) dagger(V_k)``,
    which equals ``exp(-1j * area * h_eff)`` because the instantaneous
    Hamiltonian commutes with itself at all times.
    """
    t = np.asarray(h.t_diag, dtype=float)
    factors = (h.v0, h.v1)
    u = np.zeros((8, 8), dtype=np.complex128)
    for k in range(2):
        for l in range(2):
            unit = np.zeros((2, 2), dtype=np.complex128)
            unit[l, k] = 1.0
            phases = np.cos(area * t + abs(k - l) * math.pi / 2)
            block = factors[l] @ np.diag(phases).astype(np.complex128) @ dagger(factors[k])
            u += (1j) ** abs(k - l) * kron(unit, block)
    return u


Envelope = Callable[[float], float]


def _midpoint_samples(envelopes: Sequence[Envelope], duration: float, steps: int):
    """Step width ``dt`` and the ``(steps, len(envelopes))`` midpoint samples."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = duration / steps
    return dt, np.array(
        [[float(env((i + 0.5) * dt)) for env in envelopes] for i in range(steps)]
    )


def _ordered_product(
    matrices: Sequence[CMatrix], coefficients: np.ndarray, dt: float
) -> np.ndarray:
    """Time-ordered step products for a batch, shape ``(batch, d, d)``.

    Step ``i`` of member ``b`` exponentiates
    ``sum_p coefficients[i, b, p] * matrices[p]`` over ``dt``; each step
    exponentiates the whole batch in one stacked call.  Consecutive steps
    whose ``(batch, parts)`` coefficients are all equal share one step
    matrix, applied by binary exponentiation.
    """
    steps, batch, _ = coefficients.shape
    dim = matrices[0].shape[0] if len(matrices) else 1
    u = np.broadcast_to(np.eye(dim, dtype=np.complex128), (batch, dim, dim))
    i = 0
    while i < steps:
        j = i
        while j + 1 < steps and np.array_equal(coefficients[j + 1], coefficients[i]):
            j += 1
        h_inst = np.zeros((batch, dim, dim), dtype=np.complex128)
        for m, c in zip(matrices, coefficients[i].T):
            h_inst += c[:, None, None] * m
        step_u = expm_hermitian(h_inst, dt)
        run = j - i + 1
        u = (step_u if run == 1 else np.linalg.matrix_power(step_u, run)) @ u
        i = j + 1
    return u


def propagator_time_ordered(
    h_parts: Sequence[tuple[CMatrix, Envelope]],
    duration: float,
    steps: int = 200,
) -> CMatrix:
    """Midpoint-rule time-ordered product of per-step exponentials.

    Each step exponentiates the instantaneous Hamiltonian
    ``sum_p envelope_p(t_mid) * h_p`` sampled at the step midpoint; the
    step unitaries are multiplied in time order.  Each envelope is sampled
    once per step.  Consecutive steps whose envelope samples coincide
    (square pulses, resolved plateaus) share one step matrix and are
    applied by binary exponentiation, which evaluates the same ordered
    product.
    """
    dt, values = _midpoint_samples([env for _, env in h_parts], duration, steps)
    matrices = [np.asarray(m, dtype=np.complex128) for m, _ in h_parts]
    return _ordered_product(matrices, values[:, None, :], dt)[0]


__all__ = [
    "PulsePlan",
    "PULSE_SHAPES",
    "GAUSSIAN_WIDTH_FRACTION",
    "square_pulse",
    "gaussian_pulse",
    "tabulated_pulse",
    "pulse_area",
    "scaled_to_area",
    "solve_cyclic",
    "cyclicity_defect",
    "propagator_closed_form",
    "propagator_time_ordered",
]
