"""Pulse envelopes, pulse areas, cyclicity, and the full chain propagator.

The chain is driven by a common scalar envelope, ``H(t) = envelope(t) * H0``,
so the propagator depends on time only through the accumulated pulse area
``a_t = integral_0^t envelope(s) ds``.  Every chain generator conserves
total S_z and acts only on the two 3-state stars of ``spin_chain.STARS``,
where each step has an exact closed form; the star layout itself (which
chain states form a star, and how to read or embed star blocks) stays in
``spin_chain``.  Every propagator is built on that step:
:func:`propagator_closed_form` is one exact star step of width ``a_t``, and
:func:`star_product` is the midpoint-rule product of such steps for
independently enveloped arms, which need not commute, for a whole stack.
The tests keep the independent oracle, a midpoint-rule product of per-step
exponentials of any Hermitian parts.

A square pulse of amplitude ``Omega`` and duration ``tau`` realizes the gate
when the cyclicity condition ``a_tau * omega = (2n + 1) * pi`` holds; only
odd multiples are produced by :func:`solve_cyclic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonCyclicPulse, OutOfRange, ZeroCoupling
from .linalg import CMatrix
from .spin_chain import HamiltonianSet, _embed_stars, _star_couplings

#: Standard deviation of the gaussian envelope as a fraction of the duration.
#: Narrow enough that the clipped tails are negligible at double precision.
GAUSSIAN_WIDTH_FRACTION = 1.0 / 8.0

PULSE_SHAPES = ("square", "gaussian", "tabulated")

#: Largest cyclicity defect accepted before a pulse drives a gate.
CYCLIC_TOL = 1e-9


@dataclass(frozen=True)
class PulsePlan:
    """An envelope shape with amplitude and duration.

    ``amplitude`` is the constant value for a square pulse and the peak for
    a gaussian; tabulated shapes carry explicit ``samples`` of (time, value)
    pairs that are linearly interpolated.  Durations must be positive and
    every number finite, and a gaussian's width ``duration / 8`` nonzero.
    """

    shape: str
    amplitude: float
    duration: float
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
        if self.shape == "gaussian" and GAUSSIAN_WIDTH_FRACTION * self.duration == 0:
            msg = f"gaussian width duration / 8 rounds to 0 at duration {self.duration!r}"
            raise ValueError(msg)

    def envelope(self, t: float) -> float:
        """Instantaneous envelope value at time ``t``."""
        if self.shape == "square":
            return self.amplitude
        if self.shape == "gaussian":
            sigma = GAUSSIAN_WIDTH_FRACTION * self.duration
            x = (t - 0.5 * self.duration) / sigma
            return self.amplitude * math.exp(-0.5 * x * x)
        return float(np.interp(t, *zip(*self.samples)))


def square_pulse(amplitude: float, duration: float) -> PulsePlan:
    return PulsePlan("square", amplitude, duration)


def gaussian_pulse(peak: float, duration: float) -> PulsePlan:
    return PulsePlan("gaussian", peak, duration)


def tabulated_pulse(samples: Sequence[tuple[float, float]]) -> PulsePlan:
    samples = tuple((float(t), float(v)) for t, v in samples)
    if len(samples) < 2:
        raise ValueError("tabulated pulse needs at least two samples")
    peak = max(v for _, v in samples)
    return PulsePlan("tabulated", peak, samples[-1][0], samples)


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
    return PulsePlan(p.shape, p.amplitude * factor, p.duration, samples)


def solve_cyclic(omega: float, amplitude: float, winding: int = 0) -> PulsePlan:
    """Square pulse whose area satisfies ``a_tau * omega = (2n + 1) * pi``.

    Raises
    ------
    ZeroCoupling
        If ``omega`` is not positive (NaN included).
    ValueError
        If the duration ``(2n + 1) pi / (amplitude omega)`` is not a finite
        positive float (a huge winding, or a vanishing or huge product).
    """
    if not omega > 0:
        raise ZeroCoupling(f"cyclic pulse needs omega > 0, got {omega!r}")
    if not amplitude > 0:
        raise ValueError(f"pulse amplitude must be positive, got {amplitude!r}")
    if winding < 0:
        raise ValueError("winding must be a non-negative integer")
    try:
        duration = (2 * winding + 1) * math.pi / (amplitude * omega)
    except (OverflowError, ZeroDivisionError):  # a huge winding; amplitude * omega underflows
        duration = math.inf
    if not 0 < duration < math.inf:
        raise ValueError(
            f"cyclic pulse duration (2n+1)*pi/(amplitude*omega) is not a finite "
            f"positive float for omega={omega!r}, amplitude={amplitude!r}, "
            f"winding={winding!r}"
        )
    return square_pulse(amplitude, duration)


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


def _star_step(b: np.ndarray, w: float) -> np.ndarray:
    """Exact ``exp(-1j * w * [[0, b^dag], [b, 0]])``, center first.

    ``b`` holds the two leaf couplings along its first axis, shape ``(2,
    ...)``; the step has shape ``(3, 3, ...)``, entries leading.  With
    ``r = |b|`` it is, also at ``r = 0``, ``[[cos rw, -i w sinc(rw/pi)
    b^dag], [-i w sinc(rw/pi) b, 1 - (w^2/2) sinc^2(rw/2pi) b b^dag]]``.
    """
    r = np.hypot(np.abs(b[0]), np.abs(b[1]))
    arm = -1j * w * np.sinc(r * w / np.pi) * b
    half = w * np.sinc(r * w / (2 * np.pi)) * b  # scaled first: b b^dag may overflow
    step = np.empty((3, 3) + r.shape, dtype=np.complex128)
    step[0, 0] = np.cos(r * w)
    step[0, 1:] = -arm.conj()
    step[1:, 0] = arm
    eye = np.eye(2).reshape((2, 2) + (1,) * r.ndim)
    step[1:, 1:] = eye - 0.5 * half[:, None] * half[None].conj()
    return step


def propagator_closed_form(h: HamiltonianSet, area: float) -> CMatrix:
    """The 8x8 propagator ``exp(-1j * area * h_eff)``, in closed form.

    The instantaneous Hamiltonian commutes with itself at all times, so the
    pulse is one exact star step of width ``area`` on the leaf couplings
    that ``h_eff`` holds for each star.
    """
    step = _star_step(_star_couplings(h.h_eff).T, area)
    return _embed_stars(np.moveaxis(step, (0, 1), (-2, -1)), 1.0)


def _midpoint_samples(p: PulsePlan, steps: int):
    """Step width ``dt`` and the ``(steps,)`` envelope samples at the step
    midpoints of ``p``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = p.duration / steps
    return dt, np.array([float(p.envelope((i + 0.5) * dt)) for i in range(steps)])


def _runs(samples: np.ndarray):
    """First step and length of each run of equal consecutive sample rows."""
    flat = samples.reshape(len(samples), -1)
    starts = np.flatnonzero(np.r_[True, np.any(flat[1:] != flat[:-1], axis=1)])
    return zip(starts, np.diff(np.r_[starts, len(samples)]))


def star_product(
    b1: np.ndarray, b2: np.ndarray, coefficients: np.ndarray, dt: float
) -> np.ndarray:
    """Midpoint-rule step products on 3-state stars, shape ``(P, S, 3, 3)``.

    At step ``i`` star ``s`` of member ``p`` evolves under ``H = [[0, b^dag],
    [b, 0]]`` (center, then leaves), ``b = c1 b1[s] + c2 b2[s]`` with ``b1``,
    ``b2`` of shape ``(S, 2)`` and ``(c1, c2) = coefficients[i, p]``.  Each
    step is exact (:func:`_star_step`); a run of equal coefficient rows is
    one step.
    """
    # Entries lead: a 3x3 product is 27 operations on (P, S) planes.
    members, stars = coefficients.shape[1], len(b1)
    u = np.multiply.outer(np.eye(3, dtype=np.complex128), np.ones((members, stars)))
    b1, b2 = np.asarray(b1).T[:, None, :], np.asarray(b2).T[:, None, :]
    for i, run in _runs(coefficients):
        b = coefficients[i, :, 0, None] * b1 + coefficients[i, :, 1, None] * b2
        step = _star_step(b, run * dt)
        u = np.sum(step[:, :, None] * u[None], axis=1)
    return np.moveaxis(u, (0, 1), (-2, -1))


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
    "star_product",
]
