"""Write ``ledger.json``: 30-digit references for the CLI's default outputs.

Run by hand, not by the test suite, whenever the inputs of a covered output
change (about 25 min on 2 CPUs, almost all of it the N = 2 dephasing slice):

    PYTHONPATH=src python tests/make_ledger.py

The references are exact functions of the double-precision inputs that the
package forms (couplings, pulse area and target gate), evaluated with a
30-digit ``mpmath.expm`` of the chain generator, which is built from the
paper's block form ``H = S+_(a) (x) W + h.c.`` and not from the package's
Hamiltonian.  ``test_ledger.py`` compares the outputs with them.

Covered outputs:

* ``gate``: the register block of the default ``gate`` run;
* ``sweep_dm``: the 225 fidelities of the default ``sweep-dm`` run;
* ``sweep_noise``: the 100 fidelities of the default ``sweep-noise`` grid;
* ``sweep_theta``: criterion 3's closed forms at the 101 angles of the
  default ``sweep-theta`` grid;
* ``sweep_dephasing``: the 20 fidelities of ``sweep-dephasing`` at N = 1
  and the default lambdas, for the default couplings and for couplings with
  DM angles 0.64 and -0.93 at theta = pi/4.  The chain-plus-bath generator
  is exponentiated on the total-S_z sectors of the bit basis (at most 20
  states), with the contact term built spin by spin, not from the package's
  multiplet blocks;
* ``sweep_dephasing_n2``: the same two coupling cases at N = 2 and lambda
  1 and 10, on sectors of at most 126 states (about 6 min per point, so
  the slice is committed and never recomputed by the tests).
"""

import json
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np

from spinholonomy import (
    ExchangeCouplings,
    HyperfineBath,
    analytic_entangler,
    couplings_to_polar,
    pulse_area,
    solve_cyclic,
)
from spinholonomy.cli import RunConfig

DIGITS = 30
LEDGER = Path(__file__).resolve().parent / "ledger.json"


def _generator(c: ExchangeCouplings) -> mp.matrix:
    """The 8x8 chain generator in ``mp`` arithmetic, from the exchange
    matrix ``W``: ``W`` in the ancilla block (0, 1), ``W^dag`` in (1, 0)."""
    a1 = (mp.mpf(c.j1) + 1j * mp.mpf(c.d1)) / 2
    a2 = (mp.mpf(c.j2) + 1j * mp.mpf(c.d2)) / 2
    w = mp.zeros(4, 4)
    w[1, 0] = a2
    w[2, 0] = mp.conj(a1)
    w[3, 1] = mp.conj(a1)
    w[3, 2] = a2
    h = mp.zeros(8, 8)
    for i in range(4):
        for j in range(4):
            h[i, 4 + j] = w[i, j]
            h[4 + j, i] = mp.conj(w[i, j])
    return h


def register_block(c: ExchangeCouplings, area: float) -> mp.matrix:
    """Ancilla-|0> block of ``exp(-1j * area * H)``."""
    u = mp.expm(-1j * mp.mpf(area) * _generator(c))
    return u[0:4, 0:4]


def fidelity(target, block: mp.matrix):
    """``|tr(V^dag M)|^2 / 16`` for a double-precision target ``V``."""
    overlap = mp.fsum(
        mp.conj(mp.mpc(complex(target[s, q]))) * block[s, q]
        for s in range(4)
        for q in range(4)
    )
    return abs(overlap) ** 2 / 16


def _digits(x) -> str:
    return mp.nstr(x, DIGITS)


def default_gate() -> dict:
    cfg = RunConfig(command="gate")
    couplings = cfg.couplings()
    pulse = solve_cyclic(couplings_to_polar(couplings).omega, cfg.amplitude, cfg.winding)
    area = pulse_area(pulse, pulse.duration)
    block = register_block(couplings, area)
    return {
        "couplings": [couplings.j1, couplings.j2, couplings.d1, couplings.d2],
        "area": area,
        "re": [[_digits(mp.re(block[i, j])) for j in range(4)] for i in range(4)],
        "im": [[_digits(mp.im(block[i, j])) for j in range(4)] for i in range(4)],
    }


def default_sweep_noise() -> dict:
    """The grid as ``amplitude_noise_sweep`` forms it for a square pulse:
    arm k driven at ``amplitude + amplitude / ratio_k`` over the whole
    duration, one exponential of the two block-form arms per point."""
    cfg = RunConfig(command="sweep-noise")
    c = cfg.couplings()
    polar = couplings_to_polar(c)
    pulse = solve_cyclic(polar.omega, cfg.amplitude, cfg.winding)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    arm1 = _generator(ExchangeCouplings(c.j1, 0.0, c.d1, 0.0))
    arm2 = _generator(ExchangeCouplings(0.0, c.j2, 0.0, c.d2))
    rows = []
    for r1 in cfg.ratios1:
        row = []
        for r2 in cfg.ratios2:
            e1, e2 = pulse.amplitude + pulse.amplitude / r1, pulse.amplitude + pulse.amplitude / r2
            h = mp.mpf(e1) * arm1 + mp.mpf(e2) * arm2
            u = mp.expm(-1j * mp.mpf(pulse.duration) * h)
            row.append(_digits(fidelity(target, u[0:4, 0:4])))
        rows.append(row)
    return {
        "couplings": [c.j1, c.j2, c.d1, c.d2],
        "amplitude": pulse.amplitude,
        "duration": pulse.duration,
        "ratios1": list(cfg.ratios1),
        "ratios2": list(cfg.ratios2),
        "fidelity": rows,
    }


def default_sweep_dm() -> dict:
    """The grid as ``dm_sweep`` forms it: DM strengths ``hypot(j1, j2) / d``
    on a pulse calibrated for the XY-only couplings."""
    cfg = RunConfig(command="sweep-dm")
    xy = ExchangeCouplings(cfg.j1, cfg.j2)
    polar = couplings_to_polar(xy)
    pulse = solve_cyclic(polar.omega, cfg.amplitude, cfg.winding)
    area = pulse_area(pulse, pulse.duration)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    scale = math.hypot(cfg.j1, cfg.j2)
    rows = []
    for d1 in cfg.d1_ratios:
        row = []
        for d2 in cfg.d2_ratios:
            c = ExchangeCouplings(cfg.j1, cfg.j2, scale / d1, scale / d2)
            row.append(_digits(fidelity(target, register_block(c, area))))
        rows.append(row)
    return {
        "j": [cfg.j1, cfg.j2],
        "area": area,
        "d1": list(cfg.d1_ratios),
        "d2": list(cfg.d2_ratios),
        "fidelity": rows,
    }


def default_sweep_theta() -> dict:
    """Criterion 3's closed forms at the double angles the default grid
    forms: ``G1 = (1 + cos 4 theta)^2 / 4`` (real), ``G2 = 1 + 2 cos 4 theta``,
    Weyl ``(2 theta, 2 theta, 0)`` and ``ep = (2/9) (1 - |G1|)``."""
    cfg = RunConfig(command="sweep-theta")
    thetas = np.linspace(0.0, math.pi / 4, cfg.grid).tolist()
    g1 = [(1 + mp.cos(4 * mp.mpf(t))) ** 2 / 4 for t in thetas]
    return {
        "theta": thetas,
        "g1": [_digits(g) for g in g1],
        "g2": [_digits(1 + 2 * mp.cos(4 * mp.mpf(t))) for t in thetas],
        "c": [_digits(2 * mp.mpf(t)) for t in thetas],
        "ep": [_digits(mp.mpf(2) / 9 * (1 - abs(g))) for g in g1],
    }


#: The ``sweep-dephasing`` cases: the couplings (j1, j2, d1, d2) of each
#: run.  The second pair has |alpha1| = |alpha2| = 1/2 and DM angles
#: atan2(0.6, 0.8) = 0.64 and atan2(-0.8, 0.6) = -0.93.
DEPHASING_COUPLINGS = ((1.0, 1.0, 0.0, 0.0), (0.8, 0.6, 0.6, -0.8))

#: The lambdas of the N = 2 slice, two of the CLI's defaults.
DEPHASING_N2_LAMBDAS = (1.0, 10.0)


def _sector_generator(h_chain: mp.matrix, a_total, nuclei: int, states: list) -> mp.matrix:
    """``h_chain (x) 1_bath + (A / N) sum_{l,k} S^(l) . I^(l,k)`` on the
    bit-basis states ``states`` (one total-S_z sector).

    State ``c * 2**(3N) + b`` is ``|chain c> (x) |bath b>``; of the ``3 + 3N``
    sites (a, 1, 2, then nucleus k of electron l at ``3 + l N + k``), site
    ``p`` is bit ``2 + 3N - p``, and a set bit is spin down.  A contact pair
    adds 1/4 when aligned, -1/4 when opposite, and exchanges opposite spins
    with 1/2.
    """
    bits = 3 * nuclei
    sites = 3 + bits
    index = {s: i for i, s in enumerate(states)}
    per_nucleus = mp.mpf(a_total) / nuclei
    h = mp.zeros(len(states), len(states))
    for i, s in enumerate(states):
        c, b = s >> bits, s & ((1 << bits) - 1)
        for c2 in range(8):
            if h_chain[c2, c] != 0:
                h[index[(c2 << bits) | b], i] += h_chain[c2, c]
        for l in range(3):
            for k in range(nuclei):
                e_bit, n_bit = sites - 1 - l, sites - 4 - l * nuclei - k
                if ((s >> e_bit) ^ (s >> n_bit)) & 1:
                    h[i, i] -= per_nucleus / 4
                    h[index[s ^ ((1 << e_bit) | (1 << n_bit))], i] += per_nucleus / 2
                else:
                    h[i, i] += per_nucleus / 4
    return h


def dephasing_fidelity(c: ExchangeCouplings, nuclei: int, lam: float):
    """One ``dephasing_sweep`` point at couplings ``c`` and the CLI's op_time
    1: the drive ``pi / omega``, ``A = N / lambda`` and the double-precision
    target.  ``F = ||O||^2 / (16 d_b)`` with ``O[j, i] = sum_{s,s'}
    conj(V[s, s']) <s, j|U|s', i>`` over the sectors' ancilla-|0> entries."""
    polar = couplings_to_polar(c)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    amplitude = math.pi / (1.0 * polar.omega)
    a_total = HyperfineBath.from_ratio(lam, 1.0, nuclei).total_coupling
    bits = 3 * nuclei
    h_chain = mp.mpf(amplitude) * _generator(c)
    overlap = {}
    for down in range(4 + bits):
        states = [s for s in range(8 << bits) if bin(s).count("1") == down]
        u = mp.expm(-1j * _sector_generator(h_chain, a_total, nuclei, states))
        for i, s in enumerate(states):
            for j, t in enumerate(states):
                if s >> bits < 4 and t >> bits < 4:
                    key = (t & ((1 << bits) - 1), s & ((1 << bits) - 1))
                    weight = mp.conj(mp.mpc(complex(target[t >> bits, s >> bits])))
                    overlap[key] = overlap.get(key, 0) + weight * u[j, i]
    return mp.fsum(abs(o) ** 2 for o in overlap.values()) / (16 << bits)


def sweep_dephasing(nuclei: int, lambdas) -> dict:
    cases = []
    for values in DEPHASING_COUPLINGS:
        c = ExchangeCouplings(*values)
        fidelity = [_digits(dephasing_fidelity(c, nuclei, lam)) for lam in lambdas]
        cases.append({"couplings": list(values), "fidelity": fidelity})
    return {"nuclei_per_electron": nuclei, "lambdas": list(lambdas), "cases": cases}


def main() -> None:
    with mp.workdps(DIGITS + 10):
        ledger = {
            "digits": DIGITS,
            "gate": default_gate(),
            "sweep_dm": default_sweep_dm(),
            "sweep_noise": default_sweep_noise(),
            "sweep_theta": default_sweep_theta(),
            "sweep_dephasing": sweep_dephasing(1, RunConfig(command="sweep-dephasing").lambdas),
            "sweep_dephasing_n2": sweep_dephasing(2, DEPHASING_N2_LAMBDAS),
        }
    write(ledger)


def write(ledger: dict) -> None:
    """Write ``ledger`` with one line per innermost list, which keeps the
    file short and its diffs readable."""
    text = re.sub(
        r"\[\s+([^][{}]*?)\s+\]",
        lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
        json.dumps(ledger, indent=1),
    )
    LEDGER.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    main()
