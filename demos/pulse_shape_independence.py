"""Geometric nature of the gate: the envelope shape does not matter.

The propagator depends on the drive only through the accumulated pulse
area, so square, gaussian and randomly tabulated envelopes with equal
total area realize the same gate.  Each shape is stepped here through
4000 midpoint steps of the arm-amplitude sweep with no offset on either
arm, and its register gate is compared with the holonomic gate.
"""

import math

import numpy as np

import spinholonomy as sh

rng = np.random.default_rng(1)

couplings = sh.ExchangeCouplings(j1=1.2, j2=0.7, d1=0.3, d2=-0.4)
polar = sh.couplings_to_polar(couplings)
area = math.pi / polar.omega  # cyclic area, winding 0
duration = 1.0

nodes = np.linspace(0.0, duration, 17)
plans = {
    "square": sh.scaled_to_area(sh.square_pulse(1.0, duration), area),
    "gaussian": sh.scaled_to_area(sh.gaussian_pulse(1.0, duration), area),
    "tabulated": sh.scaled_to_area(
        sh.tabulated_pulse(list(zip(nodes, rng.uniform(0.2, 1.0, size=17)))), area
    ),
}

print(f"target area = {area:.6f}  (area * omega = pi)")
for name, plan in plans.items():
    realized = sh.pulse_area(plan, plan.duration)
    print(f"{name:>10}: peak {plan.amplitude:8.4f}, area {realized:.12f}")

print("\npropagating each envelope with 4000 midpoint steps...")
for name, plan in plans.items():
    table = sh.amplitude_noise_sweep(couplings, [math.inf], [math.inf], plan, steps=4000)
    print(f"{name:>10}: |1 - F| against the holonomic gate = {abs(1 - table.fidelity[0, 0]):.3e}")
print("the gate is set by the loop geometry, not by how fast it is traversed")
