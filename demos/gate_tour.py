"""Tour of the basic pipeline: couplings -> Hamiltonian -> pulse -> gate.

Builds the three-spin chain at the symmetric working point, drives it
with a cyclic square pulse, extracts the register two-qubit gate and
classifies it.  The extracted gate lands on the DCNOT equivalence class
with maximal entangling power 2/9.
"""

import numpy as np

import spinholonomy as sh
from spinholonomy.spin_chain import STARS

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# 1. Couplings.  Equal XY strengths on both arms, no spin-orbit term:
#    the single control angle theta = atan(|alpha2| / |alpha1|) is pi/4.
couplings = sh.ExchangeCouplings(j1=1.0, j2=1.0)
polar = sh.couplings_to_polar(couplings)
print("couplings :", couplings)
print(f"polar     : omega={polar.omega:.6f} theta={polar.theta:.6f} "
      f"phi1={polar.phi1:.3f} phi2={polar.phi2:.3f}")

# 2. Hamiltonians.  The chain Hamiltonian is block off-diagonal in the
#    ancilla and conserves total S_z: it couples the center of each of two
#    3-state stars to two leaves, with couplings b of norm |b| = omega.
ham = sh.build_hamiltonians(couplings)
print(f"\nomega = {polar.omega:.6f}")
for center, *leaves in STARS:
    b = ham.h_eff[leaves, center]
    print(f"star (center {center}, leaves {leaves}): |b| = {np.linalg.norm(b):.6f}")

# 3. Pulse.  A square pulse whose area a_tau satisfies
#    a_tau * omega = pi returns the ancilla-|0> subspace to itself.
pulse = sh.solve_cyclic(polar.omega, amplitude=1.0, winding=0)
area = sh.pulse_area(pulse, pulse.duration)
print(f"\ncyclic square pulse: amplitude={pulse.amplitude} "
      f"duration={pulse.duration:.6f} area*omega/pi={area * polar.omega / np.pi:.12f}")

# 4. Propagate and extract the register gate.
u_full = sh.propagator_closed_form(ham, area)
gate = sh.extract_register_gate(u_full)
print("\nregister gate (real part):")
print(gate.matrix.real)
print(f"leakage: {gate.leakage:.3e}")

ideal = sh.analytic_entangler(polar.theta, polar.phi1, polar.phi2)
print("deviation from closed-form entangler:",
      f"{np.max(np.abs(gate.matrix - ideal.matrix)):.3e}")

# 5. Classify.  Makhlin invariants, Weyl-chamber point, entangling power.
metrics = sh.gate_metrics(gate.matrix)
print(f"\nG1 = {metrics.g1:.6f}")
print(f"G2 = {metrics.g2:.6f}")
print("weyl/pi =", np.round(np.array(metrics.weyl) / np.pi, 6))
print(f"entangling power = {metrics.ep:.6f} (max 2/9 = {2 / 9:.6f})")
print("class =", metrics.entangler_class)
