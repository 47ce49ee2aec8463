"""Dephasing from a nuclear spin bath, in the operator-sum picture.

Each of the three electron spins talks to two private spin-1/2 nuclei
through an isotropic contact interaction with homogeneous coupling A/N.
The chain-plus-bath (dimension 512) is evolved as a closed system and the
bath starts maximally mixed.  With one coupling for every nucleus, each
electron sees only the total spin of its nuclei, so the bath splits into
multiplets; tracing it out yields 1,000 Kraus operators, one per pair of
multiplet states, where the bit basis gives 4,096 for the same channel.
Fidelity is swept against lambda = N / (A * tau_op), the ratio of the
hyperfine decoherence time to the gate operation time: lambda >= 10 is
enough for ~99% fidelity.  The generator is constant and conserves total
S_z, so each point is exact: one exponential per S_z block of the
multiplets, split into halves by the pi rotation and electron exchange
and stacked in a few padded sizes.  The couplings sit at theta = pi/4,
and the gate time tau_op does not enter: F depends on N and lambda alone.
"""

import time
from pathlib import Path

import numpy as np

import spinholonomy as sh
from spinholonomy.reports import line_svg

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

couplings = sh.ExchangeCouplings(j1=1.0, j2=1.0)
bath = sh.HyperfineBath(total_coupling=0.0, op_time=1.0, nuclei_per_electron=2)
lambdas = [float(v) for v in range(1, 21)]

print("one channel first: lambda = 10")
channel = sh.hyperfine_channel(sh.HyperfineBath.from_ratio(10.0, 1.0), couplings)
print(f"  kraus operators: {channel.kraus.shape[0]}")
print(f"  completeness defect: {channel.completeness_defect():.2e}")

print("\nsweeping lambda = 1..20 (one exponential per S_z block each)...")
start = time.time()
table = sh.dephasing_sweep(bath, lambdas, couplings)
print(f"done in {time.time() - start:.1f}s\n")

for lam, f in zip(lambdas, table.fidelity):
    bar = "#" * int(round(40 * f))
    print(f"  lambda {lam:5.1f}  F = {f:.5f}  {bar}")

print(f"\nF(lambda=10) = {table.fidelity[9]:.5f}")
print("monotone in lambda:", bool(np.all(np.diff(table.fidelity) >= -1e-6)))

svg_path = out_dir / "hyperfine_dephasing.svg"
line_svg(svg_path, lambdas, table.fidelity, xlabel="λ", ylabel="fidelity")
print(f"wrote {svg_path}")
