"""Holonomic two-qubit entangling gates on a three-spin XY+DM chain.

A dense-matrix simulation library: build the chain Hamiltonians, drive
them with cyclic pulses, extract the register two-qubit gate, classify
its entangling character through local invariants and Weyl-chamber
coordinates, and study robustness against Dzyaloshinskii-Moriya
perturbations, arm-amplitude noise, and hyperfine dephasing.
"""

from .errors import (
    ConfigError,
    DimensionOverflow,
    NonCanonicalInput,
    NonCyclicPulse,
    NonHermitianInput,
    NonUnitaryInput,
    NonUnitaryTarget,
    OutOfRange,
    ParseError,
    SpinHolonomyError,
    ZeroCoupling,
)
from .gates import RegisterGate, analytic_entangler, extract_register_gate
from .invariants import (
    GateMetrics,
    MAX_ENTANGLING_POWER,
    WEYL_VERTICES,
    classify_entangler,
    entangling_power,
    gate_metrics,
    invariants_from_weyl,
    makhlin_invariants,
    weyl_coordinates,
)
from .linalg import expm_hermitian, kron, svd
from .noise import (
    HyperfineBath,
    QuantumChannel,
    SweepTable,
    amplitude_noise_sweep,
    build_hyperfine_hamiltonian,
    dephasing_sweep,
    dm_sweep,
    hyperfine_channel,
    process_fidelity,
)
from .propagation import (
    PulsePlan,
    gaussian_pulse,
    propagator_closed_form,
    propagator_time_ordered,
    pulse_area,
    scaled_to_area,
    solve_cyclic,
    square_pulse,
    tabulated_pulse,
)
from .spin_chain import (
    ExchangeCouplings,
    HamiltonianSet,
    PolarCouplings,
    ancilla_ground_projector,
    arm_hamiltonians,
    build_hamiltonians,
    build_spin_operators,
    couplings_to_polar,
    polar_to_couplings,
)

__version__ = "0.1.0"

__all__ = [
    "ExchangeCouplings",
    "PolarCouplings",
    "HamiltonianSet",
    "PulsePlan",
    "RegisterGate",
    "GateMetrics",
    "HyperfineBath",
    "QuantumChannel",
    "SweepTable",
    "build_spin_operators",
    "couplings_to_polar",
    "polar_to_couplings",
    "build_hamiltonians",
    "arm_hamiltonians",
    "ancilla_ground_projector",
    "square_pulse",
    "gaussian_pulse",
    "tabulated_pulse",
    "scaled_to_area",
    "pulse_area",
    "solve_cyclic",
    "propagator_closed_form",
    "propagator_time_ordered",
    "extract_register_gate",
    "analytic_entangler",
    "makhlin_invariants",
    "weyl_coordinates",
    "invariants_from_weyl",
    "entangling_power",
    "classify_entangler",
    "gate_metrics",
    "process_fidelity",
    "dm_sweep",
    "amplitude_noise_sweep",
    "build_hyperfine_hamiltonian",
    "hyperfine_channel",
    "dephasing_sweep",
    "kron",
    "expm_hermitian",
    "svd",
    "MAX_ENTANGLING_POWER",
    "WEYL_VERTICES",
    "SpinHolonomyError",
    "NonHermitianInput",
    "NonUnitaryInput",
    "NonUnitaryTarget",
    "NonCanonicalInput",
    "ZeroCoupling",
    "OutOfRange",
    "NonCyclicPulse",
    "DimensionOverflow",
    "ConfigError",
    "ParseError",
]
