"""Exception types shared across the package."""


class SpinHolonomyError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianInput(SpinHolonomyError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonUnitaryInput(SpinHolonomyError):
    """A matrix that must be unitary is not, beyond tolerance."""


class NonUnitaryTarget(SpinHolonomyError):
    """A fidelity target gate is leaky or non-unitary."""


class NonCanonicalInput(SpinHolonomyError):
    """Weyl coordinates lie outside the canonical chamber."""


class ZeroCoupling(SpinHolonomyError):
    """All exchange couplings vanish where a finite coupling is required."""


class OutOfRange(SpinHolonomyError):
    """A time argument lies outside the pulse window."""


class NonCyclicPulse(SpinHolonomyError):
    """A pulse does not satisfy the cyclicity condition for its couplings."""


class DimensionOverflow(SpinHolonomyError):
    """An estimated allocation exceeds the package's memory budget."""


class ConfigError(SpinHolonomyError):
    """A run configuration is malformed or sets a key its command does not read."""


class ParseError(SpinHolonomyError):
    """An input file could not be parsed."""
