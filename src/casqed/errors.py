"""Exception types shared across the package."""


class CasqedError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CasqedError, ValueError):
    """Operator or state shapes are inconsistent with the declared space."""


class ParityError(CasqedError, ValueError):
    """A generator's declared parity is not a weak symmetry: an operator
    mixes the even and odd states where it must keep them apart."""


class NonHermitianInput(CasqedError, ValueError):
    """A matrix required to be hermitian is not, beyond tolerance."""


class InvalidParams(CasqedError, ValueError):
    """Model parameters lie outside their physical range (a rate of the
    wrong sign, a zero detuning, an efficiency outside [0, 1])."""


class DegenerateParams(CasqedError, ValueError):
    """Drive parameters sit at a critical point where the steady state
    is not unique (|a| = |b| with ideal coupling)."""


class DegenerateSteadyState(CasqedError, RuntimeError):
    """The generator's null space is not one-dimensional, or the zero
    eigenvalue is not cleanly separated from the rest of the spectrum."""


class InfeasibleBalance(CasqedError, ValueError):
    """The requested light-shift balance cannot be met with the given
    detuning signs."""


class UnbalancedShifts(CasqedError, ValueError):
    """Ground-state light shifts violate the balance condition required
    by the effective model."""


class IntegrationError(CasqedError, RuntimeError):
    """The adaptive integrator failed (step-size underflow, trace drift,
    or an invalid initial state)."""


class ConvergenceError(CasqedError, RuntimeError):
    """An iterative solver did not reach its target: long-time relaxation
    within the allotted model time (expect critical slowing as a/b -> 1),
    or GMRES within its iteration budget."""


class InvalidDensityMatrix(CasqedError, ValueError):
    """Input fails the density-matrix validity gate (trace, hermiticity
    or positivity beyond tolerance)."""


class ConfigError(CasqedError, ValueError):
    """User input (a config file, or a ``metrics --dm`` file) is malformed
    or fails validation. Carries the offending key or line when known."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line
