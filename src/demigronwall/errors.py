"""Exception types raised by the verification lab.

Every precondition named in a module contract maps to a distinct class so
callers (and the test suite) can assert on the exact failure mode.  Most
derive from ``ValueError`` since they signal bad arguments rather than
broken state.
"""


class DemigronError(Exception):
    """Base class for all package errors."""


class InvalidSpec(DemigronError, ValueError):
    """Generator or model parameter outside its admissible range."""


class BatchTooLarge(DemigronError):
    """One requested sample matrix exceeds the per-matrix entry budget."""


class EmptyFamily(DemigronError, ValueError):
    """No admissible test functions for the requested check."""


class DegenerateBatch(DemigronError, ValueError):
    """Too few paths for a reliable standard-error estimate."""


class NotNondecreasing(DemigronError, ValueError):
    """Supplied function values violate the nondecreasing requirement."""


class NegativeBase(DemigronError, ValueError):
    """Fractional power of a negative running maximum requested."""


class NonzeroStart(DemigronError, ValueError):
    """Path or batch does not start at zero where required."""


class POutOfRange(DemigronError, ValueError):
    """Moment exponent p outside its admissible interval."""


class HolderViolation(DemigronError, ValueError):
    """Conjugate-exponent pair invalid or p*nu too close to 1."""


class ShapeMismatch(DemigronError, ValueError):
    """Arrays that must share (paths, steps) alignment do not."""


class NegativeInput(DemigronError, ValueError):
    """Input required to be entrywise nonnegative is not."""


class NegativeWeights(NegativeInput):
    """Growth weights G must be entrywise nonnegative."""


class HypothesisViolated(DemigronError):
    """A path violates the assumed recursion inequality beyond tolerance."""


class BetaOutOfRange(DemigronError, ValueError):
    """Fractional order must lie strictly inside (0, 1)."""


class AlphaOutOfRange(DemigronError, ValueError):
    """Mittag-Leffler parameter must be strictly positive."""


class FormMismatch(DemigronError):
    """Two algebraically equivalent evaluations disagree beyond tolerance."""


class SeriesNoConvergence(DemigronError):
    """Power series did not converge within the configured guards."""


class NewtonNonConvergence(DemigronError):
    """Implicit step residual above tolerance after the iteration budget."""

    def __init__(self, message, path=None, step=None):
        super().__init__(message)
        self.path = path
        self.step = step


class StepTooLarge(DemigronError, ValueError):
    """Step size violates the implicit-solvability margin h * osl < 1."""


class StepBoundViolation(DemigronError, ValueError):
    """Step-size bound h0 outside (0, 1/(2L)) or h not below h0."""


class HGridViolation(DemigronError, ValueError):
    """Step-size grid entries inconsistent with the shared configuration."""


class ConfigError(DemigronError, ValueError):
    """Run configuration invalid; the message names the offending key."""
