"""Exception hierarchy for the jumpfolio package."""


class JumpfolioError(Exception):
    """Base class for all package errors."""


class ConfigError(JumpfolioError, ValueError):
    """Malformed or inconsistent configuration input."""


class OutOfRange(JumpfolioError, ValueError):
    """A probability or parameter lies outside its admissible range."""


class SingularSigma(JumpfolioError):
    """Volatility matrix is singular (or below the determinant floor)."""


class UnsupportedSupport(JumpfolioError):
    """Jump-size support leaves (-1, inf), or 1 + pi*z is not positive."""


class MomentDiverges(JumpfolioError):
    """An exponential jump moment is not finite."""


class NoConvergence(JumpfolioError):
    """An iterative solver did not converge within its iteration budget."""


class KappaOutOfRange(JumpfolioError):
    """Loss fraction kappa outside the admissible range of the solver."""


class ConditionViolated(JumpfolioError):
    """A sufficient condition required by a closed-form result fails."""


class AssumptionJViolated(JumpfolioError):
    """Negative jump sizes present where nonnegative jumps are required."""


class ThetaHatNegative(JumpfolioError):
    """Compensated market price of risk has a negative component."""


class EpsilonTooLarge(JumpfolioError):
    """Negative-jump probability is too large for the level adjustment."""


class InvalidStrategy(JumpfolioError):
    """Strategy violates admissibility (box constraint, signs, shapes)."""


class EmptyFeasibleSet(JumpfolioError):
    """No candidate on the search grid satisfies the risk constraint."""
