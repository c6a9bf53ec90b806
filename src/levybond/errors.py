"""Exception types shared across the package."""


class LevyBondError(Exception):
    """Base class for all library-specific errors."""


class DomainError(LevyBondError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DivergentExponent(LevyBondError, ValueError):
    """The Laplace exponent (or a jump-measure integral) diverges at the request."""


class SubordinatorError(LevyBondError, ValueError):
    """Bounded-variation dynamics with non-positive canonical drift: the path is monotone."""


class MomentConditionError(LevyBondError, ValueError):
    """The discount rate q does not exceed psi(-1), so discounted payoffs blow up.

    Solvers require the exponential growth rate of e^{X_t} to be strictly
    dominated by the discounting; otherwise the game value is not finite.
    """


class RegimeError(LevyBondError, ValueError):
    """An operation specific to one discount regime was called outside of it."""


class BracketError(LevyBondError, RuntimeError):
    """A root-finder could not bracket its target."""


class AccuracyError(LevyBondError, RuntimeError):
    """A numerical routine could not certify its accuracy target."""


class ConfigError(LevyBondError, ValueError):
    """A run configuration file is missing a field or contains an invalid value."""


class TruncationWarning(UserWarning):
    """The simulation horizon may be too short for the requested estimate."""
