"""Exception hierarchy shared across the package."""


class HeisgroundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HeisgroundError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConfigurationError(HeisgroundError, ValueError):
    """A run configuration is invalid (bad exponent, grid too small, ...)."""


class NumericError(HeisgroundError, ArithmeticError):
    """A numeric evaluation produced non-finite values."""


class AlgorithmError(HeisgroundError, RuntimeError):
    """An iterative procedure reached a state it cannot recover from."""


class InsufficientDataError(HeisgroundError, ValueError):
    """Not enough usable samples to produce a meaningful fit/verdict."""
