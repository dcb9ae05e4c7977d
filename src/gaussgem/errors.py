"""Exception types shared across the package."""

__all__ = [
    "DivergenceError",
    "DivisionByZeroError",
    "GaussGemError",
    "InvalidArgumentError",
    "NumericOverflowError",
    "UnphysicalStateError",
]


class GaussGemError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(GaussGemError, ValueError):
    """Malformed or out-of-range input (wrong shape, bad index, bad spec)."""


class UnphysicalStateError(GaussGemError, ValueError):
    """Covariance data violating purity or the uncertainty bound."""


class NumericOverflowError(GaussGemError, ArithmeticError):
    """A computation produced non-finite values (overflow/underflow), or a
    result that double precision cannot resolve (no significant digit left)."""


class DivisionByZeroError(GaussGemError, ZeroDivisionError):
    """A requested ratio is undefined because the denominator vanishes."""


class DivergenceError(GaussGemError, ValueError):
    """Evaluation requested at a genuine singularity of the function."""
