"""Exception types shared across the package.

The hierarchy distinguishes configuration mistakes (bad arguments, bad
config files), data problems (unparseable input files), and numerical
failures (non-finite intermediates, degenerate distributions).  The CLI
maps these onto exit codes 1, 2 and 3 respectively.  A divergent
weighted variance is not an error: its evaluator returns inf.
"""

__all__ = [
    "SpectralChebError", "ParameterError", "DomainEvalError", "EstimationError",
    "DegenerateDistributionError", "NumericError", "ParseError", "ConvergenceError",
]


class SpectralChebError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SpectralChebError, ValueError):
    """An argument or configuration value violates a precondition."""


class DomainEvalError(ParameterError):
    """A function evaluation left its valid domain (non-finite value,
    or an evaluation point outside the series interval)."""


class EstimationError(SpectralChebError, RuntimeError):
    """A fit or closed-form construction could not be carried out
    (decay-rate fit not resolvable)."""


class DegenerateDistributionError(SpectralChebError, ValueError):
    """Coefficient re-weighting hit a vanishing denominator."""


class NumericError(SpectralChebError, ArithmeticError):
    """A stochastic recursion produced a non-finite intermediate."""


class ParseError(SpectralChebError, ValueError):
    """An input data file could not be parsed."""


class ConvergenceError(SpectralChebError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""
