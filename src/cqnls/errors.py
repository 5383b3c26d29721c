"""Exception hierarchy for the cqnls package, and the one route-comparison rule."""

import math

__all__ = [
    "CqnlsError",
    "DomainError",
    "NoSolutionError",
    "DegenerateError",
    "ConfigError",
    "ContractError",
    "NumericError",
    "BlowupError",
]


class CqnlsError(Exception):
    """Base class for all package errors."""


class DomainError(CqnlsError):
    """An input lies outside the mathematical domain of an operation."""


class NoSolutionError(DomainError):
    """No standing wave exists for the requested (period, frequency) pair."""


class DegenerateError(DomainError):
    """Parameters sit too close to a degenerate limit to resolve in doubles."""


class ConfigError(CqnlsError):
    """A structural configuration problem (grid sizes, mismatched inputs)."""


class ContractError(CqnlsError):
    """Arguments violate a documented precondition of the called routine."""


class NumericError(CqnlsError):
    """A computed quantity failed an internal accuracy or consistency check."""


class BlowupError(NumericError):
    """The evolved field exceeded the blow-up sentinel threshold."""


def _relative(residual: float, terms) -> float:
    """|residual| / max |term|, NaN when the residual or any term is NaN.

    max alone skips a NaN that is not its first argument.
    """
    scale = math.nan if any(map(math.isnan, terms)) else max(map(abs, terms))
    return abs(residual) / scale


def _agree(name: str, residual: float, terms, rtol: float,
           error: type = ContractError) -> CqnlsError | None:
    """None if two routes agree, else the error naming the check.

    residual is the difference of the routes and terms are the terms of
    the formulas it is taken from: the routes agree when |residual| is at
    most rtol of the largest |term|.  A NaN residual or term fails.
    """
    ratio = _relative(residual, terms)
    return None if ratio <= rtol else error(
        f"{name} {abs(residual):.3e} is {ratio:.3e} of its scale, above {rtol:g}")
