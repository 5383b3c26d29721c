"""Exception hierarchy for the cqnls package."""

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
