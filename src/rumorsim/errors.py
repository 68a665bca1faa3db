"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "RumorSimError",
    "ConfigurationError",
    "NumericsError",
    "InsufficientDataError",
    "GridMismatchError",
    "ConfigFileError",
]


class RumorSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RumorSimError, ValueError):
    """A run configuration violates a structural contract (grid alignment,
    delay not on the step grid, invalid record stride, ...)."""


class NumericsError(RumorSimError, ArithmeticError):
    """The integration produced a non-finite state; ``step`` and ``run``
    (the run's index in its batch or sweep cell) locate it when known."""

    def __init__(self, message: str, step: int | None = None, run: int | None = None):
        super().__init__(message)
        self.step = step
        self.run = run


class InsufficientDataError(RumorSimError, ValueError):
    """Too few samples for the requested statistic."""


class GridMismatchError(RumorSimError, ValueError):
    """A sweep result and a reference table cover different (tau, R0) grids."""


class ConfigFileError(RumorSimError, ValueError):
    """A configuration file failed validation.

    Carries every violation found, not just the first, so a user can fix
    a file in one pass.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
