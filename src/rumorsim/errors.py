"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "RumorSimError",
    "ConfigurationError",
    "NumericsError",
    "InsufficientDataError",
    "GridMismatchError",
]


class RumorSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RumorSimError, ValueError):
    """Settings that break their rules, from a config file, a flag or a
    constructor: ``violations`` lists every breach, not just the first, so
    a file is fixed in one pass; the message is their ``"; "`` join."""

    def __init__(self, violations: str | list[str]):
        self.violations = [violations] if isinstance(violations, str) else list(violations)
        super().__init__("; ".join(self.violations))


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
