"""Exception types shared across the package."""


class TsgridError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TsgridError, ValueError):
    """A configuration object or parameter set is invalid."""


class InputError(TsgridError, ValueError):
    """Input data violates a precondition (shape, range, finiteness)."""


class LookbackOverflow(InputError):
    """The lookback mean or standard deviation of ``channel`` overflows float64."""

    def __init__(self, channel: int) -> None:
        super().__init__(f"channel {channel}: lookback statistics overflow float64")
        self.channel = channel


class StructuralError(TsgridError, ValueError):
    """A grid violates the one-active-cell-per-column structure."""


class CapabilityError(TsgridError, ValueError):
    """A forecaster was asked for more lookback or horizon than it supports."""


class EvaluationError(TsgridError, RuntimeError):
    """An evaluation run produced no usable result."""
