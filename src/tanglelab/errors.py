"""Shared exception types with CLI exit-code conventions.

Exit codes: invalid input -> 2, budget/guard exhaustion -> 3,
internal cross-check failure -> 4.
"""


class TangleLabError(Exception):
    """Base class for all tanglelab errors."""


class ConwaySyntaxError(TangleLabError, ValueError):
    """Malformed Conway notation; carries the offending position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class NotRationalError(TangleLabError, ValueError):
    """Expression is not rational in the continued-fraction sense."""


class NotPrimeError(TangleLabError, ValueError):
    """Modulus expected to be prime is not."""


class PrimalityBoundError(TangleLabError, ValueError):
    """Modulus too large for the deterministic primality test."""


class InvalidSiteError(TangleLabError, ValueError):
    """Move site does not describe two strands of the diagram."""


class BudgetExceededError(TangleLabError, RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class CrossCheckError(TangleLabError, RuntimeError):
    """Two independent computations of the same quantity disagree."""


class CalibrationError(CrossCheckError):
    """The compiler's corner convention failed its twist-tangle self-test."""


class AlternatingConditionError(CrossCheckError):
    """A boundary coloring violated the alternating-sum condition."""
