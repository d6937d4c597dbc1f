"""Exception types shared across the package."""

from __future__ import annotations


class HilbertDepthError(Exception):
    """Base class for every domain error raised by this package."""


class EmptyFunctionError(HilbertDepthError):
    """The zero function is unrepresentable: it has no k0 and no depth."""


class NegativeValueError(HilbertDepthError):
    """A value that must be a nonnegative integer came out negative."""


class InvalidArityError(HilbertDepthError):
    """A constructor argument is outside its allowed range."""


class TooManyFormsError(HilbertDepthError):
    """More forms than variables in a complete intersection."""


class InvalidDegreeError(HilbertDepthError):
    """A form degree below 1 in a complete intersection."""


class OutOfRangeError(HilbertDepthError):
    """An index outside the domain of a table or transform."""


class TooManyVariablesError(HilbertDepthError):
    """Variable count above the cap on alpha counting, whose bitsets have up
    to 2^n bits."""


class BudgetExceededError(HilbertDepthError):
    """A construction would exceed a fixed size cap."""


class GenerationFailedError(HilbertDepthError):
    """The random-case generator exhausted its retry budget."""


class InvalidQuotientError(HilbertDepthError):
    """The two ideals of a quotient are not properly nested."""


# Longest integer literal the parsers accept: CPython's default cap on
# str -> int conversion, so a literal it rejects is a ParseError, not a
# ValueError, and the CLI can lift the cap to print exact results.
MAX_LITERAL_DIGITS = 4300


class ParseError(HilbertDepthError):
    """Syntax error in a function expression or ideal description."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class ElaborationError(HilbertDepthError):
    """A syntactically valid expression violates a constructor precondition."""
