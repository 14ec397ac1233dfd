"""Exception types shared across the package.

Every refusal the library makes is a distinct type, so callers can tell
"the answer is undecidable at this precision" apart from "the input is
outside the model" without string matching.
"""

from __future__ import annotations


class HyperError(Exception):
    """Base class for all domain errors raised by this package."""


class ContextMismatch(HyperError):
    """Operands were built under different numeric contexts."""


class DivisionByZero(HyperError, ZeroDivisionError):
    """Division or inversion of an exact zero."""


class TruncationAmbiguous(HyperError):
    """Equality cannot be certified because a truncated tail could differ."""


class NotFinite(HyperError):
    """A finite value was required (e.g. for the standard part)."""


class FloorUndecidable(HyperError):
    """floor(x) depends on digits of the infinite unit that the model
    does not carry (e.g. floor(H/2)), or on a discarded tail."""


class DomainError(HyperError):
    """Argument outside a function's domain (log of a non-positive
    standard part, malformed exponent, and the like)."""


class InfiniteArgument(HyperError):
    """An elementary function was applied at an infinite point."""


class ExactTranscendental(HyperError):
    """Exact mode cannot represent an irrational function value; retry
    in float mode or move the expansion point."""


class PositionOutOfModel(HyperError):
    """A digit place was requested that the value's support cannot
    address (its scale falls between the representable digit blocks)."""


class UnsupportedNotation(HyperError):
    """Extended-decimal string is readable but outside the invertible
    class that parse() handles."""


class ResourceLimit(HyperError):
    """The input asks for more than a fixed cap allows (a power of ten
    with thousands of digits, say); refused before any work is done."""


class ParseError(HyperError):
    """Syntax error in an expression or notation string.

    span is a (start, end) character range into the source when known.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        base = super().__str__()
        if self.span is not None:
            return f"{base} (at {self.span[0]}..{self.span[1]})"
        return base


class UnknownIdentifier(ParseError):
    """Name not bound in the expression language."""


class InvalidScale(HyperError):
    """Microscope scale must be strictly positive."""


class DerivativeVanishes(HyperError):
    """Newton step impossible: the derivative at the iterate is zero."""


class AssertionFailed(HyperError):
    """A checked theorem invariant failed at a specific step."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
