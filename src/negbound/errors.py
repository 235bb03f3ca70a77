"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import sys


class NegboundError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(NegboundError):
    """A cluster of infinitely near points violates a structural rule."""

    def __init__(self, message: str, *, point_id: int | None = None):
        super().__init__(message)
        self.point_id = point_id


class DuplicateIdError(ConfigurationError):
    """Two points were declared with the same id."""


class ForwardReferenceError(ConfigurationError):
    """A point lists a proximity to an id that is not strictly smaller."""


class TooManyProximitiesError(ConfigurationError):
    """A point lists more than two proximities."""


class InvalidSatelliteError(ConfigurationError):
    """A satellite's second target is not among its parent's proximities,
    or another satellite is already proximate to the same two points."""


class NormalizationError(ConfigurationError):
    """Proximities are not normalized (parent, i.e. largest id, first)."""


class MultipleOriginsError(ConfigurationError):
    """An operation requiring a unique origin received several."""


class UnknownPointError(ConfigurationError):
    """A point id does not belong to the cluster."""


class NonPositiveCoefficientError(NegboundError):
    """An unloading coefficient that must be positive is not."""


class InvariantError(NegboundError):
    """A derived object (a d certificate) breaks its invariant."""


class LatticeError(NegboundError):
    """Base class for intersection-lattice errors."""


class SurfaceMismatchError(LatticeError):
    """Two divisor classes live on different surfaces or lattices."""


class NotHirzebruchError(LatticeError):
    """A Hirzebruch-only operation was applied to the plane."""


class UnknownChartError(LatticeError):
    """An affine chart id is not one of the supported charts."""


class NonPositiveEpsilonError(NegboundError):
    """An epsilon parameter must be a positive rational."""


def quote(text: str) -> str:
    """``repr(text)`` for an error message, cut to a fixed prefix when the
    text is long, so that no input floods the message."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def quote_number(value) -> str:
    """``str(value)`` of an int or Fraction for an error message; a part
    with more than 40 digits is named by its digit count instead, so no
    number floods the message or meets the interpreter's int/str cap."""
    def part(x: int) -> str:
        magnitude = abs(x)
        if magnitude < 10 ** 40:
            return str(x)
        # a lower bound from the bit length, raised to the exact count
        digits = int((magnitude.bit_length() - 1) * 0.30102999566398)
        while 10 ** digits <= magnitude:
            digits += 1
        return f"{'-' if x < 0 else ''}<{digits} digits>"

    if value.denominator == 1:
        return part(value.numerator)
    return f"{part(value.numerator)}/{part(value.denominator)}"


def quote_ids(ids) -> str:
    """``repr`` of a list or tuple of ids for an error message, cut to the
    first five."""
    more = f" and {len(ids) - 5} more" if len(ids) > 5 else ""
    return f"{ids[:5]!r}{more}"


class ParseError(NegboundError):
    """A text input (cluster file, divisor literal) could not be parsed."""

    def __init__(self, message: str, *, line: int | None = None,
                 source: str | None = None):
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
        elif line is not None:
            prefix = f"line {line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.source = source


def _number(token: str, what: str, kind=int, **where):
    """``kind(token)`` (``int`` or ``Fraction``) of an ASCII digit literal,
    with a ParseError in place of the ValueError raised past the
    interpreter's cap on the length of int/str conversions."""
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"{what} has more than {sys.get_int_max_str_digits()}"
                         " digits", **where) from None
