"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import sys
from fractions import Fraction


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


def quote(value) -> str:
    """How an error message shows a value, so that no input floods it:
    text by its ``repr``, cut to a 40-character prefix; a list or tuple by
    its first five items, each quoted; an int or Fraction by ``str``, with
    a part of more than 40 digits named by its digit count, so no number
    meets the interpreter's int/str cap; anything else by its type name."""
    if isinstance(value, str):
        if len(value) <= 40:
            return repr(value)
        return f"{value[:40]!r}... ({len(value)} characters)"
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(quote, value[:5]))
        more = f" and {len(value) - 5} more" if len(value) > 5 else ""
        if isinstance(value, list):
            return f"[{items}]{more}"
        return f"({items}{',' if len(value) == 1 else ''}){more}"
    if not isinstance(value, (int, Fraction)):
        return type(value).__name__

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
        raise ParseError(f"{what} has more than "
                         f"{quote(sys.get_int_max_str_digits())} digits",
                         **where) from None
