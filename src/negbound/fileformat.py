"""Text formats: cluster files, divisor literals and curve lists.

Cluster file, one statement per line ('#' starts a comment):

    surface p2            # or: surface f <delta>
    1 origin
    2 -> 1                # free point, proximate to its parent
    5 -> 4 2              # satellite: parent first, then the second target

Divisor literals are sums of signed terms over the generators, e.g.
``3L - 2E1 - E4`` or ``2F + 1M - E3``; coefficients are integers or
rationals ``p/q``.  Whitespace is ignored, except inside a number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .config import Configuration, build_configuration
from .errors import ConfigurationError, ParseError, _number, quote
from .surfaces import SurfaceModel, checked_surface, parse_surface, surface_name

if TYPE_CHECKING:  # the lattice loads with the first divisor literal
    from .lattice import DivisorClass


_RATIONAL_RE = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``: an optional sign, ASCII digits, and an
    optional ``/`` with more digits, with surrounding ASCII whitespace
    ignored.  No decimals, exponents or ``_`` separators."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"invalid rational {quote(text)} (expected 'p' or 'p/q')")
    try:
        return _number(text, "numerator or denominator", Fraction)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational {quote(text)}") from None


def _lines(text: str) -> list[str]:
    # Lines end at \n, \r\n or \r only, not at every str.splitlines break.
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _statements(text: str, source: str):
    for lineno, raw in enumerate(_lines(text), start=1):
        # checked before strip() can drop a non-ASCII space
        code = raw.split("#", 1)[0]
        if not code.isascii():
            raise ParseError(f"non-ASCII character in {quote(code)}",
                             line=lineno, source=source)
        statement = code.strip()
        if statement:
            yield lineno, statement


def parse_configuration(text: str, *, source: str = "<config>") -> Configuration:
    """Parse a cluster file; raises ParseError carrying the offending line."""
    surface: SurfaceModel | None = None
    specs: list[tuple[int, list[int]]] = []
    line_of_id: dict[int, int] = {}
    for lineno, statement in _statements(text, source):
        tokens = statement.split()
        if surface is None:
            if tokens[0].lower() != "surface":
                raise ParseError("the first statement must declare the surface",
                                 line=lineno, source=source)
            surface = parse_surface(statement, line=lineno, source=source)
            continue
        # Statements are ASCII, so isdigit() admits exactly 0-9: no sign,
        # no '_' separator.
        if not tokens[0].isdigit():
            raise ParseError(f"expected a point id, got {quote(tokens[0])}",
                             line=lineno, source=source)
        pid = _number(tokens[0], "point id", line=lineno, source=source)
        if len(tokens) == 2 and tokens[1].lower() == "origin":
            prox: list[int] = []
        elif 3 <= len(tokens) <= 4 and tokens[1] == "->":
            if not all(tok.isdigit() for tok in tokens[2:]):
                raise ParseError(f"invalid proximity targets in {quote(statement)}",
                                 line=lineno, source=source)
            prox = [_number(tok, "proximity target", line=lineno,
                            source=source) for tok in tokens[2:]]
        else:
            raise ParseError(
                f"malformed point statement {quote(statement)} (expected "
                f"'<id> origin' or '<id> -> <parent> [<second>]')",
                line=lineno, source=source)
        specs.append((pid, prox))
        line_of_id[pid] = lineno  # a duplicate's own line
    if surface is None:
        raise ParseError("empty input: no surface declaration", source=source)
    if not specs:
        raise ParseError("no points declared", source=source)
    try:
        return build_configuration(specs, surface)
    except ConfigurationError as err:
        raise ParseError(str(err), line=line_of_id.get(err.point_id),
                         source=source) from err


def _read_text(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text ({quote(err.reason)} at byte "
                         f"{quote(err.start)})",
                         line=len(_lines(data[:err.start].decode("utf-8"))),
                         source=str(path)) from None


def load_configuration(path: str | Path) -> Configuration:
    path = Path(path)
    return parse_configuration(_read_text(path), source=str(path))


def serialize_configuration(c: Configuration) -> str:
    try:
        lines = [f"surface {c.surface}"]
    except ValueError:  # a delta past the int/str cap: no file can hold it
        raise ValueError(f"no cluster file can declare the surface "
                         f"{surface_name(c.surface)}") from None
    for pid, prox in enumerate(c.proximities, start=1):
        if not prox:
            lines.append(f"{pid} origin")
        else:
            lines.append(f"{pid} -> {' '.join(str(t) for t in prox)}")
    return "\n".join(lines) + "\n"


_SPLIT_NUMBER_RE = re.compile(r"[0-9/]\s+[0-9/]")
_TERM_RE = re.compile(r"([+-]?)((?:\d+(?:/\d+)?)?)(L|F|M|E(\d+))",
                      re.IGNORECASE | re.ASCII)


def parse_divisor(text: str, surface: SurfaceModel, n: int) -> DivisorClass:
    """Parse a divisor literal over the given surface with n exceptional
    generators."""
    from .lattice import DivisorClass
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative int")
    if _SPLIT_NUMBER_RE.search(text):
        raise ParseError(f"whitespace inside a number in {quote(text)}")
    names = checked_surface(surface).generators
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty divisor literal")
    base: list[int | Fraction] = [0] * len(names)
    exceptional: dict[int, int | Fraction] = {}
    pos = 0
    first = True
    while pos < len(compact):
        match = _TERM_RE.match(compact, pos)
        if match is None:
            raise ParseError(f"cannot parse divisor literal "
                             f"{quote(text)} near {quote(compact[pos:])}")
        sign, coeff, generator, e_index = match.groups()
        if not first and not sign:
            raise ParseError(f"missing sign between terms in {quote(text)}")
        try:
            value = _number(coeff or "1", "coefficient",
                            Fraction if "/" in coeff else int)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in coefficient "
                             f"{quote(coeff)} of {quote(text)}") from None
        if sign == "-":
            value = -value
        generator = generator.upper()
        if generator.startswith("E"):
            index = _number(e_index, "exceptional index")
            if not 1 <= index <= n:
                raise ParseError(f"exceptional index E{quote(index)} out "
                                 f"of range 1..{quote(n)} in {quote(text)}")
            exceptional[index] = exceptional.get(index, 0) + value
        elif generator in names:
            base[names.index(generator)] += value
        else:
            raise ParseError(f"generator {generator} is not valid over "
                             f"{surface_name(surface)}")
        pos = match.end()
        first = False
    return DivisorClass._make(surface, n, base, exceptional)


def parse_curves(text: str, surface: SurfaceModel, n: int, *,
                 source: str = "<curves>") -> tuple[DivisorClass, ...]:
    """Parse a file with one divisor literal per line."""
    checked_surface(surface)
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative int")
    curves = []
    for lineno, statement in _statements(text, source):
        try:
            curves.append(parse_divisor(statement, surface, n))
        except ParseError as err:
            raise ParseError(str(err), line=lineno, source=source) from err
    return tuple(curves)


def load_curves(path: str | Path, surface: SurfaceModel,
                n: int) -> tuple[DivisorClass, ...]:
    path = Path(path)
    return parse_curves(_read_text(path), surface, n, source=str(path))
