"""Base surface models: the projective plane and the Hirzebruch surfaces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ParseError, _number, quote


@dataclass(frozen=True)
class ProjectivePlane:
    """The projective plane, with Picard group generated by a line."""

    generators = ("L",)  # names of the base Picard generators

    def __str__(self) -> str:
        return "p2"


@dataclass(frozen=True)
class Hirzebruch:
    """The ruled surface of invariant ``delta``, generated by fiber and section.

    The section class M has M^2 = delta; the special section M0 = M - delta*F
    has M0^2 = -delta.
    """

    generators = ("F", "M")  # fiber, section
    delta: int

    def __post_init__(self) -> None:
        if type(self.delta) is not int or self.delta < 0:
            raise ValueError("delta must be a nonnegative int")

    def __str__(self) -> str:
        return f"f {self.delta}"


SurfaceModel = Union[ProjectivePlane, Hirzebruch]


def is_plane(surface: SurfaceModel) -> bool:
    return isinstance(surface, ProjectivePlane)


def surface_name(surface: SurfaceModel) -> str:
    """``p2`` or ``f <delta>`` for an error message, delta by quote."""
    return "p2" if is_plane(surface) else f"f {quote(surface.delta)}"


def parse_surface(text: str, *, line: int | None = None,
                  source: str | None = None) -> SurfaceModel:
    """Parse a surface spec: ``p2`` or ``f <delta>``, in ASCII."""
    tokens = text.split() if text.isascii() else []
    if tokens and tokens[0].lower() == "surface":
        tokens = tokens[1:]
    if len(tokens) == 1 and tokens[0].lower() == "p2":
        return ProjectivePlane()
    if len(tokens) == 2 and tokens[0].lower() == "f" and tokens[1].isdigit():
        return Hirzebruch(_number(tokens[1], "delta", line=line,
                                  source=source))
    raise ParseError(f"invalid surface spec {quote(text)} "
                     "(expected 'p2' or 'f <delta>')", line=line, source=source)


def surface_json_fields(surface: SurfaceModel) -> dict:
    """JSON fields describing a surface: {'surface': 'p2'} or {'surface': 'f', 'delta': d}."""
    if is_plane(surface):
        return {"surface": "p2"}
    return {"surface": "f", "delta": surface.delta}
