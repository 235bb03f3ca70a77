"""Satellite completion of single-origin clusters and the minimal degree d.

For a cluster with a unique origin, the completion adds, above each free end,
the one satellite point of the exceptional divisor created by blowing up that
end.  The degree d is the least positive integer making every component of
P^{-1} (d*e_1 - m) strictly positive over the completed cluster, where P is
the proximity matrix and m the multiplicity vector.  A generic germ through
the cluster is then determined, up to equisingularity, by its terms of degree
below d, which is what the downstream bound formulas consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (
    Configuration,
    multiplicity_vector,
    proximity_solve,
    subconfiguration,
)
from .errors import (
    InvariantError,
    MultipleOriginsError,
    NonPositiveCoefficientError,
    quote,
)


def hat_configuration(c: Configuration) -> Configuration:
    """Complete a single-origin cluster by one satellite above each free end.

    The new points are appended after the base points, ids ``len(c) + 1``
    on, in the order the free ends appear; each is proximate to its free end
    and to that end's unique proximity target (its parent).  A cluster with
    no free end gains nothing.  A free end has no successors, so no satellite
    sits at its (end, parent) pair yet: the completion of a valid cluster is
    valid as assembled.
    """
    origins = c.origins
    if len(origins) != 1:
        raise MultipleOriginsError(
            f"expected a unique origin, found {len(origins)}: "
            f"{quote(origins)}")
    proximities = list(c.proximities)
    for end in c.ends:
        prox = c.proximities[end - 1]
        if len(prox) == 1:
            proximities.append((end, prox[0]))
    return Configuration(tuple(proximities), c.surface)


@dataclass(frozen=True)
class DValue:
    """The minimal degree d for a single-origin cluster, with certificates.

    ``certificate`` is P^{-1}(d*e_1 - m) over the completed cluster (all
    entries positive); ``previous`` is the same vector at d - 1 (some entry
    nonpositive), witnessing minimality.
    """

    d: int
    certificate: tuple[int, ...]
    previous: tuple[int, ...]

    def __post_init__(self) -> None:
        if (self.d < 2 or not all(v > 0 for v in self.certificate)
                or all(v > 0 for v in self.previous)):
            raise InvariantError(
                f"d = {quote(self.d)} is not certified minimal: need "
                f"d >= 2, a positive certificate and a previous one that is not")

    @property
    def hat_size(self) -> int:
        """Number of points of the completed cluster."""
        return len(self.certificate)


def d_value(c: Configuration) -> DValue:
    """Compute the minimal degree of a single-origin cluster in closed form.

    With a = P^{-1} e_1 and b = P^{-1} m over the completed cluster, the
    component conditions d*a_i - b_i > 0 give d = max_i(floor(b_i/a_i) + 1).
    """
    hat = hat_configuration(c)
    a = proximity_solve(hat, [1] + [0] * (len(hat) - 1))
    b = proximity_solve(hat, multiplicity_vector(hat))
    bad = [i + 1 for i, ai in enumerate(a) if ai <= 0]
    if bad:
        raise NonPositiveCoefficientError(
            f"nonpositive unloading coefficients at points {quote(bad)}; "
            f"the cluster is not a single-origin cluster")
    d = max(bi // ai + 1 for ai, bi in zip(a, b))
    certificate = tuple(d * ai - bi for ai, bi in zip(a, b))
    return DValue(d=d, certificate=certificate,  # (d-1)a - b = c - a
                  previous=tuple(ci - ai for ci, ai in zip(certificate, a)))


def origin_d_values(c: Configuration) -> dict[int, DValue]:
    """The d-value of each connected component, keyed by its origin id in
    ``c``; derived once per proximities tuple and shared by
    ``replace(c, surface=...)``."""
    return c._shared("d_values", lambda c: {
        origin: d_value(subconfiguration(c, origin)) for origin in c.origins})


def total_d(c: Configuration) -> int:
    """Sum of the per-origin d-values over the whole cluster."""
    return sum(dv.d for dv in origin_d_values(c).values())


def d_value_report(c: Configuration) -> dict:
    """JSON-ready report: per-origin d with certificates, and the total."""
    return {
        "origins": [
            {"id": origin, "d": dv.d, "hat_size": dv.hat_size,
             "certificate": list(dv.certificate)}
            for origin, dv in origin_d_values(c).items()],
        "total_d": total_d(c),
    }
