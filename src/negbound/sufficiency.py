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

from .config import (Configuration, _handed_on, _reverse_pass,
                     checked_cluster, subconfiguration)
from .errors import InvariantError, MultipleOriginsError, quote


def hat_configuration(c: Configuration) -> Configuration:
    """Complete a single-origin cluster by one satellite above each free end:
    ids ``len(c) + 1`` on, by ascending end, each proximate to its end and the
    end's parent.  A free end has no successors, so no satellite sits at its
    (end, parent) pair yet: the completion of a valid cluster is valid as built.
    """
    return _handed_on(_completion(c)[0], c.surface)


def _completion(c: Configuration) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    # The completion's proximities and multiplicities: after the base points,
    # a satellite (free end, parent) of multiplicity 1 per free end, ascending.
    origins = checked_cluster(c).origins
    if len(origins) != 1:
        raise MultipleOriginsError(
            f"expected a unique origin, found {len(origins)}: "
            f"{quote(origins)}")
    m, free_ends = _reverse_pass(c.proximities, 1)
    satellites = [(end, c.proximities[end - 1][0]) for end in reversed(free_ends)]
    return c.proximities + tuple(satellites), m + [1] * len(satellites)


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
        if (self.d < 2 or min(self.certificate, default=1) <= 0
                or min(self.previous, default=1) > 0):
            raise InvariantError(
                f"d = {quote(self.d)} is not certified minimal: need "
                f"d >= 2, a positive certificate and a previous one that is not")

    @property
    def hat_size(self) -> int:
        """Number of points of the completed cluster."""
        return len(self.certificate)


def d_value(c: Configuration) -> DValue:
    """Compute the minimal degree of a single-origin cluster in closed form.

    The completion adds a satellite (e, p) above each free end e, an end
    whose one target is its parent p.  With a = P^{-1} e_1 and b = P^{-1} m
    over it, d*a_i > b_i for all i gives d = max_i(floor(b_i/a_i) + 1).  No
    completion is built: a reverse pass gives m at the base points, a forward
    pass a and b there, and each (e, p) appends a_e + a_p and 1 + b_e + b_p.
    Each a_i >= 1 by induction: a_1 = 1, and each later a_i, appended or not,
    sums a_t over its targets t, one of them its parent, as c is valid.
    """
    proximities, b = _completion(c)
    a = [1] + [0] * (len(b) - 1)
    for i, prox in enumerate(proximities):
        for t in prox:
            a[i] += a[t - 1]
            b[i] += b[t - 1]
    d = max([bi // ai for ai, bi in zip(a, b)]) + 1
    certificate = tuple([d * ai - bi for ai, bi in zip(a, b)])
    return DValue(d=d, certificate=certificate,  # (d-1)a - b = c - a
                  previous=tuple([ci - ai for ci, ai in zip(certificate, a)]))


def origin_d_values(c: Configuration) -> dict[int, DValue]:
    """The d-value of each connected component, keyed by its origin id in ``c``."""
    return checked_cluster(c)._shared("d_values", lambda c: {
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
