"""The benchmark's own reference computations, from spec lists only.

Nothing here imports negbound: every expected value the benchmark checks the
program against is recomputed from the ``(id, proximities)`` lists the
generators emit.  ``P`` has at most three nonzeros per row (1 on the
diagonal, -1 at each proximity target), so every solve is an O(n) forward
substitution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from gen import Spec


def successors(specs: Sequence[Spec]) -> list[list[int]]:
    """``succ[q - 1]``: the ids proximate to q, ascending."""
    succ: list[list[int]] = [[] for _ in specs]
    for pid, prox in specs:
        for target in prox:
            succ[target - 1].append(pid)
    return succ


def components(specs: Sequence[Spec]) -> dict[int, list[Spec]]:
    """Split into single-origin clusters, renumbered 1..k, keyed by origin id.

    A point belongs to its parent's component, so one pass in id order labels
    every point.
    """
    origin_of: dict[int, int] = {}
    members: dict[int, list[Spec]] = {}
    for pid, prox in specs:
        origin = pid if not prox else origin_of[prox[0]]
        origin_of[pid] = origin
        members.setdefault(origin, []).append((pid, prox))
    split = {}
    for origin, part in members.items():
        renumber = {old: new for new, (old, _) in enumerate(part, start=1)}
        split[origin] = [(renumber[pid], tuple(renumber[t] for t in prox))
                         for pid, prox in part]
    return split


def hat(specs: Sequence[Spec]) -> list[Spec]:
    """Satellite completion: one satellite above each free end, in id order."""
    if len(specs) == 1:
        return list(specs)
    succ = successors(specs)
    extended = list(specs)
    for pid, prox in specs:
        if not succ[pid - 1] and len(prox) == 1:
            extended.append((len(extended) + 1, (pid, prox[0])))
    return extended


def multiplicities(specs: Sequence[Spec]) -> list[int]:
    """1 at the ends, the sum over proximate successors elsewhere."""
    m = [0] * len(specs)
    succ = successors(specs)
    for index in range(len(specs) - 1, -1, -1):
        m[index] = sum(m[s - 1] for s in succ[index]) if succ[index] else 1
    return m


def solve(specs: Sequence[Spec], w: Sequence) -> list:
    """v with P v = w: v_i = w_i + sum of v_t over the targets t of i."""
    v: list = []
    for (pid, prox), wi in zip(specs, w):
        v.append(wi + sum(v[t - 1] for t in prox))
    return v


def apply(specs: Sequence[Spec], v: Sequence) -> list:
    """P v: (P v)_i = v_i - sum of v_t over the targets t of i."""
    return [vi - sum(v[t - 1] for t in prox) for (_, prox), vi in zip(specs, v)]


def end_indicator_holds(specs: Sequence[Spec], m: Sequence[int]) -> bool:
    """P^t m equals the end indicator: m_q - sum_{p -> q} m_p is 1 at ends, else 0."""
    succ = successors(specs)
    return all(m[q] - sum(m[p - 1] for p in succ[q]) == (0 if succ[q] else 1)
               for q in range(len(specs)))


class OriginD(NamedTuple):
    d: int
    hat_size: int
    certificate: list[int]


def d_value(specs: Sequence[Spec]) -> OriginD:
    """Minimal d of a single-origin cluster with a = P^-1 e_1, b = P^-1 m over
    the completion: the least d with d*a - b > 0 everywhere.  a_1 = 1 and
    b_1 = m_1 >= 1, so d >= 2."""
    extended = hat(specs)
    a = solve(extended, [1] + [0] * (len(extended) - 1))
    b = solve(extended, multiplicities(extended))
    if any(ai <= 0 for ai in a):
        raise ValueError("nonpositive unloading coefficient")
    d = max(bi // ai + 1 for ai, bi in zip(a, b))
    return OriginD(d=d, hat_size=len(extended),
                   certificate=[d * ai - bi for ai, bi in zip(a, b)])


def surface_fields(surface: str) -> dict:
    if surface == "p2":
        return {"surface": "p2"}
    return {"surface": "f", "delta": int(surface.split()[1])}


def bound_terms(kind: str, surface: str, n: int, d: int, gamma: int,
                epsilon: Fraction | None = None) -> list[Fraction]:
    """The paper's terms; the bound is their minimum.

    ``kind`` is "pullback" (nef pullbacks and the polarization itself) or
    "epsilon" (the epsilon family, scaled terms plus -gamma).
    """
    if surface == "p2":
        terms = [Fraction(3 - 2 * d), Fraction(d * (1 - n))]
    else:
        delta = int(surface.split()[1])
        terms = [Fraction(2 - 2 * d - delta), Fraction(-n - delta),
                 Fraction(-(delta + 2) * d * n)]
    if kind == "epsilon":
        terms = [t / epsilon for t in terms] + [Fraction(-gamma)]
    return terms


class Expected(NamedTuple):
    """Everything the benchmark checks for one cluster."""

    analysis: dict          # the JSON-ready analysis report
    dvalue: dict            # the JSON-ready d report
    n_stated: int
    n_example: int
    d: int
    gamma: int
    hats: dict[int, list[Spec]]   # satellite completion of each component


def expected(specs: Sequence[Spec], surface: str) -> Expected:
    succ = successors(specs)
    level: list[int] = []
    points = []
    for pid, prox in specs:
        level.append(level[prox[0] - 1] + 1 if prox else 0)
        points.append({"id": pid, "level": level[-1],
                       "kind": ("origin", "free", "satellite")[len(prox)],
                       "proximities": list(prox), "e_sq": -1 - len(succ[pid - 1])})
    gamma = max(-p["e_sq"] for p in points)
    analysis = surface_fields(surface)
    analysis.update(points=points, gamma=gamma,
                    origins=[pid for pid, prox in specs if not prox],
                    ends=[pid for pid, _ in specs if not succ[pid - 1]])
    parts = components(specs)
    per_origin = {origin: d_value(part) for origin, part in parts.items()}
    total = sum(od.d for od in per_origin.values())
    dvalue = {"origins": [{"id": origin, "d": od.d, "hat_size": od.hat_size,
                           "certificate": od.certificate}
                          for origin, od in per_origin.items()],
              "total_d": total}
    return Expected(analysis=analysis, dvalue=dvalue, n_stated=len(specs),
                    n_example=sum(od.hat_size for od in per_origin.values()),
                    d=total, gamma=gamma,
                    hats={origin: hat(part) for origin, part in parts.items()})


def empirical_nu(specs: Sequence[Spec], r: Sequence[int]) -> Fraction | None:
    """nu of D = (base) - sum r_i E_i over the strict transforms E_q of the
    exceptional curves: E_q^2 = -1 - #succ(q) and D.E_q = r_q - sum_{p->q} r_p,
    since E_q has no base part."""
    succ = successors(specs)
    ratios = []
    for q in range(len(specs)):
        dc = r[q] - sum(r[p - 1] for p in succ[q])
        if dc > 0:
            ratios.append(Fraction(-1 - len(succ[q]), dc))
    return min(ratios) if ratios else None
