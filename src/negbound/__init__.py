"""Exact cluster combinatorics and negativity bounds for rational surfaces.

Given a cluster of infinitely near points over the projective plane or a
Hirzebruch surface, this package computes the cluster's proximity matrix,
multiplicity vector and exceptional self-intersections, the minimal degrees
attached to its single-origin components, exact intersection numbers on the
Picard lattice of the blown-up surface, and explicit lower bounds on
C^2/(D.C) over negative curves for several families of nef divisors D.
All arithmetic is exact (integers and rationals); nothing is ever rounded.

The namespace is lazy (PEP 562): ``import negbound`` loads no submodule, and
a public name loads its module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it exports through the package.
_EXPORTS = {
    "bounds": """AttachedFoliationReport BoundReport ClusterData CurveRatio
        DeltaMembershipReport FoliationBoundReport FoliationDegree
        HirzebruchBidegree NuReport PlaneDegree WitnessCheck
        attached_foliation_degree_bounds cluster_bound_data
        delta_membership_check empirical_nu epsilon_family_bounds
        foliation_negativity_bound nef_pullback_bounds polarization_bounds""",
    "cli": "",
    "config": """Configuration ExceptionalSelfIntersections Point
        analysis_report build_configuration dot_export
        exceptional_self_intersections multiplicity_vector proximity_apply
        proximity_solve subconfiguration""",
    "errors": """ConfigurationError DuplicateIdError ForwardReferenceError
        InvalidSatelliteError InvariantError LatticeError MultipleOriginsError
        NegboundError NonPositiveEpsilonError NormalizationError
        NotHirzebruchError ParseError SurfaceMismatchError
        TooManyProximitiesError UnknownChartError UnknownPointError""",
    "fileformat": """load_configuration load_curves parse_configuration
        parse_curves parse_divisor parse_rational serialize_configuration""",
    "lattice": """Bidegree BidegreeBounds DivisorClass InvariantBoundReport
        MultiplicityBoundReport bidegree_of_closure
        divisor_from_strict_coordinates invariant_bound_check
        multiplicity_bound_check pairing special_section_class
        strict_exceptional_coordinates strict_transform_of_exceptional""",
    "sufficiency": """DValue d_value d_value_report hat_configuration
        origin_d_values total_d""",
    "surfaces": "Hirzebruch ProjectivePlane SurfaceModel parse_surface",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
