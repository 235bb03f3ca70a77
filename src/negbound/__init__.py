"""Exact cluster combinatorics and negativity bounds for rational surfaces.

Given a cluster of infinitely near points over the projective plane or a
Hirzebruch surface, this package computes the cluster's proximity matrix,
multiplicity vector and exceptional self-intersections, the minimal degrees
attached to its single-origin components, exact intersection numbers on the
Picard lattice of the blown-up surface, and explicit lower bounds on
C^2/(D.C) over negative curves for several families of nef divisors D.
All arithmetic is exact (integers and rationals); nothing is ever rounded.
"""

from .bounds import (
    AttachedFoliationReport,
    BoundReport,
    ClusterData,
    CurveRatio,
    DeltaMembershipReport,
    FoliationBoundReport,
    FoliationDegree,
    HirzebruchBidegree,
    NuReport,
    PlaneDegree,
    WitnessCheck,
    attached_foliation_degree_bounds,
    cluster_bound_data,
    delta_membership_check,
    empirical_nu,
    epsilon_family_bounds,
    foliation_negativity_bound,
    nef_pullback_bounds,
    polarization_bounds,
)
from .config import (
    Configuration,
    ExceptionalSelfIntersections,
    Point,
    ProximityMatrix,
    analysis_report,
    build_configuration,
    dot_export,
    exceptional_self_intersections,
    multiplicity_vector,
    proximity_apply,
    proximity_matrix,
    proximity_solve,
    subconfiguration,
)
from .errors import (
    ConfigurationError,
    DuplicateIdError,
    ForwardReferenceError,
    InvalidSatelliteError,
    InvariantError,
    LatticeError,
    MultipleOriginsError,
    NegboundError,
    NonPositiveCoefficientError,
    NonPositiveEpsilonError,
    NormalizationError,
    NotHirzebruchError,
    ParseError,
    SurfaceMismatchError,
    TooManyProximitiesError,
    UnknownChartError,
    UnknownPointError,
)
from .fileformat import (
    load_configuration,
    load_curves,
    parse_configuration,
    parse_curves,
    parse_divisor,
    parse_rational,
    serialize_configuration,
)
from .lattice import (
    Bidegree,
    BidegreeBounds,
    DivisorClass,
    InvariantBoundReport,
    MultiplicityBoundReport,
    bidegree_of_closure,
    divisor_from_strict_coordinates,
    invariant_bound_check,
    multiplicity_bound_check,
    pairing,
    special_section_class,
    strict_exceptional_coordinates,
    strict_transform_of_exceptional,
)
from .sufficiency import (
    DValue,
    d_value,
    d_value_report,
    hat_configuration,
    origin_d_values,
    total_d,
)
from .surfaces import Hirzebruch, ProjectivePlane, SurfaceModel, parse_surface

__version__ = "0.1.0"
