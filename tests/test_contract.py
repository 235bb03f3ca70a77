"""The argument contract of every public callable: a wrong kind of value in
any positional parameter raises TypeError, ValueError or a NegboundError,
from a frame of the package, and never AttributeError.

``ENTRIES`` holds valid positional arguments for each callable that checks
its arguments, and for each parameter the probe kinds that are its own
kind; ``NOT_CHECKED`` names the callables that take any value, with the
reason.  A public callable in neither table fails the test, so a new
export must join one of them.
"""

from __future__ import annotations

import traceback
from fractions import Fraction
from pathlib import Path

import pytest

import negbound
from negbound import (
    Configuration,
    DivisorClass,
    NegboundError,
    PlaneDegree,
)
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import REPO_ROOT

P2, F1 = ProjectivePlane(), Hirzebruch(1)
CHAIN = Configuration(((), (1,)))
CLS = DivisorClass(P2, (1,), (-1, 0))
ON_F1 = DivisorClass(F1, (1, 1), (-1, 0))
SAMPLE = REPO_ROOT / "configs" / "sample12.cfg"
CURVES = REPO_ROOT / "tests" / "goldens" / "curves_p2.txt"
PACKAGE = Path(negbound.__file__).resolve().parent

# One value of each kind; a parameter's own kinds are skipped for it.
PROBES = {"int": 3, "None": None, "str": "x", "float": 1.5, "list": [1],
          "cluster": CHAIN, "class": CLS, "bool": True}
CLUSTER = {"cluster"}
CLASS = {"class"}
INT = {"int"}
TEXT = {"str"}
SEQUENCE = {"list"}
RATIONAL = {"int", "bool"}  # a bool is a numbers.Rational

# name -> (valid positional arguments, own kinds of each parameter)
ENTRIES = {
    "Configuration": (([(), (1,)], P2), (SEQUENCE, set())),
    "DValue": ((2, (1,), (0,)), (INT, SEQUENCE, SEQUENCE)),
    "DivisorClass": ((P2, (1,), (-1, 0)), (set(), SEQUENCE, SEQUENCE)),
    "Hirzebruch": ((1,), (INT,)),
    "HirzebruchBidegree": ((1, 2), (INT, INT)),
    "PlaneDegree": ((2,), (INT,)),
    "ProjectivePlane": ((), ()),
    "analysis_report": ((CHAIN,), (CLUSTER,)),
    "attached_foliation_degree_bounds": ((CHAIN,), (CLUSTER,)),
    "bidegree_of_closure": (("U00", 1, 2, 2, True),
                            (TEXT, INT, INT, INT, {"bool"})),
    "build_configuration": (([(1, ()), (2, (1,))], P2), (SEQUENCE, set())),
    "cluster_bound_data": ((CHAIN,), (CLUSTER,)),
    "d_value": ((CHAIN,), (CLUSTER,)),
    "d_value_report": ((CHAIN,), (CLUSTER,)),
    "delta_membership_check": ((CLS, CLS, Fraction(1, 2), [CLS]),
                               (CLASS, CLASS, RATIONAL, SEQUENCE)),
    "divisor_from_strict_coordinates": ((CHAIN, (1,), (0, 1)),
                                        (CLUSTER, SEQUENCE, SEQUENCE)),
    "dot_export": ((CHAIN,), (CLUSTER,)),
    "empirical_nu": (([CLS], CLS), (SEQUENCE, CLASS)),
    "epsilon_family_bounds": ((CHAIN, Fraction(1, 2), "stated"),
                              (CLUSTER, RATIONAL, TEXT)),
    "exceptional_self_intersections": ((CHAIN,), (CLUSTER,)),
    "foliation_negativity_bound": ((PlaneDegree(2), Fraction(1, 2)),
                                   (set(), RATIONAL | {"None"})),
    "hat_configuration": ((CHAIN,), (CLUSTER,)),
    "invariant_bound_check": ((CLS, CLS), (CLASS, CLASS)),
    "load_configuration": ((SAMPLE,), (TEXT,)),
    "load_curves": ((CURVES, P2, 12), (TEXT, set(), INT)),
    "multiplicity_bound_check": ((ON_F1,), (CLASS,)),
    "multiplicity_vector": ((CHAIN,), (CLUSTER,)),
    "nef_pullback_bounds": ((CHAIN, "stated"), (CLUSTER, TEXT)),
    "origin_d_values": ((CHAIN,), (CLUSTER,)),
    "pairing": ((CLS, CLS), (CLASS, CLASS)),
    "parse_configuration": (("surface p2\n1 origin\n",), (TEXT,)),
    "parse_curves": (("L - E1\n", P2, 2), (TEXT, set(), INT)),
    "parse_divisor": (("L - E1", P2, 2), (TEXT, set(), INT)),
    "parse_rational": (("1/2",), (TEXT,)),
    "parse_surface": (("f 1",), (TEXT,)),
    "polarization_bounds": ((CHAIN, "stated"), (CLUSTER, TEXT)),
    "proximity_apply": ((CHAIN, (1, 0)), (CLUSTER, SEQUENCE)),
    "proximity_solve": ((CHAIN, (1, 0)), (CLUSTER, SEQUENCE)),
    "serialize_configuration": ((CHAIN,), (CLUSTER,)),
    "special_section_class": ((F1, 2), (set(), INT)),
    "strict_exceptional_coordinates": ((CHAIN, CLS), (CLUSTER, CLASS)),
    "strict_transform_of_exceptional": ((CHAIN, 1), (CLUSTER, INT)),
    "subconfiguration": ((CHAIN, 1), (CLUSTER, INT)),
    "total_d": ((CHAIN,), (CLUSTER,)),
}

ERRORS = """ConfigurationError DuplicateIdError ForwardReferenceError
    InvalidSatelliteError InvariantError LatticeError MultipleOriginsError
    NegboundError NonPositiveEpsilonError NormalizationError
    NotHirzebruchError ParseError SurfaceMismatchError
    TooManyProximitiesError UnknownChartError UnknownPointError"""
RECORDS = """AttachedFoliationReport Bidegree BidegreeBounds BoundReport
    ClusterData CurveRatio DeltaMembershipReport ExceptionalSelfIntersections
    FoliationBoundReport InvariantBoundReport MultiplicityBoundReport
    NuReport Point WitnessCheck"""
NOT_CHECKED = {
    **dict.fromkeys(ERRORS.split(), "an exception takes any message"),
    **dict.fromkeys(RECORDS.split(), "a record of results the package "
                                     "built, with no checks of its own"),
    "FoliationDegree": "a type alias",
    "SurfaceModel": "a type alias",
}


def test_every_public_callable_is_in_one_table():
    public = {name for name in negbound.__all__
              if callable(getattr(negbound, name))}
    assert not set(ENTRIES) & set(NOT_CHECKED)
    assert public == set(ENTRIES) | set(NOT_CHECKED)


def test_each_entry_has_one_kind_set_per_argument():
    for name, (args, kinds) in ENTRIES.items():
        assert len(args) == len(kinds), name
        assert all(kind <= set(PROBES) for kind in kinds), name


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_the_valid_arguments_are_valid(name):
    args, _ = ENTRIES[name]
    getattr(negbound, name)(*args)


CASES = [(name, index, kind) for name, (_, kinds) in sorted(ENTRIES.items())
         for index, own in enumerate(kinds) for kind in PROBES
         if kind not in own]


@pytest.mark.parametrize("name, index, kind", CASES,
                         ids=[f"{n}-{i}-{k}" for n, i, k in CASES])
def test_a_wrong_kind_is_refused_in_the_package(name, index, kind):
    args, _ = ENTRIES[name]
    args = (*args[:index], PROBES[kind], *args[index + 1:])
    with pytest.raises(Exception) as info:
        getattr(negbound, name)(*args)
    err = info.value
    assert isinstance(err, (TypeError, ValueError, NegboundError)), repr(err)
    assert not isinstance(err, AttributeError), repr(err)
    last = traceback.extract_tb(info.tb)[-1]
    assert Path(last.filename).resolve().is_relative_to(PACKAGE), \
        f"{type(err).__name__} raised at {last.filename}:{last.lineno}"
