"""Exact-arithmetic toolkit for nodal toric Fano threefolds.

A reflexive lattice 3-polytope whose facets are unimodular triangles
and conifold squares (empty parallelograms) defines a toric Fano
threefold with only ordinary double points.  This package analyzes such
polytopes end to end:

* lattice geometry: exact convex hulls and reflexivity, with polar duals
  and normalized volumes kept as test oracles (``conifold.lattice``);
* period sequences of the vertex Laurent polynomial, with a brute-force
  cross-check oracle (``conifold.laurent``);
* recurrence guessing for those sequences (``conifold.recurrence``);
* nodal analysis: conifold squares, the 2^N small resolutions and their
  projectivity, smoothability, and the topology of the associated
  conifold transition (``conifold.nodal``);
* a small database of self-computed invariants for identifying
  smoothings (``conifold.fanodb``).

Everything is computed over exact integers and rationals; there is no
floating point anywhere in the pipeline.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConifoldError,
    DimensionMismatch,
    DuplicateName,
    EmptyInput,
    InsufficientData,
    NotFullDimensional,
    NotReflexive,
    NotReflexiveFacet,
    OriginNotInterior,
    ParseError,
    WorseThanNodal,
)
from .fanodb import load_database, match
from .lattice import (
    Facet,
    Polytope,
    convex_hull,
    is_reflexive,
    normalized_volume,
    polar_dual,
    polytope_from_json_dict,
    rational_hull,
)
from .laurent import (
    LaurentPolynomial,
    PeriodSequence,
    from_fan_polytope,
    period_sequence,
    period_term_direct,
)
from .nodal import (
    NodalProfile,
    SmallResolution,
    check_regularity,
    classify_facet,
    enumerate_small_resolutions,
    exceptional_relation_matrix,
    exceptional_relation_rank,
    friedman_smoothable,
    is_regular_triangulation,
    nodal_profile,
    report_json_dict,
    transition_invariants,
)
from .recurrence import Recurrence, find_recurrence, gw_labeling, verify_recurrence

__all__ = [
    "__version__",
    "BudgetExceeded",
    "ConifoldError",
    "DimensionMismatch",
    "DuplicateName",
    "EmptyInput",
    "Facet",
    "InsufficientData",
    "LaurentPolynomial",
    "NodalProfile",
    "NotFullDimensional",
    "NotReflexive",
    "NotReflexiveFacet",
    "OriginNotInterior",
    "ParseError",
    "PeriodSequence",
    "Polytope",
    "Recurrence",
    "SmallResolution",
    "WorseThanNodal",
    "check_regularity",
    "classify_facet",
    "convex_hull",
    "enumerate_small_resolutions",
    "exceptional_relation_matrix",
    "exceptional_relation_rank",
    "find_recurrence",
    "friedman_smoothable",
    "from_fan_polytope",
    "gw_labeling",
    "is_reflexive",
    "is_regular_triangulation",
    "load_database",
    "match",
    "nodal_profile",
    "normalized_volume",
    "period_sequence",
    "period_term_direct",
    "polar_dual",
    "polytope_from_json_dict",
    "rational_hull",
    "report_json_dict",
    "transition_invariants",
    "verify_recurrence",
]
