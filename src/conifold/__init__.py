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

Each public name is imported from its module on first use (PEP 562), so
``import conifold`` itself loads no layer.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ConifoldError", "DimensionMismatch", "DuplicateName",
        "EmptyInput", "InsufficientData", "NotFullDimensional", "NotReflexive",
        "NotReflexiveFacet", "OriginNotInterior", "ParseError", "WorseThanNodal",
    ),
    "fanodb": ("load_database", "match"),
    "lattice": (
        "Facet", "Polytope", "convex_hull", "is_reflexive", "normalized_volume",
        "polar_dual", "polytope_from_json_dict", "rational_hull",
    ),
    "laurent": (
        "LaurentPolynomial", "PeriodSequence", "from_fan_polytope",
        "period_sequence", "period_term_direct",
    ),
    "nodal": (
        "NodalProfile", "SmallResolution", "check_regularity", "classify_facet",
        "enumerate_small_resolutions", "exceptional_relation_matrix",
        "exceptional_relation_rank", "friedman_smoothable",
        "is_regular_triangulation", "nodal_profile", "report_json_dict",
        "transition_invariants",
    ),
    "recurrence": ("Recurrence", "find_recurrence", "gw_labeling", "verify_recurrence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import the module that defines a public name on its first read and
    keep the name in the package, so later reads skip this hook."""
    from importlib import import_module

    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
