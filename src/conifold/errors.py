"""Structured exception types shared across the package, and the one
reader of input files.

Every error the command-line driver can surface to a user derives from
ConifoldError and carries an exit code: 2 for bad input, 3 for a refused
budget. Internal invariant violations are deliberately *not* modelled here;
those surface as AssertionError and map to exit code 4.  ``read_input``
turns every failure to open, decode or parse an input file into a
ParseError.
"""

import json


class ConifoldError(Exception):
    exit_code = 2


class EmptyInput(ConifoldError):
    """A hull was requested for an empty point set."""


class NotFullDimensional(ConifoldError):
    """The affine span of the input points is smaller than the ambient
    dimension."""


class OriginNotInterior(ConifoldError):
    """The origin is not a strict interior point of the polytope."""


class DimensionMismatch(ConifoldError):
    """Operands live in different ambient dimensions."""


class NotReflexive(ConifoldError):
    """The polytope is not reflexive (some facet level differs from -1)."""


class NotReflexiveFacet(ConifoldError):
    """A facet at level other than -1 was handed to the facet classifier."""


class WorseThanNodal(ConifoldError):
    """Some facet is neither a unimodular triangle nor an empty
    parallelogram, so the toric variety has worse than ordinary double
    point singularities.  ``facets`` lists the offending facet indices."""

    def __init__(self, message, facets=()):
        super().__init__(message)
        self.facets = tuple(facets)


class BudgetExceeded(ConifoldError):
    """A computation was refused because it exceeds a configured cap."""

    exit_code = 3


class InsufficientData(ConifoldError):
    """Too few sequence terms for the requested recurrence search."""


class ParseError(ConifoldError):
    """A database or input file failed to parse; the message carries the
    line number and field."""


class DuplicateName(ConifoldError):
    """Two database records share a name."""


def read_input(path, parse=json.load):
    """``parse`` of the file at ``path`` as UTF-8 text: every polytope,
    sequence and database file is read here.  A file that cannot be opened
    or decoded, or whose JSON is invalid, nested too deeply or holds an
    integer past ``int``'s digit limit, raises ParseError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except FileNotFoundError:
        reason = "no such file"
    except IsADirectoryError:
        reason = "is a directory"
    except OSError as exc:
        reason = f"cannot open ({exc.strerror})"
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except RecursionError:
        reason = "JSON nested too deeply"
    except json.JSONDecodeError as exc:
        reason = f"invalid JSON ({exc.msg}, line {exc.lineno})"
    except ValueError:  # int() refuses a literal past its digit limit
        reason = "integer literal too long"
    raise ParseError(f"{path}: {reason}")
