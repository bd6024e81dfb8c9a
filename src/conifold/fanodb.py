"""File-backed database of named varieties and invariant-based matching.

The database is line-oriented JSON: one record per line, blank lines
ignored.  Each record names a variety together with the integer
invariants of its anticanonical model and a prefix of its period
sequence, e.g.::

    {"name": "P3", "degree": 64, "e": 4, "b2": 1, "b3": 0,
     "periods": [1, 0, 0, 0, 24], "provenance": "computed"}

``load_database`` returns each record as that JSON object with exactly
these seven keys: ``periods`` defaults to [] and ``provenance`` to
"user", and other keys are dropped.  ``match`` compares a query (the
smoothing side of a transition report, under the record's names degree,
e, b2, b3) and a computed period sequence against the records: a
candidate must agree exactly on those four invariants and on every
period term where the two sequences overlap.  All quantities are
integers, so matching is exact; there is no fuzzy tolerance.  Candidates
are ranked by overlap length (longer overlap first), ties broken by name.

The bundled database contains only records this package computed from
its own bundled polytopes.  Records for non-toric varieties are the
user's to supply: append lines with ``provenance": "user"``.
"""

from __future__ import annotations

import json

from .errors import DuplicateName, ParseError, read_input

_PROVENANCES = ("computed", "user")
_INVARIANTS = ("degree", "e", "b2", "b3")


def _record_from_dict(data: dict, where: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(data).__name__}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: missing or invalid 'name'")
    for f in _INVARIANTS:
        if f not in data:
            raise ParseError(f"{where}: record {name!r} lacks field {f!r}")
        if type(data[f]) is not int:
            raise ParseError(f"{where}: record {name!r} field {f!r} must be an integer")
    periods = data.get("periods", [])
    if not isinstance(periods, list) or any(type(c) is not int for c in periods):
        raise ParseError(f"{where}: record {name!r} field 'periods' must be a list of integers")
    provenance = data.get("provenance", "user")
    if not isinstance(provenance, str):
        raise ParseError(f"{where}: record {name!r} field 'provenance' must be a string")
    if periods and periods[0] != 1:
        raise ParseError(f"{where}: record {name!r}: period prefix must start with 1, "
                         f"got {periods[0]}")
    if provenance not in _PROVENANCES:
        raise ParseError(f"{where}: record {name!r}: provenance must be one of "
                         f"{_PROVENANCES}, got {provenance!r}")
    return {"name": name, **{f: data[f] for f in _INVARIANTS},
            "periods": periods, "provenance": provenance}


def load_database(path) -> list[dict]:
    """Parse a line-oriented JSON database file.

    Raises ParseError with the offending line number, DuplicateName if a
    record name appears twice.
    """

    def parse(fh) -> list[dict]:
        records: list[dict] = []
        seen: set[str] = set()
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON ({exc.msg})") from None
            except ValueError:  # int() refuses a literal past its digit limit
                raise ParseError(f"{where}: integer literal too long") from None
            rec = _record_from_dict(data, where)
            if rec["name"] in seen:
                raise DuplicateName(f"{where}: duplicate record name {rec['name']!r}")
            seen.add(rec["name"])
            records.append(rec)
        return records

    return read_input(path, parse)


def match(query, terms, db) -> list[dict]:
    """Rank database records compatible with a query.

    ``query`` maps the database's invariant names (degree, e, b2, b3) to
    the smoothing side of a transition report; ``terms`` are the period
    terms c_0, c_1, ... of the fan polytope's vertex Laurent polynomial.
    A record survives iff all four invariants agree and the period
    prefixes agree on their common range.  Extending either sequence can
    only shrink the candidate set, never grow it.  Each candidate is the
    record's JSON object with its ``overlap``, the number of period terms
    compared (and found equal), in place of its periods.
    """
    out = []
    for rec in db:
        if any(rec[f] != query[f] for f in _INVARIANTS):
            continue
        periods = rec["periods"]
        overlap = min(len(terms), len(periods))
        if any(terms[i] != periods[i] for i in range(overlap)):
            continue
        out.append({**{k: v for k, v in rec.items() if k != "periods"}, "overlap": overlap})
    out.sort(key=lambda c: (-c["overlap"], c["name"]))
    return out
