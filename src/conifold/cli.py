"""Command-line interface.

Subcommands
-----------
periods     period sequence (and optional recurrence) of a fan polytope
transition  full nodal-analysis report with per-resolution regularity
match       rank database records against an analyzed polytope
resolve     enumerate the 2^N small resolutions (no regularity scan)
recurrence  run the recurrence finder on a stored integer sequence

JSON output is the machine contract: stable key order, canonical vertex
and facet orderings, byte-identical across runs.  Table output is for
humans only.  Errors are reported as JSON on stderr; exit codes are
0 success, 2 input error, 3 budget exceeded, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .errors import ConifoldError, ParseError
from .fanodb import load_database, match
from .lattice import polytope_from_json_dict
from .laurent import from_fan_polytope, period_sequence
from .nodal import (
    DEFAULT_RESOLUTION_CAP,
    SmoothingMode,
    check_regularity,
    enumerate_small_resolutions,
    nodal_profile,
    report_json_dict,
    transition_invariants,
)
from .recurrence import find_recurrence, gw_labeling


# ---------------------------------------------------------------------------
# input helpers


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise ParseError(f"{path}: is a directory") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None


def _load_polytope(path):
    return polytope_from_json_dict(_load_json_file(path))


def _load_sequence(path) -> list[int]:
    data = _load_json_file(path)
    if isinstance(data, dict):
        data = data.get("periods")
    if not isinstance(data, list) or not data or any(type(c) is not int for c in data):
        raise ParseError(
            f"{path}: expected a JSON list of integers "
            "(or an object with a 'periods' list)"
        )
    return data


def _int_at_least(low: int):
    """argparse ``type=`` for an integer option bounded below.  A bad value
    raises ParseError, which argparse passes through to ``main``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise ParseError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _render_table(headers, rows) -> str:
    cells = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def _emit_kv_table(pairs) -> None:
    print(_render_table(("field", "value"), pairs))


# ---------------------------------------------------------------------------
# subcommands


def cmd_periods(args) -> int:
    p = _load_polytope(args.polytope)
    w = from_fan_polytope(p)
    seq = period_sequence(w, args.dmax)
    payload = {
        "dmax": args.dmax,
        "periods": list(seq.terms),
        "gw": [
            {"d": d, "label": label, "value": value}
            for d, label, value in gw_labeling(seq)
        ],
    }
    if args.recurrence:
        rec = find_recurrence(
            seq,
            rmax=args.rmax,
            degree_max=args.degree_max,
            holdout=args.holdout,
            stride=args.stride,
        )
        if rec is None:
            payload["recurrence"] = None
        else:
            payload["recurrence"] = rec.to_json_dict()
            payload["recurrence"]["pretty"] = str(rec)
    if args.output == "table":
        rows = [(g["d"], g["value"], g["label"] or "") for g in payload["gw"]]
        print(_render_table(("d", "c_d", "gromov-witten"), rows))
        if args.recurrence:
            rec = payload["recurrence"]
            print()
            print("recurrence:", rec["pretty"] if rec else "none found within caps")
    else:
        _emit_json(payload)
    return 0


def cmd_transition(args) -> int:
    p = _load_polytope(args.polytope)
    profile = nodal_profile(p)
    report = transition_invariants(p, profile, SmoothingMode(args.mode))
    resolutions = enumerate_small_resolutions(profile, cap=args.resolution_cap)
    resolutions = check_regularity(profile, resolutions)
    payload = report_json_dict(report, resolutions=resolutions)
    if args.output == "table":
        skip = {"resolutions", "note"}
        _emit_kv_table([(k, payload[k]) for k in sorted(payload) if k not in skip])
        print()
        rows = [(r["diagonals"], r["regular"]) for r in payload["resolutions"]]
        print(_render_table(("diagonals", "regular"), rows))
    else:
        _emit_json(payload)
    return 0


def cmd_match(args) -> int:
    p = _load_polytope(args.polytope)
    report = transition_invariants(p, nodal_profile(p))
    w = from_fan_polytope(p)
    seq = period_sequence(w, args.dmax)
    db = load_database(args.database)
    candidates = match(report, seq, db)
    payload = {
        "query": {
            "degree": report.degree,
            "e": report.e_sm,
            "b2": report.b2_sm,
            "b3": report.b3_sm,
            "periods": list(seq.terms),
        },
        "candidates": [c.to_json_dict() for c in candidates],
    }
    if args.output == "table":
        if not candidates:
            print("no candidates")
        else:
            rows = [
                (c["name"], c["degree"], c["e"], c["b2"], c["b3"], c["overlap"])
                for c in payload["candidates"]
            ]
            print(_render_table(("name", "degree", "e", "b2", "b3", "overlap"), rows))
    else:
        _emit_json(payload)
    return 0


def cmd_resolve(args) -> int:
    p = _load_polytope(args.polytope)
    profile = nodal_profile(p)
    resolutions = enumerate_small_resolutions(profile, cap=args.resolution_cap)
    triangle_count = len(p.facets) + profile.node_count  # e_res of the report
    payload = {
        "N": profile.node_count,
        "count": len(resolutions),
        "resolutions": [
            {"diagonals": r.diagonal_string(), "triangle_count": triangle_count}
            for r in resolutions
        ],
    }
    if args.output == "table":
        rows = [(r["diagonals"], r["triangle_count"]) for r in payload["resolutions"]]
        print(_render_table(("diagonals", "triangles"), rows))
    else:
        _emit_json(payload)
    return 0


def cmd_recurrence(args) -> int:
    terms = _load_sequence(args.sequence)
    rec = find_recurrence(
        terms,
        rmax=args.rmax,
        degree_max=args.degree_max,
        holdout=args.holdout,
        stride=args.stride,
    )
    if rec is None:
        payload = {"found": False}
    else:
        payload = {"found": True}
        payload.update(rec.to_json_dict())
        payload["pretty"] = str(rec)
    if args.output == "table":
        print(payload["pretty"] if payload["found"] else "none found within caps")
    else:
        _emit_json(payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_output_flag(sp) -> None:
    sp.add_argument(
        "--output",
        choices=("json", "table"),
        default="json",
        help="json (machine contract, default) or table (human-readable)",
    )


def _add_recurrence_flags(sp, rmax_default, degree_default) -> None:
    sp.add_argument("--rmax", type=_int_at_least(1), default=rmax_default,
                    help=f"largest recurrence order to try (default {rmax_default})")
    sp.add_argument("--degree-max", type=_int_at_least(0), default=degree_default,
                    help=f"largest coefficient degree to try (default {degree_default})")
    sp.add_argument("--holdout", type=_int_at_least(1), default=5,
                    help="terms reserved to confirm a candidate (default 5)")
    sp.add_argument("--stride", type=_int_at_least(1), default=1,
                    help="subsample the sequence: keep every stride-th term")


class _Parser(argparse.ArgumentParser):
    """Usage errors (missing argument, unknown flag, bad choice) raise
    ParseError, so ``main`` reports them as JSON like every other input
    error.  ``add_subparsers`` builds each subcommand with this class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@cache  # built once per process: parse_args keeps no state on the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conifold",
        description="Nodal toric Fano threefolds from their fan polytopes: "
        "period sequences, small resolutions, transition topology, "
        "recurrence guessing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("periods", help="period sequence of a fan polytope")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("--dmax", type=_int_at_least(0), default=20,
                    help="highest power computed (default 20)")
    sp.add_argument("--recurrence", action="store_true",
                    help="also search for a polynomial-coefficient recurrence")
    _add_recurrence_flags(sp, rmax_default=3, degree_default=2)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_periods)

    sp = sub.add_parser("transition", help="nodal analysis and transition report")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("--mode", choices=("fano", "cy"), default="fano",
                    help="smoothability criterion to apply (default fano)")
    sp.add_argument("--resolution-cap", type=_int_at_least(0),
                    default=DEFAULT_RESOLUTION_CAP,
                    help="refuse polytopes with more conifold squares than this")
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_transition)

    sp = sub.add_parser("match", help="rank database records against a polytope")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("database", help="line-oriented JSON database file")
    sp.add_argument("--dmax", type=_int_at_least(0), default=20,
                    help="period terms computed for the comparison (default 20)")
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("resolve", help="enumerate small resolutions only")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("--resolution-cap", type=_int_at_least(0),
                    default=DEFAULT_RESOLUTION_CAP)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("recurrence", help="recurrence finder on a stored sequence")
    sp.add_argument("sequence", help="JSON file: list of integers, or {\"periods\": [...]}")
    _add_recurrence_flags(sp, rmax_default=4, degree_default=3)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_recurrence)

    return parser


def _emit_error(exc: BaseException, kind: str) -> None:
    body = {"type": kind, "message": str(exc) or kind}
    facets = getattr(exc, "facets", None)
    if facets:
        body["facets"] = list(facets)
    print(json.dumps({"error": body}, indent=2, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConifoldError as exc:
        _emit_error(exc, type(exc).__name__)
        return exc.exit_code
    except AssertionError as exc:
        _emit_error(exc, "InternalInvariant")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
