"""Command-line interface.

Subcommands
-----------
periods     period sequence (and optional recurrence) of a fan polytope
transition  full nodal-analysis report with per-resolution regularity
match       rank database records against an analyzed polytope
resolve     enumerate the 2^N small resolutions (no regularity scan)
recurrence  run the recurrence finder on a stored integer sequence

Each ``cmd_*`` function returns its subcommand's JSON payload and prints
nothing; each ``_*_table`` function renders that payload, and nothing
else, as text.  ``main`` is the one place that reads ``--output`` and
prints.  JSON output is the machine contract: stable key order,
canonical vertex and facet orderings, byte-identical across runs.  One
writer, ``_json``, prints it and the error object in one pass, byte for
byte as ``json.dumps(value, indent=2, sort_keys=True)`` would, which the
tests hold it to.  Table output is for humans only.  Errors are reported
as JSON on stderr; exit codes are 0 success, 2 input error, 3 budget
exceeded, 4 internal invariant violation, 141 (128 + SIGPIPE) when the
stdout reader left.

Each ``cmd_*`` function imports the layers its subcommand runs when it is
called and finds their functions on those modules, so a process loads
only the layers its command needs, ``--version`` none, and a function
rebound on its module is the one the command calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import ConifoldError, ParseError, read_input


# ---------------------------------------------------------------------------
# input helpers


def _load_sequence(path) -> list[int]:
    data = read_input(path)
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


def _recurrence_payload(terms, args) -> dict | None:
    """The recurrence of every ``args.stride``-th term found within the caps
    of ``args``, with its ``pretty`` form, or None."""
    from . import recurrence

    rec = recurrence.find_recurrence(terms[::args.stride], rmax=args.rmax,
                                     degree_max=args.degree_max)
    return None if rec is None else {**rec.to_json_dict(), "pretty": str(rec)}


# ---------------------------------------------------------------------------
# subcommands: each returns its JSON payload


def cmd_periods(args) -> dict:
    from . import lattice, laurent, recurrence

    p = lattice.polytope_from_json_dict(read_input(args.polytope))
    terms = laurent.period_sequence(laurent.from_fan_polytope(p), args.dmax).terms
    payload = {"dmax": args.dmax, "periods": list(terms),
               "gw": recurrence.gw_labeling(terms)}
    if args.recurrence:
        payload["recurrence"] = _recurrence_payload(terms, args)
    return payload


def cmd_transition(args) -> dict:
    from . import lattice, nodal

    p = lattice.polytope_from_json_dict(read_input(args.polytope))
    profile = nodal.nodal_profile(p)
    report = nodal.transition_invariants(p, profile, args.mode)
    return nodal.report_json_dict(report, resolutions=nodal.check_regularity(profile))


def cmd_match(args) -> dict:
    from . import fanodb, lattice, laurent, nodal

    p = lattice.polytope_from_json_dict(read_input(args.polytope))
    report = nodal.transition_invariants(p, nodal.nodal_profile(p))
    terms = laurent.period_sequence(laurent.from_fan_polytope(p), args.dmax).terms
    query = {"degree": report["degree"], "e": report["e_sm"], "b2": report["b2_sm"],
             "b3": report["b3_sm"], "periods": list(terms)}
    db = fanodb.load_database(args.database)
    return {"query": query, "candidates": fanodb.match(query, terms, db)}


def cmd_resolve(args) -> dict:
    from . import lattice, nodal

    p = lattice.polytope_from_json_dict(read_input(args.polytope))
    profile = nodal.nodal_profile(p)
    resolutions = nodal.enumerate_small_resolutions(profile)
    triangle_count = len(p.facets) + profile.node_count  # e_res of the report
    return {
        "N": profile.node_count,
        "count": len(resolutions),
        "resolutions": [
            {"diagonals": r, "triangle_count": triangle_count}
            for r in resolutions
        ],
    }


def cmd_recurrence(args) -> dict:
    rec = _recurrence_payload(_load_sequence(args.sequence), args)
    return {"found": False} if rec is None else {"found": True, **rec}


# ---------------------------------------------------------------------------
# tables: each renders one subcommand's payload


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


def _periods_table(payload) -> str:
    rows = [(g["d"], g["value"], g["label"] or "") for g in payload["gw"]]
    text = _render_table(("d", "c_d", "gromov-witten"), rows)
    if "recurrence" not in payload:
        return text
    rec = payload["recurrence"]
    return f"{text}\n\nrecurrence: {rec['pretty'] if rec else 'none found within caps'}"


def _transition_table(payload) -> str:
    fields = [(k, payload[k]) for k in sorted(payload) if k not in {"resolutions", "note"}]
    rows = [(r["diagonals"], r["regular"]) for r in payload["resolutions"]]
    return (_render_table(("field", "value"), fields) + "\n\n"
            + _render_table(("diagonals", "regular"), rows))


def _match_table(payload) -> str:
    if not payload["candidates"]:
        return "no candidates"
    headers = ("name", "degree", "e", "b2", "b3", "overlap")
    return _render_table(headers, [[c[h] for h in headers] for c in payload["candidates"]])


def _resolve_table(payload) -> str:
    rows = [(r["diagonals"], r["triangle_count"]) for r in payload["resolutions"]]
    return _render_table(("diagonals", "triangles"), rows)


def _recurrence_table(payload) -> str:
    return payload["pretty"] if payload["found"] else "none found within caps"


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_output_flag(sp, func, table) -> None:
    """``--output`` for a subcommand whose payload ``func(args)`` returns
    and ``table(payload)`` renders."""
    sp.add_argument(
        "--output",
        choices=("json", "table"),
        default="json",
        help="json (machine contract, default) or table (human-readable)",
    )
    sp.set_defaults(func=func, table=table)


def _add_recurrence_flags(sp, rmax_default, degree_default) -> None:
    sp.add_argument("--rmax", type=_int_at_least(1), default=rmax_default,
                    help=f"largest recurrence order to try (default {rmax_default})")
    sp.add_argument("--degree-max", type=_int_at_least(0), default=degree_default,
                    help=f"largest coefficient degree to try (default {degree_default})")
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
    _add_output_flag(sp, cmd_periods, _periods_table)

    sp = sub.add_parser("transition", help="nodal analysis and transition report")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("--mode", choices=("fano", "cy"), default="fano",
                    help="smoothability criterion to apply (default fano)")
    _add_output_flag(sp, cmd_transition, _transition_table)

    sp = sub.add_parser("match", help="rank database records against a polytope")
    sp.add_argument("polytope", help="polytope JSON file")
    sp.add_argument("database", help="line-oriented JSON database file")
    sp.add_argument("--dmax", type=_int_at_least(0), default=20,
                    help="period terms computed for the comparison (default 20)")
    _add_output_flag(sp, cmd_match, _match_table)

    sp = sub.add_parser("resolve", help="enumerate small resolutions only")
    sp.add_argument("polytope", help="polytope JSON file")
    _add_output_flag(sp, cmd_resolve, _resolve_table)

    sp = sub.add_parser("recurrence", help="recurrence finder on a stored sequence")
    sp.add_argument("sequence", help="JSON file: list of integers, or {\"periods\": [...]}")
    _add_recurrence_flags(sp, rmax_default=4, degree_default=3)
    _add_output_flag(sp, cmd_recurrence, _recurrence_table)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
    except (ConifoldError, AssertionError) as exc:
        # a failed assertion is an internal invariant: a bug, exit 4
        internal = isinstance(exc, AssertionError)
        kind = "InternalInvariant" if internal else type(exc).__name__
        body = {"type": kind, "message": str(exc) or kind}
        if getattr(exc, "facets", None):
            body["facets"] = list(exc.facets)
        try:
            print(_json({"error": body}), file=sys.stderr)
            sys.stderr.flush()
        except BrokenPipeError:  # stderr's reader left; the exit code still tells
            _to_devnull(sys.stderr)
        return 4 if internal else exc.exit_code
    text = args.table(payload) if args.output == "table" else _json(payload)
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader left
        _to_devnull(sys.stdout)
        return 141
    return 0


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the str, int,
    bool, None, list, tuple and dict values a payload holds, in one pass:
    the stdlib ignores its C encoder when asked to indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        items = [_json(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _to_devnull(stream) -> None:
    """Point a closed pipe's file descriptor at os.devnull, so that the
    flush at exit finds a reader and stays quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
