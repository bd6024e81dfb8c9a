#!/usr/bin/env python3
"""Digest the CLI's observable behaviour over a fixed set of runs.

Each run calls ``conifold.cli.main(argv)`` in process and hashes its exit
code, stdout and stderr.  The runs cover the bundled polytopes and two
seeded unimodular images of each under every subcommand, in JSON and in
table form, ``--mode cy``, periods to an even and an odd degree and in
dimensions 2 and 4, product polytopes on either side of the guard of the
period engine's split (the octahedron at degree 60 and 61, a p2xp1 image,
and the free sum dP6 x P1 under three subcommands), prisms on either side
of the same guard (nodal_03 at degree 36 and 37, a nodal_03 image, the
cube and the hexagonal prism over dP6's hexagon), apexed prisms and
pyramids on either side of it (nodal_02 at degree 44 and 45, nodal_01 at
90 and 91, p3 at 172 and at 173, where the work budget refuses it, and a
nodal_02 image), database records
that load and that fail with each of the loader's messages, recurrence
searches on a sequence whose terms are all multiples of a prime and on
wide terms near multiples of it, for 2^31 - 1 (kept so that digests
compare with older trees) and for the screen's prime ``linalg.PRIME``, a
hit on a sequence of alternating sign, 30 zeros, on which the least cell's kernel
is the whole space, searches on 400 terms whose screens take rows past
an order's first ones (p3's periods, a miss and a budget refusal, and
C(2n, n)^3 between zeros, a hit), and inputs that must exit 2 or 3,
flat point sets among them.
A call that raises out of ``main`` is recorded as exit 1 with the
exception's type on stderr, as ``python -m conifold`` would exit 1 with a
traceback.

Output: one line per run, ``<sha256 prefix>  <exit>  conifold <argv>``,
then ``total <sha256>`` over all of them.  Input files are written to a
temporary directory that is the working directory during the runs, so
the argv and every message name files relatively and the digests do not
depend on where the tree lives.  To check that a change leaves the CLI
bytes alone, run this script on both trees and diff the outputs:

    python3 scripts/cli_digest.py > digest.txt

A run takes a few seconds, and about 8 s more on trees whose hull budget
admits the 90-dimensional simplex; on trees with no recurrence work
budget the ``noise800.json`` search runs for minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conifold import cli, linalg  # noqa: E402

DATA = ROOT / "src" / "conifold" / "data"
STEMS = ("nodal_01", "nodal_02", "nodal_03", "octahedron", "p2xp1", "p3")
IMAGES_PER_POLYTOPE = 2
# one-line databases: a user record with an extra key, which loads, and
# one record per message of the loader, each matched against p3
USER_RECORD = {"name": "Y", "degree": 64, "e": 4, "b2": 1, "b3": 0,
               "periods": [1, 0, 0, 0, 24]}
RECORD_FILES = {
    "extra_key.jsonl": dict(USER_RECORD, comment="from a survey"),
    "not_an_object.jsonl": [1, 2],
    "bad_name.jsonl": dict(USER_RECORD, name=""),
    "missing_field.jsonl": {k: v for k, v in USER_RECORD.items() if k != "b2"},
    "bad_invariant.jsonl": dict(USER_RECORD, e="four"),
    "bad_periods.jsonl": dict(USER_RECORD, periods="1, 0"),
    "bad_provenance_type.jsonl": dict(USER_RECORD, provenance=1),
    "bad_prefix.jsonl": dict(USER_RECORD, periods=[2, 4]),
    "bad_provenance.jsonl": dict(USER_RECORD, provenance="guessed"),
    "bad_prefix_and_provenance.jsonl": dict(USER_RECORD, periods=[0], provenance="guessed"),
}


def unimodular_image(vertices, rng: random.Random) -> list:
    """The vertices under a product of four random elementary integer row
    operations, a matrix of determinant 1."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        sign = rng.choice((-1, 1))
        m[i] = [a + sign * b for a, b in zip(m[i], m[j])]
    return [[sum(a * x for a, x in zip(row, v)) for row in m] for v in vertices]


def wide_noise(prime: int) -> list[int]:
    """80 seeded terms, each below 10^9, below 2^90 or a multiple of
    ``prime`` with its neighbours, of either sign."""
    wide = random.Random(11)
    return [wide.choice((wide.randrange(-10 ** 9, 10 ** 9), wide.randrange(-2 ** 90, 2 ** 90),
                         prime * wide.randrange(-9, 10) + wide.randrange(-1, 2)))
            for _ in range(80)]


def p3_periods(count: int) -> list[int]:
    """The first ``count`` of p3's periods, (4k)!/(k!)^4 at d = 4k and 0 elsewhere."""
    return [math.factorial(d) // math.factorial(d // 4) ** 4 if d % 4 == 0 else 0
            for d in range(count)]


def p3_times(prime: int) -> list[int]:
    """p3's periods to degree 40 times ``prime``: 0 mod it."""
    return [prime * c for c in p3_periods(41)]


def write_inputs(tmp: Path) -> list[str]:
    """Write every input file into ``tmp``; return the polytope names."""
    shutil.copy(DATA / "fano.jsonl", tmp / "fano.jsonl")
    polytopes = []
    for stem in STEMS:
        vertices = json.loads((DATA / "polytopes" / f"{stem}.json").read_text())["vertices"]
        polytopes.append(f"{stem}.json")
        (tmp / f"{stem}.json").write_text(json.dumps({"vertices": vertices}))
        for k in range(IMAGES_PER_POLYTOPE):
            image = unimodular_image(vertices, random.Random(f"{stem}:{k}"))
            polytopes.append(f"{stem}_image{k}.json")
            (tmp / polytopes[-1]).write_text(json.dumps({"vertices": image}))
    rng = random.Random(7)
    files = {
        "powers.json": [2 ** d for d in range(16)],
        "central.json": {"periods": [1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620,
                                     184756, 705432, 2704156, 10400600]},
        "noise.json": [1] + [rng.randrange(1, 10 ** 9) for _ in range(39)],
        # the screen packer's edges: negative terms, terms above 2^64, and
        # multiples of either prime with their neighbours
        "alternating.json": [(-1) ** n * math.comb(2 * n, n) for n in range(14)],
        "wide_noise.json": wide_noise(2**31 - 1),
        "wide_noise_prime.json": wide_noise(linalg.PRIME),
        "p3_times_p.json": p3_times(2**31 - 1),
        "p3_times_prime.json": p3_times(linalg.PRIME),
        # long sequences whose screens take rows past the capped first ones
        "p3_400.json": p3_periods(400),
        "central_cubes.json": [math.comb(d, d // 2) ** 3 if d % 2 == 0 else 0
                               for d in range(400)],
        "short.json": [1, 2, 4],
        "zeros.json": [0] * 30,
        "not_a_list.json": {"terms": [1, 2]},
        "flat.json": {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
        "shifted.json": {"vertices": [[3, 0, 0], [2, 1, 0], [2, 0, 1], [1, -1, -1]]},
        "cube.json": {"vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                   for z in (-1, 1)]},
        "big_simplex.json": {"vertices": [[-1, -1, -1], [3000, 0, 0], [0, 3000, 0],
                                          [0, 0, 3000]]},
        "shell.json": {"vertices": [[x, y, z] for x in range(-3, 4) for y in range(-3, 4)
                                    for z in range(-3, 4)
                                    if 5 <= x * x + y * y + z * z <= 9]},
        "simplex90.json": {"vertices": [[int(i == j) for j in range(90)] for i in range(90)]
                           + [[-1] * 90]},
        # the free sum of dP6's hexagon and P1's segment
        "dp6xp1.json": {"vertices": [[1, 0, 0], [1, 1, 0], [0, 1, 0], [-1, 0, 0],
                                     [-1, -1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
        # the prism over dP6's hexagon
        "hexprism.json": {"vertices": [[x, y, z] for x, y in ((1, 0), (1, 1), (0, 1), (-1, 0),
                                                              (-1, -1), (0, -1)) for z in (-1, 1)]},
        "plane.json": {"vertices": [[1, 0], [0, 1], [-1, -1]]},
        "simplex4.json": {"vertices": [[int(i == j) for j in range(4)] for i in range(4)]
                          + [[-1] * 4]},
        # flat inputs: a point, a line, a plane past the hull budget, and
        # a 4-D set in a hyperplane
        "point.json": {"vertices": [[1, 0, 0]] * 3},
        "collinear.json": {"vertices": [[t, t, t] for t in range(-1, 3)]},
        "plane_grid.json": {"vertices": [[x, y, x - y] for x in range(8) for y in range(8)]},
        "flat4.json": {"vertices": [[int(i == j) for j in range(4)] for i in range(3)]
                       + [[-1, -1, -1, 0]]},
    }
    for name, payload in files.items():
        (tmp / name).write_text(json.dumps(payload))
    for name, record in RECORD_FILES.items():
        (tmp / name).write_text(json.dumps(record) + "\n")
    (tmp / "bad.json").write_text("[1, 2")
    (tmp / "bad.jsonl").write_text("{broken\n")
    (tmp / "empty.jsonl").write_text("")
    record = '{"name": "X", "degree": 1, "e": 0, "b2": 1, "b3": 0}\n'
    (tmp / "duplicate.jsonl").write_text(record * 2)
    (tmp / "deep.json").write_text("[" * 100_000)
    (tmp / "deep_vertices.json").write_text('{"vertices": ' + "[" * 5000)
    (tmp / "deep.jsonl").write_text("[" * 100_000 + "\n")
    for name in ("latin1.json", "latin1.jsonl"):
        (tmp / name).write_bytes(b"\xff\xfe")
    (tmp / "a_directory").mkdir()
    long = "1" + "0" * 5000  # past int()'s 4300-digit limit
    (tmp / "long_vertex.json").write_text(
        '{"vertices": [[%s, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}' % long)
    (tmp / "long_term.json").write_text("[1, 2, %s]" % long)
    (tmp / "long_field.jsonl").write_text(
        '{"name": "X", "degree": %s, "e": 0, "b2": 1, "b3": 0}\n' % long)
    noise = random.Random(1)
    (tmp / "noise800.json").write_text(json.dumps(
        [1] + [noise.randrange(1, 10 ** 9) for _ in range(799)]))
    return polytopes


def runs(polytopes: list[str]) -> list[tuple]:
    out = []
    for p in polytopes:
        for argv in (
            ("transition", p),
            ("transition", p, "--mode", "cy"),
            ("resolve", p),
            ("match", p, "fano.jsonl", "--dmax", "10"),
            ("periods", p, "--dmax", "12"),
            ("periods", p, "--dmax", "13"),
            ("periods", p, "--dmax", "40", "--recurrence", "--rmax", "4",
             "--degree-max", "3"),
        ):
            out += [argv, (*argv, "--output", "table")]
        out += [("match", p, "empty.jsonl", "--output", "table")]
    for seq in ("powers.json", "central.json", "noise.json"):
        argv = ("recurrence", seq, "--rmax", "2", "--degree-max", "1")
        out += [argv, (*argv, "--output", "table"), ("recurrence", seq, "--stride", "2")]
    out += [("recurrence", "alternating.json", "--rmax", "1", "--degree-max", "1"),
            ("recurrence", "wide_noise.json", "--rmax", "4", "--degree-max", "4",
             "--stride", "2")]
    out += [("recurrence", "p3_times_p.json"),
            ("recurrence", "p3_times_p.json", "--output", "table"),
            ("recurrence", "p3_times_p.json", "--degree-max", "4"),
            ("recurrence", "zeros.json")]
    # the same two inputs for the screen's prime, 0 mod it or near it
    out += [("recurrence", "wide_noise_prime.json", "--rmax", "4", "--degree-max", "4",
             "--stride", "2"),
            ("recurrence", "p3_times_prime.json"),
            ("recurrence", "p3_times_prime.json", "--output", "table"),
            ("recurrence", "p3_times_prime.json", "--degree-max", "4")]
    # rows past an order's first (r+1)(degree_max+1) + 5 join its screen
    # only after a charge: p3's (1, 3) cell is charged and found empty on
    # every row, at (4, 3) the (4, 3) cell's charge exits 3, and C(2n, n)^3
    # hits (1, 3)
    out += [("recurrence", "p3_400.json", "--rmax", "1", "--degree-max", "3"),
            ("recurrence", "p3_400.json", "--rmax", "4", "--degree-max", "3"),
            ("recurrence", "central_cubes.json", "--stride", "2")]
    # periods in dimensions 2 and 4, where the engine skips no degree
    out += [("periods", "plane.json", "--dmax", "13"), ("periods", "simplex4.json", "--dmax", "11")]
    # products split into parts up to the bound the budget cannot pass:
    # the octahedron's last degree inside it and its first past it
    out += [("periods", "octahedron.json", "--dmax", "60"),
            ("periods", "octahedron.json", "--dmax", "61"),
            ("periods", "p2xp1_image1.json", "--dmax", "40"),
            ("periods", "dp6xp1.json"), ("transition", "dp6xp1.json"),
            ("match", "dp6xp1.json", "fano.jsonl")]
    # prisms W = (1 + y^t) A split under the same bound: nodal_03's last
    # degree inside it and its first past it; the cube and the hexagonal
    # prism have facets that are neither triangles nor conifold squares, so
    # `transition` exits 2 on them (the cube's run is among the errors below)
    out += [("periods", "nodal_03.json", "--dmax", "36"),
            ("periods", "nodal_03.json", "--dmax", "37"),
            ("periods", "nodal_03_image0.json", "--dmax", "32"),
            ("periods", "cube.json"), ("periods", "hexprism.json"),
            ("transition", "hexprism.json")]
    # W = (1 + y^t)^eps A + c y^rho split under the same bound, on either
    # side of it: nodal_02 and nodal_01 (apexed prisms), p3 (a pyramid),
    # whose first degree past it is past the work budget too, and an image
    out += [("periods", "nodal_02.json", "--dmax", "44"),
            ("periods", "nodal_02.json", "--dmax", "45"),
            ("periods", "nodal_01.json", "--dmax", "90"),
            ("periods", "nodal_01.json", "--dmax", "91"),
            ("periods", "p3.json", "--dmax", "172"),
            ("periods", "p3.json", "--dmax", "173"),
            ("periods", "nodal_02_image1.json", "--dmax", "32")]
    out += [
        # handled input errors (exit 2) and budgets (exit 3)
        ("--version",), ("periods", "--help"), ("periods",), ("frobnicate", "p3.json"),
        ("periods", "p3.json", "--bogus"), ("periods", "p3.json", "--output", "xml"),
        ("periods", "p3.json", "--dmax", "-1"), ("periods", "p3.json", "--dmax", "ten"),
        ("recurrence", "powers.json", "--rmax", "0"),
        ("recurrence", "short.json"), ("recurrence", "not_a_list.json"),
        ("recurrence", "bad.json"), ("recurrence", "missing.json"),
        ("periods", "missing.json"), ("transition", "bad.json"),
        ("transition", "a_directory"), ("transition", "flat.json"),
        ("periods", "shifted.json"), ("transition", "shifted.json"),
        ("transition", "cube.json"), ("transition", "big_simplex.json"),
        ("periods", "shell.json"),
        *((command, flat) for flat in ("point.json", "collinear.json", "plane_grid.json",
                                       "flat4.json") for command in ("transition", "periods")),
        ("match", "p3.json", "bad.jsonl"), ("match", "p3.json", "duplicate.jsonl"),
        ("match", "missing.json", "fano.jsonl"),
        *(("match", "p3.json", name) for name in RECORD_FILES),
        # file failures and nesting that a tree may not handle (exit 1 there)
        ("match", "p3.json", "missing.jsonl"), ("match", "p3.json", "a_directory"),
        ("periods", "latin1.json"), ("recurrence", "latin1.json"),
        ("match", "p3.json", "latin1.jsonl"), ("periods", "a" * 5000),
        ("match", "p3.json", "b" * 5000), ("recurrence", "deep.json"),
        ("transition", "deep_vertices.json"), ("match", "p3.json", "deep.jsonl"),
        ("periods", "simplex90.json"),
        # integers past int()'s digit limit, and a recurrence search past
        # its work budget
        ("periods", "long_vertex.json"), ("recurrence", "long_term.json"),
        ("match", "p3.json", "long_field.jsonl"),
        ("recurrence", "noise800.json", "--rmax", "20", "--degree-max", "30"),
    ]
    return out


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help and --version
            code = exc.code
        except Exception as exc:
            code = 1
            print(type(exc).__name__, file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def shown(argv) -> str:
    return " ".join(a if len(a) <= 60 else f"<{a[0]} x {len(a)}>" for a in argv)


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        polytopes = write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in runs(polytopes):
                code, out, err = run(argv)
                digest = hashlib.sha256(
                    json.dumps([code, out, err]).encode()
                ).hexdigest()[:16]
                line = f"{digest}  {code}  conifold {shown(argv)}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
        finally:
            os.chdir(here)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
