#!/usr/bin/env python3
"""Survey the bundled corpus: invariants, period heads, recurrences.

Prints one row per bundled polytope with its transition invariants, the
path the period engine takes on it (one sum over the lattice points of
W's fibres, of dimension f = 0 or 1; free-sum parts, each read that way
or by the engine; or the engine on all of W), and the first period
terms, then hunts for recurrences in two interesting cases:

* p3 — the classic order-4 operator with (d+4)^3 leading term;
* octahedron — stride 2 (odd terms vanish), which uncovers the
  three-term recurrence of the even subsequence.

Everything is recomputed on the fly; expect a few seconds.
"""

from __future__ import annotations

import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conifold import laurent
from conifold.lattice import convex_hull
from conifold.laurent import from_fan_polytope, period_sequence
from conifold.linalg import rank
from conifold.nodal import check_regularity, nodal_profile, transition_invariants
from conifold.recurrence import find_recurrence
import json

DATA = Path(__file__).resolve().parent.parent / "src" / "conifold" / "data"

SURVEY_DMAX = 8

HUNTS = [
    # (stem, dmax, rmax, degree_max, stride)
    ("p3", 40, 4, 3, 1),
    ("octahedron", 60, 3, 3, 2),
]


def load(stem: str):
    data = json.loads((DATA / "polytopes" / f"{stem}.json").read_text())
    return convex_hull([tuple(v) for v in data["vertices"]])


def fibre_path(terms: dict) -> str:
    """``f=0`` or ``f=1`` for a W read as a sum over its fibres, f = K + J -
    rank of its Minkowski form's exponent system; ``engine`` from f = 2
    on."""
    _, columns = laurent._minkowski(terms)
    f = len(columns) - rank([list(c) for c in columns])
    return f"f={f}" if f <= 1 else "engine"


def engine_path(w, dmax: int) -> str:
    """The path ``period_sequence`` takes on W to degree dmax: W's fibres,
    its free-sum parts each read by theirs or by the engine, or the engine
    outside the guard |W| C(top + |W| - 1, |W|) <= PERIOD_WORK_BUDGET."""
    size = len(w.terms)
    if (w.dim != 3 or not size
            or size * comb((dmax + 1) // 2 + size - 1, size) > laurent.PERIOD_WORK_BUDGET):
        return "engine"
    paths = [fibre_path(part) for part in laurent._parts(w.terms)]
    if len(paths) > 1:
        return f"{len(paths)} parts ({', '.join(paths)})"
    return "engine" if paths[0] == "engine" else f"fibre {paths[0]}"


def main() -> int:
    stems = sorted(p.stem for p in (DATA / "polytopes").glob("*.json"))
    header = (
        f"{'polytope':<12} {'N':>2} {'k':>2} {'deg':>4} {'e_sm':>4} "
        f"{'b2':>3} {'b3':>3} {'regular':>9}  {'engine':<34} periods (d <= {SURVEY_DMAX})"
    )
    print(header)
    print("-" * len(header))
    for stem in stems:
        p = load(stem)
        profile = nodal_profile(p)
        rep = transition_invariants(p, profile, "fano")
        rs = check_regularity(profile)
        nreg = sum(1 for r in rs if r.regular)
        w = from_fan_polytope(p)
        seq = period_sequence(w, SURVEY_DMAX)
        print(
            f"{stem:<12} {rep['N']:>2} {rep['k']:>2} "
            f"{rep['degree']:>4} {rep['e_sm']:>4} {rep['b2_sm']:>3} {rep['b3_sm']:>3} "
            f"{nreg:>4}/{len(rs):<4}  {engine_path(w, SURVEY_DMAX):<34} {list(seq.terms)}"
        )

    print()
    for stem, dmax, rmax, degree_max, stride in HUNTS:
        p = load(stem)
        t0 = time.perf_counter()
        seq = period_sequence(from_fan_polytope(p), dmax).terms
        rec = find_recurrence(seq[::stride], rmax=rmax, degree_max=degree_max)
        dt = time.perf_counter() - t0
        label = f"{stem} (dmax={dmax}, stride={stride})"
        if rec is None:
            print(f"{label}: no recurrence within order {rmax}, degree {degree_max}")
        else:
            print(f"{label}: found in {dt:.2f}s")
            print(f"    {rec}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
