#!/usr/bin/env python3
"""Survey the bundled corpus: invariants, period heads, recurrences.

Prints one row per bundled polytope with its transition invariants, the
path the period engine takes on it (split into free-sum parts, split as
a prism W = (1 + y^t) A with lambda = -h / phi(t) and A' split into
parts, read from A as an apexed prism W = (1 + y^t) A + c y^rho or a
pyramid W = A + c y^rho, or unsplit; and, for a split, whether its
polynomials are simplices read as one multinomial or run the engine or
form powers), and the first period terms, then hunts for recurrences in
two interesting cases:

* p3 — the classic order-4 operator with (d+4)^3 leading term;
* octahedron — stride 2 (odd terms vanish), which uncovers the
  three-term recurrence of the even subsequence.

Everything is recomputed on the fly; expect a few seconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conifold import laurent
from conifold.lattice import convex_hull
from conifold.laurent import from_fan_polytope, period_sequence
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


def multinomials(parts: list) -> str:
    """How many of the polynomials ``period_sequence`` splits W into are
    simplices, each read as one multinomial; the rest run the engine."""
    n = sum(1 for part in parts if laurent._simplex(part))
    if len(parts) == 1:
        return "multinomial" if n else "engine"
    return f"{len(parts)} parts, {n} multinomial"


def engine_path(w, dmax: int) -> str:
    """The split ``period_sequence`` takes on W to degree dmax, and how it
    reads the polynomials of the split."""
    parts, prism, reach = laurent._split(w, dmax)
    if reach:
        base = {e: w.terms[e] for e in prism[1]}
        shape = "pyramid" if prism[0] is None else "apex prism"
        return f"{shape}, {'multinomial' if laurent._simplex(base) else 'powers'}"
    if prism:
        p, q, flat = laurent._flat(w.terms, prism)
        return f"prism {p}/{q}, {multinomials(laurent._parts(flat))}"
    return multinomials(parts) if len(parts) > 1 else "unsplit"


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
