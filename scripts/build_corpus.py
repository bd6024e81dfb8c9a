#!/usr/bin/env python3
"""Rebuild the bundled corpus under src/conifold/data/.

The corpus is six reflexive 3-polytopes — three smooth toric Fano fans
and three nodal ones — together with a database of their self-computed
invariants (fano.jsonl) and a golden snapshot (golden.json) that the
test suite compares against.

Every number written here is recomputed from scratch on each run and
cross-checked along the way:

* reflexivity and the expected nodal profile of each polytope;
* each detected conifold square is mapped onto the local model square
  {(0,0,1),(1,0,1),(0,1,1),(1,1,1)} by an explicit unimodular matrix
  (an independent confirmation that its cone is the xy = zw chart);
* period terms up to ORACLE_CROSS_CHECK_DMAX against the brute-force
  constant-term oracle, and the half-power engine against plain iterated
  multiplication up to DB_DMAX;
* the degree that ``transition_invariants`` sums from the facet normals
  against the normalized volume of the polar dual's hull;
* the circuit test of ``check_regularity`` against the exact wall LP of
  ``is_regular_triangulation`` on every small resolution;
* the Euler / Betti bookkeeping identity e_sm = 2 + 2*b2_sm - b3_sm;
* the recurrence found for the P^3 sequence is re-verified on a longer,
  freshly computed sequence.

The checks that the package does not hold itself (the unimodular map
and iterated multiplication) are the test suite's, from
``tests/oracles.py``.

The script is deterministic: running it twice yields byte-identical
files.  It exits nonzero on the first failed check.

The three nodal polytopes were picked by an exhaustive search over
small vertex configurations (squares plus extra vertices, shifted
square pairs); the searches are not rerun here, but every property the
package relies on is re-verified from the frozen vertex lists.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from conifold.lattice import convex_hull, is_reflexive, normalized_volume, polar_dual
from conifold.laurent import from_fan_polytope, period_sequence, period_term_direct
from conifold.nodal import (
    check_regularity,
    friedman_smoothable,
    is_regular_triangulation,
    nodal_profile,
    transition_invariants,
)
from conifold.recurrence import find_recurrence, verify_recurrence
from oracles import iterated_periods, square_to_model_map

DATA_DIR = REPO / "src" / "conifold" / "data"

DB_DMAX = 10
# the keys of the transition report that each golden entry keeps
INVARIANT_KEYS = ("N", "k", "degree", "e_res", "e_sm", "b2_res", "b2_sm", "b3_sm")
ORACLE_CROSS_CHECK_DMAX = 8

# (polytope file stem, database record name, vertex list, expected node count)
CORPUS = [
    (
        "p3",
        "P3",
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        0,
    ),
    (
        "octahedron",
        "P1xP1xP1",
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        0,
    ),
    (
        "p2xp1",
        "P2xP1",
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
        0,
    ),
    # One node: the pyramid over the local model square.  Its smoothing
    # invariants (degree 54, e 4, b2 1) are those of a quadric.
    (
        "nodal_01",
        "nodal_01",
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (-1, -1, -2)],
        1,
    ),
    # Two nodes, found by exhaustive search over "square + horizontal
    # edge + one extra vertex" configurations in a small box.
    (
        "nodal_02",
        "nodal_02",
        [
            (-1, 0, -1),
            (0, -1, 0),
            (0, 0, 1),
            (0, 1, 1),
            (1, -1, 0),
            (1, 0, 1),
            (1, 1, 1),
        ],
        2,
    ),
    # Six nodes: two opposite unit squares, every facet a conifold
    # square.  The relation rank drops to 4, so the smoothing gains
    # three-cycles (b3 = 4).
    (
        "nodal_03",
        "nodal_03",
        [
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
            (-1, -1, -1),
            (0, -1, -1),
            (-1, 0, -1),
            (0, 0, -1),
        ],
        6,
    ),
]

# Recurrence search parameters for the P^3 golden.
P3_RECURRENCE_DMAX = 40
P3_RECURRENCE_RMAX = 4
P3_RECURRENCE_DEGREE_MAX = 3
P3_RECURRENCE_CONFIRM_DMAX = 60


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def analyze(name: str, vertices, expected_nodes: int) -> dict:
    p = convex_hull([tuple(v) for v in vertices])
    check(is_reflexive(p), f"{name}: not reflexive")
    check(p.vertices == tuple(sorted(tuple(v) for v in vertices)),
          f"{name}: vertex list is not canonical")

    profile = nodal_profile(p)
    check(profile.node_count == expected_nodes,
          f"{name}: expected {expected_nodes} nodes, found {profile.node_count}")
    for _, cycle in profile.squares:
        check(square_to_model_map(cycle) is not None,
              f"{name}: square {cycle} is not the local model by a unimodular map")

    report = transition_invariants(p, profile, "fano")
    check(report["e_sm"] == 2 + 2 * report["b2_sm"] - report["b3_sm"],
          f"{name}: Euler/Betti bookkeeping identity failed")
    dual_volume = normalized_volume(polar_dual(p))
    check(dual_volume == report["degree"], f"{name}: degree disagrees with dual volume")

    resolutions = check_regularity(profile)
    check(len(resolutions) == 2 ** profile.node_count,
          f"{name}: wrong number of small resolutions")
    for r in resolutions:
        check(r.regular == is_regular_triangulation(p, profile, r.diagonals),
              f"{name}: resolution {r.diagonals} disagrees with the wall LP")
    regular_count = sum(1 for r in resolutions if r.regular)
    check(regular_count >= 1, f"{name}: no projective small resolution")

    cy_ok, cy_cert = friedman_smoothable(profile, mode="cy")
    if cy_ok and profile.node_count > 0:
        check(cy_cert is not None and all(c != 0 for c in cy_cert),
              f"{name}: smoothability certificate has a zero entry")

    w = from_fan_polytope(p)
    seq = period_sequence(w, DB_DMAX).terms
    check(list(seq) == iterated_periods(w, DB_DMAX),
          f"{name}: periods disagree with iterated multiplication")
    for d in range(ORACLE_CROSS_CHECK_DMAX + 1):
        check(period_term_direct(w, d) == seq[d],
              f"{name}: period c_{d} disagrees with the direct oracle")

    return {
        "polytope": p,
        "vertices": [list(v) for v in p.vertices],
        **{key: report[key] for key in INVARIANT_KEYS},
        "resolution_count": len(resolutions),
        "regular_count": regular_count,
        "smoothable_fano": report["smoothable"],
        "smoothable_cy": cy_ok,
        "cy_certificate": None if cy_cert is None else list(cy_cert),
        "periods": list(seq),
    }


def p3_recurrence_golden() -> dict:
    p = convex_hull([tuple(v) for v in CORPUS[0][2]])
    w = from_fan_polytope(p)
    seq = period_sequence(w, P3_RECURRENCE_DMAX).terms
    rec = find_recurrence(seq, rmax=P3_RECURRENCE_RMAX,
                          degree_max=P3_RECURRENCE_DEGREE_MAX)
    check(rec is not None, "p3: no recurrence found within the caps")
    longer = period_sequence(w, P3_RECURRENCE_CONFIRM_DMAX).terms
    check(verify_recurrence(rec, longer),
          "p3: recurrence fails on the longer confirmation sequence")
    return {
        "dmax": P3_RECURRENCE_DMAX,
        "rmax": P3_RECURRENCE_RMAX,
        "degree_max": P3_RECURRENCE_DEGREE_MAX,
        "confirm_dmax": P3_RECURRENCE_CONFIRM_DMAX,
        "order": rec.order,
        "degree": rec.degree,
        "coeffs": [[str(a) for a in poly] for poly in rec.coeffs],
        "pretty": str(rec),
    }


def main() -> int:
    polytope_dir = DATA_DIR / "polytopes"
    polytope_dir.mkdir(parents=True, exist_ok=True)

    golden = {"polytopes": {}, "db_dmax": DB_DMAX}
    records = []
    for stem, record_name, vertices, expected_nodes in CORPUS:
        result = analyze(stem, vertices, expected_nodes)
        print(
            f"{stem:<12} N={result['N']} k={result['k']} "
            f"degree={result['degree']:>3} e_sm={result['e_sm']:>2} "
            f"b2_sm={result['b2_sm']} b3_sm={result['b3_sm']} "
            f"regular={result['regular_count']}/{result['resolution_count']}"
        )
        path = polytope_dir / f"{stem}.json"
        path.write_text(
            json.dumps({"name": stem, "vertices": result["vertices"]},
                       indent=2, sort_keys=True) + "\n"
        )
        records.append({"name": record_name, "degree": result["degree"],
                        "e": result["e_sm"], "b2": result["b2_sm"],
                        "b3": result["b3_sm"], "periods": result["periods"],
                        "provenance": "computed"})
        del result["polytope"]
        golden["polytopes"][stem] = result

    invariant_keys = {}
    for rec in records:
        key = (rec["degree"], rec["e"], rec["b2"], rec["b3"])
        check(key not in invariant_keys,
              f"records {invariant_keys.get(key)} and {rec['name']} collide on invariants")
        invariant_keys[key] = rec["name"]

    db_path = DATA_DIR / "fano.jsonl"
    db_path.write_text(
        "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    )

    golden["p3_recurrence"] = p3_recurrence_golden()
    print("p3 recurrence:", golden["p3_recurrence"]["pretty"])

    golden_path = DATA_DIR / "golden.json"
    golden_path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")

    print(f"wrote {db_path}, {golden_path}, and {len(CORPUS)} polytope files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
