"""Seeded job lists for the four benchmark workloads, and the correctness
gate every job's output passes through.

A job is one ``conifold`` command line.  Its inputs are the six bundled
polytopes, seeded unimodular images of them, and integer sequences
written to a scratch directory at set-up.  Every check compares against
data that does not come from the run itself: ``golden.json`` shipped
with the package, classical closed forms, and the stdout digests frozen
in ``expected.json`` by ``freeze.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("deep-periods", "resolution-census", "cli-mix", "recurrence-hunt")
POLYTOPES = ("p3", "octahedron", "p2xp1", "nodal_01", "nodal_02", "nodal_03")
# expected first candidate of `conifold match` against the bundled fano.jsonl
MATCH_NAME = {
    "p3": "P3",
    "octahedron": "P1xP1xP1",
    "p2xp1": "P2xP1",
    "nodal_01": "nodal_01",
    "nodal_02": "nodal_02",
    "nodal_03": "nodal_03",
}
INVARIANTS = ("N", "k", "e_res", "e_sm", "b2_res", "b2_sm", "b3_sm", "degree")
# recurrence-hunt searches: sequence, its length, caps, stride, and the
# expected (order, degree) of the least recurrence, or None when the
# search must try every cell and find nothing
RECURRENCE_JOBS = {
    "p3": (40, 4, 3, 1, (4, 3)),
    "octahedron": (80, 4, 4, 2, (2, 3)),
    "nodal_03": (80, 4, 4, 2, (1, 3)),
    "p2xp1": (60, 4, 4, 1, None),
    "nodal_02": (60, 4, 4, 1, None),
}
FROZEN_SEQUENCES = ("p2xp1", "nodal_02")
# cli-mix images: one per band of max |coordinate|, each the closest of
# MATCH_DRAWS seeded draws to the band's frozen median scan-cell count
MIX_BANDS = ((10, 19), (20, 29), (30, 39), (40, 49), (50, 60))
MATCH_DRAWS = 12
CELL_TARGET_DRAWS = 63
ORACLE_DMAX = 8
# deep-periods degree: high enough that laurent is ~99% of the work, low
# enough that a run fits three paired passes (see NOTES.md)
DEEP_DMAX = 32


# ---------------------------------------------------------------------------
# closed forms


def _p3_terms(dmax):
    return [factorial(d) // factorial(d // 4) ** 4 if d % 4 == 0 else 0
            for d in range(dmax + 1)]


def _octahedron_terms(dmax):
    out = []
    for d in range(dmax + 1):
        if d % 2:
            out.append(0)
            continue
        n = d // 2
        squares = sum(
            (factorial(n) // (factorial(i) * factorial(j) * factorial(n - i - j))) ** 2
            for i in range(n + 1)
            for j in range(n + 1 - i)
        )
        out.append(comb(2 * n, n) * squares)
    return out


def _nodal_03_terms(dmax):
    return [comb(d, d // 2) ** 3 if d % 2 == 0 else 0 for d in range(dmax + 1)]


# c_d for the three polytopes whose periods have a classical closed form:
# (4n)!/(n!)^4, C(2n,n) * sum of squared trinomials, C(2n,n)^3
CLOSED_FORMS = {
    "p3": _p3_terms,
    "octahedron": _octahedron_terms,
    "nodal_03": _nodal_03_terms,
}


# ---------------------------------------------------------------------------
# expectations


@dataclass
class Expectations:
    golden: dict  # golden.json "polytopes" section, keyed by polytope name
    digests: dict  # digest key -> sha256 of the seed commit's stdout
    sequences: dict  # frozen period sequences for the exhaustive searches
    cell_targets: dict  # polytope -> scan-cell target per cli-mix band


def load_expectations(data_dir: Path) -> Expectations:
    golden = json.loads((data_dir / "golden.json").read_text())["polytopes"]
    frozen = json.loads(EXPECTED_PATH.read_text())
    return Expectations(golden, frozen["digests"], frozen["sequences"],
                        frozen["cell_targets"])


def reference_checks(exp: Expectations, polytope_paths: dict) -> list[str]:
    """Checks made once at set-up; returns the mismatches found.

    The period engine must agree with the brute-force oracle through
    degree 8 on every bundled polytope, and the closed forms and frozen
    sequences must agree with the golden period prefixes.
    """
    from conifold import from_fan_polytope, period_sequence, period_term_direct
    from conifold.lattice import polytope_from_json_dict

    errors = []
    for name in POLYTOPES:
        w = from_fan_polytope(
            polytope_from_json_dict(json.loads(polytope_paths[name].read_text()))
        )
        fast = period_sequence(w, ORACLE_DMAX).terms
        direct = [period_term_direct(w, d) for d in range(ORACLE_DMAX + 1)]
        if list(fast) != direct:
            errors.append(f"{name}: period engine disagrees with the oracle")
    sequences = {name: form(10) for name, form in CLOSED_FORMS.items()}
    sequences.update(exp.sequences)
    for name, terms in sequences.items():
        prefix = exp.golden[name]["periods"]
        if list(terms[: len(prefix)]) != prefix:
            errors.append(f"{name}: sequence disagrees with the golden prefix")
    return errors


# ---------------------------------------------------------------------------
# jobs


@dataclass(frozen=True)
class Job:
    kind: str  # periods | transition | match | resolve | recurrence
    base: str  # bundled polytope (or sequence) the input derives from
    argv: tuple
    digest_key: str | None  # None: output depends on the image's vertex order
    dmax: int = 0


def job_for(kind, base, path, data_dir, dmax=0):
    """The job running ``kind`` on ``path``, an input derived from ``base``."""
    path = str(path)
    if kind == "periods":
        return Job(kind, base, ("periods", path, "--dmax", str(dmax)),
                   f"periods{dmax}:{base}", dmax)
    if kind == "match":
        return Job(kind, base,
                   ("match", path, str(data_dir / "fano.jsonl"), "--dmax", "10"),
                   f"match10:{base}", 10)
    if kind == "resolve":
        return Job(kind, base, ("resolve", path), f"resolve:{base}")
    if kind == "transition":
        return Job(kind, base, ("transition", path), f"transition:{base}")
    raise ValueError(kind)


def unimodular_image(vertices, rng: random.Random, lo: int, hi: int) -> list:
    """Vertices mapped by a seeded product of shear, swap and negate ops
    whose largest |coordinate| lies in [lo, hi].  A walk of shears (add c
    times coordinate j to coordinate i) grows the coordinates, skipping any
    shear that takes one above ``hi``, until the largest reaches ``lo``; a
    seeded permutation and negation of the axes follow.  A draw costs about
    the same whatever the seed.  A unimodular image has every invariant of
    the original."""
    dim = len(vertices[0])
    while True:
        image = [list(v) for v in vertices]
        for _ in range(200):  # a walk stuck below lo starts again
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-2, -1, 1, 2))
            column = [point[i] + c * point[j] for point in image]
            if max(map(abs, column)) > hi:
                continue
            for point, x in zip(image, column):
                point[i] = x
            if max(abs(x) for point in image for x in point) >= lo:
                axes = rng.sample(range(dim), dim)
                signs = [rng.choice((-1, 1)) for _ in range(dim)]
                return [[s * point[k] for s, k in zip(signs, axes)] for point in image]


def facet_indices(vertices) -> list:
    """The facets of conv(vertices) as tuples of indices into ``vertices``;
    a unimodular image has the same facets on the same indices."""
    from conifold import convex_hull

    index = {tuple(v): i for i, v in enumerate(vertices)}
    hull = convex_hull([tuple(v) for v in vertices])
    return [tuple(index[v] for v in f.vertices) for f in hull.facets]


def facet_box_cells(facet) -> int:
    """Bounding-box cells the lattice layer's scan visits for one facet of
    a 3-polytope, given its vertices: the box of the facet projected out of
    the first coordinate its normal does not vanish on.  Any three vertices
    of a facet span it, so their cross product gives the normal."""
    a, b, c = facet[:3]
    u = [y - x for x, y in zip(a, b)]
    v = [y - x for x, y in zip(a, c)]
    normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
              u[0] * v[1] - u[1] * v[0])
    k = next(j for j in range(3) if normal[j] != 0)
    box = 1
    for j in range(3):
        if j != k:
            coords = [point[j] for point in facet]
            box *= max(coords) - min(coords) + 1
    return box


def scan_cells(points, facets) -> int:
    """Scan cells of the hull of ``points`` with facets given as index
    tuples (``facet_indices``).  The lattice work of a hull grows with
    this."""
    return sum(facet_box_cells([points[i] for i in idx]) for idx in facets)


def cell_target(vertices, facets, lo, hi, key) -> int:
    """Median scan cells of images in the band [lo, hi], drawn from a
    generator that does not depend on the workload seed."""
    rng = random.Random(key)
    cells = sorted(scan_cells(unimodular_image(vertices, rng, lo, hi), facets)
                   for _ in range(CELL_TARGET_DRAWS))
    return cells[len(cells) // 2]


def matched_image(vertices, facets, rng, lo, hi, target) -> list:
    """Of MATCH_DRAWS seeded images in the band [lo, hi], the one whose scan
    cells are closest to ``target``, so that a new seed brings new inputs
    but about the same amount of lattice work, at a set-up cost that does
    not depend on the seed."""
    draws = [unimodular_image(vertices, rng, lo, hi) for _ in range(MATCH_DRAWS)]
    return min(draws, key=lambda image: abs(scan_cells(image, facets) - target))


def _write_polytope(inputs: Path, base, image, tag) -> Path:
    path = inputs / f"{base}-{tag}.json"
    path.write_text(json.dumps({"name": f"{base} image", "vertices": image}))
    return path


def _write_sequence(inputs: Path, name, terms) -> Path:
    path = inputs / f"{name}-sequence.json"
    path.write_text(json.dumps({"periods": list(terms)}))
    return path


def recurrence_terms(exp: Expectations, name: str) -> list[int]:
    length = RECURRENCE_JOBS[name][0]
    if name in CLOSED_FORMS:
        return CLOSED_FORMS[name](length)
    return list(exp.sequences[name][: length + 1])


def build_jobs(workload, seed, exp, inputs: Path, data_dir: Path, smoke=False):
    """The seeded job list of one pass over ``workload``.

    ``smoke`` keeps a cheap subset of every workload for the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    poly_dir = data_dir / "polytopes"
    bundled = {name: poly_dir / f"{name}.json" for name in POLYTOPES}
    vertices = {
        name: json.loads(path.read_text())["vertices"] for name, path in bundled.items()
    }
    jobs = []
    if workload == "deep-periods":
        names = ("p3", "nodal_01") if smoke else POLYTOPES
        jobs = [job_for("periods", n, bundled[n], data_dir, DEEP_DMAX) for n in names]
    elif workload == "resolution-census":
        copies = {"nodal_01": 2, "nodal_02": 2, "nodal_03": 0 if smoke else 1}
        for name, n_images in copies.items():
            if not (smoke and name == "nodal_03"):
                jobs.append(job_for("transition", name, bundled[name], data_dir))
            for c in range(n_images):
                image = unimodular_image(vertices[name], rng, 4, 8)
                path = _write_polytope(inputs, name, image, f"census{c}")
                job = job_for("transition", name, path, data_dir)
                if name == "nodal_03":
                    # 46 of 64 resolutions are regular, but which ones depends
                    # on the image's canonical vertex order
                    job = replace(job, digest_key=None)
                jobs.append(job)
    elif workload == "cli-mix":
        # every polytope, then one image per coordinate band in [10, 60]
        for name in POLYTOPES:
            kinds = ["match", "resolve", "periods"]
            if name != "nodal_03":
                kinds.append("transition")  # N <= 2 only
            paths = [bundled[name]]
            facets = facet_indices(vertices[name])
            for b, (lo, hi) in enumerate(MIX_BANDS[:1] if smoke else MIX_BANDS):
                target = exp.cell_targets[name][b]
                image = matched_image(vertices[name], facets, rng, lo, hi, target)
                paths.append(_write_polytope(inputs, name, image, f"mix{b}"))
            for path in paths:
                for kind in kinds:
                    jobs.append(job_for(kind, name, path, data_dir, 12))
    elif workload == "recurrence-hunt":
        names = ("p3", "nodal_03", "p2xp1") if smoke else tuple(RECURRENCE_JOBS)
        for name in names:
            length, rmax, dmax_deg, stride, _ = RECURRENCE_JOBS[name]
            path = _write_sequence(inputs, name, recurrence_terms(exp, name))
            argv = ("recurrence", str(path), "--rmax", str(rmax),
                    "--degree-max", str(dmax_deg), "--stride", str(stride))
            jobs.append(Job("recurrence", name, argv, f"recurrence:{name}", length))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# the gate


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(job: Job, rc, stdout: str, exp: Expectations) -> str | None:
    """None when the job's exit code and stdout are right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    if job.digest_key is not None and digest(stdout) != exp.digests.get(job.digest_key):
        return f"stdout digest differs from the frozen {job.digest_key}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    gold = exp.golden.get(job.base, {})
    if job.kind == "periods":
        terms = out["periods"]
        if len(terms) != job.dmax + 1 or terms[: len(gold["periods"])] != gold["periods"]:
            return "period prefix differs from golden"
        if job.base in CLOSED_FORMS and terms != CLOSED_FORMS[job.base](job.dmax):
            return "periods differ from the closed form"
    elif job.kind == "transition":
        got = {key: out[key] for key in INVARIANTS}
        if got != {key: gold[key] for key in INVARIANTS}:
            return f"invariants {got} differ from golden"
        flags = [r["regular"] for r in out["resolutions"]]
        if len(flags) != gold["resolution_count"] or sum(flags) != gold["regular_count"]:
            return f"{sum(flags)} of {len(flags)} resolutions regular"
    elif job.kind == "match":
        names = [c["name"] for c in out["candidates"]]
        if not names or names[0] != MATCH_NAME[job.base]:
            return f"match candidates {names}"
        if out["query"]["degree"] != gold["degree"]:
            return "match query degree differs from golden"
    elif job.kind == "resolve":
        if out["N"] != gold["N"] or out["count"] != gold["resolution_count"]:
            return "resolution count differs from golden"
    elif job.kind == "recurrence":
        return _check_recurrence(job, out, exp)
    return None


def _check_recurrence(job: Job, out: dict, exp: Expectations) -> str | None:
    from conifold import Recurrence, verify_recurrence

    want = RECURRENCE_JOBS[job.base][4]
    if want is None:
        return None if out == {"found": False} else "found a recurrence where none exists"
    if not out.get("found") or (out["order"], out["degree"]) != want:
        return f"recurrence {out.get('order')}/{out.get('degree')}, expected {want}"
    stride = RECURRENCE_JOBS[job.base][3]
    terms = recurrence_terms(exp, job.base)[::stride]
    if not verify_recurrence(Recurrence.from_json_dict(out), terms):
        return "recurrence does not annihilate the sequence"
    return None
