"""Regenerate ``expected.json``: the frozen half of the benchmark's gate.

    python3 perfbench/freeze.py

Computes, with the package under ``src/``, the p2xp1 and nodal_02 period
sequences through degree 60 (the inputs of the exhaustive recurrence
searches), the scan-cell target of every cli-mix image band, and the
sha256 of the stdout of every job template on the six bundled polytopes.  CLI JSON is byte-deterministic by contract, so these
digests pin every later commit to the outputs of the commit that froze
them.  Re-run only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import conifold
    from conifold import cli, from_fan_polytope, period_sequence
    from conifold.lattice import polytope_from_json_dict

    data_dir = Path(conifold.__file__).resolve().parent / "data"
    golden = json.loads((data_dir / "golden.json").read_text())["polytopes"]
    bundled = {n: data_dir / "polytopes" / f"{n}.json" for n in wl.POLYTOPES}
    sequences = {}
    for name in wl.FROZEN_SEQUENCES:
        p = polytope_from_json_dict(json.loads(bundled[name].read_text()))
        sequences[name] = list(period_sequence(from_fan_polytope(p), 60).terms)
    cell_targets = {}
    for name in wl.POLYTOPES:
        vertices = json.loads(bundled[name].read_text())["vertices"]
        facets = wl.facet_indices(vertices)
        cell_targets[name] = [wl.cell_target(vertices, facets, lo, hi, f"{name}:{lo}-{hi}")
                              for lo, hi in wl.MIX_BANDS]
    exp = wl.Expectations(golden, {}, sequences, cell_targets)

    jobs = []
    for name in wl.POLYTOPES:
        for kind in ("match", "resolve", "transition"):
            jobs.append(wl.job_for(kind, name, bundled[name], data_dir))
        for dmax in (12, wl.DEEP_DMAX):
            jobs.append(wl.job_for("periods", name, bundled[name], data_dir, dmax))
    with tempfile.TemporaryDirectory() as tmp:
        jobs += wl.build_jobs("recurrence-hunt", 0, exp, Path(tmp), data_dir)
        outputs = [run.call_cli(cli, job.argv) for job in jobs]
    exp.digests = {job.digest_key: wl.digest(out) for job, (_, out) in zip(jobs, outputs)}
    for job, (rc, out) in zip(jobs, outputs):
        why = wl.check_output(job, rc, out, exp)
        if why is not None:
            print(f"{' '.join(job.argv)}: {why}", file=sys.stderr)
            return 1
    frozen = {"commit": run.commit(), "sequences": sequences, "cell_targets": cell_targets,
              "digests": dict(sorted(exp.digests.items()))}
    wl.EXPECTED_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {len(exp.digests)} digests to {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
