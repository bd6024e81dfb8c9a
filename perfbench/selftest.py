"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload runs at reduced size, untraced and traced, exits
   0 and reports exactly the metrics ``BENCHMARK.json`` names.
2. The gate bites: a deliberately wrong expected value of each kind (a
   frozen digest, a golden regular count, a golden period, an expected
   recurrence) makes the affected jobs count as failures.
3. Seeds change inputs, not answers: two seeds write different unimodular
   images whose transition invariants and regular counts are identical.
4. The timing sees a slower program: a package that runs every job twice
   reads about 2 on ``wall_rel`` against the reference, and the estimator
   recovers a known ratio from samples taken at a flickering speed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run
import speed
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke() -> None:
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload,
                 "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
        print(f"PASS smoke {workload}")


def _failures(workload, exp, inputs, data_dir, cli) -> list:
    jobs = wl.build_jobs(workload, 7, exp, inputs, data_dir)
    _, outputs = run.run_pass(cli, jobs)
    failures: list = []
    run.gate(jobs, outputs, exp, failures)
    return failures


def corrupted_expectations_fail(data_dir, cli) -> None:
    exp = wl.load_expectations(data_dir)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        inputs = Path(tmp)
        assert not _failures("recurrence-hunt", exp, inputs, data_dir, cli)
        cases = []
        bad = copy.deepcopy(exp)
        bad.digests["resolve:nodal_02"] = "0" * 64
        cases.append(("cli-mix", bad, "digest"))
        bad = copy.deepcopy(exp)
        bad.golden["nodal_03"]["regular_count"] = 47
        cases.append(("resolution-census", bad, "46 of 64"))
        bad = copy.deepcopy(exp)
        bad.golden["octahedron"]["periods"][4] += 1
        cases.append(("deep-periods", bad, "golden"))
        saved = wl.RECURRENCE_JOBS["nodal_03"]
        try:
            wl.RECURRENCE_JOBS["nodal_03"] = saved[:4] + ((1, 4),)
            cases.append(("recurrence-hunt", exp, "expected (1, 4)"))
            for workload, bad_exp, needle in cases:
                failures = _failures(workload, bad_exp, inputs, data_dir, cli)
                assert failures and all(needle in f for f in failures), (workload, failures)
                print(f"PASS a wrong expectation fails {len(failures)} {workload} job(s): "
                      f"{failures[0].split(': ', 1)[1]}")
        finally:
            wl.RECURRENCE_JOBS["nodal_03"] = saved


def seeds_keep_invariants(data_dir, cli) -> None:
    exp = wl.load_expectations(data_dir)
    seen = []
    for seed in (1, 2):
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            jobs = [j for j in wl.build_jobs("cli-mix", seed, exp, Path(tmp), data_dir, smoke=True)
                    if j.kind == "transition"]
            jobs.sort(key=lambda j: (j.base, j.argv[1]))
            images = {j.argv[1]: Path(j.argv[1]).read_text() for j in jobs
                      if "polytopes" not in Path(j.argv[1]).parts}
            invariants = {}
            for job in jobs:
                rc, out = run.call_cli(cli, job.argv)
                assert rc == 0
                data = json.loads(out)
                facts = tuple(data[k] for k in wl.INVARIANTS) + (
                    sum(r["regular"] for r in data["resolutions"]),)
                invariants.setdefault(job.base, set()).add(facts)
        seen.append((images, invariants))
    (images1, inv1), (images2, inv2) = seen
    assert sorted(images1.values()) != sorted(images2.values()), "seed did not change the images"
    assert inv1 == inv2 and all(len(v) == 1 for v in inv1.values()), (inv1, inv2)
    print(f"PASS seeds 1 and 2 give different images with identical invariants "
          f"on {len(inv1)} polytopes")


def estimator_recovers_ratio() -> None:
    rng = random.Random(7)
    base = [rng.uniform(0.05, 1.5) for _ in range(6)]
    for truth in (1.0, 1.3):
        samples = []
        for _ in range(2):
            for job, t in enumerate(base):
                for side in (0, 1):
                    probe = rng.uniform(1.0, 1.8)
                    busy = t * (truth if side == 0 else 1.0) * probe ** 1.5
                    samples.append((job, side, busy * rng.uniform(0.99, 1.01), probe))
        ratio, alpha, _ = speed.relative_time(samples, len(base))
        assert abs(ratio / truth - 1) < 0.02 and abs(alpha - 1.5) < 0.1, (truth, ratio, alpha)
    print("PASS the estimator recovers ratios 1.0 and 1.3 at a speed flickering 1.8x")


class _Twice:
    """A package whose every command runs twice, the first time silently."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(argv)
        return self.cli.main(argv)


def slower_program_reads_slower(cli) -> None:
    args = SimpleNamespace(workload="recurrence-hunt", seed=7, seconds=0.1, smoke=True)
    sys.path.insert(0, str(run.REF_DIR))
    from conifold_ref import cli as ref_cli

    failures: list = []
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        exp, jobs, errors = run.setup(args.workload, args.seed, Path(tmp), args.smoke)
        assert not errors
        m = run.measure(_Twice(cli), ref_cli, jobs, exp, args, failures)
    ratio, _, _ = speed.relative_time(m["samples"], len(jobs))
    assert not failures and 1.6 < ratio < 2.5, (ratio, failures)
    print(f"PASS a package that runs every job twice reads wall_rel {ratio:.2f}")


def main() -> int:
    if not (run.SRC / "conifold").is_dir():
        print("selftest: run from the root of a conifold checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    import conifold
    from conifold import cli

    data_dir = Path(conifold.__file__).resolve().parent / "data"
    smoke()
    corrupted_expectations_fail(data_dir, cli)
    seeds_keep_invariants(data_dir, cli)
    estimator_recovers_ratio()
    slower_program_reads_slower(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
