"""Benchmark of the conifold package: one workload, one seed, one client.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every job is a ``conifold`` command line run in-process through
``conifold.cli.main(argv)`` with stdout captured, one at a time (closed
loop, a single client, no threads).  Every output is checked
(``workloads.check_output``), and the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The speed of a shared machine flickers by up to 1.8 times, so times are
taken against a frozen copy of the package (``reference/conifold_ref``,
the seed commit's ``src/conifold``): after a warm-up, every job runs back
to back on both, and ``speed.relative_time`` turns the pairs into
``wall_rel``, the job list's time relative to the reference.  ``setup_s``
and ``cold_start_rel`` pair fresh processes the same way.  Raw wall times
are printed on the info line.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes of the package alone,
requires their stdout to be byte-identical job for job, and reports the
per-layer metrics of ``spans.py`` averaged over the traced passes.

Exits 1 when any check fails and 2 when there is no ``src/conifold`` to
benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed
from workloads import (
    POLYTOPES, WORKLOADS, build_jobs, check_output, load_expectations, reference_checks,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# a verbatim copy of src/conifold at the seed commit, renamed; every timed
# job also runs on it, back to back, as the measure of the machine's speed
REF_DIR = Path(__file__).resolve().parent / "reference"
REF_PACKAGE = "conifold_ref"
SETUP_PAIRS = 5
COLD_START_PAIRS = 10
# set-up seconds of the reference (a fresh ``run.py --setup-only
# --reference``) on a 2-vCPU x86-64 machine, Python 3.11.7, in its faster
# state: ``setup_s`` is the package's set-up time relative to the
# reference's, in these seconds
REF_SETUP_S = {
    "deep-periods": 0.17,
    "resolution-census": 0.18,
    "cli-mix": 0.24,
    "recurrence-hunt": 0.18,
}
# about the seconds one timed pass over the job list (every job on the
# package and on the reference) takes at the seed commit on a 2-vCPU x86-64
# machine (Python 3.11), the basis of ``pass_count``
PASS_SECONDS = {
    "deep-periods": 4.5,
    "resolution-census": 5.5,
    "cli-mix": 8.5,
    "recurrence-hunt": 3.0,
}
END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "job_p90_rel": "ratio",
    "cold_start_rel": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a cheap subset of the job list (self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; the parent times this for setup_s")
    ap.add_argument("--reference", action="store_true",
                    help="with --setup-only: set up on the frozen reference copy")
    return ap.parse_args(argv)


def setup(workload, seed, inputs: Path, smoke: bool):
    """Import the package, check the references, write the seeded inputs."""
    import conifold

    # the data are inputs, not code: the reference reads them from src/ too
    data_dir = SRC / "conifold" / "data"
    exp = load_expectations(data_dir)
    bundled = {name: data_dir / "polytopes" / f"{name}.json" for name in POLYTOPES}
    errors = reference_checks(exp, bundled)
    jobs = build_jobs(workload, seed, exp, inputs, data_dir, smoke)
    return exp, jobs, errors


def call_cli(cli, argv) -> tuple:
    """(exit code, stdout) of one in-process ``conifold`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback: the CLI would exit 1
            print(f"perfbench: {' '.join(argv)} raised {exc!r}", file=sys.__stderr__)
            rc = 1
    return rc, out.getvalue()


def run_pass(cli, jobs, tracer=None) -> tuple:
    """One closed-loop pass: (per-job latencies, outputs)."""
    latencies, outputs = [], []
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = j
        t0 = time.perf_counter()
        outputs.append(call_cli(cli, job.argv))
        latencies.append(time.perf_counter() - t0)
    return latencies, outputs


def gate(jobs, outputs, exp, failures: list) -> None:
    for job, (rc, out) in zip(jobs, outputs):
        try:
            why = check_output(job, rc, out, exp)
        except (KeyError, IndexError, TypeError) as exc:
            why = f"stdout lacks an expected field ({exc!r})"
        if why is not None:
            failures.append(f"{' '.join(job.argv)}: {why}")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONIFOLD_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(REF_DIR), env.get("PYTHONPATH")) if p)
    return env


def use_reference() -> None:
    """Make ``import conifold`` and its submodules load the frozen
    reference copy, so that the set-up code runs unchanged on it."""
    sys.path.insert(0, str(REF_DIR))
    ref = importlib.import_module(REF_PACKAGE)
    for name, module in list(sys.modules.items()):
        if name == REF_PACKAGE or name.startswith(REF_PACKAGE + "."):
            sys.modules["conifold" + name[len(REF_PACKAGE):]] = module
    assert sys.modules["conifold"] is ref


def setup_probe(args, reference: bool, failures: list) -> float:
    """Wall time of a fresh process that only sets up: interpreter, import,
    reference checks and input generation, on the package or on the
    frozen reference."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    cmd += ["--reference"] if reference else []
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def cold_start_probe(package: str, failures: list) -> float:
    """Wall time of ``python -m <package> --version``: the package import
    every command-line call pays."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", package, "--version"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("conifold "):
        failures.append(f"cold start of {package}: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")
    return elapsed


def cold_start_pair(first_ref: bool, failures: list) -> tuple:
    """Cold starts of the package and of the frozen reference, timed back
    to back."""
    order = (REF_PACKAGE, "conifold") if first_ref else ("conifold", REF_PACKAGE)
    t = {package: cold_start_probe(package, failures) for package in order}
    return t["conifold"], t[REF_PACKAGE]


def setup_pair(args, first_ref: bool, failures: list) -> tuple:
    """Set-up times of the package and of the frozen reference, timed back
    to back."""
    t = {ref: setup_probe(args, ref, failures) for ref in (first_ref, not first_ref)}
    return t[False], t[True]


def median_ratio(pairs) -> float:
    """Median over (package, reference) pairs of their ratio."""
    return statistics.median(a / b for a, b in pairs)


def p90(values) -> float:
    """Inclusive 90th percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pass_count(workload, seconds) -> int:
    """Timed passes a run makes: as many as fit in ``seconds`` at the speed
    of the seed commit.  The count depends on ``--seconds`` only, so every
    commit is timed over the same number of samples."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def measure(cli, ref_cli, jobs, exp, args, failures: list) -> dict:
    """A warm-up pass of the package alone, one of the reference, then
    ``pass_count`` timed passes in which every job runs twice back to back,
    on the package and on the frozen reference copy, the first of the two
    alternating, with ``speed.SpeedProbe`` sampling the machine's speed.

    Returns the timed samples ``(job, side, busy, probe)`` (side 0 is the
    package), the raw latencies of the package, the peak RSS after the
    warm-up (before the reference ran), and the (package, reference) seconds
    of the set-up and cold-start probes.  Those probes run in blocks
    before, between and after the timed passes, so that they sample the
    same stretch of machine time as the jobs but never sit between the two
    halves of a pair.
    """
    _, outputs = run_pass(cli, jobs)
    gate(jobs, outputs, exp, failures)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the reference warms up too: the interpreter specialises each code
    # object over its first calls, and both sides must be timed past that
    _, outputs = run_pass(ref_cli, jobs)
    for job, (rc, _out) in zip(jobs, outputs):
        if rc != 0:
            failures.append(f"{' '.join(job.argv)}: reference exited {rc}")
    passes = pass_count(args.workload, args.seconds)
    samples, latencies = [], [0.0] * len(jobs)
    setups, colds = [], []
    for p in range(passes + 1):
        while len(colds) < COLD_START_PAIRS * (p + 1) / (passes + 1):
            colds.append(cold_start_pair(len(colds) % 2 == 1, failures))
        while len(setups) < SETUP_PAIRS * (p + 1) / (passes + 1):
            setups.append(setup_pair(args, len(setups) % 2 == 1, failures))
        if p == passes:
            break
        outputs, calls = [], []
        with speed.SpeedProbe() as probe:
            for j, job in enumerate(jobs):
                sides = (1, 0) if (p + j) % 2 else (0, 1)
                for side in sides:
                    t0 = time.perf_counter()
                    rc, out = call_cli(ref_cli if side else cli, job.argv)
                    t1 = time.perf_counter()
                    calls.append((j, side, t0, t1))
                    if side == 0:
                        latencies[j] += t1 - t0
                        outputs.append((rc, out))
                    elif rc != 0:
                        failures.append(f"{' '.join(job.argv)}: reference exited {rc}")
        samples += [(j, side) + probe.sample(t0, t1) for j, side, t0, t1 in calls]
        gate(jobs, outputs, exp, failures)
    return {"samples": samples, "latencies": latencies, "passes": passes, "rss": rss,
            "setups": setups, "colds": colds}


def measure_traced(cli, jobs, exp, args, tracer, failures: list) -> tuple:
    """Alternate untraced and traced passes, ``pass_count`` of each;
    stdout must not change.  Returns the per-job best latencies of each
    kind and the traced pass count."""
    plain = [float("inf")] * len(jobs)
    traced = list(plain)
    passes = pass_count(args.workload, args.seconds)
    for _ in range(passes):
        latencies, outputs = run_pass(cli, jobs)
        plain = [min(a, b) for a, b in zip(plain, latencies)]
        tracer.install()
        try:
            latencies, traced_outputs = run_pass(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        traced = [min(a, b) for a, b in zip(traced, latencies)]
        gate(jobs, outputs, exp, failures)
        for job, a, b in zip(jobs, outputs, traced_outputs):
            if a != b:
                failures.append(f"{' '.join(job.argv)}: output changes with tracing on")
    return plain, traced, passes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conifold").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD when the checkout is a git work tree of its own, else None."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conifold" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'conifold'}; "
              "run from the root of a conifold checkout", file=sys.stderr)
        return 2
    # the only runtime knob the package reads; the benchmark pins its default
    os.environ.pop("CONIFOLD_THREADS", None)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.reference:
        use_reference()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        exp, jobs, errors = setup(args.workload, args.seed, Path(tmp), args.smoke)
        if errors:
            print("perfbench: reference checks failed:\n  " + "\n  ".join(errors),
                  file=sys.stderr)
            return 1
        if args.setup_only:
            return 0
        from conifold import cli

        failures: list = []
        if args.trace:
            tracer = spans.Tracer()
            plain, traced, passes = measure_traced(cli, jobs, exp, args, tracer, failures)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = tracer.metrics(passes)
            values["trace.wall_s"] = sum(traced)
            values["trace.overhead_s"] = sum(traced) - sum(plain)
            units = spans.metric_units()
            attempted = 2 * len(jobs) * passes
            timed = {"untraced_passes": passes, "traced_passes": passes}
        else:
            sys.path.insert(0, str(REF_DIR))
            ref_cli = importlib.import_module(f"{REF_PACKAGE}.cli")
            m = measure(cli, ref_cli, jobs, exp, args, failures)
            passes, latencies = m["passes"], m["latencies"]
            ratio, alpha, (prog, ref) = speed.relative_time(m["samples"], len(jobs))
            values = {
                "wall_rel": ratio,
                "setup_s": median_ratio(m["setups"]) * REF_SETUP_S[args.workload],
                "peak_rss_mib": m["rss"],
                "job_p90_rel": p90(prog) / p90(ref),
                "cold_start_rel": median_ratio(m["colds"]),
            }
            units = END_TO_END
            attempted = (len(jobs) * (2 * passes + 2) + 2 * len(m["setups"])
                         + 2 * len(m["colds"]))
            timed = {
                "timed_passes": passes,
                "alpha": alpha,
                "job_p50_rel": statistics.median(prog) / statistics.median(ref),
                "wall_s": sum(latencies) / passes,
                "job_p50_s": statistics.median(latencies) / passes,
                "job_p90_s": p90(latencies) / passes,
                "job_latency_samples": len(latencies),
                "jobs_beyond_p90": sum(x > p90(latencies) for x in latencies),
                "setup_raw_s": statistics.median(t for t, _ in m["setups"]),
                "cold_start_s": statistics.median(t for t, _ in m["colds"]),
                "setup_pairs_s": m["setups"],
                "cold_start_pairs_s": m["colds"],
            }

    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(jobs),
        **timed,
        "failed_frac": len(failures) / attempted,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "CONIFOLD_THREADS": "unset",
        "layer_wait_s": "none: one process, one thread, no queue",
    }
    print(json.dumps({"info": info}))
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
