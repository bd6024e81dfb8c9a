import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
DATA = SRC / "conifold" / "data"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def golden() -> dict:
    return json.loads((DATA / "golden.json").read_text())


@pytest.fixture(scope="session")
def corpus_paths() -> dict:
    return {p.stem: p for p in sorted((DATA / "polytopes").glob("*.json"))}


@pytest.fixture(scope="session")
def corpus(corpus_paths) -> dict:
    from conifold.lattice import convex_hull

    out = {}
    for stem, path in corpus_paths.items():
        payload = json.loads(path.read_text())
        out[stem] = convex_hull([tuple(v) for v in payload["vertices"]])
    return out


@pytest.fixture(scope="session")
def nodal_stems(golden) -> list:
    return sorted(
        stem for stem, g in golden["polytopes"].items() if g["N"] > 0
    )


def child_env() -> dict:
    """The environment of a child interpreter that imports the package
    from src/, so the tests do not depend on an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args, expect_exit=0, timeout=60):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr).

    Uses `python -m conifold` under ``child_env``, so the tests do not
    depend on an installed console script.  A run longer than ``timeout``
    seconds raises subprocess.TimeoutExpired, so a hanging command fails
    the test instead of stalling the suite.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "conifold", *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=str(REPO_ROOT),
        timeout=timeout,
    )
    if expect_exit is not None:
        assert proc.returncode == expect_exit, (
            f"exit {proc.returncode} != {expect_exit}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def cli():
    return run_cli
