"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

import os
from dataclasses import dataclass

OUTPUT_FORMATS = ("json", "table")


@dataclass(frozen=True)
class Config:
    dmax: int = 20
    prune: bool = True
    resolution_cap: int = 20
    holdout: int = 5
    output: str = "json"

    def __post_init__(self):
        if self.dmax < 0:
            raise ValueError("dmax must be >= 0")
        if self.resolution_cap < 0:
            raise ValueError("resolution_cap must be >= 0")
        if self.output not in OUTPUT_FORMATS:
            raise ValueError(f"output must be one of {OUTPUT_FORMATS}")


def thread_count(env=os.environ) -> int:
    """Parallelism degree for the regularity scan.

    Defaults to 1 (fully deterministic single-thread path); the
    CONIFOLD_THREADS environment variable overrides it.  Values below 1
    are clamped to 1 rather than rejected: a misconfigured shell should
    not take the tool down.
    """
    raw = env.get("CONIFOLD_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)
