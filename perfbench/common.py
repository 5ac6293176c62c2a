"""Shared helpers: locating the program, statistics and run stamps.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``; nothing is installed.  Every helper here is pure
apart from :func:`use_checkout` (which extends ``sys.path``) and the
stamp readers.
"""

from __future__ import annotations

import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Nearest-rank percentiles tried, highest first, when reporting the
#: highest percentile that still has ten samples beyond it.
PERCENTILES = (0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5)
#: Samples a percentile needs strictly beyond its rank to be reported.
MIN_BEYOND = 10
#: The ``serve-tcp`` server collects garbage every this many server steps.
GC_EVERY = 500
#: Distinct inputs one ``--seed`` stands for (see :func:`input_seed`).
INPUTS_PER_SEED = 64


class BenchError(Exception):
    """No measurement possible: the program is missing, stalled or died."""


@dataclass
class Checks:
    """Output checks; any failure makes the whole run incorrect."""

    failures: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def use_checkout() -> None:
    """Make ``src/`` importable, or fail when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def input_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th input a run of ``seed`` measures.

    A run spreads its samples over a sequence of inputs rather than
    repeating one: the audit's cost follows the conflict structure of
    the schedule, which differs from input to input by about as much
    as the machine's own noise, so one input's luck would become the
    run's figure.  Each seed owns its own block of input seeds.
    """
    return seed * INPUTS_PER_SEED + index % INPUTS_PER_SEED


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q`` percentile's rank."""
    return n - rank(n, q) if n else 0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    if not samples:
        raise BenchError("percentile of no samples")
    ordered = sorted(samples)
    return float(ordered[rank(len(ordered), q) - 1])


def highest_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with ten samples beyond it."""
    for q in PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def latency_summary(samples_s: Sequence[float]) -> dict:
    """p50, p99 and the highest well-sampled percentile, in ms.

    ``p99_beyond`` is the number of samples above the p99 rank: the p99
    is only trustworthy when it is at least :data:`MIN_BEYOND`.
    """
    n = len(samples_s)
    summary: dict = {"samples": n}
    if not n:
        return summary
    ms = [s * 1000.0 for s in samples_s]
    summary["p50_ms"] = percentile(ms, 0.50)
    summary["p99_ms"] = percentile(ms, 0.99)
    summary["p99_beyond"] = beyond(n, 0.99)
    top = highest_percentile(n)
    summary["well_sampled_percentile"] = top
    if top is not None:
        summary["well_sampled_ms"] = percentile(ms, top)
    return summary


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    """What every result is stamped with (cores, Python, commit, seed)."""
    from repro.sweep.runner import usable_cpus

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
