"""Machine-speed probe: end-to-end times in reference seconds.

On a shared box the machine's speed for single-threaded Python drifts
by 2-3x over tens of minutes (other tenants), far more than any change
to the program this benchmark is meant to catch.  So every untraced run
also times a fixed calibration loop, written here and sharing no code
with the program, several times spread over the run.  The gated
end-to-end times are reported in *reference seconds*: wall seconds
scaled by ``(REFERENCE_LOOP_S / mean loop time) ** k``, an estimate of
what the run would have taken on a machine where the loop takes
:data:`REFERENCE_LOOP_S`.  Rates are scaled the other way.  The raw
wall-clock values are printed next to them (not gated), with the loop's
mean time.

Each figure follows the machine's speed with its own strength ``k``:
the audit's compute-bound graph build almost one for one, a latency
that waits on wake-ups much less.  :data:`SENSITIVITY` holds, per
workload and metric, the slope of log(wall value) against log(loop
time) over 116 runs of the benchmark (four ten-seed sets per workload,
one in a calm phase of a shared 2-core box and three in slow ones; loop
time 54-153 ms).  README.md gives the drift it leaves.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: The calibration loop's time on the reference machine (the 2-core
#: 2.1 GHz box this benchmark was written on, in its fast phase).
REFERENCE_LOOP_S = 0.060
#: How strongly each gated time or rate follows the loop's time, per
#: workload (see above); a name not listed here is not scaled.
SENSITIVITY = {
    "sim-star2": {
        "setup_s": 0.77, "commits_per_s": 0.82, "audit_s": 0.93,
        "txn_p50_ms": 0.71,
    },
    "dist-star2": {
        "setup_s": 0.53, "commits_per_s": 0.83, "audit_s": 0.95,
        "txn_p50_ms": 0.67,
    },
    "serve-tcp": {
        "setup_s": 0.81, "commits_per_s": 0.90, "audit_s": 0.92,
        "txn_p50_ms": 0.49,
    },
}

_ITERATIONS = 120_000


class _Node:
    __slots__ = ("key", "log", "index")

    def __init__(self, key: int) -> None:
        self.key = key
        self.log: list[int] = []
        self.index: dict[int, int] = {}


def calibration_loop() -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    Object attribute access, small dicts and lists, a heap, integer
    arithmetic and string formatting: the operations the program's hot
    paths are made of, so a slow phase of the machine slows both alike.
    """
    rng = random.Random(1)
    nodes = [_Node(key) for key in range(64)]
    heap: list[tuple[int, int]] = []
    started = time.perf_counter()
    for i in range(_ITERATIONS):
        node = nodes[rng.randrange(64)]
        node.log.append(i)
        node.index[i % 31] = i
        if node.index.get((i + 1) % 31) is None:
            heapq.heappush(heap, (i, node.key))
        if len(node.log) > 50:
            node.log = node.log[-10:]
        if len(heap) > 100:
            heapq.heappop(heap)
        _ = f"x{i % 97}"
    return time.perf_counter() - started


class SpeedProbe:
    """Calibration samples taken through a run of ``workload``, and the
    scale they give."""

    def __init__(self, workload: str) -> None:
        self.sensitivity = SENSITIVITY[workload]
        self.samples: list[float] = []

    def sample(self) -> None:
        gc.collect()
        self.samples.append(calibration_loop())

    @property
    def loop_s(self) -> float:
        return statistics.fmean(self.samples)

    def speed(self, name: str) -> float:
        """How much faster the reference machine runs metric ``name``
        than this run's machine did."""
        k = self.sensitivity.get(name, 0.0)
        return (self.loop_s / REFERENCE_LOOP_S) ** k


def reference_values(probe: SpeedProbe, wall: dict[str, float]) -> dict:
    """Wall-clock end-to-end values in reference seconds (rates for
    names ending ``_per_s``, times otherwise)."""
    return {
        name: value * probe.speed(name) if name.endswith("_per_s")
        else value / probe.speed(name)
        for name, value in wall.items()
    }
