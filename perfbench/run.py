"""The repository benchmark: three workloads, end to end and per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sim-star2 --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

``sim-star2``
    Monolithic ``HDDScheduler`` in the closed-loop ``Simulator``.
``dist-star2``
    The same mix through ``DistributedRuntime(transport="sim")``.
``serve-tcp``
    A ``TransactionServer`` in its own process over TCP loopback, driven
    by an open-loop staircase of fixed arrival rates.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that wraps the program's public calls
from this directory and reports per-layer metrics, the part of the run
no span covers (``unattributed_s``) and the tracing overhead measured
against untraced work in the same run.

Stdout carries a readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 when
every output check passed, 1 when a check failed (the JSON line is
still printed, with ``correct`` false), 2 when the run could not be made
at all (bad arguments, no program sources); then no JSON is printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BenchError, stamp, use_checkout
from metrics import END_TO_END, PER_LAYER, REPORTED, complete
from speed import REFERENCE_LOOP_S

WORKLOADS = ("sim-star2", "dist-star2", "serve-tcp")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace) -> dict:
    if args.workload == "serve-tcp":
        import servework

        if args.trace:
            return servework.trace(args.seed)
        return servework.measure(args.seed, args.seconds)
    import simwork

    kind = "sim" if args.workload == "sim-star2" else "dist"
    if args.trace:
        return simwork.trace(kind, args.seed)
    return simwork.measure(kind, args.seed, args.seconds)


def report(args: argparse.Namespace, outcome: dict) -> tuple[dict, bool]:
    """Print the readable report; return the result object and verdict."""
    checks = outcome["checks"]
    attempted = max(1, int(outcome["attempted"]))
    failed = int(outcome.get("failed", 0)) if checks.ok else attempted
    values = dict(outcome["metrics"])
    print("# " + json.dumps(stamp(args.workload, args.seed, bool(args.trace))))
    if args.trace:
        catalogue = PER_LAYER
    else:
        catalogue = END_TO_END
        values["failed_ratio"] = failed / attempted
        for name, unit in REPORTED.items():
            if name in values:
                print(f"{name} = {values.pop(name)!r} {unit}  (not gated)")
    metrics = complete(values, catalogue)
    wall = outcome.get("wall", {})
    for name, metric in metrics.items():
        line = f"{name} = {metric['value']!r} {metric['unit']}"
        if name in wall:
            line += f"  (wall clock: {wall[name]!r})"
        print(line)
    if "loop_ms" in outcome:
        print(f"calibration_loop_ms = {outcome['loop_ms']!r} ms  (reference "
              f"{REFERENCE_LOOP_S * 1000.0!r})")
    print("# detail " + json.dumps(outcome["detail"], sort_keys=True))
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, checks.ok


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        use_checkout()
        outcome = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, ok = report(args, outcome)
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
