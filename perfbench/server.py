"""The ``serve-tcp`` server process: an HDD ``TransactionServer`` on TCP.

Started by ``servework.py`` as ``python3 perfbench/server.py``.  It
listens on an ephemeral loopback port and prints ``{"port": N}`` as its
first stdout line.  It serves until a line (or end of file) arrives on
stdin, then closes, audits everything it served with the MVSG oracle
and prints one JSON report line: the audit verdict and time, its peak
RSS, its CPU time and, with ``--trace 1``, its per-layer spans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from common import GC_EVERY, peak_rss_mb, use_checkout


async def serve(args: argparse.Namespace) -> dict:
    # Imported here: the program is importable only after use_checkout().
    from layers import (
        instrument_codec,
        instrument_scheduler,
        scheduler_facts,
        traced_audit,
    )
    from tracer import Tracer

    from repro.core.scheduler import HDDScheduler
    from repro.serve import TransactionServer
    from repro.sim.inventory import build_inventory_partition

    scheduler = HDDScheduler(build_inventory_partition())
    server = TransactionServer(scheduler, gc_every=GC_EVERY)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument_scheduler(tracer, scheduler)
        instrument_codec(tracer)
    _, port = await server.start_tcp("127.0.0.1", 0)
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    await loop.run_in_executor(None, sys.stdin.readline)
    serve_wall_s = time.perf_counter() - wall0
    serve_cpu_s = time.process_time() - cpu0
    await server.close()
    rss = peak_rss_mb()
    started = time.perf_counter()
    if tracer is not None:
        verdict = traced_audit(tracer, scheduler.schedule)
    else:
        verdict = server.audit()
    audit_s = time.perf_counter() - started
    report = {
        "audit_ok": verdict,
        "audit_s": audit_s,
        "peak_rss_mb": rss,
        "serve_wall_s": serve_wall_s,
        "serve_cpu_s": serve_cpu_s,
        "schedule_steps": len(scheduler.schedule),
        "stats": server.stats_view(),
        "facts": scheduler_facts(scheduler),
    }
    if tracer is not None:
        report["trace"] = tracer.export()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_checkout()
    report = asyncio.run(serve(args))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
