"""Where the traced run puts its spans, and the figures it reads back.

Shared by the in-process workloads and the server process: the HDD
scheduler with its wall manager and garbage collector, the wire codec,
and the MVSG audit with graph build and cycle check timed apart.
"""

from __future__ import annotations

from repro.core.graph import Digraph
from repro.serve import protocol, transport
from repro.txn import depgraph


def _read_kind(txn, _granule) -> str:
    """Read-only transactions read through Protocol C (or fictitious A);
    update transactions through Protocols A and B."""
    return "ro_read" if txn.is_read_only else "update_read"


def instrument_scheduler(tracer, scheduler) -> None:
    """``core.scheduler``, ``core.timewall`` and ``storage.gc`` spans."""
    counts = tracer.counts

    def outcome(result, *_args) -> None:
        counts["scheduler.outcomes"] += 1
        if result.blocked:
            counts["scheduler.blocked"] += 1

    def collected(report, *_args) -> None:
        counts["gc.pruned_versions"] += report.pruned_versions
        counts["gc.walls_retired"] += report.walls_retired

    for op in ("begin", "abort", "poll_walls"):
        tracer.patch(scheduler, op, "core.scheduler", op)
    tracer.patch(scheduler, "read", "core.scheduler", _read_kind, outcome)
    for op in ("write", "commit"):
        tracer.patch(scheduler, op, "core.scheduler", op, outcome)
    for op in ("poll", "force_release"):
        tracer.patch(scheduler.walls, op, "core.timewall", op)
    tracer.patch(scheduler, "collect_garbage", "storage.gc", "collect",
                 collected)


def instrument_codec(tracer) -> None:
    """``serve.protocol`` spans: frame encoding and incremental decoding."""
    tracer.patch(transport, "encode_frame", "serve.protocol", "encode")
    tracer.patch(protocol.FrameDecoder, "feed", "serve.protocol", "decode")


def cache_hit_rate(store) -> float:
    """Share of snapshot-cache lookups served from the cache."""
    cache = store.snapshot_cache_report()
    served = cache["hits"] + cache["misses"] + cache["cold"]
    return cache["hits"] / served if served else 0.0


def scheduler_facts(scheduler) -> dict:
    """The scheduler's own end-of-run counters, as plain data."""
    stats = scheduler.stats
    return {
        "begins": stats.begins,
        "aborts": stats.aborts,
        "read_registrations": stats.read_registrations,
        "walls_released": scheduler.walls.total_released,
        "retained_walls": len(scheduler.walls.released),
        "retained_versions": scheduler.store.total_versions(),
        "cache_hit_rate": cache_hit_rate(scheduler.store),
    }


def scheduler_figures(tracer, facts: dict) -> dict:
    """Per-layer metrics of the scheduler, walls, storage and GC."""
    layer = "core.scheduler"
    reads = ("ro_read", "update_read")
    outcomes = tracer.counts["scheduler.outcomes"]
    return {
        "core.scheduler.begin_us": tracer.op_self_us(layer, "begin"),
        "core.scheduler.read_us": tracer.op_self_us(layer, *reads),
        "core.scheduler.write_us": tracer.op_self_us(layer, "write"),
        "core.scheduler.commit_us": tracer.op_self_us(layer, "commit"),
        "core.scheduler.begin_calls": tracer.op_calls(layer, "begin"),
        "core.scheduler.read_calls": tracer.op_calls(layer, *reads),
        "core.scheduler.write_calls": tracer.op_calls(layer, "write"),
        "core.scheduler.commit_calls": tracer.op_calls(layer, "commit"),
        "core.scheduler.ro_read_us": tracer.op_self_us(layer, "ro_read"),
        "core.scheduler.update_read_us": tracer.op_self_us(
            layer, "update_read"),
        "core.scheduler.blocked_ratio": (
            tracer.counts["scheduler.blocked"] / outcomes if outcomes
            else 0.0),
        "core.scheduler.restart_ratio": (
            facts["aborts"] / facts["begins"] if facts["begins"] else 0.0),
        "core.scheduler.read_registrations": facts["read_registrations"],
        "core.timewall.poll_us": tracer.op_self_us("core.timewall", "poll"),
        "core.timewall.poll_calls": tracer.op_calls("core.timewall", "poll"),
        "core.timewall.releases": facts["walls_released"],
        "core.timewall.retained_walls": facts["retained_walls"],
        "storage.snapshot_cache.hit_rate": facts["cache_hit_rate"],
        "storage.retained_versions": facts["retained_versions"],
        "storage.gc.collect_us": tracer.op_self_us("storage.gc", "collect"),
        "storage.gc.calls": tracer.op_calls("storage.gc", "collect"),
        "storage.gc.pruned_versions": tracer.counts["gc.pruned_versions"],
        "storage.gc.walls_retired": tracer.counts["gc.walls_retired"],
    }


def traced_audit(tracer, schedule) -> bool:
    """``is_serializable(schedule, mode="mvsg")`` with its parts timed."""
    counts = tracer.counts

    def built(graph_and_deps, *_args) -> None:
        counts["depgraph.arcs"] += len(graph_and_deps[1])

    tracer.patch(depgraph, "build_dependency_graph", "txn.depgraph",
                 "build", built)
    tracer.patch(Digraph, "is_acyclic", "txn.depgraph", "cycle_check")
    try:
        audit = tracer.wrap(depgraph.is_serializable, "txn.depgraph", "audit")
        verdict = audit(schedule, mode="mvsg")
    finally:
        tracer.restore()
    counts["depgraph.schedule_steps"] += len(schedule)
    return verdict


def depgraph_figures(tracer) -> dict:
    return {
        "txn.depgraph.build_s": tracer.inclusive_s.get(
            ("txn.depgraph", "build"), 0.0),
        "txn.depgraph.cycle_check_s": tracer.inclusive_s.get(
            ("txn.depgraph", "cycle_check"), 0.0),
        "txn.depgraph.arcs": tracer.counts["depgraph.arcs"],
        "txn.depgraph.schedule_steps": tracer.counts["depgraph.schedule_steps"],
    }
