"""Command-line experiment runner: ``python -m repro <command>``.

The subcommands, all deterministic given ``--seed``:

* ``compare`` — the measured Figure 10 table: every scheduler over the
  same transaction mix (inventory or claims schema);
* ``sweep``   — vary one knob (read-only share, hierarchy depth,
  clients, skew) and print the series.  Runs through the declarative
  sweep subsystem (:mod:`repro.sweep`): ``--workers`` fans the grid
  out across processes, ``--cache-dir`` re-uses cached cells, ``--out``
  writes the merged JSON document, and ``--check-determinism`` runs the
  grid serially *and* in parallel and fails on any divergence;
* ``anomaly`` — replay the Figure 3/4 constructions and print the
  dependency cycles the oracle finds;
* ``info``    — show a schema's decomposition (segments, critical arcs,
  transaction classes);
* ``report``  — run the headline experiments and emit a markdown
  summary (see :mod:`repro.report`);
* ``trace``   — run one scheduler with event tracing on, stream the
  trace to a JSONL file and print the live metrics registry;
* ``explain`` — reconstruct a trace file offline: run summary, latency
  breakdown, or a single transaction's timeline and wait chain;
* ``serve``   — serve one scheduler to real concurrent clients over the
  framed TCP protocol (:mod:`repro.serve`); ``--trace-out`` streams a
  JSONL trace that ``repro explain`` reads like a simulator trace;
* ``load``    — open-loop load generator against a running ``serve``:
  fixed arrival rate (or saturating arrivals), seeded workload mix,
  latency percentiles measured from *arrival* so queueing delay counts;
* ``dist``    — run the distributed segment-controller runtime over the
  deterministic fault-injecting network (:mod:`repro.dist`): latency,
  drops, partitions and crash-restarts are flags; ``--message-log``
  dumps the canonical wire trace and ``--check-determinism`` runs the
  scenario twice and fails on any divergence;
* ``explore`` — schedule-space exploration (:mod:`repro.explore`):
  search interleavings and fault plans for oracle violations, shrink
  each hit to a 1-minimal artifact (``--artifacts``), or ``--replay``
  a saved artifact byte-identically.  The default campaign hunts the
  whole mutation corpus plus the real targets.

Exit codes follow the shared convention in :mod:`repro.errors`:
``0`` ran clean, ``1`` operational error, ``2`` correctness violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines import (
    TimestampOrdering,
    TwoPhaseLocking,
)
from repro.core.partition import PartitionSummary
from repro.errors import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    ConfigError,
    ReproError,
)
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    TeeSink,
    TraceExplainer,
)
from repro.sim.engine import Simulator
from repro.sim.claims import build_claims_partition, build_claims_workload
from repro.sim.hierarchies import build_hierarchy_workload, chain_partition
from repro.sim.inventory import build_inventory_partition, build_inventory_workload
from repro.sim.metrics import format_table
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.spec import DIST_SCHEDULERS
from repro.sweep.spec import SCHEDULER_FACTORIES as SCHEDULERS
from repro.txn.depgraph import find_dependency_cycle

DEFAULT_COMPARISON = ["hdd", "2pl", "to", "mvto", "mv2pl", "sdd1"]


def _build_workload(
    ro_share: float,
    skew: float,
    depth: Optional[int] = None,
    schema: str = "inventory",
):
    """The (partition, workload) pair every run-style command shares."""
    if depth is not None:
        partition = chain_partition(depth)
        workload = build_hierarchy_workload(
            partition, read_only_share=ro_share, skew=skew
        )
    elif schema == "claims":
        partition = build_claims_partition()
        workload = build_claims_workload(
            partition, read_only_share=ro_share, skew=skew
        )
    else:
        partition = build_inventory_partition()
        workload = build_inventory_workload(
            partition, read_only_share=ro_share, skew=skew
        )
    return partition, workload


def _run_mix(
    name: str,
    commits: int,
    clients: int,
    seed: int,
    skew: float,
    ro_share: float,
    depth: Optional[int] = None,
    schema: str = "inventory",
) -> dict[str, object]:
    partition, workload = _build_workload(
        ro_share=ro_share, skew=skew, depth=depth, schema=schema
    )
    scheduler = SCHEDULERS[name](partition)
    result = Simulator(
        scheduler,
        workload,
        clients=clients,
        seed=seed,
        target_commits=commits,
        max_steps=max(commits * 500, 100_000),
        audit=True,
    ).run()
    stats = scheduler.stats
    return {
        "scheduler": name,
        "commits": result.commits,
        "throughput": round(result.throughput, 4),
        "reg/commit": round(stats.read_registrations / max(result.commits, 1), 3),
        "unreg/commit": round(
            stats.unregistered_reads / max(result.commits, 1), 3
        ),
        "read_blocks": stats.read_blocks,
        "aborts": stats.aborts,
        "p95_lat": round(result.p95_latency, 1),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    rows = [
        _run_mix(
            name,
            commits=args.commits,
            clients=args.clients,
            seed=args.seed,
            skew=args.skew,
            ro_share=args.ro_share,
            schema=args.workload_schema,
        )
        for name in args.schedulers
    ]
    print(format_table(rows))
    return 0


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """The SweepSpec the CLI's knob/values flags denote."""
    cast = float if args.knob in ("ro_share", "skew") else int
    workload: dict[str, object] = {
        "schema": args.workload_schema,
        "read_only_share": args.ro_share,
        "skew": args.skew,
    }
    if args.knob == "depth":  # depth only makes sense on a chain
        workload["schema"] = "chain"
    return SweepSpec.from_axes(
        schedulers=args.schedulers,
        axes={args.knob: [cast(v) for v in args.values]},
        seeds=[args.seed],
        base={
            "target_commits": args.commits,
            "max_steps": max(args.commits * 500, 100_000),
            "clients": args.clients,
            "audit": True,
            "workload": workload,
        },
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    determinism_note = None
    if args.check_determinism:
        # Run the grid twice — serially and through a process pool —
        # and require byte-identical merged documents (the CI smoke
        # job's divergence tripwire).  Cache off so both runs execute.
        par_workers = max(args.workers, 2)
        outcome = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=par_workers).run(spec)
        if outcome.merged_json() != parallel.merged_json():
            print(
                "determinism check FAILED: serial and parallel sweeps "
                "produced different merged results",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        determinism_note = (
            f"determinism: workers=1 and workers={par_workers} "
            "merged byte-identically"
        )
    else:
        outcome = SweepRunner(
            workers=args.workers, cache_dir=args.cache_dir
        ).run(spec)
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(outcome.merged_json())
    rows = outcome.table_rows()
    if args.knob == "ro_share":
        # the spec stores the workload-builder name; keep the CLI's
        # knob spelling in the printed series
        rows = [
            {
                ("ro_share" if key == "read_only_share" else key): value
                for key, value in row.items()
            }
            for row in rows
        ]
    print(format_table(rows))
    if determinism_note:
        print(determinism_note)
    return 0


def cmd_anomaly(args: argparse.Namespace) -> int:
    event, level, order = "events:arrival", "inventory:level", "orders:req"
    if args.figure == 3:
        scheduler = TwoPhaseLocking(read_locks=False)
        label = "2PL without read locks"
    else:
        scheduler = TimestampOrdering(register_reads=False)
        label = "timestamp ordering without read timestamps"
    t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
    scheduler.read(t3, event)
    scheduler.write(t1, event, "arrived")
    scheduler.commit(t1)
    scheduler.read(t2, event)
    scheduler.write(t2, level, 17)
    scheduler.commit(t2)
    scheduler.read(t3, level)
    scheduler.write(t3, order, "reorder")
    scheduler.commit(t3)
    cycle = find_dependency_cycle(scheduler.schedule, mode="paper")
    print(f"Figure {args.figure}: {label}")
    if cycle is None:
        print("no dependency cycle (unexpected)")
        return 1
    print("dependency cycle found:")
    for dep in cycle:
        print(f"  {dep}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import ReportScale, generate_report

    scale = ReportScale.quick() if args.quick else ReportScale()
    text = generate_report(scale)
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    partition, workload = _build_workload(
        ro_share=args.ro_share, skew=args.skew, schema=args.workload_schema
    )
    scheduler = SCHEDULERS[args.scheduler](partition)
    registry = MetricsRegistry()
    with JsonlTraceSink(args.trace_out) as sink:
        result = Simulator(
            scheduler,
            workload,
            clients=args.clients,
            seed=args.seed,
            target_commits=args.commits,
            max_steps=max(args.commits * 500, 100_000),
            gc_interval=args.gc_interval,
            trace_sink=TeeSink([sink, registry]),
        ).run()
        events_written = sink.events_written
    print(format_table([result.summary()]))
    print()
    print(registry.render())
    print()
    print(f"{events_written} events -> {args.trace_out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import is_dist_trace, load_trace

    events = load_trace(args.trace)
    if is_dist_trace(events):
        # One entry point for both runtimes: a dist trace (it carries
        # message/op-span events) goes to the causal explainer.
        return _explain_dist(events, args.txn)
    explainer = TraceExplainer(events)
    if args.txn is not None:
        print(explainer.explain_txn(args.txn))
        return 0
    print(explainer.render_summary())
    print()
    print(explainer.render_latency_breakdown())
    return 0


def _explain_dist(events, txn: Optional[int]) -> int:
    from repro.obs import CausalTrace, CriticalPathAnalyzer

    analyzer = CriticalPathAnalyzer(CausalTrace(events))
    if txn is not None:
        print(analyzer.render_txn(txn))
        return 0
    print(analyzer.render())
    return 0 if not analyzer.check() else 1


def cmd_dist_explain(args: argparse.Namespace) -> int:
    from repro.obs import load_trace

    return _explain_dist(load_trace(args.trace), args.txn)


def _dist_plan(args: argparse.Namespace):
    """The FaultPlan the dist subcommand's flags denote."""
    from repro.dist import Crash, FaultPlan, node_name

    partitions = []
    for start, end, segment in args.net_partition or []:
        partition, _ = _build_workload(
            ro_share=args.ro_share,
            skew=args.skew,
            schema=args.workload_schema,
        )
        others = [
            node_name(s) for s in partition.segments if s != segment
        ]
        partitions.append(
            FaultPlan.partition(
                int(start), int(end), [node_name(segment)], others
            )
        )
    crashes = tuple(
        Crash(node_name(segment), int(at), int(recover))
        for segment, at, recover in args.crash or []
    )
    return FaultPlan(
        latency=args.latency,
        jitter=args.jitter,
        drop_rate=args.drop,
        spike_rate=args.spike_rate,
        spike_ticks=args.spike_ticks,
        partitions=tuple(partitions),
        crashes=crashes,
    )


def _dist_run(args: argparse.Namespace, trace_sink=None, transport=None):
    from repro.dist import DistributedRuntime

    partition, workload = _build_workload(
        ro_share=args.ro_share, skew=args.skew, schema=args.workload_schema
    )
    if transport is None:
        transport = "proc" if getattr(args, "real", False) else "sim"
    runtime = DistributedRuntime(
        partition,
        mode=args.mode,
        plan=_dist_plan(args),
        seed=args.net_seed,
        batch_gossip=args.batch_gossip,
        transport=transport,
        procs=getattr(args, "procs", None),
    )
    try:
        result = Simulator(
            runtime,
            workload,
            clients=args.clients,
            seed=args.seed,
            target_commits=args.commits,
            max_steps=max(args.commits * 500, 100_000),
            audit=True,
            trace_sink=trace_sink,
        ).run()
    except BaseException:
        runtime.close()
        raise
    return runtime, result


def _wall_records(runtime) -> list[tuple]:
    walls = getattr(runtime, "walls", None)
    if walls is None:
        return []
    return [
        (w.start_class, w.base_time, w.release_ts, sorted(w.components.items()))
        for w in walls.released
    ]


def cmd_dist(args: argparse.Namespace) -> int:
    import signal as signal_mod

    from repro.sim.messages import measured_message_report

    # Graceful Ctrl-C / SIGTERM (the serve stack's convention): raise
    # KeyboardInterrupt so the with/finally blocks below flush the
    # trace, reap worker processes, and exit 1 — never a zombie or a
    # truncated JSONL file.
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal_mod.signal(signal_mod.SIGTERM, _interrupt)
    runtimes = []
    # Exit-code convention (repro.errors): a failed serializability
    # audit or determinism check is a *correctness violation* (exit 2),
    # distinct from operational errors (exit 1) — CI matrix jobs key
    # off the difference.
    try:
        if args.trace_out:
            with JsonlTraceSink(args.trace_out) as sink:
                runtime, result = _dist_run(args, trace_sink=sink)
                runtimes.append(runtime)
                events_written = sink.events_written
            print(f"{events_written} events -> {args.trace_out}")
        else:
            runtime, result = _dist_run(args)
            runtimes.append(runtime)
        if args.check_determinism and args.real:
            # Process runs are nondeterministic in timing only, so the
            # twin check replays the same seed through the SimNetwork
            # and demands the *logical* outcome — committed schedule,
            # stats, walls — byte-identical (DESIGN.md §16).
            twin, _ = _dist_run(args, transport="sim")
            runtimes.append(twin)
            if str(runtime.schedule) != str(twin.schedule):
                print("TWIN DIVERGENCE: committed schedules diverge")
                return EXIT_VIOLATION
            if runtime.stats != twin.stats:
                print("TWIN DIVERGENCE: stats diverge")
                return EXIT_VIOLATION
            if _wall_records(runtime) != _wall_records(twin):
                print("TWIN DIVERGENCE: released walls diverge")
                return EXIT_VIOLATION
            print(
                "twin check passed: process run byte-identical to the "
                "deterministic SimNetwork replay"
            )
        elif args.check_determinism:
            # The second run is always untraced, so with --trace-out this
            # check doubles as the non-perturbation assertion: tracing may
            # not change a single byte of the message log or schedule.
            second, _ = _dist_run(args)
            runtimes.append(second)
            if runtime.network.log_lines() != second.network.log_lines():
                print("DETERMINISM FAILURE: message logs diverge")
                return EXIT_VIOLATION
            if str(runtime.schedule) != str(second.schedule):
                print("DETERMINISM FAILURE: committed schedules diverge")
                return EXIT_VIOLATION
            print("determinism check passed: two runs byte-identical")
        # Snapshot while workers are alive: on the proc transport the
        # stats property is a control RPC fan-out to the children.
        stats = runtime.stats
    except ConfigError:
        raise  # bad flags: argparse-level failure, not a violation
    except KeyboardInterrupt:
        print("interrupted: traces flushed, workers reaped", file=sys.stderr)
        return EXIT_ERROR
    except ReproError as exc:
        print(f"AUDIT VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        for rt in runtimes:
            rt.close()
        signal_mod.signal(signal_mod.SIGTERM, previous_term)
    network = runtime.network
    report, extras = measured_message_report(runtime)
    rows = {
        "scheduler": runtime.name,
        "commits": result.commits,
        "aborts": stats.aborts,
        "throughput": round(result.throughput, 4),
        "net.sent": len(network.log),
        "net.delivered": network.delivered,
        "net.dropped": sum(network.dropped_by_kind.values()),
        "msg.data": report.data_messages,
        "msg.sync": report.synchronization_messages,
        "msg.runtime": sum(
            count
            for key, count in extras.items()
            if key.startswith(("pair.", "oneway.")) or key == "retransmit"
        ),
    }
    width = max(len(k) for k in rows)
    for key, value in rows.items():
        print(f"{key.ljust(width)}  {value}")
    if args.message_log:
        with open(args.message_log, "w", encoding="utf-8") as handle:
            handle.write("\n".join(network.log_lines()) + "\n")
        print(f"message trace -> {args.message_log}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.explore import (
        campaign_units,
        load_artifact,
        replay_artifact,
        run_campaign,
    )

    if args.replay:
        data = load_artifact(args.replay)
        outcome = replay_artifact(data)
        if outcome.ok:
            print(f"replay OK: {outcome.detail}")
            return EXIT_OK
        print(f"replay FAILED: {outcome.detail}", file=sys.stderr)
        return EXIT_ERROR

    units = campaign_units(
        seeds=list(range(args.seeds)),
        episodes=args.episodes,
        neighborhood=args.neighborhood,
        fuzz=args.fuzz,
        rate=args.rate,
        minimize_tests=args.minimize_tests,
        mutants=args.target or None,
        include_real=not args.skip_real,
    )
    result = run_campaign(units, workers=args.workers)
    summary = result.summary()
    if args.artifacts:
        directory = Path(args.artifacts)
        directory.mkdir(parents=True, exist_ok=True)
        for unit in result.units:
            for index, finding in enumerate(unit["findings"]):
                path = directory / (
                    f"{unit['target']}-seed{unit['seed']}-{index}.json"
                )
                path.write_text(
                    json.dumps(
                        finding["artifact"], sort_keys=True, indent=2
                    )
                    + "\n"
                )
        print(f"artifacts -> {directory}")
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, sort_keys=True, indent=2)
            handle.write("\n")
    for unit in result.units:
        phases = [finding["phase"] for finding in unit["findings"]]
        kinds = sorted(
            {
                kind
                for finding in unit["findings"]
                for kind in finding["kinds"]
            }
        )
        verdict = f"CAUGHT {kinds} in {phases}" if unit["caught"] else "clean"
        print(
            f"{unit['target']} seed={unit['seed']} "
            f"runs={unit['runs']}: {verdict}"
        )
    corpus = summary["corpus"]
    print(
        f"corpus: {corpus['caught']}/{corpus['total']} caught, "
        f"minimized={corpus['all_minimized']}; "
        f"real targets: {summary['clean']['violations']} violation(s) "
        f"across {summary['clean']['real_targets']} unit(s); "
        f"{summary['runs']} runs"
    )
    if summary["clean"]["violations"]:
        print(
            "VIOLATION: a real (unmutated) target failed an oracle",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    if result.replay_failures:
        print(
            f"replay failures: {result.replay_failures}", file=sys.stderr
        )
        return EXIT_ERROR
    if corpus["total"] and corpus["caught"] < corpus["total"]:
        missed = sorted(
            name
            for name, hit in corpus["by_mutant"].items()
            if not hit
        )
        print(f"corpus mutants missed: {missed}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


async def _serve_async(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.obs import JsonlTraceSink
    from repro.serve import TransactionServer

    partition, _workload = _build_workload(
        ro_share=args.ro_share, skew=args.skew, schema=args.workload_schema
    )
    scheduler = SCHEDULERS[args.scheduler](partition)
    sink = JsonlTraceSink(args.trace_out) if args.trace_out else None
    if sink is not None:
        scheduler.set_sink(sink)
    server = TransactionServer(scheduler, gc_every=args.gc_every)
    host, port = await server.start_tcp(args.host, args.port)
    # Explicit handlers, not KeyboardInterrupt: a server launched from
    # a non-interactive shell (CI, `... &`) inherits SIGINT ignored, so
    # the default Ctrl-C path would never fire there — and SIGTERM
    # should flush the trace and print stats too, not just die.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    print(f"serving {scheduler.name} on {host}:{port} (ctrl-c to stop)")
    try:
        await stop.wait()
    except asyncio.CancelledError:  # pragma: no cover - loop teardown
        pass
    finally:
        await server.close()
        if sink is not None:
            sink.close()
            print(f"trace -> {args.trace_out}")
        for key, value in server.stats_view().items():
            print(f"{key}: {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    try:
        return asyncio.run(_serve_async(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


async def _load_async(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ClientPool, LoadGenerator

    _partition, workload = _build_workload(
        ro_share=args.ro_share, skew=args.skew, schema=args.workload_schema
    )
    pool = await ClientPool.connect_tcp(
        args.host, args.port, args.connections
    )
    try:
        generator = LoadGenerator(
            pool,
            workload,
            transactions=args.transactions,
            seed=args.seed,
            rate=args.rate,
        )
        report = await generator.run()
    finally:
        await pool.close()
    document = report.to_dict()
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(document, stream, indent=2)
            stream.write("\n")
        print(f"report -> {args.out}")
    print(json.dumps(document, indent=2))
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    return asyncio.run(_load_async(args))


def cmd_info(args: argparse.Namespace) -> int:
    if args.schema == "inventory":
        partition = build_inventory_partition()
    else:
        partition = chain_partition(args.depth)
    print(PartitionSummary(partition).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HDD concurrency-control experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--commits", type=int, default=400)
        p.add_argument("--clients", type=int, default=8)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--skew", type=float, default=1.0)
        p.add_argument("--ro-share", type=float, default=0.25, dest="ro_share")
        p.add_argument(
            "--schedulers",
            nargs="+",
            choices=sorted(SCHEDULERS),
            default=DEFAULT_COMPARISON,
        )
        p.add_argument(
            "--workload-schema",
            choices=["inventory", "claims"],
            default="inventory",
            dest="workload_schema",
        )

    compare = sub.add_parser("compare", help="measured Figure 10 table")
    common(compare)
    compare.set_defaults(fn=cmd_compare)

    sweep = sub.add_parser("sweep", help="vary one knob, print the series")
    common(sweep)
    sweep.add_argument(
        "--knob",
        required=True,
        choices=["ro_share", "skew", "clients", "depth"],
    )
    sweep.add_argument("--values", nargs="+", required=True)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for parallel execution (1 = inline)",
    )
    sweep.add_argument(
        "--out", default=None, help="write the merged JSON document here"
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="per-config result cache directory",
    )
    sweep.add_argument(
        "--check-determinism",
        action="store_true",
        dest="check_determinism",
        help="run serial + parallel, fail on any divergence",
    )
    sweep.set_defaults(fn=cmd_sweep)

    anomaly = sub.add_parser(
        "anomaly", help="replay the Figure 3/4 constructions"
    )
    anomaly.add_argument("--figure", type=int, choices=[3, 4], default=3)
    anomaly.set_defaults(fn=cmd_anomaly)

    info = sub.add_parser("info", help="show a schema decomposition")
    info.add_argument(
        "--schema", choices=["inventory", "chain"], default="inventory"
    )
    info.add_argument("--depth", type=int, default=4)
    info.set_defaults(fn=cmd_info)

    trace = sub.add_parser(
        "trace", help="run one scheduler with event tracing on"
    )
    common(trace)
    trace.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        default="hdd",
        help="the one scheduler to run traced",
    )
    trace.add_argument(
        "--trace-out",
        default="trace.jsonl",
        dest="trace_out",
        help="JSONL trace output path",
    )
    trace.add_argument(
        "--gc-interval",
        type=int,
        default=None,
        dest="gc_interval",
        help="run the scheduler's GC every N engine steps",
    )
    trace.set_defaults(fn=cmd_trace)

    explain = sub.add_parser(
        "explain", help="reconstruct a JSONL trace offline"
    )
    explain.add_argument("trace", help="trace file written by `repro trace`")
    group = explain.add_mutually_exclusive_group()
    group.add_argument(
        "--txn",
        type=int,
        default=None,
        help="explain one transaction's timeline and waits",
    )
    group.add_argument(
        "--summary",
        action="store_true",
        help="run summary + latency breakdown (the default)",
    )
    explain.set_defaults(fn=cmd_explain)

    dist = sub.add_parser(
        "dist", help="run the distributed segment-controller runtime"
    )
    dist.add_argument("--commits", type=int, default=200)
    dist.add_argument("--clients", type=int, default=8)
    dist.add_argument("--seed", type=int, default=42)
    dist.add_argument("--skew", type=float, default=1.0)
    dist.add_argument("--ro-share", type=float, default=0.25, dest="ro_share")
    dist.add_argument(
        "--workload-schema",
        choices=["inventory", "claims"],
        default="inventory",
        dest="workload_schema",
    )
    dist.add_argument(
        "--scheduler",
        choices=sorted(DIST_SCHEDULERS),
        default="hdd",
        dest="mode",
        help="which concurrency control the nodes run",
    )
    dist.add_argument(
        "--latency", type=int, default=0, help="base one-way link latency"
    )
    dist.add_argument(
        "--jitter", type=int, default=0, help="random extra latency bound"
    )
    dist.add_argument(
        "--drop", type=float, default=0.0, help="per-message drop rate"
    )
    dist.add_argument(
        "--spike-rate",
        type=float,
        default=0.0,
        dest="spike_rate",
        help="probability a message hits a delay spike",
    )
    dist.add_argument(
        "--spike-ticks",
        type=int,
        default=0,
        dest="spike_ticks",
        help="extra delay a spike adds",
    )
    dist.add_argument(
        "--net-seed",
        type=int,
        default=0,
        dest="net_seed",
        help="seed for the simulated network's fault draws",
    )
    dist.add_argument(
        "--partition",
        nargs=3,
        action="append",
        metavar=("START", "END", "SEGMENT"),
        dest="net_partition",
        help="isolate SEGMENT's node from tick START until END",
    )
    dist.add_argument(
        "--crash",
        nargs=3,
        action="append",
        metavar=("SEGMENT", "AT", "RECOVER"),
        help="crash SEGMENT's node at tick AT, restart at RECOVER",
    )
    dist.add_argument(
        "--batch-gossip",
        action=argparse.BooleanOptionalAction,
        default=True,
        dest="batch_gossip",
        help="coalesce journal gossip into per-link batches and "
        "govern wall polls (the default: same committed schedule, "
        "fewer messages); --no-batch-gossip selects the eager "
        "reference wire",
    )
    dist.add_argument(
        "--real",
        action="store_true",
        help="run segment controllers in real OS worker processes "
        "(ideal plan only; SimNetwork stays the deterministic twin)",
    )
    dist.add_argument(
        "--procs",
        type=int,
        default=None,
        help="worker process count for --real (default: one per node)",
    )
    dist.add_argument(
        "--check-determinism",
        action="store_true",
        dest="check_determinism",
        help="run twice, fail unless message log + schedule match "
        "(with --real: replay through the SimNetwork twin and compare "
        "schedule, stats, and walls)",
    )
    dist.add_argument(
        "--message-log",
        default=None,
        dest="message_log",
        help="write the canonical message trace to this file",
    )
    dist.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="write a causal JSONL event trace to this file",
    )
    dist.set_defaults(fn=cmd_dist)

    explore = sub.add_parser(
        "explore",
        help="search schedules + fault plans for oracle violations",
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-execute a saved artifact and verify byte-identity",
    )
    explore.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="MUTANT",
        help="restrict the campaign to this corpus mutant (repeatable)",
    )
    explore.add_argument(
        "--corpus",
        action="store_true",
        help="run the full mutation corpus (the default campaign)",
    )
    explore.add_argument(
        "--skip-real",
        action="store_true",
        help="do not run the unmutated real targets",
    )
    explore.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of search base seeds per target",
    )
    explore.add_argument("--episodes", type=int, default=12)
    explore.add_argument("--neighborhood", type=int, default=8)
    explore.add_argument("--fuzz", type=int, default=6)
    explore.add_argument(
        "--rate",
        type=float,
        default=0.25,
        help="per-decision deviation probability in random episodes",
    )
    explore.add_argument("--minimize-tests", type=int, default=250)
    explore.add_argument("--workers", type=int, default=1)
    explore.add_argument(
        "--artifacts",
        default=None,
        help="directory for minimized violation artifacts",
    )
    explore.add_argument(
        "--summary-out",
        default=None,
        help="write the campaign summary JSON here",
    )
    explore.set_defaults(fn=cmd_explore)

    dist_explain = sub.add_parser(
        "dist-explain",
        help="attribute commit latency from a dist JSONL trace",
    )
    dist_explain.add_argument(
        "trace", help="trace file written by `repro dist --trace-out`"
    )
    dist_explain.add_argument(
        "--txn",
        type=int,
        default=None,
        help="explain one committed transaction's critical path",
    )
    dist_explain.set_defaults(fn=cmd_dist_explain)

    serve = sub.add_parser(
        "serve", help="serve one scheduler to framed-protocol clients"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7433)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--skew", type=float, default=1.0)
    serve.add_argument("--ro-share", type=float, default=0.25, dest="ro_share")
    serve.add_argument(
        "--workload-schema",
        choices=["inventory", "claims"],
        default="inventory",
        dest="workload_schema",
    )
    serve.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        default="hdd",
        help="which concurrency control to serve",
    )
    serve.add_argument(
        "--gc-every",
        type=int,
        default=None,
        dest="gc_every",
        help="run the scheduler's GC every N server steps",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="write a JSONL event trace (repro explain reads it)",
    )
    serve.set_defaults(fn=cmd_serve)

    load = sub.add_parser(
        "load", help="open-loop load against a running repro serve"
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=7433)
    load.add_argument("--connections", type=int, default=4)
    load.add_argument("--transactions", type=int, default=400)
    load.add_argument("--seed", type=int, default=42)
    load.add_argument("--skew", type=float, default=1.0)
    load.add_argument("--ro-share", type=float, default=0.25, dest="ro_share")
    load.add_argument(
        "--workload-schema",
        choices=["inventory", "claims"],
        default="inventory",
        dest="workload_schema",
    )
    load.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrivals per second (omit for saturating arrivals)",
    )
    load.add_argument(
        "--out", default=None, help="write the JSON load report here"
    )
    load.set_defaults(fn=cmd_load)

    report = sub.add_parser(
        "report", help="run the headline experiments, emit markdown"
    )
    report.add_argument("-o", "--output", default=None, help="output file")
    report.add_argument(
        "--quick", action="store_true", help="smaller, faster runs"
    )
    report.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # Invalid settings (contradictory fault plans, bad knob
        # combinations) are operational errors, never violations.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
