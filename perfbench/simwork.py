"""``sim-star2`` and ``dist-star2``: the closed-loop star(2) mix.

Both workloads run the configuration behind the repository's headline
numbers: a star(2) hierarchy, 8 closed-loop clients, 25% read-only
transactions, 8 granules per segment and ``gc_interval=500``.
``sim-star2`` drives the monolithic :class:`HDDScheduler`; ``dist-star2``
drives :class:`DistributedRuntime` on its deterministic sim transport,
whose committed schedule is byte-identical to the monolith's run
without garbage collection (see :func:`_canary_and_twin`).

Run length.  The MVSG audit is quadratic in the schedule (about 1.2 s
at 10k steps, 5 s at 20k and over two minutes at 100k on a 2-core
2.1 GHz box), while a 10k-step simulation takes a few tenths of a
second.  One long run would make ``commits_per_s`` steadier and the
audit unaffordable, so the run is many repetitions of one fixed
10k-step simulation instead, in rounds that each run a further input
of the seed (``common.input_seed``), with the audit timed on its own
over one repetition's full schedule per round; :func:`measure` says how
the samples are pooled.  Every repetition of an input must commit the
same schedule, which doubles as the determinism check.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from common import (
    BenchError,
    Checks,
    input_seed,
    latency_summary,
    median,
    peak_rss_mb,
)
from layers import (
    cache_hit_rate,
    depgraph_figures,
    instrument_scheduler,
    scheduler_facts,
    scheduler_figures,
    traced_audit,
)
from metrics import NODE_KINDS, layer_shares
from speed import SpeedProbe, reference_values
from tracer import Tracer, span_table

from repro.core.scheduler import HDDScheduler
from repro.dist import DistributedRuntime
from repro.errors import ReproError
from repro.sim.engine import Simulator
from repro.sim.hierarchies import build_hierarchy_workload, star_partition
from repro.txn import depgraph

LEAVES = 2
CLIENTS = 8
RO_SHARE = 0.25
GRANULES_PER_SEGMENT = 8
GC_INTERVAL = 500
#: Engine steps of one repetition (see the module docstring).
REP_STEPS = 10_000
#: Rounds measured even when ``--seconds`` runs out first.
MIN_ROUNDS = 3
#: Throughput repetitions per round (see :func:`measure`).
THROUGHPUT_REPS = 2
#: Set-ups timed on their own for ``setup_s`` (median reported).
SETUP_TRIALS = 31
#: Untraced repetitions the traced run's overhead is measured against.
BASELINE_REPS = 3
#: The seed whose schedule is pinned; every run replays it as a canary.
CANARY_SEED = 7
#: md5 of ``str(schedule)`` for (seed, steps), recorded from the program
#: this benchmark was written against.
PINNED_MD5 = {(CANARY_SEED, REP_STEPS): "ba7f3b672162d71b117a9b51b9afb64f"}


@dataclass
class Rep:
    """One repetition: its timings, size and committed schedule hash."""

    setup_s: float
    run_s: float
    commits: int
    in_flight: int
    steps: int
    md5: str
    sim: Optional[Simulator] = None

    @property
    def attempted(self) -> int:
        return self.commits + self.in_flight


def build(
    kind: str, seed: int, gc_interval: Optional[int] = GC_INTERVAL
) -> Simulator:
    """Set-up: partition, workload, scheduler or runtime, simulator."""
    partition = star_partition(LEAVES)
    workload = build_hierarchy_workload(
        partition,
        read_only_share=RO_SHARE,
        granules_per_segment=GRANULES_PER_SEGMENT,
    )
    if kind == "sim":
        scheduler = HDDScheduler(partition)
    else:
        scheduler = DistributedRuntime(
            partition, mode="hdd", seed=seed, transport="sim"
        )
    return Simulator(
        scheduler,
        workload,
        clients=CLIENTS,
        seed=seed,
        max_steps=REP_STEPS,
        gc_interval=gc_interval,
    )


def close(sim: Simulator) -> None:
    closer = getattr(sim.scheduler, "close", None)
    if closer is not None:
        closer()


def schedule_md5(sim: Simulator) -> str:
    return hashlib.md5(str(sim.scheduler.schedule).encode()).hexdigest()


def run_rep(
    kind: str,
    seed: int,
    instrument: Optional[Callable[[Simulator], None]] = None,
    keep: bool = False,
    gc_interval: Optional[int] = GC_INTERVAL,
) -> Rep:
    """Build and run one repetition; ``keep`` retains it for the audit.

    The previous repetition's garbage is collected first, so no
    repetition pays for another's cyclic garbage.
    """
    gc.collect()
    started = time.perf_counter()
    sim = build(kind, seed, gc_interval)
    setup_s = time.perf_counter() - started
    if instrument is not None:
        instrument(sim)
    try:
        started = time.perf_counter()
        result = sim.run()
        run_s = time.perf_counter() - started
        rep = Rep(
            setup_s=setup_s,
            run_s=run_s,
            commits=result.commits,
            in_flight=len(sim.scheduler.active_transactions()),
            steps=result.steps,
            md5=schedule_md5(sim),
            sim=sim if keep else None,
        )
    finally:
        close(sim)
    return rep


class AttemptClock:
    """Wall latency of each committed attempt, begin call to commit.

    Installed on one dedicated repetition only, so the repetitions that
    measure throughput run without it.
    """

    def __init__(self) -> None:
        self.started: dict[int, float] = {}
        self.latencies: list[float] = []
        self.ro_latencies: list[float] = []

    def install(self, sim: Simulator) -> None:
        scheduler = sim.scheduler
        begin = scheduler.begin
        commit = scheduler.commit
        clock = time.perf_counter

        def timed_begin(*args, **kwargs):
            started = clock()
            txn = begin(*args, **kwargs)
            self.started[txn.txn_id] = started
            return txn

        def timed_commit(txn):
            outcome = commit(txn)
            if outcome.granted:
                latency = clock() - self.started.pop(txn.txn_id)
                self.latencies.append(latency)
                if txn.is_read_only:
                    self.ro_latencies.append(latency)
            return outcome

        scheduler.begin = timed_begin
        scheduler.commit = timed_commit


def _canary_and_twin(kind: str, seed: int, md5: str, checks: Checks):
    """The pinned-md5 canary (sim) or the twin contract (dist): ``md5``
    is what ``kind`` committed for ``seed``.

    The twin is the monolith without garbage collection.  The runtime
    has no ``collect_garbage`` (DESIGN.md: it never retires walls or
    prunes versions), so ``gc_interval`` is a no-op there, while the
    monolith's collector first force-releases a fresh time wall.  That
    wall can change which version a later read sees, so with collection
    on the two schedules part on some inputs (1344 and 3264 of the
    first hundred first inputs, at 10k steps).
    """
    if kind == "sim":
        pinned = PINNED_MD5[(CANARY_SEED, REP_STEPS)]
        canary = md5 if seed == CANARY_SEED else run_rep(kind, CANARY_SEED).md5
        checks.require(
            canary == pinned,
            f"seed {CANARY_SEED} schedule md5 {canary} != pinned {pinned}",
        )
    else:
        twin = run_rep("sim", seed, gc_interval=None).md5
        checks.require(
            twin == md5,
            f"dist schedule md5 {md5} != monolith twin {twin}",
        )


def _audit(sim: Simulator, checks: Checks) -> float:
    gc.collect()
    started = time.perf_counter()
    verdict = depgraph.is_serializable(sim.scheduler.schedule, mode="mvsg")
    audit_s = time.perf_counter() - started
    checks.require(verdict, "MVSG audit: committed schedule not serializable")
    return audit_s


def measure(kind: str, seed: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric plus the checks.

    The run is a sequence of rounds until ``--seconds`` is spent (at
    least :data:`MIN_ROUNDS`), round ``r`` on input ``input_seed(seed,
    r)``: :data:`THROUGHPUT_REPS` plain repetitions for
    ``commits_per_s``, one repetition with the attempt clock for the
    latency figures, then the audit of that repetition's schedule.

    Each kind of sample is spread over the whole run and pooled:
    throughput is total commits over total ``Simulator.run()`` time,
    latency percentiles are taken over every timed attempt, and
    ``audit_s`` is the mean audit.  On a shared box the machine's speed
    switches between a fast and a slow phase every few seconds; pooled
    figures move smoothly with the share of time spent in each phase,
    where a median of per-repetition figures jumps from one to the other.
    A speed probe samples once per round; the gated figures are in its
    reference seconds (``speed.py``).
    """
    checks = Checks()
    reps: list[Rep] = []
    audits: list[float] = []
    md5s: dict[int, set[str]] = {}
    attempts = AttemptClock()
    probe = SpeedProbe(f"{kind}-star2")
    rss = None
    deadline = time.perf_counter() + seconds
    try:
        while len(audits) < MIN_ROUNDS or time.perf_counter() < deadline:
            probe.sample()
            sub = input_seed(seed, len(audits))
            round_reps = [run_rep(kind, sub) for _ in range(THROUGHPUT_REPS)]
            timed = run_rep(kind, sub, instrument=attempts.install, keep=True)
            if rss is None:
                rss = peak_rss_mb()
            audits.append(_audit(timed.sim, checks))
            md5s.setdefault(sub, set()).update(
                rep.md5 for rep in [*round_reps, timed])
            reps.extend(round_reps)
            timed = None  # free the audited simulator before the next round
    except ReproError as exc:  # a stall or a protocol violation
        raise BenchError(f"{kind} run failed: {exc}") from exc
    first = input_seed(seed, 0)
    setups = [rep.setup_s for rep in reps]
    while len(setups) < SETUP_TRIALS:
        gc.collect()
        started = time.perf_counter()
        sim = build(kind, first)
        setups.append(time.perf_counter() - started)
        close(sim)
    checks.require(
        all(len(seen) == 1 for seen in md5s.values()),
        "repetitions of one input committed different schedules",
    )
    _canary_and_twin(kind, first, reps[0].md5, checks)
    probe.sample()
    latency = latency_summary(attempts.latencies)
    ro_latency = latency_summary(attempts.ro_latencies)
    wall = {
        "setup_s": median(setups),
        "commits_per_s": (
            sum(r.commits for r in reps) / sum(r.run_s for r in reps)),
        "audit_s": statistics.fmean(audits),
        "txn_p50_ms": latency["p50_ms"],
    }
    return {
        "checks": checks,
        "attempted": sum(rep.attempted for rep in reps),
        "metrics": {
            **reference_values(probe, wall),
            "peak_rss_mb": rss,
            "txn_p99_ms": latency["p99_ms"],
            "ro_txn_p99_ms": ro_latency["p99_ms"],
        },
        "wall": wall,
        "loop_ms": probe.loop_s * 1000.0,
        "detail": {
            "rounds": len(audits),
            "inputs": sorted(md5s),
            "throughput_repetitions": len(reps),
            "steps_per_repetition": REP_STEPS,
            "commits_per_repetition": reps[0].commits,
            "schedule_md5": reps[0].md5,
            "latency_pooled": latency,
            "ro_latency_pooled": ro_latency,
        },
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _instrument(tracer):
    def install(sim: Simulator) -> None:
        tracer.patch(sim, "run", "sim.engine", "run")
        tracer.patch(
            sim.workload, "next_transaction", "sim.workload", "next_transaction"
        )
        runtime = sim.scheduler
        if not isinstance(runtime, DistributedRuntime):
            instrument_scheduler(tracer, runtime)
            return
        for op in ("begin", "read", "write", "commit", "poll_walls"):
            tracer.patch(runtime, op, "dist.runtime", op)
        network = runtime.network
        for op in ("send", "deliver_one_due", "tick"):
            tracer.patch(network, op, "dist.net", op)
        for node in runtime.nodes.values():
            network.rebind(
                node.name,
                tracer.wrap(node.handle, "dist.node", lambda m: m.kind),
            )

    return install


def _dist_figures(tracer, network, commits: int) -> dict:
    def inclusive(op):
        return tracer.op_inclusive_us("dist.runtime", op)

    return {
        "dist.runtime.begin_us": inclusive("begin"),
        "dist.runtime.read_us": inclusive("read"),
        "dist.runtime.write_us": inclusive("write"),
        "dist.runtime.commit_us": inclusive("commit"),
        "dist.net.messages_per_commit": (
            sum(network.sent_by_kind.values()) / commits),
        "dist.net.send_us": tracer.op_self_us("dist.net", "send"),
        "dist.net.deliver_self_us": (
            tracer.self_s[("dist.net", "deliver_one_due")]
            / network.delivered * 1e6),
        "dist.node.handle_us": tracer.op_self_us(
            "dist.node", *tracer.ops("dist.node")),
        **{
            f"dist.node.{kind.lower()}_us": tracer.op_self_us(
                "dist.node", kind)
            for kind in NODE_KINDS
        },
    }


def trace(kind: str, seed: int) -> dict:
    """The traced run: per-layer metrics, overhead and the tripwire."""
    checks = Checks()
    try:
        baseline = [run_rep(kind, seed) for _ in range(BASELINE_REPS)]
        tracer = Tracer()
        started = time.perf_counter()
        rep = run_rep(kind, seed, instrument=_instrument(tracer), keep=True)
        verdict = traced_audit(tracer, rep.sim.scheduler.schedule)
        wall_s = time.perf_counter() - started
    except ReproError as exc:
        raise BenchError(f"{kind} traced run failed: {exc}") from exc
    checks.require(verdict, "MVSG audit: committed schedule not serializable")
    checks.require(
        {b.md5 for b in baseline} == {rep.md5},
        f"traced schedule md5 {rep.md5} != untraced {baseline[0].md5}",
    )
    scheduler = rep.sim.scheduler
    engine_run = tracer.inclusive_s[("sim.engine", "run")]
    untraced_run = median([b.run_s for b in baseline])
    values = {
        "sim.engine.self_s": tracer.layer_self_s("sim.engine"),
        "sim.engine.steps": rep.steps,
        "sim.workload.next_transaction_us": tracer.op_self_us(
            "sim.workload", "next_transaction"),
        "sim.workload.next_transaction_calls": tracer.op_calls(
            "sim.workload", "next_transaction"),
        **depgraph_figures(tracer),
        **layer_shares(tracer, wall_s),
        "unattributed_s": wall_s - tracer.total_self_s(),
        "trace.overhead_ratio": engine_run / untraced_run - 1.0,
    }
    if kind == "sim":
        values.update(scheduler_figures(tracer, scheduler_facts(scheduler)))
    else:
        values.update(_dist_figures(tracer, scheduler.network, rep.commits))
        values["storage.snapshot_cache.hit_rate"] = cache_hit_rate(
            scheduler.store)
        values["storage.retained_versions"] = scheduler.store.total_versions()
    return {
        "checks": checks,
        "attempted": rep.attempted,
        "metrics": values,
        "detail": {
            "schedule_md5": rep.md5,
            "traced_wall_s": wall_s,
            "untraced_run_s": untraced_run,
            "traced_run_s": engine_run,
            "spans": span_table(tracer),
        },
    }
