"""``serve-tcp``: an HDD transaction server over TCP loopback, open loop.

The server (``server.py``) runs in its own process; this process is the
load generator.  A run is a sequence of *sessions*, each with a fresh
server, until ``--seconds`` is spent.  A session opens 2 connections
and offers the inventory mix (60% read-only, skew 3.0) in an open-loop
staircase of fixed arrival rates: arrival ``i`` is due at a fixed time
whatever the server does, goes to connection ``i mod 2``, and waits
there while the connection is busy with earlier arrivals (one
transaction in flight per connection).  Each transaction is timed from
its due time, so queueing counts.  The generator also records how late
it released each arrival (its own lateness) and the backlog of
due-but-unstarted arrivals at the end of each step.  The ``txn_*``
latencies are read at the reference step, the longest one, pooled over
the run's sessions.  It sits at a fraction of the 450-900 txn/s where
two connections saturate on a 2-core box, because near saturation
queueing turns every slow phase of a shared machine into a latency
spike.

After each rate step a closed-loop burst runs a fixed number of
transactions back to back on both connections; commits per second over
all bursts are the server's capacity, reported as ``commits_per_s``.
Aborted transactions are retried with the same spec (up to
:data:`MAX_RETRIES`) and count as failed when the retries run out.

Sessions have a fixed size because the server's closing MVSG audit is
quadratic in what it served: a session's schedule keeps ``audit_s``
near two seconds, and a longer run adds sessions rather than growing
one.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from common import (
    ROOT,
    SRC,
    BenchError,
    Checks,
    beyond,
    input_seed,
    latency_summary,
    median,
    percentile,
)
from layers import (
    depgraph_figures,
    instrument_codec,
    scheduler_figures,
)
from metrics import layer_shares
from speed import SpeedProbe, reference_values
from tracer import Tracer, span_table

from repro.serve import ServeClient, run_transaction
from repro.serve.client import ServeError
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)

SERVER = Path(__file__).with_name("server.py")
HOST = "127.0.0.1"
CONNECTIONS = 2
RO_SHARE = 0.6
SKEW = 3.0
MAX_RETRIES = 20
#: Servers spawned (and connected to) per run for ``setup_s``, at least.
SETUP_TRIALS = 7
#: Sessions per run, at least (more while ``--seconds`` lasts).
MIN_SESSIONS = 1
#: One session's staircase: (arrivals per second, seconds).  Each step
#: is followed by a closed-loop burst, so capacity samples are spread
#: over the session instead of landing in one slow or fast moment.
STAIRCASE = ((50, 1.0), (150, 5.0), (300, 1.0), (450, 1.0))
#: The step whose latencies are the headline ``txn_*`` figures.
REFERENCE_RATE = 150
#: Transactions in one session's closed-loop bursts, all steps together.
CAPACITY_TXNS = 1000
#: A rate step is sustained when its p99 is within this limit ...
P99_LIMIT_MS = 50.0
#: ... and the arrivals still waiting at its end fit in this much time.
BACKLOG_LIMIT_S = 0.05
#: Seconds a server gets to start listening or to report and exit, and
#: the slack a rate step or burst gets beyond its planned length before
#: the session counts as stalled.
SERVER_TIMEOUT_S = 60.0
#: What :func:`_within` returns for work that did not finish in time.
STALLED = object()


class ServerProcess:
    """One ``server.py`` child; always stopped by :meth:`stop`/:meth:`kill`."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        try:
            self.port = int(json.loads(self._first_line())["port"])
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise BenchError("server did not report its port") from None

    def _first_line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_TIMEOUT_S)
        if not ready:
            self.kill()
            raise BenchError("server did not start listening in time")
        return self.proc.stdout.readline().decode()

    def stop(self) -> dict:
        """Ask the server to finish; return its final report."""
        try:
            out, _ = self.proc.communicate(b"stop\n", timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not report in time") from None
        lines = out.decode().strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"server exited with {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def pin_together(server_pid: int) -> None:
    """Put the server and the load generator on one and the same core.

    Left to the OS, the two processes sometimes share a core and
    sometimes not, which moves closed-loop capacity by up to 2x between
    otherwise identical runs.  On two pinned cores every request pays a
    cross-core wake-up and feels whatever else runs on either core; on
    one core latency at the reference rate is both lower and steadier.
    So capacity here is what one core serves, client included.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(server_pid, {cpus[0]})
        os.sched_setaffinity(0, {cpus[0]})


@dataclass
class Arrival:
    index: int
    step: int
    due: float
    read_only: bool
    spec: object
    released: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    committed: bool = False

    @property
    def latency(self) -> float:
        return self.finished - self.due


def plan(seed: int, tracer=None):
    """One session's seeded inputs.

    Returns the open-loop arrivals (``step`` numbers the rate step,
    ``due`` counts from the step's start), one closed-loop burst per
    step, and the steps as ``(rate, seconds)``.
    """
    workload = build_inventory_workload(
        build_inventory_partition(), read_only_share=RO_SHARE, skew=SKEW
    )
    if tracer is not None:
        tracer.patch(workload, "next_transaction", "sim.workload",
                     "next_transaction")
    rng = random.Random(seed)

    def arrival(index: int, step: int, due: float) -> Arrival:
        spec = workload.next_transaction(rng)
        return Arrival(index=index, step=step, due=due,
                       read_only=spec.read_only, spec=spec)

    arrivals = [
        arrival(k, number, k / rate)
        for number, (rate, seconds) in enumerate(STAIRCASE)
        for k in range(int(round(seconds * rate)))
    ]
    per_burst = CAPACITY_TXNS // len(STAIRCASE)
    bursts = [[arrival(k, -1, 0.0) for k in range(per_burst)]
              for _ in STAIRCASE]
    return arrivals, bursts, list(STAIRCASE)


async def _execute(client: ServeClient, arrival: Arrival, origin: float):
    """Run one arrival to commit, retrying aborts with the same spec."""
    arrival.started = time.perf_counter() - origin
    for _ in range(MAX_RETRIES + 1):
        try:
            outcome = await run_transaction(client, arrival.spec)
        except ServeError:  # a protocol error: the arrival counts failed
            break
        if outcome["committed"]:
            arrival.committed = True
            break
    arrival.finished = time.perf_counter() - origin


async def drive_open(clients, arrivals: list[Arrival]) -> None:
    """Release each arrival at its due time onto its connection's queue."""
    lanes = [asyncio.Queue() for _ in clients]

    async def lane(client, queue):
        while (arrival := await queue.get()) is not None:
            await _execute(client, arrival, origin)

    origin = time.perf_counter()
    workers = [asyncio.ensure_future(lane(c, q))
               for c, q in zip(clients, lanes)]
    try:
        for arrival in arrivals:
            delay = origin + arrival.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            arrival.released = time.perf_counter() - origin
            lanes[arrival.index % len(lanes)].put_nowait(arrival)
        for queue in lanes:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:  # a stalled step is cancelled: leave no lane behind
        for worker in workers:
            worker.cancel()


async def _within(work, seconds: float):
    """``work``'s result, or :data:`STALLED` when it has not finished
    ``seconds`` plus :data:`SERVER_TIMEOUT_S` after it started.

    A stalled step or burst is cancelled; its arrivals that never got an
    answer keep ``finished = None``, which fails the output checks.
    """
    try:
        return await asyncio.wait_for(work, seconds + SERVER_TIMEOUT_S)
    except asyncio.TimeoutError:
        return STALLED


async def drive_closed(clients, burst: list[Arrival]) -> float:
    """Run ``burst`` back to back over every connection; its wall time."""
    queue = iter(burst)
    origin = time.perf_counter()

    async def lane(client):
        for arrival in queue:
            await _execute(client, arrival, origin)

    await asyncio.gather(*(lane(client) for client in clients))
    return time.perf_counter() - origin


def _record_round_trips(tracer, client, rtts: dict) -> None:
    """``serve.client`` spans on submit, plus each request's round trip."""
    submit = tracer.wrap(client.submit, "serve.client", lambda op: op)
    clock = time.perf_counter

    def timed_submit(op, **fields):
        started = clock()
        future = submit(op, **fields)
        future.add_done_callback(
            lambda _f: rtts.setdefault(op, []).append(clock() - started))
        return future

    client.submit = timed_submit


def analyse(sessions: list[dict]) -> list[dict]:
    """Per rate step, pooled over sessions: latency, lateness, backlog."""
    rows = []
    for number, (rate, seconds) in enumerate(sessions[0]["steps"]):
        mine = [a for run in sessions for a in run["arrivals"]
                if a.step == number]
        done = [a for a in mine if a.committed]
        latency = latency_summary([a.latency for a in done])
        backlogs = [
            sum(1 for a in run["arrivals"]
                if a.step == number and a.started > seconds)
            for run in sessions
        ]
        lateness = [a.released - a.due for a in mine]
        sustained = (
            len(done) == len(mine)
            and latency.get("p99_ms", float("inf")) <= P99_LIMIT_MS
            and max(backlogs) <= rate * BACKLOG_LIMIT_S
        )
        rows.append({
            "rate": rate,
            "offered": len(mine),
            "committed": len(done),
            "latency": latency,
            "ro_latency": latency_summary(
                [a.latency for a in done if a.read_only]),
            "lateness_p99_ms": percentile(lateness, 0.99) * 1000.0,
            "lateness_p99_beyond": beyond(len(lateness), 0.99),
            "backlog_end": backlogs,
            "sustained": sustained,
        })
    return rows


def max_sustained_rate(rows: list[dict]) -> float:
    """The highest step such that it and every step below it held."""
    best = 0.0
    for row in rows:
        if not row["sustained"]:
            break
        best = float(row["rate"])
    return best


async def _connect(trace: bool):
    """Set-up: spawn a server, pin it, open the connections."""
    started = time.perf_counter()
    server = ServerProcess(trace)
    try:
        pin_together(server.proc.pid)
        clients = [
            await asyncio.wait_for(ServeClient.connect_tcp(HOST, server.port),
                                   SERVER_TIMEOUT_S)
            for _ in range(CONNECTIONS)
        ]
    except asyncio.TimeoutError:
        server.kill()
        raise BenchError("could not connect to the server in time") from None
    except BaseException:
        server.kill()
        raise
    return server, clients, time.perf_counter() - started


async def session(seed: int, trace: bool, probe: SpeedProbe) -> dict:
    """One server's life: set up, staircase and bursts, report.

    The speed probe samples after each burst, while nothing is in flight.
    When a step, a burst or the closing stats request stalls, the server
    is killed without a report (``server`` and ``stats`` are None) and
    ``stalled`` names what stalled.
    """
    tracer = Tracer() if trace else None
    rtts: dict[str, list[float]] = {}
    server, clients, setup_s = await _connect(trace)
    stalled = stats = report = None
    try:
        started = time.perf_counter()
        cpu_started = time.process_time()
        if tracer is not None:
            instrument_codec(tracer)
            for client in clients:
                _record_round_trips(tracer, client, rtts)
            arrivals, bursts, steps = tracer.wrap(plan, "loadgen", "plan")(
                seed, tracer)
        else:
            arrivals, bursts, steps = plan(seed)
        closed_s = 0.0
        for number, (burst, (rate, seconds)) in enumerate(zip(bursts, steps)):
            step = [a for a in arrivals if a.step == number]
            if await _within(drive_open(clients, step), seconds) is STALLED:
                stalled = f"the {rate} txn/s step"
                break
            burst_s = await _within(drive_closed(clients, burst), 0.0)
            if burst_s is STALLED:
                stalled = f"the burst after the {rate} txn/s step"
                break
            closed_s += burst_s
            probe.sample()
        session_s = time.perf_counter() - started
        client_cpu_s = time.process_time() - cpu_started
        if stalled is None:
            stats = await _within(clients[0].stats(), 0.0)
            if stats is STALLED:
                stalled, stats = "the closing stats request", None
        if stalled is not None:
            server.kill()
        await _close(clients)
        if stalled is None:
            report = server.stop()
    finally:
        server.kill()
        if tracer is not None:
            tracer.restore()
    return {
        "setup_s": setup_s,
        "stalled": stalled,
        "arrivals": arrivals,
        "steps": steps,
        "closed": [a for burst in bursts for a in burst],
        "closed_s": closed_s,
        "session_s": session_s,
        "client_cpu_s": client_cpu_s,
        "stats": stats,
        "server": report,
        "tracer": tracer,
        "rtts": rtts,
    }


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _sessions(
    seed: int, seconds: float, trace: bool, min_setups: int, probe: SpeedProbe
) -> tuple:
    """Sessions until ``seconds`` is spent, then set-ups to the minimum."""
    cpus = os.sched_getaffinity(0)
    try:
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_SESSIONS or time.perf_counter() < deadline:
            runs.append(
                await session(input_seed(seed, len(runs)), trace, probe))
            if runs[-1]["stalled"]:
                return runs, []
        setups = [run["setup_s"] for run in runs]
        while len(setups) < min_setups:
            server, clients, setup_s = await _connect(False)
            setups.append(setup_s)
            await _close(clients)
            server.stop()
    finally:
        os.sched_setaffinity(0, cpus)
    return runs, setups


def _run(
    seed: int, seconds: float, trace: bool, min_setups: int = SETUP_TRIALS,
    probe: Optional[SpeedProbe] = None,
) -> tuple:
    probe = SpeedProbe("serve-tcp") if probe is None else probe
    try:
        return asyncio.run(
            _sessions(seed, seconds, trace, min_setups, probe))
    except (OSError, ServeError, ValueError) as exc:
        raise BenchError(f"serve-tcp session failed: {exc}") from exc


def _offered(runs: list[dict]) -> list[Arrival]:
    return [a for run in runs for a in run["arrivals"] + run["closed"]]


def _checks(runs: list[dict]) -> Checks:
    checks = Checks()
    for number, run in enumerate(runs):
        server = run["server"]
        offered = run["arrivals"] + run["closed"]
        committed = sum(1 for a in offered if a.committed)
        where = f"session {number}"
        checks.require(
            all(a.finished is not None for a in offered),
            f"{where}: an offered transaction neither committed nor failed",
        )
        if run["stalled"]:
            checks.require(
                False,
                f"{where}: {run['stalled']} did not finish within "
                f"{SERVER_TIMEOUT_S:g} s of its planned length; server killed",
            )
            continue
        checks.require(server["audit_ok"],
                       f"{where}: MVSG audit: served schedule not serializable")
        for when, stats in (("mid-run", run["stats"]),
                            ("final", server["stats"])):
            checks.require(
                stats["protocol_errors"] == 0,
                f"{where}: {when} protocol_errors = {stats['protocol_errors']}")
        checks.require(
            server["stats"]["commits"] == committed,
            f"{where}: server committed {server['stats']['commits']} "
            f"transactions, the load generator saw {committed}",
        )
    return checks


def _stalled_outcome(runs: list[dict]) -> Optional[dict]:
    """The failed outcome of a run in which a session stalled, or None.

    No figure of a stalled run is trustworthy, so it reports none; every
    transaction it offered counts as failed.
    """
    stalled = [run["stalled"] for run in runs if run["stalled"]]
    if not stalled:
        return None
    offered = _offered(runs)
    return {
        "checks": _checks(runs),
        "attempted": len(offered),
        "failed": len(offered),
        "metrics": {},
        "detail": {"stalled": stalled},
    }


def _reference(rows: list[dict]) -> dict:
    return next(row for row in rows if row["rate"] == REFERENCE_RATE)


def measure(seed: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric plus the checks."""
    probe = SpeedProbe("serve-tcp")
    runs, setups = _run(seed, seconds, trace=False, probe=probe)
    stalled = _stalled_outcome(runs)
    if stalled is not None:
        return stalled
    rows = analyse(runs)
    reference = _reference(rows)
    offered = _offered(runs)
    servers = [run["server"] for run in runs]
    wall = {
        "setup_s": median(setups),
        "commits_per_s": (
            sum(1 for run in runs for a in run["closed"] if a.committed)
            / sum(run["closed_s"] for run in runs)),
        "audit_s": statistics.fmean(s["audit_s"] for s in servers),
        "txn_p50_ms": reference["latency"]["p50_ms"],
    }
    return {
        "checks": _checks(runs),
        "attempted": len(offered),
        "failed": sum(1 for a in offered if not a.committed),
        "metrics": {
            **reference_values(probe, wall),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in servers]),
            "txn_p99_ms": reference["latency"]["p99_ms"],
            "ro_txn_p99_ms": reference["ro_latency"]["p99_ms"],
            "max_rate_txn_per_s": max_sustained_rate(rows),
        },
        "wall": wall,
        "loop_ms": probe.loop_s * 1000.0,
        "detail": {
            "sessions": len(runs),
            "steps": rows,
            "reference_rate": REFERENCE_RATE,
            "capacity_transactions": sum(len(run["closed"]) for run in runs),
            "schedule_steps": [s["schedule_steps"] for s in servers],
        },
    }


def _cpu_per_commit(run: dict) -> float:
    commits = run["server"]["stats"]["commits"]
    return (run["server"]["serve_cpu_s"] + run["client_cpu_s"]) / commits


def trace(seed: int) -> dict:
    """The traced run: one untraced session, then one traced session of
    the same seed; per-layer metrics and the CPU overhead of tracing."""
    (baseline,), _ = _run(seed, 0.0, trace=False, min_setups=1)
    stalled = _stalled_outcome([baseline])
    if stalled is not None:
        return stalled
    (run,), _ = _run(seed, 0.0, trace=True, min_setups=1)
    stalled = _stalled_outcome([run])
    if stalled is not None:
        return stalled
    tracer = run["tracer"]
    client_self_s = tracer.total_self_s()
    server = run["server"]
    server_spans = Tracer()
    server_spans.merge(server["trace"])
    # Server CPU time outside every wrapped call while serving: the
    # asyncio loop, request dispatch and the single-writer gate.
    server_busy_s = server["serve_cpu_s"] - (
        server_spans.total_self_s() - server_spans.layer_self_s("txn.depgraph"))
    tracer.merge(server["trace"])
    reference = _reference(analyse([run]))
    stats = server["stats"]
    reads = stats["gate_free_reads"] + stats["gated_reads"]
    wall_s = run["session_s"] + server["audit_s"]
    values = {
        **scheduler_figures(tracer, server["facts"]),
        **depgraph_figures(tracer),
        "sim.workload.next_transaction_us": tracer.op_self_us(
            "sim.workload", "next_transaction"),
        "sim.workload.next_transaction_calls": tracer.op_calls(
            "sim.workload", "next_transaction"),
        **{
            f"serve.client.{op}_rtt_us": median(run["rtts"][op]) * 1e6
            for op in ("begin", "read", "write", "commit")
        },
        "serve.protocol.encode_us": tracer.op_self_us(
            "serve.protocol", "encode"),
        "serve.protocol.decode_us": tracer.op_self_us(
            "serve.protocol", "decode"),
        "serve.server.scheduler_us": tracer.op_inclusive_us(
            "core.scheduler", *tracer.ops("core.scheduler")),
        "serve.server.gate_free_share": (
            stats["gate_free_reads"] / reads if reads else 0.0),
        "serve.server.parked_ops": stats["parked_ops"],
        "serve.server.restarts": stats["aborts"],
        "serve.server.cpu_share": server["serve_cpu_s"] / server["serve_wall_s"],
        "loadgen.lateness_p99_ms": reference["lateness_p99_ms"],
        "loadgen.backlog_end": reference["backlog_end"][0],
        **layer_shares(tracer, wall_s),
        "serve.server.share": max(server_busy_s, 0.0) / wall_s,
        "unattributed_s": run["session_s"] - client_self_s,
        "trace.overhead_ratio": (
            _cpu_per_commit(run) / _cpu_per_commit(baseline) - 1.0),
    }
    offered = _offered([run])
    checks = _checks([run])
    for failure in _checks([baseline]).failures:
        checks.failures.append(f"untraced baseline: {failure}")
    return {
        "checks": checks,
        "attempted": len(offered),
        "failed": sum(1 for a in offered if not a.committed),
        "metrics": values,
        "detail": {
            "reference_step": reference,
            "spans": span_table(tracer),
            "client_cpu_s": run["client_cpu_s"],
            "server_cpu_s": server["serve_cpu_s"],
        },
    }
