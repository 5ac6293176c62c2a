"""The benchmark's own tests: catalogue, statistics, tracing, exit codes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from common import (
    ROOT,
    beyond,
    highest_percentile,
    latency_summary,
    percentile,
    use_checkout,
)
from metrics import END_TO_END, NAME_RE, PER_LAYER, REPORTED, complete
from tracer import Tracer

use_checkout()

import servework  # noqa: E402  (needs the checkout on sys.path)
import simwork  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SHORT_STEPS = 2_000


# ----------------------------------------------------------------------
# The catalogue and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed():
    names = [*END_TO_END, *REPORTED, *PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_bounds_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["sim-star2", "dist-star2", "serve-tcp"]


def test_complete_fills_unmeasured_layers_and_rejects_strangers():
    metrics = complete({"setup_s": 1.5}, END_TO_END)
    assert list(metrics) == list(END_TO_END)
    assert metrics["setup_s"] == {"value": 1.5, "unit": "s"}
    assert metrics["audit_s"]["value"] == 0.0
    with pytest.raises(KeyError):
        complete({"no_such_metric": 1.0}, END_TO_END)


# ----------------------------------------------------------------------
# Percentiles and sample counts
# ----------------------------------------------------------------------
def test_percentile_is_a_measured_sample():
    samples = [0.5, 0.1, 0.4, 0.2, 0.3]
    assert percentile(samples, 0.5) == 0.3
    assert percentile(samples, 0.99) == 0.5
    assert percentile(samples, 0.01) == 0.1


@pytest.mark.parametrize(
    "n, q, expected",
    [(1000, 0.99, 10), (999, 0.99, 9), (100, 0.5, 50), (1, 0.5, 0)],
)
def test_samples_beyond_a_percentile(n, q, expected):
    assert beyond(n, q) == expected


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert highest_percentile(1000) == 0.99
    assert highest_percentile(999) == 0.98
    assert highest_percentile(20) == 0.5
    assert highest_percentile(19) is None
    for n in (20, 101, 500, 2000, 12345):
        assert beyond(n, highest_percentile(n)) >= 10


def test_sample_counts_stay_counts():
    summary = latency_summary([0.002] * 400)
    assert summary["samples"] == 400
    assert summary["p50_ms"] == pytest.approx(2.0)
    assert summary["p99_beyond"] == 4
    assert summary["well_sampled_percentile"] == 0.95


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = _Clock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.wrap(inner, "low", "inner")

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0

    tracer.wrap(outer, "high", "outer")()
    assert tracer.inclusive_s[("high", "outer")] == 6.0
    assert tracer.self_s[("high", "outer")] == 4.0
    assert tracer.self_s[("low", "inner")] == 2.0
    assert tracer.total_self_s() == 6.0


def test_patch_and_restore():
    class Thing:
        def method(self):
            return 1

    thing = Thing()
    tracer = Tracer()
    tracer.patch(thing, "method", "layer", "op")
    assert thing.method() == 1
    assert tracer.calls[("layer", "op")] == 1
    tracer.restore()
    assert "method" not in vars(thing)


# ----------------------------------------------------------------------
# Short traced runs of the program
# ----------------------------------------------------------------------
@pytest.fixture
def short_reps(monkeypatch):
    monkeypatch.setattr(simwork, "REP_STEPS", SHORT_STEPS)


def _traced(kind: str, seed: int):
    tracer = Tracer()
    started = time.perf_counter()
    rep = simwork.run_rep(kind, seed, instrument=simwork._instrument(tracer),
                          keep=True)
    verdict = simwork.traced_audit(tracer, rep.sim.scheduler.schedule)
    return tracer, rep, verdict, time.perf_counter() - started


@pytest.mark.parametrize("kind", ["sim", "dist"])
def test_self_times_fit_in_the_wall_time(short_reps, kind):
    tracer, _, verdict, wall_s = _traced(kind, 3)
    assert verdict
    assert 0 < tracer.total_self_s() <= wall_s


@pytest.mark.parametrize("kind", ["sim", "dist"])
def test_traced_schedule_equals_untraced(short_reps, kind):
    _, traced, _, _ = _traced(kind, 3)
    assert traced.md5 == simwork.run_rep(kind, 3).md5


def test_exact_counts_repeat_for_one_seed(short_reps):
    first, rep1, _, _ = _traced("dist", 4)
    second, rep2, _, _ = _traced("dist", 4)
    assert rep1.steps == rep2.steps == SHORT_STEPS
    assert first.counts["depgraph.arcs"] == second.counts["depgraph.arcs"] > 0
    messages = [
        sum(rep.sim.scheduler.network.sent_by_kind.values())
        for rep in (rep1, rep2)
    ]
    assert messages[0] == messages[1] > 0


def test_dist_twin_commits_the_monolith_schedule(short_reps):
    assert simwork.run_rep("dist", 5).md5 == simwork.run_rep(
        "sim", 5, gc_interval=None).md5


def test_twin_reference_runs_without_garbage_collection():
    # On input 1344 the monolith's collector releases a wall that changes
    # a later read, so only the collection-free monolith is the twin.
    dist = simwork.run_rep("dist", 1344).md5
    assert dist == simwork.run_rep("sim", 1344, gc_interval=None).md5
    assert dist != simwork.run_rep("sim", 1344).md5
    checks = simwork.Checks()
    simwork._canary_and_twin("dist", 1344, dist, checks)
    assert checks.ok


# ----------------------------------------------------------------------
# A serve-tcp session whose server stops answering
# ----------------------------------------------------------------------
class _DeafChannel:
    """A server connection that grants every request except one, which
    it never answers."""

    def __init__(self, deaf_request: int) -> None:
        self.deaf_request = deaf_request
        self.requests = 0
        self.inbox = asyncio.Queue()

    def write_frame(self, request: dict) -> None:
        self.requests += 1
        if self.requests != self.deaf_request:
            self.inbox.put_nowait({"id": request["id"], "status": "granted",
                                   "txn": request["id"], "value": 0})

    async def read_frame(self):
        return await self.inbox.get()

    def close(self) -> None:
        self.inbox.put_nowait(None)

    async def wait_closed(self) -> None:
        pass


class _KilledServer:
    def __init__(self) -> None:
        self.killed = False

    def kill(self) -> None:
        self.killed = True

    def stop(self) -> dict:
        raise AssertionError("a stalled server is killed, not stopped")


def test_a_request_never_answered_fails_the_run(monkeypatch):
    server = _KilledServer()

    async def connect(_trace):
        clients = [ServeClient(_DeafChannel(deaf_request=20)),
                   ServeClient(_DeafChannel(deaf_request=0))]
        return server, clients, 0.01

    monkeypatch.setattr(servework, "_connect", connect)
    monkeypatch.setattr(servework, "SERVER_TIMEOUT_S", 0.5)
    started = time.perf_counter()
    outcome = servework.measure(seed=1, seconds=0.1)
    first_step_s = servework.STAIRCASE[0][1]
    assert time.perf_counter() - started < first_step_s + 5.0
    assert server.killed
    failures = outcome["checks"].failures
    assert any("neither committed nor failed" in f for f in failures)
    assert any("did not finish" in f for f in failures)
    assert outcome["failed"] == outcome["attempted"] > 0


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-star2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_seconds_scale_times_and_rates_oppositely():
    from speed import REFERENCE_LOOP_S, SENSITIVITY, SpeedProbe, reference_values

    probe = SpeedProbe("sim-star2")
    probe.samples = [2 * REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S]
    values = reference_values(probe, {"audit_s": 4.0, "commits_per_s": 100.0})
    # The loop ran twice as slow as on the reference machine.
    k = SENSITIVITY["sim-star2"]
    assert values["audit_s"] == pytest.approx(4.0 / 2 ** k["audit_s"])
    assert values["commits_per_s"] == pytest.approx(
        100.0 * 2 ** k["commits_per_s"])


def test_every_gated_time_and_rate_has_a_sensitivity():
    from speed import SENSITIVITY

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(SENSITIVITY) == sorted(w["name"] for w in spec["workloads"])
    scaled = [name for name, unit in END_TO_END.items() if unit != "MiB"]
    for per_metric in SENSITIVITY.values():
        assert sorted(per_metric) == sorted(scaled)
        assert all(0 < k <= 1 for k in per_metric.values())


def test_a_run_spreads_over_inputs_that_no_other_seed_uses():
    from common import INPUTS_PER_SEED, input_seed

    inputs = {seed: {input_seed(seed, i) for i in range(INPUTS_PER_SEED)}
              for seed in range(1, 11)}
    assert all(len(seen) == INPUTS_PER_SEED for seen in inputs.values())
    assert len(set().union(*inputs.values())) == 10 * INPUTS_PER_SEED
    assert input_seed(3, INPUTS_PER_SEED) == input_seed(3, 0)
