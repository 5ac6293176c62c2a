"""The determinism tripwire: same seed + fault plan => same bytes.

Two forms, per the acceptance criteria: (a) two identical fault runs
produce byte-identical message logs and committed schedules; (b) a
sweep whose cells embed distributed runs merges byte-identically
whether executed inline or across a process pool.

Form (a) runs on both wires: the default, batched one and the eager
reference (``batch_gossip=False``).
"""

import pytest

from repro.dist import Crash, DistributedRuntime, FaultPlan, node_name
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sweep import SweepRunner, SweepSpec


def faulty_run(mode="hdd", batch_gossip=True):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    plan = FaultPlan(
        latency=1,
        jitter=2,
        drop_rate=0.08,
        spike_rate=0.05,
        spike_ticks=4,
        crashes=(Crash(node_name("inventory"), 200, 230),),
    )
    runtime = DistributedRuntime(
        partition, mode=mode, plan=plan, seed=9, batch_gossip=batch_gossip
    )
    result = Simulator(
        runtime,
        workload,
        clients=8,
        seed=7,
        target_commits=80,
        max_steps=200_000,
        audit=True,
    ).run()
    return runtime, result


@pytest.mark.parametrize(
    "batch_gossip", [True, False], ids=["batched", "eager"]
)
def test_identical_fault_runs_are_byte_identical(batch_gossip):
    first, first_result = faulty_run(batch_gossip=batch_gossip)
    second, second_result = faulty_run(batch_gossip=batch_gossip)
    assert first.batch_gossip == batch_gossip
    assert first.network.log_lines() == second.network.log_lines()
    assert str(first.schedule) == str(second.schedule)
    assert first.stats == second.stats
    assert first_result.steps == second_result.steps


def test_message_log_is_canonical_json():
    import json

    runtime, _ = faulty_run()
    for line in runtime.network.log_lines():
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True) == line


def test_dist_sweep_identical_across_workers():
    """Sweep cells embedding dist runs: workers=1 vs workers=2 merge to
    the same bytes (the latency/drop axes of the acceptance criteria)."""
    spec = SweepSpec.from_axes(
        schedulers=["hdd", "to"],
        axes={
            "dist": [
                {"latency": 0},
                {"latency": 2, "jitter": 1, "drop_rate": 0.05},
            ],
        },
        base={"target_commits": 60, "max_steps": 100_000},
    )
    serial = SweepRunner(workers=1).run(spec)
    parallel = SweepRunner(workers=2).run(spec)
    assert serial.merged_json() == parallel.merged_json()
    assert len(serial.rows) == 4
