"""Fault-injection integration: the runtime survives a hostile wire.

Latency, jitter, drops, a partition window, and a crash-restart of one
segment node — the serializability audit stays on (``audit=True``
raises on any non-serializable schedule), so a completed run IS the
safety claim.  Crash fencing must surface as clean ``node restart``
aborts, and recovery must leave every granule readable.  The hostile
run is checked on both wires: the default, batched one and the eager
reference (``batch_gossip=False``).
"""

import pytest

from repro.dist import (
    Crash,
    DistributedRuntime,
    FaultPlan,
    node_name,
)
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)


def hostile_plan(partition):
    isolated = node_name("orders")
    others = [
        node_name(s) for s in partition.segments if s != "orders"
    ]
    return FaultPlan(
        latency=2,
        jitter=1,
        drop_rate=0.05,
        spike_rate=0.02,
        spike_ticks=5,
        partitions=(FaultPlan.partition(80, 160, [isolated], others),),
        crashes=(Crash(node_name("orders"), 300, 340),),
    )


def run_hostile(mode="hdd", commits=100, batch_gossip=True):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = DistributedRuntime(
        partition,
        mode=mode,
        plan=hostile_plan(partition),
        seed=0,
        batch_gossip=batch_gossip,
    )
    result = Simulator(
        runtime,
        workload,
        clients=8,
        seed=42,
        target_commits=commits,
        max_steps=200_000,
        audit=True,
    ).run()
    return runtime, result


@pytest.mark.parametrize(
    "batch_gossip", [True, False], ids=["batched", "eager"]
)
def test_hostile_run_commits_and_stays_serializable(batch_gossip):
    runtime, result = run_hostile(batch_gossip=batch_gossip)
    assert runtime.batch_gossip == batch_gossip
    assert result.commits == 100
    network = runtime.network
    assert network.tick_now > 340  # the whole fault plan actually ran
    assert sum(network.dropped_by_kind.values()) > 0
    fates = {m.fate for m in network.log}
    assert "partitioned" in fates
    assert "dst-down" in fates


def test_crash_fencing_aborts_cleanly():
    runtime, _ = run_hostile()
    reasons = runtime.stats.aborts_by_reason
    fenced = [r for r in reasons if r.startswith("node restart")]
    assert fenced, f"no fencing aborts in {sorted(reasons)}"
    # Fenced transactions abort; they never commit half a write set.
    for txn in runtime.committed_transactions():
        assert txn.is_committed


def test_recovery_leaves_every_granule_readable():
    runtime, _ = run_hostile()
    store = runtime.store
    granules = list(store.granules())
    assert granules
    for granule in granules:
        store.committed_value(granule)  # must not raise
    assert store.total_versions() > len(granules)


def test_walls_keep_releasing_through_faults():
    """Digest staleness only delays walls; it never wedges them."""
    runtime, _ = run_hostile(mode="hdd")
    assert runtime.walls.released, "no wall ever released under faults"


@pytest.mark.parametrize("mode", ["to", "mvto"])
def test_baseline_modes_survive_the_same_plan(mode):
    runtime, result = run_hostile(mode=mode, commits=60)
    assert result.commits == 60
