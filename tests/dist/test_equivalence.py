"""Zero-latency equivalence: the distributed runtime IS the scheduler.

On the ideal network plan (zero latency, lossless, fault-free) every
RPC resolves inside one network tick, gossip lands before the ack, and
every digest clamp is a no-op — so the distributed runtime must replay
the monolithic scheduler *byte for byte*: same committed schedule,
same stats, same versions.  This pins the acceptance criterion for
HDD and two baselines (ISSUE: "HDD and >= 2 baselines").

The HDD modes run on both wires: the default, batched one (built
without naming a wire) and the eager reference (``batch_gossip=False``).
"""

import pytest

from repro.baselines import (
    MultiversionTimestampOrdering,
    TimestampOrdering,
)
from repro.core.scheduler import HDDScheduler
from repro.dist import DistributedRuntime, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from test_batching import assert_batched_wire, assert_eager_wire

COMMITS = 150

MONOLITHS = {
    "hdd": lambda partition: HDDScheduler(partition),
    "hdd-to": lambda partition: HDDScheduler(partition, protocol_b="to"),
    "to": lambda partition: TimestampOrdering(),
    "mvto": lambda partition: MultiversionTimestampOrdering(),
}


def run_one(make_scheduler):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    scheduler = make_scheduler(partition)
    result = Simulator(
        scheduler,
        workload,
        clients=8,
        seed=42,
        target_commits=COMMITS,
        max_steps=200_000,
        audit=True,
    ).run()
    return scheduler, result


#: (mode, wire): ``None`` builds the runtime without naming a wire.
RUNS = [
    pytest.param("hdd", None, id="hdd-default"),
    pytest.param("hdd", False, id="hdd-eager"),
    pytest.param("hdd-to", None, id="hdd-to-default"),
    pytest.param("hdd-to", False, id="hdd-to-eager"),
    pytest.param("to", None, id="to"),
    pytest.param("mvto", None, id="mvto"),
]
WIRES = pytest.mark.parametrize(
    "wire", [None, False], ids=["default", "eager"]
)


def dist_run(mode, wire=None):
    wire_kwargs = {} if wire is None else {"batch_gossip": wire}
    dist, result = run_one(
        lambda partition: DistributedRuntime(
            partition, mode=mode, plan=FaultPlan(), seed=0, **wire_kwargs
        )
    )
    if mode.startswith("hdd"):
        if wire is None:
            assert_batched_wire(dist)
        else:
            assert_eager_wire(dist)
    return dist, result


@pytest.mark.parametrize("mode, wire", RUNS)
def test_ideal_run_byte_identical_to_monolithic(mode, wire):
    mono, mono_result = run_one(MONOLITHS[mode])
    dist, dist_result = dist_run(mode, wire)
    assert str(dist.schedule) == str(mono.schedule)
    assert dist_result.commits == mono_result.commits
    assert dist_result.steps == mono_result.steps
    assert dist.stats == mono.stats
    # The federated store converges to the same committed values.
    for granule in mono.store.granules():
        assert dist.store.committed_value(
            granule
        ) == mono.store.committed_value(granule)


@WIRES
def test_ideal_network_never_advances_during_rpcs(wire):
    dist, _ = dist_run("hdd", wire)
    # Every send resolves in-tick; only the send itself is on the log.
    assert all(m.fate == "delivered" for m in dist.network.log)
    assert dist.network.dropped_by_kind == {}


@WIRES
def test_hdd_walls_match_monolithic_releases(wire):
    mono, _ = run_one(MONOLITHS["hdd"])
    dist, _ = dist_run("hdd", wire)
    mono_walls = [
        (w.base_time, w.release_ts, dict(w.components))
        for w in mono.walls.released
    ]
    dist_walls = [
        (w.base_time, w.release_ts, dict(w.components))
        for w in dist.walls.released
    ]
    assert dist_walls == mono_walls
