"""The flagship property: every scheduler, on randomized workloads over
randomized hierarchies, only produces serializable executions — and HDD
additionally satisfies the partition synchronization rule (Theorem 1's
premise), checked independently of the acyclicity oracle."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MultiversionTimestampOrdering,
    MultiversionTwoPhaseLocking,
    ReedMultiversionTimestampOrdering,
    SDD1Pipelining,
    TimestampOrdering,
    TwoPhaseLocking,
)
from repro.core.relation import audit_psr
from repro.core.scheduler import HDDScheduler
from repro.sim.engine import Simulator
from repro.sim.hierarchies import build_hierarchy_workload, chain_partition, tree_partition
from repro.sim.inventory import build_inventory_partition, build_inventory_workload
from repro.txn.depgraph import build_dependency_graph, is_serializable


def run_sim(make_scheduler, make_partition, seed, clients, skew):
    partition = make_partition()
    scheduler = make_scheduler(partition)
    workload = (
        build_inventory_workload(partition, granules_per_segment=4, skew=skew)
        if partition.segments == ["events", "inventory", "orders"]
        else build_hierarchy_workload(
            partition, granules_per_segment=4, skew=skew
        )
    )
    simulator = Simulator(
        scheduler,
        workload,
        clients=clients,
        seed=seed,
        target_commits=120,
        max_steps=30_000,
        audit=False,
    )
    result = simulator.run()
    assert result.commits > 0
    return scheduler


SCHEDULER_MAKERS = [
    ("hdd-mvto", lambda p: HDDScheduler(p, protocol_b="mvto", wall_interval=7)),
    ("hdd-to", lambda p: HDDScheduler(p, protocol_b="to", wall_interval=7)),
    (
        "hdd-reed",
        lambda p: HDDScheduler(p, protocol_b="mvto-reed", wall_interval=7),
    ),
    ("2pl", lambda p: TwoPhaseLocking()),
    ("to", lambda p: TimestampOrdering()),
    ("mvto", lambda p: MultiversionTimestampOrdering()),
    ("mvto-reed", lambda p: ReedMultiversionTimestampOrdering()),
    ("mv2pl", lambda p: MultiversionTwoPhaseLocking()),
    ("sdd1", lambda p: SDD1Pipelining(p)),
]

PARTITION_MAKERS = [
    build_inventory_partition,
    lambda: chain_partition(4),
    lambda: tree_partition(3, 2),
]


@given(
    maker=st.sampled_from(SCHEDULER_MAKERS),
    partition_maker=st.sampled_from(PARTITION_MAKERS),
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 10),
    skew=st.sampled_from([1.0, 2.5]),
)
@settings(max_examples=40, deadline=None)
def test_every_scheduler_serializable_on_random_workloads(
    maker, partition_maker, seed, clients, skew
):
    name, make = maker
    scheduler = run_sim(make, partition_maker, seed, clients, skew)
    assert is_serializable(scheduler.schedule, mode="mvsg"), name
    assert is_serializable(scheduler.schedule, mode="paper"), name
    # The linear audit's verdict is the all-pairs MVSG's.
    mvsg, _ = build_dependency_graph(scheduler.schedule, mode="mvsg")
    assert mvsg.is_acyclic(), name


@given(
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 10),
    protocol_b=st.sampled_from(["mvto", "to"]),
)
@settings(max_examples=25, deadline=None)
def test_hdd_enforces_psr(seed, clients, protocol_b):
    partition = build_inventory_partition()
    scheduler = HDDScheduler(partition, protocol_b=protocol_b, wall_interval=9)
    workload = build_inventory_workload(partition, granules_per_segment=4)
    Simulator(
        scheduler,
        workload,
        clients=clients,
        seed=seed,
        target_commits=120,
        max_steps=30_000,
    ).run()
    txn_classes = {
        t.txn_id: t.class_id
        for t in scheduler.transactions.values()
        if t.is_committed and t.class_id is not None
    }
    txn_initiations = {
        t.txn_id: t.initiation_ts
        for t in scheduler.transactions.values()
        if t.is_committed
    }
    violations = audit_psr(
        scheduler.schedule, txn_classes, txn_initiations, scheduler.tracker
    )
    assert violations == []


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_paper_tg_is_subgraph_of_mvsg(seed):
    """On any generated execution, every paper-mode edge appears in the
    MVSG too (the acyclicity tests are consistent)."""
    partition = build_inventory_partition()
    scheduler = HDDScheduler(partition)
    workload = build_inventory_workload(partition, granules_per_segment=4)
    Simulator(
        scheduler, workload, clients=6, seed=seed, target_commits=100
    ).run()
    paper, _ = build_dependency_graph(scheduler.schedule, mode="paper")
    mvsg, _ = build_dependency_graph(scheduler.schedule, mode="mvsg")
    for arc in paper.arcs:
        assert mvsg.has_arc(*arc)


@given(seed=st.integers(0, 10_000), interval=st.sampled_from([1, 5, 50, 500]))
@settings(max_examples=15, deadline=None)
def test_gc_preserves_serializability_and_results(seed, interval):
    """Interleaving GC with execution never changes correctness."""
    partition = build_inventory_partition()
    scheduler = HDDScheduler(partition, wall_interval=interval)
    workload = build_inventory_workload(partition, granules_per_segment=4)
    simulator = Simulator(
        scheduler, workload, clients=6, seed=seed, target_commits=60
    )
    # Run in two bursts with a GC between them.
    simulator.target_commits = 30
    simulator.run()
    scheduler.collect_garbage()
    simulator.target_commits = 60
    simulator.max_steps = 60_000
    simulator.run()
    assert is_serializable(scheduler.schedule, mode="mvsg")


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_random_chains_with_random_tst_shapes(seed):
    """Random TST hierarchies drive HDD to serializable executions."""
    rng = random.Random(seed)
    depth = rng.randint(2, 5)
    partition = chain_partition(depth)
    scheduler = HDDScheduler(partition, wall_interval=rng.choice([3, 17]))
    workload = build_hierarchy_workload(
        partition,
        reads_per_txn=rng.randint(1, 4),
        granules_per_segment=rng.choice([2, 8]),
    )
    Simulator(
        scheduler,
        workload,
        clients=rng.randint(2, 8),
        seed=seed,
        target_commits=100,
        max_steps=30_000,
        audit=True,
    ).run()
