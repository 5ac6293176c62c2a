"""Coalesced gossip batching: same execution, fewer messages.

``batch_gossip=True`` (the default) defers journal gossip into
per-link batches flushed at digest-consumption barriers, governs wall
polls on ideal plans, and drops the (unread) WALL broadcast.  These
tests pin what is particular to the batched wire: it must actually
shrink the message count against the eager reference wire
(``batch_gossip=False``), disarm its governor under faults, and be
what ``repro dist`` and a sweep ``dist`` cell run when no wire is
named.  Byte-for-byte equivalence with the monolith on an ideal plan
(both wires) is in ``test_equivalence.py``; determinism under faults
(both wires) is in ``test_determinism.py``.
"""

import pytest

from repro.cli import _dist_run, build_parser
from repro.dist import DistributedRuntime, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sweep.spec import RunConfig, build_simulator
from test_determinism import faulty_run


def ideal_run(batch_gossip):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = DistributedRuntime(
        partition,
        mode="hdd",
        plan=FaultPlan(),
        seed=0,
        batch_gossip=batch_gossip,
    )
    Simulator(
        runtime,
        workload,
        clients=8,
        seed=42,
        target_commits=150,
        max_steps=200_000,
        audit=True,
    ).run()
    return runtime


def assert_batched_wire(runtime):
    """No WALL broadcast, and the poll governor skipped something."""
    assert runtime.batch_gossip
    assert runtime.network.sent_by_kind.get("WALL", 0) == 0
    assert runtime.polls_skipped > 0


def assert_eager_wire(runtime):
    assert not runtime.batch_gossip
    assert runtime.network.sent_by_kind.get("WALL", 0) > 0
    assert runtime.polls_skipped == 0


def test_batched_wire_is_smaller_and_governed():
    eager_run = ideal_run(batch_gossip=False)
    dist = ideal_run(batch_gossip=True)
    assert len(dist.network.log) < len(eager_run.network.log)
    # The governor actually fired, and the WALL broadcast is gone.
    assert_batched_wire(dist)
    assert_eager_wire(eager_run)
    # Fewer POLL round-trips and fewer (coalesced) gossip messages.
    sent = dist.network.sent_by_kind
    eager_sent = eager_run.network.sent_by_kind
    assert sent["POLL"] < eager_sent["POLL"]
    assert sent["GOSSIP"] < eager_sent["GOSSIP"]


def test_baseline_modes_ignore_the_flag():
    runtime = DistributedRuntime(build_inventory_partition(), mode="mvto")
    assert not runtime.batch_gossip


CLI_RUN = ["dist", "--commits", "40", "--clients", "6", "--seed", "3"]


def cli_runtime(*flags):
    args = build_parser().parse_args(CLI_RUN + list(flags))
    runtime, result = _dist_run(args)
    runtime.close()
    assert result.commits == 40
    return runtime, result


def test_cli_dist_defaults_to_the_batched_wire():
    default, _ = cli_runtime()
    assert_batched_wire(default)
    # Old scripts that name the (formerly opt-in) flag keep working.
    explicit, _ = cli_runtime("--batch-gossip")
    assert explicit.network.log_lines() == default.network.log_lines()


def test_cli_no_batch_gossip_selects_the_eager_wire():
    batched_run, batched_result = cli_runtime()
    eager_run, eager_result = cli_runtime("--no-batch-gossip")
    assert_eager_wire(eager_run)
    assert str(eager_run.schedule) == str(batched_run.schedule)
    assert eager_run.stats == batched_run.stats
    assert eager_result.steps == batched_result.steps


@pytest.mark.parametrize(
    "dist, expect",
    [
        ({"latency": 0}, assert_batched_wire),
        ({"latency": 0, "batch_gossip": False}, assert_eager_wire),
    ],
)
def test_sweep_dist_cell_wire(dist, expect):
    # Cells differing in any key hash to different effective seeds, so
    # the schedule comparison between wires is made on the CLI above.
    simulator = build_simulator(
        RunConfig(
            scheduler="hdd", target_commits=40, max_steps=100_000, dist=dist
        )
    )
    assert simulator.run().commits == 40
    expect(simulator.scheduler)


def test_governor_disarmed_under_faults():
    # A lost POLL response could otherwise wedge it on stale state.
    runtime, result = faulty_run()
    assert runtime.batch_gossip
    assert result.commits == 80
    assert not runtime._gov_active
    assert runtime.polls_skipped == 0
