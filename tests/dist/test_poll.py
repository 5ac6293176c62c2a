"""The leader's POLL response: every wall released past ``after``.

``SegmentNode._handle_poll`` bisects the leader's release-ordered wall
list instead of scanning it; the response must equal the filtered scan
for any ``after`` — none yet (-1, or no key at all), exactly a wall's
release time, between two walls, the newest wall, and past it.
"""

import random

from repro.dist import DistributedRuntime
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)


def leader_after_run(batch_gossip):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = DistributedRuntime(
        partition, mode="hdd", seed=0, batch_gossip=batch_gossip
    )
    Simulator(
        runtime,
        workload,
        clients=8,
        seed=42,
        target_commits=120,
        max_steps=200_000,
        audit=False,
    ).run()
    return runtime.nodes[runtime.leader_class]


def probe_points(released, rng):
    times = [wall.release_ts for wall in released]
    points = {-1, times[-1], times[-1] + 1}
    points.update(times)
    points.update(t + 1 for t in times)  # between walls (or on the next)
    points.update(rng.randint(-1, times[-1] + 2) for _ in range(50))
    return sorted(points)


def test_poll_response_equals_the_filtered_scan():
    rng = random.Random(5)
    for batch_gossip in (True, False):
        leader = leader_after_run(batch_gossip)
        assert len(leader.walls.released) > 10
        for after in probe_points(leader.walls.released, rng):
            response = leader._handle_poll({"after": after})
            expected = [
                leader._serialize_wall(wall)
                for wall in leader.walls.released
                if wall.release_ts > after
            ]
            assert response["walls"] == expected
        newest = leader.walls.released[-1].release_ts
        assert leader._handle_poll({"after": newest})["walls"] == []
        everything = leader._handle_poll({"after": -1})["walls"]
        assert len(everything) == len(leader.walls.released)
        assert leader._handle_poll({})["walls"] == everything

