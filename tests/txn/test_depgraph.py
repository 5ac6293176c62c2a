"""Tests for the serializability oracle (paper Section 2)."""

import pytest

from repro.errors import PartitionError
from repro.txn.depgraph import (
    build_dependency_graph,
    find_dependency_cycle,
    is_serializable,
    mvsg_reachability_graph,
    serialization_order,
)
from repro.txn.schedule import Schedule


def serial_two_txn() -> Schedule:
    """t1 writes d, commits; t2 reads d, writes d, commits."""
    s = Schedule()
    s.record_write(1, "d", 1)
    s.record_commit(1)
    s.record_read(2, "d", 1)
    s.record_write(2, "d", 2)
    s.record_commit(2)
    return s


def figure3_style_cycle() -> Schedule:
    """The 3-transaction cycle of the paper's Figure 3.

    t3 reads the old event record (e^0) and the new inventory (i^2);
    t1 wrote e^1 (overwriting what t3 read), t2 read e^1 and wrote i^2.
    """
    s = Schedule()
    s.record_read(3, "e", 0)   # t3 sees old event
    s.record_write(1, "e", 1)  # t1 logs the arrival
    s.record_commit(1)
    s.record_read(2, "e", 1)   # t2 sees the arrival
    s.record_write(2, "i", 2)  # ... and posts new inventory
    s.record_commit(2)
    s.record_read(3, "i", 2)   # t3 sees new inventory but not the event
    s.record_write(3, "o", 3)
    s.record_commit(3)
    return s


class TestReadsFrom:
    def test_reads_from_edge(self):
        graph, deps = build_dependency_graph(serial_two_txn())
        assert graph.has_arc(2, 1)
        kinds = {(d.later, d.earlier): d.kind for d in deps}
        assert kinds[(2, 1)] == "reads-from"

    def test_bootstrap_reads_excluded_by_default(self):
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_commit(1)
        graph, deps = build_dependency_graph(s)
        assert graph.nodes == [1]
        assert deps == []

    def test_bootstrap_included_on_request(self):
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_commit(1)
        graph, _ = build_dependency_graph(s, include_bootstrap=True)
        assert graph.has_arc(1, 0)


class TestOverwritesRead:
    def test_overwrite_edge_points_writer_to_reader(self):
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(2, "d", 2)
        s.record_commit(1)
        s.record_commit(2)
        graph, deps = build_dependency_graph(s)
        assert graph.has_arc(2, 1)
        assert deps[0].kind == "overwrites-read"

    def test_only_immediate_successor_in_paper_mode(self):
        # d^0 read by t1; versions d^2 (t2), d^3 (t3).  Paper mode only
        # links the immediate successor's writer (t2) to t1.
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(2, "d", 2)
        s.record_write(3, "d", 3)
        for txn in (1, 2, 3):
            s.record_commit(txn)
        graph, _ = build_dependency_graph(s, mode="paper")
        assert graph.has_arc(2, 1)
        assert not graph.has_arc(3, 1)

    def test_mvsg_mode_links_all_later_writers(self):
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(2, "d", 2)
        s.record_write(3, "d", 3)
        for txn in (1, 2, 3):
            s.record_commit(txn)
        graph, _ = build_dependency_graph(s, mode="mvsg")
        assert graph.has_arc(2, 1)
        assert graph.has_arc(3, 1)

    def test_aborted_writer_creates_no_edge(self):
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(2, "d", 2)
        s.record_commit(1)
        s.record_abort(2)
        graph, deps = build_dependency_graph(s)
        assert deps == []


class TestSerializability:
    def test_serial_schedule_is_serializable(self):
        assert is_serializable(serial_two_txn())

    def test_figure3_cycle_detected(self):
        s = figure3_style_cycle()
        assert not is_serializable(s)
        cycle = find_dependency_cycle(s)
        assert cycle is not None
        participants = {d.later for d in cycle}
        assert participants == {1, 2, 3}

    def test_no_cycle_returns_none(self):
        assert find_dependency_cycle(serial_two_txn()) is None

    def test_serialization_order_respects_dependencies(self):
        order = serialization_order(serial_two_txn())
        assert order.index(1) < order.index(2)

    def test_serialization_order_raises_on_cycle(self):
        with pytest.raises(PartitionError):
            serialization_order(figure3_style_cycle())


class TestLostUpdateSubtlety:
    """Documented divergence: the literal paper TG misses the classic
    blind read-modify-write lost update; the MVSG mode catches it."""

    @staticmethod
    def lost_update() -> Schedule:
        s = Schedule()
        s.record_read(1, "bal", 0)
        s.record_read(2, "bal", 0)
        s.record_write(1, "bal", 5)
        s.record_write(2, "bal", 6)
        s.record_commit(1)
        s.record_commit(2)
        return s

    def test_paper_mode_is_blind_to_it(self):
        assert is_serializable(self.lost_update(), mode="paper")

    def test_mvsg_mode_catches_it(self):
        assert not is_serializable(self.lost_update(), mode="mvsg")

    def test_mvsg_cycle_is_reported(self):
        cycle = find_dependency_cycle(self.lost_update(), mode="mvsg")
        assert cycle is not None
        assert {d.later for d in cycle} == {1, 2}


def mvsg_verdict(schedule: Schedule) -> bool:
    """The all-pairs reference: is the pairwise MVSG acyclic?"""
    return build_dependency_graph(schedule, mode="mvsg")[0].is_acyclic()


class TestLinearAudit:
    """``is_serializable(mode="mvsg")`` checks version chains, not the
    pairwise MVSG; each case pins its verdict against the reference."""

    @staticmethod
    def check(schedule: Schedule, expected: bool) -> None:
        assert mvsg_verdict(schedule) is expected
        assert is_serializable(schedule, mode="mvsg") is expected

    def test_read_modify_write_reaching_itself_is_no_cycle(self):
        # t1 reads d^0 and overwrites it: the up chain leads t1 back to
        # itself, an MVSG self-arc, not a cycle.
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(1, "d", 1)
        s.record_commit(1)
        self.check(s, True)

    def test_reader_that_also_wrote_a_newer_version(self):
        # t2 reads d^1 after writing d^3 (a self-arc, dropped); t3
        # wrote d^2 in between, so t3 -> t2, and t2 read t3's e^2.
        s = Schedule()
        s.record_write(1, "d", 1)
        s.record_commit(1)
        s.record_write(3, "e", 2)
        s.record_write(3, "d", 2)
        s.record_write(2, "d", 3)
        s.record_read(2, "d", 1)
        s.record_read(2, "e", 2)
        s.record_commit(2)
        s.record_commit(3)
        self.check(s, False)

    def test_far_later_writer_closes_a_cycle(self):
        # t1 read d^0; t3 wrote d^3, two versions on, and t1 read t3's
        # e: only the version-order arc t3 -> t1 beyond the immediate
        # successor closes the cycle, so the paper TG misses it.
        s = Schedule()
        s.record_read(1, "d", 0)
        s.record_write(2, "d", 2)
        s.record_write(3, "d", 3)
        s.record_write(3, "e", 3)
        s.record_read(1, "e", 3)
        for txn in (1, 2, 3):
            s.record_commit(txn)
        assert is_serializable(s, mode="paper")
        self.check(s, False)

    def test_writer_ordered_before_an_older_version(self):
        # t3 read d^3 (t3 wrote it) is fine alone; t2 read t3's e^3
        # while t2's d^2 precedes d^3: the down chain gives t3 -> t2.
        s = Schedule()
        s.record_write(2, "d", 2)
        s.record_write(3, "d", 3)
        s.record_write(3, "e", 3)
        s.record_read(4, "d", 3)
        s.record_read(2, "e", 3)
        for txn in (2, 3, 4):
            s.record_commit(txn)
        self.check(s, False)

    def test_uncommitted_writers_and_readers_are_ignored(self):
        s = Schedule()
        s.record_write(5, "d", 5)  # never commits
        s.record_read(1, "d", 5)   # reads an uncommitted version
        s.record_write(1, "d", 1)
        s.record_read(6, "d", 1)   # uncommitted reader
        s.record_write(6, "e", 6)
        s.record_read(1, "e", 6)
        s.record_write(7, "d", 7)
        s.record_abort(7)
        s.record_commit(1)
        self.check(s, True)

    def test_one_writer_at_two_timestamps(self):
        # t1 installs d^1 and d^4; t2 read d^1 and wrote d^2, so t1's
        # d^4 must follow t2, but t1 read t2's e.
        s = Schedule()
        s.record_write(1, "d", 1)
        s.record_read(2, "d", 1)
        s.record_write(2, "d", 2)
        s.record_write(2, "e", 2)
        s.record_read(1, "e", 2)
        s.record_write(1, "d", 4)
        s.record_commit(1)
        s.record_commit(2)
        self.check(s, False)

    def test_lost_update_and_figure3(self):
        self.check(TestLostUpdateSubtlety.lost_update(), False)
        self.check(figure3_style_cycle(), False)
        self.check(serial_two_txn(), True)

    def test_graph_is_linear_in_the_schedule(self):
        """Count, not time: a 20k-step HDD run's audit graph has at most
        four arcs per committed data step (two per read from the paper
        TG, two per read and four per version from the chains)."""
        from repro.core.scheduler import HDDScheduler
        from repro.sim.engine import Simulator
        from repro.sim.hierarchies import (
            build_hierarchy_workload,
            star_partition,
        )

        partition = star_partition(2)
        workload = build_hierarchy_workload(
            partition, read_only_share=0.25, granules_per_segment=8
        )
        simulator = Simulator(
            HDDScheduler(partition), workload, clients=8, seed=7,
            max_steps=20_000, gc_interval=500,
        )
        simulator.run()
        schedule = simulator.scheduler.schedule
        data_steps = len(schedule.data_steps())
        assert data_steps > 10_000
        graph = mvsg_reachability_graph(schedule)
        assert graph.arc_count() <= 4 * data_steps
        assert is_serializable(schedule, mode="mvsg")
