"""Tests for schedule recording and its queries."""

from repro.txn.schedule import Action, Schedule, Step


def sample_schedule() -> Schedule:
    s = Schedule()
    s.record_write(1, "d", 1)
    s.record_read(2, "d", 1)
    s.record_write(2, "d", 2)
    s.record_commit(1)
    s.record_commit(2)
    s.record_write(3, "d", 3)
    s.record_abort(3)
    return s


class TestRecording:
    def test_step_order_preserved(self):
        s = sample_schedule()
        assert [step.action for step in s] == [
            Action.WRITE,
            Action.READ,
            Action.WRITE,
            Action.COMMIT,
            Action.COMMIT,
            Action.WRITE,
            Action.ABORT,
        ]

    def test_len(self):
        assert len(sample_schedule()) == 7

    def test_str_matches_paper_notation(self):
        step = Step(1, Action.WRITE, "d", 3)
        assert str(step) == "<t1,w,d^3>"
        assert str(Step(2, Action.COMMIT)) == "<t2,c>"


class TestQueries:
    def test_committed_and_aborted_sets(self):
        s = sample_schedule()
        assert s.committed_txn_ids() == {1, 2}
        assert s.aborted_txn_ids() == {3}

    def test_data_steps_filters_aborted(self):
        s = sample_schedule()
        steps = s.data_steps(committed_only=True)
        assert all(step.txn_id in (1, 2) for step in steps)
        assert len(steps) == 3

    def test_data_steps_unfiltered(self):
        s = sample_schedule()
        assert len(s.data_steps(committed_only=False)) == 4

    def test_version_order_excludes_aborted_writes(self):
        s = sample_schedule()
        assert s.version_order("d") == [1, 2]

    def test_version_order_sorted_even_if_installed_out_of_order(self):
        s = Schedule()
        s.record_write(2, "d", 5)
        s.record_write(1, "d", 3)  # older txn writes later (MVTO)
        s.record_commit(1)
        s.record_commit(2)
        assert s.version_order("d") == [3, 5]

    def test_version_orders_cover_every_written_granule(self):
        s = Schedule()
        s.record_write(1, "d", 4)
        s.record_write(2, "e", 2)
        s.record_write(1, "d", 1)  # one txn, two versions of d
        s.record_write(3, "f", 3)  # never commits
        s.record_read(2, "g", 0)
        s.record_commit(1)
        s.record_commit(2)
        assert s.version_orders() == {"d": [1, 4], "e": [2]}
        assert s.version_order("f") == []
        assert s.version_order("g") == []

    def test_granules(self):
        s = sample_schedule()
        assert s.granules() == {"d"}
