"""The linear MVSG audit agrees with the all-pairs MVSG on every
schedule: random ones built around the chain construction's edge cases,
and the executions of every scheduler."""

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.txn.depgraph import build_dependency_graph, is_serializable
from repro.txn.schedule import Schedule


def all_pairs_verdict(schedule: Schedule) -> bool:
    return build_dependency_graph(schedule, mode="mvsg")[0].is_acyclic()


@st.composite
def edge_case_schedules(
    draw, max_txns=6, max_ops=20, granules=("x", "y", "z")
):
    """Random schedules that reach every corner of the version chains.

    Operations are reads, blind writes and read-modify-writes (a read
    then a write of the same granule by one transaction).  A read picks
    any version installed so far: the bootstrap version (ts 0), or one
    whose writer will abort or never finish.  Writes take fresh
    timestamps from one clock, so a transaction may write a granule at
    several timestamps, and may read an older version of a granule it
    has already written a newer version of.  Each transaction commits,
    aborts or is left unfinished.
    """
    n_txns = draw(st.integers(1, max_txns))
    schedule = Schedule()
    installed: dict[str, list[int]] = {g: [0] for g in granules}
    clock = 0
    for _ in range(draw(st.integers(1, max_ops))):
        txn = draw(st.integers(1, n_txns))
        granule = draw(st.sampled_from(granules))
        kind = draw(st.sampled_from(["r", "w", "m"]))
        if kind in ("r", "m"):
            version = draw(st.sampled_from(installed[granule]))
            schedule.record_read(txn, granule, version)
        if kind in ("w", "m"):
            clock += 1
            schedule.record_write(txn, granule, clock)
            installed[granule].append(clock)
    for txn in range(1, n_txns + 1):
        fate = draw(st.sampled_from(["commit", "commit", "abort", "open"]))
        if fate == "commit":
            schedule.record_commit(txn)
        elif fate == "abort":
            schedule.record_abort(txn)
    return schedule


@given(edge_case_schedules())
@settings(max_examples=1000, deadline=None)
def test_linear_verdict_equals_all_pairs_verdict(schedule):
    assert is_serializable(schedule, mode="mvsg") == all_pairs_verdict(
        schedule
    )


def test_generator_yields_both_verdicts():
    for verdict in (True, False):
        find(
            edge_case_schedules(),
            lambda s, v=verdict: all_pairs_verdict(s) is v
            and len(s.committed_txn_ids()) > 1,
            settings=settings(database=None, phases=[Phase.generate]),
        )
