"""Multi-version schedules, exactly as defined in Section 2 of the paper.

A *schedule* is a sequence of steps ``<transaction id, action, d^v>``
where the action is read or write and ``d^v`` names a version of a data
granule.  Every scheduler in this library appends to a
:class:`Schedule` as it grants operations, so that the serializability
oracle (:mod:`repro.txn.depgraph`) can audit any execution after the
fact.

Commit and abort markers are recorded too.  They are not steps in the
paper's sense, but the oracle needs them to restrict the dependency
graph to committed transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.txn.clock import Timestamp
from repro.txn.transaction import GranuleId


class Action(enum.Enum):
    """Step actions.  READ/WRITE are the paper's ``r``/``w``."""

    READ = "r"
    WRITE = "w"
    COMMIT = "c"
    ABORT = "a"


@dataclass(frozen=True)
class Step:
    """One schedule step ``<txn, action, d^v>``.

    ``version_ts`` is the write timestamp of the version read or
    created; it is ``None`` for commit/abort markers.
    """

    txn_id: int
    action: Action
    granule: Optional[GranuleId] = None
    version_ts: Optional[Timestamp] = None

    def __str__(self) -> str:
        if self.action in (Action.COMMIT, Action.ABORT):
            return f"<t{self.txn_id},{self.action.value}>"
        return (
            f"<t{self.txn_id},{self.action.value},"
            f"{self.granule}^{self.version_ts}>"
        )


@dataclass
class Schedule:
    """An append-only record of an execution.

    The class offers the handful of queries the oracle and the tests
    need: iteration, filtering by action, the committed transaction
    set, and the version order of each granule.
    """

    steps: list[Step] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_read(
        self, txn_id: int, granule: GranuleId, version_ts: Timestamp
    ) -> None:
        self.steps.append(Step(txn_id, Action.READ, granule, version_ts))

    def record_write(
        self, txn_id: int, granule: GranuleId, version_ts: Timestamp
    ) -> None:
        self.steps.append(Step(txn_id, Action.WRITE, granule, version_ts))

    def record_commit(self, txn_id: int) -> None:
        self.steps.append(Step(txn_id, Action.COMMIT))

    def record_abort(self, txn_id: int) -> None:
        self.steps.append(Step(txn_id, Action.ABORT))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def committed_txn_ids(self) -> set[int]:
        """Ids of transactions with a commit marker in this schedule."""
        return {s.txn_id for s in self.steps if s.action is Action.COMMIT}

    def aborted_txn_ids(self) -> set[int]:
        return {s.txn_id for s in self.steps if s.action is Action.ABORT}

    def data_steps(self, committed_only: bool = True) -> list[Step]:
        """Read/write steps, optionally restricted to committed txns.

        Write steps of aborted transactions never contribute versions to
        the final database, and the paper's dependency graph is defined
        over the transactions that actually ran to completion, so the
        oracle uses ``committed_only=True``.
        """
        wanted = self.committed_txn_ids() if committed_only else None
        result = []
        for step in self.steps:
            if step.action not in (Action.READ, Action.WRITE):
                continue
            if wanted is not None and step.txn_id not in wanted:
                continue
            result.append(step)
        return result

    def version_orders(self) -> dict[GranuleId, list[Timestamp]]:
        """Every granule's committed version order, in one pass.

        The version order ``<<`` resolves the paper's *predecessor*
        relation: the committed versions of a granule ordered by write
        timestamp.  Write timestamps are unique per granule (each writer
        installs at its own initiation timestamp), so the sort is total.
        Granules with no committed write are absent.
        """
        committed = self.committed_txn_ids()
        versions: dict[GranuleId, set[Timestamp]] = {}
        for step in self.steps:
            if (
                step.action is Action.WRITE
                and step.txn_id in committed
                and step.version_ts is not None
            ):
                versions.setdefault(step.granule, set()).add(step.version_ts)
        return {granule: sorted(ts) for granule, ts in versions.items()}

    def version_order(self, granule: GranuleId) -> list[Timestamp]:
        """Committed versions of ``granule`` ordered by write timestamp."""
        return self.version_orders().get(granule, [])

    def granules(self) -> set[GranuleId]:
        return {
            s.granule
            for s in self.steps
            if s.granule is not None
        }

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.steps)
