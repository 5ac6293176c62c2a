"""What "broken" means: the oracle layer behind every explored run.

Every executed :class:`~repro.explore.cases.RunReport` passes through
:func:`check_case`, which applies each oracle that is *valid* for the
case's shape and returns the violations found:

* ``serializability`` — the full Bernstein–Goodman MVSG audit over the
  recorded schedule (the same criterion ``audit=True`` enforces, run
  here explicitly so a failure is data rather than an exception).
* ``engine-error`` — the run died in a stall or an internal exception.
  Mutants usually fail this way: corrupted scheduler state rarely makes
  it all the way to a cleanly non-serializable schedule.
* ``digest-conservatism`` — every released time wall's components must
  be at most the *omniscient* ``E`` values recomputed after the fact
  from every node's full journal (only meaningful under a non-ideal
  plan: ideal plans use oracle-clock horizons, so the clamps are
  no-ops).  This catches a node that admits stale digest raises.
* ``critical-path`` — the PR-7 exactness invariant: every committed
  transaction's latency must be fully attributed to buckets.
* ``batched-eager`` — a batched-gossip ideal-plan run must commit the
  exact same schedule as its eager counterpart (valid only when all
  perturbation choices are simulator-level, so both runs see the same
  decision stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import NotComputableError
from repro.explore.cases import ExploreCase, RunReport, run_case
from repro.txn.depgraph import find_dependency_cycle, is_serializable


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which property broke and how."""

    kind: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


def check_serializability(report: RunReport) -> Optional[Violation]:
    schedule = getattr(report.scheduler, "schedule", None)
    if schedule is None:
        return None
    if is_serializable(schedule, mode="mvsg"):
        return None
    cycle = find_dependency_cycle(schedule, mode="mvsg")
    return Violation(
        "serializability",
        f"MVSG has a cycle: {cycle}" if cycle else "MVSG is cyclic",
    )


def check_engine_error(report: RunReport) -> Optional[Violation]:
    if report.error is None:
        return None
    return Violation("engine-error", report.error)


def check_digest_conservatism(report: RunReport) -> Optional[Violation]:
    """Released wall components vs. post-hoc omniscient recomputation.

    ``E(s, i, m)`` depends only on activity at or before ``m``-ish
    times, so recomputing it from the *complete* journals after the run
    yields the true value at each wall's base time — a wall released
    with a larger component admitted a digest raise the real activity
    never justified.  Computed per released wall, per component class;
    ``NotComputableError`` means the omniscient tracker cannot settle
    the value either, in which case conservative withholding was the
    only legal behaviour and the component is skipped.
    """
    runtime = report.scheduler
    nodes = getattr(runtime, "nodes", None)
    if not nodes or not report.walls:
        return None
    plan = getattr(runtime, "plan", None)
    if plan is None or plan.is_ideal:
        return None  # oracle-clock horizons: clamps are no-ops
    from repro.core.activity import ActivityTracker

    omniscient = ActivityTracker(runtime.partition.index)
    for class_id, node in nodes.items():
        for entry in node.journal:
            if entry["kind"] == "begin":
                omniscient.record_begin(
                    class_id, entry["txn"], entry["ts"]
                )
            else:
                omniscient.record_end(class_id, entry["txn"], entry["ts"])
    for wall in report.walls:
        for class_id, component in wall.components.items():
            try:
                truth = omniscient.e_func(
                    wall.start_class, class_id, wall.base_time
                )
            except NotComputableError:
                continue
            if component > truth:
                return Violation(
                    "digest-conservatism",
                    f"wall seq={wall.seq} base={wall.base_time} "
                    f"component[{class_id}]={component} exceeds "
                    f"omniscient E={truth}",
                )
    return None


def check_critical_path(report: RunReport) -> Optional[Violation]:
    if not report.events or not report.case.dist:
        return None
    from repro.obs import CausalTrace, CriticalPathAnalyzer

    try:
        problems = CriticalPathAnalyzer(
            CausalTrace(list(report.events))
        ).check()
    except Exception as exc:  # noqa: BLE001 - a broken DAG is a finding
        return Violation(
            "critical-path", f"analyzer failed: {type(exc).__name__}: {exc}"
        )
    if not problems:
        return None
    return Violation("critical-path", "; ".join(problems[:3]))


def batched_eager_applicable(case: ExploreCase) -> bool:
    """The equivalence claim only holds for ideal-plan batched runs,
    and only when every recorded choice is simulator-level (a net-level
    choice would hit different call addresses in the two runs)."""
    return (
        case.dist
        and case.batch_gossip
        and case.plan_is_ideal
        and all(c.point in ("ready", "arrival") for c in case.choices)
    )


def check_batched_eager(
    report: RunReport,
    runner: Callable[[ExploreCase], RunReport] = run_case,
) -> Optional[Violation]:
    if not batched_eager_applicable(report.case):
        return None
    from dataclasses import replace

    eager = runner(replace(report.case, batch_gossip=False))
    if report.schedule_lines == eager.schedule_lines:
        return None
    divergence = next(
        (
            i
            for i, (a, b) in enumerate(
                zip(report.schedule_lines, eager.schedule_lines)
            )
            if a != b
        ),
        min(len(report.schedule_lines), len(eager.schedule_lines)),
    )
    return Violation(
        "batched-eager",
        f"batched and eager schedules diverge at step {divergence} "
        f"(batched={len(report.schedule_lines)} steps, "
        f"eager={len(eager.schedule_lines)} steps)",
    )


def check_case(
    report: RunReport,
    runner: Callable[[ExploreCase], RunReport] = run_case,
) -> list[Violation]:
    """All valid oracles over one run, in severity order."""
    violations = []
    for check in (
        check_serializability,
        check_engine_error,
        check_digest_conservatism,
        check_critical_path,
    ):
        violation = check(report)
        if violation is not None:
            violations.append(violation)
    violation = check_batched_eager(report, runner)
    if violation is not None:
        violations.append(violation)
    return violations
