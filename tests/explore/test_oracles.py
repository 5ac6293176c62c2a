"""Oracle-layer unit behaviour (the corpus tests cover end-to-end)."""

from repro.explore import CORPUS, run_case
from repro.explore.cases import ExploreCase, RunReport
from repro.explore.oracles import (
    Violation,
    batched_eager_applicable,
    check_case,
    check_engine_error,
    check_serializability,
)
from repro.explore.perturb import Choice
from repro.txn.depgraph import build_dependency_graph, is_serializable


def test_violation_round_trip():
    violation = Violation("serializability", "MVSG has a cycle")
    assert violation.to_dict() == {
        "kind": "serializability",
        "detail": "MVSG has a cycle",
    }


def test_engine_error_oracle_reports_run_errors():
    case = ExploreCase()
    clean = RunReport(case=case)
    assert check_engine_error(clean) is None
    dead = RunReport(case=case, error="KeyError: 'granule'")
    violation = check_engine_error(dead)
    assert violation is not None and violation.kind == "engine-error"


def test_serializability_oracle_needs_a_schedule():
    assert check_serializability(RunReport(case=ExploreCase())) is None


def test_linear_audit_matches_all_pairs_on_the_corpus():
    """On every mutant's unperturbed run the audit's verdict is the
    pairwise MVSG's, and the wall-skipping mutant's is a cycle the
    oracle reports with its arcs."""
    violations = {}
    for entry in CORPUS:
        report = run_case(entry.case())
        schedule = report.scheduler.schedule
        graph, _ = build_dependency_graph(schedule, mode="mvsg")
        verdict = is_serializable(schedule, mode="mvsg")
        assert verdict == graph.is_acyclic(), entry.name
        violations[entry.name] = check_serializability(report)
        assert (violations[entry.name] is None) == verdict, entry.name
    caught = violations["hdd-skip-wall-wait"]
    assert caught is not None
    assert caught.detail.startswith("MVSG has a cycle: [")


def test_batched_eager_applicability_gating():
    ideal_batched = ExploreCase(dist=True, batch_gossip=True)
    assert batched_eager_applicable(ideal_batched)
    # net-level recorded choices hit different call addresses in the
    # eager counterpart, so the equivalence claim doesn't apply
    perturbed = ideal_batched.with_choices(
        [Choice(point="deliver", index=0, pick=1)]
    )
    assert not batched_eager_applicable(perturbed)
    sim_perturbed = ideal_batched.with_choices(
        [Choice(point="ready", index=4, pick=2)]
    )
    assert batched_eager_applicable(sim_perturbed)
    # faulty plans and eager runs are out of scope entirely
    assert not batched_eager_applicable(
        ExploreCase(dist=True, batch_gossip=True, plan={"latency": 1})
    )
    assert not batched_eager_applicable(ExploreCase(dist=True))


def test_check_case_on_error_only_report():
    report = RunReport(case=ExploreCase(), error="RuntimeError: stalled")
    kinds = [v.kind for v in check_case(report)]
    assert kinds == ["engine-error"]
