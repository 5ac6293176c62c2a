"""The serializability oracle: transaction dependency graphs (Section 2).

Given a recorded multi-version :class:`~repro.txn.schedule.Schedule`,
this module rebuilds the paper's *transaction dependency graph*
``TG(S(T))`` and tests it for acyclicity.  By the theorem the paper
imports from Bernstein 1982, a schedule is serializable iff its
dependency graph is acyclic — so this oracle is what every correctness
test in the repository ultimately appeals to.

The paper's arc rules (``t2 -> t1`` means "t2 depends on t1", i.e. t2
must come *after* t1 in any equivalent serial schedule):

1. *reads-from*: ``t2`` read a version created by ``t1``;
2. *overwrites-read*: ``t2`` created a version whose immediate
   predecessor (in the version order) was read by ``t1``.

The full Bernstein–Goodman multi-version serialization graph
(``mode="mvsg"``) generalises rule 2 to every version-order position.
For a committed read ``r`` of version ``v_j`` of a granule whose
committed versions are ``v_1 << ... << v_k`` (``W_i`` wrote ``v_i``)
it has, besides reads-from ``r -> W_j``, the arcs ``W_i -> r`` for
every ``i > j`` and ``W_j -> W_i`` for every ``i < j``.
:func:`build_dependency_graph` lists those arcs pairwise, which costs
reads × versions; it is the reference and explains a cycle once one
is known (:func:`find_dependency_cycle`).

The audit, ``is_serializable(schedule, mode="mvsg")``, decides the same
question in time linear in the schedule.  It takes the paper's TG
(whose arcs are all MVSG arcs) and adds two chains of virtual nodes per
granule over its version order (:func:`mvsg_reachability_graph`):

* the *down* chain ``D_i -> W_i`` and ``D_i -> D_{i-1}``, entered by
  ``W_j -> D_{j-1}`` for each committed read of ``v_j``, so ``W_j``
  reaches exactly ``W_1 .. W_{j-1}``;
* the *up* chain ``W_i -> U_i`` and ``U_i -> U_{i-1}``, left by
  ``U_{j+1} -> r`` for each committed read ``r`` of ``v_j``, so ``r``
  is reached from exactly ``W_{j+1} .. W_k``.

A path from one real transaction to the next through virtual nodes
alone therefore is exactly one MVSG arc, or an MVSG self-arc the graph
drops (a read-modify-write reaches itself through the up chain).  So
two distinct transactions reach each other in this graph iff they do in
the MVSG, and the schedule is serializable iff no strongly connected
component holds two or more real transactions.  One Tarjan pass
(:meth:`~repro.core.graph.Digraph.strongly_connected_components`)
decides that.  The graph has at most four arcs per committed data step.

Version order: versions are ordered by write timestamp, which every
scheduler in this library sets to the writer's initiation timestamp
(multi-version engines) or assigns monotonically (single-version
engines).  See DESIGN.md §7 for why this matches the paper's
schedule-position definition on the executions we generate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal, Optional

from repro.core.graph import Digraph
from repro.txn.clock import BOOTSTRAP_TXN_ID, Timestamp
from repro.txn.schedule import Action, Schedule
from repro.txn.transaction import GranuleId

DependencyMode = Literal["paper", "mvsg"]


@dataclass(frozen=True)
class Dependency:
    """One arc of the dependency graph, with provenance for diagnostics."""

    later: int  # the depending transaction (t2)
    earlier: int  # the depended-upon transaction (t1)
    granule: GranuleId
    kind: str  # "reads-from" | "overwrites-read" | "version-order"

    def __str__(self) -> str:
        return (
            f"t{self.later} -> t{self.earlier} "
            f"({self.kind} on {self.granule})"
        )


#: (granule, version_ts) -> the transaction that wrote that version.
_WriterIndex = dict[tuple[GranuleId, Timestamp], int]
#: (reader, granule, version_ts) for every read, in schedule order.
_ReadList = list[tuple[int, GranuleId, Timestamp]]


def _committed_steps(
    schedule: Schedule, committed: set[int]
) -> tuple[_WriterIndex, _ReadList]:
    """One pass: who wrote each version, and every read, in order.

    Steps of transactions outside ``committed`` are skipped, except the
    bootstrap transaction's, whose writes are the initial versions.
    """
    writer_of: _WriterIndex = {}
    reads: _ReadList = []
    for step in schedule.steps:
        txn_id = step.txn_id
        if txn_id not in committed and txn_id != BOOTSTRAP_TXN_ID:
            continue
        if step.action is Action.WRITE:
            writer_of[(step.granule, step.version_ts)] = txn_id
        elif step.action is Action.READ:
            reads.append((txn_id, step.granule, step.version_ts))
    return writer_of, reads


def build_dependency_graph(
    schedule: Schedule,
    mode: DependencyMode = "paper",
    include_bootstrap: bool = False,
) -> tuple[Digraph, list[Dependency]]:
    """Build ``TG(S(T))`` over the committed transactions of ``schedule``.

    Returns the digraph plus the annotated dependency list.  The
    bootstrap transaction (initial versions) is excluded by default: it
    precedes everything and only adds noise to diagnostics.
    ``mode="mvsg"`` lists the MVSG arcs pairwise (see the module
    docstring); the audit does not build it.
    """
    committed = schedule.committed_txn_ids()
    if include_bootstrap:
        committed = committed | {BOOTSTRAP_TXN_ID}
    writer_of, reads = _committed_steps(schedule, committed)

    graph = Digraph(nodes=sorted(committed))
    deps: list[Dependency] = []

    def add(later: int, earlier: int, granule: GranuleId, kind: str) -> None:
        if later == earlier:
            return
        if later not in committed or earlier not in committed:
            return
        graph.add_arc(later, earlier)
        deps.append(Dependency(later, earlier, granule, kind))

    # Rule 1: reads-from.
    for reader, granule, version_ts in reads:
        writer = writer_of.get((granule, version_ts), BOOTSTRAP_TXN_ID)
        add(reader, writer, granule, "reads-from")

    # Rule 2: overwrites-read (paper) or full version-order (mvsg).
    version_orders = schedule.version_orders()
    for reader, granule, read_ts in reads:
        order = version_orders.get(granule, [])
        if mode == "paper":
            successor_ts = _immediate_successor(order, read_ts)
            if successor_ts is not None:
                overwriter = writer_of.get((granule, successor_ts))
                if overwriter is not None:
                    add(overwriter, reader, granule, "overwrites-read")
        else:
            # Bernstein–Goodman: for each read r_k(x_j) and committed
            # write w_i(x_i) of the same granule, if x_i << x_j the
            # writers are ordered (t_i before t_j); otherwise the
            # reader precedes the later writer (t_k before t_i).  The
            # reads-from rule already covers the version actually read.
            read_writer = writer_of.get((granule, read_ts), BOOTSTRAP_TXN_ID)
            for other_ts in order:
                if other_ts == read_ts:
                    continue
                other_writer = writer_of.get((granule, other_ts))
                if other_writer is None:
                    continue
                if other_ts > read_ts:
                    add(other_writer, reader, granule, "version-order")
                else:
                    add(read_writer, other_writer, granule, "version-order")

    return graph, deps


def _immediate_successor(
    order: list[Timestamp], version_ts: Timestamp
) -> Optional[Timestamp]:
    """The version whose *predecessor* is ``version_ts`` (paper Section 2).

    ``order`` is the sorted committed version order; reads of the
    bootstrap version (ts 0) may not appear in it, in which case the
    successor is the first committed version.
    """
    above = bisect_right(order, version_ts)
    return order[above] if above < len(order) else None


def mvsg_reachability_graph(schedule: Schedule) -> Digraph:
    """The paper's TG plus per-granule version chains (module docstring).

    Real nodes are the committed transaction ids; the virtual chain
    nodes are tuples ``("down" | "up", granule, i)`` for the ``i``-th
    committed version of ``granule`` (from 0).  Between distinct
    transactions, reachability equals reachability in the MVSG.
    """
    graph, _ = build_dependency_graph(schedule, mode="paper")
    committed = schedule.committed_txn_ids()
    writer_of, reads = _committed_steps(schedule, committed)
    reads_of: dict[GranuleId, list[tuple[int, Timestamp]]] = {}
    for reader, granule, read_ts in reads:
        if reader in committed:
            reads_of.setdefault(granule, []).append((reader, read_ts))

    add_arc = graph.add_arc
    version_orders = schedule.version_orders()
    for granule, granule_reads in reads_of.items():
        order = version_orders.get(granule)
        if not order:
            continue
        writers = [writer_of.get((granule, ts)) for ts in order]
        down = [("down", granule, i) for i in range(len(order))]
        up = [("up", granule, i) for i in range(len(order))]
        for i, writer in enumerate(writers):
            if writer in committed:
                add_arc(down[i], writer)
                add_arc(writer, up[i])
            if i:
                add_arc(down[i], down[i - 1])
                add_arc(up[i], up[i - 1])
        for reader, read_ts in granule_reads:
            above = bisect_right(order, read_ts)
            if above < len(order):
                add_arc(up[above], reader)
            read_index = above - 1
            if read_index > 0 and order[read_index] == read_ts:
                writer = writers[read_index]
                if writer in committed:
                    add_arc(writer, down[read_index - 1])
    return graph


def is_serializable(
    schedule: Schedule, mode: DependencyMode = "paper"
) -> bool:
    """Serializability test: is the dependency graph of ``mode`` acyclic?

    ``mode="paper"`` tests the paper's TG.  ``mode="mvsg"`` is the
    linear audit: no strongly connected component of
    :func:`mvsg_reachability_graph` may hold two real transactions.
    """
    if mode == "mvsg":
        graph = mvsg_reachability_graph(schedule)
        return not any(
            len(component) > 1
            and sum(not isinstance(node, tuple) for node in component) > 1
            for component in graph.strongly_connected_components()
        )
    graph, _ = build_dependency_graph(schedule, mode=mode)
    return graph.is_acyclic()


def find_dependency_cycle(
    schedule: Schedule, mode: DependencyMode = "paper"
) -> Optional[list[Dependency]]:
    """Return the dependencies forming some cycle, or ``None``.

    Useful in anomaly tests: the Figure 3/4 constructions must produce a
    concrete, explainable cycle once read protection is removed.
    """
    graph, deps = build_dependency_graph(schedule, mode=mode)
    cycle = graph.find_cycle()
    if cycle is None:
        return None
    dep_index = {(d.later, d.earlier): d for d in deps}
    arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
    return [dep_index[arc] for arc in arcs if arc in dep_index]


def serialization_order(schedule: Schedule) -> list[int]:
    """An equivalent serial order of the committed transactions.

    Dependency arcs point later -> earlier, so the serial order is the
    reverse of a topological order of ``TG``.  Raises
    :class:`~repro.errors.PartitionError` if the schedule is not
    serializable.
    """
    graph, _ = build_dependency_graph(schedule)
    return list(reversed(graph.topological_order()))
