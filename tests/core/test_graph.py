"""Tests for digraphs, semi-trees and transitive semi-trees (paper §3.1)."""

import pytest

from repro.core.graph import (
    Digraph,
    SemiTreeIndex,
    is_semi_tree,
    is_transitive_semi_tree,
)
from repro.errors import PartitionError


def figure5_tst() -> Digraph:
    """A transitive semi-tree like the paper's Figure 5: a directed
    chain a <- b <- c with the transitive arc c -> a, plus a side
    branch d -> b."""
    return Digraph(
        nodes="abcd",
        arcs=[("b", "a"), ("c", "b"), ("c", "a"), ("d", "b")],
    )


class TestDigraphBasics:
    def test_add_and_query(self):
        g = Digraph(nodes=[1, 2], arcs=[(1, 2)])
        assert g.has_arc(1, 2)
        assert not g.has_arc(2, 1)
        assert g.successors(1) == {2}
        assert g.predecessors(2) == {1}

    def test_self_loop_rejected(self):
        g = Digraph()
        with pytest.raises(PartitionError):
            g.add_arc("a", "a")

    def test_duplicate_arc_is_idempotent(self):
        g = Digraph(arcs=[(1, 2), (1, 2)])
        assert g.arc_count() == 1

    def test_equality(self):
        assert Digraph(arcs=[(1, 2)]) == Digraph(nodes=[2, 1], arcs=[(1, 2)])
        assert Digraph(arcs=[(1, 2)]) != Digraph(arcs=[(2, 1)])

    def test_copy_is_independent(self):
        g = Digraph(arcs=[(1, 2)])
        h = g.copy()
        h.add_arc(2, 3)
        assert not g.has_arc(2, 3)


class TestCycles:
    def test_acyclic(self):
        assert Digraph(arcs=[(1, 2), (2, 3), (1, 3)]).is_acyclic()

    def test_two_cycle(self):
        g = Digraph(arcs=[(1, 2), (2, 1)])
        assert not g.is_acyclic()
        cycle = g.find_cycle()
        assert sorted(cycle) == [1, 2]

    def test_longer_cycle_found_in_order(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (3, 1), (0, 1)])
        cycle = g.find_cycle()
        assert len(cycle) == 3
        # consecutive arcs exist (wrapping)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_arc(u, v)

    def test_topological_order(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        order = g.topological_order()
        assert order.index(1) < order.index(2) < order.index(3)

    def test_topological_order_raises_on_cycle(self):
        with pytest.raises(PartitionError):
            Digraph(arcs=[(1, 2), (2, 1)]).topological_order()


def components(graph: Digraph) -> set[frozenset]:
    return {frozenset(c) for c in graph.strongly_connected_components()}


class TestStronglyConnectedComponents:
    def test_dag_has_only_singletons(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 3), (4, 3)])
        assert components(g) == {frozenset({n}) for n in (1, 2, 3, 4)}

    def test_single_cycle_is_one_component(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (3, 1), (0, 1), (3, 4)])
        assert components(g) == {
            frozenset({1, 2, 3}), frozenset({0}), frozenset({4})
        }

    def test_nested_cycles_merge(self):
        # Two cycles sharing node 2, a third reached from them, and a
        # cycle inside a cycle (5 -> 6 -> 5 within 4 -> 5 -> 6 -> 4).
        g = Digraph(arcs=[
            (1, 2), (2, 1), (2, 3), (3, 2),
            (3, 4), (4, 5), (5, 6), (6, 5), (6, 4),
        ])
        assert components(g) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_components_in_reverse_topological_order(self):
        g = Digraph(arcs=[(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)])
        position = {
            node: i
            for i, component in enumerate(g.strongly_connected_components())
            for node in component
        }
        for u, v in g.arcs:
            assert position[v] <= position[u]

    def test_isolated_nodes(self):
        g = Digraph(nodes=["a", "b"], arcs=[("c", "d"), ("d", "c")])
        assert components(g) == {
            frozenset({"a"}), frozenset({"b"}), frozenset({"c", "d"})
        }

    def test_empty_graph(self):
        assert Digraph().strongly_connected_components() == []

    def test_long_path_needs_no_recursion(self):
        n = 200_000
        g = Digraph(arcs=[(i, i + 1) for i in range(n - 1)])
        assert len(g.strongly_connected_components()) == n
        g.add_arc(n - 1, 0)
        assert len(g.strongly_connected_components()) == 1


class TestClosureReduction:
    def test_transitive_closure(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        closure = g.transitive_closure()
        assert closure.has_arc(1, 3)
        assert closure.arc_count() == 3

    def test_transitive_reduction_removes_induced_arcs(self):
        reduction = figure5_tst().transitive_reduction()
        assert sorted(reduction.arcs) == [("b", "a"), ("c", "b"), ("d", "b")]

    def test_reduction_requires_acyclic(self):
        with pytest.raises(PartitionError):
            Digraph(arcs=[(1, 2), (2, 1)]).transitive_reduction()

    def test_reduction_of_reduced_graph_is_identity(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        assert g.transitive_reduction() == g


class TestSemiTreeRecognition:
    def test_chain_is_semi_tree(self):
        assert is_semi_tree(Digraph(arcs=[(1, 2), (2, 3)]))

    def test_mixed_directions_ok(self):
        # Semi-trees ignore direction: a -> b <- c is fine.
        assert is_semi_tree(Digraph(arcs=[("a", "b"), ("c", "b")]))

    def test_undirected_cycle_rejected(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 3)])
        assert not is_semi_tree(g)

    def test_antiparallel_pair_rejected(self):
        assert not is_semi_tree(Digraph(arcs=[(1, 2), (2, 1)]))

    def test_forest_allowed_unless_connected_required(self):
        g = Digraph(arcs=[(1, 2), (3, 4)])
        assert is_semi_tree(g)
        assert not is_semi_tree(g, require_connected=True)

    def test_single_node(self):
        assert is_semi_tree(Digraph(nodes=[1]), require_connected=True)


class TestTSTRecognition:
    def test_figure5_is_tst(self):
        assert is_transitive_semi_tree(figure5_tst())

    def test_plain_semi_tree_is_tst(self):
        assert is_transitive_semi_tree(Digraph(arcs=[(1, 2), (2, 3)]))

    def test_diamond_is_not_tst(self):
        # Two distinct undirected paths between the extremes.
        g = Digraph(arcs=[(1, 2), (1, 3), (2, 4), (3, 4)])
        assert not is_transitive_semi_tree(g)

    def test_cyclic_graph_is_not_tst(self):
        assert not is_transitive_semi_tree(Digraph(arcs=[(1, 2), (2, 1)]))

    def test_v_shape_is_tst_even_without_directed_path(self):
        # c -> a, c -> b: reduction is a semi-tree although a, b are
        # incomparable.
        assert is_transitive_semi_tree(Digraph(arcs=[("c", "a"), ("c", "b")]))


class TestSemiTreeIndex:
    def test_rejects_non_tst(self):
        with pytest.raises(PartitionError):
            SemiTreeIndex(Digraph(arcs=[(1, 2), (1, 3), (2, 4), (3, 4)]))

    def test_critical_arcs(self):
        index = SemiTreeIndex(figure5_tst())
        assert sorted(index.critical_arcs()) == [
            ("b", "a"),
            ("c", "b"),
            ("d", "b"),
        ]
        assert index.is_critical_arc("b", "a")
        assert not index.is_critical_arc("c", "a")  # transitive arc

    def test_critical_path_unique(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.critical_path("c", "a") == ("c", "b", "a")
        assert index.critical_path("d", "a") == ("d", "b", "a")
        assert index.critical_path("a", "c") is None
        assert index.critical_path("c", "d") is None  # d is off-path
        assert index.critical_path("b", "b") == ("b",)

    def test_is_higher(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.is_higher("a", "c")   # a is read by everyone below
        assert index.is_higher("b", "c")
        assert not index.is_higher("c", "a")
        assert not index.is_higher("a", "a")

    def test_comparable(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.comparable("c", "a")
        assert index.comparable("a", "c")
        assert not index.comparable("c", "d")

    def test_undirected_critical_path(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.undirected_critical_path("c", "d") == ("c", "b", "d")
        assert index.undirected_critical_path("a", "d") == ("a", "b", "d")
        assert index.undirected_critical_path("a", "a") == ("a",)

    def test_ucp_none_across_components(self):
        g = Digraph(arcs=[(1, 2)])
        g.add_node(3)
        index = SemiTreeIndex(g)
        assert index.undirected_critical_path(1, 3) is None

    def test_path_on_one_critical_path(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.path_on_one_critical_path(["a", "b", "c"])
        assert index.path_on_one_critical_path(["a", "c"])
        assert not index.path_on_one_critical_path(["c", "d"])
        assert index.path_on_one_critical_path(["a"])
        assert index.path_on_one_critical_path([])

    def test_lowest_of(self):
        index = SemiTreeIndex(figure5_tst())
        assert index.lowest_of(["a", "b", "c"]) == "c"
        assert index.lowest_of(["a"]) == "a"
        with pytest.raises(PartitionError):
            index.lowest_of(["c", "d"])

    def test_lowest_classes(self):
        index = SemiTreeIndex(figure5_tst())
        assert sorted(index.lowest_classes()) == ["c", "d"]
