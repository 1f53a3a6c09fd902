from __future__ import annotations

import random

import pytest

from contribgraph.errors import UnknownIdError
from contribgraph.graph import ContributionGraph
from contribgraph.roadmap import export_dot, export_json, impact_tree, precursor_tree

from conftest import DATA_DIR
from oracles import bfs_levels


def dag(n_nodes: int, edges=()) -> ContributionGraph:
    """All nodes in one synthetic paper; each (pre, dep) index pair in
    ``edges`` is an internal reference of dag.c<dep> to dag.c<pre>, which
    makes the edge."""
    prerequisites: dict[int, list] = {i: [] for i in range(n_nodes)}
    for pre, dep in edges:
        reference = {"type": "internal", "contribution_id": f"dag.c{pre}"}
        prerequisites[dep].append(
            {"name": f"node {pre}", "description": "d", "core_or_peripheral": "core",
             "references": [reference]}
        )
    graph = ContributionGraph()
    graph.add_paper_record(
        {
            "corpus_id": "dag",
            "title": "synthetic dag",
            "year": 2020,
            "contributions": [
                {"contribution_id": f"dag.c{i}", "name": f"node {i}", "description": "d",
                 "prerequisites": prerequisites[i]}
                for i in range(n_nodes)
            ],
        }
    )
    return graph


def random_dag(n_nodes=50, seed=0, edge_prob=0.08) -> ContributionGraph:
    """Edges always point from lower to higher index, so the graph is
    acyclic by construction."""
    rng = random.Random(seed)
    return dag(n_nodes, [
        (pre, dep)
        for pre in range(n_nodes)
        for dep in range(pre + 1, n_nodes)
        if rng.random() < edge_prob
    ])


def tree_nodes(tree):
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def assert_tree_shape(tree):
    nodes = tree_nodes(tree)
    ids = [n.id for n in nodes]
    assert len(ids) == len(set(ids)), "a node appears twice"
    edge_count = sum(len(n.children) for n in nodes)
    assert edge_count == len(nodes) - 1
    for node in nodes:
        assert node.depth <= tree.max_depth
        for child in node.children:
            assert child.depth == node.depth + 1


class TestPrecursorTree:
    def test_isolated_node(self, golden_graph):
        tree = precursor_tree(golden_graph, "52967399.c5", 3)
        assert tree.root.id == "52967399.c5"
        assert tree.root.children == []

    def test_unknown_root(self, golden_graph):
        with pytest.raises(UnknownIdError):
            precursor_tree(golden_graph, "ghost.c0", 2)

    def test_bert_depth_one_children(self, golden_graph):
        tree = precursor_tree(golden_graph, "52967399.c0", 1)
        children = {c.id for c in tree.root.children}
        assert "13756489.c0" in children
        assert "52967399.c1" in children  # internal MLM node
        assert all(c.depth == 1 for c in tree.root.children)

    def test_depth_zero_is_root_only(self, golden_graph):
        tree = precursor_tree(golden_graph, "52967399.c0", 0)
        assert tree.root.children == []

    def test_random_dags_match_bfs_oracle(self):
        for seed in range(10):
            graph = random_dag(n_nodes=50, seed=seed)
            root = f"dag.c{random.Random(seed).randint(25, 49)}"
            max_depth = random.Random(seed + 1).randint(1, 4)
            tree = precursor_tree(graph, root, max_depth)
            assert_tree_shape(tree)
            incoming = {}
            for edge in graph.edges:
                incoming.setdefault(edge.dep_id, []).append(edge.pre_id)
            want = bfs_levels(incoming, root, max_depth)
            got = {n.id: n.depth for n in tree_nodes(tree)}
            assert got == want

    def test_cycle_safety(self):
        # dag.c0's reference to dag.c2 closes a cycle: extraction noise.
        graph = dag(3, [(0, 1), (1, 2), (2, 0)])
        tree = precursor_tree(graph, "dag.c0", 10)
        assert_tree_shape(tree)
        assert {n.id for n in tree_nodes(tree)} == {"dag.c0", "dag.c2", "dag.c1"}


class TestImpactTree:
    def test_few_children_all_shown(self):
        graph = dag(4, [(0, i) for i in (1, 2, 3)])
        tree = impact_tree(graph, "dag.c0", 2, top_k_children=5)
        assert len(tree.root.children) == 3
        assert tree.root.hidden_count == 0

    def test_overflow_children_folded(self):
        graph = dag(8, [(0, i) for i in range(1, 8)])
        tree = impact_tree(graph, "dag.c0", 2, top_k_children=5)
        assert len(tree.root.children) == 5
        assert tree.root.hidden_count == 2

    def test_children_ranked_by_out_degree(self):
        # c2 has the larger downstream fan-out, so it ranks first.
        graph = dag(10, [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (1, 6)])
        tree = impact_tree(graph, "dag.c0", 1, top_k_children=1)
        assert [c.id for c in tree.root.children] == ["dag.c2"]
        assert tree.root.hidden_count == 1

    def test_shown_plus_hidden_equals_child_count_everywhere(self):
        for seed in range(10):
            graph = random_dag(n_nodes=40, seed=seed, edge_prob=0.1)
            tree = impact_tree(graph, "dag.c0", 3, top_k_children=3)
            assert_tree_shape(tree)
            outgoing = {}
            for edge in graph.edges:
                outgoing.setdefault(edge.pre_id, set()).add(edge.dep_id)
            for node in tree_nodes(tree):
                total = len(outgoing.get(node.id, set()))
                assert len(node.children) + node.hidden_count == total

    def test_depth_limited_nodes_fold_everything(self):
        graph = dag(5, [(0, 1), (1, 2)])
        tree = impact_tree(graph, "dag.c0", 1, top_k_children=5)
        leaf = tree.root.children[0]
        assert leaf.children == []
        assert leaf.hidden_count == 1


class TestExportDot:
    def test_single_node(self, golden_graph):
        dot = export_dot(precursor_tree(golden_graph, "52967399.c5", 3))
        assert dot.startswith("digraph roadmap {")
        assert dot.count("->") == 0
        assert '"52967399.c5"' in dot

    def test_precursor_orientation_child_to_parent(self):
        graph = dag(2, [(0, 1)])
        dot = export_dot(precursor_tree(graph, "dag.c1", 1))
        assert '"dag.c0" -> "dag.c1";' in dot

    def test_impact_orientation_parent_to_child(self):
        graph = dag(2, [(0, 1)])
        dot = export_dot(impact_tree(graph, "dag.c0", 1, top_k_children=3))
        assert '"dag.c0" -> "dag.c1";' in dot

    def test_hidden_counts_render_as_boxes(self):
        graph = dag(8, [(0, i) for i in range(1, 8)])
        dot = export_dot(impact_tree(graph, "dag.c0", 1, top_k_children=5))
        assert '"dag.c0.hidden" [label="2 hidden", shape=box];' in dot

    def test_golden_file(self, golden_graph):
        dot = export_dot(precursor_tree(golden_graph, "52967399.c0", 3))
        golden = (DATA_DIR / "golden_tree.dot").read_text(encoding="utf-8")
        assert dot == golden

    def test_byte_identical_across_runs(self, golden_graph):
        a = export_dot(precursor_tree(golden_graph, "52967399.c0", 3))
        b = export_dot(precursor_tree(golden_graph, "52967399.c0", 3))
        assert a == b

    def test_label_escaping(self):
        graph = ContributionGraph()
        graph.add_paper_record(
            {
                "corpus_id": "q",
                "title": 'A "quoted" title',
                "year": 2020,
                "contributions": [
                    {
                        "contribution_id": "q.c0",
                        "name": 'say "hi" \\ bye',
                        "description": "d",
                        "types": [],
                        "sections": [],
                        "prerequisites": [],
                    }
                ],
            }
        )
        dot = export_dot(precursor_tree(graph, "q.c0", 1))
        assert '\\"hi\\"' in dot
        assert "\\\\ bye" in dot


class TestExportJson:
    def test_mirror_fields(self, golden_graph):
        obj = export_json(precursor_tree(golden_graph, "52967399.c0", 1))
        assert obj["direction"] == "pre"
        root = obj["root"]
        assert set(root) == {"id", "name", "title", "children", "hidden_count"}
        assert root["id"] == "52967399.c0"
        assert len(root["children"]) == 10
