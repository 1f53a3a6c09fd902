"""Precursor and impact trees for roadmap display.

Both directions are visited-set BFS (extraction noise can create
cycles), pruned to a tree: a node appears once, at its first
discovery, with ties broken by ascending id. Impact trees keep only
the top-k children per node ranked by out-degree and fold the rest
into a hidden count, so shown + hidden always equals the node's true
distinct child count in the graph.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .graph import ContributionGraph


@dataclass
class TreeNode:
    id: str
    name: str
    title: str
    depth: int
    children: list["TreeNode"] = field(default_factory=list)
    hidden_count: int = 0


@dataclass
class Tree:
    root: TreeNode
    direction: str  # "pre" (precursors) or "post" (impact)
    max_depth: int


def _make_node(graph: ContributionGraph, cid: str, depth: int) -> TreeNode:
    contribution = graph.get_contribution(cid)
    meta = graph.papers.get(contribution.corpus_id)
    return TreeNode(
        id=cid,
        name=contribution.name,
        title=meta.title if meta else "",
        depth=depth,
    )


def precursor_tree(graph: ContributionGraph, root_id: str, max_depth: int) -> Tree:
    """Backward expansion along incoming edges, up to max_depth."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    root = _make_node(graph, root_id, 0)
    visited = {root_id}
    queue: deque[TreeNode] = deque([root])
    while queue:
        node = queue.popleft()
        if node.depth >= max_depth:
            continue
        precursors = sorted({e.pre_id for e in graph.incoming_edges(node.id)})
        for pre_id in precursors:
            if pre_id in visited:
                continue  # cross-edge between non-root nodes, dropped
            visited.add(pre_id)
            child = _make_node(graph, pre_id, node.depth + 1)
            node.children.append(child)
            queue.append(child)
    return Tree(root=root, direction="pre", max_depth=max_depth)


def impact_tree(
    graph: ContributionGraph,
    root_id: str,
    max_depth: int,
    top_k_children: int,
) -> Tree:
    """Forward expansion along outgoing edges, keeping the top-k most
    linked children per node and folding the rest into hidden counts."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if top_k_children < 1:
        raise ValueError("top_k_children must be >= 1")
    root = _make_node(graph, root_id, 0)
    visited = {root_id}
    queue: deque[TreeNode] = deque([root])
    while queue:
        node = queue.popleft()
        dependents = sorted({e.dep_id for e in graph.outgoing_edges(node.id)})
        if node.depth >= max_depth:
            node.hidden_count = len(dependents)
            continue
        eligible = [d for d in dependents if d not in visited]
        eligible.sort(key=lambda d: (-len({e.dep_id for e in graph.outgoing_edges(d)}), d))
        shown = eligible[:top_k_children]
        node.hidden_count = len(dependents) - len(shown)
        for dep_id in shown:
            visited.add(dep_id)
            child = _make_node(graph, dep_id, node.depth + 1)
            node.children.append(child)
            queue.append(child)
    return Tree(root=root, direction="post", max_depth=max_depth)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(tree: Tree) -> str:
    """Deterministic DOT rendering.

    Node labels show the contribution name and source-paper title;
    hidden counts render as box-shaped nodes. Edges point child-to-
    parent for precursor trees (precursor into dependent) and parent-
    to-child for impact trees.
    """
    lines = ["digraph roadmap {"]
    lines.append('  rankdir="BT";' if tree.direction == "pre" else '  rankdir="TB";')
    order: list[TreeNode] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(node.children))
    for node in order:
        label = _dot_escape(node.name) + "\\n" + _dot_escape(node.title)
        lines.append(f'  "{node.id}" [label="{label}"];')
        if node.hidden_count > 0:
            lines.append(
                f'  "{node.id}.hidden" [label="{node.hidden_count} hidden", shape=box];'
            )
    for node in order:
        for child in node.children:
            if tree.direction == "pre":
                lines.append(f'  "{child.id}" -> "{node.id}";')
            else:
                lines.append(f'  "{node.id}" -> "{child.id}";')
        if node.hidden_count > 0:
            if tree.direction == "pre":
                lines.append(f'  "{node.id}.hidden" -> "{node.id}";')
            else:
                lines.append(f'  "{node.id}" -> "{node.id}.hidden";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(tree: Tree) -> dict[str, Any]:
    def node_json(node: TreeNode) -> dict[str, Any]:
        return {
            "id": node.id,
            "name": node.name,
            "title": node.title,
            "children": [node_json(c) for c in node.children],
            "hidden_count": node.hidden_count,
        }

    return {"direction": tree.direction, "max_depth": tree.max_depth, "root": node_json(tree.root)}
