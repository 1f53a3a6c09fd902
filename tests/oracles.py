"""Independent oracles used by the unit and acceptance tests.

Every function here recomputes an expected value through a different
path than the implementation under test: direct definitions, brute
force, closed forms, or full scans. Keep these free of imports from
the code paths they check (graph/index objects are only read).
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

import numpy as np


# ----------------------------------------------------------------------
# Average precision
# ----------------------------------------------------------------------


def ap_direct(ranked, gold) -> float:
    """AP by the definition: mean over gold of precision at its rank,
    where precision is recounted from the prefix each time."""
    gold = set(gold)
    precisions = []
    for rank in range(1, len(ranked) + 1):
        if ranked[rank - 1] in gold:
            hits = sum(1 for x in ranked[:rank] if x in gold)
            precisions.append(Fraction(hits, rank))
    return float(sum(precisions) / len(gold))


def expected_ap_random(n: int, g: int) -> float:
    """Closed-form E[AP] under a uniformly random ranking of n items
    with g gold, via the order statistics of the gold ranks."""
    total = Fraction(0)
    denom = comb(n, g)
    for k in range(1, g + 1):
        for r in range(k, n - g + k + 1):
            weight = Fraction(comb(r - 1, k - 1) * comb(n - r, g - k), denom)
            total += Fraction(k, r) * weight
    return float(total / g)


# ----------------------------------------------------------------------
# Cosine retrieval
# ----------------------------------------------------------------------


def cosine_scores_brute(ids, matrix, query) -> dict[str, float]:
    """Per-entry cosine with row-wise dots (no vectorized matmul)."""
    query = np.asarray(query, dtype=np.float64)
    qnorm = float(np.linalg.norm(query))
    scores = {}
    for i, cid in enumerate(ids):
        row = np.asarray(matrix[i], dtype=np.float64)
        norm = float(np.linalg.norm(row))
        if qnorm == 0.0 or norm == 0.0:
            scores[cid] = 0.0
        else:
            scores[cid] = min(1.0, max(-1.0, float(np.dot(row, query)) / (norm * qnorm)))
    return scores


def top_k_brute(ids, matrix, query, k):
    pool = list(cosine_scores_brute(ids, matrix, query).items())
    pool.sort(key=lambda item: (-item[1], item[0]))
    return pool[:k]


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------


def bfs_levels(neighbors: dict[str, list[str]], root: str, max_depth: int) -> dict[str, int]:
    """Visited-set BFS giving each reachable node its first-discovery
    depth, expanding neighbor lists in ascending order."""
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            if depth[node] >= max_depth:
                continue
            for peer in sorted(set(neighbors.get(node, []))):
                if peer not in depth:
                    depth[peer] = depth[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return depth


# ----------------------------------------------------------------------
# Frontier
# ----------------------------------------------------------------------


def select_batch_brute(histogram: dict[str, int], available, k: int) -> list[str]:
    """Sort the whole histogram, then filter, then cut."""
    full = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [key for key, _ in full if available(key)]
    return kept[:k]


# ----------------------------------------------------------------------
# Task generation
# ----------------------------------------------------------------------


def taskgen_candidates_brute(problem, graph, index, strong_only=False):
    """Re-derive a problem's candidate id set from scratch.

    Gold: distinct precursors of the target over the deduplicated edge
    view. Distractors: full scan of the index, applying (a) not the
    target, (b) not gold, (c) in the graph, (d) no later year and no
    missing year, (e) no paper with a direct edge to the target's paper
    (own paper included), ranked by cosine similarity to the target
    vector with ascending-id tie-breaks.
    """
    target_id = problem.target_id
    target_paper = target_id.rsplit(".c", 1)[0]
    target_year = graph.papers[target_paper].year

    best = {}
    for edge in graph.edges:
        key = (edge.pre_id, edge.dep_id)
        if key not in best or (best[key] == "weak" and edge.match_type == "strong"):
            best[key] = edge.match_type
    gold = {
        pre
        for (pre, dep), match_type in best.items()
        if dep == target_id and (match_type == "strong" or not strong_only)
    }

    paper_of = lambda cid: cid.rsplit(".c", 1)[0]  # noqa: E731
    target_paper_nodes = {cid for cid in graph.nodes if paper_of(cid) == target_paper}
    banned = {target_paper}
    for edge in graph.edges:
        if edge.pre_id in target_paper_nodes:
            banned.add(paper_of(edge.dep_id))
        if edge.dep_id in target_paper_nodes:
            banned.add(paper_of(edge.pre_id))

    scores = cosine_scores_brute(index.ids, index.matrix, index.vector(target_id))
    eligible = []
    for cid in index.ids:
        if cid == target_id or cid in gold or cid not in graph.nodes:
            continue
        if paper_of(cid) in banned:
            continue
        year = graph.papers[paper_of(cid)].year
        if year is None or year > target_year:
            continue
        eligible.append(cid)
    eligible.sort(key=lambda cid: (-scores[cid], cid))
    need = len(problem.candidates) - len(gold)
    return gold | set(eligible[:need])


def contributions_of_scan(graph, corpus_id):
    """A paper's contributions by a scan of every node, ordered by index."""
    found = [node for cid, node in graph.nodes.items() if cid.rsplit(".c", 1)[0] == corpus_id]
    return sorted(found, key=lambda node: int(node.id.rsplit(".c", 1)[1]))


def deduplicated_edges_scan(graph, dep_id):
    """The incoming edges of dep_id by a scan of every edge: one per
    precursor, in order of first appearance, strong beating weak."""
    best = {}
    for edge in graph.edges:
        if edge.dep_id != dep_id:
            continue
        kept = best.get(edge.pre_id)
        if kept is None or (kept.match_type == "weak" and edge.match_type == "strong"):
            best[edge.pre_id] = edge
    return list(best.values())


# ----------------------------------------------------------------------
# Backtesting split
# ----------------------------------------------------------------------


def split_brute(problems, cutoff_year, cutoff_month):
    """Classify each problem by direct date comparison."""
    out = {"pre": [], "post": [], "discarded": []}
    for problem in problems:
        date = problem.target_date
        if date is not None and date.month is not None and cutoff_month is not None:
            if (date.year, date.month) <= (cutoff_year, cutoff_month):
                out["pre"].append(problem.problem_id)
            else:
                out["post"].append(problem.problem_id)
        else:
            year = date.year if date is not None else problem.target_year
            if year == cutoff_year:
                out["discarded"].append(problem.problem_id)
            elif year < cutoff_year:
                out["pre"].append(problem.problem_id)
            else:
                out["post"].append(problem.problem_id)
    return out


# ----------------------------------------------------------------------
# Store views
# ----------------------------------------------------------------------


def node_lines_fresh(graph) -> bytes:
    """nodes.jsonl with each row built as a dict and encoded whole: the
    contribution's fields, then its paper's corpus id, title and year,
    then its date and venue when known; records in the order applied."""
    lines = []
    for record in graph.records():
        meta = graph.papers[record.corpus_id]
        for contribution in record.contributions:
            row = contribution.to_json()
            row["corpus_id"] = meta.corpus_id
            row["title"] = meta.title
            row["year"] = meta.year
            if meta.date is not None:
                row["date"] = meta.date.to_json()
            if meta.venue is not None:
                row["venue"] = meta.venue
            lines.append(json.dumps(row, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


# ----------------------------------------------------------------------
# Random structures
# ----------------------------------------------------------------------


def random_histogram(rng: random.Random, n_keys: int) -> dict[str, int]:
    return {f"k{idx:03d}": rng.randint(1, 50) for idx in range(n_keys)}
