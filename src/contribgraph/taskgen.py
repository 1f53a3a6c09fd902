"""Prerequisite-prediction problem construction.

A problem pairs one target contribution with exactly 100 candidates:
its gold prerequisites (distinct precursors from the deduplicated
incoming-edge view) plus close distractors retrieved by cosine
similarity over the embedding index. Distractors are filtered so none
postdates the target year, none comes from the target's own paper, and
none comes from a paper with a direct edge to any contribution of the
target's paper. Candidates are shuffled with a per-problem seed.

Each problem reads only the target's neighbourhood of the graph: its
incoming edges and the contributions of the papers it excludes. The
filter is one boolean mask over the index rows, built from per-row
years computed once per (graph, index) pair, and the distractors come
from one exact query that selects the top rows the mask allows by a
partial selection, ties broken by ascending id.
"""
from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import jsonl
from .embedding import EmbeddingIndex
from .graph import ContributionGraph
from .model import CANDIDATES_PER_PROBLEM, ContributionNode, Problem

logger = logging.getLogger(__name__)


@dataclass
class Skip:
    """Why a target produced no problem."""

    target_id: str
    reason: str


def sample_targets(
    graph: ContributionGraph,
    years: Sequence[int],
    n_per_year: int,
    rng_seed: int,
) -> list[ContributionNode]:
    """Per year, up to n_per_year uniform draws (without replacement)
    among contributions with at least one incoming edge."""
    if not graph.nodes:
        raise ValueError("graph has no contributions to sample from")
    rng = random.Random(rng_seed)
    pools: dict[int, list[str]] = {year: [] for year in years}
    for cid in graph.dependent_ids():
        pool = pools.get(graph.year_of(cid))
        if pool is not None:
            pool.append(cid)
    targets: list[ContributionNode] = []
    for year in years:
        pool = sorted(pools[year])
        if not pool:
            logger.warning("year %d has no eligible targets", year)
            continue
        picks = rng.sample(pool, min(n_per_year, len(pool)))
        targets.extend(graph.nodes[cid] for cid in picks)
    return targets


def problem_seed(rng_seed: int, target_id: str) -> int:
    digest = hashlib.sha256(f"{rng_seed}:{target_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def excluded_papers(graph: ContributionGraph, target: ContributionNode) -> set[str]:
    """The target's own paper plus every paper with a direct edge (either
    direction) to any contribution of the target's paper."""
    target_paper = target.corpus_id
    excluded = {target_paper}
    for contribution in graph.contributions_of(target_paper):
        for edge in graph.incoming_edges(contribution.id):
            excluded.add(graph.nodes[edge.pre_id].corpus_id)
        for edge in graph.outgoing_edges(contribution.id):
            excluded.add(graph.nodes[edge.dep_id].corpus_id)
    return excluded


def index_years(graph: ContributionGraph, index: EmbeddingIndex) -> np.ndarray:
    """The year of each index row's paper, NaN where the id is absent
    from the graph or its paper has no year: NaN compares false, so such
    a row never passes a year filter."""
    years = np.full(len(index), np.nan)
    for i, cid in enumerate(index.ids):
        node = graph.nodes.get(cid)
        meta = graph.papers.get(node.corpus_id) if node is not None else None
        if meta is not None and meta.year is not None:
            years[i] = meta.year
    return years


def build_problem(
    target: ContributionNode,
    graph: ContributionGraph,
    index: EmbeddingIndex,
    row_years: np.ndarray,
    k: int = CANDIDATES_PER_PROBLEM,
    strong_only: bool = False,
    rng_seed: int = 0,
) -> Problem | Skip:
    """``row_years`` is ``index_years(graph, index)``."""
    target_year = graph.year_of(target.id)
    if target_year is None:
        return Skip(target.id, "target paper has no year")

    incoming = graph.deduplicated_edges(target.id)
    if strong_only:
        incoming = [e for e in incoming if e.match_type == "strong"]
    gold = sorted(e.pre_id for e in incoming)
    if not gold:
        return Skip(target.id, "no gold prerequisites after filtering")
    if len(gold) > k:
        return Skip(target.id, f"gold set ({len(gold)}) exceeds candidate count {k}")
    if target.id not in index:
        return Skip(target.id, "target missing from embedding index")

    need = k - len(gold)
    distractors: list[str] = []
    if need:
        eligible = row_years <= target_year
        excluded = [target.id, *gold]
        for paper in excluded_papers(graph, target):
            excluded.extend(c.id for c in graph.contributions_of(paper))
        for cid in excluded:
            row = index.position(cid)
            if row is not None:
                eligible[row] = False
        retrieved = index.cosine_top_k(index.vector(target.id), need, eligible)
        distractors = [cid for cid, _ in retrieved]
    if len(distractors) < need:
        return Skip(target.id, "insufficient candidates")

    seed = problem_seed(rng_seed, target.id)
    candidate_ids = gold + distractors
    rng = random.Random(seed)
    rng.shuffle(candidate_ids)
    candidates = [
        {
            "id": cid,
            "name": graph.nodes[cid].name,
            "description": graph.nodes[cid].description,
        }
        for cid in candidate_ids
    ]
    meta = graph.papers[target.corpus_id]
    return Problem(
        problem_id=target.id,
        target_id=target.id,
        target_name=target.name,
        target_description=target.description,
        target_year=target_year,
        target_date=meta.date,
        candidates=candidates,
        gold_ids=set(gold),
        seed=seed,
    )


@dataclass
class GenerationResult:
    problems: list[Problem] = field(default_factory=list)
    skips: list[Skip] = field(default_factory=list)


def generate_problems(
    graph: ContributionGraph,
    index: EmbeddingIndex,
    years: Sequence[int],
    n_per_year: int,
    rng_seed: int,
    strong_only: bool = False,
    k: int = CANDIDATES_PER_PROBLEM,
) -> GenerationResult:
    result = GenerationResult()
    row_years = index_years(graph, index)
    for target in sample_targets(graph, years, n_per_year, rng_seed):
        built = build_problem(
            target, graph, index, row_years, k=k, strong_only=strong_only, rng_seed=rng_seed
        )
        if isinstance(built, Skip):
            logger.warning("skipped %s: %s", built.target_id, built.reason)
            result.skips.append(built)
        else:
            result.problems.append(built)
    return result


def write_problems(path: str | Path, problems: Iterable[Problem]) -> None:
    jsonl.write_jsonl(path, (p.to_json() for p in problems))


def write_manifest(
    path: str | Path,
    graph: ContributionGraph,
    years: Sequence[int],
    n_per_year: int,
    rng_seed: int,
    strong_only: bool,
    k: int,
    result: GenerationResult,
) -> None:
    manifest = {
        "seed": rng_seed,
        "years": list(years),
        "n_per_year": n_per_year,
        "strong_only": strong_only,
        "candidates_per_problem": k,
        "problems": len(result.problems),
        "skipped": len(result.skips),
        "graph_hash": graph.graph_hash(),
    }
    jsonl.write_chunks(path, [(json.dumps(manifest, indent=2) + "\n").encode("utf-8")])
