from __future__ import annotations

import numpy as np
import pytest

from contribgraph.embedding import EmbeddingIndex, MockEmbeddingProvider, build_index
from contribgraph.errors import RecordValidationError
from contribgraph.evaluation import read_problems
from contribgraph.graph import ContributionGraph
from contribgraph.taskgen import (
    Problem,
    Skip,
    build_problem,
    generate_problems,
    index_years,
    sample_targets,
    write_problems,
)

from conftest import build_synthetic_graph, citation
from oracles import contributions_of_scan, deduplicated_edges_scan, taskgen_candidates_brute


@pytest.fixture(scope="module")
def big_graph():
    return build_synthetic_graph(n_papers=160, seed=20240901)


@pytest.fixture(scope="module")
def big_index(big_graph):
    return build_index(big_graph, MockEmbeddingProvider(dim=16))


class TestSampleTargets:
    def test_deterministic(self, big_graph):
        a = sample_targets(big_graph, range(2021, 2026), 10, rng_seed=5)
        b = sample_targets(big_graph, range(2021, 2026), 10, rng_seed=5)
        assert [c.id for c in a] == [c.id for c in b]
        assert a, "expected at least one eligible target"

    def test_different_seed_differs(self, big_graph):
        a = sample_targets(big_graph, range(2021, 2026), 10, rng_seed=5)
        b = sample_targets(big_graph, range(2021, 2026), 10, rng_seed=6)
        assert [c.id for c in a] != [c.id for c in b]

    def test_all_targets_have_incoming_edges_and_matching_year(self, big_graph):
        for target in sample_targets(big_graph, [2022, 2023], 15, rng_seed=1):
            assert big_graph.incoming_edges(target.id)
            assert big_graph.year_of(target.id) in (2022, 2023)

    def test_per_year_cap(self, big_graph):
        targets = sample_targets(big_graph, [2022], 3, rng_seed=1)
        assert len(targets) == 3

    def test_year_without_targets_warns(self, big_graph, caplog):
        with caplog.at_level("WARNING"):
            targets = sample_targets(big_graph, [1980], 5, rng_seed=1)
        assert targets == []
        assert any("no eligible targets" in r.message for r in caplog.records)

    def test_no_incoming_edges_anywhere(self, caplog):
        graph = ContributionGraph()
        graph.add_paper_record(
            {
                "corpus_id": "1",
                "title": "t",
                "year": 2022,
                "contributions": [
                    {
                        "contribution_id": "1.c0",
                        "name": "n",
                        "description": "d",
                        "types": [],
                        "sections": [],
                        "prerequisites": [],
                    }
                ],
            }
        )
        with caplog.at_level("WARNING"):
            assert sample_targets(graph, [2022], 5, rng_seed=0) == []

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            sample_targets(ContributionGraph(), [2022], 5, rng_seed=0)


class TestBuildProblem:
    def _problems(self, big_graph, big_index, n=60, strong_only=False):
        problems = []
        for target in sample_targets(big_graph, range(2019, 2026), 20, rng_seed=9):
            built = build_problem(
                target, big_graph, big_index, index_years(big_graph, big_index),
                strong_only=strong_only, rng_seed=9,
            )
            if isinstance(built, Problem):
                problems.append(built)
            if len(problems) >= n:
                break
        return problems

    def test_exactly_100_unique_candidates_with_gold(self, big_graph, big_index):
        problems = self._problems(big_graph, big_index)
        assert len(problems) >= 50
        for problem in problems:
            ids = problem.candidate_ids
            assert len(ids) == 100
            assert len(set(ids)) == 100
            assert problem.gold_ids
            assert problem.gold_ids <= set(ids)

    def test_temporal_soundness(self, big_graph, big_index):
        for problem in self._problems(big_graph, big_index):
            for cid in problem.candidate_ids:
                assert big_graph.year_of(cid) <= problem.target_year

    def test_exclusion_soundness(self, big_graph, big_index):
        for problem in self._problems(big_graph, big_index):
            target_paper = problem.target_id.rsplit(".c", 1)[0]
            target_nodes = {
                c.id for c in big_graph.contributions_of(target_paper)
            }
            for cid in problem.candidate_ids:
                if cid in problem.gold_ids:
                    continue
                paper = cid.rsplit(".c", 1)[0]
                assert paper != target_paper
                for edge in big_graph.edges:
                    touches_candidate_paper = (
                        edge.pre_id.rsplit(".c", 1)[0] == paper
                        or edge.dep_id.rsplit(".c", 1)[0] == paper
                    )
                    if touches_candidate_paper:
                        assert not (
                            edge.pre_id in target_nodes or edge.dep_id in target_nodes
                        ), f"distractor paper {paper} has an edge to the target paper"

    def test_brute_force_candidate_oracle(self, big_graph, big_index):
        problems = self._problems(big_graph, big_index, n=50)
        assert len(problems) >= 50
        for problem in problems:
            expected = taskgen_candidates_brute(problem, big_graph, big_index)
            assert set(problem.candidate_ids) == expected

    def test_gold_from_dedup_view_and_strong_only(self, big_graph, big_index):
        strong = {p.problem_id: p for p in self._problems(big_graph, big_index, strong_only=True)}
        for problem in strong.values():
            for gold in problem.gold_ids:
                types = {
                    e.match_type
                    for e in big_graph.incoming_edges(problem.target_id)
                    if e.pre_id == gold
                }
                assert "strong" in types

    def test_candidate_order_is_seeded_shuffle(self, big_graph, big_index):
        problem = self._problems(big_graph, big_index, n=1)[0]
        # Shuffled (not sorted, not grouped by gold) and reproducible.
        ids = problem.candidate_ids
        assert ids != sorted(ids)
        gold_positions = [i for i, cid in enumerate(ids) if cid in problem.gold_ids]
        assert gold_positions != list(range(len(gold_positions)))
        again = build_problem(
            big_graph.get_contribution(problem.target_id),
            big_graph,
            big_index,
            index_years(big_graph, big_index),
            rng_seed=9,
        )
        assert again.candidate_ids == ids
        assert again.seed == problem.seed

    def test_skip_when_no_gold(self, big_graph, big_index):
        isolated = next(
            cid for cid in big_graph.nodes if not big_graph.incoming_edges(cid)
        )
        built = build_problem(
            big_graph.get_contribution(isolated), big_graph, big_index,
            index_years(big_graph, big_index),
        )
        assert isinstance(built, Skip)
        assert "no gold" in built.reason

    def test_skip_when_insufficient_candidates(self):
        graph = build_synthetic_graph(n_papers=6, seed=4)
        index = build_index(graph, MockEmbeddingProvider(dim=8))
        target_id = next(cid for cid in graph.nodes if graph.incoming_edges(cid))
        built = build_problem(
            graph.get_contribution(target_id), graph, index, index_years(graph, index)
        )
        assert isinstance(built, Skip)
        assert built.reason == "insufficient candidates"

    def test_target_distractor_year_boundary(self):
        # A 2024 target must never pick the 2025 distractor even though
        # it is the nearest neighbor by construction.
        graph = ContributionGraph()

        def add(corpus, year, name, prerequisites=()):
            graph.add_paper_record(
                {
                    "corpus_id": corpus,
                    "title": f"paper {corpus}",
                    "year": year,
                    "contributions": [
                        {
                            "contribution_id": f"{corpus}.c0",
                            "name": name,
                            "description": f"{name} description",
                            "types": [],
                            "sections": [],
                            "prerequisites": list(prerequisites),
                        }
                    ],
                }
            )

        add("t", 2024, "target tech", [citation("g.c0")])
        add("g", 2020, "gold tech")
        for i in range(6):
            add(f"d{i}", 2021 + (i % 3), f"distractor {i}")
        add("late", 2025, "future tech")
        index = build_index(graph, MockEmbeddingProvider(dim=8))
        built = build_problem(
            graph.get_contribution("t.c0"), graph, index, index_years(graph, index), k=7
        )
        assert isinstance(built, Problem)
        assert "late.c0" not in built.candidate_ids
        assert set(built.candidate_ids) == {"g.c0"} | {f"d{i}.c0" for i in range(6)}


def one_paper(corpus: str, year, n: int = 1) -> dict:
    return {
        "corpus_id": corpus,
        "title": f"paper {corpus}",
        "year": year,
        "contributions": [
            {
                "contribution_id": f"{corpus}.c{i}",
                "name": f"{corpus} tech {i}",
                "description": f"{corpus} tech {i} description",
                "types": [],
                "sections": [],
                "prerequisites": [],
            }
            for i in range(n)
        ],
    }


class TestBuildProblemEdgeCases:
    """A hand-made graph and index, checked against the brute-force oracle."""

    @pytest.fixture()
    def case(self):
        prerequisites = {
            "t.c0": [
                citation("g.c0", "weak"), citation("g.c0", "strong"),  # one pair, both kinds
                citation("g.c1", "strong"), citation("w.c0", "weak"),
            ],
            "t.c1": [citation("nb.c0", "strong")],
            "out.c0": [citation("t.c0", "strong")],
        }
        graph = ContributionGraph()
        for corpus, year, n in [
            ("t", 2024, 2), ("g", 2020, 2), ("w", 2019, 1), ("nb", 2022, 1),
            ("out", 2024, 1), ("noyear", None, 1), ("late", 2025, 1),
        ] + [(f"d{i}", 2021 + i % 3, 1) for i in range(6)]:
            record = one_paper(corpus, year, n)
            for c in record["contributions"]:
                c["prerequisites"] = prerequisites.get(c["contribution_id"], [])
            graph.add_paper_record(record)
        near, tied = [1, 0, 0, 0], [1, 1, 0, 0]
        vectors = {
            "t.c0": near, "t.c1": near, "g.c0": near, "g.c1": near, "w.c0": near,
            "nb.c0": near, "out.c0": near, "noyear.c0": near, "late.c0": near,
            "ghost.c0": near, "d0.c7": near,  # ids absent from the graph
            "d4.c0": [2, 0, 0, 0], "d5.c0": [0, 1, 0, 0],
            **{f"d{i}.c0": tied for i in range(4)},  # tie at 1/sqrt(2)
        }
        ids = sorted(vectors, reverse=True)  # stored out of sorted order
        index = EmbeddingIndex(ids, np.array([vectors[c] for c in ids], dtype=np.float32))
        return graph, index

    def build(self, case, k, strong_only=False):
        graph, index = case
        built = build_problem(
            graph.get_contribution("t.c0"), graph, index, index_years(graph, index),
            k=k, strong_only=strong_only,
        )
        if isinstance(built, Problem):
            assert set(built.candidate_ids) == taskgen_candidates_brute(
                built, graph, index, strong_only=strong_only
            )
        return built

    def test_tie_at_the_cut_breaks_by_id(self, case):
        built = self.build(case, k=6)
        assert built.gold_ids == {"g.c0", "g.c1", "w.c0"}
        # d4 scores 1; d0-d3 tie below it and the cut keeps d0 and d1. The
        # absent ids, the year-less and later papers, and the papers with an
        # edge to the target's paper score 1 but are never candidates.
        assert set(built.candidate_ids) == built.gold_ids | {"d4.c0", "d0.c0", "d1.c0"}

    def test_strong_only_keeps_a_pair_with_a_strong_and_a_weak_edge(self, case):
        built = self.build(case, k=5, strong_only=True)
        assert built.gold_ids == {"g.c0", "g.c1"}
        assert set(built.candidate_ids) == {"g.c0", "g.c1", "d4.c0", "d0.c0", "d1.c0"}

    def test_gold_fills_every_candidate(self, case):
        built = self.build(case, k=3)
        assert sorted(built.candidate_ids) == ["g.c0", "g.c1", "w.c0"]
        assert self.build(case, k=2, strong_only=True).gold_ids == {"g.c0", "g.c1"}

    def test_every_eligible_row_then_too_few(self, case):
        built = self.build(case, k=9)
        assert set(built.candidate_ids) == built.gold_ids | {f"d{i}.c0" for i in range(6)}
        assert self.build(case, k=10) == Skip("t.c0", "insufficient candidates")


class TestNeighbourhoodLookups:
    """Per-paper and per-target lookups equal a scan of the whole graph."""

    @staticmethod
    def assert_match_scans(graph):
        for corpus_id in graph.papers:
            assert graph.contributions_of(corpus_id) == tuple(contributions_of_scan(graph, corpus_id))
        for cid in graph.nodes:
            assert graph.deduplicated_edges(cid) == deduplicated_edges_scan(graph, cid)

    def test_after_load(self, golden_graph, tmp_path):
        golden_graph.save(tmp_path)
        loaded = ContributionGraph.load(tmp_path)
        assert any(loaded.deduplicated_edges(cid) for cid in loaded.nodes)
        self.assert_match_scans(loaded)

    def test_after_a_rejected_record(self, golden_graph):
        record = one_paper("777", 2024, 2)
        prereq = {
            "name": "p", "description": "d", "explanation": "e", "core_or_peripheral": "core",
            "references": [{"type": "internal", "contribution_id": "777.c1", "explanation": "x"},
                           {"type": "internal", "contribution_id": "777.c0", "explanation": "x"}],
        }
        record["contributions"][0]["prerequisites"] = [prereq]
        with pytest.raises(RecordValidationError, match="itself"):
            golden_graph.add_paper_record(record)
        assert golden_graph.contributions_of("777") == ()
        self.assert_match_scans(golden_graph)


class TestGenerateAndPersist:
    def test_problems_file_byte_deterministic(self, big_graph, big_index, tmp_path):
        result_a = generate_problems(big_graph, big_index, [2022, 2023], 10, rng_seed=3)
        result_b = generate_problems(big_graph, big_index, [2022, 2023], 10, rng_seed=3)
        write_problems(tmp_path / "a.jsonl", result_a.problems)
        write_problems(tmp_path / "b.jsonl", result_b.problems)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_round_trip(self, big_graph, big_index, tmp_path):
        result = generate_problems(big_graph, big_index, [2022], 5, rng_seed=3)
        path = tmp_path / "problems.jsonl"
        write_problems(path, result.problems)
        loaded = read_problems(path)
        assert [p.to_json() for p in loaded] == [p.to_json() for p in result.problems]

    def test_problem_json_fields(self, big_graph, big_index):
        result = generate_problems(big_graph, big_index, [2022], 2, rng_seed=3)
        obj = result.problems[0].to_json()
        assert set(obj) == {"problem_id", "target", "candidates", "gold_ids", "seed"}
        assert set(obj["target"]) >= {"id", "name", "description", "year"}
        assert all(set(c) == {"id", "name", "description"} for c in obj["candidates"])
        assert obj["gold_ids"] == sorted(obj["gold_ids"])
