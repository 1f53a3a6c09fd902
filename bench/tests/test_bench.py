"""Tests of the benchmark itself: generators, stub model, oracles, checks.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "bench"), str(REPO / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
from contribgraph.backends import GenerationBackend  # noqa: E402
from contribgraph.graph import ContributionGraph  # noqa: E402
from contribgraph.model import PaperMeta  # noqa: E402
from contribgraph.pipeline import PaperInput, Pipeline, parse_fenced_json  # noqa: E402


def _crawl(seed: int, root: Path):
    corpus = gen.crawl_corpus(seed, root, n_papers=40, seed_batch=5)
    texts = {p.name: p.read_bytes() for p in sorted((root / "texts").iterdir())}
    return corpus.papers, corpus.newest, texts


def test_generators_are_deterministic_per_seed(tmp_path):
    assert _crawl(7, tmp_path / "a") == _crawl(7, tmp_path / "b")
    assert _crawl(7, tmp_path / "a")[0] != _crawl(8, tmp_path / "c")[0]

    a = gen.ingest_corpus(7, tmp_path / "ia", n_records=60)
    b = gen.ingest_corpus(7, tmp_path / "ib", n_records=60)
    assert a.records_path.read_bytes() == b.records_path.read_bytes()
    assert (a.edges, a.unresolved, a.unresolved_added, a.histogram) == (
        b.edges, b.unresolved, b.unresolved_added, b.histogram
    )

    a = gen.backtest_corpus(7, tmp_path / "ba", n_papers=200)
    b = gen.backtest_corpus(7, tmp_path / "bb", n_papers=200)
    c = gen.backtest_corpus(8, tmp_path / "bc", n_papers=200)
    assert a.records_path.read_bytes() == b.records_path.read_bytes()
    assert a.edges == b.edges and a.edges != c.edges


class StubBackend(GenerationBackend):
    """The stub model called in process, for pipeline-level tests."""

    name = "stub"

    def generate(self, prompt, temperature=0.0, max_output_tokens=None):
        self._account(len(prompt) // 4, 0, 0.0)
        return stub.answer(prompt)


def _extract(corpus, batch: list[str], parallel: int, records: Path) -> ContributionGraph:
    graph = ContributionGraph()
    papers = []
    for corpus_id in batch:
        spec = corpus.papers[corpus_id]
        graph.register_paper(PaperMeta(corpus_id=corpus_id, title=spec["title"], year=spec["year"]))
        text = Path(next(row for row in map(json.loads, corpus.catalog_path.read_text().splitlines())
                         if row["corpus_id"] == corpus_id)["text_path"]).read_text()
        papers.append(PaperInput(corpus_id, spec["title"], spec["year"], text))
    results = Pipeline(StubBackend(), graph, records_path=records).run_batch(papers, parallel=parallel)
    assert all(error is None for _, _, error in results)
    return graph


def test_stub_is_a_pure_function_of_the_prompt(tmp_path):
    corpus = gen.crawl_corpus(3, tmp_path / "corpus", n_papers=40, seed_batch=5)
    batch = [str(2_000_000 + i) for i in range(10, 40)]  # cites resolve inside the batch
    serial = _extract(corpus, batch, 1, tmp_path / "serial.jsonl")
    threaded = _extract(corpus, batch, 4, tmp_path / "threaded.jsonl")
    assert (tmp_path / "serial.jsonl").read_bytes() == (tmp_path / "threaded.jsonl").read_bytes()
    edges = Counter((e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in serial.edges)
    assert edges == Counter((e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in threaded.edges)
    assert edges == gen.crawl_oracle_edges(corpus.papers, set(batch))

    prompt = "# Prerequisite Ranking Prompt\n# Candidate Technologies\n```\n" + json.dumps(
        [{"id": f"9.c{i}", "name": "n", "description": "d"} for i in range(5)]
    ) + "\n```\n"
    assert stub.answer(prompt) == stub.answer(prompt)
    answer = stub.answer(prompt)
    if "```" not in answer:  # the injected first-attempt failure
        answer = stub.answer(prompt + "\n\n" + stub.RETRY_MARK + "\n")
    assert parse_fenced_json(answer)["ranking"] == gen.ranking_order([f"9.c{i}" for i in range(5)])


@pytest.mark.parametrize(
    "workload, trace",
    [
        (run.Crawl(n_papers=40, iterations=2, batch=5), False),
        (run.Crawl(n_papers=40, iterations=2, batch=5), True),
        # 8 papers: the frontier offers fewer than a batch, then runs dry.
        (run.Crawl(n_papers=8, iterations=3, batch=5), False),
        (run.Ingest(n_records=80), True),
        (run.Backtest(n_papers=400, per_year=2), False),
        (run.Backtest(n_papers=400, per_year=2), True),
    ],
    ids=["crawl", "crawl-traced", "crawl-short-frontier", "ingest-traced", "backtest", "backtest-traced"],
)
def test_output_checks_pass_on_a_tiny_run(tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "ROOT", REPO)
    result = run.run(workload, seed=5, seconds=0, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] == m["value"] for m in result["metrics"].values())  # no NaN
    # The metrics emitted are exactly those BENCHMARK.json declares, in name and unit.
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}


def test_reference_job_input_ignores_the_seed_and_runs(tmp_path):
    # The host-speed reference must be the same job in every run and on every commit.
    reference.write_input(tmp_path / "a.jsonl")
    reference.write_input(tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert run.Runner(tmp_path, None).reference(tmp_path / "a.jsonl") > 0


def test_problem_checks_catch_wrong_problems(tmp_path):
    corpus = gen.backtest_corpus(1, tmp_path, n_papers=300)
    paper_of = lambda cid: cid.split(".c")[0]  # noqa: E731
    target = next(dep for _, dep in corpus.edges if paper_of(dep) >= "5000150")
    paper, year = paper_of(target), corpus.years[paper_of(target)]
    precursors = sorted({pre for pre, dep in corpus.edges if dep == target})
    touching = {p for pre, dep in corpus.edges for p in (paper_of(pre), paper_of(dep))
                if paper in (paper_of(pre), paper_of(dep))}
    others = [f"{cid}.c{k}" for cid in sorted(corpus.years) for k in range(3)
              if cid not in touching and corpus.years[cid] <= year and f"{cid}.c{k}" not in precursors]
    problem = {
        "target": {"id": target, "year": year},
        "candidates": [{"id": cid} for cid in precursors + others[: 100 - len(precursors)]],
        "gold_ids": precursors,
    }
    assert run.check_problems([problem], corpus) == []
    problem["gold_ids"] = precursors[1:]
    assert run.check_problems([problem], corpus)
    problem["gold_ids"] = precursors
    later = next(cid for cid in sorted(corpus.years) if corpus.years[cid] > year and cid not in touching)
    problem["candidates"][-1] = {"id": f"{later}.c0"}
    assert any("distractor" in m for m in run.check_problems([problem], corpus))


def test_reference_map_is_exact_ap_over_the_stub_ranking():
    ids = [f"1.c{i}" for i in range(4)]
    order = gen.ranking_order(ids)
    problem = {"candidates": [{"id": cid} for cid in ids], "gold_ids": [order[0], order[2]]}
    assert run.reference_map([problem]) == float(Fraction(5, 6))  # (1/1 + 2/3) / 2


@pytest.mark.parametrize(
    "n, tail",
    [(19, 9.0), (20, 9.0), (99, 74.0), (100, 89.0), (1000, 989.0), (10000, 9989.0)],
)
def test_timing_tail_has_ten_samples_beyond_it(n, tail):
    values = [float(i) for i in range(n)]
    m = run.timing("x", values)
    assert m["x.tail"] == tail and m["x.n"] == n
    assert n < 20 or sum(v > tail for v in values) >= 10


def test_self_times_split_concurrent_children_and_sum_to_the_root():
    spans = [[1, 0, "cli.x", 0.0, 10.0, None], [2, 1, "a.f", 1.0, 5.0, None], [3, 1, "b.g", 2.0, 6.0, None]]
    exclusive = run.self_times(spans)
    assert exclusive == pytest.approx({1: 5.0, 2: 2.5, 3: 2.5})
    assert sum(exclusive.values()) == pytest.approx(10.0)
