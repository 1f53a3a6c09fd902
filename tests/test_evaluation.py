from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contribgraph.backends import GenerationBackend
from contribgraph.evaluation import (
    EvalReport,
    ModelCutoff,
    RankingSubmission,
    average_precision,
    load_cutoffs,
    rank_with_model,
    read_submissions,
    repair_submission,
    run_ranking,
    score_run,
    split_by_cutoff,
    write_submissions,
)
from contribgraph.errors import ContribGraphError
from contribgraph.model import PartialDate
from contribgraph.taskgen import Problem

from corpus_fixture import echo_json
from oracles import ap_direct, expected_ap_random, split_brute


def make_problem(
    pid="p1",
    candidates=("A", "B", "C", "D"),
    gold=("A",),
    year=2022,
    date=None,
    seed=1,
) -> Problem:
    return Problem(
        problem_id=pid,
        target_id=pid,
        target_name=f"target {pid}",
        target_description="a target",
        target_year=year,
        target_date=PartialDate.parse(date) if date else None,
        candidates=[{"id": c, "name": c, "description": c} for c in candidates],
        gold_ids=set(gold),
        seed=seed,
    )


class TestAveragePrecision:
    def test_perfect_single_gold(self):
        assert average_precision(["A", "x", "y"], {"A"}) == 1.0

    def test_hand_computed_half(self):
        assert average_precision(["x", "A", "y", "B"], {"A", "B"}) == 0.5

    def test_single_gold_at_rank_100(self):
        ranked = [f"x{i}" for i in range(99)] + ["A"]
        assert average_precision(ranked, {"A"}) == pytest.approx(0.01)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["A"], set())

    def test_gold_not_subset_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            average_precision(["A", "B"], {"Z"})

    def test_exhaustive_six_candidates_gold_1_to_3(self):
        items = ["a", "b", "c", "d", "e", "f"]
        for g in (1, 2, 3):
            for gold in itertools.combinations(items, g):
                for ranking in itertools.permutations(items):
                    assert average_precision(ranking, set(gold)) == ap_direct(
                        ranking, set(gold)
                    )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_properties(self, data):
        n = data.draw(st.integers(3, 12))
        items = [f"i{k}" for k in range(n)]
        g = data.draw(st.integers(1, n))
        gold = set(data.draw(st.permutations(items))[:g])
        ranking = data.draw(st.permutations(items))
        ap = average_precision(ranking, gold)
        assert 0.0 <= ap <= 1.0
        top = set(ranking[: len(gold)])
        assert (ap == 1.0) == (top == gold)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_permuting_non_gold_leaves_ap_unchanged(self, data):
        items = [f"i{k}" for k in range(10)]
        gold = set(items[:3])
        ranking = list(data.draw(st.permutations(items)))
        ap = average_precision(ranking, gold)
        non_gold_positions = [i for i, c in enumerate(ranking) if c not in gold]
        non_gold_items = [ranking[i] for i in non_gold_positions]
        shuffled = data.draw(st.permutations(non_gold_items))
        permuted = list(ranking)
        for pos, item in zip(non_gold_positions, shuffled):
            permuted[pos] = item
        assert average_precision(permuted, gold) == ap

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_moving_gold_up_never_decreases_ap(self, data):
        items = [f"i{k}" for k in range(10)]
        gold = set(items[:3])
        ranking = list(data.draw(st.permutations(items)))
        gold_positions = [i for i, c in enumerate(ranking) if c in gold and i > 0]
        if not gold_positions:
            return
        pos = data.draw(st.sampled_from(gold_positions))
        swapped = list(ranking)
        swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
        assert average_precision(swapped, gold) >= average_precision(ranking, gold)


class TestRepairSubmission:
    def test_valid_permutation_unchanged(self):
        problem = make_problem()
        assert repair_submission(["D", "C", "B", "A"], problem) == ["D", "C", "B", "A"]

    def test_partial_listing_appends_rest_in_stored_order(self):
        problem = make_problem(candidates=tuple(f"c{i}" for i in range(10)))
        repaired = repair_submission(["c7", "c3"], problem)
        assert repaired[:2] == ["c7", "c3"]
        assert repaired[2:] == [c for c in problem.candidate_ids if c not in {"c7", "c3"}]
        assert len(repaired) == 10

    def test_duplicates_and_foreign_ids(self):
        problem = make_problem()
        repaired = repair_submission(["B", "ALIEN", "B", "A"], problem)
        assert repaired == ["B", "A", "C", "D"]
        assert len(repaired) == len(problem.candidates)


class TestSplitByCutoff:
    def test_dated_target_before_cutoff_is_pre(self):
        problem = make_problem(date="2023-05", year=2023)
        cutoff = ModelCutoff("m", 2024, 6)
        assert split_by_cutoff([problem], cutoff)["pre"] == [problem]

    def test_equal_month_is_pre(self):
        problem = make_problem(date="2024-06", year=2024)
        cutoff = ModelCutoff("m", 2024, 6)
        assert split_by_cutoff([problem], cutoff)["pre"] == [problem]

    def test_dated_after_cutoff_is_post(self):
        problem = make_problem(date="2024-07", year=2024)
        cutoff = ModelCutoff("m", 2024, 6)
        assert split_by_cutoff([problem], cutoff)["post"] == [problem]

    def test_year_only_equal_year_discarded(self):
        problem = make_problem(year=2024)
        cutoff = ModelCutoff("m", 2024, 6)
        assert split_by_cutoff([problem], cutoff)["discarded"] == [problem]

    def test_year_only_cutoff_degrades_to_year_granularity(self):
        problem = make_problem(date="2024-03", year=2024)
        cutoff = ModelCutoff("m", 2024, None)
        assert split_by_cutoff([problem], cutoff)["discarded"] == [problem]

    def test_500_random_cases_partition_and_match_oracle(self):
        rng = random.Random(99)
        problems = []
        for i in range(500):
            year = rng.randint(2018, 2026)
            if rng.random() < 0.5:
                problems.append(
                    make_problem(pid=f"p{i}", year=year, date=f"{year}-{rng.randint(1, 12):02d}")
                )
            else:
                problems.append(make_problem(pid=f"p{i}", year=year))
        cutoff = ModelCutoff("m", 2023, 6)
        splits = split_by_cutoff(problems, cutoff)
        assert len(splits["pre"]) + len(splits["post"]) + len(splits["discarded"]) == 500
        ids = lambda key: [p.problem_id for p in splits[key]]  # noqa: E731
        expected = split_brute(problems, 2023, 6)
        assert {k: ids(k) for k in splits} == expected
        seen = set()
        for key in splits:
            for p in splits[key]:
                assert p.problem_id not in seen
                seen.add(p.problem_id)


class TestScoreRun:
    def test_all_perfect_map_one(self):
        problems = [
            make_problem(pid=f"p{i}", candidates=("A", "B", "C"), gold=("A",))
            for i in range(5)
        ]
        submissions = [
            RankingSubmission(problem_id=p.problem_id, ranked_ids=["A", "B", "C"])
            for p in problems
        ]
        report = score_run(problems, submissions)
        assert report.map_overall == 1.0

    def test_monte_carlo_random_ranking_matches_closed_form(self):
        rng = random.Random(7)
        candidates = tuple(f"c{i}" for i in range(100))
        for g in (1, 2, 5):
            problem = make_problem(candidates=candidates, gold=tuple(f"c{i}" for i in range(g)))
            total = 0.0
            for _ in range(10_000):
                ranking = list(candidates)
                rng.shuffle(ranking)
                total += average_precision(ranking, problem.gold_ids)
            mean = total / 10_000
            assert mean == pytest.approx(expected_ap_random(100, g), abs=0.005)

    def test_permutation_invariant_over_problem_order(self):
        rng = random.Random(3)
        problems = [
            make_problem(pid=f"p{i}", candidates=("A", "B", "C", "D"), gold=("B",), year=2020 + i)
            for i in range(6)
        ]
        submissions = []
        for p in problems:
            ranking = list(p.candidate_ids)
            rng.shuffle(ranking)
            submissions.append(RankingSubmission(problem_id=p.problem_id, ranked_ids=ranking))
        forward = score_run(problems, submissions)
        backward = score_run(list(reversed(problems)), list(reversed(submissions)))
        assert forward.map_overall == pytest.approx(backward.map_overall, abs=1e-12)

    def test_split_maps_and_counts(self):
        problems = [
            make_problem(pid="old", year=2020, candidates=("A", "B"), gold=("A",)),
            make_problem(pid="new", year=2025, candidates=("A", "B"), gold=("A",)),
            make_problem(pid="same", year=2023, candidates=("A", "B"), gold=("A",)),
        ]
        submissions = [
            RankingSubmission("old", ["A", "B"], cost=0.002),
            RankingSubmission("new", ["B", "A"], cost=0.001),
            RankingSubmission("same", ["A", "B"], cost=0.001),
        ]
        report = score_run(problems, submissions, ModelCutoff("m", 2023, None))
        assert (report.n_pre, report.n_post, report.n_discarded) == (1, 1, 1)
        assert report.map_pre == 1.0
        assert report.map_post == 0.5
        assert report.map_overall == pytest.approx((1.0 + 0.5 + 1.0) / 3)
        assert report.cost_per_1k == pytest.approx(0.004 * 1000 / 3)

    def test_missing_submission_rejected(self):
        problems = [make_problem(pid="p1")]
        with pytest.raises(ValueError, match="missing"):
            score_run(problems, [])


class QueueBackend(GenerationBackend):
    name = "queue"
    model = "rank"

    def __init__(self, responses):
        super().__init__()
        self.responses = list(responses)
        self.prompts: list[str] = []

    def generate(self, prompt, temperature=0.0):
        self.prompts.append(prompt)
        response = self.responses.pop(0)
        self._account(len(prompt) // 4, len(response) // 4, 0.0)
        return response


class TestRankWithModel:
    def test_gold_first_gives_ap_one(self):
        problem = make_problem(candidates=("A", "B", "C", "D"), gold=("C",))
        backend = QueueBackend([echo_json({"ranking": ["C", "A", "B", "D"]})])
        submission = rank_with_model(problem, backend)
        assert not submission.flagged
        assert average_precision(submission.ranked_ids, problem.gold_ids) == 1.0

    def test_reversed_order_hand_value(self):
        problem = make_problem(candidates=("A", "B", "C", "D"), gold=("A", "D"))
        backend = QueueBackend([echo_json({"ranking": ["D", "C", "B", "A"]})])
        submission = rank_with_model(problem, backend)
        # gold ranks 1 and 4: (1/1 + 2/4) / 2 = 0.75
        assert average_precision(submission.ranked_ids, problem.gold_ids) == 0.75

    def test_garbage_degrades_to_stored_order_flagged(self):
        problem = make_problem()
        backend = QueueBackend(["nope", "still nope", "nope again"])
        submission = rank_with_model(problem, backend, retries=2)
        assert submission.flagged
        assert submission.ranked_ids == problem.candidate_ids

    def test_unparseable_then_valid_costs_two_calls(self):
        problem = make_problem(candidates=("A", "B", "C", "D"), gold=("C",))
        backend = QueueBackend(["no json here", echo_json({"ranking": ["C", "A", "B", "D"]})])
        submission = rank_with_model(problem, backend)
        assert backend.usage.calls == 2
        assert not submission.flagged
        assert submission.ranked_ids == ["C", "A", "B", "D"]
        first, retry = backend.prompts
        # The retry prompt is the original plus this suffix, byte for byte.
        assert retry == first + (
            "\n\n# Previous attempt failed validation\n"
            "The previous response was rejected by the schema validator:\n"
            "- response is not parseable JSON: no parseable JSON in response\n"
            "Please answer again, following the output format exactly. "
            "The JSON must be valid JSON, between triple backticks (```).\n"
        )

    def test_junk_ids_repaired(self):
        problem = make_problem(candidates=("A", "B", "C", "D"), gold=("B",))
        backend = QueueBackend([echo_json({"ranking": ["B", "Z", "B", "D"]})])
        submission = rank_with_model(problem, backend)
        assert submission.ranked_ids == ["B", "D", "A", "C"]
        assert len(submission.ranked_ids) == 4

    def test_usage_recorded(self):
        problem = make_problem()
        backend = QueueBackend([echo_json({"ranking": ["A", "B", "C", "D"]})])
        submission = rank_with_model(problem, backend)
        assert submission.backend == "queue:rank"
        assert submission.tokens > 0


class SleepingBackend(GenerationBackend):
    """Answers after a delay, so parallel problems' calls overlap; every
    third first attempt (by prompt hash) is unparseable and retried."""

    name = "sleepy"

    def generate(self, prompt, temperature=0.0):
        time.sleep(0.01)
        self._account(len(prompt) // 4, 3, len(prompt) * 0.25)  # exact binary fractions
        first_attempt = "# Previous attempt" not in prompt
        if first_attempt and hashlib.sha256(prompt.encode()).digest()[0] % 3 == 0:
            return "no json here"
        return echo_json({"ranking": []})  # repaired to the stored order


def test_parallel_ranking_charges_each_problem_its_own_calls(tmp_path):
    problems = [
        make_problem(f"p{i}", [f"{i}.c{j}" for j in range(2 + i % 5)], gold=(f"{i}.c0",))
        for i in range(16)
    ]
    files = []
    for parallel in (1, 4):
        backend = SleepingBackend()
        submissions = run_ranking(problems, backend, parallel=parallel)
        usage = backend.usage
        assert sum(s.cost for s in submissions) == usage.cost
        assert sum(s.tokens for s in submissions) == usage.tokens_in + usage.tokens_out
        assert usage.calls > len(problems)  # some first attempts were retried
        files.append(tmp_path / f"parallel{parallel}.jsonl")
        write_submissions(files[-1], submissions)
    assert files[0].read_bytes() == files[1].read_bytes()


class TestPersistence:
    def test_submissions_round_trip(self, tmp_path):
        submissions = [
            RankingSubmission("p1", ["A", "B"], backend="m", tokens=10, cost=0.5, flagged=True),
            RankingSubmission("p2", ["B", "A"], backend="m"),
        ]
        path = tmp_path / "submissions.jsonl"
        write_submissions(path, submissions)
        loaded = read_submissions(path)
        assert [s.to_json() for s in loaded] == [s.to_json() for s in submissions]

    @pytest.mark.parametrize("ranked_ids", ["b.c0", ["a.c0", 1], None, {"b.c0": 1}])
    def test_ranked_ids_must_be_a_list_of_strings(self, ranked_ids):
        with pytest.raises(TypeError, match="ranked_ids must be a list of strings"):
            RankingSubmission.from_json({"problem_id": "p1", "ranked_ids": ranked_ids})

    def test_cutoffs_formats(self, tmp_path):
        path = tmp_path / "cutoffs.json"
        path.write_text(
            json.dumps({"a:b": "2024-06", "c:d": {"year": 2023}, "e:f": "2022"}),
            encoding="utf-8",
        )
        cutoffs = load_cutoffs(path)
        assert cutoffs["a:b"].year == 2024 and cutoffs["a:b"].month == 6
        assert cutoffs["c:d"].year == 2023 and cutoffs["c:d"].month is None
        assert cutoffs["e:f"].year == 2022 and cutoffs["e:f"].month is None

    @pytest.mark.parametrize(
        "value",
        ["2022-13", "2022-0", "2022-6-32", "june", {"year": 2022, "month": "6"},
         {"year": 2022, "month": 13}, {"year": 2022, "month": True}, {"year": "2022"}],
        ids=str,
    )
    def test_cutoff_needs_an_integer_month_in_1_to_12(self, tmp_path, value):
        path = tmp_path / "cutoffs.json"
        path.write_text(json.dumps({"m": value}), encoding="utf-8")
        with pytest.raises(ContribGraphError, match="bad cutoffs"):
            load_cutoffs(path)

    def test_report_json_fields(self):
        report = EvalReport(map_overall=0.5, n_pre=1, n_post=2, n_discarded=0)
        obj = report.to_json()
        assert set(obj) == {
            "map_overall", "map_pre", "map_post",
            "n_pre", "n_post", "n_discarded", "cost_per_1k", "backend",
        }
