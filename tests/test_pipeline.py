from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_fixture as cf
from contribgraph import jsonl
from contribgraph.backends import (
    GenerationBackend,
    MockBackend,
    generate_validated,
    parse_fenced_json,
)
from contribgraph.cli import dispatch
from contribgraph.errors import BackendError, DuplicatePaperError, ParseFailure, StageFailure
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import read_jsonl
from contribgraph.model import InternalRef, PaperMeta, PaperRef, Prerequisite
from contribgraph.pipeline import PaperInput, Pipeline

from conftest import FORGED, assert_index_invariants, forge_stamp, load_golden_raw
from corpus_fixture import echo_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402
import stub  # noqa: E402

BERT = "52967399"
ATTENTION = "13756489"


class QueueBackend(GenerationBackend):
    """Returns queued responses in order, recording prompts."""

    name = "queue"
    model = "test"

    def __init__(self, responses):
        super().__init__()
        self.responses = list(responses)
        self.prompts: list[str] = []

    def generate(self, prompt, temperature=0.0):
        self.prompts.append(prompt)
        assert self.responses, "response queue exhausted"
        response = self.responses.pop(0)
        self._account(len(prompt) // 4, len(response) // 4, 0.0)
        return response


class ScriptedBackend(QueueBackend):
    """QueueBackend whose queued exceptions are raised instead of returned."""

    def generate(self, prompt, temperature=0.0):
        if isinstance(self.responses[0], Exception):
            self.prompts.append(prompt)
            raise self.responses.pop(0)
        return super().generate(prompt, temperature)


class ProbeBackend(MockBackend):
    """Replay backend that records prompts, the most calls ever in flight,
    and the calls made while ``finalizing`` is set; safe across threads."""

    def __init__(self, directory, delay=0.0):
        super().__init__(directory)
        self.delay = delay
        self.prompts: list[str] = []
        self.inflight = self.max_inflight = 0
        self.finalizing = False
        self.calls_while_finalizing = 0
        self._lock = threading.Lock()

    def generate(self, prompt, temperature=0.0):
        with self._lock:
            self.prompts.append(prompt)
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
            self.calls_while_finalizing += self.finalizing
        try:
            time.sleep(self.delay)
            return super().generate(prompt)
        finally:
            with self._lock:
                self.inflight -= 1


class RoutedBackend(GenerationBackend):
    """Answers ``route(prompt)``, recording prompts; safe across threads."""

    name = "routed"

    def __init__(self, route):
        super().__init__()
        self.route = route
        self.prompts: list[str] = []
        self._lock = threading.Lock()

    def generate(self, prompt, temperature=0.0):
        with self._lock:
            self.prompts.append(prompt)
        response = self.route(prompt)
        self._account(len(prompt) // 4, len(response) // 4, 0.0)
        return response


class ExplodingBackend(GenerationBackend):
    name = "exploding"

    def generate(self, prompt, temperature=0.0):
        raise AssertionError("backend must not be called")


def make_pipeline(backend, graph=None, retries=2):
    graph = graph or ContributionGraph()
    return Pipeline(backend, graph, retries=retries), graph


class TestParseFencedJson:
    def test_bare_fence(self):
        assert parse_fenced_json('```{"a":1}```') == {"a": 1}

    def test_prose_around_fence(self):
        text = 'Sure, here you go:\n```json\n{"a": [1, 2]}\n```\nHope that helps!'
        assert parse_fenced_json(text) == {"a": [1, 2]}

    def test_two_fences_second_malformed_takes_first(self):
        text = '```\n{"first": true}\n```\nand then\n```\n{"broken": \n```'
        assert parse_fenced_json(text) == {"first": True}

    def test_last_well_formed_fence_wins(self):
        text = '```\n{"first": 1}\n```\nmid\n```\n{"second": 2}\n```'
        assert parse_fenced_json(text) == {"second": 2}

    def test_whole_body_fallback(self):
        assert parse_fenced_json(' {"x": null} ') == {"x": None}

    def test_unparseable_raises_with_raw_text(self):
        with pytest.raises(ParseFailure) as info:
            parse_fenced_json("I refuse to answer in JSON.")
        assert info.value.raw_text == "I refuse to answer in JSON."


@pytest.mark.parametrize(
    "doc", [["a list"], {"matches": {}}, {"ranking": []}], ids=["list", "not_a_list", "no_key"]
)
def test_answer_without_its_list_is_prompted_again(doc):
    backend = QueueBackend([echo_json(doc), echo_json({"matches": []})])
    value = generate_validated(
        backend, "prompt", "matches", lambda entries: (entries, []),
        retries=1, corpus_id="1", stage="alignment",
    )
    assert value == []
    first, retry = backend.prompts
    assert first == "prompt"
    assert "\n- top level must be a dict with a `matches` list\n" in retry


def golden_bert_stage2_response() -> str:
    """Stage-2 style response carrying the golden record's 12 contributions."""
    bert = next(r for r in load_golden_raw() if r["corpus_id"] == BERT)
    doc = {
        "contributions": [
            {
                "name": c["name"],
                "description": c["description"],
                "contribution_type": [
                    {"type": t["type"], "justification": t["explanation"]}
                    for t in c["types"]
                ],
                "sections": c["sections"],
            }
            for c in bert["contributions"]
        ]
    }
    return echo_json(doc)


def bert_paper() -> PaperInput:
    return PaperInput(BERT, "BERT: Pre-training of Deep Bidirectional Transformers", 2019,
                      "Full text of the encoder paper.")


class TestExtractContributions:
    def test_bert_replay_yields_12(self):
        pipeline, _ = make_pipeline(QueueBackend([golden_bert_stage2_response()]))
        contributions = pipeline.extract_contributions(bert_paper())
        assert len(contributions) == 12
        assert contributions[0].name == "Bidirectional Transformer encoder architecture (BERT)"
        assert contributions[0].id == f"{BERT}.c0"

    def test_empty_contribution_list_is_legal(self):
        pipeline, _ = make_pipeline(QueueBackend([echo_json({"contributions": []})]))
        assert pipeline.extract_contributions(bert_paper()) == []

    def test_empty_full_text_rejected(self):
        pipeline, _ = make_pipeline(ExplodingBackend())
        with pytest.raises(ValueError):
            pipeline.extract_contributions(PaperInput("1", "t", 2020, ""))

    def test_schema_violation_retries_then_fails(self):
        bad = echo_json({"contributions": [{"name": "", "description": "d"}]})
        backend = QueueBackend([bad, bad, bad])
        pipeline, graph = make_pipeline(backend)
        with pytest.raises(StageFailure) as info:
            pipeline.extract_contributions(bert_paper())
        assert info.value.stage == "contributions"
        assert backend.usage.calls == 3  # retry bound: R + 1 with R = 2

    def test_retry_prompt_carries_validator_errors(self):
        bad = echo_json({"contributions": [{"name": "", "description": "d"}]})
        good = golden_bert_stage2_response()
        backend = QueueBackend([bad, good])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        assert len(contributions) == 12
        assert backend.usage.calls == 2
        retry_prompt = backend.prompts[1]
        assert retry_prompt.startswith(backend.prompts[0])
        assert "failed validation" in retry_prompt
        assert "empty name" in retry_prompt

    @pytest.mark.parametrize(
        "prerequisites",
        [
            [{"name": "", "core_or_peripheral": "sometimes", "references": [{"type": "mystery"}]}],
            ["not an object"],
        ],
        ids=["malformed", "not_objects"],
    )
    def test_stray_prerequisites_are_ignored_without_a_retry(self, prerequisites):
        entry = {
            "name": "thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"], "prerequisites": prerequisites,
        }
        backend = QueueBackend([echo_json({"contributions": [entry]})])
        pipeline, _ = make_pipeline(backend)
        [contribution] = pipeline.extract_contributions(bert_paper())
        assert contribution.prerequisites == ()
        assert len(backend.prompts) == 1

    def test_mean_contribution_count_over_25_papers(self):
        # Synthetic 25-paper corpus; the fixture mean is recomputed by
        # scanning the canned responses, not assumed.
        rng_counts = [9, 8, 10, 7, 12, 9, 8, 11, 6, 9, 10, 8, 9, 7, 13,
                      9, 8, 10, 9, 11, 7, 8, 9, 10, 6]
        responses = []
        for p, count in enumerate(rng_counts):
            responses.append(echo_json({
                "contributions": [
                    {
                        "name": f"paper {p} thing {i}",
                        "description": "d",
                        "contribution_type": [{"type": "analysis", "justification": "j"}],
                        "sections": ["S1"],
                    }
                    for i in range(count)
                ]
            }))
        fixture_mean = sum(
            len(parse_fenced_json(r)["contributions"]) for r in responses
        ) / len(responses)
        backend = QueueBackend(responses)
        pipeline, _ = make_pipeline(backend)
        totals = []
        for p in range(25):
            paper = PaperInput(f"60{p:03d}", f"paper {p}", 2020, f"text of paper {p}")
            totals.append(len(pipeline.extract_contributions(paper)))
        assert sum(totals) / len(totals) == fixture_mean

    def test_truncation_warns(self, caplog, monkeypatch):
        pipeline, _ = make_pipeline(QueueBackend([echo_json({"contributions": []})]))
        monkeypatch.setattr("contribgraph.pipeline.MAX_PAPER_CHARS", 10)
        paper = PaperInput("9", "t", 2020, "x" * 100)
        with caplog.at_level("WARNING"):
            pipeline.extract_contributions(paper)
        assert any("truncated" in r.message for r in caplog.records)
        backend_prompt = pipeline.backend.prompts[0]
        assert "x" * 10 in backend_prompt and "x" * 11 not in backend_prompt


def stage3_entry(key, name="thing", prereqs=None):
    return {
        "key": key,
        "name": name,
        "description": f"{name} description",
        "contribution_type": [{"type": "analysis", "justification": "j"}],
        "sections": ["S1"],
        "prerequisites": prereqs or [],
    }


class TestExtractPrerequisites:
    def _contribution(self, pipeline):
        response = golden_bert_stage2_response()
        return pipeline.extract_contributions(bert_paper())

    def test_bert_c0_six_prerequisites(self, golden_graph):
        bert_raw = next(r for r in load_golden_raw() if r["corpus_id"] == BERT)
        prereqs = []
        for p in bert_raw["contributions"][0]["prerequisites"][:6]:
            refs = []
            for ref in p["references"]:
                if ref["type"] == "paper":
                    refs.append(
                        {
                            "type": "paper",
                            "paper_title": ref["paper_title"],
                            "year": ref["paper_year"],
                            "venue": ref["paper_venue"],
                            "corpus_id": ref["corpus_id"],
                        }
                    )
                else:
                    key = ref["contribution_id"].rsplit(".c", 1)[1]
                    refs.append(
                        {
                            "type": "internal",
                            "contribution_name": ref["contribution_name"],
                            "contribution_key": key,
                            "justification": ref["explanation"],
                        }
                    )
            prereqs.append(
                {
                    "name": p["name"],
                    "description": p["description"],
                    "justification": p["explanation"],
                    "core_or_peripheral": p["core_or_peripheral"],
                    "references_in_paper": refs,
                }
            )
        entry = stage3_entry("0", "Bidirectional Transformer encoder architecture (BERT)",
                             prereqs)
        backend = QueueBackend([echo_json({"contributions": [entry]})])
        pipeline = Pipeline(backend, golden_graph)
        target = golden_graph.get_contribution(f"{BERT}.c0")
        others = [c for c in golden_graph.contributions_of(BERT) if c.id != target.id]
        paper = PaperInput(BERT, "BERT", 2019, "text")
        out = pipeline.extract_prerequisites(target, others, paper)
        assert len(out) == 1
        got = out[0].prerequisites
        assert len(got) == 6
        transformer = got[0]
        assert transformer.name == "Transformer encoder (self-attention) architecture"
        assert transformer.core_or_peripheral == "core"
        assert [r.type for r in transformer.references] == ["paper"]

    def test_echo_with_no_prerequisites(self):
        backend = QueueBackend([
            golden_bert_stage2_response(),
            echo_json({"contributions": [stage3_entry("0")]}),
        ])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        out = pipeline.extract_prerequisites(contributions[0], contributions[1:], bert_paper())
        assert len(out) == 1
        assert out[0].prerequisites == ()

    def test_split_keys_accepted(self):
        backend = QueueBackend([
            golden_bert_stage2_response(),
            echo_json({"contributions": [stage3_entry("2-1"), stage3_entry("2-2")]}),
        ])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        out = pipeline.extract_prerequisites(
            contributions[2],
            [c for i, c in enumerate(contributions) if i != 2],
            bert_paper(),
        )
        assert [e.id for e in out] == ["2-1", "2-2"]

    @pytest.mark.parametrize(
        "matches",
        [[{"contribution_id": "7", "match_type": "maybe"}], ["not an object"]],
        ids=["malformed", "not_objects"],
    )
    def test_matches_are_ignored_without_a_retry(self, matches):
        entry = stage3_entry("0", prereqs=[{
            "name": "p", "description": "d", "justification": "j",
            "core_or_peripheral": "core",
            "references_in_paper": [{"type": "paper", "title": "T", "matches": matches}],
        }])
        backend = QueueBackend([
            golden_bert_stage2_response(),
            echo_json({"contributions": [entry]}),
        ])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        [out] = pipeline.extract_prerequisites(contributions[0], contributions[1:], bert_paper())
        assert out.prerequisites[0].references[0].matches == ()
        assert len(backend.prompts) == 2

    def test_unrelated_key_fails_after_retries(self):
        bad = echo_json({"contributions": [stage3_entry("7")]})
        backend = QueueBackend([golden_bert_stage2_response(), bad, bad, bad])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        with pytest.raises(StageFailure) as info:
            pipeline.extract_prerequisites(contributions[2], [], bert_paper())
        assert info.value.stage == "prerequisites"

    @pytest.mark.parametrize(
        "entry, expected",
        [
            (stage3_entry("7"), "key '7' is neither the input key '0' nor a dash-split of it"),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core",
                    "references_in_paper": [{"type": "internal", "contribution_key": "5"}],
                }]),
                "key '0', prerequisite 0: internal reference to unknown key '5'",
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core",
                    "references_in_paper": [{"type": "paper", "year": 2017}],
                }]),
                "key '0', prerequisite 0: paper reference needs a title or corpus_id",
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "central", "references_in_paper": [],
                }]),
                "key '0', prerequisite 0: core_or_peripheral must be core or peripheral",
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core", "references_in_paper": ["not an object"],
                }]),
                "key '0', prerequisite 0: references must hold objects, got 'not an object'",
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core",
                    "references_in_paper": [{"type": "paper", "title": "T", "year": "2017"}],
                }]),
                "key '0', prerequisite 0: paper reference year must be an integer, got '2017'",
            ),
            # A prerequisite after a non-object one is named by its raw
            # position, by the stage rules as by the record rules.
            (
                stage3_entry("0", prereqs=[None, {
                    "name": "", "description": "d", "justification": "j",
                    "core_or_peripheral": "sometimes", "references_in_paper": [],
                }]),
                ["key '0', prerequisite 1: empty name",
                 "key '0': prerequisites must hold objects, got None",
                 "key '0', prerequisite 1: core_or_peripheral must be core or peripheral,"
                 " got 'sometimes'"],
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core", "references_in_paper": [{"type": "internal"}],
                }]),
                ["key '0', prerequisite 0: internal reference without contribution_id"],
            ),
            (
                {"contributions": [stage3_entry("0"), stage3_entry("0")]},
                ["duplicate key '0'"],
            ),
            (
                {"contributions": []},
                ["output must carry the input contribution (key '0')"],
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core",
                    "references_in_paper": [{"type": "internal", "contribution_key": "0"}],
                }]),
                ["key '0', prerequisite 0: internal reference to itself"],
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "", "description": "d", "justification": "j",
                    "core_or_peripheral": "core", "references_in_paper": [],
                }]),
                ["key '0', prerequisite 0: empty name"],
            ),
            (
                stage3_entry("0", prereqs=[{
                    "name": "p", "description": "d", "justification": "j",
                    "core_or_peripheral": "core",
                    "references_in_paper": [{"type": "paper", "title": 0}],
                }]),
                ["key '0', prerequisite 0: paper reference title must be a string, got 0"],
            ),
            # An alignment answer: a malformed id is not also a foreign one.
            (
                {"matches": [{"contribution_key": "garbage", "justification": "j",
                              "match_type": "strong"}]},
                ["answer: malformed match id 'garbage'"],
            ),
        ],
        ids=["non_split_key", "unknown_internal_key", "paper_ref_without_title_or_id",
             "bad_core_or_peripheral", "non_object_reference", "string_paper_ref_year",
             "prerequisite_after_a_non_object", "internal_without_key", "duplicate_key",
             "missing_input_key", "internal_to_itself", "empty_prerequisite_name",
             "paper_ref_title_not_a_string", "alignment_malformed_id"],
    )
    def test_retry_prompt_names_key_and_rule(self, entry, expected):
        """The retry prompt names each fault once, in order: one complaint
        per expected text (a list, or one text), each starting with it.
        ``entry`` is a stage-3 entry, or a whole stage-3 or alignment answer."""
        expected = [expected] if isinstance(expected, str) else expected
        stage2 = echo_json({"contributions": [{
            "name": "only thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"],
        }]})
        answer = entry
        if "contributions" not in answer and "matches" not in answer:
            answer = {"contributions": [entry]}
        good = {"matches": []} if "matches" in answer else {"contributions": [stage3_entry("0")]}
        backend = QueueBackend([stage2, echo_json(answer), echo_json(good)])
        pipeline, _ = make_pipeline(backend)
        paper = PaperInput("31", "t", 2020, "text")
        contributions = pipeline.extract_contributions(paper)
        if "matches" in answer:
            prereq = Prerequisite("p", "d", "j", "core", ())
            assert pipeline.align_prerequisite(contributions[0], prereq, contributions) == ()
        else:
            out = pipeline.extract_prerequisites(contributions[0], [], paper)
            assert [e.id for e in out] == ["0"]
        first, retry = backend.prompts[1:]
        assert retry.startswith(first)
        complaints = re.findall(r"^- (.*)$", retry[len(first):], re.MULTILINE)
        assert len(complaints) == len(expected), complaints
        assert all(c.startswith(e) for c, e in zip(complaints, expected)), complaints

    def test_unknown_reference_type_fails(self):
        entry = stage3_entry("0", prereqs=[{
            "name": "p", "description": "d", "justification": "j",
            "core_or_peripheral": "core",
            "references_in_paper": [{"type": "telepathy"}],
        }])
        bad = echo_json({"contributions": [entry]})
        backend = QueueBackend([golden_bert_stage2_response(), bad, bad, bad])
        pipeline, _ = make_pipeline(backend)
        contributions = pipeline.extract_contributions(bert_paper())
        with pytest.raises(StageFailure, match="telepathy"):
            pipeline.extract_prerequisites(contributions[0], contributions[1:], bert_paper())


class TestAlignPrerequisite:
    def test_transformer_prerequisite_strong_plus_weak(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        prereq = dep.prerequisites[0]
        cited = golden_graph.contributions_of(ATTENTION)
        response = echo_json({
            "matches": [
                {"contribution_key": f"{ATTENTION}.c0", "explanation": "full encoder",
                 "match_type": "strong"},
                {"contribution_key": f"{ATTENTION}.c1", "explanation": "attention op",
                 "match_type": "weak"},
                {"contribution_key": f"{ATTENTION}.c2", "explanation": "heads",
                 "match_type": "weak"},
                {"contribution_key": f"{ATTENTION}.c3", "explanation": "positions",
                 "match_type": "weak"},
            ],
            "overall_explanation": "ok",
        })
        pipeline = Pipeline(QueueBackend([response]), golden_graph)
        matches = pipeline.align_prerequisite(dep, prereq, cited)
        assert [(m.contribution_id, m.match_type) for m in matches] == [
            (f"{ATTENTION}.c0", "strong"),
            (f"{ATTENTION}.c1", "weak"),
            (f"{ATTENTION}.c2", "weak"),
            (f"{ATTENTION}.c3", "weak"),
        ]

    def test_match_in_stored_spelling_beside_a_null_key(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        cited = golden_graph.contributions_of(ATTENTION)
        response = echo_json({
            "matches": [{"contribution_key": None, "contribution_id": f"{ATTENTION}.c0",
                         "justification": "full encoder", "match_type": "strong"}],
            "overall_explanation": "ok",
        })
        backend = QueueBackend([response])
        [match] = Pipeline(backend, golden_graph).align_prerequisite(
            dep, dep.prerequisites[0], cited
        )
        assert match.to_json() == {"contribution_id": f"{ATTENTION}.c0",
                                   "explanation": "full encoder", "match_type": "strong"}
        assert backend.usage.calls == 1

    def test_zero_cited_contributions_no_call(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        pipeline = Pipeline(ExplodingBackend(), golden_graph)
        assert pipeline.align_prerequisite(dep, dep.prerequisites[0], []) == ()

    def test_empty_matches_is_legal(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        prereq = dep.prerequisites[6]  # the unaligned optimization-techniques citation
        cited = golden_graph.contributions_of("3626819")
        response = echo_json({"matches": [], "overall_explanation": "nothing fits"})
        pipeline = Pipeline(QueueBackend([response]), golden_graph)
        assert pipeline.align_prerequisite(dep, prereq, cited) == ()

    def test_foreign_id_fails_after_retries(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        cited = golden_graph.contributions_of(ATTENTION)
        bad = echo_json({
            "matches": [{"contribution_key": "999.c9", "explanation": "?",
                         "match_type": "strong"}],
            "overall_explanation": "",
        })
        pipeline = Pipeline(QueueBackend([bad, bad, bad]), golden_graph)
        with pytest.raises(StageFailure, match="alignment"):
            pipeline.align_prerequisite(dep, dep.prerequisites[0], cited)

    def test_malformed_match_type_fails(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        cited = golden_graph.contributions_of(ATTENTION)
        bad = echo_json({
            "matches": [{"contribution_key": f"{ATTENTION}.c0", "explanation": "?",
                         "match_type": "medium"}],
            "overall_explanation": "",
        })
        pipeline = Pipeline(QueueBackend([bad, bad, bad]), golden_graph)
        with pytest.raises(StageFailure, match="strong or weak"):
            pipeline.align_prerequisite(dep, dep.prerequisites[0], cited)

    def test_mixed_corpora_rejected(self, golden_graph):
        dep = golden_graph.record(BERT).contributions[0]
        cited = [
            golden_graph.get_contribution(f"{ATTENTION}.c0"),
            golden_graph.get_contribution("3626819.c0"),
        ]
        pipeline = Pipeline(ExplodingBackend(), golden_graph)
        with pytest.raises(ValueError, match="one corpus_id"):
            pipeline.align_prerequisite(dep, dep.prerequisites[0], cited)


class TestRunPaper:
    def test_one_contribution_no_prereqs_two_calls(self):
        stage2 = echo_json({"contributions": [{
            "name": "only thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"],
        }]})
        stage3 = echo_json({"contributions": [stage3_entry("0", "only thing")]})
        backend = QueueBackend([stage2, stage3])
        pipeline, graph = make_pipeline(backend)
        [(_, delta, error)] = pipeline.run_batch([PaperInput("31", "t", 2020, "text")])
        assert error is None and backend.usage.calls == 2
        assert delta.nodes_added == 1 and delta.edges_added == 0
        assert [c.id for c in graph.contributions_of("31")] == ["31.c0"]

    def test_split_part_referencing_its_own_input_key_drops_that_reference(self):
        stage2 = echo_json({"contributions": [
            {"name": name, "description": "d", "sections": ["S1"],
             "contribution_type": [{"type": "analysis", "justification": "j"}]}
            for name in ("first", "second")
        ]})
        # Input key "1" maps onto its first part, "1-0": the reference to "1"
        # from "1-0" lands on itself, the one to "0" on another contribution.
        prereq = {
            "name": "p", "description": "d", "justification": "j", "core_or_peripheral": "core",
            "references_in_paper": [
                {"type": "internal", "contribution_key": "1", "justification": "itself"},
                {"type": "internal", "contribution_key": "0", "justification": "the first"},
            ],
        }
        backend = QueueBackend([
            stage2,
            echo_json({"contributions": [stage3_entry("0", "first")]}),
            echo_json({"contributions": [stage3_entry("1-0", "second a", [prereq]),
                                         stage3_entry("1-1", "second b")]}),
        ])
        pipeline, graph = make_pipeline(backend)
        [(_, delta, error)] = pipeline.run_batch([PaperInput("31", "t", 2020, "text")])
        assert error is None
        part = graph.record("31").contributions[1]
        assert (part.id, part.split_from) == ("31.c1", "1")
        assert [r.contribution_id for r in part.prerequisites[0].references] == ["31.c0"]
        assert delta.edges_added == 1
        assert [(e.pre_id, e.dep_id) for e in graph.edges] == [("31.c0", "31.c1")]

    def test_failed_stage_marks_paper_failed_and_adds_nothing(self):
        stage2 = echo_json({"contributions": [{
            "name": "only thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"],
        }]})
        garbage = "no json here"
        backend = QueueBackend([stage2, garbage, garbage, garbage])
        pipeline, graph = make_pipeline(backend)
        [(_, delta, error)] = pipeline.run_batch([PaperInput("31", "t", 2020, "text")])
        assert isinstance(error, StageFailure) and delta is None
        assert not graph.is_extracted("31")
        assert len(graph.nodes) == 0
        assert graph.edges == []


    @pytest.mark.parametrize(
        "failure, calls",
        [([BackendError("connection reset")], 1), (["no json here"] * 3, 3)],
        ids=["http", "stage"],
    )
    def test_late_alignment_backend_error_skips_only_that_reference(
        self, caplog, failure, calls
    ):
        cite = {"type": "paper", "paper_title": "cited", "corpus_id": "200"}
        graph = ContributionGraph()
        graph.add_paper_record({
            "corpus_id": "100", "title": "citing", "year": 2020,
            "contributions": [{
                "contribution_id": "100.c0", "name": "n", "description": "d",
                "types": [{"type": "analysis", "explanation": "e"}], "sections": ["S1"],
                "prerequisites": [
                    {"name": f"p{k}", "description": "d", "explanation": "e",
                     "core_or_peripheral": "core", "references": [dict(cite)]}
                    for k in range(2)
                ],
            }],
        })
        assert len(graph.unresolved) == 2
        stage2 = echo_json({"contributions": [{
            "name": "cited thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"],
        }]})
        stage3 = echo_json({"contributions": [stage3_entry("0", "cited thing")]})
        match = echo_json({"matches": [
            {"contribution_key": "200.c0", "explanation": "x", "match_type": "strong"}
        ]})
        # The first late alignment fails, in transport or on three
        # unparseable answers, before the paper is applied; the second
        # succeeds, and the paper goes in with the one late edge it yields.
        backend = ScriptedBackend([stage2, stage3, *failure, match])
        pipeline, _ = make_pipeline(backend, graph)
        paper = PaperInput("200", "cited", 2019, "text")
        with caplog.at_level("WARNING"):
            [(_, delta, error)] = pipeline.run_batch([paper])
        assert error is None and delta.nodes_added == 1
        assert len(backend.prompts) == 3 + calls
        assert [(e.pre_id, e.dep_id, e.prereq_index) for e in graph.edges] == [
            ("200.c0", "100.c0", 1)
        ]
        assert graph.unresolved == []
        assert any("late alignment skipped" in r.message for r in caplog.records)


    def test_unresolved_reference_with_its_own_matches_is_not_aligned_late(self, tmp_path):
        match = {"contribution_id": "200.c0", "explanation": "x", "match_type": "weak"}
        graph = ContributionGraph()
        graph.add_paper_record({
            "corpus_id": "100", "title": "citing", "year": 2020,
            "contributions": [{
                "contribution_id": "100.c0", "name": "n", "description": "d",
                "types": [{"type": "analysis", "explanation": "e"}], "sections": ["S1"],
                "prerequisites": [
                    {"name": "p", "description": "d", "explanation": "e",
                     "core_or_peripheral": "core",
                     "references": [{"type": "paper", "paper_title": "cited",
                                     "corpus_id": "200", "matches": [match]}]},
                ],
            }],
        })
        assert len(graph.unresolved) == 1
        stage2 = one_contribution("cited thing")
        stage3 = echo_json({"contributions": [stage3_entry("0", "cited thing")]})
        # No alignment answer is queued: a third call would fail the paper.
        backend = QueueBackend([stage2, stage3])
        pipeline = Pipeline(backend, graph, records_path=tmp_path / "records.jsonl")
        [(_, delta, error)] = pipeline.run_batch([PaperInput("200", "cited", 2019, "text")])
        assert error is None and len(backend.prompts) == 2
        assert delta.edges_added == 1
        assert [(e.pre_id, e.dep_id, e.match_type) for e in graph.edges] == [
            ("200.c0", "100.c0", "weak")
        ]
        assert graph.unresolved == []
        alignments = tmp_path / "alignments.jsonl"
        assert not alignments.exists() or list(read_jsonl(alignments)) == []

    def test_prerequisite_citing_one_paper_twice_aligns_each_reference(self, tmp_path):
        cite = {"type": "paper", "paper_title": "cited", "corpus_id": "200"}
        graph = ContributionGraph()
        graph.add_paper_record({
            "corpus_id": "100", "title": "citing", "year": 2020,
            "contributions": [{
                "contribution_id": "100.c0", "name": "n", "description": "d",
                "types": [{"type": "analysis", "explanation": "e"}], "sections": ["S1"],
                "prerequisites": [
                    {"name": "p", "description": "d", "explanation": "e",
                     "core_or_peripheral": "core", "references": [dict(cite), dict(cite)]}
                ],
            }],
        })
        graph.save(tmp_path)
        stage2 = echo_json({"contributions": [{
            "name": "cited thing", "description": "d",
            "contribution_type": [{"type": "analysis", "justification": "j"}],
            "sections": ["S1"],
        }]})
        stage3 = echo_json({"contributions": [stage3_entry("0", "cited thing")]})
        match = echo_json({"matches": [
            {"contribution_key": "200.c0", "explanation": "x", "match_type": "strong"}
        ]})
        backend = QueueBackend([stage2, stage3, match, match])
        pipeline = Pipeline(
            backend, graph, records_path=tmp_path / "records.jsonl"
        )
        [(_, delta, error)] = pipeline.run_batch([PaperInput("200", "cited", 2019, "text")])
        assert error is None
        assert len(backend.prompts) == 4 and backend.prompts[2] == backend.prompts[3]
        assert delta.edges_added == 2
        logged = list(read_jsonl(tmp_path / "alignments.jsonl"))
        assert [(a["owner_id"], a["prereq_index"], a["ref_index"]) for a in logged] == [
            ("100.c0", 0, 0), ("100.c0", 0, 1)
        ]
        assert ContributionGraph.load(tmp_path).edges == graph.edges


def one_contribution(name: str) -> str:
    """Stage-2 response with one contribution."""
    return echo_json({"contributions": [{
        "name": name, "description": "d",
        "contribution_type": [{"type": "analysis", "justification": "j"}],
        "sections": ["S1"],
    }]})


def citing(name: str, cited=None) -> str:
    """Stage-3 echo of contribution 0 with one prerequisite, citing ``cited`` if given."""
    refs = [{"type": "paper", "paper_title": f"paper {cited}", "corpus_id": cited}] if cited else []
    return echo_json({"contributions": [stage3_entry("0", name, [{
        "name": "p", "description": "d", "justification": "j",
        "core_or_peripheral": "core", "references_in_paper": refs,
    }])]})


def is_alignment(prompt: str) -> bool:
    return "Alignment" in prompt.splitlines()[0]


def batch_route(cites: dict, failing_stage2=(), failing_alignment_to=()):
    """Route for papers whose text is ``text of <id>``: one contribution
    each, citing ``cites[id]``; alignment answers a strong match to the
    cited paper's c0, or an off-list key (a StageFailure) for a cited
    paper in ``failing_alignment_to``."""

    def route(prompt: str) -> str:
        if is_alignment(prompt):
            cited = re.search(r'"corpus_id": "(\d+)"', prompt).group(1)
            key = "999.c0" if cited in failing_alignment_to else f"{cited}.c0"
            return echo_json({"matches": [
                {"contribution_key": key, "explanation": "x", "match_type": "strong"}
            ]})
        paper = re.search(r"text of (\d+)", prompt).group(1)
        if prompt.startswith("# Contribution Extraction"):
            return "no json" if paper in failing_stage2 else one_contribution(f"thing of {paper}")
        return citing(f"thing of {paper}", cites.get(paper))

    return route


def batch_inputs(*ids: str) -> list[PaperInput]:
    return [PaperInput(i, f"paper {i}", 2020, f"text of {i}") for i in ids]


class TestBatchFailures:
    def test_failed_staging_leaves_references_to_it_unresolved(self):
        backend = RoutedBackend(batch_route({"302": "301"}, failing_stage2={"301"}))
        pipeline, graph = make_pipeline(backend)
        (_, _, a_error), (_, b_delta, b_error) = pipeline.run_batch(
            batch_inputs("301", "302"), parallel=2
        )
        assert isinstance(a_error, StageFailure) and b_error is None
        assert not graph.is_extracted("301")
        assert [u.owner_id for u in graph.unresolved_citing("301")] == ["302.c0"]
        assert b_delta.unresolved_added == 1 and graph.edges == []
        assert not any(is_alignment(p) for p in backend.prompts)

    def test_failed_forward_alignment_fails_only_that_paper(self):
        # 302 cites 301, staged before it in the batch; its alignment fails.
        # 303 cites 302, which therefore never goes in.
        backend = RoutedBackend(
            batch_route({"302": "301", "303": "302"}, failing_alignment_to={"301"})
        )
        pipeline, graph = make_pipeline(backend)
        results = pipeline.run_batch(batch_inputs("301", "302", "303"), parallel=2)
        errors = {paper.corpus_id: error for paper, _, error in results}
        assert errors["301"] is None and errors["303"] is None
        assert isinstance(errors["302"], StageFailure) and errors["302"].stage == "alignment"
        assert {k: graph.is_extracted(k) for k in ("301", "302", "303")} == {
            "301": True, "302": False, "303": True
        }
        assert [r.corpus_id for r in graph.records()] == ["301", "303"]
        [entry] = graph.unresolved
        assert (entry.owner_id, entry.ref.corpus_id, entry.ref.matches) == ("303.c0", "302", ())
        assert graph.edges == []


    def test_unexpected_late_alignment_error_fails_only_that_paper(self, tmp_path):
        # 100, in the store, cites 301; aligning it raises an error that is
        # neither a transport error nor a validation failure.
        graph = ContributionGraph()
        graph.add_paper_record({
            "corpus_id": "100", "title": "citing", "year": 2020,
            "contributions": [{
                "contribution_id": "100.c0", "name": "n", "description": "d",
                "types": [{"type": "analysis", "explanation": "e"}], "sections": ["S1"],
                "prerequisites": [{
                    "name": "p", "description": "d", "explanation": "e",
                    "core_or_peripheral": "core",
                    "references": [{"type": "paper", "paper_title": "t", "corpus_id": "301"}],
                }],
            }],
        })
        graph.save(tmp_path)
        log, alignments = tmp_path / "records.jsonl", tmp_path / "alignments.jsonl"
        logged, aligned = log.read_bytes(), alignments.read_bytes()
        crash = RuntimeError("bug")
        route = batch_route({})

        def crashing_route(prompt: str) -> str:
            if is_alignment(prompt):
                raise crash
            return route(prompt)

        pipeline = Pipeline(RoutedBackend(crashing_route), graph, records_path=log)
        (_, _, error), (_, delta, other) = pipeline.run_batch(
            batch_inputs("301", "302"), parallel=2
        )
        assert error is crash
        assert not graph.is_extracted("301") and graph.contributions_of("301") == ()
        [entry] = graph.unresolved_citing("301")
        assert (entry.owner_id, entry.ref.matches) == ("100.c0", ())
        assert alignments.read_bytes() == aligned
        # The log gains the other paper's record, and nothing of 301.
        assert log.read_bytes().startswith(logged)
        assert [r["corpus_id"] for r in read_jsonl(log)] == ["100", "302"]
        assert other is None and delta.nodes_added == 1 and graph.is_extracted("302")

    def test_paper_given_twice_fails_the_second_time_as_duplicate(self):
        backend = RoutedBackend(batch_route({"301": "301"}))  # a self-citation
        pipeline, graph = make_pipeline(backend)
        (_, delta, first), (_, _, second) = pipeline.run_batch(batch_inputs("301", "301"))
        assert first is None and delta.nodes_added == 1
        assert isinstance(second, DuplicatePaperError)
        assert [r.corpus_id for r in graph.records()] == ["301"]

    def test_papers_file_reads_extracted_exactly_for_the_logged_records(self, tmp_path):
        backend = RoutedBackend(batch_route({"302": "301"}, failing_stage2={"301"}))
        pipeline, graph = make_pipeline(backend)
        pipeline.records_path = tmp_path / "records.jsonl"
        papers = batch_inputs("301", "302", "303")
        for paper in papers:  # as `extract` registers its catalog entries
            graph.register_paper(PaperMeta(paper.corpus_id, paper.title, paper.year))
        pipeline.run_batch(papers, parallel=2)
        graph.save(tmp_path)
        status = {p["corpus_id"]: p["status"] for p in read_jsonl(tmp_path / "papers.jsonl")}
        assert status == {"301": "pending", "302": "extracted", "303": "extracted"}
        logged = {r["corpus_id"] for r in read_jsonl(tmp_path / "records.jsonl")}
        assert logged == {k for k, v in status.items() if v == "extracted"}


class TestCorpusReplay:
    def run_corpus(self, corpus, out_dir, backend=None):
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        pipeline = Pipeline(
            backend or MockBackend(corpus.mock_dir), graph,
            records_path=out_dir / "records.jsonl",
        )
        cf.extract_each(pipeline, cf.paper_inputs(corpus))
        graph.save(out_dir)
        return graph, pipeline

    def test_edges_match_hand_enumerated_oracle(self, corpus, tmp_path):
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        got = [(e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in graph.edges]
        assert got == cf.EXPECTED_EDGES

    def test_unresolved_and_counts(self, corpus, tmp_path):
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        assert sorted(u.key() for u in graph.unresolved) == cf.EXPECTED_UNRESOLVED_KEYS
        for corpus_id, count in cf.FINAL_CONTRIBUTION_COUNTS.items():
            assert len(graph.contributions_of(corpus_id)) == count
        assert_index_invariants(graph)

    def test_split_provenance_recorded(self, corpus, tmp_path):
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        assert graph.nodes["7000003.c1"].split_from == "1"
        assert graph.nodes["7000003.c2"].split_from == "1"
        assert graph.nodes["7000003.c0"].split_from is None

    def test_two_runs_byte_identical(self, corpus, tmp_path):
        self.run_corpus(corpus, tmp_path / "a")
        self.run_corpus(corpus, tmp_path / "b")
        for name in ("records.jsonl", "nodes.jsonl", "edges.jsonl", "papers.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} differs between runs"

    def test_parallel_staging_matches_serial(self, corpus, tmp_path):
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        backend = ProbeBackend(corpus.mock_dir)
        pipeline = Pipeline(
            backend, graph,
            records_path=tmp_path / "par" / "records.jsonl",
        )
        results = pipeline.run_batch(cf.paper_inputs(corpus), parallel=4)
        assert all(error is None for _, _, error in results)
        graph.save(tmp_path / "par")
        serial = ProbeBackend(corpus.mock_dir)
        self.run_corpus(corpus, tmp_path / "ser", serial)
        for name in ("records.jsonl", "alignments.jsonl", "nodes.jsonl", "edges.jsonl"):
            assert (tmp_path / "par" / name).read_bytes() == (
                tmp_path / "ser" / name
            ).read_bytes()
        # The batch makes the very calls of one-by-one extraction: each
        # (reference, cited paper) pair is aligned exactly once.
        assert sorted(backend.prompts) == sorted(serial.prompts)

    def test_batch_calls_overlap_and_finalize_calls_nothing(self, corpus, monkeypatch):
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        backend = ProbeBackend(corpus.mock_dir, delay=0.002)
        finalize = Pipeline.finalize_paper

        def flagged_finalize(self, *args):
            backend.finalizing = True
            try:
                return finalize(self, *args)
            finally:
                backend.finalizing = False

        monkeypatch.setattr(Pipeline, "finalize_paper", flagged_finalize)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
        try:
            results = Pipeline(backend, graph).run_batch(
                cf.paper_inputs(corpus), parallel=4
            )
        finally:
            sys.setswitchinterval(interval)
        assert all(error is None for _, _, error in results)
        assert 1 < backend.max_inflight <= 4
        assert backend.calls_while_finalizing == 0
        assert [(e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in graph.edges] == (
            cf.EXPECTED_EDGES
        )

    def test_call_counts_match_fixture_oracle(self, corpus, tmp_path):
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        backend = MockBackend(corpus.mock_dir)
        pipeline = Pipeline(backend, graph)
        oracle = cf.expected_backend_calls()
        for paper in cf.paper_inputs(corpus):
            before = backend.usage.calls
            cf.extract_each(pipeline, [paper])
            assert backend.usage.calls - before == oracle[paper.corpus_id]["total"], (
                f"call count mismatch for {paper.corpus_id}"
            )

    def test_alignment_closure(self, corpus, tmp_path):
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        for record in graph.records():
            for contribution in record.contributions:
                for prereq in contribution.prerequisites:
                    for ref in prereq.references:
                        if isinstance(ref, PaperRef) and ref.matches:
                            cited_ids = {
                                c.id for c in graph.contributions_of(ref.corpus_id)
                            }
                            for match in ref.matches:
                                assert match.contribution_id in cited_ids

    def test_no_invented_references(self, corpus, tmp_path):
        # Every reference in the output records appears in the canned
        # responses (the fixture spec that generated them).
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        spec_refs: set[tuple] = set()
        for spec in cf.PAPERS:
            for entries in spec["stage3"].values():
                for entry in entries:
                    for prereq in entry["prereqs"]:
                        for ref in prereq["refs"]:
                            if ref["kind"] == "paper":
                                spec_refs.add(("paper", spec["corpus_id"], ref["paper_title"], ref["year"]))
                            elif ref["kind"] == "internal":
                                spec_refs.add(("internal", spec["corpus_id"], ref["contribution_name"]))
                            else:
                                spec_refs.add(("artifact", spec["corpus_id"], ref["url"]))
        for record in graph.records():
            for contribution in record.contributions:
                for prereq in contribution.prerequisites:
                    for ref in prereq.references:
                        if isinstance(ref, PaperRef):
                            key = ("paper", record.corpus_id, ref.title, ref.year)
                        elif isinstance(ref, InternalRef):
                            key = ("internal", record.corpus_id, ref.contribution_name)
                        else:
                            key = ("artifact", record.corpus_id, ref.url)
                        assert key in spec_refs, f"invented reference {key}"

    def test_records_file_lines_parse_and_match_store(self, corpus, tmp_path):
        graph, _ = self.run_corpus(corpus, tmp_path / "run")
        lines = list(read_jsonl(tmp_path / "run" / "records.jsonl"))
        assert [r["corpus_id"] for r in lines] == cf.EXTRACTION_ORDER
        assert [r.to_json() for r in graph.records()] == lines


def test_mock_backend_strict_unknown_hash(tmp_path):
    backend = MockBackend(tmp_path)
    with pytest.raises(BackendError, match="no canned response"):
        backend.generate("never seen prompt")


def test_mock_backend_replays_stored_response(tmp_path):
    cf.store_response(tmp_path, "hello prompt", "canned!")
    backend = MockBackend(tmp_path)
    assert backend.generate("hello prompt") == "canned!"
    assert backend.usage.calls == 1


def test_duplicate_extraction_rejected(corpus):
    graph = ContributionGraph()
    cf.register_catalog(graph, corpus)
    pipeline = Pipeline(MockBackend(corpus.mock_dir), graph)
    papers = cf.paper_inputs(corpus)
    cf.extract_each(pipeline, papers[:1])
    [(_, delta, error)] = pipeline.run_batch(papers[:1])
    assert isinstance(error, DuplicatePaperError) and delta is None


class TestLogReplay:
    """records.jsonl + alignments.jsonl alone rebuild the live graph; the
    views nodes.jsonl and edges.jsonl may be stale and are never trusted."""

    @staticmethod
    def edge_tuples(graph):
        return [(e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in graph.edges]

    @pytest.mark.parametrize("save_after", [0, 5, 7])
    def test_reload_after_crash_keeps_every_edge(self, corpus, tmp_path, save_after):
        live = cf.extract_with_crash(corpus, tmp_path, save_after)
        loaded = ContributionGraph.load(tmp_path)
        assert loaded.edges == live.edges
        assert self.edge_tuples(loaded) == cf.EXPECTED_EDGES
        assert sorted(u.key() for u in loaded.unresolved) == cf.EXPECTED_UNRESOLVED_KEYS
        assert_index_invariants(loaded)

    def test_crash_between_log_appends_then_reextract_keeps_every_edge(
        self, corpus, tmp_path, monkeypatch
    ):
        # The writer dies in the finalize of 7000006, whose late alignment
        # gives 7000005.c0 its edge: its second log append, the record's,
        # writes nothing.
        papers = cf.paper_inputs(corpus)
        second_append = 2 * cf.EXTRACTION_ORDER.index("7000006") + 2
        appends = []
        append = jsonl.append_lines

        class Crash(Exception):
            pass

        def crashing_append(path, *rows):
            appends.append(path)
            if len(appends) == second_append:
                raise Crash
            return append(path, *rows)

        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        pipeline = Pipeline(
            MockBackend(corpus.mock_dir), graph,
            records_path=tmp_path / "records.jsonl",
        )
        monkeypatch.setattr(jsonl, "append_lines", crashing_append)
        for paper in papers:
            [(_, _, error)] = pipeline.run_batch([paper])
            if error is not None:
                break
        assert isinstance(error, Crash)
        monkeypatch.undo()

        # Reload, and extract again whatever the log does not hold.
        graph = ContributionGraph.load(tmp_path)
        cf.register_catalog(graph, corpus)
        pipeline = Pipeline(
            MockBackend(corpus.mock_dir), graph,
            records_path=tmp_path / "records.jsonl",
        )
        cf.extract_each(pipeline, [p for p in papers if not graph.is_extracted(p.corpus_id)])
        assert self.edge_tuples(graph) == cf.EXPECTED_EDGES

        loaded = ContributionGraph.load(tmp_path)
        assert self.edge_tuples(loaded) == cf.EXPECTED_EDGES
        assert sorted(u.key() for u in loaded.unresolved) == cf.EXPECTED_UNRESOLVED_KEYS
        # The re-extraction logged the late alignment again, and the
        # edges above hold its edge once: replay applies it once.
        assert_index_invariants(loaded)

    def test_a_record_whose_append_raised_is_logged_before_the_next(
        self, corpus, tmp_path, monkeypatch
    ):
        # 7000005 cites 7000006, and in one batch 7000006's late alignment
        # gives 7000005.c0 its edge. The append of 7000005's record raises
        # once, so the graph still holds it; the next append logs it first,
        # so replay applies it before the late alignment that names it.
        papers = {paper.corpus_id: paper for paper in cf.paper_inputs(corpus)}
        order = cf.EXTRACTION_ORDER
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        pipeline = Pipeline(
            MockBackend(corpus.mock_dir), graph, records_path=tmp_path / "records.jsonl"
        )
        cf.extract_each(pipeline, [papers[c] for c in order[: order.index("7000005")]])
        append, failed = jsonl.append_lines, []

        def failing_append(path, lines):  # the first append of 7000005's record
            lines = list(lines)
            if not failed and lines[:1] and lines[0].startswith(b'{"corpus_id": "7000005"'):
                failed.append(path)
                raise OSError("disk full")
            return append(path, lines)

        monkeypatch.setattr(jsonl, "append_lines", failing_append)
        results = pipeline.run_batch([papers["7000005"], papers["7000006"]])
        monkeypatch.undo()
        assert [type(error) for _, _, error in results] == [OSError, type(None)]
        cf.extract_each(pipeline, [papers[c] for c in order[order.index("7000006") + 1:]])

        loaded = ContributionGraph.load(tmp_path)
        assert self.edge_tuples(loaded) == self.edge_tuples(graph) == cf.EXPECTED_EDGES
        assert_index_invariants(loaded)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_load_during_an_extract_holds_a_state_of_the_store(
        self, corpus, tmp_path, monkeypatch, n
    ):
        # A reader has read alignments.jsonl when a writer extracts the rest
        # of the corpus. Replaying every record then would apply the record
        # of 7000006 without the late alignment logged with it, which gives
        # 7000005.c0 its edge from 7000006.c0: ten records, 27 of 28 edges.
        papers = cf.paper_inputs(corpus)
        assert n <= cf.EXTRACTION_ORDER.index("7000006")
        store = tmp_path / "store"
        graph = ContributionGraph()
        cf.register_catalog(graph, corpus)
        pipeline = Pipeline(
            MockBackend(corpus.mock_dir), graph, records_path=store / "records.jsonl"
        )
        cf.extract_each(pipeline, papers[:n])
        graph.save(store)
        before = ContributionGraph.load(store)
        read_rows = jsonl.read_rows

        def writer_between_the_reads(path, *args):
            if Path(path).name == "records.jsonl":
                cf.extract_each(pipeline, papers[n:])
            return read_rows(path, *args)

        monkeypatch.setattr(jsonl, "read_rows", writer_between_the_reads)
        reader = ContributionGraph.load(store)
        monkeypatch.undo()
        assert len(graph.records()) == 10
        assert reader.records() == before.records() and len(reader.records()) == n
        assert reader.edges == before.edges
        assert reader.recompute_hash() == before.recompute_hash()
        assert self.edge_tuples(ContributionGraph.load(store)) == cf.EXPECTED_EDGES

    def test_extra_edges_row_is_ignored(self, corpus, tmp_path):
        live = cf.extract_with_crash(corpus, tmp_path, save_after=0)
        live.save(tmp_path)
        with (tmp_path / "edges.jsonl").open("a", encoding="utf-8") as f:
            f.write('{"pre_id": "7000001.c0", "dep_id": "7000002.c1", '
                    '"match_type": "weak", "explanation": "", "prereq_index": 0}\n')
        assert ContributionGraph.load(tmp_path).recompute_hash() == live.graph_hash()


class TestCrawlOrder:
    """The store is a function of the set of papers extracted: whatever
    the order, the cut into `extract` runs and `--parallel`, the crawl
    makes only calls the replay files answer, ends at the same edges and
    unresolved references, and leaves a stamp that a reload trusts and a
    full recomputation confirms."""

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.permutations(cf.EXTRACTION_ORDER),
        cuts=st.sets(st.integers(1, len(cf.EXTRACTION_ORDER) - 1)),
        parallel=st.sampled_from([1, 2, 4]),
    )
    def test_any_order_batches_and_parallel_end_at_the_oracle(self, corpus, order, cuts, parallel):
        misses: list[str] = []
        generate = MockBackend.generate

        def replay(backend, prompt):
            try:
                return generate(backend, prompt)
            except BackendError:
                misses.append(prompt[:80])
                raise

        bounds = [0, *sorted(cuts), len(order)]
        with TemporaryDirectory() as tmp, mock.patch.object(MockBackend, "generate", replay):
            store, catalog = f"{tmp}/store", str(corpus.catalog_path)
            assert dispatch(["ingest", "--store", store, "--catalog", catalog]) == 0
            for start, end in zip(bounds, bounds[1:]):
                assert dispatch([
                    "extract", *order[start:end], "--store", store, "--catalog", catalog,
                    "--mock", str(corpus.mock_dir), "--parallel", str(parallel),
                ]) == 0
                assert_index_invariants(ContributionGraph.load(store))
            assert misses == []

            loaded = ContributionGraph.load(store)
            edges = Counter((e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in loaded.edges)
            assert edges == Counter(cf.EXPECTED_EDGES)
            assert sorted(u.key() for u in loaded.unresolved) == cf.EXPECTED_UNRESOLVED_KEYS
            stamped = json.loads(Path(store, "graph_hash.json").read_bytes())["graph_hash"]
            assert loaded.graph_hash() == stamped == loaded.recompute_hash()
            forge_stamp(Path(store))
            assert ContributionGraph.load(store).graph_hash() == FORGED


class StubBackend(GenerationBackend):
    """The benchmark's stub model called in process: each answer is a pure
    function of the prompt, and about one first attempt in 25 fails."""

    name = "stub"

    def generate(self, prompt, temperature=0.0):
        self._account(len(prompt) // 4, 0, 0.0)
        return stub.answer(prompt)


@pytest.fixture(scope="module")
def crawl(tmp_path_factory):
    """A 24-paper generated crawl corpus: its paper specs and inputs."""
    corpus = gen.crawl_corpus(3, tmp_path_factory.mktemp("crawl"), n_papers=24, seed_batch=4)
    inputs = {
        row["corpus_id"]: (
            PaperMeta(row["corpus_id"], row["title"], row["year"]),
            PaperInput(row["corpus_id"], row["title"], row["year"],
                       Path(row["text_path"]).read_text(encoding="utf-8")),
        )
        for row in read_jsonl(corpus.catalog_path)
    }
    return corpus.papers, inputs


@st.composite
def crawl_plans(draw, ids):
    """A subset of ``ids`` in some order, cut into batches."""
    subset = sorted(draw(st.sets(st.sampled_from(ids), min_size=1)))
    order = draw(st.permutations(subset))
    cuts = draw(st.sets(st.integers(1, len(order) - 1))) if len(order) > 1 else set()
    bounds = [0, *sorted(cuts), len(order)]
    return [order[start:end] for start, end in zip(bounds, bounds[1:])]


def run_crawl(inputs, plan, parallel, directory) -> ContributionGraph:
    """Extract ``plan``'s batches in order with the stub, logging into
    ``directory``; every paper must succeed."""
    graph = ContributionGraph()
    pipeline = Pipeline(StubBackend(), graph, records_path=Path(directory, "records.jsonl"))
    for batch in plan:
        for corpus_id in batch:
            graph.register_paper(inputs[corpus_id][0])
        results = pipeline.run_batch([inputs[c][1] for c in batch], parallel=parallel)
        assert [error for _, _, error in results] == [None] * len(batch)
        assert_index_invariants(graph)
    return graph


def edge_multiset(graph: ContributionGraph) -> Counter:
    return Counter((e.pre_id, e.dep_id, e.match_type, e.prereq_index) for e in graph.edges)


def citing_two(papers):
    """(x, y, z, spec): paper x's first prerequisite citing a paper y, with
    x's spec rewired so that prerequisite also cites an older paper z.
    The stub matches at least one contribution of each of y and z."""
    def matched(prereq, cited):
        return any(gen.match_type(prereq["name"], f"{cited}.c{t}")
                   for t in range(gen.CONTRIBS_PER_PAPER))

    for x, spec in papers.items():
        for c, contribution in enumerate(spec["contributions"]):
            for k, prereq in enumerate(contribution["prereqs"]):
                for y in [r["corpus_id"] for r in prereq["refs"] if r["kind"] == "paper"]:
                    older = [z for z in papers if z < x and z != y and matched(prereq, z)]
                    if matched(prereq, y) and older:
                        rewired = json.loads(json.dumps(spec))
                        rewired["contributions"][c]["prereqs"][k]["refs"].append(
                            {"kind": "paper", "corpus_id": older[0]}
                        )
                        return x, y, older[0], rewired
    raise AssertionError("no paper cites another")


class TestGeneratedCrawl:
    """On a generated corpus too, the edges are a function of the set of
    papers extracted, whatever their order, batches and parallelism:
    every catalog reference between two extracted papers is aligned once,
    forward or late, and the log replays to the same edges."""

    IDS = [str(2_000_000 + i) for i in range(24)]

    @settings(max_examples=25, deadline=None)
    @given(plan=crawl_plans(IDS), parallel=st.sampled_from([1, 2, 4]))
    def test_edges_match_the_oracle_for_the_subset(self, crawl, plan, parallel):
        papers, inputs = crawl
        oracle = gen.crawl_oracle_edges(papers, {c for batch in plan for c in batch})
        with TemporaryDirectory() as tmp:
            graph = run_crawl(inputs, plan, parallel, tmp)
            assert edge_multiset(graph) == edge_multiset(ContributionGraph.load(tmp)) == oracle

    @pytest.mark.parametrize("parallel", [1, 4])
    @pytest.mark.parametrize(
        "roles", [["xyz"], ["yz", "x"], ["y", "x", "z"]], ids=["late", "forward", "both"]
    )
    def test_one_prerequisite_citing_two_papers_keeps_each_site_apart(
        self, crawl, roles, parallel
    ):
        """Two references of one prerequisite cite two papers: each site
        takes its own alignment, forward or late."""
        papers, inputs = crawl
        x, y, z, spec = citing_two(papers)
        papers = {**papers, x: spec}
        text = gen.paper_text(spec, random.Random(0))
        inputs = {**inputs, x: (inputs[x][0], replace(inputs[x][1], full_text=text))}
        plan = [[{"x": x, "y": y, "z": z}[role] for role in batch] for batch in roles]
        oracle = gen.crawl_oracle_edges(papers, {x, y, z})
        for cited in (y, z):
            assert any(pre.startswith(f"{cited}.c") and dep.startswith(f"{x}.c")
                       for pre, dep, _, _ in oracle)
        with TemporaryDirectory() as tmp:
            graph = run_crawl(inputs, plan, parallel, tmp)
            assert edge_multiset(graph) == edge_multiset(ContributionGraph.load(tmp)) == oracle
