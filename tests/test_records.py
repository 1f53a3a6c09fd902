from __future__ import annotations

import pytest

from contribgraph.errors import RecordValidationError
from contribgraph.graph import ContributionGraph
from contribgraph.records import (
    normalize_record,
    normalize_reference,
    parse_record,
    validate_record,
)

from conftest import load_golden_raw


def minimal_record(**overrides):
    record = {
        "corpus_id": "42",
        "title": "A paper",
        "year": 2020,
        "contributions": [
            {
                "contribution_id": "42.c0",
                "name": "Thing",
                "description": "A described thing.",
                "types": [{"type": "analysis", "explanation": "why"}],
                "sections": ["Section 1"],
                "prerequisites": [],
            }
        ],
    }
    record.update(overrides)
    return record


def test_prompt_spelling_normalizes_to_stored_names():
    raw = {
        "corpus_id": 42,
        "title": "A paper",
        "year": 2020,
        "contributions": [
            {
                "name": "Thing",
                "description": "Desc.",
                "contribution_type": [{"type": "analysis", "justification": "why"}],
                "sections": ["S1"],
                "prerequisites": [
                    {
                        "name": "P",
                        "description": "D",
                        "justification": "J",
                        "core_or_peripheral": "core",
                        "references_in_paper": [
                            {
                                "type": "paper",
                                "paper_title": "T",
                                "year": 2019,
                                "venue": "V",
                                "corpus_id": 7,
                            },
                            {"type": "other", "name": "tool", "url": "https://x"},
                        ],
                    }
                ],
            }
        ],
    }
    norm = normalize_record(raw)
    contribution = norm["contributions"][0]
    assert norm["corpus_id"] == "42"
    assert contribution["contribution_id"] == "42.c0"
    assert contribution["types"] == [{"type": "analysis", "explanation": "why"}]
    prereq = contribution["prerequisites"][0]
    assert prereq["explanation"] == "J"
    paper_ref, other_ref = prereq["references"]
    assert paper_ref["paper_year"] == 2019
    assert paper_ref["paper_venue"] == "V"
    assert paper_ref["corpus_id"] == "7"
    assert other_ref["type"] == "artifact"
    assert validate_record(norm) == []


def test_stored_spelling_passes_unchanged():
    norm = normalize_record(minimal_record())
    assert validate_record(norm) == []
    record = parse_record(minimal_record())
    assert record.contributions[0].id == "42.c0"


def test_match_contribution_key_alias():
    ref = normalize_reference(
        {
            "type": "paper",
            "paper_title": "T",
            "paper_year": 2017,
            "paper_venue": "V",
            "corpus_id": "7",
            "matches": [
                {"contribution_key": "7.c1", "justification": "j", "match_type": "weak"}
            ],
        }
    )
    assert ref["matches"] == [
        {"contribution_id": "7.c1", "explanation": "j", "match_type": "weak"}
    ]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(corpus_id=""), "corpus_id"),
        (lambda r: r["contributions"][0].update(name=""), "empty name"),
        (lambda r: r["contributions"][0].update(description=""), "empty description"),
        (lambda r: r["contributions"][0].update(contribution_id="42.c5"), "out of record order"),
        (lambda r: r["contributions"][0].update(contribution_id="43.c0"), "names corpus"),
        (lambda r: r["contributions"][0].update(contribution_id="42.x0"), "malformed"),
    ],
)
def test_validate_rejects(mutate, fragment):
    record = minimal_record()
    mutate(record)
    problems = validate_record(normalize_record(record))
    assert any(fragment in p for p in problems), problems


def test_bad_prerequisite_fields_rejected():
    record = minimal_record()
    record["contributions"][0]["prerequisites"] = [
        {
            "name": "P",
            "description": "D",
            "explanation": "E",
            "core_or_peripheral": "sometimes",
            "references": [
                {"type": "artifact", "name": "tool", "url": ""},
                {"type": "mystery"},
                {"type": "paper", "paper_title": "T", "matches": [
                    {"contribution_id": "7.c0", "match_type": "maybe"}
                ]},
            ],
        }
    ]
    problems = validate_record(normalize_record(record))
    assert any("core_or_peripheral" in p for p in problems)
    assert any("empty url" in p for p in problems)
    assert any("unknown reference type" in p for p in problems)
    assert any("match_type" in p for p in problems)


def test_dangling_internal_reference_rejected():
    record = minimal_record()
    record["contributions"][0]["prerequisites"] = [
        {
            "name": "P",
            "description": "D",
            "explanation": "E",
            "core_or_peripheral": "core",
            "references": [
                {
                    "type": "internal",
                    "contribution_name": "ghost",
                    "contribution_id": "42.c9",
                    "explanation": "E",
                }
            ],
        }
    ]
    with pytest.raises(RecordValidationError, match="unknown id"):
        parse_record(record)


def test_off_vocabulary_category_warns_but_passes():
    record = minimal_record()
    record["contributions"][0]["types"] = [{"type": "galactic_insight", "explanation": "?"}]
    norm = normalize_record(record)
    assert validate_record(norm) == []
    parsed = parse_record(record)
    assert parsed.contributions[0].types[0].category == "galactic_insight"
    # The label is reported once, by graph validation, not by parsing.
    graph = ContributionGraph()
    graph.add_paper_record(record)
    assert graph.validate() == []
    warnings = graph.validate(include_warnings=True)
    assert [(v.invariant, v.offender, v.severity) for v in warnings] == [
        ("contribution.category", "42.c0", "warning")
    ]
    assert "'galactic_insight'" in warnings[0].message


def test_golden_records_round_trip_byte_identical():
    # parse -> to_json must reproduce the normalized form exactly.
    for raw in load_golden_raw():
        record = parse_record(raw)
        assert record.to_json() == normalize_record(raw)
