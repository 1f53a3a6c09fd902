from __future__ import annotations

import ast
import copy
import dataclasses
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

import corpus_fixture as cf
from contribgraph import cli, model
from contribgraph.errors import RecordValidationError
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import dump_line, read_rows, write_jsonl
from contribgraph.model import UnresolvedRef
from contribgraph.records import (
    parse_alignment,
    parse_contribution,
    parse_paper,
    parse_record,
    parse_reference,
)

from conftest import GOLDEN_RECORDS, MISSHAPEN_RECORDS


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


def problems_of(record) -> list[str]:
    with pytest.raises(RecordValidationError) as info:
        parse_record(record)
    return info.value.problems


def prerequisite(*references, core_or_peripheral="core"):
    return {
        "name": "P",
        "description": "D",
        "explanation": "E",
        "core_or_peripheral": core_or_peripheral,
        "references": list(references),
    }


def with_prerequisites(*prereqs):
    record = minimal_record()
    record["contributions"][0]["prerequisites"] = list(prereqs)
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
    assert parse_record(raw).to_json() == {
        "corpus_id": "42",
        "title": "A paper",
        "year": 2020,
        "contributions": [
            {
                "contribution_id": "42.c0",
                "name": "Thing",
                "description": "Desc.",
                "types": [{"type": "analysis", "explanation": "why"}],
                "sections": ["S1"],
                "prerequisites": [
                    {
                        "name": "P",
                        "description": "D",
                        "explanation": "J",
                        "core_or_peripheral": "core",
                        "references": [
                            {
                                "type": "paper",
                                "paper_title": "T",
                                "paper_year": 2019,
                                "paper_venue": "V",
                                "corpus_id": "7",
                                "matches": [],
                            },
                            {"type": "artifact", "name": "tool", "url": "https://x"},
                        ],
                    }
                ],
            }
        ],
    }


def test_stored_spelling_passes_unchanged():
    record = parse_record(minimal_record())
    assert record.contributions[0].id == "42.c0"
    assert record.to_json() == minimal_record()


def test_match_contribution_key_alias():
    problems: list[str] = []
    ref = parse_reference(
        {
            "type": "paper",
            "paper_title": "T",
            "paper_year": 2017,
            "paper_venue": "V",
            "corpus_id": "7",
            "matches": [
                {"contribution_key": "7.c1", "justification": "j", "match_type": "weak"}
            ],
        },
        "here",
        problems,
    )
    assert problems == []
    assert ref.to_json()["matches"] == [
        {"contribution_id": "7.c1", "explanation": "j", "match_type": "weak"}
    ]


# Each input spelling (prompt or stored) against the literal stored form.
PAPER_STORED = {
    "type": "paper", "paper_title": "T", "paper_year": 2019, "paper_venue": "V",
    "corpus_id": "7", "matches": [],
}
REFERENCE_ALIASES = [
    ({"type": "paper", "title": "T", "year": 2019, "venue": "V", "corpus_id": 7}, PAPER_STORED),
    (PAPER_STORED, PAPER_STORED),
    # The stored name wins; a null stored value falls back to the alias.
    (
        {"type": "paper", "paper_title": "T", "title": "other", "paper_year": None, "year": 2019,
         "paper_venue": "V", "venue": "other", "corpus_id": "7"},
        PAPER_STORED,
    ),
    (
        {"type": "paper", "paper_title": "T", "first_author": {"last_name": "L"}},
        {"type": "paper", "paper_title": "T", "first_author": {"last_name": "L"},
         "paper_year": None, "paper_venue": None, "corpus_id": None, "matches": []},
    ),
    (
        {"type": "paper", "matches": [
            {"contribution_key": "7.c1", "justification": "j", "match_type": "strong"},
            {"contribution_id": "7.c2", "explanation": "e", "match_type": "weak"},
        ]},
        {"type": "paper", "paper_title": "", "paper_year": None, "paper_venue": None,
         "corpus_id": None, "matches": [
             {"contribution_id": "7.c1", "explanation": "j", "match_type": "strong"},
             {"contribution_id": "7.c2", "explanation": "e", "match_type": "weak"},
         ]},
    ),
    (
        {"type": "internal", "contribution_name": "N", "contribution_key": "42.c1",
         "justification": "j"},
        {"type": "internal", "contribution_name": "N", "contribution_id": "42.c1",
         "explanation": "j"},
    ),
    (
        {"type": "internal", "contribution_id": "42.c1"},
        {"type": "internal", "contribution_name": "", "contribution_id": "42.c1",
         "explanation": ""},
    ),
    ({"type": "other", "name": "tool", "url": "https://x"},
     {"type": "artifact", "name": "tool", "url": "https://x"}),
    ({"type": "artifact", "url": "https://x"},
     {"type": "artifact", "name": "", "url": "https://x"}),
]


@pytest.mark.parametrize("raw, stored", REFERENCE_ALIASES)
def test_reference_alias_parses_to_stored_form(raw, stored):
    problems: list[str] = []
    assert parse_reference(raw, "here", problems).to_json() == stored
    assert problems == []


CONTRIBUTION_STORED = {
    "contribution_id": "42.c0",
    "name": "N",
    "description": "D",
    "types": [{"type": "analysis", "explanation": "why"}],
    "sections": ["S1"],
    "prerequisites": [
        {"name": "P", "description": "PD", "explanation": "J", "core_or_peripheral": "core",
         "references": [{"type": "artifact", "name": "tool", "url": "https://x"}]},
    ],
}
CONTRIBUTION_ALIASES = [
    (
        {"name": "N", "description": "D",
         "contribution_type": [{"type": "analysis", "justification": "why"}],
         "sections": ["S1"],
         "prerequisites": [
             {"name": "P", "description": "PD", "justification": "J",
              "core_or_peripheral": "core",
              "references_in_paper": [{"type": "other", "name": "tool", "url": "https://x"}]},
         ]},
        CONTRIBUTION_STORED,
    ),
    (CONTRIBUTION_STORED, CONTRIBUTION_STORED),
    (
        {"name": "N", "description": "D", "types": [{"type": "analysis"}], "split_from": 3},
        {"contribution_id": "42.c0", "name": "N", "description": "D",
         "types": [{"type": "analysis", "explanation": ""}], "sections": [], "split_from": "3",
         "prerequisites": []},
    ),
]


@pytest.mark.parametrize("raw, stored", CONTRIBUTION_ALIASES)
def test_contribution_alias_parses_to_stored_form(raw, stored):
    problems: list[str] = []
    assert parse_contribution(raw, "42.c0", "here", problems).to_json() == stored
    assert problems == []


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
    problems = problems_of(record)
    assert any(fragment in p for p in problems), problems


WHERE = "contribution 42.c0, prerequisite 0"
# Every record rule's problem text; retry prompts embed these texts.
RULES = {
    "corpus_id_missing": (
        lambda: minimal_record(corpus_id=None, contributions=[]),
        ["record: corpus_id missing or empty"],
    ),
    "year_not_integer": (
        lambda: minimal_record(year="2020"),
        ["record: year must be an integer, got '2020'"],
    ),
    # JSON true and false are Python bools, which isinstance counts as ints.
    "year_is_a_boolean": (
        lambda: minimal_record(year=True),
        ["record: year must be an integer, got True"],
    ),
    # A title or name that is not a string once ingested, then failed
    # frontier, extract or export with a traceback.
    "title_not_a_string": (
        lambda: minimal_record(title=44),
        ["record: title must be a string, got 44"],
    ),
    "malformed_id": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   contribution_id="42-0")]),
        ["contribution 42-0: malformed contribution_id '42-0'"],
    ),
    "empty_id_named_by_position": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   contribution_id="")]),
        ["contribution 0: malformed contribution_id ''"],
    ),
    "foreign_corpus": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   contribution_id="43.c0")]),
        ["contribution 43.c0: id names corpus '43', record is '42'"],
    ),
    "out_of_order": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   contribution_id="42.c5")]),
        ["contribution 42.c5: index 5 out of record order (position 0)"],
    ),
    "duplicate_id": (
        lambda: minimal_record(contributions=minimal_record()["contributions"] * 2),
        ["contribution 42.c0: index 0 out of record order (position 1)",
         "contribution 42.c0: duplicate contribution_id"],
    ),
    "empty_name": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   name="")]),
        ["contribution 42.c0: empty name"],
    ),
    "name_not_a_string": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   name=["Thing"])]),
        ["contribution 42.c0: name must be a string, got ['Thing']"],
    ),
    "empty_description": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   description=None)]),
        ["contribution 42.c0: empty description"],
    ),
    "core_or_peripheral": (
        lambda: with_prerequisites(prerequisite(core_or_peripheral="sometimes")),
        [f"{WHERE}: core_or_peripheral must be core or peripheral, got 'sometimes'"],
    ),
    "match_without_id": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "matches": [{"match_type": "weak"}]})),
        [f"{WHERE}: match without contribution_id"],
    ),
    "malformed_match_id": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "matches": [{"contribution_id": "7-c0", "match_type": "weak"}]})),
        [f"{WHERE}: malformed match id '7-c0'"],
    ),
    "match_type": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "matches": [{"contribution_id": "7.c0", "match_type": "maybe"}]})),
        [f"{WHERE}: match_type must be strong or weak, got 'maybe'"],
    ),
    "reference_year_not_integer": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "paper_title": "t", "paper_year": "2019"})),
        [f"{WHERE}: paper reference year must be an integer, got '2019'"],
    ),
    # The prompt spelling, ``year``, is held to the same rule.
    "reference_year_in_prompt_spelling": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "title": "t", "year": 2019.0})),
        [f"{WHERE}: paper reference year must be an integer, got 2019.0"],
    ),
    "reference_year_is_a_boolean": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "paper_title": "t", "paper_year": False})),
        [f"{WHERE}: paper reference year must be an integer, got False"],
    ),
    "reference_title_not_a_string": (
        lambda: with_prerequisites(prerequisite({"type": "paper", "paper_title": 5})),
        [f"{WHERE}: paper reference title must be a string, got 5"],
    ),
    # The prompt spelling, ``title``, is held to the same rule.
    "reference_title_in_prompt_spelling": (
        lambda: with_prerequisites(prerequisite({"type": "paper", "title": 0})),
        [f"{WHERE}: paper reference title must be a string, got 0"],
    ),
    "first_author_not_object": (
        lambda: with_prerequisites(prerequisite(
            {"type": "paper", "paper_title": "t", "first_author": "Smith"})),
        [f"{WHERE}: first_author must be an object, got 'Smith'"],
    ),
    "internal_without_id": (
        lambda: with_prerequisites(prerequisite({"type": "internal", "contribution_id": ""})),
        [f"{WHERE}: internal reference without contribution_id"],
    ),
    "artifact_without_url": (
        lambda: with_prerequisites(prerequisite({"type": "artifact", "name": "tool"})),
        [f"{WHERE}: artifact reference with empty url"],
    ),
    "unknown_reference_type": (
        lambda: with_prerequisites(prerequisite({"type": "mystery"})),
        [f"{WHERE}: unknown reference type 'mystery'"],
    ),
    "internal_to_unknown_id": (
        lambda: with_prerequisites(prerequisite({"type": "internal", "contribution_id": "42.c9"})),
        [f"{WHERE}: internal reference to unknown id '42.c9'"],
    ),
    "internal_to_itself": (
        lambda: with_prerequisites(prerequisite({"type": "internal", "contribution_id": "42.c0"})),
        [f"{WHERE}: internal reference to itself"],
    ),
    "sections_not_a_list": (
        lambda: minimal_record(contributions=[dict(minimal_record()["contributions"][0],
                                                   sections="Section 1")]),
        ["contribution 42.c0: sections must be a list, got 'Section 1'"],
    ),
    # An entry after a non-object one is named by its own position.
    "contribution_after_a_non_object": (
        lambda: {"corpus_id": "42", "contributions": [
            "x", {"contribution_id": "42.c1", "name": "n", "description": "d"}]},
        ["record: contributions must hold objects, got 'x'"],
    ),
    "prerequisite_after_a_non_object": (
        lambda: with_prerequisites(
            None,
            prerequisite(core_or_peripheral="sometimes"),
            prerequisite({"type": "internal", "contribution_id": "42.c0"}),
        ),
        ["contribution 42.c0: prerequisites must hold objects, got None",
         "contribution 42.c0, prerequisite 1: core_or_peripheral must be core or peripheral,"
         " got 'sometimes'",
         "contribution 42.c0, prerequisite 2: internal reference to itself"],
    ),
    # The shape rule, at each of the five levels.
    **{
        name: (lambda raw=raw: raw, [problem])
        for name, (raw, problem) in MISSHAPEN_RECORDS.items()
    },
    # Record header first, then each contribution in order: its id, its
    # own fields, its prerequisites with their references and matches;
    # internal reference targets last, once every id is known.
    "all_in_order": (
        lambda: {
            "corpus_id": "42",
            "year": 2020.5,
            "contributions": [
                {
                    "contribution_id": "43.c1",
                    "name": "",
                    "description": "",
                    "prerequisites": [
                        prerequisite(
                            {"type": "internal", "contribution_id": "42.c7"},
                            {"type": "paper", "matches": [{"match_type": None}, {}]},
                            {"type": "other", "url": ""},
                            core_or_peripheral=None,
                        ),
                        prerequisite({"type": None}),
                    ],
                },
                {"name": "N", "description": "D"},
            ],
        },
        [
            "record: year must be an integer, got 2020.5",
            "contribution 43.c1: id names corpus '43', record is '42'",
            "contribution 43.c1: index 1 out of record order (position 0)",
            "contribution 43.c1: empty name",
            "contribution 43.c1: empty description",
            "contribution 43.c1, prerequisite 0: core_or_peripheral must be core or"
            " peripheral, got None",
            "contribution 43.c1, prerequisite 0: match without contribution_id",
            "contribution 43.c1, prerequisite 0: match_type must be strong or weak, got None",
            "contribution 43.c1, prerequisite 0: match without contribution_id",
            "contribution 43.c1, prerequisite 0: match_type must be strong or weak, got None",
            "contribution 43.c1, prerequisite 0: artifact reference with empty url",
            "contribution 43.c1, prerequisite 1: unknown reference type None",
            "contribution 43.c1, prerequisite 0: internal reference to unknown id '42.c7'",
        ],
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_problem_text_of_each_rule(rule):
    build, expected = RULES[rule]
    assert problems_of(build()) == expected


PAPER_REF = {"type": "paper", "paper_title": "T", "corpus_id": "7", "matches": []}
ALIGNMENT_RULES = {
    "owner_id": (
        {"owner_id": "42", "prereq_index": 0, "ref_index": 0, "reference": PAPER_REF},
        ["row 1: malformed owner_id '42'"],
    ),
    "indices": (
        {"owner_id": "42.c0", "prereq_index": -1, "ref_index": True, "reference": PAPER_REF},
        ["row 1: prereq_index must be a non-negative integer, got -1",
         "row 1: ref_index must be a non-negative integer, got True"],
    ),
    "not_a_paper_reference": (
        {"owner_id": "42.c0", "prereq_index": 0, "ref_index": 0,
         "reference": {"type": "artifact", "url": "u"}},
        ["row 1: reference must be a paper reference, got {'type': 'artifact', 'url': 'u'}"],
    ),
    "reference_rules": (
        {"reference": dict(PAPER_REF, matches=[{"contribution_id": "7.c0"}])},
        ["row 1: malformed owner_id None",
         "row 1: prereq_index must be a non-negative integer, got None",
         "row 1: ref_index must be a non-negative integer, got None",
         "row 1: match_type must be strong or weak, got None"],
    ),
    "not_an_object": (
        ["42.c0"],
        ["row 1: malformed owner_id None",
         "row 1: prereq_index must be a non-negative integer, got None",
         "row 1: ref_index must be a non-negative integer, got None",
         "row 1: reference must be a paper reference, got None"],
    ),
}


@pytest.mark.parametrize("rule", sorted(ALIGNMENT_RULES))
def test_problem_text_of_each_alignment_rule(rule):
    row, expected = ALIGNMENT_RULES[rule]
    with pytest.raises(RecordValidationError) as info:
        parse_alignment(row, "row 1")
    assert info.value.problems == expected


def test_alignment_parses_to_its_site():
    row = {"owner_id": "42.c0", "prereq_index": 1, "ref_index": 2,
           "reference": {"type": "paper", "title": "T", "year": 2019, "corpus_id": 7}}
    site = parse_alignment(row, "row 1")
    assert (site.owner_id, site.prereq_index, site.ref_index) == ("42.c0", 1, 2)
    assert site.ref.to_json() == {"type": "paper", "paper_title": "T", "paper_year": 2019,
                             "paper_venue": None, "corpus_id": "7", "matches": []}


def test_bad_prerequisite_fields_rejected():
    record = with_prerequisites(
        prerequisite(
            {"type": "artifact", "name": "tool", "url": ""},
            {"type": "mystery"},
            {"type": "paper", "paper_title": "T", "matches": [
                {"contribution_id": "7.c0", "match_type": "maybe"}
            ]},
            core_or_peripheral="sometimes",
        )
    )
    problems = problems_of(record)
    assert any("core_or_peripheral" in p for p in problems)
    assert any("empty url" in p for p in problems)
    assert any("unknown reference type" in p for p in problems)
    assert any("match_type" in p for p in problems)


def test_dangling_internal_reference_rejected():
    record = with_prerequisites(
        prerequisite(
            {
                "type": "internal",
                "contribution_name": "ghost",
                "contribution_id": "42.c9",
                "explanation": "E",
            }
        )
    )
    with pytest.raises(RecordValidationError, match="unknown id"):
        parse_record(record)


def test_off_vocabulary_category_warns_but_passes():
    record = minimal_record()
    record["contributions"][0]["types"] = [{"type": "galactic_insight", "explanation": "?"}]
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


OUTCOMES = Path(__file__).parent / "data" / "record_outcomes.jsonl"


def pinned_input(bases: dict, case: dict):
    """A record_outcomes.jsonl case's input: its base with the value at
    ``path`` replaced by ``value``, or deleted when there is none."""
    raw = copy.deepcopy(bases[case["base"]])
    if not case["path"]:
        return case.get("value", raw)
    *parents, last = case["path"]
    owner = reduce(getitem, parents, raw)
    if "value" in case:
        owner[last] = case["value"]
    else:
        del owner[last]
    return raw


def test_parse_outcomes_match_the_pinned_file():
    """Every mutated record and alignment row that
    scripts/make_record_outcomes.py pinned still parses to the same line,
    or fails with the same exception and problems in the same order."""
    rows = [json.loads(line) for line in OUTCOMES.read_text(encoding="utf-8").splitlines()]
    bases = {row["base"]: row["input"] for row in rows if "case" not in row}
    cases = [row for row in rows if "case" in row]
    assert len(cases) > 200
    wrong = []
    for case in cases:
        raw = pinned_input(bases, case)
        try:
            if case["parser"] == "record":
                built = parse_record(raw)
            else:
                built = parse_alignment(raw, "row 1")
            got = {"line": dump_line(built.to_json())}
        except RecordValidationError as exc:
            got = {"error": type(exc).__name__, "problems": exc.problems}
        expected = {k: case[k] for k in ("line", "error", "problems") if k in case}
        if got != expected:
            wrong.append((case["case"], expected, got))
    assert wrong == []


def test_golden_records_round_trip_byte_identical():
    # A stored record parses and serializes back to its own line.
    for line in GOLDEN_RECORDS.read_text(encoding="utf-8").splitlines():
        assert dump_line(parse_record(json.loads(line)).to_json()) == line


def test_model_objects_carry_no_instance_dict():
    """Every model dataclass, and UnresolvedRef, is slotted: a store of
    millions of them keeps no per-instance __dict__."""
    classes = [
        cls for cls in vars(model).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == model.__name__
    ]
    assert len(classes) >= 12
    for cls in [*classes, UnresolvedRef]:
        assert "__slots__" in vars(cls), cls
        required = [
            f for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ]
        assert not hasattr(cls(*[None] * len(required)), "__dict__"), cls


CITED = {
    "type": "paper",
    "paper_title": "A cited paper",
    "first_author": {"last_name": "Brandt", "first_name": "A", "middle_names": None},
    "paper_year": 2019,  # outside CPython's cache of small ints
    "paper_venue": "ACL",
    "corpus_id": "900001",
    "matches": [{"contribution_id": "900001.c0", "explanation": "e", "match_type": "strong"}],
}


def citing(corpus_id: str, *references) -> dict:
    """A one-contribution record whose prerequisite cites ``references``
    (default: CITED), decoded afresh so that no value is shared before
    parsing."""
    raw = with_prerequisites(prerequisite(*(references or [CITED]), core_or_peripheral="peripheral"))
    raw["corpus_id"] = corpus_id
    raw["contributions"][0]["contribution_id"] = f"{corpus_id}.c0"
    return json.loads(json.dumps(raw))


def cited_references(records) -> list[model.PaperRef]:
    return [
        ref
        for record in records
        for c in record.contributions
        for prereq in c.prerequisites
        for ref in prereq.references
    ]


def assert_shared(ref_a: model.PaperRef, ref_b: model.PaperRef) -> None:
    assert ref_a.to_json() == ref_b.to_json() == CITED
    for name in ("title", "first_author", "year", "venue", "corpus_id"):
        assert getattr(ref_a, name) is getattr(ref_b, name), name


def test_repeated_values_are_one_object_across_records():
    """Two records citing one paper share its corpus id, title, year,
    first_author, match_type and core_or_peripheral instead of holding a
    copy each, and two records of one year share that year."""
    record_a, record_b = parse_record(citing("800001")), parse_record(citing("800002"))
    assert record_a.year == 2020 and record_a.year is record_b.year
    ref_a, ref_b = cited_references([record_a, record_b])
    assert_shared(ref_a, ref_b)
    assert ref_a.matches[0].match_type is ref_b.matches[0].match_type
    assert ref_a.matches[0].contribution_id is ref_b.matches[0].contribution_id
    prereq_a = record_a.contributions[0].prerequisites[0]
    prereq_b = record_b.contributions[0].prerequisites[0]
    assert prereq_a.core_or_peripheral == "peripheral"
    assert prereq_a.core_or_peripheral is prereq_b.core_or_peripheral


def test_store_shares_cited_values_after_load_and_after_ingest(tmp_path):
    """A replayed log shares one title, year and first_author per cited
    paper, and a record ingested on top of it (read as `ingest` reads
    it) shares them too."""
    write_jsonl(tmp_path / "records.jsonl", [citing("800001"), citing("800002")])
    graph = ContributionGraph.load(tmp_path)
    ref_a, ref_b = cited_references(graph.records())
    assert_shared(ref_a, ref_b)

    write_jsonl(tmp_path / "new.jsonl", [citing("800003")])
    for record in read_rows(tmp_path / "new.jsonl", parse_record):
        graph.add_paper_record(record)
    *_, ref_c = cited_references(graph.records())
    assert_shared(ref_a, ref_c)


def test_papers_of_one_date_share_its_year_and_date():
    """Catalog and papers.jsonl rows of one year and date share one int
    and one frozen PartialDate, whichever spelling of the date they use."""
    rows = json.loads('[{"corpus_id": "1", "year": 2019, "date": "2019-05"},'
                      ' {"corpus_id": "2", "year": 2019, "date": "2019-05"},'
                      ' {"corpus_id": "3", "year": 2019, "date": "2019-5"}]')
    a, b, c = (parse_paper(row) for row in rows)
    assert a.year == 2019 and a.year is b.year is c.year
    assert a.date == model.PartialDate(2019, 5) == c.date and a.date is b.date
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.date.month = 6


def lists_in(value, path: str) -> list[str]:
    """The path of every list reachable from ``value`` through dataclass
    fields, tuples and dicts."""
    if type(value) is list:
        return [path]
    if type(value) is tuple:
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    elif type(value) is dict:
        items = [(f"{path}[{key!r}]", item) for key, item in value.items()]
    elif dataclasses.is_dataclass(value):
        items = [(f"{path}.{f.name}", getattr(value, f.name)) for f in dataclasses.fields(value)]
    else:
        return []
    return [found for sub, item in items for found in lists_in(item, sub)]


def test_records_hold_no_list(corpus, tmp_path, monkeypatch):
    """Every record a graph holds keeps its sequences in tuples, whether
    `ingest` parsed it, a replay-mock `extract` built it, or a load
    replayed it; and the record the CLI built equals the one the reload
    replays."""
    built = []  # each graph a CLI step loaded, and then built on
    real_load_store = cli.load_store

    def load_store(store):
        built.append(real_load_store(store))
        return built[-1]

    def run(*argv) -> int:
        return cli.dispatch([str(a) for a in argv])

    monkeypatch.setattr(cli, "load_store", load_store)
    ingested, extracted = tmp_path / "ingested", tmp_path / "extracted"
    assert run("ingest", "--store", ingested, "--records", GOLDEN_RECORDS) == 0
    from_ingest = built[-1]
    assert run("ingest", "--store", extracted, "--catalog", corpus.catalog_path) == 0
    assert run(
        "extract", *cf.EXTRACTION_ORDER, "--store", extracted,
        "--catalog", corpus.catalog_path, "--mock", corpus.mock_dir,
    ) == 0
    from_extract = built[-1]
    assert len(from_extract.records()) == len(cf.EXTRACTION_ORDER)

    for store, graph in ((ingested, from_ingest), (extracted, from_extract)):
        reloaded = ContributionGraph.load(store)
        for route in (graph, reloaded):
            assert route.records()
            assert [p for r in route.records() for p in lists_in(r, r.corpus_id)] == []
            assert [p for m in route.papers.values() for p in lists_in(m, m.corpus_id)] == []
        assert graph.records() == reloaded.records()
        assert graph.papers == reloaded.papers


# Pairs of first_author objects that compare equal, or hold the same
# pairs in another order, yet print differently: each is kept as it is.
UNSHARED_AUTHORS = {
    "key_order": ({"last_name": "L", "first_name": "F"}, {"first_name": "F", "last_name": "L"}),
    "list_value": ({"last_name": "L", "middle_names": ["M"]},) * 2,
    "int_and_bool": ({"last_name": "L", "rank": 1}, {"last_name": "L", "rank": True}),
    "int_and_float": ({"last_name": "L", "rank": 1}, {"last_name": "L", "rank": 1.0}),
    "nested_object": ({"last_name": "L", "ids": {"orcid": "0"}},) * 2,
}


@pytest.mark.parametrize("name", sorted(UNSHARED_AUTHORS))
def test_first_author_that_could_print_differently_is_not_merged(name):
    lines = [
        json.dumps(citing(corpus_id, {**CITED, "first_author": author}), ensure_ascii=False)
        for corpus_id, author in zip(("800001", "800002"), UNSHARED_AUTHORS[name])
    ]
    records = [parse_record(json.loads(line)) for line in lines]
    assert [dump_line(record.to_json()) for record in records] == lines
    ref_a, ref_b = cited_references(records)
    assert ref_a.first_author is not ref_b.first_author


MUTATING_METHODS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}


def test_no_code_mutates_a_shared_first_author():
    """Every first_author dict of equal strings is one shared object, so
    no module may change one in place: no item assignment or deletion,
    augmented assignment or mutating method call on ``….first_author``."""
    package = Path(model.__file__).parent

    def is_first_author(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "first_author"

    offences = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            item_write = (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_first_author(node.value)
            )
            in_place = isinstance(node, ast.AugAssign) and is_first_author(node.target)
            method = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and is_first_author(node.func.value)
            )
            if item_write or in_place or method:
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []
