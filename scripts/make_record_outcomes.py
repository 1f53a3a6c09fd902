"""Generator for tests/data/record_outcomes.jsonl.

Pins what ``records.parse_record`` and ``records.parse_alignment`` make
of a few hundred inputs: the JSON line of the object built, or the
RecordValidationError raised with its exact problem list. The inputs
are seeded mutations of small bases: two golden records, the attention
paper and BERT (texts cut to 8 characters; BERT keeps its first
contribution and, as id, name and description only, the next four,
which its internal references name), a record holding every reference
kind, the prompt (alias) spelling of each, and two alignments.jsonl
rows. A
mutation drops a field or list entry, nulls it, gives it a value of
another JSON type, sets one of a list of bad ids and dangling or self
internal references, or gives a field a falsy value in its stored
spelling beside its prompt spelling.

Each line is either a base, ``{"base": name, "input": raw}``, or a
case, ``{"case", "parser", "base", "path", ...}``: the input is the
base with the value at ``path`` replaced by ``"value"``, or deleted
when the line has no ``"value"`` (an empty path takes ``"value"`` as
the whole input, or the base itself). The outcome is ``"line"``, or
``"error"`` and ``"problems"``.

Run from the repository root with ``PYTHONPATH=src``. The file is
checked in; regenerate it only when a record rule or its problem text
changes on purpose, and say so where the change is described.
"""
from __future__ import annotations

import copy
import json
import random
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import Any

from contribgraph.errors import RecordValidationError
from contribgraph.jsonl import dump_line
from contribgraph.records import parse_alignment, parse_record

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_records.jsonl"
OUT = ROOT / "tests" / "data" / "record_outcomes.jsonl"
SEED = 24
CASES_PER_BASE = 18
OTHER_TYPES = [0, 7, 2.5, True, False, "", "s", [], ["s"], {}, {"k": "v"}]

KINDS = {
    "corpus_id": "5",
    "title": "Kinds",
    "year": 2021,
    "contributions": [
        {
            "contribution_id": "5.c0",
            "name": "A",
            "description": "a",
            "types": [{"type": "analysis", "explanation": "e"}],
            "sections": ["S1", "S2"],
            "split_from": "5.c0-x",
            "prerequisites": [
                {
                    "name": "P",
                    "description": "p",
                    "explanation": "e",
                    "core_or_peripheral": "core",
                    "references": [
                        {"type": "paper", "paper_title": "T",
                         "first_author": {"last_name": "L", "first_name": "F", "middle_names": None},
                         "paper_year": 2019, "paper_venue": "V", "corpus_id": 8,
                         "matches": [{"contribution_id": "8.c0", "explanation": "m",
                                      "match_type": "weak"}]},
                        {"type": "paper", "paper_title": "Only a title", "paper_year": None,
                         "paper_venue": None, "corpus_id": None, "matches": []},
                        {"type": "paper", "paper_title": "Itself", "corpus_id": "5", "matches": []},
                        {"type": "artifact", "name": "tool", "url": "https://example.org/tool"},
                    ],
                },
                {
                    "name": "Q",
                    "description": "q",
                    "core_or_peripheral": "peripheral",
                    "references": [
                        {"type": "internal", "contribution_name": "B",
                         "contribution_id": "5.c1", "explanation": "i"},
                    ],
                },
            ],
        },
        {"contribution_id": "5.c1", "name": "B", "description": "b", "types": [],
         "sections": [], "prerequisites": []},
    ],
}

ALIGNMENT = {
    "owner_id": "52967399.c0",
    "prereq_index": 2,
    "ref_index": 0,
    "reference": {
        "type": "paper", "paper_title": "Improving language understanding",
        "first_author": {"last_name": "Radford", "first_name": "A"},
        "paper_year": 2018, "paper_venue": "OpenAI", "corpus_id": "49313245",
        "matches": [{"contribution_id": "49313245.c0", "explanation": "GPT",
                     "match_type": "strong"}],
    },
}

# Stored key -> prompt spelling, where the parsers read both.
ALIASES = {
    "types": "contribution_type",
    "references": "references_in_paper",
    "explanation": "justification",
    "paper_title": "title",
    "paper_year": "year",
    "paper_venue": "venue",
}


def cut(value: Any, n: int = 8) -> Any:
    """``value`` with every text (a string with a space) cut to ``n``
    characters; ids and vocabulary labels have none."""
    if isinstance(value, dict):
        return {k: cut(v, n) for k, v in value.items()}
    if isinstance(value, list):
        return [cut(v, n) for v in value]
    return value[:n] if isinstance(value, str) and " " in value else value


def prompt_spelling(value: Any, owner: str = "") -> Any:
    """``value`` in the spelling the generation prompts ask for."""
    if isinstance(value, list):
        return [prompt_spelling(v, owner) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in value.items():
        if key == "contribution_id" and owner in ("matches", "references"):
            alias = "contribution_key"
        else:
            alias = ALIASES.get(key, key)
        if key == "type" and v == "artifact":
            v = "other"
        out[alias] = prompt_spelling(v, key if isinstance(v, list) else owner)
    return out


def bases() -> dict[str, tuple[str, Any]]:
    """Base name -> (parser, input)."""
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    attention, bert = golden[0], golden[3]
    bert["contributions"][1:] = [
        {k: c[k] for k in ("contribution_id", "name", "description")}
        for c in bert["contributions"][1:5]
    ]
    records = {"attention": cut(attention), "bert": cut(bert), "kinds": KINDS}
    out = {name: ("record", r) for name, r in records.items()}
    out.update({f"{name}_prompt": ("record", prompt_spelling(r))
                for name, r in records.items()})
    out["alignment"] = ("alignment", ALIGNMENT)
    out["alignment_prompt"] = ("alignment", prompt_spelling(ALIGNMENT))
    return out


def sites(value: Any, path: tuple = ()) -> list[tuple]:
    """The path of every field and list entry inside ``value``."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, child in children:
        out.append(path + (key,))
        out.extend(sites(child, path + (key,)))
    return out


def mutations(rng: random.Random, raw: Any) -> list[dict[str, Any]]:
    """Every drop and null, and one retype, of every site of ``raw``."""
    out = []
    for path in sites(raw):
        current = reduce(getitem, path, raw)
        others = [v for v in OTHER_TYPES if type(v) is not type(current)]
        out.append({"path": list(path)})
        out.append({"path": list(path), "value": None})
        out.append({"path": list(path), "value": rng.choice(others)})
    return out


# Bad ids and internal references, on the bases that hold their sites,
# and fields given in both spellings.
ID_CASES = [
    ("bert", path, value)
    for path, value in [
        (["corpus_id"], ""),
        (["corpus_id"], 52967399),
        (["corpus_id"], "1"),
        (["contributions", 0, "contribution_id"], ""),
        (["contributions", 0, "contribution_id"], "52967399"),
        (["contributions", 0, "contribution_id"], "52967399.c-1"),
        (["contributions", 0, "contribution_id"], "52967399.cx"),
        (["contributions", 1, "contribution_id"], "52967399.c01"),
        (["contributions", 1, "contribution_id"], "52967399.c0"),
        (["contributions", 2, "contribution_id"], "52967399.c9"),
        (["contributions", 2, "contribution_id"], "13756489.c2"),
    ]
] + [
    (base, path, value)
    for base, refs, cid in [("bert", "references", "contribution_id"),
                            ("bert_prompt", "references_in_paper", "contribution_key")]
    for path, value in [
        (["contributions", 0, "prerequisites", 0, refs, 0, "matches", 1, cid], "13756489-c1"),
        *[
            (["contributions", 0, "prerequisites", k, refs, 0, cid], target)
            for k, target in [(3, "52967399.c0"), (4, "52967399.c9"), (5, "13756489.c0"),
                              (3, "52967399.c4"), (4, "")]
        ],
    ]
] + [
    ("kinds", ["contributions", 0, "prerequisites", 1, "references", 0, "contribution_id"],
     "5.c0"),
    ("kinds", ["contributions", 1, "prerequisites"],
     [{"name": "R", "description": "r", "core_or_peripheral": "core", "references": [
         {"type": "internal", "contribution_id": "5.c1"},
         {"type": "internal", "contribution_id": "5.c7"}]}]),
    ("kinds_prompt", ["contributions", 0, "types"], None),
    ("kinds_prompt", ["contributions", 0, "types"], [{"type": "other"}]),
    *[
        ("kinds_prompt", ["contributions", 0, "prerequisites", 0, "references_in_paper", 0, key],
         value)
        for key, value in [("paper_year", None), ("paper_year", 2000), ("paper_title", "Stored"),
                           ("contribution_id", "8.c1")]
    ],
    ("kinds_prompt", ["contributions", 0, "prerequisites", 0, "references_in_paper", 0,
                      "matches", 0, "contribution_id"], None),
    ("alignment", ["owner_id"], "52967399"),
    ("alignment", ["prereq_index"], -1),
    ("alignment", [], "not an object"),
    ("alignment", [], None),
    ("alignment", [], ["52967399.c0"]),
]


# A stored key given a falsy value beside its prompt spelling: null
# alone counts as absent, so the stored value wins.
PREREQ = ["contributions", 0, "prerequisites"]
ALIAS_CASES = [
    ("kinds_prompt", [*parent, key], value)
    for parent, keys in [
        (["contributions", 0], ["types"]),
        (["contributions", 0, "contribution_type", 0], ["explanation"]),
        ([*PREREQ, 0], ["explanation", "references"]),
        ([*PREREQ, 0, "references_in_paper", 0], ["paper_title", "paper_year", "paper_venue"]),
        ([*PREREQ, 0, "references_in_paper", 0, "matches", 0], ["contribution_id", "explanation"]),
        ([*PREREQ, 1, "references_in_paper", 0], ["contribution_id", "explanation"]),
    ]
    for key in keys
    for value in (0, "", [])
]


def outcome(parser: str, raw: Any) -> dict[str, Any]:
    try:
        if parser == "record":
            built = parse_record(raw)
        else:
            built = parse_alignment(raw, "row 1")
    except RecordValidationError as exc:
        return {"error": type(exc).__name__, "problems": exc.problems}
    return {"line": dump_line(built.to_json())}


def mutated(raw: Any, case: dict[str, Any]) -> Any:
    if not case["path"]:
        return case["value"] if "value" in case else raw
    raw = copy.deepcopy(raw)
    *parents, last = case["path"]
    owner = reduce(getitem, parents, raw)
    if "value" in case:
        owner[last] = case["value"]
    else:
        del owner[last]
    return raw


def main() -> None:
    rng = random.Random(SEED)
    lines = []
    cases = []
    for name, (parser, raw) in bases().items():
        lines.append({"base": name, "input": raw})
        cases.append({"parser": parser, "base": name, "path": []})
        # BERT's prompt spelling takes only its id cases: each line it
        # parses is 3 kB, and the other bases cover the alias spellings.
        picked = rng.sample(mutations(rng, raw), 0 if name == "bert_prompt" else CASES_PER_BASE)
        cases.extend({"parser": parser, "base": name, **m} for m in picked)
    parsers = {name: parser for name, (parser, _) in bases().items()}
    cases.extend(
        {"parser": parsers[b], "base": b, "path": p, "value": v} for b, p, v in ID_CASES + ALIAS_CASES
    )
    raws = {line["base"]: line["input"] for line in lines}
    for number, case in enumerate(cases):
        result = outcome(case["parser"], mutated(raws[case["base"]], case))
        lines.append({"case": number, **case, **result})
    with OUT.open("w", encoding="utf-8") as f:
        for line in lines:
            f.write(dump_line(line) + "\n")
    print(f"wrote {len(cases)} cases, {OUT.stat().st_size} bytes, to {OUT}")


if __name__ == "__main__":
    main()
