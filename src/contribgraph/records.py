"""Input parsing: one walk from a raw dict to the model, and the only
home of the record rules.

This is the one module that knows the shape and the spellings of a
record, a model answer or a paper row. The generation prompts ask for
``contribution_type``/``justification``/``references_in_paper``/
``contribution_key`` (and ``year``/``venue`` inside paper references);
the released record files use ``types``/``explanation``/``references``/
``contribution_id`` and ``paper_year``/``paper_venue``. The parsers read
both; the ``to_json`` methods of ``model`` write the released names,
which are the durable contract. URL references arrive typed ``other``
from the prompts and are stored as ``artifact``.

Each parser checks its input while it builds the ``model`` object,
appending every problem to the caller's list with a ``where`` prefix;
the object is valid only when no problem was added. That includes the
shape rule, at every level: a list field that is not a list, or an
entry of it that is not an object, is a problem, never an exception,
and every entry is named by its position in the raw list. The
extraction pipeline parses stage outputs with these parsers, so they
pass the rules of ingested records, and adds only its stage rules.

A record enters the store only through ``parse_record`` (the graph
parses a dict, the pipeline builds its record from parsed stage
answers), so ``ContributionGraph.validate`` does not check these rules
again. Catalog and papers.jsonl rows enter through ``parse_paper``.

The values that repeat across records are shared where these parsers
build objects, so a loaded store holds one copy of each however many
records name it; ingest, log replay, the pipeline stages and
alignments.jsonl all parse here. Strings are interned (``sys.intern``):
corpus and contribution ids, ``match_type``, ``core_or_peripheral``,
type categories, sections, venues and paper reference titles. A paper
reference's year and ``first_author`` go through memos in this module
(CPython shares only the ints -5..256): one int per year, and one dict
per distinct sequence of ``first_author`` key/value pairs, in key
order, when every value is a string or null. Any other ``first_author``
is kept as it is, since equal values can print differently (``1``,
``1.0``, ``true``). The memos are module-level, like the intern table,
so that every parse path reaches them; they keep one entry per distinct
value parsed in the process. A shared ``first_author`` is never
mutated: the package only reads it and writes it out, and
``tests/test_records.py`` fails on code in the package that changes one
in place.
"""
from __future__ import annotations

import sys
from itertools import chain
from typing import Any, Iterable, Optional

from .errors import RecordValidationError
from .model import (
    CORE_OR_PERIPHERAL,
    MATCH_TYPES,
    ArtifactRef,
    Contribution,
    ContributionType,
    ExtractionRecord,
    InternalRef,
    Match,
    PaperMeta,
    PaperRef,
    PartialDate,
    Prerequisite,
    Reference,
    UnresolvedRef,
    make_contribution_id,
    split_contribution_id,
)


# Paper reference years and first_author objects already parsed: each
# distinct value maps to the one object that every reference shares.
_YEARS: dict[int, int] = {}
_AUTHORS: dict[tuple[Optional[str], ...], dict[str, Optional[str]]] = {}
_STR_OR_NULL = {str, type(None)}


def _shared(value: Any) -> Any:
    """``value`` interned when it is a str, so that records share it."""
    return sys.intern(value) if type(value) is str else value


def _shared_year(year: Any) -> Any:
    """The one int equal to ``year`` (exactly an int, never a bool); any
    other value as it is."""
    return _YEARS.setdefault(year, year) if type(year) is int else year


def _shared_author(author: Any) -> Any:
    """The one dict with ``author``'s keys and values in its key order,
    when it is a dict of strings or nulls; any other value as it is."""
    if type(author) is not dict or not set(map(type, author.values())) <= _STR_OR_NULL:
        return author
    return _AUTHORS.setdefault(tuple(chain.from_iterable(author.items())), author)


def _opt_str(value: Any) -> Optional[str]:
    return None if value is None else sys.intern(str(value))


def _first(obj: dict[str, Any], key: str, alias: str, default: Any = None) -> Any:
    """``obj[key]``, else ``obj[alias]``, else ``default``; null counts as absent."""
    value = obj.get(key)
    if value is None:
        value = obj.get(alias)
        if value is None:
            return default
    return value


def objects(
    value: Any, where: str, field: str, problems: list[str]
) -> Iterable[tuple[int, dict[str, Any]]]:
    """The entries of list field ``field`` that are objects, each with its
    position in the list; null reads as empty. A value that is not a
    list, and each entry that is not an object, is a problem."""
    if type(value) is list:
        for entry in value:
            if type(entry) is not dict:
                problems.extend(
                    f"{where}: {field} must hold objects, got {e!r}"
                    for e in value
                    if type(e) is not dict
                )
                return [(i, e) for i, e in enumerate(value) if type(e) is dict]
        return enumerate(value)
    if value is not None:
        problems.append(f"{where}: {field} must be a list, got {value!r}")
    return ()


def _parse_match(raw: dict[str, Any], where: str, problems: list[str]) -> Match:
    cid = _opt_str(_first(raw, "contribution_id", "contribution_key"))
    if not cid:
        problems.append(f"{where}: match without contribution_id")
    else:
        try:
            split_contribution_id(cid)
        except ValueError:
            problems.append(f"{where}: malformed match id {cid!r}")
    match_type = _shared(raw.get("match_type"))
    if match_type not in MATCH_TYPES:
        problems.append(f"{where}: match_type must be strong or weak, got {match_type!r}")
    return Match(cid, _first(raw, "explanation", "justification", default=""), match_type)


def parse_matches(value: Any, where: str, problems: list[str]) -> list[Match]:
    """A list of matches in either spelling."""
    return [_parse_match(m, where, problems) for _, m in objects(value, where, "matches", problems)]


def parse_reference(
    raw: dict[str, Any], where: str, problems: list[str], omit: Optional[str] = None
) -> Optional[Reference]:
    """One reference in either spelling; None when its type is unknown.

    With ``omit="matches"`` a paper reference's matches are neither
    checked nor kept.
    """
    kind = raw.get("type")
    if kind == "paper":
        ref = PaperRef(
            title=_shared(_first(raw, "paper_title", "title", default="")),
            first_author=_shared_author(raw.get("first_author")),
            year=_shared_year(_first(raw, "paper_year", "year")),
            venue=_shared(_first(raw, "paper_venue", "venue")),
            corpus_id=_opt_str(raw.get("corpus_id")),
        )
        if ref.year is not None and not isinstance(ref.year, int):
            problems.append(f"{where}: paper reference year must be an integer, got {ref.year!r}")
        if ref.first_author is not None and type(ref.first_author) is not dict:
            problems.append(f"{where}: first_author must be an object, got {ref.first_author!r}")
        if omit != "matches":
            ref.matches = parse_matches(raw.get("matches"), where, problems)
        return ref
    if kind == "internal":
        cid = _opt_str(_first(raw, "contribution_id", "contribution_key"))
        if not cid:
            problems.append(f"{where}: internal reference without contribution_id")
        return InternalRef(
            contribution_name=raw.get("contribution_name", ""),
            contribution_id=cid,
            explanation=_first(raw, "explanation", "justification", default=""),
        )
    if kind in ("artifact", "other"):
        artifact = ArtifactRef(name=raw.get("name", ""), url=raw.get("url", ""))
        if not artifact.url:
            problems.append(f"{where}: artifact reference with empty url")
        return artifact
    problems.append(f"{where}: unknown reference type {kind!r}")
    return None


def _parse_prerequisite(
    raw: dict[str, Any], where: str, problems: list[str], omit: Optional[str]
) -> Prerequisite:
    core_or_peripheral = _shared(raw.get("core_or_peripheral"))
    if core_or_peripheral not in CORE_OR_PERIPHERAL:
        problems.append(
            f"{where}: core_or_peripheral must be core or peripheral, got {core_or_peripheral!r}"
        )
    return Prerequisite(
        name=raw.get("name", ""),
        description=raw.get("description", ""),
        explanation=_first(raw, "explanation", "justification", default=""),
        core_or_peripheral=core_or_peripheral,
        references=[
            parse_reference(r, where, problems, omit)
            for _, r in objects(
                _first(raw, "references", "references_in_paper"), where, "references", problems
            )
        ],
    )


def parse_contribution(
    raw: dict[str, Any], cid: str, where: str, problems: list[str], omit: Optional[str] = None
) -> Contribution:
    """One contribution in either spelling, under the id ``cid``.

    Checks name, description, prerequisite kinds and references; the
    id's place in a record and the targets of internal references are
    record-level rules, checked by ``parse_record``. ``omit`` names what
    a pipeline stage does not produce, ``"prerequisites"`` or
    ``"matches"``: it is neither checked nor kept.
    """
    sections = raw.get("sections")
    if type(sections) is not list:
        if sections is not None:
            problems.append(f"{where}: sections must be a list, got {sections!r}")
        sections = []
    contribution = Contribution(
        id=cid,
        name=raw.get("name", ""),
        description=raw.get("description", ""),
        types=[
            ContributionType(
                _shared(t.get("type", "")), _first(t, "explanation", "justification", default="")
            )
            for _, t in objects(_first(raw, "types", "contribution_type"), where, "types", problems)
        ],
        sections=[_shared(s) for s in sections],
        split_from=_opt_str(raw.get("split_from")),
    )
    if not contribution.name:
        problems.append(f"{where}: empty name")
    if not contribution.description:
        problems.append(f"{where}: empty description")
    if omit != "prerequisites":
        prerequisites = objects(raw.get("prerequisites"), where, "prerequisites", problems)
        contribution.prerequisites = [
            _parse_prerequisite(p, f"{where}, prerequisite {p_idx}", problems, omit)
            for p_idx, p in prerequisites
        ]
    return contribution


def parse_alignment(obj: Any, where: str) -> UnresolvedRef:
    """One alignments.jsonl row as the site it aligns, carrying its paper
    reference and that reference's matches. Raises RecordValidationError
    naming ``where`` unless the owner id is well formed, the indices are
    non-negative integers and the reference passes the record rules."""
    row = obj if isinstance(obj, dict) else {}
    problems: list[str] = []
    owner = row.get("owner_id")
    try:
        split_contribution_id(owner)
    except (ValueError, AttributeError):
        problems.append(f"{where}: malformed owner_id {owner!r}")
    for key in ("prereq_index", "ref_index"):
        if type(row.get(key)) is not int or row[key] < 0:
            problems.append(f"{where}: {key} must be a non-negative integer, got {row.get(key)!r}")
    raw = row.get("reference")
    if isinstance(raw, dict) and raw.get("type") == "paper":
        ref = parse_reference(raw, where, problems)
    else:
        problems.append(f"{where}: reference must be a paper reference, got {raw!r}")
    if problems:
        raise RecordValidationError(problems)
    return UnresolvedRef(owner, row["prereq_index"], row["ref_index"], ref)


def parse_paper(row: dict[str, Any]) -> PaperMeta:
    """A catalog or papers.jsonl row's metadata. Raises ValueError when
    the row's corpus_id is missing or empty, its year is not an integer
    or its date is malformed; ``jsonl.read_rows`` names the line."""
    corpus_id = _opt_str(row.get("corpus_id"))
    if not corpus_id:
        raise ValueError("corpus_id missing or empty")
    year = row.get("year")
    if year is not None and not isinstance(year, int):
        raise ValueError(f"year must be an integer, got {year!r}")
    date = row.get("date")
    return PaperMeta(
        corpus_id=corpus_id,
        title=row.get("title", ""),
        year=year,
        date=PartialDate.parse(date) if date else None,
        venue=_shared(row.get("venue")),
    )


def parse_record(raw: dict[str, Any]) -> ExtractionRecord:
    """Check a whole extraction record while building its ExtractionRecord.

    A contribution without an id takes the one of its position. Raises
    RecordValidationError with every problem found. Off-vocabulary
    category labels pass verbatim; `validate --warnings` reports them.
    """
    problems: list[str] = []
    corpus_id = _opt_str(raw.get("corpus_id")) or ""
    if not corpus_id:
        problems.append("record: corpus_id missing or empty")
    year = raw.get("year")
    if year is not None and not isinstance(year, int):
        problems.append(f"record: year must be an integer, got {year!r}")

    contributions: list[Contribution] = []
    sources: list[tuple[str, dict[str, Any]]] = []  # each contribution's where and raw form
    seen_ids: set[str] = set()
    for i, c in objects(raw.get("contributions"), "record", "contributions", problems):
        cid = _opt_str(c.get("contribution_id"))
        if cid is None:
            cid = sys.intern(make_contribution_id(corpus_id, i))
        where = f"contribution {cid or i}"
        try:
            c_corpus, c_index = split_contribution_id(cid)
        except ValueError:
            problems.append(f"{where}: malformed contribution_id {cid!r}")
            c_corpus, c_index = corpus_id, i
        if c_corpus != corpus_id:
            problems.append(f"{where}: id names corpus {c_corpus!r}, record is {corpus_id!r}")
        if c_index != i:
            problems.append(f"{where}: index {c_index} out of record order (position {i})")
        if cid in seen_ids:
            problems.append(f"{where}: duplicate contribution_id")
        seen_ids.add(cid)
        contributions.append(parse_contribution(c, cid, where, problems))
        sources.append((where, c))

    # Internal references must land on another contribution of this same record.
    for (where, raw_c), c in zip(sources, contributions):
        for k, p in enumerate(c.prerequisites):
            for ref in p.references:
                target = ref.contribution_id if isinstance(ref, InternalRef) else None
                if target and (target == c.id or target not in seen_ids):
                    to = "itself" if target == c.id else f"unknown id {target!r}"
                    # Name the prerequisite by its raw position, past any non-object entry.
                    p_idx = [i for i, _ in objects(raw_c["prerequisites"], where, "", [])][k]
                    problems.append(f"{where}, prerequisite {p_idx}: internal reference to {to}")
    if problems:
        raise RecordValidationError(problems)
    return ExtractionRecord(
        corpus_id=corpus_id, title=raw.get("title", ""), year=year, contributions=contributions
    )
