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

Each parser checks its input in the one walk that builds the ``model``
object, appending every problem to the caller's list with a ``where``
prefix; the object is valid only when no problem was added. A prefix is
formatted (``_at``) only when a problem is appended: until then a
contribution or prerequisite is named by a tuple, so a valid record
formats none. The rules include the shape rule, at every level: a list
field that is not a list, or an entry of it that is not an object, is a
problem, never an exception, and every entry is named by its position
in the raw list. The extraction pipeline parses stage outputs with
these parsers and the one internal-reference rule, ``check_internal``
(a record's ids, an answer's keys), and adds only its stage rules.

A record enters the store only through ``parse_record`` (the graph
parses a dict, the pipeline builds its record from parsed stage
answers), so ``ContributionGraph.validate`` does not check these rules
again. Catalog and papers.jsonl rows enter through ``parse_paper``.

The values that repeat across records are shared where these parsers
build objects, so a loaded store holds one copy of each however many
records name it; ingest, log replay, the pipeline stages and
alignments.jsonl all parse here. Strings are interned (``sys.intern``):
corpus and contribution ids, ``match_type``, ``core_or_peripheral``,
type categories, sections, venues and paper reference titles. Years,
dates and a paper reference's ``first_author`` go through memos in this
module (CPython shares only the ints -5..256): one int per year, of a
record, a paper reference or a catalog or papers.jsonl row; one frozen
``PartialDate`` per date text; and one dict per distinct sequence of
``first_author`` key/value pairs, in key order, when every value is a
string or null. Any other ``first_author`` is kept as it is, since
equal values can print differently (``1``, ``1.0``, ``true``). The
memos are module-level, like the intern table, so that every parse path
reaches them; they keep one entry per distinct value parsed in the
process. Every sequence a parser builds is a tuple (``model``), and an
empty one is the shared ``()``. A shared ``first_author`` is never
mutated: the package only reads it and writes it out, and
``tests/test_records.py`` fails on code in the package that changes one
in place.
"""
from __future__ import annotations

from sys import intern
from typing import Any, Iterable, Optional, Union

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


# Years, dates (by their text) and first_author objects already parsed:
# each distinct value maps to the one object that every parse shares.
_YEARS: dict[int, int] = {}
_DATES: dict[str, PartialDate] = {}
_AUTHORS: dict[tuple[tuple[str, Optional[str]], ...], dict[str, Optional[str]]] = {}

# A problem's location: its text, or (owner, label, index), whose text
# ``_at`` builds only when a problem is found there.
Where = Union[str, tuple[Any, str, Any]]
# An internal reference as collected: where, owner id, prerequisite position, target.
Internal = tuple[Where, str, int, str]


def _at(where: Where) -> str:
    if type(where) is str:
        return where
    owner, label, index = where
    return f"{_at(owner)}{label}{index}"


def _first(obj: dict[str, Any], key: str, alias: str, default: Any = None) -> Any:
    """``obj[key]``, else ``obj[alias]``, else ``default``; null counts as
    absent. Called as ``obj.get(key) or _first(…)``, the same value, so a
    field that holds a non-empty value costs no call."""
    value = obj.get(key)
    if value is None:
        value = obj.get(alias)
        if value is None:
            return default
    return value


def _not_a_list(value: Any, where: Where, field: str, problems: list[str]) -> tuple[()]:
    """No entries for list field ``field``: null reads as empty, and any
    other value that is not a list is a problem."""
    if value is not None:
        problems.append(f"{_at(where)}: {field} must be a list, got {value!r}")
    return ()


def _not_an_object(entry: Any, where: Where, field: str, problems: list[str], mark: int) -> int:
    """Put the problem of an entry of list ``field`` that is not an object at
    ``mark``, before any found in the list's objects; returns the next mark."""
    problems.insert(mark, f"{_at(where)}: {field} must hold objects, got {entry!r}")
    return mark + 1


def objects(
    value: Any, where: Where, field: str, problems: list[str]
) -> Iterable[tuple[int, dict[str, Any]]]:
    """The entries of list field ``field`` that are objects, each with its
    position in the list; null reads as empty. A value that is not a
    list, and each entry that is not an object, is a problem."""
    out, mark = [], len(problems)
    listed = value if type(value) is list else _not_a_list(value, where, field, problems)
    for i, entry in enumerate(listed):
        if type(entry) is not dict:
            mark = _not_an_object(entry, where, field, problems, mark)
            continue
        out.append((i, entry))
    return out


def parse_matches(value: Any, where: Where, problems: list[str]) -> tuple[Match, ...]:
    """A list of matches in either spelling."""
    matches, mark = [], len(problems)
    for raw in value if type(value) is list else _not_a_list(value, where, "matches", problems):
        if type(raw) is not dict:
            mark = _not_an_object(raw, where, "matches", problems, mark)
            continue
        get = raw.get
        cid = get("contribution_id") or _first(raw, "contribution_id", "contribution_key")
        cid = None if cid is None else intern(str(cid))
        if not cid:
            problems.append(f"{_at(where)}: match without contribution_id")
        else:
            try:
                split_contribution_id(cid)
            except ValueError:
                problems.append(f"{_at(where)}: malformed match id {cid!r}")
                cid = None  # one complaint: later rules skip a missing id
        match_type = get("match_type")
        match_type = intern(match_type) if type(match_type) is str else match_type
        if match_type not in MATCH_TYPES:
            problems.append(f"{_at(where)}: match_type must be strong or weak, got {match_type!r}")
        explanation = get("explanation") or _first(raw, "explanation", "justification", "")
        matches.append(Match(cid, explanation, match_type))
    return tuple(matches)


def parse_reference(
    raw: dict[str, Any], where: Where, problems: list[str], omit: Optional[str] = None
) -> Optional[Reference]:
    """One reference in either spelling; None when its type is unknown.

    With ``omit="matches"`` a paper reference's matches are neither
    checked nor kept.
    """
    get = raw.get
    kind = get("type")
    if kind == "paper":
        year = get("paper_year") or _first(raw, "paper_year", "year")
        if type(year) is int:
            year = _YEARS.setdefault(year, year)
        elif year is not None:
            problems.append(f"{_at(where)}: paper reference year must be an integer, got {year!r}")
        author = get("first_author")
        if type(author) is dict:
            # Only dicts of strings and nulls are kept: a hit needs no type check.
            key = tuple(author.items())
            try:
                author = _AUTHORS[key]
            except TypeError:  # a list or object value: not shared
                pass
            except KeyError:
                if all(value is None or type(value) is str for value in author.values()):
                    _AUTHORS[key] = author
        elif author is not None:
            problems.append(f"{_at(where)}: first_author must be an object, got {author!r}")
        title = get("paper_title") or _first(raw, "paper_title", "title", "")
        if type(title) is str:
            title = intern(title)
        else:
            problems.append(f"{_at(where)}: paper reference title must be a string, got {title!r}")
        venue = get("paper_venue") or _first(raw, "paper_venue", "venue")
        corpus_id = get("corpus_id")
        return PaperRef(
            title, author, year, intern(venue) if type(venue) is str else venue,
            None if corpus_id is None else intern(str(corpus_id)),
            () if omit == "matches" else parse_matches(get("matches"), where, problems),
        )
    if kind == "internal":
        cid = get("contribution_id") or _first(raw, "contribution_id", "contribution_key")
        cid = None if cid is None else intern(str(cid))
        if not cid:
            problems.append(f"{_at(where)}: internal reference without contribution_id")
        explanation = get("explanation") or _first(raw, "explanation", "justification", "")
        return InternalRef(get("contribution_name", ""), cid, explanation)
    if kind in ("artifact", "other"):
        url = get("url", "")
        if not url:
            problems.append(f"{_at(where)}: artifact reference with empty url")
        return ArtifactRef(get("name", ""), url)
    problems.append(f"{_at(where)}: unknown reference type {kind!r}")
    return None


def parse_contribution(
    raw: dict[str, Any],
    cid: str,
    where: Where,
    problems: list[str],
    omit: Optional[str] = None,
    internal: Optional[list[Internal]] = None,
) -> Contribution:
    """One contribution in either spelling, under the id ``cid``.

    Checks name, description, prerequisite kinds and references; the
    id's place in a record is checked by ``parse_record``, and the
    targets of internal references by ``check_internal``, once every id
    is known, for which ``internal`` collects each internal reference
    (an ``Internal``). ``omit`` names what a pipeline
    stage does not produce, ``"prerequisites"`` or ``"matches"``: it is
    neither checked nor kept.
    """
    get = raw.get
    sections = get("sections")
    if type(sections) is not list:
        sections = _not_a_list(sections, where, "sections", problems)
    types = get("types") or _first(raw, "types", "contribution_type")
    categories, mark = [], len(problems)
    for t in types if type(types) is list else _not_a_list(types, where, "types", problems):
        if type(t) is not dict:
            mark = _not_an_object(t, where, "types", problems, mark)
            continue
        category = t.get("type", "")
        category = intern(category) if type(category) is str else category
        explanation = t.get("explanation") or _first(t, "explanation", "justification", "")
        categories.append(ContributionType(category, explanation))
    name, description = get("name", ""), get("description", "")
    if not name:
        problems.append(f"{_at(where)}: empty name")
    elif type(name) is not str:
        problems.append(f"{_at(where)}: name must be a string, got {name!r}")
    if not description:
        problems.append(f"{_at(where)}: empty description")
    prerequisites, mark = [], len(problems)
    prereqs = get("prerequisites") if omit != "prerequisites" else None
    for p_idx, p in enumerate(
        prereqs if type(prereqs) is list else _not_a_list(prereqs, where, "prerequisites", problems)
    ):
        if type(p) is not dict:
            mark = _not_an_object(p, where, "prerequisites", problems, mark)
            continue
        p_get, at = p.get, (where, ", prerequisite ", p_idx)
        core_or_peripheral = p_get("core_or_peripheral")
        if type(core_or_peripheral) is str:
            core_or_peripheral = intern(core_or_peripheral)
        if core_or_peripheral not in CORE_OR_PERIPHERAL:
            problems.append(
                f"{_at(at)}: core_or_peripheral must be core or peripheral,"
                f" got {core_or_peripheral!r}"
            )
        explanation = p_get("explanation") or _first(p, "explanation", "justification", "")
        value = p_get("references") or _first(p, "references", "references_in_paper")
        refs, r_mark = [], len(problems)
        for r in value if type(value) is list else _not_a_list(value, at, "references", problems):
            if type(r) is not dict:
                r_mark = _not_an_object(r, at, "references", problems, r_mark)
                continue
            ref = parse_reference(r, at, problems, omit)
            if internal is not None and type(ref) is InternalRef:
                internal.append((where, cid, p_idx, ref.contribution_id))
            refs.append(ref)
        prerequisites.append(Prerequisite(
            p_get("name", ""), p_get("description", ""), explanation, core_or_peripheral,
            tuple(refs),
        ))
    split_from = get("split_from")
    return Contribution(
        cid, name, description, tuple(categories),
        tuple([intern(s) if type(s) is str else s for s in sections]),
        None if split_from is None else intern(str(split_from)), tuple(prerequisites),
    )


def check_internal(internal: list[Internal], known: set[str], noun: str, problems: list[str]) -> None:
    """The one internal-reference rule, for records and stage answers: each
    target in ``internal`` (from ``parse_contribution``) is another
    contribution, one of ``known``, whose ``noun`` is "id" or "key"."""
    for where, cid, p_idx, target in internal:
        if target and (target == cid or target not in known):
            to = "itself" if target == cid else f"unknown {noun} {target!r}"
            problems.append(f"{_at(where)}, prerequisite {p_idx}: internal reference to {to}")


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


def _date(value: Any) -> PartialDate:
    """``PartialDate.parse(value)``, one object per date text."""
    text = str(value)
    date = _DATES.get(text)
    if date is None:
        date = _DATES[text] = PartialDate.parse(value)
    return date


def parse_paper(row: dict[str, Any]) -> PaperMeta:
    """A catalog or papers.jsonl row's metadata. Raises ValueError when its
    corpus_id is missing or empty, its year is no integer, its title no
    string or its date malformed; ``jsonl.read_rows`` names the line."""
    corpus_id = row.get("corpus_id")
    corpus_id = "" if corpus_id is None else intern(str(corpus_id))
    if not corpus_id:
        raise ValueError("corpus_id missing or empty")
    year = row.get("year")
    if type(year) is int:
        year = _YEARS.setdefault(year, year)
    elif year is not None:
        raise ValueError(f"year must be an integer, got {year!r}")
    title = row.get("title")
    if type(title) is not str and title is not None:
        raise ValueError(f"title must be a string, got {title!r}")
    date, venue = row.get("date"), row.get("venue")
    return PaperMeta(
        corpus_id=corpus_id,
        title=title or "",  # null reads as absent
        year=year,
        date=_date(date) if date else None,
        venue=intern(venue) if type(venue) is str else venue,
    )


def parse_record(raw: dict[str, Any]) -> ExtractionRecord:
    """Check a whole extraction record while building its ExtractionRecord.

    A contribution without an id takes the one of its position. Raises
    RecordValidationError with every problem found. Off-vocabulary
    category labels pass verbatim; `validate --warnings` reports them.
    The walk collects internal references as it meets them and checks
    their targets at its end, once every id of the record is known.
    """
    problems: list[str] = []
    corpus_id = raw.get("corpus_id")
    corpus_id = "" if corpus_id is None else intern(str(corpus_id))
    if not corpus_id:
        problems.append("record: corpus_id missing or empty")
    year = raw.get("year")
    if type(year) is int:
        year = _YEARS.setdefault(year, year)
    elif year is not None:
        problems.append(f"record: year must be an integer, got {year!r}")
    title = raw.get("title", "")
    if type(title) is not str and title is not None:
        problems.append(f"record: title must be a string, got {title!r}")

    contributions: list[Contribution] = []
    seen_ids: set[str] = set()
    internal: list[Internal] = []
    value, mark = raw.get("contributions"), len(problems)
    for i, c in enumerate(
        value if type(value) is list else _not_a_list(value, "record", "contributions", problems)
    ):
        if type(c) is not dict:
            mark = _not_an_object(c, "record", "contributions", problems, mark)
            continue
        cid = c.get("contribution_id")
        cid = intern(make_contribution_id(corpus_id, i) if cid is None else str(cid))
        where = ("contribution", " ", cid or i)
        try:
            c_corpus, c_index = split_contribution_id(cid)
        except ValueError:
            problems.append(f"{_at(where)}: malformed contribution_id {cid!r}")
            c_corpus, c_index = corpus_id, i
        if c_corpus != corpus_id:
            problems.append(f"{_at(where)}: id names corpus {c_corpus!r}, record is {corpus_id!r}")
        if c_index != i:
            problems.append(f"{_at(where)}: index {c_index} out of record order (position {i})")
        if cid in seen_ids:
            problems.append(f"{_at(where)}: duplicate contribution_id")
        seen_ids.add(cid)
        contributions.append(parse_contribution(c, cid, where, problems, internal=internal))

    check_internal(internal, seen_ids, "id", problems)
    if problems:
        raise RecordValidationError(problems)
    return ExtractionRecord(corpus_id, title, year, tuple(contributions))
