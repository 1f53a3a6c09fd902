"""Extraction-record normalization and schema validation.

Two spellings of the same record exist in the wild: the generation
prompts ask for ``contribution_type``/``justification``/
``references_in_paper`` (and ``year``/``venue`` inside paper
references), while the released record files use ``types``/
``explanation``/``references`` and ``paper_year``/``paper_venue``.
Ingestion accepts both and normalizes to the released-file names, which
are the durable contract. URL references arrive typed ``other`` from
the prompts and are stored as ``artifact``.

The per-contribution rules (``check_contribution``) and the typed
constructor (``contribution_from_json``) are shared with the extraction
pipeline, so stage outputs pass the same schema rules as ingested
records; the stages add only their own rules on top.
"""
from __future__ import annotations

from typing import Any, Optional

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
    PaperRef,
    Prerequisite,
    make_contribution_id,
    split_contribution_id,
)


def _opt_str(value: Any) -> Optional[str]:
    if value is None:
        return None
    return str(value)


def _first(obj: dict[str, Any], *keys: str, default: Any = None) -> Any:
    for key in keys:
        if key in obj and obj[key] is not None:
            return obj[key]
    return default


def normalize_reference(raw: dict[str, Any]) -> dict[str, Any]:
    """Normalize one reference dict to the stored key spelling."""
    kind = raw.get("type")
    if kind == "paper":
        out: dict[str, Any] = {
            "type": "paper",
            "paper_title": _first(raw, "paper_title", "title", default=""),
        }
        if raw.get("first_author") is not None:
            out["first_author"] = raw["first_author"]
        out["paper_year"] = _first(raw, "paper_year", "year")
        out["paper_venue"] = _first(raw, "paper_venue", "venue")
        out["corpus_id"] = _opt_str(raw.get("corpus_id"))
        out["matches"] = [
            {
                "contribution_id": _opt_str(_first(m, "contribution_id", "contribution_key")),
                "explanation": _first(m, "explanation", "justification", default=""),
                "match_type": m.get("match_type"),
            }
            for m in raw.get("matches", [])
        ]
        return out
    if kind == "internal":
        return {
            "type": "internal",
            "contribution_name": raw.get("contribution_name", ""),
            "contribution_id": _opt_str(_first(raw, "contribution_id", "contribution_key")),
            "explanation": _first(raw, "explanation", "justification", default=""),
        }
    if kind in ("artifact", "other"):
        return {
            "type": "artifact",
            "name": raw.get("name", ""),
            "url": raw.get("url", ""),
        }
    # Unknown kind is kept as-is; validation reports it.
    return dict(raw)


def normalize_contribution(raw: dict[str, Any]) -> dict[str, Any]:
    """Normalize one contribution dict to the stored key spelling."""
    out: dict[str, Any] = {}
    if raw.get("contribution_id") is not None:
        out["contribution_id"] = str(raw["contribution_id"])
    out["name"] = raw.get("name", "")
    out["description"] = raw.get("description", "")
    out["types"] = [
        {
            "type": t.get("type", ""),
            "explanation": _first(t, "explanation", "justification", default=""),
        }
        for t in _first(raw, "types", "contribution_type", default=[])
    ]
    out["sections"] = list(raw.get("sections", []))
    if raw.get("split_from") is not None:
        out["split_from"] = str(raw["split_from"])
    out["prerequisites"] = [
        {
            "name": p.get("name", ""),
            "description": p.get("description", ""),
            "explanation": _first(p, "explanation", "justification", default=""),
            "core_or_peripheral": p.get("core_or_peripheral"),
            "references": [
                normalize_reference(r)
                for r in _first(p, "references", "references_in_paper", default=[])
            ],
        }
        for p in raw.get("prerequisites", [])
    ]
    return out


def normalize_record(raw: dict[str, Any]) -> dict[str, Any]:
    """Normalize a whole extraction record; missing ids are assigned by position."""
    corpus_id = _opt_str(raw.get("corpus_id")) or ""
    contributions = [normalize_contribution(c) for c in raw.get("contributions", [])]
    for i, contribution in enumerate(contributions):
        contribution.setdefault("contribution_id", make_contribution_id(corpus_id, i))
    return {
        "corpus_id": corpus_id,
        "title": raw.get("title", ""),
        "year": raw.get("year"),
        "contributions": contributions,
    }


def _validate_reference(ref: dict[str, Any], where: str, problems: list[str]) -> None:
    kind = ref.get("type")
    if kind == "paper":
        for match in ref.get("matches", []):
            if not match.get("contribution_id"):
                problems.append(f"{where}: match without contribution_id")
            else:
                try:
                    split_contribution_id(match["contribution_id"])
                except ValueError:
                    problems.append(
                        f"{where}: malformed match id {match['contribution_id']!r}"
                    )
            if match.get("match_type") not in MATCH_TYPES:
                problems.append(
                    f"{where}: match_type must be strong or weak, got {match.get('match_type')!r}"
                )
    elif kind == "internal":
        if not ref.get("contribution_id"):
            problems.append(f"{where}: internal reference without contribution_id")
    elif kind == "artifact":
        if not ref.get("url"):
            problems.append(f"{where}: artifact reference with empty url")
    else:
        problems.append(f"{where}: unknown reference type {kind!r}")


def check_contribution(c: dict[str, Any], where: str) -> list[str]:
    """Schema-check one normalized contribution apart from its id.

    Covers name, description, prerequisite kinds and references; the
    id's place in a record and the targets of internal references are
    record-level rules, checked by ``validate_record``.
    """
    problems: list[str] = []
    if not c.get("name"):
        problems.append(f"{where}: empty name")
    if not c.get("description"):
        problems.append(f"{where}: empty description")
    for p_idx, p in enumerate(c.get("prerequisites", [])):
        p_where = f"{where}, prerequisite {p_idx}"
        if p.get("core_or_peripheral") not in CORE_OR_PERIPHERAL:
            problems.append(
                f"{p_where}: core_or_peripheral must be core or peripheral,"
                f" got {p.get('core_or_peripheral')!r}"
            )
        for ref in p.get("references", []):
            _validate_reference(ref, p_where, problems)
    return problems


def validate_record(obj: dict[str, Any]) -> list[str]:
    """Schema-check a normalized record; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    corpus_id = obj.get("corpus_id")
    if not corpus_id:
        problems.append("record: corpus_id missing or empty")
        corpus_id = ""
    year = obj.get("year")
    if year is not None and not isinstance(year, int):
        problems.append(f"record: year must be an integer, got {year!r}")

    seen_ids: set[str] = set()
    internal_targets: list[tuple[str, str]] = []
    for i, c in enumerate(obj.get("contributions", [])):
        cid = c.get("contribution_id", "")
        where = f"contribution {cid or i}"
        try:
            c_corpus, c_index = split_contribution_id(cid)
        except (ValueError, TypeError):
            problems.append(f"{where}: malformed contribution_id {cid!r}")
            c_corpus, c_index = corpus_id, i
        if c_corpus != corpus_id:
            problems.append(f"{where}: id names corpus {c_corpus!r}, record is {corpus_id!r}")
        if c_index != i:
            problems.append(f"{where}: index {c_index} out of record order (position {i})")
        if cid in seen_ids:
            problems.append(f"{where}: duplicate contribution_id")
        seen_ids.add(cid)
        problems.extend(check_contribution(c, where))
        for p_idx, p in enumerate(c.get("prerequisites", [])):
            for ref in p.get("references", []):
                if ref.get("type") == "internal" and ref.get("contribution_id"):
                    internal_targets.append(
                        (f"{where}, prerequisite {p_idx}", ref["contribution_id"])
                    )

    # Internal references must land on a contribution of this same record.
    for p_where, target in internal_targets:
        if target not in seen_ids:
            problems.append(f"{p_where}: internal reference to unknown id {target!r}")
    return problems


def reference_from_json(ref: dict[str, Any]):
    if ref["type"] == "paper":
        return PaperRef(
            title=ref.get("paper_title", ""),
            first_author=ref.get("first_author"),
            year=ref.get("paper_year"),
            venue=ref.get("paper_venue"),
            corpus_id=ref.get("corpus_id"),
            matches=[
                Match(m["contribution_id"], m.get("explanation", ""), m["match_type"])
                for m in ref.get("matches", [])
            ],
        )
    if ref["type"] == "internal":
        return InternalRef(
            contribution_name=ref.get("contribution_name", ""),
            contribution_id=ref["contribution_id"],
            explanation=ref.get("explanation", ""),
        )
    return ArtifactRef(name=ref.get("name", ""), url=ref.get("url", ""))


def parse_alignment(obj: Any, where: str) -> tuple[str, int, int, PaperRef]:
    """One logged late alignment as (owner_id, prereq_index, ref_index,
    normalized paper reference). Raises RecordValidationError naming
    ``where`` unless the owner id is well formed, the indices are
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
    ref = row.get("reference")
    if isinstance(ref, dict) and ref.get("type") == "paper":
        ref = normalize_reference(ref)
        _validate_reference(ref, where, problems)
    else:
        problems.append(f"{where}: reference must be a paper reference, got {ref!r}")
    if problems:
        raise RecordValidationError(problems)
    return owner, row["prereq_index"], row["ref_index"], reference_from_json(ref)


def contribution_from_json(c: dict[str, Any]) -> Contribution:
    """Typed contribution from a normalized, schema-checked contribution dict."""
    return Contribution(
        id=c["contribution_id"],
        name=c["name"],
        description=c["description"],
        types=[ContributionType(t["type"], t["explanation"]) for t in c["types"]],
        sections=list(c["sections"]),
        prerequisites=[
            Prerequisite(
                name=p["name"],
                description=p["description"],
                explanation=p["explanation"],
                core_or_peripheral=p["core_or_peripheral"],
                references=[reference_from_json(r) for r in p["references"]],
            )
            for p in c["prerequisites"]
        ],
        split_from=c.get("split_from"),
    )


def parse_record(raw: dict[str, Any]) -> ExtractionRecord:
    """Normalize, validate, and build an ExtractionRecord.

    Raises RecordValidationError when the schema check fails.
    Off-vocabulary category labels pass verbatim; `validate --warnings`
    reports them.
    """
    obj = normalize_record(raw)
    problems = validate_record(obj)
    if problems:
        raise RecordValidationError(problems)
    return ExtractionRecord(
        corpus_id=obj["corpus_id"],
        title=obj["title"],
        year=obj["year"],
        contributions=[contribution_from_json(c) for c in obj["contributions"]],
    )
