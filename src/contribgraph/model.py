"""Domain types for the contribution graph and its log.

Serialization follows the released extraction-record layout: key names
and nesting match the record files bit-for-bit, so every ``to_json``
builds its dict in the canonical key order; ``UnresolvedRef.to_json``
builds an alignments.jsonl row. Records and alignments are read back by
records.py, which also handles ingestion-time aliases; the one reader
here, ``Problem.from_json``, takes a problems.jsonl row.

Records are immutable once a graph holds them: every sequence a record
holds (its contributions; a contribution's types, sections and
prerequisites; a prerequisite's references; a paper reference's
matches) is a tuple, an empty one the shared ``()``, and no code
assigns a field of a record that was applied. The one field set after
a record is built is a staged paper reference's ``matches``, which
``pipeline.finalize_paper`` fills from alignment before it applies the
record. A tuple of n items is one block of 40 + 8n bytes; a list built
by appending is 56 bytes plus a separate buffer that it over-allocates
(88 bytes in all for one item). What never changes can be shared: the
parsers in records.py share years and dates (``PartialDate`` is frozen).

A graph's nodes are ``ContributionNode``s: a contribution's id, name,
description, types, sections and ``split_from``, without its
prerequisites. ``Contribution`` is a node with its prerequisites, as a
record holds it, and ``Contribution.node`` builds the node. Queries
read nodes only; the prerequisite side stays in the record, which the
graph reads back from the log once the log holds it (graph.py). A node
has no ``prerequisites`` field, so code that reads one off a node fails
loudly instead of reading ``()``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

# Category vocabulary offered to the extractor. The prompt marks the
# list as non-exhaustive, so unknown labels are kept verbatim and only
# warned about at validation time.
CONTRIBUTION_CATEGORIES = frozenset({
    "problem_formulation",
    "theoretical_insight",
    "conceptual_framework",
    "resource_benchmark",
    "resource_dataset",
    "tool_system_software",
    "empirical_evaluation",
    "analysis",
    "models_or_architectures",
    "techniques_algorithms",
    "representational",
    "research_methods_procedures",
    "metrics_instruments",
    "position_statement",
    "real_world_application",
    "society_ethics_policy",
    "other",
})

MATCH_TYPES = ("strong", "weak")
CORE_OR_PERIPHERAL = ("core", "peripheral")


@dataclass(frozen=True, slots=True)
class PartialDate:
    """Calendar date with optional month/day granularity; frozen, so that
    every paper of one date can share one object."""

    year: int
    month: Optional[int] = None
    day: Optional[int] = None

    def to_json(self) -> str:
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    @classmethod
    def parse(cls, text: str) -> "PartialDate":
        """"YYYY", "YYYY-MM" or "YYYY-MM-DD", with a month in 1-12 and a
        day in 1-31; anything else raises ValueError."""
        parts = str(text).split("-")
        try:
            if 1 <= len(parts) <= 3:
                date = cls(*map(int, parts))
                month_ok = date.month is None or 1 <= date.month <= 12
                if month_ok and (date.day is None or 1 <= date.day <= 31):
                    return date
        except ValueError:
            pass
        raise ValueError(f"bad date {text!r}")


@dataclass(slots=True)
class PaperMeta:
    corpus_id: str
    title: str = ""
    year: Optional[int] = None
    date: Optional[PartialDate] = None
    venue: Optional[str] = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "corpus_id": self.corpus_id,
            "title": self.title,
            "year": self.year,
        }
        if self.date is not None:
            out["date"] = self.date.to_json()
        if self.venue is not None:
            out["venue"] = self.venue
        return out


@dataclass(slots=True)
class ContributionType:
    category: str
    explanation: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"type": self.category, "explanation": self.explanation}


@dataclass(slots=True)
class Match:
    contribution_id: str
    explanation: str
    match_type: str

    def to_json(self) -> dict[str, Any]:
        return {
            "contribution_id": self.contribution_id,
            "explanation": self.explanation,
            "match_type": self.match_type,
        }


@dataclass(slots=True)
class PaperRef:
    title: str = ""
    first_author: Optional[dict[str, str]] = None  # last_name/first_name/middle_names
    year: Optional[int] = None
    venue: Optional[str] = None
    corpus_id: Optional[str] = None
    matches: tuple[Match, ...] = ()

    type = "paper"

    @property
    def cited_id(self) -> Optional[str]:
        """The corpus id cited; None for a title-only reference, whose id is null or ""."""
        return self.corpus_id or None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"type": "paper", "paper_title": self.title}
        if self.first_author is not None:
            out["first_author"] = self.first_author
        out["paper_year"] = self.year
        out["paper_venue"] = self.venue
        out["corpus_id"] = self.corpus_id
        out["matches"] = [m.to_json() for m in self.matches]
        return out


@dataclass(slots=True)
class InternalRef:
    contribution_name: str
    contribution_id: str
    explanation: str = ""

    type = "internal"

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "internal",
            "contribution_name": self.contribution_name,
            "contribution_id": self.contribution_id,
            "explanation": self.explanation,
        }


@dataclass(slots=True)
class ArtifactRef:
    name: str
    url: str

    type = "artifact"

    def to_json(self) -> dict[str, Any]:
        return {"type": "artifact", "name": self.name, "url": self.url}


Reference = Union[PaperRef, InternalRef, ArtifactRef]


def normalize_title(title: str) -> str:
    """Casefold, strip punctuation, collapse whitespace."""
    cleaned = "".join(ch if ch.isalnum() or ch.isspace() else " " for ch in title)
    return " ".join(cleaned.casefold().split())


@dataclass(frozen=True, slots=True)
class UnresolvedRef:
    """A paper reference at its site: owner, prerequisite and position;
    equality and hash name just the site. It keys the unresolved index
    and a crawl batch's alignment jobs, and is a logged late alignment."""

    owner_id: str  # dependent contribution
    prereq_index: int
    ref_index: int  # position among the prerequisite's references
    ref: PaperRef = field(compare=False)

    def key(self) -> str:
        """Histogram key: the cited corpus id, else normalized title+year."""
        return self.ref.cited_id or f"title:{normalize_title(self.ref.title)}|{self.ref.year}"

    def to_json(self) -> dict[str, Any]:
        return {
            "owner_id": self.owner_id,
            "prereq_index": self.prereq_index,
            "ref_index": self.ref_index,
            "reference": self.ref.to_json(),
        }


@dataclass(slots=True)
class Prerequisite:
    name: str
    description: str
    explanation: str = ""
    core_or_peripheral: str = "core"
    references: tuple[Reference, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "explanation": self.explanation,
            "core_or_peripheral": self.core_or_peripheral,
            "references": [r.to_json() for r in self.references],
        }


@dataclass(slots=True)
class ContributionNode:
    """A contribution as a graph node: what queries read, without its
    prerequisites, which stay in the record (``Contribution``)."""

    id: str
    name: str
    description: str
    types: tuple[ContributionType, ...] = ()
    sections: tuple[str, ...] = ()
    split_from: Optional[str] = None  # original stage-2 key when dash-split

    @property
    def corpus_id(self) -> str:
        return split_contribution_id(self.id)[0]

    @property
    def index(self) -> int:
        return split_contribution_id(self.id)[1]


@dataclass(slots=True)
class Contribution(ContributionNode):
    """A contribution as its record holds it: the node's fields and its
    prerequisites."""

    prerequisites: tuple[Prerequisite, ...] = ()

    def node(self) -> ContributionNode:
        """The graph node: these fields but the prerequisites."""
        return ContributionNode(
            self.id, self.name, self.description, self.types, self.sections, self.split_from
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "contribution_id": self.id,
            "name": self.name,
            "description": self.description,
            "types": [t.to_json() for t in self.types],
            "sections": list(self.sections),
        }
        if self.split_from is not None:
            out["split_from"] = self.split_from
        out["prerequisites"] = [p.to_json() for p in self.prerequisites]
        return out


@dataclass(slots=True)
class Edge:
    pre_id: str
    dep_id: str
    match_type: str
    explanation: str = ""
    prereq_index: int = 0

    def to_json(self) -> dict[str, Any]:
        return edge_json(
            self.pre_id, self.dep_id, self.match_type, self.explanation, self.prereq_index
        )


def edge_json(
    pre_id: str, dep_id: str, match_type: str, explanation: str, prereq_index: int
) -> dict[str, Any]:
    """An edges.jsonl row: ``Edge.to_json``, for callers that hold the
    fields without an Edge."""
    return {
        "pre_id": pre_id,
        "dep_id": dep_id,
        "match_type": match_type,
        "explanation": explanation,
        "prereq_index": prereq_index,
    }


@dataclass(slots=True)
class ExtractionRecord:
    corpus_id: str
    title: str
    year: Optional[int]
    contributions: tuple[Contribution, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "corpus_id": self.corpus_id,
            "title": self.title,
            "year": self.year,
            "contributions": [c.to_json() for c in self.contributions],
        }


# Candidates in one prerequisite-prediction problem: gold plus distractors.
CANDIDATES_PER_PROBLEM = 100


@dataclass(slots=True)
class Problem:
    problem_id: str
    target_id: str
    target_name: str
    target_description: str
    target_year: int
    target_date: Optional[PartialDate]
    candidates: list[dict[str, str]]  # {id, name, description}, shuffled order
    gold_ids: set[str]
    seed: int

    def to_json(self) -> dict[str, Any]:
        target: dict[str, Any] = {
            "id": self.target_id,
            "name": self.target_name,
            "description": self.target_description,
            "year": self.target_year,
        }
        if self.target_date is not None:
            target["date"] = self.target_date.to_json()
        return {
            "problem_id": self.problem_id,
            "target": target,
            "candidates": self.candidates,
            "gold_ids": sorted(self.gold_ids),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "Problem":
        """A problems.jsonl row; KeyError, TypeError or ValueError when a
        field scoring relies on is missing or ill-typed."""
        target = obj["target"]
        year = target["year"]
        if type(year) is not int:
            raise TypeError(f"target year must be an integer, got {year!r:.80}")
        candidates = obj["candidates"]
        if not isinstance(candidates, list) or not all(
            isinstance(c, dict) and isinstance(c.get("id"), str) for c in candidates
        ):
            raise TypeError(
                f"candidates must be a list of objects with a string id, got {candidates!r:.80}"
            )
        gold_ids = obj["gold_ids"]
        if not isinstance(gold_ids, list) or not all(isinstance(g, str) for g in gold_ids):
            raise TypeError(f"gold_ids must be a list of strings, got {gold_ids!r:.80}")
        if not gold_ids or not set(gold_ids) <= {c["id"] for c in candidates}:
            raise ValueError(f"gold_ids must be non-empty candidate ids, got {gold_ids!r:.80}")
        return cls(
            problem_id=obj["problem_id"],
            target_id=target["id"],
            target_name=target.get("name", ""),
            target_description=target.get("description", ""),
            target_year=year,
            target_date=PartialDate.parse(target["date"]) if target.get("date") else None,
            candidates=candidates,
            gold_ids=set(gold_ids),
            seed=obj["seed"],
        )

    @property
    def candidate_ids(self) -> list[str]:
        return [c["id"] for c in self.candidates]


def split_contribution_id(cid: str) -> tuple[str, int]:
    """Split "<corpus_id>.c<index>" into its parts.

    Raises ValueError when the id does not follow the pattern or the
    index is negative.
    """
    corpus, sep, tail = cid.rpartition(".c")
    if not sep or not corpus or not tail.isdigit():
        raise ValueError(f"malformed contribution id {cid!r}")
    return corpus, int(tail)


def make_contribution_id(corpus_id: str, index: int) -> str:
    if index < 0:
        raise ValueError("contribution index must be non-negative")
    return f"{corpus_id}.c{index}"
