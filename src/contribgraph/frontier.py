"""Crawl frontier: which cited-but-unextracted papers to process next.

Unresolved prerequisite references are counted into a histogram keyed
by resolved corpus id (or normalized title+year when unresolvable),
and the next batch is the most frequently cited available papers.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Optional

from . import jsonl
from .graph import ContributionGraph
from .model import PaperMeta, PaperRef, PartialDate, normalize_title
from .records import parse_paper

logger = logging.getLogger(__name__)


@dataclass
class CatalogEntry:
    corpus_id: str
    title: str = ""
    year: Optional[int] = None
    first_author_last: str = ""
    open_access: bool = False
    text_path: str = ""
    date: Optional[PartialDate] = None
    venue: Optional[str] = None

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "CatalogEntry":
        """A catalog row, its metadata checked by ``records.parse_paper``.
        Raises ValueError when ``open_access`` is not a boolean or
        ``first_author_last`` or ``text_path`` not a string; null reads
        as absent. ``jsonl.read_rows`` names the line."""
        meta = parse_paper(row)
        open_access = row.get("open_access")
        if open_access is not None and type(open_access) is not bool:
            raise ValueError(f"open_access must be true or false, got {open_access!r}")
        return cls(
            corpus_id=meta.corpus_id,
            title=meta.title,
            year=meta.year,
            first_author_last=_string(row, "first_author_last"),
            open_access=bool(open_access),
            text_path=_string(row, "text_path"),
            date=meta.date,
            venue=meta.venue,
        )

    def paper_meta(self) -> PaperMeta:
        """Catalog metadata as the store registers it."""
        return PaperMeta(self.corpus_id, self.title, self.year, self.date, self.venue)


def _string(row: dict[str, Any], name: str) -> str:
    """The row's string field ``name``, "" when absent or null."""
    value = row.get(name)
    if value is None:
        return ""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


class Catalog:
    """Known-paper catalog with a normalized-title lookup."""

    def __init__(self, entries: list[CatalogEntry]):
        self.by_id: dict[str, CatalogEntry] = {e.corpus_id: e for e in entries}
        self._entries = entries

    @cached_property
    def by_title(self) -> dict[str, list[CatalogEntry]]:
        """Normalized title -> every entry with it, in file order, duplicate
        ids included. Built on first use: only title-only references look
        titles up, and ``ingest`` reads ``by_id`` alone."""
        by_title: dict[str, list[CatalogEntry]] = {}
        for entry in self._entries:
            by_title.setdefault(normalize_title(entry.title), []).append(entry)
        return by_title

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        """A row that fails ``CatalogEntry.from_row`` raises
        MalformedLineError naming ``path:line``."""
        return cls(list(jsonl.read_rows(path, CatalogEntry.from_row)))


def resolve_reference(ref: PaperRef, catalog: Catalog) -> Optional[str]:
    """Resolve a paper reference to a corpus id.

    Exact corpus_id passthrough when present; otherwise a normalized
    title match with year agreement within one year and, on a title
    tie, first-author last-name agreement. Ambiguity resolves to none.
    """
    if ref.cited_id is not None:
        return ref.cited_id
    if not ref.title:
        return None
    candidates = catalog.by_title.get(normalize_title(ref.title), [])
    if ref.year is not None:
        candidates = [
            c for c in candidates if c.year is None or abs(c.year - ref.year) <= 1
        ]
    if len(candidates) > 1 and ref.first_author:
        last = str(ref.first_author.get("last_name", "")).casefold()
        candidates = [c for c in candidates if c.first_author_last.casefold() == last]
    if len(candidates) == 1:
        return candidates[0].corpus_id
    if len(candidates) > 1:
        logger.warning(
            "ambiguous reference %r (%s candidates), leaving unresolved",
            ref.title,
            len(candidates),
        )
    return None


def build_histogram(
    graph: ContributionGraph, catalog: Optional[Catalog] = None
) -> Counter:
    """Count unresolved prerequisite references per cited paper.

    Keys are resolved corpus ids when available, else normalized
    title+year. References whose cited paper is already extracted do
    not count.
    """
    histogram: Counter = Counter()
    for cited, entries in graph.unresolved_by_cited().items():
        if cited is not None:
            if not graph.is_extracted(cited):
                histogram[cited] += len(entries)
            continue
        for entry in entries:
            corpus_id = resolve_reference(entry.ref, catalog) if catalog is not None else None
            if corpus_id is None:
                histogram[entry.key()] += 1
            elif not graph.is_extracted(corpus_id):
                histogram[corpus_id] += 1
    return histogram


def select_batch(
    histogram: Counter,
    availability: Callable[[str], bool],
    k: int,
) -> list[str]:
    """Top-k available keys by descending count, ties broken by ascending key."""
    if k < 1:
        raise ValueError("batch size k must be >= 1")
    ranked = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
    return [key for key, _ in ranked if availability(key)][:k]


def catalog_availability(catalog: Catalog) -> Callable[[str], bool]:
    """Open access with a readable text file."""

    def available(key: str) -> bool:
        entry = catalog.by_id.get(key)
        return (
            entry is not None
            and entry.open_access
            and bool(entry.text_path)
            and Path(entry.text_path).exists()
        )

    return available
