"""In-memory contribution graph with JSONL persistence.

Single-writer, many-reader: every public method takes the store lock,
and record ingestion stages all changes before touching any index, so
a rejected record leaves the store byte-identical and readers never
observe a partially applied record.

The append-only log (records.jsonl, plus alignments.jsonl for late
alignments) is the one source of truth on disk and the only way into
the graph: ``add_paper_record`` is the one method that adds nodes or
edges, deriving every edge from a record and its late alignments, and a
paper is extracted when the log holds the paper's record. A record
passes ``records.parse_record`` before it is applied, so ``validate``
checks only what the log does not guarantee. ``append_log`` is the one
writer of the log, and it only appends; nodes/edges/papers.jsonl are
written views.

Unresolved references are indexed by cited paper, so applying a record
reads only the references that cite it, and replaying the log on load,
like ingesting records, costs time linear in the log. Records are keyed
by corpus id and edges indexed by endpoint, so a paper's contributions
and a contribution's incoming edges cost time linear in what they
return, not in the store. The two adjacency indexes map a contribution
id to the positions of its incoming or outgoing edges in ``edges``; a
contribution without such edges has no entry, so the indexes hold no
empty lists and are derived from the edge list alone.

``graph_hash`` digests the lines of nodes.jsonl then edges.jsonl, the
lines ``save`` writes. So ``save`` digests them as it writes them and
stamps the digest into graph_hash.json, a derived file keyed by what
the graph is a function of: the byte lengths of the two log files, the
sha256 of papers.jsonl and the record count. A graph loaded from
exactly those bytes, and unchanged since, returns the stamped digest
from ``graph_hash`` instead of serializing every node and edge again.
The key is sound because the log is only appended to: the same length
means the same bytes. Anything that ever truncates or rewrites the log
(a torn-tail recovery, say) must delete the stamp first.

A bulk build (replaying the log on load, ingesting record files) runs
with the cyclic garbage collector paused. The model objects form no
reference cycles and are freed by reference counting, so the collector
finds nothing to free; left running, it would rescan every object built
so far each time a generation fills, a cost that grows with the store.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import logging
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from . import jsonl, records as recmod
from .errors import ContribGraphError, DuplicatePaperError, RecordValidationError, UnknownIdError
from .model import (
    CONTRIBUTION_CATEGORIES,
    Contribution,
    Edge,
    ExtractionRecord,
    InternalRef,
    Match,
    PaperMeta,
    PaperRef,
)

logger = logging.getLogger(__name__)

RECORDS_FILE = "records.jsonl"
ALIGNMENTS_FILE = "alignments.jsonl"
NODES_FILE = "nodes.jsonl"
EDGES_FILE = "edges.jsonl"
PAPERS_FILE = "papers.jsonl"
STAMP_FILE = "graph_hash.json"


@dataclass
class GraphDelta:
    """Summary of one applied record."""

    nodes_added: int = 0
    edges_added: int = 0
    unresolved_added: int = 0


@dataclass(frozen=True, slots=True)
class UnresolvedRef:
    """A paper reference whose cited paper is not yet in the graph; as a
    late alignment, a copy carrying its matches. Equality and hash name
    just the reference's site: owner, prerequisite and position."""

    owner_id: str  # dependent contribution
    prereq_index: int
    ref_index: int  # position among the prerequisite's references
    ref: PaperRef = field(compare=False)

    def key(self) -> str:
        """Histogram key: corpus id when known, else normalized title+year."""
        if self.ref.corpus_id:
            return self.ref.corpus_id
        return f"title:{normalize_title(self.ref.title)}|{self.ref.year}"

    def to_json(self) -> dict[str, Any]:
        return {
            "owner_id": self.owner_id,
            "prereq_index": self.prereq_index,
            "ref_index": self.ref_index,
            "reference": self.ref.to_json(),
        }


@dataclass
class Violation:
    invariant: str
    offender: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.invariant} ({self.offender}): {self.message}"


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector for a bulk build, then restore
    the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _match_edge(match: Match, dep_id: str, prereq_index: int) -> Edge:
    return Edge(match.contribution_id, dep_id, match.match_type, match.explanation, prereq_index)


def append_log(
    records_path: Path, records: Iterable[ExtractionRecord], late: Iterable[UnresolvedRef] = ()
) -> None:
    """Append ``late`` to the alignments file beside ``records_path``, then
    ``records`` to ``records_path``. Alignments first: a crash between the
    two appends leaves alignments of a paper with no record, which replay
    ignores, so the paper is simply extracted again."""
    jsonl.append_jsonl(records_path.with_name(ALIGNMENTS_FILE), (e.to_json() for e in late))
    jsonl.append_jsonl(records_path, (r.to_json() for r in records))


def _digested(lines: Iterable[bytes], update: Callable[[bytes], object]) -> Iterator[bytes]:
    for line in lines:
        update(line)
        yield line


class _ByteCount:
    """A ``jsonl.read_rows`` ``seen`` callback: the bytes read so far."""

    def __init__(self) -> None:
        self.total = 0

    def __call__(self, raw: bytes) -> None:
        self.total += len(raw)


def normalize_title(title: str) -> str:
    """Casefold, strip punctuation, collapse whitespace."""
    cleaned = "".join(ch if ch.isalnum() or ch.isspace() else " " for ch in title)
    return " ".join(cleaned.casefold().split())


class ContributionGraph:
    """Typed store for papers, contributions, prerequisites, and edges."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.papers: dict[str, PaperMeta] = {}
        self.nodes: dict[str, Contribution] = {}
        self.edges: list[Edge] = []
        # Contribution id -> positions in self.edges; no empty lists.
        self._incoming: dict[str, list[int]] = {}
        self._outgoing: dict[str, list[int]] = {}
        # Cited corpus id (None for a title-only reference) -> the
        # unresolved references citing it, in insertion order; no empty lists.
        self._unresolved: dict[Optional[str], list[UnresolvedRef]] = {}
        # Corpus id -> its one record, in the order applied.
        self._records: dict[str, ExtractionRecord] = {}
        self._alignments: list[UnresolvedRef] = []
        # graph_hash() as stamped by the save that wrote the files this
        # graph was loaded from; None once the graph changes.
        self._stamped_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add_paper_record(
        self, record: ExtractionRecord | dict[str, Any], late: Sequence[UnresolvedRef] = ()
    ) -> GraphDelta:
        """Apply one extraction record and its late alignments atomically.

        Contributions are inserted in record order; internal references
        and matches into already-extracted papers become edges; paper
        references whose cited paper is absent enter the unresolved
        index, and those citing this paper become edges through their
        own matches or those in ``late``. The index is keyed by cited
        paper, so only this paper's entry is read and removed: the cost
        is linear in the record, not in the store. A rejected record
        leaves the store untouched. A dict is checked by
        ``records.parse_record``; an ExtractionRecord must already pass
        its rules.
        """
        if isinstance(record, dict):
            record = recmod.parse_record(record)

        with self._lock:
            if self.is_extracted(record.corpus_id):
                raise DuplicatePaperError(f"corpus {record.corpus_id} already extracted")
            if any(c.id in self.nodes for c in record.contributions):
                raise RecordValidationError(
                    [f"record {record.corpus_id}: contribution id already in store"]
                )

            # Stage every mutation before applying any of them.
            new_edges: list[Edge] = []
            new_unresolved: list[UnresolvedRef] = []
            record_ids = {c.id for c in record.contributions}
            for contribution in record.contributions:
                for k, prereq in enumerate(contribution.prerequisites):
                    for j, ref in enumerate(prereq.references):
                        if isinstance(ref, InternalRef):
                            # An internal reference is a strong match inside the paper.
                            internal = Match(ref.contribution_id, ref.explanation, "strong")
                            new_edges.append(_match_edge(internal, contribution.id, k))
                        elif isinstance(ref, PaperRef):
                            cited = ref.corpus_id
                            if cited == record.corpus_id:
                                continue  # a self-citation stays in the record only
                            if self.is_extracted(cited):
                                for match in ref.matches:
                                    if match.contribution_id in self.nodes:
                                        new_edges.append(_match_edge(match, contribution.id, k))
                                    else:
                                        logger.warning(
                                            "%s: match target %s not in store, skipped",
                                            contribution.id,
                                            match.contribution_id,
                                        )
                            else:
                                new_unresolved.append(
                                    UnresolvedRef(contribution.id, k, j, ref)
                                )
                        # Artifact references never become edges.

            # Late materialization: references from earlier records that cite
            # this paper become edges through their own matches or late ones.
            late_matches = {entry: entry.ref.matches for entry in late}
            for entry in self._unresolved.get(record.corpus_id, ()):
                for match in entry.ref.matches + late_matches.pop(entry, []):
                    if match.contribution_id in record_ids:
                        new_edges.append(_match_edge(match, entry.owner_id, entry.prereq_index))
            if late_matches:
                raise RecordValidationError([f"unknown late alignment {e}" for e in late_matches])

            # Apply.
            self._stamped_hash = None
            self.papers[record.corpus_id] = self.extracted_meta(record)
            for contribution in record.contributions:
                self.nodes[contribution.id] = contribution
            for index, edge in enumerate(new_edges, len(self.edges)):
                self._incoming.setdefault(edge.dep_id, []).append(index)
                self._outgoing.setdefault(edge.pre_id, []).append(index)
            self.edges.extend(new_edges)
            self._unresolved.pop(record.corpus_id, None)
            for entry in new_unresolved:
                self._unresolved.setdefault(entry.ref.corpus_id, []).append(entry)
            self._records[record.corpus_id] = record
            self._alignments.extend(late)
            return GraphDelta(
                nodes_added=len(record.contributions),
                edges_added=len(new_edges),
                unresolved_added=len(new_unresolved),
            )

    def extracted_meta(self, record: ExtractionRecord) -> PaperMeta:
        """The paper's metadata as applying ``record`` leaves it."""
        with self._lock:
            meta = replace(self.papers.get(record.corpus_id) or PaperMeta(record.corpus_id))
            meta.title = record.title or meta.title
            meta.year = record.year if record.year is not None else meta.year
            return meta

    def register_paper(self, meta: PaperMeta) -> None:
        """Add or enrich catalog metadata without extracting."""
        with self._lock:
            self._stamped_hash = None
            existing = self.papers.get(meta.corpus_id)
            if existing is None:
                self.papers[meta.corpus_id] = meta
                return
            existing.title = existing.title or meta.title
            existing.year = existing.year if existing.year is not None else meta.year
            existing.date = existing.date or meta.date
            existing.venue = existing.venue or meta.venue

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_extracted(self, corpus_id: Optional[str]) -> bool:
        """Whether the log holds the paper's record."""
        with self._lock:
            return corpus_id in self._records

    def get_contribution(self, cid: str) -> Contribution:
        with self._lock:
            try:
                return self.nodes[cid]
            except KeyError:
                raise UnknownIdError(f"unknown contribution id {cid!r}") from None

    def contributions_of(self, corpus_id: str) -> list[Contribution]:
        """The paper's contributions in record order, which is index order;
        none unless the paper was extracted."""
        with self._lock:
            record = self._records.get(corpus_id)
            return list(record.contributions) if record is not None else []

    def year_of(self, cid: str) -> Optional[int]:
        with self._lock:
            meta = self.papers.get(self.get_contribution(cid).corpus_id)
            return meta.year if meta else None

    def incoming_edges(self, cid: str) -> list[Edge]:
        with self._lock:
            self.get_contribution(cid)
            found = [self.edges[i] for i in self._incoming.get(cid, [])]
            return sorted(found, key=lambda e: (e.pre_id, e.prereq_index))

    def outgoing_edges(self, cid: str) -> list[Edge]:
        with self._lock:
            self.get_contribution(cid)
            found = [self.edges[i] for i in self._outgoing.get(cid, [])]
            return sorted(found, key=lambda e: (e.dep_id, e.prereq_index))

    def deduplicated_edges(self, dep_id: str) -> list[Edge]:
        """The incoming edges of ``dep_id``, one per precursor in order of
        first appearance; strong beats weak when collapsing."""
        with self._lock:
            best: dict[str, Edge] = {}
            for i in self._incoming.get(dep_id, ()):
                edge = self.edges[i]
                kept = best.get(edge.pre_id)
                if kept is None or (kept.match_type == "weak" and edge.match_type == "strong"):
                    best[edge.pre_id] = edge
            return list(best.values())

    @property
    def unresolved(self) -> list[UnresolvedRef]:
        """Every unresolved reference, grouped by cited paper."""
        with self._lock:
            return [entry for entries in self._unresolved.values() for entry in entries]

    def unresolved_by_cited(self) -> dict[Optional[str], list[UnresolvedRef]]:
        """A copy of the unresolved index: cited corpus id (None when the
        reference has only a title) to the references citing it, in
        insertion order."""
        with self._lock:
            return {cited: list(entries) for cited, entries in self._unresolved.items()}

    def unresolved_citing(self, corpus_id: str) -> list[UnresolvedRef]:
        """The unresolved references citing ``corpus_id``, in insertion order."""
        with self._lock:
            return list(self._unresolved.get(corpus_id, ()))

    def records(self) -> list[ExtractionRecord]:
        with self._lock:
            return list(self._records.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, include_warnings: bool = False) -> list[Violation]:
        """Check what the log does not guarantee: edge endpoints, the
        adjacency and unresolved indexes, and, as warnings, off-vocabulary
        categories. Record rules are enforced when a record enters the
        store (``records.parse_record``). Violations are data, not
        failures."""
        with self._lock:
            out: list[Violation] = []
            if include_warnings:
                for cid, node in self.nodes.items():
                    for t in node.types:
                        if t.category not in CONTRIBUTION_CATEGORIES:
                            message = f"off-vocabulary category {t.category!r}"
                            out.append(
                                Violation("contribution.category", cid, message, "warning")
                            )

            for edge in self.edges:
                ident = f"{edge.pre_id}->{edge.dep_id}"
                if edge.pre_id not in self.nodes:
                    out.append(Violation("edge.endpoints", ident, "pre_id not in store"))
                if edge.dep_id not in self.nodes:
                    out.append(Violation("edge.endpoints", ident, "dep_id not in store"))

            expected_in: dict[str, list[int]] = {}
            expected_out: dict[str, list[int]] = {}
            for i, edge in enumerate(self.edges):
                expected_in.setdefault(edge.dep_id, []).append(i)
                expected_out.setdefault(edge.pre_id, []).append(i)
            if expected_in != self._incoming or expected_out != self._outgoing:
                out.append(
                    Violation("graph.adjacency", "*", "adjacency indexes disagree with edge list")
                )

            for cited, entries in self._unresolved.items():
                if self.is_extracted(cited):
                    out.extend(
                        Violation(
                            "graph.unresolved",
                            entry.owner_id,
                            f"unresolved reference to extracted paper {cited}",
                        )
                        for entry in entries
                    )
            return out

    def view_violations(self, directory: str | Path) -> list[Violation]:
        """Check the nodes.jsonl and edges.jsonl in ``directory`` against
        this graph: their row counts, then, when both agree, the sha256 of
        their rows, ``\\n`` removed, against ``graph_hash``. ``load``
        never reads the views, so a crash before or during ``save`` can
        leave them stale. A missing view is not checked."""
        directory = Path(directory)
        with self._lock:
            out: list[Violation] = []
            digest, counts_agree = hashlib.sha256(), True
            for name, derived in ((NODES_FILE, len(self.nodes)), (EDGES_FILE, len(self.edges))):
                path = directory / name
                if not path.exists():
                    counts_agree = False
                    continue
                rows = 0
                with path.open("rb") as f:
                    for line in f:
                        rows += 1
                        digest.update(line.rstrip(b"\n"))
                if rows != derived:
                    counts_agree = False
                    message = f"{rows} rows, the log derives {derived}"
                    out.append(Violation("store.view", name, message))
            if counts_agree and digest.hexdigest() != self.graph_hash():
                message = "rows differ in content from those the log derives (sha256 of the rows)"
                out.append(Violation("store.view", f"{NODES_FILE}+{EDGES_FILE}", message))
            return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def node_rows(self) -> Iterator[dict[str, Any]]:
        """nodes.jsonl rows, one at a time: contribution fields joined with
        paper metadata."""
        for record in self._records.values():
            meta = self.papers[record.corpus_id]
            for contribution in record.contributions:
                row = contribution.to_json()
                row["corpus_id"] = meta.corpus_id
                row["title"] = meta.title
                row["year"] = meta.year
                if meta.date is not None:
                    row["date"] = meta.date.to_json()
                if meta.venue is not None:
                    row["venue"] = meta.venue
                yield row

    def _view_lines(self) -> dict[str, Iterator[bytes]]:
        """The lines of nodes.jsonl and of edges.jsonl, in that order and
        without their ``\\n``: what ``save`` writes and ``graph_hash``
        digests."""
        dump = jsonl.dump_line
        return {
            NODES_FILE: (dump(row).encode("utf-8") for row in self.node_rows()),
            EDGES_FILE: (dump(edge.to_json()).encode("utf-8") for edge in self.edges),
        }

    def save(self, directory: str | Path) -> None:
        """Write the views, then the stamp. Into a directory with no log
        yet (a store built in memory), append the whole log first; a log
        that exists is never rewritten.

        The view lines are digested as they are written. The stamp,
        graph_hash.json, holds that digest and its key: the byte lengths
        of the two log files as they stand and the sha256 of the
        papers.jsonl just written, plus the record count, so that a
        record applied here whose log append failed never matches. It is
        written last, temporary file then rename, so a crash mid-save
        leaves the old stamp, whose key then matches only files that
        still derive the old graph. This graph's own ``graph_hash`` is
        left as it was: only ``load`` reads the stamp. The key assumes the
        log only grows, so whatever truncates or rewrites it must delete
        the stamp first.
        """
        with self._lock:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            if not (directory / RECORDS_FILE).exists():
                append_log(directory / RECORDS_FILE, self._records.values(), self._alignments)
            views = hashlib.sha256()
            for name, lines in self._view_lines().items():
                jsonl.write_lines(directory / name, _digested(lines, views.update))
            papers = ((m.to_json(), self.is_extracted(k)) for k, m in sorted(self.papers.items()))
            papers_lines = (
                jsonl.dump_line({**row, "status": "extracted" if done else "pending"}).encode("utf-8")
                for row, done in papers
            )
            papers_digest = hashlib.sha256()
            jsonl.write_lines(
                directory / PAPERS_FILE,
                _digested(papers_lines, lambda line: papers_digest.update(line + b"\n")),
            )
            key = _stamp_key(
                _size(directory / RECORDS_FILE),
                _size(directory / ALIGNMENTS_FILE),
                papers_digest.hexdigest(),
                len(self._records),
            )
            jsonl.write_jsonl(directory / STAMP_FILE, [{"graph_hash": views.hexdigest(), **key}])

    @classmethod
    def load(cls, directory: str | Path) -> "ContributionGraph":
        """Rebuild a store by replaying its log.

        Each row of records.jsonl is applied with the late alignments
        logged for that paper in alignments.jsonl, the last one logged
        for each reference site (a paper extracted again after a crash
        logs its alignments again); papers.jsonl then adds catalog
        papers and metadata, not status. A log row that is not JSON or
        breaks a record rule raises MalformedLineError naming
        records.jsonl and the line. The views are never read, and a
        store whose views exist without its log raises
        ContribGraphError rather than load as empty.

        The replay counts the bytes it reads from each log file and
        hashes the papers.jsonl bytes, as it streams them. When the
        stamp's key equals that, the graph is the one the stamping save
        held, and ``graph_hash`` returns the stamped digest. A missing,
        malformed or stale stamp is ignored: ``graph_hash`` then
        recomputes. Since an equal log length must mean equal log bytes,
        whatever truncates or rewrites the log must delete the stamp
        first.
        """
        directory = Path(directory)
        records_path = directory / RECORDS_FILE
        if not records_path.exists() and (directory / NODES_FILE).exists():
            raise ContribGraphError(
                f"{records_path} is missing: the store's views cannot rebuild its log"
            )
        graph = cls()
        records_read, alignments_read, papers_read = _ByteCount(), _ByteCount(), hashlib.sha256()
        with collector_paused():
            late: dict[Optional[str], dict[UnresolvedRef, UnresolvedRef]] = {}
            alignments_path = directory / ALIGNMENTS_FILE
            if alignments_path.exists():
                rows = jsonl.read_rows(alignments_path, lambda row: row, alignments_read)
                for number, raw in enumerate(rows, 1):
                    site = recmod.parse_alignment(raw, f"{alignments_path} row {number}")
                    entry = UnresolvedRef(*site)
                    late.setdefault(entry.ref.corpus_id, {})[entry] = entry
            if records_path.exists():
                for record in jsonl.read_rows(records_path, recmod.parse_record, records_read):
                    late_for_paper = list(late.get(record.corpus_id, {}).values())
                    graph.add_paper_record(record, late_for_paper)
            papers_path = directory / PAPERS_FILE
            if papers_path.exists():
                for meta in jsonl.read_rows(papers_path, recmod.parse_paper, papers_read.update):
                    graph.register_paper(meta)
        key = _stamp_key(
            records_read.total, alignments_read.total, papers_read.hexdigest(), len(graph._records)
        )
        graph._stamped_hash = _read_stamp(directory / STAMP_FILE, key)
        return graph

    def graph_hash(self) -> str:
        """Stable digest over the node and edge content: the sha256 of the
        lines of nodes.jsonl then edges.jsonl, without their ``\\n``. A
        graph loaded from files that match their stamp, and unchanged
        since, returns the stamped digest at no cost; any other graph
        returns ``recompute_hash()``. The stamp is keyed by log lengths,
        so whatever truncates or rewrites the log (a torn-tail recovery,
        say) must delete the stamp first."""
        with self._lock:
            return self._stamped_hash or self.recompute_hash()

    def recompute_hash(self) -> str:
        """``graph_hash`` from the graph itself, never from the stamp."""
        with self._lock:
            digest = hashlib.sha256()
            for lines in self._view_lines().values():
                for line in lines:
                    digest.update(line)
            return digest.hexdigest()


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _stamp_key(
    records_bytes: int, alignments_bytes: int, papers_sha256: str, records: int
) -> dict[str, Any]:
    return {
        "records_bytes": records_bytes,
        "alignments_bytes": alignments_bytes,
        "papers_sha256": papers_sha256,
        "records": records,
    }


def _read_stamp(path: Path, key: dict[str, Any]) -> Optional[str]:
    """The stamp's digest when its key equals ``key``; None when the
    stamp is missing, unreadable, malformed or stale."""
    try:
        stamp = json.loads(path.read_bytes())
        digest = stamp["graph_hash"]
        fresh = all(type(stamp[name]) is type(value) and stamp[name] == value
                    for name, value in key.items())
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if fresh and isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest):
        return digest
    return None
