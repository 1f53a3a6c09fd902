"""In-memory contribution graph with JSONL persistence.

Single-writer, many-reader: every public method takes the store lock,
and record ingestion stages all changes before touching any index, so
a rejected record leaves the store byte-identical and readers never
observe a partially applied record.
"""
from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import jsonl, records as recmod
from .errors import DuplicatePaperError, RecordValidationError, UnknownIdError
from .model import (
    CONTRIBUTION_CATEGORIES,
    CORE_OR_PERIPHERAL,
    MATCH_TYPES,
    ArtifactRef,
    Contribution,
    Edge,
    ExtractionRecord,
    InternalRef,
    PaperMeta,
    PaperRef,
    split_contribution_id,
)

logger = logging.getLogger(__name__)

RECORDS_FILE = "records.jsonl"
NODES_FILE = "nodes.jsonl"
EDGES_FILE = "edges.jsonl"
PAPERS_FILE = "papers.jsonl"


@dataclass
class GraphDelta:
    """Summary of one applied record."""

    nodes_added: int = 0
    edges_added: int = 0
    unresolved_added: int = 0


@dataclass
class UnresolvedRef:
    """A paper reference whose cited paper is not yet in the graph."""

    owner_id: str  # dependent contribution
    prereq_index: int
    ref: PaperRef

    def key(self) -> str:
        """Histogram key: corpus id when known, else normalized title+year."""
        if self.ref.corpus_id:
            return self.ref.corpus_id
        return f"title:{normalize_title(self.ref.title)}|{self.ref.year}"


@dataclass
class Violation:
    invariant: str
    offender: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.invariant} ({self.offender}): {self.message}"


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
        self._incoming: dict[str, list[int]] = {}
        self._outgoing: dict[str, list[int]] = {}
        self.unresolved: list[UnresolvedRef] = []
        self._records: list[ExtractionRecord] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add_paper_record(self, record: ExtractionRecord | dict[str, Any]) -> GraphDelta:
        """Apply one extraction record atomically.

        Contributions are inserted in record order; internal references
        and matches into already-extracted papers become edges; paper
        references whose cited paper is absent enter the unresolved
        multiset. A rejected record leaves the store untouched.
        """
        if isinstance(record, dict):
            record, _ = recmod.parse_record(record)

        with self._lock:
            existing = self.papers.get(record.corpus_id)
            if existing is not None and existing.status == "extracted":
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
                    for ref in prereq.references:
                        if isinstance(ref, InternalRef):
                            if ref.contribution_id == contribution.id:
                                raise RecordValidationError(
                                    [f"{contribution.id}: internal reference to itself"]
                                )
                            new_edges.append(
                                Edge(
                                    pre_id=ref.contribution_id,
                                    dep_id=contribution.id,
                                    match_type="strong",
                                    explanation=ref.explanation,
                                    prereq_index=k,
                                )
                            )
                        elif isinstance(ref, PaperRef):
                            cited = ref.corpus_id
                            if cited == record.corpus_id:
                                continue  # a self-citation stays in the record only
                            cited_meta = self.papers.get(cited) if cited else None
                            if cited_meta is not None and cited_meta.status == "extracted":
                                for match in ref.matches:
                                    if match.contribution_id in self.nodes:
                                        new_edges.append(
                                            Edge(
                                                pre_id=match.contribution_id,
                                                dep_id=contribution.id,
                                                match_type=match.match_type,
                                                explanation=match.explanation,
                                                prereq_index=k,
                                            )
                                        )
                                    else:
                                        logger.warning(
                                            "%s: match target %s not in store, skipped",
                                            contribution.id,
                                            match.contribution_id,
                                        )
                            else:
                                new_unresolved.append(
                                    UnresolvedRef(contribution.id, k, ref)
                                )
                        # Artifact references never become edges.

            # Late materialization: references from earlier records that
            # cited this paper and already carry matches become edges now.
            still_unresolved: list[UnresolvedRef] = []
            for entry in self.unresolved:
                if entry.ref.corpus_id != record.corpus_id:
                    still_unresolved.append(entry)
                    continue
                for match in entry.ref.matches:
                    if match.contribution_id in record_ids:
                        new_edges.append(
                            Edge(
                                pre_id=match.contribution_id,
                                dep_id=entry.owner_id,
                                match_type=match.match_type,
                                explanation=match.explanation,
                                prereq_index=entry.prereq_index,
                            )
                        )

            # Apply.
            meta = existing or PaperMeta(corpus_id=record.corpus_id)
            meta.title = record.title or meta.title
            meta.year = record.year if record.year is not None else meta.year
            meta.status = "extracted"
            self.papers[record.corpus_id] = meta
            for contribution in record.contributions:
                self.nodes[contribution.id] = contribution
                self._incoming.setdefault(contribution.id, [])
                self._outgoing.setdefault(contribution.id, [])
            for edge in new_edges:
                self._append_edge(edge)
            self.unresolved = still_unresolved + new_unresolved
            self._records.append(record)
            return GraphDelta(
                nodes_added=len(record.contributions),
                edges_added=len(new_edges),
                unresolved_added=len(new_unresolved),
            )

    def _append_edge(self, edge: Edge) -> None:
        index = len(self.edges)
        self.edges.append(edge)
        self._incoming.setdefault(edge.dep_id, []).append(index)
        self._outgoing.setdefault(edge.pre_id, []).append(index)

    def add_edge(self, edge: Edge) -> None:
        """Insert a single resolved edge (used by late-binding alignment)."""
        with self._lock:
            if edge.pre_id not in self.nodes or edge.dep_id not in self.nodes:
                raise UnknownIdError(f"edge endpoints {edge.pre_id}->{edge.dep_id} not in store")
            self._append_edge(edge)

    def register_paper(self, meta: PaperMeta) -> None:
        """Add or enrich catalog metadata without extracting."""
        with self._lock:
            existing = self.papers.get(meta.corpus_id)
            if existing is None:
                self.papers[meta.corpus_id] = meta
                return
            existing.title = existing.title or meta.title
            existing.year = existing.year if existing.year is not None else meta.year
            existing.date = existing.date or meta.date
            existing.venue = existing.venue or meta.venue
            if existing.status == "pending" and meta.status != "pending":
                existing.status = meta.status

    def mark_failed(self, corpus_id: str) -> None:
        with self._lock:
            meta = self.papers.setdefault(corpus_id, PaperMeta(corpus_id=corpus_id))
            if meta.status != "extracted":
                meta.status = "failed"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get_contribution(self, cid: str) -> Contribution:
        with self._lock:
            try:
                return self.nodes[cid]
            except KeyError:
                raise UnknownIdError(f"unknown contribution id {cid!r}") from None

    def contributions_of(self, corpus_id: str) -> list[Contribution]:
        with self._lock:
            ids = [cid for cid in self.nodes if self.nodes[cid].corpus_id == corpus_id]
            return [self.nodes[cid] for cid in sorted(ids, key=lambda c: split_contribution_id(c)[1])]

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

    def deduplicated_edges(self) -> list[Edge]:
        """One edge per (pre, dep) pair; strong beats weak when collapsing."""
        with self._lock:
            best: dict[tuple[str, str], Edge] = {}
            for edge in self.edges:
                key = (edge.pre_id, edge.dep_id)
                kept = best.get(key)
                if kept is None or (kept.match_type == "weak" and edge.match_type == "strong"):
                    best[key] = edge
            return list(best.values())

    def records(self) -> list[ExtractionRecord]:
        with self._lock:
            return list(self._records)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, include_warnings: bool = False) -> list[Violation]:
        """Check every store invariant; violations are data, not failures."""
        with self._lock:
            out: list[Violation] = []

            for corpus_id in self.papers:
                if not corpus_id:
                    out.append(Violation("paper.corpus_id", corpus_id, "empty corpus_id"))

            for cid, node in self.nodes.items():
                try:
                    corpus, _ = split_contribution_id(cid)
                except ValueError:
                    out.append(Violation("contribution.id", cid, "malformed id"))
                    continue
                if corpus not in self.papers:
                    out.append(Violation("contribution.id", cid, f"unknown corpus {corpus!r}"))
                if not node.name:
                    out.append(Violation("contribution.name", cid, "empty name"))
                if not node.description:
                    out.append(Violation("contribution.description", cid, "empty description"))
                if include_warnings:
                    for t in node.types:
                        if t.category not in CONTRIBUTION_CATEGORIES:
                            out.append(
                                Violation(
                                    "contribution.category",
                                    cid,
                                    f"off-vocabulary category {t.category!r}",
                                    severity="warning",
                                )
                            )
                for prereq in node.prerequisites:
                    if prereq.core_or_peripheral not in CORE_OR_PERIPHERAL:
                        out.append(
                            Violation(
                                "prerequisite.core_or_peripheral",
                                cid,
                                f"bad value {prereq.core_or_peripheral!r}",
                            )
                        )
                    for ref in prereq.references:
                        if isinstance(ref, InternalRef) and ref.contribution_id in self.nodes:
                            target_corpus = self.nodes[ref.contribution_id].corpus_id
                            if target_corpus != node.corpus_id:
                                out.append(
                                    Violation(
                                        "reference.internal_same_paper",
                                        cid,
                                        f"internal reference crosses into corpus {target_corpus!r}",
                                    )
                                )
                        if isinstance(ref, ArtifactRef) and not ref.url:
                            out.append(
                                Violation("reference.artifact_url", cid, "empty artifact url")
                            )

            for edge in self.edges:
                ident = f"{edge.pre_id}->{edge.dep_id}"
                if edge.pre_id == edge.dep_id:
                    out.append(Violation("edge.self_loop", ident, "pre_id equals dep_id"))
                if edge.pre_id not in self.nodes:
                    out.append(Violation("edge.endpoints", ident, "pre_id not in store"))
                if edge.dep_id not in self.nodes:
                    out.append(Violation("edge.endpoints", ident, "dep_id not in store"))
                if edge.match_type not in MATCH_TYPES:
                    out.append(
                        Violation("edge.match_type", ident, f"bad value {edge.match_type!r}")
                    )

            expected_in: dict[str, list[int]] = {cid: [] for cid in self.nodes}
            expected_out: dict[str, list[int]] = {cid: [] for cid in self.nodes}
            for i, edge in enumerate(self.edges):
                expected_in.setdefault(edge.dep_id, []).append(i)
                expected_out.setdefault(edge.pre_id, []).append(i)
            if expected_in != self._incoming or expected_out != self._outgoing:
                out.append(
                    Violation("graph.adjacency", "*", "adjacency indexes disagree with edge list")
                )

            for entry in self.unresolved:
                cited = entry.ref.corpus_id
                if cited and self.papers.get(cited) and self.papers[cited].status == "extracted":
                    out.append(
                        Violation(
                            "graph.unresolved",
                            entry.owner_id,
                            f"unresolved reference to extracted paper {cited}",
                        )
                    )
            return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def node_rows(self) -> list[dict[str, Any]]:
        """nodes.jsonl rows: contribution fields joined with paper metadata."""
        rows = []
        for record in self._records:
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
                rows.append(row)
        return rows

    def save(self, directory: str | Path, write_records: bool = True) -> None:
        with self._lock:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            if write_records:
                jsonl.write_jsonl(
                    directory / RECORDS_FILE, (r.to_json() for r in self._records)
                )
            jsonl.write_jsonl(directory / NODES_FILE, self.node_rows())
            jsonl.write_jsonl(directory / EDGES_FILE, (e.to_json() for e in self.edges))
            jsonl.write_jsonl(
                directory / PAPERS_FILE,
                (self.papers[k].to_json() for k in sorted(self.papers)),
            )

    @classmethod
    def load(cls, directory: str | Path) -> "ContributionGraph":
        """Rebuild a store from its directory.

        records.jsonl is replayed when present (full fidelity including
        unresolved references); otherwise nodes.jsonl + edges.jsonl are
        used. edges.jsonl always wins for the edge list since it carries
        late-bound alignment edges that records do not.
        """
        directory = Path(directory)
        graph = cls()
        records_path = directory / RECORDS_FILE
        nodes_path = directory / NODES_FILE
        if records_path.exists():
            for raw in jsonl.read_jsonl(records_path):
                graph.add_paper_record(raw)
        elif nodes_path.exists():
            graph._load_from_nodes(nodes_path)
        edges_path = directory / EDGES_FILE
        if edges_path.exists():
            graph._replace_edges([Edge.from_json(e) for e in jsonl.read_jsonl(edges_path)])
        papers_path = directory / PAPERS_FILE
        if papers_path.exists():
            for raw in jsonl.read_jsonl(papers_path):
                graph.register_paper(PaperMeta.from_json(raw))
        return graph

    def _load_from_nodes(self, path: Path) -> None:
        by_corpus: dict[str, list[dict[str, Any]]] = {}
        metas: dict[str, dict[str, Any]] = {}
        for row in jsonl.read_jsonl(path):
            corpus = str(row["corpus_id"])
            by_corpus.setdefault(corpus, []).append(row)
            metas[corpus] = row
        for corpus in by_corpus:
            meta_row = metas[corpus]
            raw_record = {
                "corpus_id": corpus,
                "title": meta_row.get("title", ""),
                "year": meta_row.get("year"),
                "contributions": sorted(
                    by_corpus[corpus],
                    key=lambda r: split_contribution_id(r["contribution_id"])[1],
                ),
            }
            self.add_paper_record(raw_record)
        # Re-apply optional paper fields the record schema does not carry.
        from .model import PartialDate

        for corpus, meta_row in metas.items():
            if meta_row.get("date"):
                self.papers[corpus].date = PartialDate.parse(meta_row["date"])
            if meta_row.get("venue"):
                self.papers[corpus].venue = meta_row["venue"]

    def _replace_edges(self, edges: list[Edge]) -> None:
        with self._lock:
            self.edges = []
            self._incoming = {cid: [] for cid in self.nodes}
            self._outgoing = {cid: [] for cid in self.nodes}
            for edge in edges:
                self._append_edge(edge)

    def graph_hash(self) -> str:
        """Stable digest over the node and edge content."""
        with self._lock:
            digest = hashlib.sha256()
            for row in self.node_rows():
                digest.update(jsonl.dump_line(row).encode("utf-8"))
            for edge in self.edges:
                digest.update(jsonl.dump_line(edge.to_json()).encode("utf-8"))
            return digest.hexdigest()
