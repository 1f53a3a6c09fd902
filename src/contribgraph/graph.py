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
passes ``records.parse_record`` before it is applied, and the edge and
unresolved indexes change only there, so ``validate`` checks only what a
store's files can get wrong; tests pin the in-memory invariants.
``append_log`` is the one writer of the log, and it only appends;
nodes/edges/papers.jsonl are written views. papers.jsonl is also the
only file that keeps catalog metadata, so a writer that registers new
metadata writes it before it appends to the log.

A nodes.jsonl row is a contribution's JSON as its record's log line
holds it, with the closing ``}`` replaced by the paper's metadata
fields. So each contribution is encoded once: ``append_log`` keeps
where each contribution of the records it appended lies in the log
(the file, an offset and byte lengths, never the text), and ``save``
into that store reads those rows' JSON back, sequentially and from the
page cache, instead of encoding it again. Every other row is encoded.
A part read back that does not start with its contribution's id, or
end with ``}``, fails the save: a wrong span would corrupt nodes.jsonl
and its stamped digest together, where ``validate`` could not see it.

Unresolved references (``model.UnresolvedRef``) are indexed by cited
paper, ``PaperRef.cited_id``, None for the title-only ones, so applying
a record reads only the references that cite it, and replaying the log
on load, like ingesting records, costs time linear in the log. Records
are keyed by corpus id and edges indexed by endpoint, so a paper's
contributions and a contribution's incoming edges cost time linear in
what they return, not in the store.

Edges are stored as columns (``EdgeColumns``; Abadi, Madden & Hachem,
"Column-stores vs. row-stores: how different are they really?", SIGMOD
2008): row i of parallel columns holds edge i's pre and dep ids, the
interned strings the nodes are keyed by, its prerequisite index in an
``array``, a match-type code in a byte array, and its explanation, the
string its match holds. The two adjacency indexes keep no list and no
int object per edge: a dict maps each contribution with incoming
(outgoing) edges to the row of its newest one, and an ``array`` of
links per row chains each contribution's edges back to its first, so
the indexes too are derived from the rows alone. ``graph.edges`` is the
columns themselves, a read-only sequence of ``model.Edge`` that equals
a list of the same edges; an ``Edge`` is built only when a query asks
for one (``incoming_edges``, ``outgoing_edges``, ``deduplicated_edges``,
or iterating ``edges``), and ``save``, ``graph_hash`` and
``dependent_ids`` read the columns. Against an ``Edge`` per edge in a
list and two dicts of position lists, a store keeps about a third of
the bytes for its edges.

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
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

from . import jsonl, records as recmod
from .errors import ContribGraphError, DuplicatePaperError, RecordValidationError, UnknownIdError
from .model import (
    CONTRIBUTION_CATEGORIES,
    MATCH_TYPES,
    Contribution,
    Edge,
    ExtractionRecord,
    InternalRef,
    Match,
    PaperMeta,
    PaperRef,
    UnresolvedRef,
    edge_json,
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

    def __str__(self) -> str:
        return (f"+{self.nodes_added} nodes, +{self.edges_added} edges,"
                f" +{self.unresolved_added} unresolved")


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


_MATCH_CODES = {match_type: code for code, match_type in enumerate(MATCH_TYPES)}
_STRONG, _WEAK = _MATCH_CODES["strong"], _MATCH_CODES["weak"]

# A staged edge: pre id, dep id, match-type code, explanation, prerequisite index.
_Row = tuple[str, str, int, str, int]


def _match_row(match: Match, dep_id: str, prereq_index: int) -> _Row:
    code = _MATCH_CODES[match.match_type]
    return match.contribution_id, dep_id, code, match.explanation, prereq_index


class EdgeColumns(Sequence[Edge]):
    """The graph's edges as parallel columns, read as a sequence of
    ``Edge``: row i holds ``pre[i]``, ``dep[i]``, ``prereq_index[i]``,
    ``MATCH_TYPES[match_code[i]]`` and ``explanation[i]``. The ids and
    explanations are the strings the record holds; an ``Edge`` is built
    only when one is read. It supports ``len``, indexing and iteration,
    equals any sequence of the same edges, and is never changed but by
    ``ContributionGraph.add_paper_record``.

    Each endpoint's edges form a chain, newest first: ``in_last[cid]`` is
    the row of the newest edge into ``cid``, ``in_prev[row]`` the row of the
    edge into the same contribution before it, or -1; ``out_last`` and
    ``out_prev`` chain the edges out of a contribution. A contribution
    without such edges has no key."""

    def __init__(self) -> None:
        self.pre: list[str] = []
        self.dep: list[str] = []
        self.prereq_index = array("i")
        self.match_code = array("B")
        self.explanation: list[str] = []
        self.in_last: dict[str, int] = {}
        self.in_prev = array("i")
        self.out_last: dict[str, int] = {}
        self.out_prev = array("i")

    def __len__(self) -> int:
        return len(self.pre)

    def __getitem__(self, row: int) -> Edge:  # type: ignore[override]
        return Edge(self.pre[row], self.dep[row], MATCH_TYPES[self.match_code[row]],
                    self.explanation[row], self.prereq_index[row])

    def __iter__(self) -> Iterator[Edge]:
        for pre, dep, code, explanation, k in self._columns():
            yield Edge(pre, dep, MATCH_TYPES[code], explanation, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EdgeColumns({list(self)!r})"

    def _columns(self) -> Iterator[_Row]:
        return zip(self.pre, self.dep, self.match_code, self.explanation, self.prereq_index)

    def _extend(self, rows: Iterable[_Row]) -> None:
        in_last, out_last = self.in_last, self.out_last
        for pre, dep, code, explanation, k in rows:
            self.in_prev.append(in_last.get(dep, -1))
            self.out_prev.append(out_last.get(pre, -1))
            in_last[dep] = out_last[pre] = len(self.pre)
            self.pre.append(pre)
            self.dep.append(dep)
            self.match_code.append(code)
            self.explanation.append(explanation)
            self.prereq_index.append(k)

    def incoming_rows(self, cid: str) -> list[int]:
        """The rows of the edges into ``cid``, oldest first."""
        return _chain(self.in_last.get(cid, -1), self.in_prev)

    def outgoing_rows(self, cid: str) -> list[int]:
        """The rows of the edges out of ``cid``, oldest first."""
        return _chain(self.out_last.get(cid, -1), self.out_prev)

    def lines(self) -> Iterator[bytes]:
        """The edges.jsonl lines, without their ``\\n``."""
        dump = jsonl.dump_line
        for pre, dep, code, explanation, k in self._columns():
            yield dump(edge_json(pre, dep, MATCH_TYPES[code], explanation, k)).encode("utf-8")


def _chain(row: int, prev: array) -> list[int]:
    rows = []
    while row >= 0:
        rows.append(row)
        row = prev[row]
    rows.reverse()
    return rows


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


class ContributionGraph:
    """Typed store for papers, contributions, prerequisites, and edges."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.papers: dict[str, PaperMeta] = {}
        self.nodes: dict[str, Contribution] = {}
        self.edges = EdgeColumns()
        # Cited corpus id (None for a title-only reference) -> the
        # unresolved references citing it, in insertion order; no empty lists.
        self._unresolved: dict[Optional[str], list[UnresolvedRef]] = {}
        # Corpus id -> its one record, in the order applied.
        self._records: dict[str, ExtractionRecord] = {}
        self._alignments: list[UnresolvedRef] = []
        # graph_hash() as stamped by the save that wrote the files this
        # graph was loaded from; None once the graph changes.
        self._stamped_hash: Optional[str] = None
        # The records.jsonl this graph last appended to, as (st_dev,
        # st_ino), and for each record appended there: the byte offset of
        # its first contribution, then each contribution's length in
        # bytes. An array holds no object references, so the collector
        # neither tracks nor counts it.
        self._log_file: Optional[tuple[int, int]] = None
        self._log_spans: dict[str, array] = {}
        # The papers.jsonl of this graph's last write_papers, as (st_dev,
        # st_ino), and the sha256 of its bytes; None once the graph changes.
        self._papers_written: Optional[tuple[tuple[int, int], str]] = None

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
        is linear in the record, not in the store. Under the lock it
        reads the indexes directly, not through the locked queries. A
        rejected record leaves the store untouched. A dict is checked by
        ``records.parse_record``; an ExtractionRecord must already pass
        its rules.
        """
        if isinstance(record, dict):
            record = recmod.parse_record(record)

        with self._lock:
            if record.corpus_id in self._records:
                raise DuplicatePaperError(f"corpus {record.corpus_id} already extracted")

            # Stage every mutation before applying any of them.
            new_edges: list[_Row] = []
            new_unresolved: list[tuple[Optional[str], UnresolvedRef]] = []  # with the cited id
            record_ids = {c.id for c in record.contributions}
            for contribution in record.contributions:
                dep_id = contribution.id
                for k, prereq in enumerate(contribution.prerequisites):
                    for j, ref in enumerate(prereq.references):
                        if isinstance(ref, InternalRef):
                            # An internal reference is a strong match inside the paper.
                            new_edges.append(
                                (ref.contribution_id, dep_id, _STRONG, ref.explanation, k)
                            )
                        elif isinstance(ref, PaperRef):
                            cited = ref.cited_id
                            if cited == record.corpus_id:
                                continue  # a self-citation stays in the record only
                            if cited in self._records:
                                for match in ref.matches:
                                    if match.contribution_id in self.nodes:
                                        new_edges.append(_match_row(match, dep_id, k))
                                    else:
                                        logger.warning(
                                            "%s: match target %s not in store, skipped",
                                            dep_id,
                                            match.contribution_id,
                                        )
                            else:
                                new_unresolved.append((cited, UnresolvedRef(dep_id, k, j, ref)))
                        # Artifact references never become edges.

            # Late materialization: references from earlier records that cite
            # this paper become edges through their own matches or late ones.
            late_matches = {entry: entry.ref.matches for entry in late}
            for entry in self._unresolved.get(record.corpus_id, ()):
                for match in entry.ref.matches + late_matches.pop(entry, ()):
                    if match.contribution_id in record_ids:
                        new_edges.append(_match_row(match, entry.owner_id, entry.prereq_index))
            if late_matches:
                raise RecordValidationError([f"unknown late alignment {e}" for e in late_matches])

            # Apply.
            self._stamped_hash = self._papers_written = None
            self.papers[record.corpus_id] = self.extracted_meta(record)
            for contribution in record.contributions:
                self.nodes[contribution.id] = contribution
            self.edges._extend(new_edges)
            self._unresolved.pop(record.corpus_id, None)
            for cited, entry in new_unresolved:
                self._unresolved.setdefault(cited, []).append(entry)
            self._records[record.corpus_id] = record
            self._alignments.extend(late)
            return GraphDelta(
                nodes_added=len(record.contributions),
                edges_added=len(new_edges),
                unresolved_added=len(new_unresolved),
            )

    def extracted_meta(self, record: ExtractionRecord) -> PaperMeta:
        """The paper's metadata as applying ``record`` leaves it, as a new
        object: the catalog's is left as it is."""
        with self._lock:
            meta = self.papers.get(record.corpus_id) or PaperMeta(record.corpus_id)
            year = meta.year if record.year is None else record.year
            return PaperMeta(meta.corpus_id, record.title or meta.title, year, meta.date, meta.venue)

    def register_paper(self, meta: PaperMeta) -> bool:
        """Add or enrich catalog metadata without extracting; whether that
        added or changed anything."""
        with self._lock:
            existing = self.papers.get(meta.corpus_id)
            if existing is not None:
                meta = PaperMeta(
                    existing.corpus_id,
                    existing.title or meta.title,
                    existing.year if existing.year is not None else meta.year,
                    existing.date or meta.date,
                    existing.venue or meta.venue,
                )
                if meta == existing:
                    return False
            self._stamped_hash = self._papers_written = None
            self.papers[meta.corpus_id] = meta
            return True

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
            found = [self.edges[i] for i in self.edges.incoming_rows(cid)]
            return sorted(found, key=lambda e: (e.pre_id, e.prereq_index))

    def outgoing_edges(self, cid: str) -> list[Edge]:
        with self._lock:
            self.get_contribution(cid)
            found = [self.edges[i] for i in self.edges.outgoing_rows(cid)]
            return sorted(found, key=lambda e: (e.dep_id, e.prereq_index))

    def deduplicated_edges(self, dep_id: str) -> list[Edge]:
        """The incoming edges of ``dep_id``, one per precursor in order of
        first appearance; strong beats weak when collapsing."""
        with self._lock:
            edges = self.edges
            codes = edges.match_code
            best: dict[str, int] = {}
            for i in edges.incoming_rows(dep_id):
                kept = best.get(edges.pre[i])
                if kept is None or (codes[kept] == _WEAK and codes[i] == _STRONG):
                    best[edges.pre[i]] = i
            return [edges[i] for i in best.values()]

    def dependent_ids(self) -> list[str]:
        """The contributions with at least one incoming edge."""
        with self._lock:
            return list(self.edges.in_last)

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
        """With ``include_warnings``, off-vocabulary categories, as
        warnings; otherwise nothing. What a store's files can get wrong is
        checked elsewhere: ``load`` fails on a log row that breaks a record
        rule, and ``view_violations`` names views that drifted from the
        log. The adjacency and unresolved indexes change only in
        ``add_paper_record``, which keeps them consistent by construction.
        Violations are data, not failures."""
        if not include_warnings:
            return []
        with self._lock:
            return [
                Violation("contribution.category", cid,
                          f"off-vocabulary category {t.category!r}", "warning")
                for cid, node in self.nodes.items()
                for t in node.types
                if t.category not in CONTRIBUTION_CATEGORIES
            ]

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

    def append_log(
        self,
        records_path: str | Path,
        records: Iterable[ExtractionRecord],
        late: Iterable[UnresolvedRef] = (),
    ) -> None:
        """Append ``late`` to the alignments file beside ``records_path``,
        then ``records`` to ``records_path``: the one writer of the log,
        which it only appends to. Alignments first: a crash between the
        two appends leaves alignments of a paper with no record, which
        replay ignores, so the paper is simply extracted again.

        Each contribution is encoded once. A record's line is its fields,
        then its contributions' JSON joined by ``", "``, then ``]}``: the
        bytes of ``dump_line(record.to_json())``. Once the append returns,
        the graph keeps where each record's contributions lie in that
        file, the offset of the first and the byte length of each, never
        their text, so that ``save`` into that store reads them back
        instead of encoding them again. An append that fails keeps none.
        """
        records_path = Path(records_path)
        jsonl.append_jsonl(records_path.with_name(ALIGNMENTS_FILE), (e.to_json() for e in late))
        dump = jsonl.dump_line
        spans: dict[str, array] = {}  # offsets from the start of the append

        def lines() -> Iterator[bytes]:
            at = 0
            for record in records:
                row = record.to_json()
                parts = [dump(c).encode("utf-8") for c in row["contributions"]]
                row["contributions"] = []
                header = dump(row)[:-2].encode("utf-8")  # without the empty list's "]}"
                line = b"".join((header, b", ".join(parts), b"]}"))
                spans[record.corpus_id] = array("q", [at + len(header), *map(len, parts)])
                at += len(line) + 1
                yield line

        with self._lock:
            start = jsonl.append_lines(records_path, lines())
            for span in spans.values():
                span[0] += start
            log_file = _identity(records_path)
            if log_file != self._log_file:
                self._log_file, self._log_spans = log_file, {}
            self._log_spans.update(spans)

    def _node_lines(self, log: Optional[Path]) -> Iterator[bytes]:
        """nodes.jsonl lines: each contribution's JSON with its closing
        ``}`` replaced by the paper's metadata fields, encoded once per
        paper. A record this graph appended to ``log`` has its
        contributions' JSON read back from there; any other's is encoded."""
        dump = jsonl.dump_line
        spans = self._log_spans
        if log is None or not spans or _identity(log) != self._log_file:
            spans = {}
        with log.open("rb") if spans else contextlib.nullcontext() as f:
            for record in self._records.values():
                tail = b", " + dump(self.papers[record.corpus_id].to_json())[1:].encode("utf-8")
                span = spans.get(record.corpus_id)
                if span is None:
                    parts = [dump(c.to_json()).encode("utf-8") for c in record.contributions]
                else:
                    parts = _read_parts(f, record, span[0], span[1:])
                for part in parts:
                    yield part[:-1] + tail

    def _view_lines(self, log: Optional[Path] = None) -> dict[str, Iterator[bytes]]:
        """The lines of nodes.jsonl and of edges.jsonl, in that order and
        without their ``\\n``: what ``save`` writes and ``graph_hash``
        digests. ``log`` is the records.jsonl node rows may be read back
        from."""
        return {NODES_FILE: self._node_lines(log), EDGES_FILE: self.edges.lines()}

    def save(self, directory: str | Path) -> None:
        """Write the views, then papers.jsonl, then the stamp. Into a
        directory with no log yet (a store built in memory), append the
        whole log first; a log that exists is never rewritten. The node
        rows of the records this graph appended to this directory's log
        are built from the JSON read back from it; every other row is
        encoded (see the module docstring). A papers.jsonl that this
        graph's last ``write_papers`` wrote, the same file, with the graph
        unchanged since, is left as it is: it holds the bytes a rewrite
        would write.

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
            log = directory / RECORDS_FILE
            if not log.exists():
                self.append_log(log, self._records.values(), self._alignments)
            views = hashlib.sha256()
            for name, lines in self._view_lines(log).items():
                jsonl.write_lines(directory / name, _digested(lines, views.update))
            written, papers = self._papers_written, directory / PAPERS_FILE
            if written is not None and papers.exists() and _identity(papers) == written[0]:
                papers_sha256 = written[1]
            else:
                papers_sha256 = self.write_papers(directory)
            key = _stamp_key(
                _size(directory / RECORDS_FILE),
                _size(directory / ALIGNMENTS_FILE),
                papers_sha256,
                len(self._records),
            )
            jsonl.write_jsonl(directory / STAMP_FILE, [{"graph_hash": views.hexdigest(), **key}])

    def write_papers(self, directory: str | Path) -> str:
        """Write papers.jsonl, one row per known paper with its status, and
        return the sha256 of the bytes written. The graph keeps which file
        that was and the digest until it next changes, so that a ``save``
        into the same directory before then need not write it again."""
        with self._lock:
            papers = ((m.to_json(), self.is_extracted(k)) for k, m in sorted(self.papers.items()))
            lines = (
                jsonl.dump_line({**row, "status": "extracted" if done else "pending"}).encode("utf-8")
                for row, done in papers
            )
            digest = hashlib.sha256()
            path = Path(directory) / PAPERS_FILE
            jsonl.write_lines(path, _digested(lines, lambda line: digest.update(line + b"\n")))
            self._papers_written = _identity(path), digest.hexdigest()
            return self._papers_written[1]

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

        A writer appends a batch's late alignments before its records, so
        ``load`` notes the length of records.jsonl before it reads
        alignments.jsonl and replays records only up to that length: each
        record it applies had its late alignments logged before it looked,
        and a record appended since is not replayed, so a load during a
        crawl holds a graph some state of the store derives.

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
        committed = _size(records_path)  # before alignments.jsonl: see the docstring
        with collector_paused():
            late: dict[Optional[str], dict[UnresolvedRef, UnresolvedRef]] = {}
            alignments_path = directory / ALIGNMENTS_FILE
            if alignments_path.exists():
                rows = jsonl.read_rows(alignments_path, lambda row: row, alignments_read)
                for number, raw in enumerate(rows, 1):
                    entry = recmod.parse_alignment(raw, f"{alignments_path} row {number}")
                    late.setdefault(entry.ref.cited_id, {})[entry] = entry
            if records_path.exists():
                rows = jsonl.read_rows(records_path, recmod.parse_record, records_read, committed)
                for record in rows:
                    graph.add_paper_record(record, list(late.get(record.corpus_id, {}).values()))
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


def _identity(path: Path) -> tuple[int, int]:
    """The file at ``path``, as (st_dev, st_ino)."""
    stat = path.stat()
    return stat.st_dev, stat.st_ino


def _read_parts(
    f: BinaryIO, record: ExtractionRecord, offset: int, lengths: Sequence[int]
) -> list[bytes]:
    """The JSON of each of ``record``'s contributions, read from ``f`` at
    ``offset``, where they lie joined by ``", "`` with these byte
    lengths. A part that does not start with its contribution's id or
    end with ``}`` raises ContribGraphError: a wrong span would corrupt
    nodes.jsonl and its stamped digest together."""
    if len(lengths) != len(record.contributions):
        raise ContribGraphError(
            f"{f.name}: {len(lengths)} contributions logged at byte {offset} for"
            f" {record.corpus_id}, which has {len(record.contributions)}"
        )
    if not lengths:
        return []
    f.seek(offset)
    data = f.read(sum(lengths) + 2 * (len(lengths) - 1))
    parts, start = [], 0
    for contribution, length in zip(record.contributions, lengths):
        part = data[start:start + length]
        head = ('{"contribution_id": ' + jsonl.dump_line(contribution.id)).encode("utf-8")
        if not (part.startswith(head) and part.endswith(b"}")):
            raise ContribGraphError(
                f"{f.name} at byte {offset + start}: the log does not hold"
                f" contribution {contribution.id} where it was appended"
            )
        parts.append(part)
        start += length + 2
    return parts


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
