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
nodes/edges/papers.jsonl are written views (Kleppmann, DDIA ch. 11:
views derived from a log). ``save`` is the store's one commit: it
writes papers.jsonl, appends every record the log lacks, then writes
the views and the stamp. papers.jsonl is the only file that keeps
catalog metadata, so it is written before the log grows.

A graph keeps one log. Once a log holds some of its records, an append
or a save into another store raises ContribGraphError naming both logs
and writes nothing there; the two are compared as resolved paths, so a
store reached through another path string is the same store.

Once a record is in the log, the graph holds none of its prerequisite
side (Sheehy & Smith, "Bitcask", 2010; Kleppmann, DDIA ch. 3: a small
index in memory over an append-only log, the values read from the
log). It keeps the record's nodes (``model.ContributionNode``: a
contribution without its prerequisites), its edges and its unresolved
references, and where its line lies in records.jsonl: the byte offset
where the line's JSON starts and its length, noted by ``load`` as it
replays the line and by ``append_log`` as it appends it. A record no
log holds yet is held whole, with the late alignments applied with
it, until an append or a save logs it. ``record`` and ``records`` read
a logged record back from its line through ``records.parse_record``,
the one parse path; the line must still hold the paper's record, the
same nodes, or the read raises ContribGraphError naming the file and
the byte offset. Each read stays inside its line's span, so below the
length ``load`` noted; the log is opened for one read, or one pass
over many, and closed after it.

A nodes.jsonl row is a contribution's JSON as its record's log line
holds it, with the closing ``}`` replaced by the paper's metadata
fields. So each contribution is encoded once, when its record is
appended: ``save`` and ``recompute_hash`` copy a logged record's rows
from its line, sequentially and from the page cache, and encode only
the rows of held records. A contribution's JSON is found in the line
by its start, which holds the node's id, name and description as
``append_log`` encodes them (``_line_parts``). A line not laid out that
way, one written by hand say, is parsed instead and its rows encoded.
Either way a line that no longer holds the paper's record fails the
save: a wrong row would corrupt nodes.jsonl and its stamped digest
together, where ``validate`` could not see it.

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
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from . import jsonl, records as recmod
from .errors import ContribGraphError, DuplicatePaperError, RecordValidationError, UnknownIdError
from .model import (
    CONTRIBUTION_CATEGORIES,
    MATCH_TYPES,
    ContributionNode,
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
    """A ``jsonl.read_rows`` ``seen`` callback: the bytes read so far; and
    of the last line read, which ends at ``total``, its length and the
    length of its leading whitespace."""

    def __init__(self) -> None:
        self.total = self.last = self.lead = 0

    def __call__(self, raw: bytes) -> None:
        self.last = len(raw)
        self.total += self.last
        self.lead = 0 if raw[:1] == b"{" else self.last - len(raw.lstrip())


class ContributionGraph:
    """Typed store for papers, contributions, prerequisites, and edges."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.papers: dict[str, PaperMeta] = {}
        self.nodes: dict[str, ContributionNode] = {}
        self.edges = EdgeColumns()
        # Cited corpus id (None for a title-only reference) -> the
        # unresolved references citing it, in insertion order; no empty lists.
        self._unresolved: dict[Optional[str], list[UnresolvedRef]] = {}
        # Corpus id -> the paper's nodes in record order, for every record
        # applied, in the order applied.
        self._extracted: dict[str, tuple[ContributionNode, ...]] = {}
        # The records no log holds, each with the late alignments applied
        # with it.
        self._held: dict[str, tuple[ExtractionRecord, tuple[UnresolvedRef, ...]]] = {}
        # graph_hash() as stamped by the save that wrote the files this
        # graph was loaded from; None once the graph changes.
        self._stamped_hash: Optional[str] = None
        # The resolved path of the records.jsonl the logged records lie
        # in, and for each logged record the byte offset and length of
        # its line there.
        self._log: Optional[Path] = None
        self._spans: dict[str, tuple[int, int]] = {}

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
        its rules. The graph holds the record whole, with ``late``, until
        the log holds it (``append_log`` or ``save``, or ``load`` as it
        replays it).
        """
        if isinstance(record, dict):
            record = recmod.parse_record(record)

        with self._lock:
            if record.corpus_id in self._extracted:
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
                            if cited in self._extracted:
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
            self._stamped_hash = None
            self.papers[record.corpus_id] = self.extracted_meta(record)
            nodes = tuple([contribution.node() for contribution in record.contributions])
            for node in nodes:
                self.nodes[node.id] = node
            self.edges._extend(new_edges)
            self._unresolved.pop(record.corpus_id, None)
            for cited, entry in new_unresolved:
                self._unresolved.setdefault(cited, []).append(entry)
            self._extracted[record.corpus_id] = nodes
            self._held[record.corpus_id] = record, tuple(late)
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
            self._stamped_hash = None
            self.papers[meta.corpus_id] = meta
            return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_extracted(self, corpus_id: Optional[str]) -> bool:
        """Whether the log holds the paper's record."""
        with self._lock:
            return corpus_id in self._extracted

    def get_contribution(self, cid: str) -> ContributionNode:
        with self._lock:
            try:
                return self.nodes[cid]
            except KeyError:
                raise UnknownIdError(f"unknown contribution id {cid!r}") from None

    def contributions_of(self, corpus_id: str) -> tuple[ContributionNode, ...]:
        """The paper's nodes in record order, which is index order; none
        unless the paper was extracted. The graph's own tuple, not a copy."""
        with self._lock:
            return self._extracted.get(corpus_id, ())

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

    def record(self, corpus_id: str) -> ExtractionRecord:
        """The paper's whole record: from memory when no log holds it,
        else read back from its line in the log (see the module
        docstring)."""
        with self._lock:
            if corpus_id not in self._extracted:
                raise UnknownIdError(f"no record of paper {corpus_id!r}")
            held = self._held.get(corpus_id)
            return held[0] if held is not None else next(self._records([corpus_id]))

    def records(self) -> list[ExtractionRecord]:
        """Every whole record, in the order applied; the logged ones are
        read back from the log."""
        with self._lock:
            return list(self._records(self._extracted))

    def _records(self, corpus_ids: Iterable[str]) -> Iterator[ExtractionRecord]:
        for corpus_id, line, offset in self._lines(corpus_ids):
            yield self._record_at(corpus_id, line, offset)

    def _lines(self, corpus_ids: Iterable[str]) -> Iterator[tuple[str, Optional[bytes], int]]:
        """Each of ``corpus_ids`` with its record's log line and the line's
        offset; None for the line of a record no log holds. The log is
        opened once, only if one of them lies there, and closed when the
        iteration ends; each read stays inside the span noted for it."""
        spans, log = self._spans, self._log
        with log.open("rb") if spans and log else contextlib.nullcontext() as f:
            for corpus_id in corpus_ids:
                span = spans.get(corpus_id)
                if span is None:
                    yield corpus_id, None, 0
                    continue
                offset, length = span
                f.seek(offset)
                line = f.read(length)
                if len(line) != length:
                    raise ContribGraphError(
                        f"{log} at byte {offset}: the log ends inside the line of"
                        f" record {corpus_id}"
                    )
                if line[:1] != b"{":
                    raise ContribGraphError(
                        f"{log} at byte {offset}: the line of record {corpus_id}"
                        " no longer starts there"
                    )
                yield corpus_id, line, offset

    def _record_at(self, corpus_id: str, line: Optional[bytes], offset: int) -> ExtractionRecord:
        """The paper's held record when ``line`` is None; else the record
        that ``line``, read from the log at ``offset``, holds, through
        ``records.parse_record``. A line that no longer holds the record
        applied for ``corpus_id``, the same nodes in the same order,
        raises ContribGraphError."""
        if line is None:
            return self._held[corpus_id][0]
        try:
            raw = json.loads(line)
            record = recmod.parse_record(raw) if type(raw) is dict else None
        except (KeyError, TypeError, ValueError, RecordValidationError):
            record = None
        if record is None or record.corpus_id != corpus_id or tuple(
            [c.node() for c in record.contributions]
        ) != self._extracted[corpus_id]:
            raise ContribGraphError(
                f"{self._log} at byte {offset}: the log no longer holds the record of"
                f" {corpus_id} that the graph applied from there"
            )
        return record

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

    def append_log(self, records_path: str | Path) -> None:
        """Append every record the graph holds to ``records_path``, in the
        order applied, after the late alignments applied with them to the
        alignments file beside it: the one writer of the log, which it
        only appends to. Alignments first: a crash between the two
        appends leaves alignments of a paper with no record, which replay
        ignores, so the paper is simply extracted again. A record's line
        is ``dump_line(record.to_json())``.

        Once the append returns, the graph keeps where the line of each
        record lies, the offset and the length, and no longer holds the
        record (see the module docstring). An append that fails changes
        nothing that the graph keeps, so the next append or save logs its
        records, still in the order applied. A graph keeps one log: once
        some of its records are logged, an append to another file raises
        ContribGraphError and writes nothing.
        """
        records_path = Path(records_path)
        dump = jsonl.dump_line
        with self._lock:
            log = self._own_log(records_path)
            held = list(self._held.values())
            alignments = (e.to_json() for _, late in held for e in late)
            jsonl.append_jsonl(records_path.with_name(ALIGNMENTS_FILE), alignments)
            spans: list[tuple[str, int, int]] = []  # offsets from the start of the append

            def lines() -> Iterator[bytes]:
                at = 0
                for record, _ in held:
                    line = dump(record.to_json()).encode("utf-8")
                    spans.append((record.corpus_id, at, len(line) + 1))
                    at += len(line) + 1
                    yield line

            start = jsonl.append_lines(records_path, lines())
            self._log = log
            for corpus_id, offset, length in spans:
                self._logged(corpus_id, start + offset, length)

    def _own_log(self, records_path: Path) -> Path:
        """``records_path`` resolved; ContribGraphError when some of the
        graph's records are logged in another file."""
        log = records_path.resolve()
        if self._spans and log != self._log:
            raise ContribGraphError(
                f"{log}: this graph's records are logged in {self._log}, and a graph"
                " keeps one log"
            )
        return log

    def _logged(self, corpus_id: str, offset: int, length: int) -> None:
        """The log holds the paper's record in the line whose JSON starts
        at ``offset``, ``length`` bytes to the line's end: the graph stops
        holding the record."""
        self._held.pop(corpus_id, None)
        self._spans[corpus_id] = offset, length

    def _node_lines(self) -> Iterator[bytes]:
        """nodes.jsonl lines: each contribution's JSON with its closing
        ``}`` replaced by the paper's metadata fields, encoded once per
        paper. A logged record's contributions are copied from its line
        (``_line_parts``), or encoded from the record the line holds when
        it is not laid out as ``append_log`` writes one; a held record's
        are encoded."""
        dump, extracted = jsonl.dump_line, self._extracted
        for corpus_id, line, offset in self._lines(extracted):
            tail = b", " + dump(self.papers[corpus_id].to_json())[1:].encode("utf-8")
            parts = None if line is None else _line_parts(line, corpus_id, extracted[corpus_id])
            if parts is None:
                record = self._record_at(corpus_id, line, offset)
                parts = [dump(c.to_json()).encode("utf-8") for c in record.contributions]
            for part in parts:
                yield part[:-1] + tail

    def _view_lines(self) -> dict[str, Iterator[bytes]]:
        """The lines of nodes.jsonl and of edges.jsonl, in that order and
        without their ``\\n``: what ``save`` writes and ``graph_hash``
        digests."""
        return {NODES_FILE: self._node_lines(), EDGES_FILE: self.edges.lines()}

    def save(self, directory: str | Path) -> None:
        """The store's one commit: write papers.jsonl, then append every
        record the graph holds, with the late alignments applied with it,
        to the directory's log, whether or not the log exists yet; then
        write the views, then the stamp. A log is never rewritten. Once
        some of the graph's records are logged in another store, raise
        ContribGraphError before anything is written. papers.jsonl goes
        first because it alone keeps catalog metadata: a writer that dies
        after the append loses none. The node rows are copied from the
        records' log lines (see the module docstring).

        The view lines are digested as they are written. The stamp,
        graph_hash.json, holds that digest and its key: the byte lengths
        of the two log files as they stand and the sha256 of the
        papers.jsonl just written, plus the record count. It is written
        last, temporary file then rename, so a crash mid-save leaves the
        old stamp, whose key then matches only files that still derive
        the old graph. This graph's own ``graph_hash`` is left as it was:
        only ``load`` reads the stamp. The key assumes the log only grows,
        so whatever truncates or rewrites it must delete the stamp first.
        """
        with self._lock:
            directory = Path(directory)
            log = directory / RECORDS_FILE
            self._own_log(log)
            papers_sha256 = self.write_papers(directory)
            self.append_log(log)
            views = hashlib.sha256()
            for name, lines in self._view_lines().items():
                jsonl.write_lines(directory / name, _digested(lines, views.update))
            key = _stamp_key(
                _size(log), _size(directory / ALIGNMENTS_FILE), papers_sha256, len(self._extracted)
            )
            jsonl.write_jsonl(directory / STAMP_FILE, [{"graph_hash": views.hexdigest(), **key}])

    def write_papers(self, directory: str | Path) -> str:
        """Write papers.jsonl, one row per known paper with its status, and
        return the sha256 of the bytes written. ``save`` calls it first;
        ``extract`` also calls it before its batch's first append, so that
        the log never holds a record whose catalog metadata papers.jsonl
        lacks."""
        with self._lock:
            papers = ((m.to_json(), self.is_extracted(k)) for k, m in sorted(self.papers.items()))
            lines = (
                jsonl.dump_line({**row, "status": "extracted" if done else "pending"}).encode("utf-8")
                for row, done in papers
            )
            digest = hashlib.sha256()
            path = Path(directory) / PAPERS_FILE
            jsonl.write_lines(path, _digested(lines, lambda line: digest.update(line + b"\n")))
            return digest.hexdigest()

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
            late = _read_late(directory / ALIGNMENTS_FILE, alignments_read)
            if records_path.exists():
                graph._log = records_path.resolve()
                rows = jsonl.read_rows(records_path, recmod.parse_record, records_read, committed)
                for record in rows:
                    graph.add_paper_record(record, list(late.get(record.corpus_id, {}).values()))
                    length = records_read.last - records_read.lead  # from the line's "{"
                    graph._logged(record.corpus_id, records_read.total - length, length)
            papers_path = directory / PAPERS_FILE
            if papers_path.exists():
                for meta in jsonl.read_rows(papers_path, recmod.parse_paper, papers_read.update):
                    graph.register_paper(meta)
        key = _stamp_key(
            records_read.total, alignments_read.total, papers_read.hexdigest(), len(graph._extracted)
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


def _read_late(
    path: Path, seen: Optional[Callable[[bytes], object]] = None
) -> dict[Optional[str], dict[UnresolvedRef, UnresolvedRef]]:
    """The late alignments that the alignments.jsonl at ``path`` logs, by
    cited paper: for each reference site the last one logged, in the
    order each site was first logged. None when there is no file.
    ``seen`` is ``jsonl.read_rows``'s."""
    late: dict[Optional[str], dict[UnresolvedRef, UnresolvedRef]] = {}
    if path.exists():
        for number, raw in enumerate(jsonl.read_rows(path, lambda row: row, seen), 1):
            entry = recmod.parse_alignment(raw, f"{path} row {number}")
            late.setdefault(entry.ref.cited_id, {})[entry] = entry
    return late


def _line_parts(
    line: bytes, corpus_id: str, nodes: Sequence[ContributionNode]
) -> Optional[list[bytes]]:
    """The JSON of each contribution in ``line``, the log line of the
    paper's record, when the line is laid out as ``append_log`` writes
    one: it starts with the paper's corpus id; each contribution's JSON
    starts with its node's id, name and description, encoded; they are
    joined by ``", "``; and the line closes with ``]}``. None when it is
    not, or when a contribution's start can be read at two places in the
    line, so that the caller parses the line instead. A start found
    this way lies where the record's encoding puts it: ``"`` inside a
    string is escaped, so it can be read only where an object starts."""
    dump = jsonl.dump_line
    line = line.rstrip()
    if not line.startswith(b'{"corpus_id": ' + dump(corpus_id).encode("utf-8") + b", "):
        return None
    if not nodes:
        return [] if line.endswith(b'"contributions": []}') else None
    starts, at = [], 0
    for i, node in enumerate(nodes):
        head = {"contribution_id": node.id, "name": node.name, "description": node.description}
        before = b'"contributions": [' if i == 0 else b"}, "
        pattern = before + dump(head)[:-1].encode("utf-8") + b', "types": '
        at = line.find(pattern, at)
        if at < 0 or line.find(pattern, at + 1) >= 0:
            return None
        at += len(before)
        starts.append(at)
    if not line.endswith(b"}]}"):
        return None
    ends = [start - 2 for start in starts[1:]] + [len(line) - 2]
    return [line[start:end] for start, end in zip(starts, ends)]


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
