"""Generation-backed extraction pipeline.

Three staged operations per paper: contribution extraction, per-
contribution prerequisite extraction (which may split a contribution
into finer-grained ones), and prerequisite-to-contribution alignment
against cited papers. Stage outputs are strict fenced JSON; a schema
violation re-prompts with the validator's errors appended, up to a
retry budget (``backends.generate_validated``, shared with ranking).
``records`` alone knows the shape and spellings of an answer: a stage
output is parsed by the parsers of ingested records (``records.objects``,
``parse_contribution``, ``check_internal``, ``parse_matches``), so it
passes their rules; this module's validators add only the stage rules,
each fault once, naming an entry by its raw position. A staged paper
is the ExtractionRecord that finalizing ingests and logs.

A batch runs in three steps on one pool of workers, each job a future
that holds its result or the error it raised: every paper is staged
(stages 2 and 3); then every alignment the batch can need is run, one
job per reference site, whether it cites a paper already in the store,
a paper of the batch (in either direction), or is an older unresolved
reference to a paper of the batch; then the papers are finalized
serially in input order. Finalizing makes no model call: it decides
each reference's role and takes the job's result, or meets its error,
then ingests the record and appends it to the log with its late
alignments. The calls and their prompts do not depend on the
parallelism, so batch output is byte-reproducible for any setting.
"""
from __future__ import annotations

import json
import logging
import re
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

from .backends import GenerationBackend, generate_validated
from .backends import parse_fenced_json  # noqa: F401 - bench/tests/test_bench.py imports it here
from .errors import BackendError, DuplicatePaperError, StageFailure
from .graph import ContributionGraph, GraphDelta
from .model import (
    Contribution,
    ContributionNode,
    ExtractionRecord,
    InternalRef,
    Match,
    PaperMeta,
    PaperRef,
    Prerequisite,
    UnresolvedRef,
    make_contribution_id,
    split_contribution_id,
)
from .prompts import (
    ALIGNMENT_TEMPLATE,
    CONTRIBUTION_TEMPLATE,
    PREREQUISITE_TEMPLATE,
    load_template,
    render,
)
from .records import check_internal, objects, parse_contribution, parse_matches

logger = logging.getLogger(__name__)

# Alignment jobs of a batch by reference site, each future holding the
# matches or the error raised.
Aligned = dict[UnresolvedRef, Future]


def _prompt_json(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2)


@dataclass
class PaperInput:
    corpus_id: str
    title: str
    year: Optional[int]
    full_text: str


MAX_PAPER_CHARS = 600_000  # longer full text is tail-truncated


class Pipeline:
    def __init__(
        self,
        backend: GenerationBackend,
        graph: ContributionGraph,
        records_path: Optional[str | Path] = None,
        retries: int = 2,
    ):
        """``retries`` counts the extra attempts after the first, per stage call."""
        self.backend = backend
        self.graph = graph
        self.records_path = Path(records_path) if records_path else None
        self.retries = retries
        self._templates = {
            name: load_template(name)
            for name in (CONTRIBUTION_TEMPLATE, PREREQUISITE_TEMPLATE, ALIGNMENT_TEMPLATE)
        }

    def _paper_text(self, paper: PaperInput) -> str:
        text = paper.full_text
        if len(text) > MAX_PAPER_CHARS:
            logger.warning(
                "paper %s: full text truncated from %d to %d characters",
                paper.corpus_id,
                len(text),
                MAX_PAPER_CHARS,
            )
            text = text[:MAX_PAPER_CHARS]
        return text

    # ------------------------------------------------------------------
    # Stage 2: contribution extraction
    # ------------------------------------------------------------------

    def extract_contributions(self, paper: PaperInput) -> list[Contribution]:
        if not paper.full_text:
            raise ValueError(f"paper {paper.corpus_id}: empty full text")
        prompt = render(
            self._templates[CONTRIBUTION_TEMPLATE],
            {"paper_text": self._paper_text(paper)},
        )

        def validate(entries: list) -> tuple[list[Contribution], list[str]]:
            """Record rules, plus at least one type and one section each."""
            problems: list[str] = []
            out: list[Contribution] = []
            for i, raw in objects(entries, "answer", "contributions", problems):
                cid = make_contribution_id(paper.corpus_id, i)
                # Stage 3 extracts the prerequisites.
                contribution = parse_contribution(
                    raw, cid, f"contribution {i}", problems, omit="prerequisites"
                )
                if not contribution.types:
                    problems.append(f"contribution {i}: needs at least one contribution_type")
                if not contribution.sections:
                    problems.append(f"contribution {i}: needs at least one section")
                out.append(contribution)
            return out, problems

        return generate_validated(
            self.backend, prompt, "contributions", validate,
            retries=self.retries, corpus_id=paper.corpus_id, stage="contributions",
        )

    # ------------------------------------------------------------------
    # Stage 3: prerequisite extraction
    # ------------------------------------------------------------------

    @staticmethod
    def _stage_view(key: str, contribution: Contribution) -> dict[str, Any]:
        """Contribution as the prerequisite prompt presents it (prompt spelling)."""
        return {
            "key": key,
            "name": contribution.name,
            "description": contribution.description,
            "contribution_type": [
                {"type": t.category, "justification": t.explanation}
                for t in contribution.types
            ],
            "sections": list(contribution.sections),
        }

    def extract_prerequisites(
        self,
        contribution: Contribution,
        other_contributions: Sequence[Contribution],
        paper: PaperInput,
    ) -> list[Contribution]:
        """Returns the stage's entries as contributions whose id is their
        stage key (the input key or a dash-split of it) and whose internal
        references still carry stage keys; ``stage_paper`` maps both to
        final ids."""
        if contribution.corpus_id != paper.corpus_id:
            raise ValueError("contribution does not belong to the given paper")
        input_key = str(contribution.index)
        known_keys = {str(c.index) for c in other_contributions} | {input_key}
        prompt = render(
            self._templates[PREREQUISITE_TEMPLATE],
            {
                "paper_text": self._paper_text(paper),
                "contribution": _prompt_json(self._stage_view(input_key, contribution)),
                "other_contributions": _prompt_json(
                    [self._stage_view(str(c.index), c) for c in other_contributions]
                ),
            },
        )

        def validate(entries: list) -> tuple[list[Contribution], list[str]]:
            """Stage rules, then record rules: each key is the input key or
            a dash-split of it and unique; prerequisite names are non-empty;
            a paper reference has a title or corpus_id. Internal reference
            targets come last, checked against the input and output keys."""
            problems: list[str] = []
            entries = [e for _, e in objects(entries, "answer", "contributions", problems)]
            if not entries:
                problems.append(f"output must carry the input contribution (key {input_key!r})")
                return [], problems
            out: list[Contribution] = []
            seen_keys: set[str] = set()
            output_keys = {str(e["key"]) for e in entries if e.get("key")}
            internal: list = []  # filled by parse_contribution, checked last
            for raw in entries:
                key = str(raw.get("key", ""))
                if key != input_key and not re.fullmatch(
                    re.escape(input_key) + r"-\d+", key
                ):
                    problems.append(
                        f"key {key!r} is neither the input key {input_key!r} nor a dash-split of it"
                    )
                if key in seen_keys:
                    problems.append(f"duplicate key {key!r}")
                seen_keys.add(key)
                # Record rules are reported after the stage rules; matches
                # are alignment's output, not this stage's.
                record_problems: list[str] = []
                entry = parse_contribution(
                    raw, key, f"key {key!r}", record_problems, omit="matches", internal=internal
                )
                # Name each prerequisite by its raw position, as the record rules do.
                positions = (i for i, _ in objects(raw.get("prerequisites"), "", "", []))
                for p_idx, prereq in zip(positions, entry.prerequisites):
                    where = f"key {key!r}, prerequisite {p_idx}"
                    if not prereq.name:
                        problems.append(f"{where}: empty name")
                    for ref in prereq.references:
                        # A title that is no string is the record rule's complaint.
                        if isinstance(ref, PaperRef) and ref.title == "" and ref.cited_id is None:
                            problems.append(f"{where}: paper reference needs a title or corpus_id")
                problems.extend(record_problems)
                out.append(entry)
            check_internal(internal, known_keys | output_keys, "key", problems)
            return out, problems

        return generate_validated(
            self.backend, prompt, "contributions", validate,
            retries=self.retries, corpus_id=paper.corpus_id, stage="prerequisites",
        )

    # ------------------------------------------------------------------
    # Stage 4: alignment
    # ------------------------------------------------------------------

    def align_prerequisite(
        self,
        dep: Contribution,
        prereq: Prerequisite,
        cited_contributions: Sequence[ContributionNode],
        cited_meta: Optional[PaperMeta] = None,
    ) -> tuple[Match, ...]:
        """The prompt names the cited paper by ``cited_meta``, by default the graph's."""
        if not cited_contributions:
            # Nothing to align against; a legal zero-match outcome.
            return ()
        cited_corpora = {c.corpus_id for c in cited_contributions}
        if len(cited_corpora) != 1:
            raise ValueError("cited contributions must share one corpus_id")
        cited_corpus = next(iter(cited_corpora))
        cited_ids = {c.id for c in cited_contributions}
        meta = cited_meta or self.graph.papers.get(cited_corpus)
        source_payload = {
            "contribution": {"name": dep.name, "description": dep.description},
            "prerequisite": {
                "name": prereq.name,
                "description": prereq.description,
                "justification": prereq.explanation,
                "core_or_peripheral": prereq.core_or_peripheral,
            },
        }
        cited_payload = {
            "corpus_id": cited_corpus,
            "title": meta.title if meta else "",
            "year": meta.year if meta else None,
            "contributions": [
                {"key": c.id, "name": c.name, "description": c.description}
                for c in cited_contributions
            ],
        }
        prompt = render(
            self._templates[ALIGNMENT_TEMPLATE],
            {
                "source_contribution_with_prerequisite": _prompt_json(source_payload),
                "cited_paper_record": _prompt_json(cited_payload),
            },
        )

        def validate(entries: list) -> tuple[tuple[Match, ...], list[str]]:
            """Record rules, plus: each match names a contribution of the cited paper."""
            problems: list[str] = []
            matches = parse_matches(entries, "answer", problems)
            for match in matches:
                if match.contribution_id and match.contribution_id not in cited_ids:
                    problems.append(
                        f"answer: contribution_key {match.contribution_id!r}"
                        " is not one of the cited paper's keys"
                    )
            return matches, problems

        return generate_validated(
            self.backend, prompt, "matches", validate,
            retries=self.retries, corpus_id=dep.corpus_id, stage="alignment",
        )

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------

    def stage_paper(self, paper: PaperInput) -> ExtractionRecord:
        """Run stages 2 and 3 and assemble the paper's record (no matches yet)."""
        if self.graph.is_extracted(paper.corpus_id):
            raise DuplicatePaperError(f"paper {paper.corpus_id} already extracted")
        stage2 = self.extract_contributions(paper)
        entries: list[tuple[str, Contribution]] = []  # (input_key, entry keyed by stage key)
        for i, contribution in enumerate(stage2):
            others = [c for j, c in enumerate(stage2) if j != i]
            for entry in self.extract_prerequisites(contribution, others, paper):
                entries.append((str(i), entry))

        # Densify keys (splits included) into sequential final ids.
        key_map: dict[str, str] = {}
        for idx, (_, entry) in enumerate(entries):
            key_map.setdefault(entry.id, make_contribution_id(paper.corpus_id, idx))
        for idx, (input_key, entry) in enumerate(entries):
            # An unsplit input key maps to itself; a split one maps to its
            # first part so internal references from other calls still land.
            key_map.setdefault(input_key, make_contribution_id(paper.corpus_id, idx))

        contributions: list[Contribution] = []
        for idx, (input_key, entry) in enumerate(entries):
            cid = make_contribution_id(paper.corpus_id, idx)
            prerequisites = []
            for prereq in entry.prerequisites:
                kept = []
                for ref in prereq.references:
                    if isinstance(ref, InternalRef):
                        target = key_map.get(ref.contribution_id)
                        if target is None or target == cid:
                            logger.warning(
                                "%s: dropping internal reference to %r", cid, ref.contribution_id
                            )
                            continue
                        ref = replace(ref, contribution_id=target)
                    kept.append(ref)
                prerequisites.append(replace(prereq, references=tuple(kept)))
            split_from = input_key if entry.id != input_key else None
            contributions.append(
                replace(entry, id=cid, split_from=split_from, prerequisites=tuple(prerequisites))
            )
        return ExtractionRecord(paper.corpus_id, paper.title, paper.year, tuple(contributions))

    def align_batch(self, batch: Sequence[ExtractionRecord], pool: Executor) -> Aligned:
        """Submit to ``pool`` every alignment the staged ``batch`` can need.

        One job per reference site, keyed by its ``UnresolvedRef``: each
        reference of a staged paper citing a paper extracted in the store
        or another staged paper, and each unmatched unresolved reference
        citing a staged paper. A store paper is presented as the graph
        holds it; a staged one as its record will leave it. The prerequisite
        of an unresolved reference is read from its owner's record
        (``ContributionGraph.record``), once per owning paper. A job's
        error stays in its future: ``finalize_paper`` decides what it
        means for the reference.
        """
        targets: dict[str, tuple[Sequence[ContributionNode], PaperMeta]] = {
            r.corpus_id: (r.contributions, self.graph.extracted_meta(r)) for r in batch
        }
        owners: dict[str, ExtractionRecord] = {}

        def target(corpus_id: str) -> Optional[tuple[Sequence[ContributionNode], PaperMeta]]:
            if corpus_id not in targets and self.graph.is_extracted(corpus_id):
                meta = self.graph.papers[corpus_id]
                targets[corpus_id] = (self.graph.contributions_of(corpus_id), meta)
            return targets.get(corpus_id)

        jobs: dict[UnresolvedRef, tuple[Contribution, Prerequisite, str]] = {}
        for record in batch:
            corpus_id = record.corpus_id
            for site, dep, prereq in _paper_refs(record):
                if target(site.ref.cited_id) is not None:
                    jobs[site] = (dep, prereq, site.ref.cited_id)
            for entry in self.graph.unresolved_citing(corpus_id):
                if not entry.ref.matches:
                    paper, index = split_contribution_id(entry.owner_id)
                    if paper not in owners:
                        owners[paper] = self.graph.record(paper)
                    owner = owners[paper].contributions[index]
                    jobs[entry] = (owner, owner.prerequisites[entry.prereq_index], corpus_id)

        return {
            site: pool.submit(self.align_prerequisite, dep, prereq, *targets[cited])
            for site, (dep, prereq, cited) in jobs.items()
        }

    def finalize_paper(self, record: ExtractionRecord, aligned: Aligned) -> GraphDelta:
        """Apply the finished alignment jobs, ``aligned`` by reference
        site, to one staged paper, then ingest and log its record with its
        late alignments. Makes no model call.

        A reference citing an extracted paper takes its job's result as
        its matches; its job's error is raised, and fails the paper,
        which then leaves the store untouched. An unresolved reference
        citing this paper takes its job's result as a late alignment; a
        transport error or a validation failure there skips only that
        reference, and any other error is raised.
        """
        for site, _, _ in _paper_refs(record):
            if self.graph.is_extracted(site.ref.cited_id):
                site.ref.matches = aligned[site].result()

        late: list[UnresolvedRef] = []
        for entry in self.graph.unresolved_citing(record.corpus_id):
            if entry.ref.matches:
                continue
            try:
                matches = aligned[entry].result()
            except (StageFailure, BackendError) as exc:
                logger.warning("late alignment skipped: %s", exc)
                continue
            late.append(replace(entry, ref=replace(entry.ref, matches=matches)))
        delta = self.graph.add_paper_record(record, late)
        if self.records_path is not None:
            self.graph.append_log(self.records_path, [record], late)
        return delta

    def run_batch(
        self, papers: Sequence[PaperInput], parallel: int = 1
    ) -> list[tuple[PaperInput, Optional[GraphDelta], Optional[Exception]]]:
        """Stage every paper, align the batch, then finalize in input order.

        Staging and alignment run on one pool of ``parallel`` workers, so
        at most ``parallel`` model calls are in flight; alignment jobs
        are submitted once every paper is staged. Returns one (paper,
        delta, error) row per input; a failed paper carries the error of
        its staging or finalizing and leaves the graph untouched, so it
        stays pending. It may have cost the alignment calls already
        issued for its references, and for references citing it.
        """
        with ThreadPoolExecutor(max_workers=max(1, parallel)) as pool:
            staged = [pool.submit(self.stage_paper, paper) for paper in papers]
            aligned = self.align_batch(
                [job.result() for job in staged if job.exception() is None], pool
            )

        results: list[tuple[PaperInput, Optional[GraphDelta], Optional[Exception]]] = []
        for paper, job in zip(papers, staged):
            try:
                delta = self.finalize_paper(job.result(), aligned)
                results.append((paper, delta, None))
            except Exception as exc:  # noqa: BLE001 - reported per paper
                results.append((paper, None, exc))
        return results


def _paper_refs(
    record: ExtractionRecord,
) -> Iterator[tuple[UnresolvedRef, Contribution, Prerequisite]]:
    """The record's references citing another paper by corpus id, at their sites."""
    for dep in record.contributions:
        for k, prereq in enumerate(dep.prerequisites):
            for j, ref in enumerate(prereq.references):
                if isinstance(ref, PaperRef) and ref.cited_id not in (None, dep.corpus_id):
                    yield UnresolvedRef(dep.id, k, j, ref), dep, prereq
