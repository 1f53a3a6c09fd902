"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical files and returns the same oracle. Nothing here imports
from the repository's tests, so later changes to test fixtures cannot
change a workload. The program under test only ever sees the files
written here (catalogs, paper texts and record files).

The crawl corpus embeds a machine-readable ``SPEC`` line in each paper
text. The stub model reads it from the prompt, which keeps every stub
response a pure function of the prompt with no state shared between
the generator and the stub process.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORDS = (
    "adaptive sparse graph attention kernel latent bayesian contrastive encoder "
    "decoder retrieval token curriculum gradient variational spectral temporal "
    "causal residual memory routing mixture expert diffusion flow policy reward "
    "agent search ranking embedding alignment distillation quantized pruning "
    "federated robust calibrated multilingual protein molecule climate sensor"
).split()
CATEGORIES = (
    "techniques_algorithms",
    "models_or_architectures",
    "empirical_evaluation",
    "resource_dataset",
    "theoretical_insight",
    "analysis",
)
VENUES = ("NeurIPS", "ICML", "ACL", "ICLR", "Nature", "KDD")
LAST_NAMES = ("Smith", "Chen", "Garcia", "Okafor", "Novak", "Tanaka", "Kumar", "Weber")


def normalize_title(title: str) -> str:
    """Casefold, strip punctuation, collapse whitespace: the frontier's title key.

    A copy of the program's rule, so the oracle does not reuse the code it checks."""
    cleaned = "".join(ch if ch.isalnum() or ch.isspace() else " " for ch in title)
    return " ".join(cleaned.casefold().split())


def match_type(prereq_name: str, cited_key: str) -> str | None:
    """The stub model's alignment verdict for one (prerequisite, cited contribution).

    About a quarter strong, a fifth weak, the rest no match.
    """
    h = hashlib.sha256(f"{prereq_name}\x1f{cited_key}".encode("utf-8")).digest()[0]
    if h < 64:
        return "strong"
    if h < 112:
        return "weak"
    return None


def ranking_order(candidate_ids: list[str]) -> list[str]:
    """The stub model's ranking: candidate ids in sha256 order."""
    return sorted(candidate_ids, key=lambda cid: hashlib.sha256(cid.encode("utf-8")).digest())


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _sentence(rng: random.Random) -> str:
    return _phrase(rng, 12).capitalize() + "."


def _zipf_cum_weights(rng: random.Random, n: int, exponent: float) -> list[float]:
    """Cumulative weights over n items for a skewed popularity with random ranks."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    total = 0.0
    cum = []
    for rank in ranks:
        total += 1.0 / (1 + rank) ** exponent
        cum.append(total)
    return cum


def _spread(rng: random.Random, refs: list[dict], n_slots: int) -> list[list[dict]]:
    """Deal references to slots: one each to a shuffled order of slots while
    they last, then the rest to random slots."""
    rng.shuffle(refs)
    order = list(range(n_slots))
    rng.shuffle(order)
    slots: list[list[dict]] = [[] for _ in range(n_slots)]
    for i, ref in enumerate(refs):
        slots[order[i] if i < n_slots else rng.randrange(n_slots)].append(ref)
    return slots


# ----------------------------------------------------------------------
# crawl: a catalog of papers with text files, crawled through `extract`
# ----------------------------------------------------------------------

CONTRIBS_PER_PAPER = 3
PREREQS_PER_CONTRIB = 2
# Reference mix per paper (5 references over 6 prerequisites): 3 older
# catalog papers, 1 outside title, and an internal reference on even
# papers or a URL on odd ones -- 60/20/10/10 over the catalog.
CATALOG_REFS, OUTSIDE_REFS = 3, 1


@dataclass
class CrawlCorpus:
    catalog_path: Path
    papers: dict[str, dict]  # corpus id -> spec (what the paper "says")
    newest: list[str]  # seed batch for the first extract


def _paper_spec(rng, index, corpus_id, title, year, older_ids, cum, outside_titles) -> dict:
    contributions = []
    for c in range(CONTRIBS_PER_PAPER):
        contributions.append(
            {
                "name": f"{_phrase(rng, 3).title()} {corpus_id}-{c}",
                "description": " ".join(_sentence(rng) for _ in range(3)),
                "type": rng.choice(CATEGORIES),
                "section": f"Section {c + 2}",
                "prereqs": [],
            }
        )
    refs: list[dict] = []
    for _ in range(CATALOG_REFS):
        if older_ids:
            cited = rng.choices(older_ids, cum_weights=cum[: len(older_ids)])[0]
            refs.append({"kind": "paper", "corpus_id": cited})
        else:
            refs.append({"kind": "outside", "title": rng.choice(outside_titles)})
    for _ in range(OUTSIDE_REFS):
        refs.append({"kind": "outside", "title": rng.choice(outside_titles)})
    refs.append({"kind": "url" if index % 2 else "internal"})
    slots = _spread(rng, [dict(r) for r in refs], CONTRIBS_PER_PAPER * PREREQS_PER_CONTRIB)
    for s, slot in enumerate(slots):
        c, k = divmod(s, PREREQS_PER_CONTRIB)
        for ref in slot:
            if ref["kind"] == "internal":
                ref["key"] = str((c + 1 + rng.randrange(CONTRIBS_PER_PAPER - 1)) % CONTRIBS_PER_PAPER)
            elif ref["kind"] == "url":
                ref["url"] = f"https://example.org/{corpus_id}/{c}/{k}"
        contributions[c]["prereqs"].append(
            {
                "name": f"{_phrase(rng, 3).title()} prerequisite {corpus_id}-{c}-{k}",
                "description": _sentence(rng) + " " + _sentence(rng),
                "justification": _sentence(rng),
                "core": "core" if rng.random() < 0.7 else "peripheral",
                "refs": slot,
            }
        )
    return {"corpus_id": corpus_id, "title": title, "year": year, "contributions": contributions}


def paper_text(spec: dict, rng: random.Random, paragraphs: int = 6) -> str:
    """Full text: corpus marker, title, filler prose and the SPEC line."""
    body = "\n\n".join(" ".join(_sentence(rng) for _ in range(5)) for _ in range(paragraphs))
    return (
        f"[corpus:{spec['corpus_id']}]\n{spec['title']}\n\n{body}\n\n"
        f"SPEC {json.dumps(spec, separators=(',', ':'))}\n"
    )


def crawl_corpus(seed: int, root: Path, n_papers: int, seed_batch: int) -> CrawlCorpus:
    """Catalog of n_papers open-access papers, ids ascending with age order.

    Catalog references cite strictly older papers, skewed to a popular
    head, so the frontier walks backwards from the newest papers.
    """
    rng = random.Random(f"crawl:{seed}")
    texts = root / "texts"
    texts.mkdir(parents=True, exist_ok=True)
    ids = [str(2_000_000 + i) for i in range(n_papers)]
    cum = _zipf_cum_weights(rng, n_papers, 0.6)
    outside_titles = [f"{_phrase(rng, 4).title()} outside work {i}" for i in range(400)]
    papers: dict[str, dict] = {}
    catalog_rows = []
    for i, corpus_id in enumerate(ids):
        year = 2015 + (i * 11) // n_papers
        title = f"{_phrase(rng, 5).title()} {corpus_id}"
        spec = _paper_spec(rng, i, corpus_id, title, year, ids[:i], cum, outside_titles)
        for contribution in spec["contributions"]:
            for prereq in contribution["prereqs"]:
                for ref in prereq["refs"]:
                    if ref["kind"] == "outside":
                        ref["year"] = 2000 + rng.randrange(15)
        papers[corpus_id] = spec
        text_path = texts / f"{corpus_id}.txt"
        text_path.write_text(paper_text(spec, rng), encoding="utf-8")
        catalog_rows.append(
            {
                "corpus_id": corpus_id,
                "title": title,
                "year": year,
                "first_author_last": rng.choice(LAST_NAMES),
                "open_access": True,
                "text_path": str(text_path),
                "date": f"{year:04d}-{1 + rng.randrange(12):02d}",
                "venue": rng.choice(VENUES),
            }
        )
    catalog_path = root / "catalog.jsonl"
    _write_jsonl(catalog_path, catalog_rows)
    return CrawlCorpus(catalog_path, papers, ids[-seed_batch:])


def crawl_oracle_edges(papers: dict[str, dict], extracted: set[str]) -> Counter:
    """Edge multiset (pre, dep, match_type, prereq_index) the crawl must produce.

    Internal references become strong edges; a catalog reference between
    two extracted papers is aligned exactly once, whichever paper was
    extracted first, and yields the stub's matches.
    """
    edges: Counter = Counter()
    for corpus_id in extracted:
        for c, contribution in enumerate(papers[corpus_id]["contributions"]):
            dep = f"{corpus_id}.c{c}"
            for k, prereq in enumerate(contribution["prereqs"]):
                for ref in prereq["refs"]:
                    if ref["kind"] == "internal":
                        edges[(f"{corpus_id}.c{ref['key']}", dep, "strong", k)] += 1
                    elif ref["kind"] == "paper" and ref["corpus_id"] in extracted:
                        for t in range(CONTRIBS_PER_PAPER):
                            pre = f"{ref['corpus_id']}.c{t}"
                            verdict = match_type(prereq["name"], pre)
                            if verdict:
                                edges[(pre, dep, verdict, k)] += 1
    return edges


def crawl_frontier(papers: dict[str, dict], extracted: set[str]) -> set[str]:
    """Catalog papers the frontier can offer next: cited by an extracted
    paper and not extracted themselves (every catalog paper has a text)."""
    return {
        ref["corpus_id"]
        for corpus_id in extracted
        for contribution in papers[corpus_id]["contributions"]
        for prereq in contribution["prereqs"]
        for ref in prereq["refs"]
        if ref["kind"] == "paper"
    } - extracted


# ----------------------------------------------------------------------
# ingest: a record file whose paper references mostly stay unresolved
# ----------------------------------------------------------------------

# Per record: 5 outside references (unresolved), 2 into the set (either
# direction, so both forward and late materialization run), 1 internal
# and 1 URL.
INGEST_OUTSIDE_REFS, INGEST_INSIDE_REFS = 5, 2


@dataclass
class IngestCorpus:
    catalog_path: Path
    records_path: Path
    n_records: int
    nodes: int
    edges: int
    unresolved: int  # left after the last record
    unresolved_added: int  # summed over the ingest's per-record deltas
    histogram: Counter = field(default_factory=Counter)


def ingest_corpus(seed: int, root: Path, n_records: int) -> IngestCorpus:
    rng = random.Random(f"ingest:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    ids = [str(3_000_000 + i) for i in range(n_records)]
    n_outside = 4000
    outside_ids = [str(4_000_000 + i) for i in range(n_outside)]
    outside_cum = _zipf_cum_weights(rng, n_outside, 0.9)
    outside_titled = [(f"{_phrase(rng, 4).title()}: Untracked Study {i}", 2000 + i % 15) for i in range(300)]
    histogram: Counter = Counter()
    edges = unresolved = later_refs = 0
    records, catalog_rows = [], []
    for i, corpus_id in enumerate(ids):
        year = 2015 + (i * 11) // n_records
        title = f"{_phrase(rng, 5).title()} {corpus_id}"
        refs: list[dict] = []
        for _ in range(INGEST_OUTSIDE_REFS):
            if rng.random() < 0.8:
                cited = rng.choices(outside_ids, cum_weights=outside_cum)[0]
                refs.append(_record_paper_ref(rng, f"Outside paper {cited}", 2010, cited, []))
                histogram[cited] += 1
            else:
                ref_title, ref_year = rng.choice(outside_titled)
                refs.append(_record_paper_ref(rng, ref_title, ref_year, None, []))
                histogram[f"title:{normalize_title(ref_title)}|{ref_year}"] += 1
            unresolved += 1
        for _ in range(INGEST_INSIDE_REFS):
            j = (i + 1 + rng.randrange(n_records - 1)) % n_records
            cited = ids[j]
            later_refs += j > i  # unresolved until the cited record arrives
            matches = [
                {"contribution_id": f"{cited}.c{t}", "explanation": "aligned", "match_type": m}
                for t in range(CONTRIBS_PER_PAPER)
                if (m := ("strong", "weak", None, None)[rng.randrange(4)])
            ]
            edges += len(matches)
            refs.append(_record_paper_ref(rng, f"Inside paper {cited}", 2015, cited, matches))
        refs.append({"type": "internal"})
        refs.append({"type": "artifact", "name": "code", "url": f"https://example.org/{corpus_id}"})
        slots = _spread(rng, refs, CONTRIBS_PER_PAPER * PREREQS_PER_CONTRIB)
        contributions = []
        for c in range(CONTRIBS_PER_PAPER):
            prereqs = []
            for k in range(PREREQS_PER_CONTRIB):
                slot = slots[c * PREREQS_PER_CONTRIB + k]
                for ref in slot:
                    if ref["type"] == "internal":
                        target = (c + 1) % CONTRIBS_PER_PAPER
                        ref.update(
                            contribution_name=f"Contribution {target}",
                            contribution_id=f"{corpus_id}.c{target}",
                            explanation="builds on it",
                        )
                        edges += 1
                prereqs.append(
                    {
                        "name": f"Prerequisite {corpus_id}-{c}-{k}",
                        "description": _sentence(rng),
                        "explanation": _sentence(rng),
                        "core_or_peripheral": "core",
                        "references": slot,
                    }
                )
            contributions.append(_record_contribution(rng, corpus_id, c, prereqs))
        records.append({"corpus_id": corpus_id, "title": title, "year": year, "contributions": contributions})
        catalog_rows.append(_catalog_row(rng, corpus_id, title, year))
    catalog_path, records_path = root / "catalog.jsonl", root / "records.jsonl"
    _write_jsonl(catalog_path, catalog_rows)
    _write_jsonl(records_path, records)
    return IngestCorpus(
        catalog_path, records_path, n_records, n_records * CONTRIBS_PER_PAPER, edges, unresolved,
        unresolved + later_refs, histogram,
    )


# ----------------------------------------------------------------------
# backtest: a large resolved store for embed / taskgen / rank / eval
# ----------------------------------------------------------------------


@dataclass
class BacktestCorpus:
    catalog_path: Path
    records_path: Path
    years: dict[str, int]  # corpus id -> year
    edges: list[tuple[str, str]]  # (pre, dep), duplicates kept
    n_contributions: int


def backtest_corpus(seed: int, root: Path, n_papers: int) -> BacktestCorpus:
    """n_papers papers with 3 contributions each; every contribution cites
    0-3 contributions of older papers through resolved, pre-aligned references."""
    rng = random.Random(f"backtest:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    years: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    catalog_rows = []
    with (root / "records.jsonl").open("w", encoding="utf-8") as out:
        for i in range(n_papers):
            corpus_id = str(5_000_000 + i)
            year = 2015 + (i * 11) // n_papers
            years[corpus_id] = year
            title = f"{_phrase(rng, 5).title()} {corpus_id}"
            contributions = []
            for c in range(CONTRIBS_PER_PAPER):
                prereqs = []
                for k in range(rng.randrange(4) if i else 0):
                    cited = str(5_000_000 + rng.randrange(i))
                    pre = f"{cited}.c{rng.randrange(CONTRIBS_PER_PAPER)}"
                    edges.append((pre, f"{corpus_id}.c{c}"))
                    match = {"contribution_id": pre, "explanation": "aligned",
                             "match_type": "strong" if rng.random() < 0.6 else "weak"}
                    prereqs.append(
                        {
                            "name": f"Prerequisite {corpus_id}-{c}-{k}",
                            "description": _sentence(rng),
                            "explanation": "needed",
                            "core_or_peripheral": "core",
                            "references": [_record_paper_ref(rng, f"Paper {cited}", years[cited], cited, [match])],
                        }
                    )
                contributions.append(_record_contribution(rng, corpus_id, c, prereqs))
            record = {"corpus_id": corpus_id, "title": title, "year": year, "contributions": contributions}
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
            catalog_rows.append(_catalog_row(rng, corpus_id, title, year))
    catalog_path = root / "catalog.jsonl"
    _write_jsonl(catalog_path, catalog_rows)
    return BacktestCorpus(catalog_path, root / "records.jsonl", years, edges, n_papers * CONTRIBS_PER_PAPER)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _record_paper_ref(rng, title, year, corpus_id, matches) -> dict:
    return {
        "type": "paper",
        "paper_title": title,
        "first_author": {"last_name": rng.choice(LAST_NAMES), "first_name": "A", "middle_names": ""},
        "paper_year": year,
        "paper_venue": rng.choice(VENUES),
        "corpus_id": corpus_id,
        "matches": matches,
    }


def _record_contribution(rng, corpus_id, c, prereqs) -> dict:
    return {
        "contribution_id": f"{corpus_id}.c{c}",
        "name": f"{_phrase(rng, 3).title()} {corpus_id}-{c}",
        "description": _sentence(rng) + " " + _sentence(rng),
        "types": [{"type": rng.choice(CATEGORIES), "explanation": "by construction"}],
        "sections": [f"Section {c + 2}"],
        "prerequisites": prereqs,
    }


def _catalog_row(rng, corpus_id, title, year) -> dict:
    return {
        "corpus_id": corpus_id,
        "title": title,
        "year": year,
        "first_author_last": rng.choice(LAST_NAMES),
        "open_access": False,
        "text_path": "",
        "date": f"{year:04d}-{1 + rng.randrange(12):02d}",
    }


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
