"""Ranking evaluation: average precision, submission repair, and
temporally-filtered backtesting splits.

AP for one ranking is the mean, over gold items, of precision at each
gold item's rank (1-based). It is computed in exact rational
arithmetic and converted to float once, so results are reproducible
and independent of summation order. MAP is the macro average of AP
over problems.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from . import jsonl
from .backends import GenerationBackend, generate_validated
from .errors import BackendError, ContribGraphError, StageFailure
from .model import PartialDate, Problem
from .prompts import RANKING_TEMPLATE, load_template, render

logger = logging.getLogger(__name__)


def average_precision(ranked_ids: Sequence[str], gold_ids: Iterable[str]) -> float:
    gold = set(gold_ids)
    if not gold:
        raise ValueError("gold_ids must be non-empty")
    if not gold.issubset(set(ranked_ids)):
        missing = sorted(gold - set(ranked_ids))
        raise ValueError(f"gold ids missing from ranking: {missing}")
    total = Fraction(0)
    hits = 0
    for rank, cid in enumerate(ranked_ids, start=1):
        if cid in gold:
            hits += 1
            total += Fraction(hits, rank)
    return float(total / len(gold))


def repair_submission(raw_ids: Sequence[str], problem: Problem) -> list[str]:
    """Coerce model output into a permutation of the candidate ids.

    Foreign ids are dropped, duplicates keep their first occurrence,
    and missing candidates are appended in the problem's stored
    (shuffled) order.
    """
    candidate_ids = problem.candidate_ids
    candidate_set = set(candidate_ids)
    seen: set[str] = set()
    repaired: list[str] = []
    for cid in raw_ids:
        if cid in candidate_set and cid not in seen:
            repaired.append(cid)
            seen.add(cid)
    repaired.extend(cid for cid in candidate_ids if cid not in seen)
    return repaired


@dataclass
class ModelCutoff:
    tag: str
    year: int
    month: Optional[int] = None

    @classmethod
    def parse(cls, tag: str, value: Any) -> "ModelCutoff":
        """"YYYY[-MM]" or {"year": YYYY, "month": MM}: an integer year and,
        when given, an integer month in 1-12; anything else raises ValueError."""
        if isinstance(value, dict):
            year, month = value["year"], value.get("month")
            if type(year) is not int or not (month is None or type(month) is int and 1 <= month <= 12):
                raise ValueError(f"want an integer year and a month in 1-12, got {value!r:.80}")
            return cls(tag, year, month)
        date = PartialDate.parse(value)
        return cls(tag, date.year, date.month)


def load_cutoffs(path: str | Path) -> dict[str, ModelCutoff]:
    """A JSON object of backend tag to cutoff, "YYYY[-MM]" or
    {"year", "month"}; anything else raises ContribGraphError naming
    ``path``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if type(raw) is not dict:
            raise TypeError(f"want a JSON object, got {type(raw).__name__}")
        return {tag: ModelCutoff.parse(tag, value) for tag, value in raw.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ContribGraphError(f"{path}: bad cutoffs ({exc})") from None


def split_by_cutoff(
    problems: Sequence[Problem], cutoff: ModelCutoff
) -> dict[str, list[Problem]]:
    """Partition problems into pre / post / discarded.

    With month-level dates on both sides, targets at or before the
    cutoff month are pre and later ones post. With only years, the
    cutoff year itself is discarded to prevent contamination.
    """
    out: dict[str, list[Problem]] = {"pre": [], "post": [], "discarded": []}
    for problem in problems:
        date = problem.target_date
        if date is not None and date.month is not None and cutoff.month is not None:
            if (date.year, date.month) <= (cutoff.year, cutoff.month):
                out["pre"].append(problem)
            else:
                out["post"].append(problem)
        else:
            year = date.year if date is not None else problem.target_year
            if year < cutoff.year:
                out["pre"].append(problem)
            elif year > cutoff.year:
                out["post"].append(problem)
            else:
                out["discarded"].append(problem)
    return out


@dataclass
class RankingSubmission:
    problem_id: str
    ranked_ids: list[str]
    backend: str = ""
    tokens: int = 0
    cost: float = 0.0
    flagged: bool = False  # output was unusable and degraded to stored order

    def to_json(self) -> dict[str, Any]:
        return {
            "problem_id": self.problem_id,
            "ranked_ids": self.ranked_ids,
            "backend": self.backend,
            "usage": {"tokens": self.tokens, "cost": self.cost},
            "flagged": self.flagged,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "RankingSubmission":
        usage = obj.get("usage", {})
        if not isinstance(usage, dict):
            raise TypeError(f"usage must be an object, got {usage!r:.80}")
        ranked_ids = obj["ranked_ids"]
        if not isinstance(ranked_ids, list) or not all(isinstance(cid, str) for cid in ranked_ids):
            raise TypeError(f"ranked_ids must be a list of strings, got {ranked_ids!r:.80}")
        return cls(
            problem_id=obj["problem_id"],
            ranked_ids=ranked_ids,
            backend=obj.get("backend", ""),
            tokens=int(usage.get("tokens", 0)),
            cost=float(usage.get("cost", 0.0)),
            flagged=bool(obj.get("flagged", False)),
        )


def rank_with_model(
    problem: Problem, backend: GenerationBackend, retries: int = 2
) -> RankingSubmission:
    """Ask the backend to rank the problem's candidates.

    Ill-formed ids are repaired; when no attempt yields a usable ranking,
    or a call fails at the transport, the submission degrades to the
    stored candidate order and is flagged: one failed call loses one
    problem, not the run.
    """
    prompt = render(
        load_template(RANKING_TEMPLATE),
        {
            "target": json.dumps(
                {"name": problem.target_name, "description": problem.target_description},
                ensure_ascii=False,
                indent=2,
            ),
            "candidates": json.dumps(problem.candidates, ensure_ascii=False, indent=2),
        },
    )
    try:
        with backend.counting() as usage:
            raw_ids = generate_validated(
                backend,
                prompt,
                "ranking",
                lambda ranking: ([str(cid) for cid in ranking], []),
                retries=retries,
                corpus_id=problem.problem_id,
                stage="ranking",
            )
    except (StageFailure, BackendError) as exc:
        logger.warning("problem %s: degraded to stored order: %s", problem.problem_id, exc)
        ranked, flagged = list(problem.candidate_ids), True
    else:
        ranked, flagged = repair_submission(raw_ids, problem), False
    return RankingSubmission(
        problem_id=problem.problem_id,
        ranked_ids=ranked,
        backend=backend.tag,
        tokens=usage.tokens_in + usage.tokens_out,
        cost=usage.cost,
        flagged=flagged,
    )


def run_ranking(
    problems: Sequence[Problem],
    backend: GenerationBackend,
    parallel: int = 1,
    retries: int = 2,
) -> list[RankingSubmission]:
    with ThreadPoolExecutor(max_workers=max(1, parallel)) as pool:
        return list(pool.map(lambda p: rank_with_model(p, backend, retries), problems))


@dataclass
class EvalReport:
    map_overall: Optional[float] = None
    map_pre: Optional[float] = None
    map_post: Optional[float] = None
    n_pre: int = 0
    n_post: int = 0
    n_discarded: int = 0
    cost_per_1k: float = 0.0
    backend: str = ""

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)  # the fields, in report.json's key order


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def score_run(
    problems: Sequence[Problem],
    submissions: Sequence[RankingSubmission],
    cutoff: Optional[ModelCutoff] = None,
) -> EvalReport:
    """Mean AP overall and per cutoff split, plus cost per 1k problems."""
    by_problem = {s.problem_id: s for s in submissions}
    missing = [p.problem_id for p in problems if p.problem_id not in by_problem]
    if missing:
        raise ValueError(f"submissions missing for problems: {missing[:5]}")

    ap: dict[str, float] = {}
    for problem in problems:
        submission = by_problem[problem.problem_id]
        ranked = repair_submission(submission.ranked_ids, problem)
        ap[problem.problem_id] = average_precision(ranked, problem.gold_ids)

    report = EvalReport()
    report.map_overall = _mean([ap[p.problem_id] for p in problems])
    if cutoff is not None:
        report.backend = cutoff.tag
        splits = split_by_cutoff(problems, cutoff)
        report.n_pre = len(splits["pre"])
        report.n_post = len(splits["post"])
        report.n_discarded = len(splits["discarded"])
        report.map_pre = _mean([ap[p.problem_id] for p in splits["pre"]])
        report.map_post = _mean([ap[p.problem_id] for p in splits["post"]])
    total_cost = sum(s.cost for s in submissions)
    if problems:
        report.cost_per_1k = total_cost * 1000.0 / len(problems)
    return report


def read_problems(path: str | Path) -> list[Problem]:
    return list(jsonl.read_rows(path, Problem.from_json))


def write_submissions(path: str | Path, submissions: Iterable[RankingSubmission]) -> None:
    jsonl.write_jsonl(path, (s.to_json() for s in submissions))


def read_submissions(path: str | Path) -> list[RankingSubmission]:
    return list(jsonl.read_rows(path, RankingSubmission.from_json))


def write_report(path: str | Path, report: EvalReport) -> None:
    jsonl.write_chunks(path, [(json.dumps(report.to_json(), indent=2) + "\n").encode("utf-8")])


def append_results_csv(path: str | Path, report: EvalReport) -> None:
    """(cost, MAP) pairs for cost/performance plots, one row per eval run."""
    path = Path(path)
    new_file = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if new_file:
            writer.writerow(
                ["backend", "map_overall", "map_pre", "map_post", "cost_per_1k"]
            )
        writer.writerow(
            [
                report.backend,
                report.map_overall,
                report.map_pre,
                report.map_post,
                report.cost_per_1k,
            ]
        )
