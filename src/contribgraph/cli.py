"""Command-line interface.

Workflow: ingest -> extract -> frontier -> embed -> taskgen -> rank ->
eval -> export, plus validate. Exit status is 0 on success, 1 on
operational failure, 2 on usage errors. Write subcommands hold an
exclusive store lock.

Settings are read here and nowhere else, once: a subcommand's flag,
when given, beats ``CONTRIBGRAPH_<KEY>`` in the environment, which beats
``KEY`` in the ``--config`` file. The backends take values as arguments.

Each step of the workflow is its own process, so a subcommand imports
its own modules: the module level holds only the standard library and
the package modules that argument parsing and dispatch need, and each
``cmd_*`` imports the package modules it uses. numpy is thus loaded
only by ``embed`` and ``taskgen``, and runs its BLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` is already set: every product here is
one matrix-vector product of at most tens of thousands of rows, too
small to repay waking a second thread, and starting the pool adds tens
of milliseconds to ``import numpy``.
"""
from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import __version__
from .errors import ContribGraphError
from .model import CANDIDATES_PER_PROBLEM, ExtractionRecord

if TYPE_CHECKING:
    from .backends import GenerationBackend
    from .embedding import EmbeddingIndex, EmbeddingProvider
    from .graph import ContributionGraph

# Read once, when numpy loads, so it is set here, before any cmd_* imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

logger = logging.getLogger(__name__)

LOCK_FILE = "store.lock"
ENV_PREFIX = "CONTRIBGRAPH_"
SETTING_KEYS = (
    "GEN_ENDPOINT", "GEN_API_KEY", "GEN_MODEL", "PRICE_IN_PER_1K", "PRICE_OUT_PER_1K",
    "EMBED_ENDPOINT", "EMBED_API_KEY", "EMBED_MODEL",
)


class CliError(ContribGraphError):
    """Operational failure surfaced to the user with exit status 1."""


def load_settings(config_path: Optional[str]) -> dict[str, str]:
    """The ``--config`` file (``KEY=VALUE`` lines; blank lines and #
    comments ignored), then every ``CONTRIBGRAPH_<KEY>`` environment
    variable laid over it as ``KEY``: the environment wins. A key outside
    SETTING_KEYS, from either source, is an error: a misspelt key would
    otherwise be ignored without a word."""
    settings: dict[str, str] = {}
    if config_path:
        for line in Path(config_path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"bad config line (want KEY=VALUE): {line!r}")
            key, value = line.split("=", 1)
            settings[_known(key.strip(), config_path)] = value.strip()
    for name, value in os.environ.items():
        if name.startswith(ENV_PREFIX):
            settings[_known(name[len(ENV_PREFIX):], f"the environment ({name})")] = value
    return settings


def _known(key: str, source: str) -> str:
    if key not in SETTING_KEYS:
        raise CliError(f"unknown setting {key} in {source}; the keys are {', '.join(SETTING_KEYS)}")
    return key


def price(settings: dict[str, str], key: str) -> float:
    """A per-1k-token price setting: a finite number >= 0, and 0 when unset."""
    text = settings.get(key, "0")
    with contextlib.suppress(ValueError):
        if 0.0 <= float(text) < float("inf"):  # false for nan too
            return float(text)
    raise CliError(f"{key} must be a non-negative number, got {text!r}")


@contextlib.contextmanager
def store_lock(store_dir: Path):
    """Exclusive lock for write subcommands; the kernel drops it when its holder dies."""
    store_dir.mkdir(parents=True, exist_ok=True)
    lock_path = store_dir / LOCK_FILE
    with lock_path.open("a") as lock_file:
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"store is locked by another process ({lock_path})") from None
        yield


def load_store(store_dir: Path) -> ContributionGraph:
    """Replay the store, then freeze it (``gc.freeze``): it lives until
    the process exits, so the cyclic collector need never scan it.
    Freezing before the collector resumes also spares the one scan of
    everything the replay built. ``ingest`` freezes what it adds to the
    graph the same way."""
    from .graph import ContributionGraph, collector_paused

    with collector_paused():
        graph = ContributionGraph.load(store_dir)
        gc.freeze()
    return graph


def build_index(graph: ContributionGraph, provider: EmbeddingProvider) -> EmbeddingIndex:
    """``embedding.build_index``, imported on call; bench/traced_cli.py patches this name."""
    from . import embedding

    return embedding.build_index(graph, provider)


def refuse_clobber(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise CliError(f"{path} exists; pass --force to overwrite")


def make_generation_backend(args, settings: dict[str, str]) -> GenerationBackend:
    from . import backends

    if args.mock:
        return backends.MockBackend(args.mock)
    endpoint = args.endpoint if args.endpoint is not None else settings.get("GEN_ENDPOINT")
    if not endpoint:
        raise CliError(
            "no generation endpoint configured: pass --endpoint, set"
            f" {ENV_PREFIX}GEN_ENDPOINT or put GEN_ENDPOINT in the --config file"
        )
    return backends.HttpBackend(
        endpoint,
        api_key=settings.get("GEN_API_KEY"),
        model=args.model if args.model is not None else settings.get("GEN_MODEL", ""),
        price_in_per_1k=price(settings, "PRICE_IN_PER_1K"),
        price_out_per_1k=price(settings, "PRICE_OUT_PER_1K"),
    )


def parse_years(spec: str) -> list[int]:
    """"2021-2025" or "2021,2023"; the argparse type of ``--years``."""
    try:
        if "-" in spec:
            start, end = spec.split("-", 1)
            years = list(range(int(start), int(end) + 1))
        else:
            years = [int(y) for y in spec.split(",") if y]
    except ValueError:
        years = []
    if not years:
        raise argparse.ArgumentTypeError(f"want e.g. 2021-2025 or 2021,2023, got {spec!r}")
    return years


def at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer flag that must be at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_ingest(args, settings) -> int:
    from .frontier import Catalog
    from .graph import RECORDS_FILE, collector_paused
    from .jsonl import read_rows
    from .records import parse_record

    store_dir = Path(args.store)
    with store_lock(store_dir):
        graph = load_store(store_dir)
        ingested, skipped, registered = [], 0, False

        def new_record(raw: dict) -> Optional[ExtractionRecord]:
            """The parsed record, or None when its paper is already extracted."""
            if graph.is_extracted(str(raw.get("corpus_id", ""))):
                return None
            return parse_record(raw)

        with collector_paused():
            if args.catalog:
                catalog = Catalog.load(args.catalog)
                for entry in catalog.by_id.values():
                    registered |= graph.register_paper(entry.paper_meta())
                print(f"catalog: {len(catalog.by_id)} papers registered")
            for records_file in args.records or []:
                for record in read_rows(records_file, new_record):
                    if record is None:
                        skipped += 1
                        continue
                    delta = graph.add_paper_record(record)
                    ingested.append(record)
                    print(f"{record.corpus_id}: {delta}")
            gc.freeze()  # as load_store does: what the build made lives until exit
        if args.records:
            print(f"records: {len(ingested)} ingested, {skipped} already extracted")
        # Only after every record file applied: a failing row leaves the store as it was.
        if ingested:
            if registered:  # papers.jsonl alone keeps catalog metadata
                graph.write_papers(store_dir)
            graph.append_log(store_dir / RECORDS_FILE, ingested)
        graph.save(store_dir)
    return 0


def cmd_extract(args, settings) -> int:
    from . import frontier
    from .graph import RECORDS_FILE
    from .pipeline import PaperInput, Pipeline

    store_dir = Path(args.store)
    catalog = frontier.Catalog.load(args.catalog)
    with store_lock(store_dir):
        graph = load_store(store_dir)
        ids = list(dict.fromkeys(args.ids))  # `extract P P` extracts P once
        if not ids:
            histogram = frontier.build_histogram(graph, catalog)
            ids = frontier.select_batch(
                histogram, frontier.catalog_availability(catalog), args.k
            )
            if not ids:
                print("frontier is empty; nothing to extract")
                return 0
        papers, registered = [], False
        for corpus_id in ids:
            entry = catalog.by_id.get(corpus_id)
            if entry is None:
                raise CliError(f"corpus {corpus_id} not in catalog")
            text_path = Path(entry.text_path)
            if not text_path.exists():
                raise CliError(f"corpus {corpus_id}: text file {text_path} missing")
            registered |= graph.register_paper(entry.paper_meta())
            papers.append(
                PaperInput(
                    corpus_id=entry.corpus_id,
                    title=entry.title,
                    year=entry.year,
                    full_text=text_path.read_text(encoding="utf-8"),
                )
            )
        backend = make_generation_backend(args, settings)
        pipeline = Pipeline(
            backend, graph, records_path=store_dir / RECORDS_FILE, retries=args.retries
        )
        if registered:  # papers.jsonl alone keeps catalog metadata: write it before the log grows
            graph.write_papers(store_dir)
        results = pipeline.run_batch(papers, parallel=args.parallel)
        for paper, delta, error in results:
            outcome = delta if error is None else f"FAILED ({error})"
            print(f"{paper.corpus_id}: {outcome}")
        graph.save(store_dir)
        usage = backend.usage
        print(
            f"backend calls: {usage.calls}, tokens in/out: {usage.tokens_in}/{usage.tokens_out},"
            f" cost: ${usage.cost:.4f}"
        )
        return 1 if any(error is not None for _, _, error in results) else 0


def cmd_frontier(args, settings) -> int:
    from . import frontier

    graph = load_store(Path(args.store))
    catalog = frontier.Catalog.load(args.catalog) if args.catalog else None
    histogram = frontier.build_histogram(graph, catalog)
    available = frontier.catalog_availability(catalog) if catalog is not None else lambda key: True
    batch = frontier.select_batch(histogram, available, args.k)
    for key in batch:
        print(f"{key}\t{histogram[key]}")
    if not batch:
        print("(frontier empty)")
    return 0


def cmd_embed(args, settings) -> int:
    from .embedding import HttpEmbeddingProvider, MockEmbeddingProvider

    store_dir = Path(args.store)
    out_path = Path(args.out) if args.out else store_dir / "embeddings.bin"
    refuse_clobber(out_path, args.force)
    graph = load_store(store_dir)
    if settings.get("EMBED_ENDPOINT"):
        provider = HttpEmbeddingProvider(
            settings["EMBED_ENDPOINT"],
            api_key=settings.get("EMBED_API_KEY"),
            model=settings.get("EMBED_MODEL", ""),
        )
    else:
        provider = MockEmbeddingProvider(dim=args.dim)
    index = build_index(graph, provider)
    index.save(out_path)
    print(f"embedded {len(index)} contributions (dim {index.dim}) -> {out_path}")
    return 0


def cmd_taskgen(args, settings) -> int:
    from . import taskgen
    from .embedding import EmbeddingIndex

    store_dir = Path(args.store)
    out_path = Path(args.out) if args.out else store_dir / "problems.jsonl"
    refuse_clobber(out_path, args.force)
    index_path = Path(args.index) if args.index else store_dir / "embeddings.bin"
    if not index_path.exists():
        raise CliError(f"embedding index {index_path} missing; run `embed` first")
    graph = load_store(store_dir)
    if not graph.nodes:
        raise CliError(f"store {store_dir} has no contributions to sample targets from")
    try:
        index = EmbeddingIndex.load(index_path)
    except ValueError as exc:  # not an index file, or a broken one
        raise CliError(f"{index_path}: {exc}") from None
    result = taskgen.generate_problems(
        graph,
        index,
        years=args.years,
        n_per_year=args.per_year,
        rng_seed=args.seed,
        strong_only=args.strong_only,
        k=args.k,
    )
    taskgen.write_problems(out_path, result.problems)
    manifest_path = out_path.with_name(out_path.stem + "_manifest.json")
    taskgen.write_manifest(
        manifest_path, graph, args.years, args.per_year, args.seed, args.strong_only, args.k, result
    )
    print(f"{len(result.problems)} problems, {len(result.skips)} skipped -> {out_path}")
    for reason, count in Counter(skip.reason for skip in result.skips).most_common():
        print(f"  {count} skipped: {reason}")
    return 0


def cmd_rank(args, settings) -> int:
    from . import evaluation

    problems = evaluation.read_problems(args.problems)
    out_path = Path(args.out) if args.out else Path(args.problems).with_name("submissions.jsonl")
    refuse_clobber(out_path, args.force)
    backend = make_generation_backend(args, settings)
    submissions = evaluation.run_ranking(
        problems, backend, parallel=args.parallel, retries=args.retries
    )
    evaluation.write_submissions(out_path, submissions)
    flagged = sum(1 for s in submissions if s.flagged)
    print(f"{len(submissions)} submissions ({flagged} flagged) -> {out_path}")
    return 0


def cmd_eval(args, settings) -> int:
    from . import evaluation

    out_path = Path(args.out) if args.out else Path(args.problems).with_name("report.json")
    refuse_clobber(out_path, args.force)
    problems = evaluation.read_problems(args.problems)
    submissions = evaluation.read_submissions(args.submissions)
    cutoffs = evaluation.load_cutoffs(args.cutoffs)
    tag = args.backend_tag or (submissions[0].backend if submissions else "")
    if tag not in cutoffs:
        raise CliError(f"no knowledge cutoff for backend tag {tag!r} in {args.cutoffs}")
    try:
        report = evaluation.score_run(problems, submissions, cutoffs[tag])
    except ValueError as exc:  # problems and submissions that do not fit together
        raise CliError(f"{args.submissions}: {exc}") from None
    evaluation.write_report(out_path, report)
    if args.csv:
        evaluation.append_results_csv(args.csv, report)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def cmd_export(args, settings) -> int:
    from .jsonl import write_chunks
    from .roadmap import export_dot, export_json, impact_tree, precursor_tree

    if args.out:
        refuse_clobber(Path(args.out), args.force)
    graph = load_store(Path(args.store))
    if args.direction == "pre":
        tree = precursor_tree(graph, args.root, args.depth)
    else:
        tree = impact_tree(graph, args.root, args.depth, args.top_k)
    if args.format == "dot":
        text = export_dot(tree)
    else:
        text = json.dumps(export_json(tree), indent=2, ensure_ascii=False) + "\n"
    if args.out:
        write_chunks(args.out, [text.encode("utf-8")])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args, settings) -> int:
    store_dir = Path(args.store)
    graph = load_store(store_dir)
    violations = graph.validate(include_warnings=args.warnings)
    violations += graph.view_violations(store_dir)
    for violation in violations:
        print(violation)
    errors = [v for v in violations if v.severity == "error"]
    print(f"{len(errors)} violations")
    return 1 if errors else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contribgraph",
        description="Contribution-graph construction, ranking-task generation, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="KEY=VALUE config file", default=None)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by subcommands, declared once: the model client's, and the output file's.
    calls = argparse.ArgumentParser(add_help=False)
    calls.add_argument("--mock", help="replay-mock directory of canned responses")
    calls.add_argument("--retries", type=at_least(0), default=2)
    calls.add_argument(
        "--parallel", type=at_least(1), default=1,
        help="at most N model calls in flight (default 1)",
    )
    calls.add_argument("--endpoint", help="generation endpoint (overrides GEN_ENDPOINT)")
    calls.add_argument("--model", help="generation model tag (overrides GEN_MODEL)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--force", action="store_true")

    p = sub.add_parser("ingest", help="register catalog papers and ingest record files")
    p.add_argument("--store", required=True)
    p.add_argument("--catalog")
    p.add_argument("--records", nargs="*", default=[])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", parents=[calls], help="run the extraction pipeline over a batch")
    p.add_argument("ids", nargs="*", help="corpus ids; defaults to the next frontier batch")
    p.add_argument("--store", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument(
        "--k", type=at_least(1), default=10, help="frontier batch size when no ids given"
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("frontier", help="print the next extraction batch")
    p.add_argument("--store", required=True)
    p.add_argument("--catalog")
    p.add_argument("--k", type=at_least(1), default=10)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("embed", parents=[output], help="build the embedding index")
    p.add_argument("--store", required=True)
    p.add_argument("--dim", type=at_least(1), default=64, help="mock provider dimensionality")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser(
        "taskgen", parents=[output], help="generate prerequisite-prediction problems"
    )
    p.add_argument("--store", required=True)
    p.add_argument("--index")
    p.add_argument("--years", type=parse_years, required=True, help="e.g. 2021-2025 or 2021,2023")
    p.add_argument("--per-year", type=at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strong-only", action="store_true")
    p.add_argument("--k", type=at_least(1), default=CANDIDATES_PER_PROBLEM)
    p.set_defaults(func=cmd_taskgen)

    p = sub.add_parser("rank", parents=[calls, output], help="rank problems with a model backend")
    p.add_argument("--problems", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", parents=[output], help="score submissions with backtesting splits")
    p.add_argument("--problems", required=True)
    p.add_argument("--submissions", required=True)
    p.add_argument("--cutoffs", required=True, help="JSON mapping backend tag -> cutoff")
    p.add_argument("--backend-tag")
    p.add_argument("--csv", help="append (cost, MAP) row to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", parents=[output], help="export a precursor or impact tree")
    p.add_argument("--store", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--direction", choices=["pre", "post"], required=True)
    p.add_argument("--depth", type=at_least(0), default=3)
    p.add_argument("--top-k", type=at_least(1), default=5)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate", help="check store invariants")
    p.add_argument("--store", required=True)
    p.add_argument("--warnings", action="store_true", help="include warnings")
    p.set_defaults(func=cmd_validate)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        settings = load_settings(args.config)
        return args.func(args, settings)
    except ContribGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(list(argv) if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
