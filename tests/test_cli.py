from __future__ import annotations

import fcntl
import gc
import json
import logging
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus_fixture as cf
from contribgraph.cli import build_parser, dispatch
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import dump_line, read_jsonl, write_jsonl
from contribgraph.model import PartialDate
from contribgraph.records import parse_record

from conftest import (
    DATA_DIR,
    FORGED,
    GOLDEN_RECORDS,
    MALFORMED_ALIGNMENTS,
    MISSHAPEN_RECORDS,
    assert_index_invariants,
    build_synthetic_graph,
    citation,
    forge_stamp,
    record_with,
    reply,
    write_citing_pair,
)
from oracles import ap_direct


README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv) -> int:
    return dispatch([str(a) for a in argv])


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run("frobnicate")
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run("validate", "--store", "x", "--frobnicate")
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run("taskgen", "--store", "x")
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["frontier", "--k", "0"],
            ["extract", "--catalog", "c", "--k", "0"],
            ["extract", "--catalog", "c", "--parallel", "0"],
            ["taskgen", "--years", "abc", "--per-year", "1"],
            ["taskgen", "--years", "2021-", "--per-year", "1"],
            ["taskgen", "--years", "2021", "--per-year", "0"],
            ["export", "--root", "1.c0", "--direction", "pre", "--depth", "-1"],
            ["export", "--root", "1.c0", "--direction", "post", "--top-k", "0"],
            ["rank", "--problems", "p.jsonl", "--parallel", "-2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_malformed_number_exits_2(self, argv, tmp_path, capsys):
        if argv[0] != "rank":
            argv = [*argv, "--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err
        assert not (tmp_path / "store").exists()


class TestGoldenStore:
    @pytest.fixture()
    def store(self, tmp_path):
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        return store

    def test_validate_clean_store(self, store, capsys):
        assert run("validate", "--store", store) == 0
        assert "0 violations" in capsys.readouterr().out
        assert_index_invariants(ContributionGraph.load(store))

    def test_export_matches_golden_dot(self, store, tmp_path):
        out = tmp_path / "tree.dot"
        assert run(
            "export", "--store", store, "--root", "52967399.c0",
            "--direction", "pre", "--depth", 3, "--format", "dot", "--out", out,
        ) == 0
        assert out.read_text(encoding="utf-8") == (
            DATA_DIR / "golden_tree.dot"
        ).read_text(encoding="utf-8")

    def test_export_json_to_stdout(self, store, capsys):
        assert run(
            "export", "--store", store, "--root", "52967399.c0",
            "--direction", "post", "--depth", 2, "--top-k", 4, "--format", "json",
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["root"]["id"] == "52967399.c0"

    def test_export_unknown_root_operational_failure(self, store, capsys):
        assert run(
            "export", "--store", store, "--root", "ghost.c0", "--direction", "pre"
        ) == 1

    def test_torn_log_line_is_a_clean_failure(self, store, capsys):
        log = store / "records.jsonl"
        torn_line = len(log.read_bytes().splitlines()) + 1
        with log.open("a", encoding="utf-8") as f:
            f.write('{"corpus_id": "99", "title": "Tor')  # a crash mid-append
        assert run("validate", "--store", store) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"records.jsonl:{torn_line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ref, problem", [
        ({"paper_year": "2019"}, "paper reference year must be an integer, got '2019'"),
        ({"first_author": "Smith"}, "first_author must be an object, got 'Smith'"),
    ])
    def test_log_line_breaking_a_rule_names_the_file_and_line(self, store, capsys, ref, problem):
        """A log record ingested before a rule existed fails every load,
        naming the log and the line to mend."""
        log = store / "records.jsonl"
        bad_line = len(log.read_bytes().splitlines()) + 1
        record = record_with("references", [{"type": "paper", "paper_title": "T", **ref}])
        with log.open("a", encoding="utf-8") as f:
            f.write(dump_line(record) + "\n")
        capsys.readouterr()
        assert run("validate", "--store", store) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:{bad_line}: contribution 9.c0, prerequisite 0: ")
        assert problem in err and "Traceback" not in err

    def test_export_refuses_clobber_then_force(self, store, tmp_path, capsys):
        out = tmp_path / "tree.dot"
        out.write_text("mine\n", encoding="utf-8")
        argv = ["export", "--store", store, "--root", "52967399.c0", "--direction", "pre",
                "--out", out]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out} exists; pass --force to overwrite\n"
        assert out.read_text(encoding="utf-8") == "mine\n"
        assert run(*argv, "--force") == 0
        assert out.read_text(encoding="utf-8") == (
            DATA_DIR / "golden_tree.dot"
        ).read_text(encoding="utf-8")

    def test_reingest_is_idempotent(self, store, capsys):
        assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        assert "4 already extracted" in capsys.readouterr().out

    def test_lock_refusal(self, store):
        with (store / "store.lock").open("a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 1
        assert run("ingest", "--store", store) == 0

    def test_leftover_lock_file_without_holder_does_not_block(self, store):
        (store / "store.lock").write_text("12345")
        assert run("ingest", "--store", store) == 0


class TestCrashedStore:
    """A store whose writer died after appending to the log but before
    its final save: the views are stale, the log is whole."""

    @pytest.fixture()
    def store(self, corpus, tmp_path):
        cf.extract_with_crash(corpus, tmp_path / "store", save_after=5)
        return tmp_path / "store"

    def test_validate_names_stale_views_until_ingest_refreshes_them(self, store, capsys):
        assert run("validate", "--store", store) == 1
        out = capsys.readouterr().out
        assert f"(edges.jsonl): 12 rows, the log derives {len(cf.EXPECTED_EDGES)}" in out
        assert run("ingest", "--store", store) == 0
        capsys.readouterr()
        assert run("validate", "--store", store) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_ingest_leaves_the_log_byte_identical(self, store):
        names = ("records.jsonl", "alignments.jsonl")
        before = [(store / name).read_bytes() for name in names]
        assert b"7000006.c0" in before[1]
        assert run("ingest", "--store", store) == 0
        assert [(store / name).read_bytes() for name in names] == before

    @pytest.mark.parametrize("flag", ["--catalog", "--records"], ids=["catalog", "golden_records"])
    def test_ingest_without_records_leaves_the_log_file_alone(self, store, corpus, flag):
        source = corpus.catalog_path if flag == "--catalog" else GOLDEN_RECORDS
        if flag == "--records":  # so that every record the file holds is already extracted
            assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        logs = [store / "records.jsonl", store / "alignments.jsonl"]
        before = [(log.stat().st_ino, log.stat().st_mtime_ns) for log in logs]
        assert run("ingest", "--store", store, flag, source) == 0
        assert [(log.stat().st_ino, log.stat().st_mtime_ns) for log in logs] == before

    def test_ingest_appends_the_new_record_and_never_rewrites_the_log(self, store, tmp_path):
        log, alignments = store / "records.jsonl", store / "alignments.jsonl"
        inode, before, aligned = log.stat().st_ino, log.read_bytes(), alignments.read_bytes()
        raw = next(read_jsonl(GOLDEN_RECORDS))
        one = tmp_path / "one.jsonl"
        write_jsonl(one, [raw])
        assert run("ingest", "--store", store, "--records", one) == 0
        after = log.read_bytes()
        assert log.stat().st_ino == inode
        assert after[: len(before)] == before
        assert after[len(before):] == (dump_line(parse_record(raw).to_json()) + "\n").encode()
        assert alignments.read_bytes() == aligned

    def test_record_file_failing_midway_changes_nothing(self, store, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        first = dump_line(next(read_jsonl(GOLDEN_RECORDS)))
        records.write_text(first + '\n{"corpus_id": "99", "title": "Tor\n', encoding="utf-8")
        names = ("records.jsonl", "alignments.jsonl", "nodes.jsonl", "edges.jsonl", "papers.jsonl")
        files = [store / name for name in names]

        def state():
            return [(path.stat().st_ino, path.read_bytes()) for path in files]

        before = state()
        assert run("ingest", "--store", store, "--records", records) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{records}:2: " in err and "Traceback" not in err
        assert state() == before


def stamped_digest(store: Path) -> str:
    return json.loads((store / "graph_hash.json").read_bytes())["graph_hash"]


class TestGraphHashStamp:
    """Each write subcommand leaves a stamp whose digest is the one a full
    recomputation over the replayed log gives; `validate` compares the
    views' bytes with it."""

    @pytest.fixture()
    def venue_catalog(self, tmp_path):
        """A catalog that gives an extracted golden paper a venue."""
        path = tmp_path / "catalog.jsonl"
        write_jsonl(path, [{"corpus_id": "52967399", "title": "BERT", "year": 2019,
                            "venue": "NAACL"}])
        return path

    @pytest.fixture()
    def store(self, tmp_path):
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        return store

    def test_ingest_of_records_stamps_the_full_digest(self, store):
        assert stamped_digest(store) == ContributionGraph.load(store).recompute_hash()

    def test_ingest_of_records_leaves_both_log_files(self, store):
        lines = [dump_line(parse_record(raw).to_json()) + "\n" for raw in read_jsonl(GOLDEN_RECORDS)]
        assert (store / "records.jsonl").read_text(encoding="utf-8") == "".join(lines)
        assert (store / "alignments.jsonl").read_bytes() == b""

    def test_ingest_of_a_catalog_alone_stamps_the_full_digest(self, store, venue_catalog):
        before = stamped_digest(store)
        assert run("ingest", "--store", store, "--catalog", venue_catalog) == 0
        assert b'"venue": "NAACL"' in (store / "nodes.jsonl").read_bytes()
        assert stamped_digest(store) == ContributionGraph.load(store).recompute_hash() != before

    def test_extract_with_a_late_alignment_stamps_the_full_digest(self, corpus, tmp_path):
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--catalog", corpus.catalog_path) == 0
        assert run(
            "extract", *cf.EXTRACTION_ORDER, "--store", store,
            "--catalog", corpus.catalog_path, "--mock", corpus.mock_dir,
        ) == 0
        assert (store / "alignments.jsonl").read_bytes()  # the late alignment
        assert stamped_digest(store) == ContributionGraph.load(store).recompute_hash()

        # taskgen takes its manifest's hash from the stamp, and writes the
        # same manifest without it.
        argv = ["taskgen", "--store", store, "--years", "2021-2025", "--per-year",
                cf.E2E_PER_YEAR, "--seed", cf.E2E_SEED, "--k", cf.E2E_K, "--force"]
        assert run("embed", "--store", store, "--dim", cf.EMBED_DIM) == 0
        assert run(*argv) == 0
        manifest = (store / "problems_manifest.json").read_bytes()
        assert json.loads(manifest)["graph_hash"] == stamped_digest(store)
        forge_stamp(store)
        assert run(*argv) == 0
        assert json.loads((store / "problems_manifest.json").read_bytes())["graph_hash"] == FORGED
        (store / "graph_hash.json").unlink()
        assert run(*argv) == 0
        assert (store / "problems_manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("stamp", ["current", "deleted"])
    def test_validate_names_a_view_whose_rows_drifted_from_the_log(
        self, store, venue_catalog, tmp_path, capsys, stamp
    ):
        """A crash between replacing nodes.jsonl and replacing papers.jsonl
        in `ingest --catalog`: the row counts agree, the rows do not."""
        stale = tmp_path / "stale"
        shutil.copytree(store, stale)
        assert run("ingest", "--store", store, "--catalog", venue_catalog) == 0
        shutil.copyfile(store / "nodes.jsonl", stale / "nodes.jsonl")
        if stamp == "deleted":
            (stale / "graph_hash.json").unlink()
        capsys.readouterr()
        assert run("validate", "--store", stale) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "[error] store.view (nodes.jsonl+edges.jsonl): rows differ in content from"
            " those the log derives (sha256 of the rows)",
            "1 violations",
        ]
        assert run("validate", "--store", store) == 0


@pytest.fixture(scope="module")
def e2e(corpus, tmp_path_factory):
    """ingest -> extract -> embed -> taskgen -> rank -> eval."""
    work = tmp_path_factory.mktemp("e2e")
    store = work / "store"
    assert run("ingest", "--store", store, "--catalog", corpus.catalog_path) == 0
    assert run(
        "extract", *cf.EXTRACTION_ORDER,
        "--store", store, "--catalog", corpus.catalog_path,
        "--mock", corpus.mock_dir,
    ) == 0
    assert run("embed", "--store", store, "--dim", cf.EMBED_DIM) == 0
    assert run(
        "taskgen", "--store", store,
        "--years", "2021-2025", "--per-year", cf.E2E_PER_YEAR,
        "--seed", cf.E2E_SEED, "--k", cf.E2E_K,
    ) == 0
    assert run(
        "rank", "--problems", store / "problems.jsonl", "--mock", corpus.mock_dir,
    ) == 0
    assert run(
        "eval", "--problems", store / "problems.jsonl",
        "--submissions", store / "submissions.jsonl",
        "--cutoffs", corpus.cutoffs_path,
        "--csv", store / "results.csv",
    ) == 0
    return store


class TestEndToEnd:
    def test_report_matches_hand_scored_oracle(self, e2e):
        problems = list(read_jsonl(e2e / "problems.jsonl"))
        assert problems, "taskgen produced no problems"
        report = json.loads((e2e / "report.json").read_text(encoding="utf-8"))
        # The mock ranker returns candidates in reverse stored order.
        aps = []
        for problem in problems:
            reversed_ids = [c["id"] for c in problem["candidates"]][::-1]
            aps.append(ap_direct(reversed_ids, set(problem["gold_ids"])))
        assert report["map_overall"] == pytest.approx(sum(aps) / len(aps), abs=1e-12)

    def test_submissions_are_permutations(self, e2e):
        problems = {p["problem_id"]: p for p in read_jsonl(e2e / "problems.jsonl")}
        for submission in read_jsonl(e2e / "submissions.jsonl"):
            problem = problems[submission["problem_id"]]
            assert sorted(submission["ranked_ids"]) == sorted(
                c["id"] for c in problem["candidates"]
            )
            assert not submission["flagged"]

    def test_backtesting_split_counts(self, e2e):
        report = json.loads((e2e / "report.json").read_text(encoding="utf-8"))
        problems = list(read_jsonl(e2e / "problems.jsonl"))
        # Cutoff 2022-06: dated targets from 2021/2022 are pre, 2023/2025 post.
        pre = [p for p in problems if p["target"]["year"] <= 2022]
        post = [p for p in problems if p["target"]["year"] >= 2023]
        assert report["n_pre"] == len(pre)
        assert report["n_post"] == len(post)
        assert report["n_discarded"] == 0
        assert report["backend"] == cf.MOCK_TAG

    def test_results_csv_written(self, e2e):
        lines = (e2e / "results.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("backend,")
        assert lines[1].startswith(cf.MOCK_TAG)

    def test_validate_extracted_store(self, e2e, capsys):
        assert run("validate", "--store", e2e) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_frontier_lists_unresolved(self, e2e, corpus, capsys):
        assert run("frontier", "--store", e2e, "--k", 10) == 0
        out = capsys.readouterr().out
        # All catalog papers are extracted; only unresolvable titles remain.
        assert "title:" in out

    def test_taskgen_refuses_clobber_then_force(self, e2e, capsys):
        argv = [
            "taskgen", "--store", e2e,
            "--years", "2021-2025", "--per-year", cf.E2E_PER_YEAR,
            "--seed", cf.E2E_SEED, "--k", cf.E2E_K,
        ]
        assert run(*argv) == 1
        before = (e2e / "problems.jsonl").read_bytes()
        assert run(*argv, "--force") == 0
        assert (e2e / "problems.jsonl").read_bytes() == before  # seed-reproducible

    def test_taskgen_prints_one_line_per_skip_reason(self, e2e, tmp_path, capsys, caplog):
        out = tmp_path / "problems.jsonl"
        with caplog.at_level(logging.WARNING, logger="contribgraph.taskgen"):
            assert run(
                "taskgen", "--store", e2e, "--years", "2021-2025", "--per-year", cf.E2E_PER_YEAR,
                "--seed", cf.E2E_SEED, "--k", 100_000, "--out", out,
            ) == 0
        skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipped ")]
        assert skipped and all(m.endswith(": insufficient candidates") for m in skipped)
        assert capsys.readouterr().out.splitlines() == [
            f"0 problems, {len(skipped)} skipped -> {out}",
            f"  {len(skipped)} skipped: insufficient candidates",
        ]

    def test_taskgen_skips_a_target_whose_gold_set_exceeds_k(self, e2e, tmp_path, capsys):
        out = tmp_path / "problems.jsonl"
        assert run(
            "taskgen", "--store", e2e, "--years", "2021-2025", "--per-year", cf.E2E_PER_YEAR,
            "--seed", cf.E2E_SEED, "--k", 1, "--out", out,
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"3 problems, 5 skipped -> {out}",
            "  5 skipped: gold set (2) exceeds candidate count 1",
        ]

    def test_eval_refuses_an_existing_report_before_scoring(
        self, e2e, corpus, capsys, monkeypatch
    ):
        from contribgraph import evaluation

        def score_run(*args, **kwargs):
            pytest.fail("eval scored the run before refusing to overwrite the report")

        monkeypatch.setattr(evaluation, "score_run", score_run)
        outputs = [e2e / "report.json", e2e / "results.csv"]
        before = [path.read_bytes() for path in outputs]
        assert run(
            "eval", "--problems", e2e / "problems.jsonl",
            "--submissions", e2e / "submissions.jsonl",
            "--cutoffs", corpus.cutoffs_path,
            "--csv", e2e / "results.csv",
        ) == 1
        assert "report.json exists; pass --force to overwrite" in capsys.readouterr().err
        assert [path.read_bytes() for path in outputs] == before

    def test_manifest_written(self, e2e):
        manifest = json.loads(
            (e2e / "problems_manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["seed"] == cf.E2E_SEED
        assert manifest["years"] == cf.E2E_YEARS
        assert manifest["problems"] > 0
        assert manifest["candidates_per_problem"] == cf.E2E_K
        assert len(manifest["graph_hash"]) == 64

    def test_extract_refuses_second_run(self, e2e, corpus, capsys):
        # All papers already extracted: duplicate extraction is an error
        # surfaced per paper, so the command reports failures.
        code = run(
            "extract", cf.EXTRACTION_ORDER[0],
            "--store", e2e, "--catalog", corpus.catalog_path,
            "--mock", corpus.mock_dir,
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


def test_taskgen_without_an_index_fails_before_loading_the_store(tmp_path, capsys, monkeypatch):
    from contribgraph import cli

    def load_store(store_dir):
        pytest.fail("taskgen loaded the store before checking for its index")

    store = tmp_path / "store"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    monkeypatch.setattr(cli, "load_store", load_store)
    capsys.readouterr()
    assert run("taskgen", "--store", store, "--years", "2019", "--per-year", 1) == 1
    index = store / "embeddings.bin"
    assert capsys.readouterr().err == f"error: embedding index {index} missing; run `embed` first\n"
    assert not (store / "problems.jsonl").exists()


@pytest.mark.parametrize(
    "index_bytes, error",
    [
        (b"XXXXgarbage", "error: {index}: not an embedding index file (11-byte header, magic b'XXXX')"),
        (b"SCGE\x01\x00", "error: {index}: not an embedding index file (6-byte header, magic b'SCGE')"),
        (b"SCGE\x02\x00\x00\x00\x08" + bytes(11), "error: {index}: unsupported index version 2"),
        (None, "error: store {store} has no contributions to sample targets from"),
    ],
    ids=["wrong_magic", "short_header", "other_version", "no_contributions"],
)
def test_taskgen_over_a_broken_index_or_an_empty_store_fails_cleanly(
    tmp_path, capsys, index_bytes, error
):
    store, index = tmp_path / "store", tmp_path / "store" / "embeddings.bin"
    if index_bytes is None:  # catalog papers only: embed writes an index of 0 rows
        write_jsonl(tmp_path / "catalog.jsonl", [{"corpus_id": "1", "title": "T", "year": 2019}])
        assert run("ingest", "--store", store, "--catalog", tmp_path / "catalog.jsonl") == 0
        assert run("embed", "--store", store) == 0
    else:
        assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        index.write_bytes(index_bytes)
    capsys.readouterr()
    assert run("taskgen", "--store", store, "--years", "2019", "--per-year", 1) == 1
    assert capsys.readouterr().err == error.format(index=index, store=store) + "\n"
    assert not (store / "problems.jsonl").exists()


def test_taskgen_skips_a_target_ingested_after_embed(tmp_path, capsys):
    """A record ingested after `embed` has no row in the index: its
    contribution is sampled as a target, then skipped."""
    store, records, out = tmp_path / "store", tmp_path / "late.jsonl", tmp_path / "problems.jsonl"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    assert run("embed", "--store", store, "--dim", 8) == 0
    contribution = {"name": "n", "description": "d", "types": [], "sections": [],
                    "prerequisites": [citation("52967399.c0")]}
    write_jsonl(records, [{"corpus_id": "1", "title": "Late", "year": 2020,
                           "contributions": [contribution]}])
    assert run("ingest", "--store", store, "--records", records) == 0
    capsys.readouterr()
    assert run("taskgen", "--store", store, "--years", "2020", "--per-year", 1, "--out", out) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"0 problems, 1 skipped -> {out}",
        "  1 skipped: target missing from embedding index",
    ]


@pytest.mark.parametrize("case", ["not_in_catalog", "text_missing"])
def test_extract_of_a_paper_it_cannot_read_changes_nothing(corpus, tmp_path, capsys, case):
    """`extract` checks every id against the catalog and its text file
    before it writes anything, even the metadata of the ids before it."""
    store, catalog = tmp_path / "store", tmp_path / "catalog.jsonl"
    rows = list(read_jsonl(corpus.catalog_path))
    missing = tmp_path / "missing.txt"
    for row in rows:
        if row["corpus_id"] == "7000003":
            row["text_path"] = str(missing)
    write_jsonl(catalog, rows)
    assert run("extract", "7000001", "--store", store, "--catalog", catalog,
               "--mock", corpus.mock_dir) == 0
    before = {path.name: path.read_bytes() for path in store.iterdir()}
    bad, error = {
        "not_in_catalog": ("999", "corpus 999 not in catalog"),
        "text_missing": ("7000003", f"corpus 7000003: text file {missing} missing"),
    }[case]
    capsys.readouterr()
    assert run("extract", "7000002", bad, "--store", store, "--catalog", catalog,
               "--mock", corpus.mock_dir) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert {path.name: path.read_bytes() for path in store.iterdir()} == before


@pytest.mark.parametrize("command", ["extract", "ingest"])
def test_a_writer_that_dies_before_its_save_keeps_the_catalog_date(
    corpus, tmp_path, monkeypatch, command
):
    """papers.jsonl alone keeps catalog metadata, so `extract` and `ingest`
    write it before they append a record to the log: a writer that dies
    after the append, before its save, loses no date."""
    store = tmp_path / "store"
    common = ["--store", store, "--catalog", corpus.catalog_path]
    if command == "extract":
        assert run("extract", "7000001", "7000002", "7000003", *common,
                   "--mock", corpus.mock_dir) == 0
        argv = ["extract", "7000004", *common, "--mock", corpus.mock_dir]
    else:
        source = tmp_path / "source"
        assert run("extract", "7000004", "--store", source, "--catalog", corpus.catalog_path,
                   "--mock", corpus.mock_dir) == 0
        argv = ["ingest", *common, "--records", source / "records.jsonl"]

    def save(graph, directory):
        raise OSError("disk full")

    monkeypatch.setattr(ContributionGraph, "save", save)
    assert run(*argv) == 1
    monkeypatch.undo()
    loaded = ContributionGraph.load(store)
    assert loaded.is_extracted("7000004")
    assert loaded.papers["7000004"].date == PartialDate(2019, 5)


def test_extract_uses_frontier_when_no_ids(corpus, tmp_path, capsys):
    store = tmp_path / "store"
    assert run("ingest", "--store", store, "--catalog", corpus.catalog_path) == 0
    # Nothing extracted yet: no unresolved references, frontier is empty.
    assert run(
        "extract", "--store", store, "--catalog", corpus.catalog_path,
        "--mock", corpus.mock_dir, "--k", 3,
    ) == 0
    assert "nothing to extract" in capsys.readouterr().out
    # Extract the first paper; its reference to an uncatalogued paper
    # stays unresolved, catalogued ones become frontier candidates.
    assert run(
        "extract", cf.EXTRACTION_ORDER[1],
        "--store", store, "--catalog", corpus.catalog_path,
        "--mock", corpus.mock_dir,
    ) == 0
    capsys.readouterr()
    assert run("frontier", "--store", store, "--catalog", corpus.catalog_path) == 0
    out = capsys.readouterr().out
    assert "7000001\t1" in out


def test_extract_given_a_paper_twice_extracts_it_once(corpus, tmp_path, capsys):
    paper = cf.EXTRACTION_ORDER[0]
    outputs = []
    for name, ids in (("once", [paper]), ("twice", [paper, paper])):
        store = tmp_path / name
        assert run("ingest", "--store", store, "--catalog", corpus.catalog_path) == 0
        capsys.readouterr()
        assert run(
            "extract", *ids, "--store", store, "--catalog", corpus.catalog_path,
            "--mock", corpus.mock_dir,
        ) == 0
        outputs.append(capsys.readouterr().out)
        assert [r["corpus_id"] for r in read_jsonl(store / "records.jsonl")] == [paper]
    assert "FAILED" not in outputs[1]
    calls = [line for out in outputs for line in out.splitlines() if "backend calls" in line]
    assert len(calls) == 2 and calls[0] == calls[1]


def test_store_without_its_log_is_a_clean_failure(corpus, tmp_path, capsys):
    store = tmp_path / "store"
    catalog = ["--catalog", corpus.catalog_path]
    assert run("ingest", "--store", store, *catalog) == 0
    assert run("extract", *cf.EXTRACTION_ORDER[:5], "--store", store, *catalog,
               "--mock", corpus.mock_dir) == 0
    (store / "records.jsonl").unlink()
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    assert "nodes.jsonl" in before
    capsys.readouterr()
    for argv in (
        ["extract", *cf.EXTRACTION_ORDER[5:], *catalog, "--mock", corpus.mock_dir],
        ["ingest", *catalog],
        ["frontier", *catalog],
        ["validate"],
    ):
        assert run(*argv, "--store", store) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records.jsonl is missing" in err, argv
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in store.iterdir()} == before, argv


# A records-file line and the problem ingest must name for it.
MISSHAPEN_LINES = {
    **{name: (json.dumps(raw), problem) for name, (raw, problem) in MISSHAPEN_RECORDS.items()},
    "line_not_an_object": ("[1, 2]", "records.jsonl:1: not a JSON object"),
    "year_is_a_boolean": (json.dumps({**record_with("matches", []), "year": True}),
                          "records.jsonl:1: record: year must be an integer, got True"),
    # A title or name that is not a string once ingested, then failed
    # export (``roadmap._dot_escape``) with a traceback.
    "title_not_a_string": (json.dumps({**record_with("matches", []), "title": 44}),
                           "records.jsonl:1: record: title must be a string, got 44"),
    "name_not_a_string": (
        json.dumps(record_with("contributions", [{"name": 7, "description": "D"}])),
        "records.jsonl:1: contribution 9.c0: name must be a string, got 7",
    ),
    # Title-only references that, once ingested, ended in a traceback in
    # frontier's title resolution.
    **{
        name: (
            json.dumps(record_with("references", [{"type": "paper", "paper_title": "T", **ref}])),
            f"records.jsonl:1: contribution 9.c0, prerequisite 0: {problem}",
        )
        for name, ref, problem in [
            ("reference_year_not_integer", {"paper_year": "2019"},
             "paper reference year must be an integer, got '2019'"),
            ("reference_year_is_a_boolean", {"paper_year": True},
             "paper reference year must be an integer, got True"),
            ("first_author_not_object", {"first_author": "Smith"},
             "first_author must be an object, got 'Smith'"),
            ("reference_title_not_a_string", {"paper_title": 5},
             "paper reference title must be a string, got 5"),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(MISSHAPEN_LINES))
def test_misshapen_record_line_is_a_clean_failure(tmp_path, capsys, name):
    store = tmp_path / "store"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    line, problem = MISSHAPEN_LINES[name]
    records = tmp_path / "records.jsonl"
    records.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("ingest", "--store", store, "--records", records) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


@pytest.mark.parametrize("name", sorted(MALFORMED_ALIGNMENTS))
def test_malformed_alignment_line_is_a_clean_failure(tmp_path, capsys, name):
    write_citing_pair(tmp_path, MALFORMED_ALIGNMENTS[name])
    assert run("validate", "--store", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alignments.jsonl row 1" in err
    assert "Traceback" not in err


# Catalog and papers.jsonl rows that once ended in a traceback (a string
# year, in frontier's title resolution) or, with an empty id, entered the
# store; each with the problem named for it.
BAD_PAPER_ROWS = {
    "no_corpus_id": ({"title": "T", "year": 2020}, "corpus_id missing or empty"),
    "empty_corpus_id": ({"corpus_id": "", "title": "T"}, "corpus_id missing or empty"),
    "malformed_date": ({"corpus_id": "5", "date": "20x1"}, "bad date '20x1'"),
    "month_out_of_range": ({"corpus_id": "5", "date": "2021-13"}, "bad date '2021-13'"),
    "year_not_integer": ({"corpus_id": "5", "year": "2018"}, "year must be an integer, got '2018'"),
    "year_is_a_boolean": ({"corpus_id": "5", "year": False}, "year must be an integer, got False"),
    # Once a traceback in Catalog.__init__'s title lookup.
    "title_not_a_string": ({"corpus_id": "5", "title": 5}, "title must be a string, got 5"),
}


@pytest.mark.parametrize("source", ["catalog", "papers.jsonl"])
@pytest.mark.parametrize("name", sorted(BAD_PAPER_ROWS))
def test_bad_paper_row_is_a_clean_failure(tmp_path, capsys, source, name):
    store = tmp_path / "store"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    row, problem = BAD_PAPER_ROWS[name]
    if source == "catalog":
        catalog = tmp_path / "catalog.jsonl"
        write_jsonl(catalog, [{"corpus_id": "4", "title": "fine"}, row])
        flags, where = ["--catalog", catalog], "catalog.jsonl:2: "
    else:
        rows = [*read_jsonl(store / "papers.jsonl"), row]
        write_jsonl(store / "papers.jsonl", rows)
        flags, where = [], f"papers.jsonl:{len(rows)}: "
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    capsys.readouterr()
    for command in ("ingest", "frontier"):
        assert run(command, "--store", store, *flags) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where + problem in err, err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in store.iterdir()} == before, command


def test_null_catalog_title_reads_as_absent(tmp_path, capsys):
    """A null title once failed Catalog.__init__'s title lookup with a traceback."""
    store, catalog = tmp_path / "store", tmp_path / "catalog.jsonl"
    write_jsonl(catalog, [{"corpus_id": "5", "title": None, "year": 2020}])
    assert run("ingest", "--store", store, "--catalog", catalog) == 0
    assert run("frontier", "--store", store, "--catalog", catalog) == 0
    assert [row["title"] for row in read_jsonl(store / "papers.jsonl")] == [""]
    assert "Traceback" not in capsys.readouterr().err


# Catalog fields of the wrong type: "false" once read as open access, so
# `frontier --catalog` offered the paper, and a number as text_path once
# failed `frontier --catalog` with a traceback.
BAD_CATALOG_FIELDS = {
    "open_access_a_string": ({"open_access": "false"}, "open_access must be true or false, got 'false'"),
    "text_path_a_number": ({"text_path": 5}, "text_path must be a string, got 5"),
    "first_author_last_a_number": ({"first_author_last": 5}, "first_author_last must be a string, got 5"),
}


@pytest.mark.parametrize("name", sorted(BAD_CATALOG_FIELDS))
def test_bad_catalog_field_is_a_clean_failure(tmp_path, capsys, name):
    store, catalog = tmp_path / "store", tmp_path / "catalog.jsonl"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    fields, problem = BAD_CATALOG_FIELDS[name]
    write_jsonl(catalog, [{"corpus_id": "4", "title": "fine"}, {"corpus_id": "5", **fields}])
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    capsys.readouterr()
    for argv in (["ingest"], ["frontier"], ["extract", "--mock", tmp_path]):
        assert run(*argv, "--store", store, "--catalog", catalog) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "catalog.jsonl:2: " + problem in err, err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in store.iterdir()} == before, argv


class TestIngestPaysOnce:
    """An in-process `ingest` freezes the graph it built before it saves,
    and writes papers.jsonl once, whatever its inputs."""

    @pytest.fixture()
    def catalog(self, tmp_path):
        """Every golden paper with a venue, and one paper no record extracts."""
        path = tmp_path / "catalog.jsonl"
        rows = [{"corpus_id": raw["corpus_id"], "venue": "V"} for raw in read_jsonl(GOLDEN_RECORDS)]
        write_jsonl(path, [*rows, {"corpus_id": "1", "title": "Catalog only", "date": "2020-02"}])
        return path

    def test_the_graph_is_frozen_before_the_save(self, tmp_path, catalog, monkeypatch):
        tracked = []
        real = ContributionGraph.save

        def save(graph, directory):
            built = {id(c) for c in graph.nodes.values()}
            assert built
            tracked.extend(o for o in gc.get_objects() if id(o) in built)
            real(graph, directory)

        monkeypatch.setattr(ContributionGraph, "save", save)
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--catalog", catalog, "--records", GOLDEN_RECORDS) == 0
        assert tracked == []

    @pytest.mark.parametrize("inputs", ["catalog_and_records", "records", "catalog"])
    def test_papers_jsonl_is_written_once(self, tmp_path, catalog, write_papers_calls, inputs):
        flags = {
            "catalog_and_records": ["--catalog", catalog, "--records", GOLDEN_RECORDS],
            "records": ["--records", GOLDEN_RECORDS],
            "catalog": ["--catalog", catalog],
        }[inputs]
        store = tmp_path / "store"
        assert run("ingest", "--store", store, *flags) == 0
        assert len(write_papers_calls) == 1
        # The file holds what the loaded graph writes, and the stamp's key matches it.
        loaded = ContributionGraph.load(store)
        loaded.write_papers(tmp_path / "again")
        assert (store / "papers.jsonl").read_bytes() == (tmp_path / "again" / "papers.jsonl").read_bytes()
        forge_stamp(store)
        assert ContributionGraph.load(store).graph_hash() == FORGED

    def test_one_shot_and_stepwise_ingests_write_the_same_store(self, tmp_path, catalog):
        one, steps = tmp_path / "one", tmp_path / "steps"
        assert run("ingest", "--store", one, "--catalog", catalog, "--records", GOLDEN_RECORDS) == 0
        for flags in (["--catalog", catalog], ["--records", GOLDEN_RECORDS], []):
            assert run("ingest", "--store", steps, *flags) == 0
        for name in ("papers.jsonl", "nodes.jsonl", "edges.jsonl", "graph_hash.json"):
            assert (one / name).read_bytes() == (steps / name).read_bytes(), name


def edit_first_row(path: Path, edit) -> None:
    rows = list(read_jsonl(path))
    edit(rows[0])
    write_jsonl(path, rows)


def drop_key(path: Path, key: str) -> None:
    edit_first_row(path, lambda row: row.pop(key))


def write_cutoff(directory: Path, value) -> None:
    tag = next(read_jsonl(directory / "submissions.jsonl"))["backend"]
    (directory / "cutoffs.json").write_text(json.dumps({tag: value}), encoding="utf-8")


# Inputs of eval (and of rank, which reads the problems too) that once
# ended in a traceback: how to break a good copy, and the problem named.
BAD_EVAL_INPUTS = {
    "problem_without_target": (
        lambda d: drop_key(d / "problems.jsonl", "target"),
        "problems.jsonl:1: missing field 'target'",
    ),
    "problem_with_id_strings_as_candidates": (
        lambda d: edit_first_row(
            d / "problems.jsonl",
            lambda row: row.update(candidates=[c["id"] for c in row["candidates"]]),
        ),
        "problems.jsonl:1: candidates must be a list of objects with a string id",
    ),
    "submission_with_a_string_as_ranked_ids": (
        lambda d: edit_first_row(
            d / "submissions.jsonl", lambda row: row.update(ranked_ids=row["ranked_ids"][0])
        ),
        "submissions.jsonl:1: ranked_ids must be a list of strings",
    ),
    "submission_without_problem_id": (
        lambda d: drop_key(d / "submissions.jsonl", "problem_id"),
        "submissions.jsonl:1: missing field 'problem_id'",
    ),
    "cutoffs_not_json": (
        lambda d: (d / "cutoffs.json").write_text("june", encoding="utf-8"),
        "cutoffs.json: bad cutoffs (Expecting value",
    ),
    "cutoff_not_a_date": (
        lambda d: write_cutoff(d, "june"),
        "cutoffs.json: bad cutoffs (bad date 'june')",
    ),
    "cutoff_month_13": (
        lambda d: write_cutoff(d, "2022-13"),
        "cutoffs.json: bad cutoffs (bad date '2022-13')",
    ),
    "cutoff_month_a_string": (
        lambda d: write_cutoff(d, {"year": 2022, "month": "6"}),
        "cutoffs.json: bad cutoffs (want an integer year and a month in 1-12",
    ),
    "problem_with_a_string_target_year": (
        lambda d: edit_first_row(
            d / "problems.jsonl", lambda row: row["target"].update(year=str(row["target"]["year"]))
        ),
        "problems.jsonl:1: target year must be an integer, got '20",
    ),
    "problem_with_a_string_as_gold_ids": (
        lambda d: edit_first_row(
            d / "problems.jsonl", lambda row: row.update(gold_ids=row["gold_ids"][0])
        ),
        "problems.jsonl:1: gold_ids must be a list of strings",
    ),
    "problem_without_gold_ids": (
        lambda d: edit_first_row(d / "problems.jsonl", lambda row: row.update(gold_ids=[])),
        "problems.jsonl:1: gold_ids must be non-empty candidate ids, got []",
    ),
    "problem_with_a_gold_id_outside_the_candidates": (
        lambda d: edit_first_row(
            d / "problems.jsonl", lambda row: row["gold_ids"].append("elsewhere.c0")
        ),
        "problems.jsonl:1: gold_ids must be non-empty candidate ids, got [",
    ),
    "submission_with_a_number_as_usage": (
        lambda d: edit_first_row(d / "submissions.jsonl", lambda row: row.update(usage=5)),
        "submissions.jsonl:1: usage must be an object, got 5",
    ),
    "cutoffs_without_the_tag": (
        lambda d: (d / "cutoffs.json").write_text("{}", encoding="utf-8"),
        f"no knowledge cutoff for backend tag {cf.MOCK_TAG!r} in ",
    ),
    "problem_without_submission": (
        lambda d: write_jsonl(
            d / "submissions.jsonl", list(read_jsonl(d / "submissions.jsonl"))[1:]
        ),
        "submissions.jsonl: submissions missing for problems",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_EVAL_INPUTS))
def test_bad_eval_input_is_a_clean_failure(e2e, corpus, tmp_path, capsys, name):
    problems, submissions = tmp_path / "problems.jsonl", tmp_path / "submissions.jsonl"
    cutoffs = tmp_path / "cutoffs.json"
    for source, copy in ((e2e / problems.name, problems), (e2e / submissions.name, submissions),
                         (corpus.cutoffs_path, cutoffs)):
        copy.write_bytes(source.read_bytes())
    break_input, problem = BAD_EVAL_INPUTS[name]
    break_input(tmp_path)
    commands = [["eval", "--problems", problems, "--submissions", submissions,
                 "--cutoffs", cutoffs, "--out", tmp_path / "report.json"]]
    if problem.startswith("problems.jsonl:"):  # rank reads the problems too
        commands.append(["rank", "--problems", problems, "--mock", corpus.mock_dir,
                         "--out", tmp_path / "ranked.jsonl"])
    capsys.readouterr()
    for argv in commands:
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err, err
        assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "ranked.jsonl").exists()


class TestOffVocabularyCategory:
    """A stored label outside the vocabulary is kept verbatim and
    reported once, by `validate --warnings`, not on every load."""

    @pytest.fixture()
    def store(self, tmp_path):
        raw = next(iter(read_jsonl(GOLDEN_RECORDS)))
        raw["contributions"][0]["types"][0]["type"] = "galactic_insight"
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [raw])
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--records", records) == 0
        return store

    def test_load_logs_nothing_from_records(self, store, caplog):
        caplog.set_level(logging.DEBUG)
        for _ in range(3):
            ContributionGraph.load(store)
        assert [r for r in caplog.records if r.name == "contribgraph.records"] == []

    def test_validate_warnings_names_the_label(self, store, capsys):
        assert run("validate", "--store", store) == 0
        assert "galactic_insight" not in capsys.readouterr().out
        assert run("validate", "--store", store, "--warnings") == 0
        out = capsys.readouterr().out
        assert "[warning] contribution.category" in out
        assert "off-vocabulary category 'galactic_insight'" in out
        assert "0 violations" in out


# Runs one CLI command (or none) in a fresh interpreter, then says on
# stderr whether numpy was imported, what OPENBLAS_NUM_THREADS reads and
# how many threads the process has (Linux).
IMPORT_PROBE = """
import os
import sys
from contribgraph import cli
status = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("numpy imported" if "numpy" in sys.modules else "numpy not imported", file=sys.stderr)
print(os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None, file=sys.stderr)
sys.exit(status)
"""


def cli_env(blas_threads: str | None = None) -> dict[str, str]:
    """This environment with this checkout's sources first on the path, and
    OPENBLAS_NUM_THREADS set to ``blas_threads`` or, for None, unset: the
    pytest process has it from importing the CLI."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def probe(cwd: Path, *argv, blas_threads: str | None = None) -> list[str]:
    """IMPORT_PROBE's three lines."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *map(str, argv)],
        cwd=cwd, env=cli_env(blas_threads), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-3:]


def numpy_imported(cwd: Path, *argv) -> bool:
    return probe(cwd, *argv)[0] == "numpy imported"


class TestImportGuard:
    """Each subcommand imports its own modules: numpy only for embed and
    taskgen, on one BLAS thread unless the caller chose a count."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_embed_runs_blas_on_one_thread_unless_preset(self, tmp_path, preset, expected):
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
        imported, variable, threads = probe(tmp_path, "embed", "--store", store, blas_threads=preset)
        assert (imported, variable) == ("numpy imported", expected)
        if preset is None:  # numpy read the value: OpenBLAS started no worker thread
            assert threads in ("1", "None")

    def test_importing_the_cli(self, tmp_path):
        assert not numpy_imported(tmp_path)

    def test_store_commands_on_the_golden_store(self, tmp_path):
        store = tmp_path / "store"
        assert not numpy_imported(tmp_path, "ingest", "--store", store, "--records", GOLDEN_RECORDS)
        assert not numpy_imported(tmp_path, "frontier", "--store", store)
        assert not numpy_imported(tmp_path, "validate", "--store", store)
        assert not numpy_imported(
            tmp_path, "export", "--store", store, "--root", "52967399.c0", "--direction", "pre"
        )
        # The probe does see numpy when a command loads it.
        assert numpy_imported(
            tmp_path, "embed", "--store", store, "--out", tmp_path / "e.bin"
        )

    def test_extract_rank_and_eval(self, e2e, corpus, tmp_path):
        store = tmp_path / "store"
        assert run("ingest", "--store", store, "--catalog", corpus.catalog_path) == 0
        assert not numpy_imported(
            tmp_path, "extract", cf.EXTRACTION_ORDER[0], "--store", store,
            "--catalog", corpus.catalog_path, "--mock", corpus.mock_dir,
        )
        submissions = tmp_path / "submissions.jsonl"
        assert not numpy_imported(
            tmp_path, "rank", "--problems", e2e / "problems.jsonl",
            "--mock", corpus.mock_dir, "--out", submissions,
        )
        assert not numpy_imported(
            tmp_path, "eval", "--problems", e2e / "problems.jsonl",
            "--submissions", submissions, "--cutoffs", corpus.cutoffs_path,
            "--out", tmp_path / "report.json",
        )


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """embed then taskgen, each in a fresh interpreter, on one BLAS thread
    and on two: the float32 product only pre-selects rows within an error
    bound that holds in any summation order, and float64 rescoring picks."""
    build_synthetic_graph(n_papers=160, seed=20240901).save(tmp_path / "store")
    outputs = {}
    for threads in ("1", "2"):
        store = tmp_path / f"store-{threads}"
        shutil.copytree(tmp_path / "store", store)
        for argv in (
            ["embed", "--store", store, "--dim", 64],
            ["taskgen", "--store", store, "--years", "2021-2025", "--per-year", 2, "--seed", 7],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "contribgraph.cli", *map(str, argv)],
                env=cli_env(threads), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = [
            (store / name).read_bytes()
            for name in ("embeddings.bin", "problems.jsonl", "problems_manifest.json")
        ]
    problems = [json.loads(line) for line in outputs["1"][1].splitlines()]
    assert sum(len(p["candidates"]) > len(p["gold_ids"]) for p in problems) >= 3
    assert outputs["1"] == outputs["2"]


def readme_cli_commands() -> list[list[str]]:
    """Every `contribgraph ...` command in the README's CLI block, as argv."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["contribgraph"]:
            commands.append(argv[1 : argv.index(">")] if ">" in argv else argv[1:])
    return commands


def test_readme_cli_commands_parse():
    commands = readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: contribgraph {shlex.join(argv)}")


# A completion whose ranking is empty: rank repairs it to the stored order.
EMPTY_RANKING = json.dumps({"choices": [{"message": {"content": '{"ranking": []}'}}]}).encode()


@pytest.fixture()
def one_problem(e2e, tmp_path) -> Path:
    path = tmp_path / "problems.jsonl"
    write_jsonl(path, list(read_jsonl(e2e / "problems.jsonl"))[:1])
    return path


def test_config_file_layering(one_problem, tmp_path, loopback, monkeypatch):
    """A flag beats CONTRIBGRAPH_<KEY> in the environment, which beats KEY
    in the --config file."""
    server = loopback()
    server.default = reply(200, EMPTY_RANKING)
    config = tmp_path / "config"
    config.write_text(
        f"# comment\n\nGEN_ENDPOINT={server.url}/config\nGEN_MODEL=config-model\n",
        encoding="utf-8",
    )

    def sent(*flags) -> tuple[str, str]:
        out = tmp_path / f"submissions-{server.posts}.jsonl"
        assert run("--config", config, "rank", "--problems", one_problem, "--out", out, *flags) == 0
        _, path, _, body = server.requests[-1]
        return path, json.loads(body)["model"]

    assert sent() == ("/config", "config-model")
    monkeypatch.setenv("CONTRIBGRAPH_GEN_ENDPOINT", f"{server.url}/env")
    monkeypatch.setenv("CONTRIBGRAPH_GEN_MODEL", "env-model")
    assert sent() == ("/env", "env-model")
    assert sent("--endpoint", f"{server.url}/flag", "--model", "") == ("/flag", "")


def test_embed_takes_its_settings_from_config_and_environment(tmp_path, loopback, monkeypatch):
    """embed calls the embedding endpoint when one is set, with the key
    and model of the config file unless the environment overrides them,
    and uses the mock provider at --dim otherwise."""
    from contribgraph.embedding import EmbeddingIndex

    store = tmp_path / "store"
    assert run("ingest", "--store", store, "--records", GOLDEN_RECORDS) == 0
    rows = len(ContributionGraph.load(store).nodes)
    server = loopback()
    server.default = reply(200, json.dumps({"data": [{"embedding": [1.0, 0.0, 0.0]}] * rows}).encode())

    def embed(*argv) -> int:
        out = tmp_path / f"e{len(list(tmp_path.glob('e*.bin')))}.bin"
        assert run(*argv, "embed", "--store", store, "--dim", 5, "--out", out) == 0
        return EmbeddingIndex.load(out).dim

    assert embed() == 5 and server.requests == []
    config = tmp_path / "config"
    config.write_text(
        f"EMBED_ENDPOINT={server.url}/embed\nEMBED_API_KEY=config-key\nEMBED_MODEL=config-model\n",
        encoding="utf-8",
    )
    assert embed("--config", config) == 3
    _, path, headers, body = server.requests[-1]
    assert path == "/embed" and headers["Authorization"] == "Bearer config-key"
    assert json.loads(body)["model"] == "config-model"
    monkeypatch.setenv("CONTRIBGRAPH_EMBED_API_KEY", "env-key")
    assert embed("--config", config) == 3
    assert server.requests[-1][2]["Authorization"] == "Bearer env-key"


@pytest.mark.parametrize(
    "source, settings, problem",
    [
        ("config", {}, "no generation endpoint configured: pass --endpoint, set"
                       " CONTRIBGRAPH_GEN_ENDPOINT or put GEN_ENDPOINT in the --config file"),
        ("config", {"GEN_ENDPOINT": "http://127.0.0.1:9/v1", "PRICE_IN_PER_1K": "cheap"},
         "PRICE_IN_PER_1K must be a non-negative number, got 'cheap'"),
        ("environment", {"GEN_ENDPOINT": "http://127.0.0.1:9/v1", "PRICE_IN_PER_1K": "cheap"},
         "PRICE_IN_PER_1K must be a non-negative number, got 'cheap'"),
        ("environment", {"GEN_ENDPOINT": "http://127.0.0.1:9/v1", "PRICE_OUT_PER_1K": "-0.5"},
         "PRICE_OUT_PER_1K must be a non-negative number, got '-0.5'"),
    ],
    ids=["no_endpoint", "price_not_a_number", "price_not_a_number_in_environment",
         "negative_price"],
)
def test_bad_generation_settings_are_a_clean_failure(
    one_problem, tmp_path, monkeypatch, capsys, source, settings, problem
):
    config = tmp_path / "config"
    lines = [f"{key}={value}\n" for key, value in settings.items()] if source == "config" else []
    config.write_text("".join(lines), encoding="utf-8")
    if source == "environment":
        for key, value in settings.items():
            monkeypatch.setenv(f"CONTRIBGRAPH_{key}", value)
    out = tmp_path / "submissions.jsonl"
    assert run("--config", config, "rank", "--problems", one_problem, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "environment"])
def test_unknown_setting_key_is_a_clean_failure(one_problem, tmp_path, monkeypatch, capsys, source):
    """A misspelt key (PER1K for PER_1K) would charge nothing without a word."""
    config = tmp_path / "config"
    misspelt = "PRICE_IN_PER1K=0.5\n" if source == "config" else ""
    config.write_text(f"GEN_ENDPOINT=http://127.0.0.1:9/v1\n{misspelt}", encoding="utf-8")
    where = str(config)
    if source == "environment":
        monkeypatch.setenv("CONTRIBGRAPH_PRICE_IN_PER1K", "0.5")
        where = "the environment (CONTRIBGRAPH_PRICE_IN_PER1K)"
    out = tmp_path / "submissions.jsonl"
    assert run("--config", config, "rank", "--problems", one_problem, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown setting PRICE_IN_PER1K in {where}; the keys are GEN_ENDPOINT,")
    assert not out.exists()


def test_rank_degrades_the_one_problem_whose_call_failed(e2e, tmp_path, loopback, caplog):
    """A failed call (here a 500) costs its problem alone: that row keeps
    the stored order and is flagged, and the others match a clean run's."""
    first = list(read_jsonl(e2e / "problems.jsonl"))[0]
    problems = tmp_path / "problems.jsonl"
    write_jsonl(problems, [
        {**first, "problem_id": f"p{i}", "target": {**first["target"], "name": f"target {i}"}}
        for i in range(4)
    ])
    server = loopback()

    def rank(out: Path) -> list[dict]:
        argv = ["rank", "--problems", problems, "--endpoint", server.url, "--parallel", 2]
        assert run(*argv, "--out", out) == 0
        return list(read_jsonl(out))

    server.default = reply(200, EMPTY_RANKING)
    clean = rank(tmp_path / "clean.jsonl")
    server.default = lambda handler: (
        reply(500, b"down") if b"target 2" in handler.body else reply(200, EMPTY_RANKING)
    )(handler)
    with caplog.at_level(logging.WARNING, logger="contribgraph.evaluation"):
        rows = rank(tmp_path / "submissions.jsonl")
    assert [row["problem_id"] for row in rows] == ["p0", "p1", "p2", "p3"]
    assert [row["flagged"] for row in rows] == [False, False, True, False]
    assert rows[2]["ranked_ids"] == [c["id"] for c in first["candidates"]]
    assert [rows[i] for i in (0, 1, 3)] == [clean[i] for i in (0, 1, 3)]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("problem p2: degraded to stored order:")
    assert "500" in warnings[0]
