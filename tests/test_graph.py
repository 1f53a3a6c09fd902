from __future__ import annotations

import gc
import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contribgraph.errors import (
    DuplicatePaperError,
    MalformedLineError,
    RecordValidationError,
    UnknownIdError,
)
from contribgraph.frontier import build_histogram
from contribgraph.graph import ContributionGraph, UnresolvedRef
from contribgraph.jsonl import read_jsonl, write_jsonl
from contribgraph.model import ExtractionRecord, PaperMeta, PaperRef

from conftest import (
    FORGED,
    LATE_ALIGNMENT,
    MALFORMED_ALIGNMENTS,
    build_synthetic_graph,
    citation,
    forge_stamp,
    load_golden_raw,
    write_citing_pair,
)
from test_roadmap import random_dag


BERT = "52967399"
ATTENTION = "13756489"


def make_record(corpus_id: str, n: int = 2, year: int = 2020, internal=()):
    contributions = []
    for i in range(n):
        contributions.append(
            {
                "contribution_id": f"{corpus_id}.c{i}",
                "name": f"thing {i}",
                "description": f"thing {i} of paper {corpus_id}",
                "types": [{"type": "analysis", "explanation": "e"}],
                "sections": ["S1"],
                "prerequisites": [],
            }
        )
    for dep, pre in internal:
        contributions[dep]["prerequisites"].append(
            {
                "name": "needs",
                "description": "d",
                "explanation": "e",
                "core_or_peripheral": "core",
                "references": [
                    {
                        "type": "internal",
                        "contribution_name": f"thing {pre}",
                        "contribution_id": f"{corpus_id}.c{pre}",
                        "explanation": "dep",
                    }
                ],
            }
        )
    return {
        "corpus_id": corpus_id,
        "title": f"Paper {corpus_id}",
        "year": year,
        "contributions": contributions,
    }


def cites(*cited):
    """A prerequisite whose paper references cite ``cited`` in order; None
    stands for a reference known only by its title."""
    return {
        "name": "needs",
        "description": "d",
        "explanation": "e",
        "core_or_peripheral": "core",
        "references": [
            {"type": "paper", "paper_title": f"Paper {c or 'elsewhere'}", "corpus_id": c}
            for c in cited
        ],
    }


def site(entry: UnresolvedRef) -> tuple:
    return (entry.owner_id, entry.prereq_index, entry.ref_index)


IN_SET = ("1", "2", "3", "4", "5")
CITABLE = IN_SET + ("90", "91", None)  # in-set, outside and title-only papers


@st.composite
def record_orders(draw):
    """The five in-set records, citing one another, outside papers, titles
    and themselves, in a random order."""
    records = []
    for corpus_id in IN_SET:
        record = make_record(corpus_id, n=draw(st.integers(1, 2)))
        for contribution in record["contributions"]:
            contribution["prerequisites"] = [
                cites(*cited)
                for cited in draw(
                    st.lists(st.lists(st.sampled_from(CITABLE), max_size=3), max_size=2)
                )
            ]
        records.append(record)
    return draw(st.permutations(records))


def brute_force_unresolved(applied) -> dict:
    """Cited paper -> sites of the applied records' references to it that
    stay unresolved, in record order: every paper reference that is not a
    self-citation and cites no applied record."""
    extracted = {r["corpus_id"] for r in applied}
    expected: dict = {}
    for record in applied:
        for contribution in record["contributions"]:
            for k, prereq in enumerate(contribution["prerequisites"]):
                for j, ref in enumerate(prereq["references"]):
                    cited = ref["corpus_id"]
                    if cited != record["corpus_id"] and cited not in extracted:
                        expected.setdefault(cited, []).append(
                            (contribution["contribution_id"], k, j)
                        )
    return expected


class TestUnresolvedIndex:
    @settings(max_examples=100, deadline=None)
    @given(records=record_orders())
    def test_index_matches_brute_force_after_every_record(self, records):
        graph = ContributionGraph()
        for n in range(1, len(records) + 1):
            graph.add_paper_record(records[n - 1])
            expected = brute_force_unresolved(records[:n])
            assert Counter(site(e) + (e.ref.corpus_id,) for e in graph.unresolved) == Counter(
                s + (cited,) for cited, sites in expected.items() for s in sites
            )
            assert {
                cited: [site(e) for e in entries]
                for cited, entries in graph.unresolved_by_cited().items()
            } == expected
            for corpus_id in IN_SET + ("90", "91"):
                assert [site(e) for e in graph.unresolved_citing(corpus_id)] == (
                    expected.get(corpus_id, [])
                )

    def test_rejected_record_leaves_index_untouched(self):
        graph = ContributionGraph()
        first = make_record("6", n=2)
        first["contributions"][0]["prerequisites"] = [cites("7", "8", None)]
        first["contributions"][1]["prerequisites"] = [cites("8", "7")]
        graph.add_paper_record(first)
        before = [e.to_json() for e in graph.unresolved]
        before_by_cited = graph.unresolved_by_cited()
        second = make_record("7", n=1)
        second["contributions"][0]["prerequisites"] = [cites("9", "8")]
        stray = UnresolvedRef("6.c0", 0, 5, PaperRef(corpus_id="7"))
        with pytest.raises(RecordValidationError, match="unknown late alignment"):
            graph.add_paper_record(second, [stray])
        assert [e.to_json() for e in graph.unresolved] == before
        assert graph.unresolved_by_cited() == before_by_cited
        assert [site(e) for e in graph.unresolved_citing("7")] == [("6.c0", 0, 0), ("6.c1", 0, 1)]
        assert graph.unresolved_citing("9") == []


class TestGoldenRecord:
    def test_bert_record_shape(self, golden_graph):
        assert len(golden_graph.contributions_of(BERT)) == 12
        first = golden_graph.get_contribution(f"{BERT}.c0")
        assert first.name == "Bidirectional Transformer encoder architecture (BERT)"
        assert first.description.startswith("BERT introduces a multi-layer Transformer")

    def test_bert_edges(self, golden_graph):
        incoming = {
            (e.pre_id, e.match_type) for e in golden_graph.incoming_edges(f"{BERT}.c0")
        }
        assert (f"{ATTENTION}.c0", "strong") in incoming
        for i in (1, 2, 3):
            assert (f"{ATTENTION}.c{i}", "weak") in incoming
        # Internal edges from the MLM/NSP contributions.
        assert (f"{BERT}.c1", "strong") in incoming
        assert (f"{BERT}.c2", "strong") in incoming

    def test_gelu_reference_unresolved(self, golden_graph):
        assert "2359786" in [u.key() for u in golden_graph.unresolved]

    def test_validate_clean(self, golden_graph):
        assert golden_graph.validate() == []


class TestAddPaperRecord:
    def test_empty_record_zero_delta(self):
        graph = ContributionGraph()
        delta = graph.add_paper_record(
            {"corpus_id": "1", "title": "t", "year": 2020, "contributions": []}
        )
        assert (delta.nodes_added, delta.edges_added, delta.unresolved_added) == (0, 0, 0)

    def test_duplicate_corpus_rejected(self):
        graph = ContributionGraph()
        graph.add_paper_record(make_record("1"))
        with pytest.raises(DuplicatePaperError):
            graph.add_paper_record(make_record("1"))

    def test_three_paper_cross_reference_oracle(self):
        # Hand-enumerated: edges follow the fixture's reference structure.
        graph = ContributionGraph()
        graph.add_paper_record(make_record("10", n=2, internal=[(1, 0)]))
        second = make_record("20", n=1)
        second["contributions"][0]["prerequisites"] = [
            {
                "name": "needs paper 10",
                "description": "d",
                "explanation": "e",
                "core_or_peripheral": "core",
                "references": [
                    {
                        "type": "paper",
                        "paper_title": "Paper 10",
                        "paper_year": 2020,
                        "paper_venue": "V",
                        "corpus_id": "10",
                        "matches": [
                            {"contribution_id": "10.c0", "explanation": "m", "match_type": "strong"},
                            {"contribution_id": "10.c1", "explanation": "m", "match_type": "weak"},
                        ],
                    }
                ],
            }
        ]
        graph.add_paper_record(second)
        third = make_record("30", n=1)
        third["contributions"][0]["prerequisites"] = [
            {
                "name": "needs paper 20",
                "description": "d",
                "explanation": "e",
                "core_or_peripheral": "peripheral",
                "references": [
                    {
                        "type": "paper",
                        "paper_title": "Paper 20",
                        "paper_year": 2020,
                        "paper_venue": "V",
                        "corpus_id": "20",
                        "matches": [
                            {"contribution_id": "20.c0", "explanation": "m", "match_type": "weak"}
                        ],
                    }
                ],
            }
        ]
        graph.add_paper_record(third)
        got = {(e.pre_id, e.dep_id, e.match_type) for e in graph.edges}
        assert got == {
            ("10.c0", "10.c1", "strong"),
            ("10.c0", "20.c0", "strong"),
            ("10.c1", "20.c0", "weak"),
            ("20.c0", "30.c0", "weak"),
        }
        assert graph.validate() == []

    def test_rejected_record_leaves_store_untouched(self, golden_graph):
        before_hash = golden_graph.graph_hash()
        before_unresolved = [u.key() for u in golden_graph.unresolved]
        bad = make_record("777", n=2)
        bad["contributions"][1]["prerequisites"] = [
            {
                "name": "bad",
                "description": "d",
                "explanation": "e",
                "core_or_peripheral": "core",
                "references": [
                    {
                        "type": "internal",
                        "contribution_name": "ghost",
                        "contribution_id": "777.c9",
                        "explanation": "dangling",
                    }
                ],
            }
        ]
        with pytest.raises(RecordValidationError):
            golden_graph.add_paper_record(bad)
        assert golden_graph.graph_hash() == before_hash
        assert [u.key() for u in golden_graph.unresolved] == before_unresolved
        assert "777" not in golden_graph.papers

    def test_self_internal_reference_rejected(self):
        graph = ContributionGraph()
        record = make_record("5", n=1, internal=[(0, 0)])
        with pytest.raises(RecordValidationError, match="itself"):
            graph.add_paper_record(record)
        assert graph.nodes == {}

    def test_self_citation_kept_in_record_but_not_unresolved(self):
        record = make_record("5", n=1)
        self_ref = {"type": "paper", "paper_title": "Paper 5", "corpus_id": "5"}
        record["contributions"][0]["prerequisites"].append(
            {
                "name": "earlier result",
                "description": "d",
                "explanation": "e",
                "core_or_peripheral": "core",
                "references": [self_ref],
            }
        )
        graph = ContributionGraph()
        delta = graph.add_paper_record(record)
        assert delta.unresolved_added == 0
        assert graph.unresolved == []
        assert graph.validate() == []
        stored = graph.records()[0].to_json()["contributions"][0]["prerequisites"][0]
        assert stored["references"][0]["corpus_id"] == "5"

    def test_out_of_order_ingestion_materializes_edges_late(self):
        raws = load_golden_raw()
        by_id = {r["corpus_id"]: r for r in raws}
        graph = ContributionGraph()
        # Citing paper first: matches cannot become edges yet.
        graph.add_paper_record(by_id[BERT])
        assert graph.edges and all(
            e.pre_id.startswith(BERT) for e in graph.edges
        ), "only internal edges exist before cited papers arrive"
        n_internal = len(graph.edges)
        delta = graph.add_paper_record(by_id[ATTENTION])
        assert delta.edges_added == 4  # stored matches materialize now
        assert len(graph.edges) == n_internal + 4
        graph.add_paper_record(by_id["3603249"])
        graph.add_paper_record(by_id["3626819"])
        assert graph.validate() == []
        # Same edge set as in-order ingestion.
        ordered = ContributionGraph()
        for raw in raws:
            ordered.add_paper_record(raw)
        assert {(e.pre_id, e.dep_id, e.match_type) for e in graph.edges} == {
            (e.pre_id, e.dep_id, e.match_type) for e in ordered.edges
        }

    def test_late_alignment_naming_no_unresolved_reference_rejected(self):
        graph = ContributionGraph()
        graph.add_paper_record(make_record("6", n=1))
        stray = UnresolvedRef("6.c0", 0, 0, PaperRef(corpus_id="7"))
        with pytest.raises(RecordValidationError, match="unknown late alignment"):
            graph.add_paper_record(make_record("7", n=1), [stray])
        assert "7" not in graph.papers and len(graph.nodes) == 1


class TestQueries:
    def test_unknown_id_raises(self, golden_graph):
        with pytest.raises(UnknownIdError):
            golden_graph.incoming_edges("nope.c0")
        with pytest.raises(UnknownIdError):
            golden_graph.outgoing_edges("nope.c0")

    def test_isolated_node_empty_adjacency(self, golden_graph):
        assert golden_graph.incoming_edges(f"{BERT}.c5") == []
        assert golden_graph.outgoing_edges(f"{BERT}.c11") == []

    def test_incoming_sorted_by_peer_then_index(self, golden_graph):
        incoming = golden_graph.incoming_edges(f"{BERT}.c0")
        keys = [(e.pre_id, e.prereq_index) for e in incoming]
        assert keys == sorted(keys)

    def test_every_edge_in_both_adjacencies(self):
        graph = build_synthetic_graph(n_papers=25, seed=11)
        for edge in graph.edges:
            assert edge in graph.outgoing_edges(edge.pre_id)
            assert edge in graph.incoming_edges(edge.dep_id)

    def test_adjacency_totals_match_edge_count(self):
        graph = build_synthetic_graph(n_papers=25, seed=13)
        total_in = sum(len(graph.incoming_edges(cid)) for cid in graph.nodes)
        total_out = sum(len(graph.outgoing_edges(cid)) for cid in graph.nodes)
        assert total_in == len(graph.edges) == total_out

    def test_dedup_view_keeps_strongest(self):
        graph = ContributionGraph()
        graph.add_paper_record(make_record("1", n=1))
        record = make_record("2", n=1)
        record["contributions"][0]["prerequisites"] = [
            citation("1.c0", "weak", "w"), citation("1.c0", "strong", "s"),
            citation("1.c0", "weak", "w2"),
        ]
        graph.add_paper_record(record)
        assert len(graph.edges) == 3
        dedup = graph.deduplicated_edges("2.c0")
        assert [(e.pre_id, e.match_type, e.explanation) for e in dedup] == [("1.c0", "strong", "s")]


class TestValidate:
    def test_unresolved_reference_to_extracted_paper_detected(self):
        graph = ContributionGraph()
        record = make_record("6", n=1)
        record["contributions"][0]["prerequisites"] = [cites("7")]
        graph.add_paper_record(record)
        graph._records["7"] = ExtractionRecord("7", "Paper 7", 2020)
        assert [(v.invariant, v.offender) for v in graph.validate()] == [
            ("graph.unresolved", "6.c0")
        ]

    def test_adjacency_drift_detected(self, golden_graph):
        golden_graph._incoming[f"{BERT}.c0"].pop()
        assert any(
            v.invariant == "graph.adjacency" for v in golden_graph.validate()
        )

    def test_adjacency_holds_no_empty_lists(self, golden_graph):
        """Only contributions with edges have an adjacency entry."""
        for index, endpoint in ((golden_graph._incoming, "dep_id"),
                                (golden_graph._outgoing, "pre_id")):
            assert set(index) == {getattr(e, endpoint) for e in golden_graph.edges}
            assert set(index) < set(golden_graph.nodes)
            assert all(index.values())
        assert golden_graph.validate() == []


class TestPersistence:
    def test_round_trip_via_records(self, tmp_path, golden_graph):
        golden_graph.save(tmp_path)
        loaded = ContributionGraph.load(tmp_path)
        assert loaded.validate() == []
        # Recomputed from the replay: the stamp holds the live graph's digest.
        assert loaded.recompute_hash() == golden_graph.graph_hash()
        assert sorted(u.key() for u in loaded.unresolved) == sorted(
            u.key() for u in golden_graph.unresolved
        )
        for cid in golden_graph.nodes:
            assert [e.to_json() for e in loaded.incoming_edges(cid)] == [
                e.to_json() for e in golden_graph.incoming_edges(cid)
            ]

    def test_save_is_deterministic(self, tmp_path, golden_graph):
        a, b = tmp_path / "a", tmp_path / "b"
        golden_graph.save(a)
        golden_graph.save(b)
        for name in ("records.jsonl", "nodes.jsonl", "edges.jsonl", "papers.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_record_file_key_order_preserved(self, tmp_path, golden_graph):
        golden_graph.save(tmp_path)
        rows = list(read_jsonl(tmp_path / "records.jsonl"))
        bert = next(r for r in rows if r["corpus_id"] == BERT)
        assert list(bert.keys()) == ["corpus_id", "title", "year", "contributions"]
        c0 = bert["contributions"][0]
        assert list(c0.keys()) == [
            "contribution_id", "name", "description", "types", "sections", "prerequisites",
        ]
        paper_ref = c0["prerequisites"][0]["references"][0]
        assert list(paper_ref.keys()) == [
            "type", "paper_title", "paper_year", "paper_venue", "corpus_id", "matches",
        ]
        match = paper_ref["matches"][0]
        assert list(match.keys()) == ["contribution_id", "explanation", "match_type"]


def append_line(path, row: dict) -> None:
    with path.open("a", encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")


def edit_stamp(store, edit) -> None:
    path = store / "graph_hash.json"
    path.write_bytes(edit(path.read_bytes()))


class TestGraphHashStamp:
    """``save`` stamps the digest of the views it writes into
    graph_hash.json; ``load`` returns it only when the stamp's key equals
    the bytes it replayed, and a stamp that does not match changes no
    value."""

    @pytest.fixture()
    def store(self, tmp_path, golden_graph):
        golden_graph.save(tmp_path / "store")  # a directory with no log yet
        return tmp_path / "store"

    def test_save_into_an_empty_directory_stamps_the_full_digest(self, store, golden_graph):
        stamp = json.loads((store / "graph_hash.json").read_bytes())
        views = b"".join(
            line.rstrip(b"\n")
            for name in ("nodes.jsonl", "edges.jsonl")
            for line in (store / name).open("rb")
        )
        loaded = ContributionGraph.load(store)
        assert stamp["graph_hash"] == hashlib.sha256(views).hexdigest()
        assert stamp["graph_hash"] == golden_graph.recompute_hash() == loaded.recompute_hash()
        assert loaded.graph_hash() == stamp["graph_hash"]

    def test_a_matching_key_is_trusted(self, store):
        forge_stamp(store)
        assert ContributionGraph.load(store).graph_hash() == FORGED

    @pytest.mark.parametrize("change", [
        lambda store: append_line(store / "records.jsonl", make_record("777")),
        lambda store: append_line(store / "alignments.jsonl", LATE_ALIGNMENT),
        lambda store: append_line(
            store / "papers.jsonl", {"corpus_id": "999", "title": "P", "year": 2020}
        ),
        lambda store: (store / "graph_hash.json").unlink(),
        lambda store: edit_stamp(store, lambda raw: raw[: len(raw) // 2]),
        lambda store: edit_stamp(store, lambda raw: b""),
        lambda store: edit_stamp(store, lambda raw: b"\xff not json"),
        lambda store: edit_stamp(store, lambda raw: b"[" + raw + b"]"),
        lambda store: edit_stamp(store, lambda raw: raw.replace(b'"records": 4', b'"records": "4"')),
        lambda store: edit_stamp(store, lambda raw: raw.replace(FORGED.encode(), b"Z" * 64)),
        lambda store: edit_stamp(store, lambda raw: raw.replace(b'"graph_hash"', b'"digest"')),
    ], ids=[
        "record_appended", "alignment_appended", "papers_edited", "stamp_deleted",
        "stamp_truncated", "stamp_empty", "stamp_not_json", "stamp_not_an_object",
        "stamp_key_of_the_wrong_type", "stamp_digest_not_hex", "stamp_without_digest",
    ])
    def test_a_stale_or_bad_stamp_falls_back_to_the_full_digest(self, store, change):
        forge_stamp(store)
        change(store)
        loaded = ContributionGraph.load(store)
        assert loaded.graph_hash() == loaded.recompute_hash() != FORGED

    @pytest.mark.parametrize("change", [
        lambda graph: graph.add_paper_record(make_record("777")),
        lambda graph: graph.register_paper(PaperMeta("999", "P", 2020)),
    ], ids=["record_added", "paper_registered"])
    def test_a_graph_changed_after_load_computes_its_digest(self, store, change):
        forge_stamp(store)
        loaded = ContributionGraph.load(store)
        change(loaded)
        assert loaded.graph_hash() == loaded.recompute_hash() != FORGED

    def test_a_record_missing_from_the_log_is_never_stamped(self, store, golden_graph):
        """A record applied whose log append failed: the views and the
        stamp hold it, the log does not."""
        golden_graph.add_paper_record(make_record("777"))
        golden_graph.save(store)
        forge_stamp(store)
        loaded = ContributionGraph.load(store)
        assert not loaded.is_extracted("777")
        assert loaded.graph_hash() == loaded.recompute_hash() != FORGED


class TestLoadFailure:
    """A log line that fails the schema check fails ``load`` loudly, and
    the collector pause around the replay ends with it."""

    @pytest.fixture()
    def store(self, tmp_path):
        rows = load_golden_raw()
        line, match = next(
            (line, m)
            for line, row in enumerate(rows, 1)
            for c in row["contributions"]
            for prereq in c["prerequisites"]
            for ref in prereq["references"]
            for m in ref.get("matches", ())
        )
        match["match_type"] = "maybe"
        write_jsonl(tmp_path / "records.jsonl", rows)
        return tmp_path, line

    def test_schema_invalid_line_raises_and_reenables_the_collector(self, store):
        store, line = store
        assert gc.isenabled()
        where = re.escape(f"{store / 'records.jsonl'}:{line}: ")
        with pytest.raises(MalformedLineError, match=f"^{where}.*got 'maybe'"):
            ContributionGraph.load(store)
        assert gc.isenabled()

    def test_load_started_with_the_collector_disabled_leaves_it_disabled(
        self, store, tmp_path_factory, golden_graph
    ):
        clean = tmp_path_factory.mktemp("clean")
        golden_graph.save(clean)
        gc.disable()
        try:
            ContributionGraph.load(clean)
            assert not gc.isenabled()
            with pytest.raises(MalformedLineError):
                ContributionGraph.load(store[0])
            assert not gc.isenabled()
        finally:
            gc.enable()


# sha256 of the JSON list of (pre_id, dep_id, match_type) of every edge of
# build_synthetic_graph(n_papers=160, seed=20240901), in edge order.
SYNTHETIC_EDGES_SHA256 = "beeb4b3d1ddfbec1e5a22b7bcf59e0c93373be590a4d3f498bff3e9c80519ad9"


def edge_triples(graph: ContributionGraph) -> list[list[str]]:
    return [[e.pre_id, e.dep_id, e.match_type] for e in graph.edges]


def test_synthetic_graph_edge_sequence_is_pinned():
    graph = build_synthetic_graph(n_papers=160, seed=20240901)
    digest = hashlib.sha256(json.dumps(edge_triples(graph)).encode("utf-8")).hexdigest()
    assert (len(graph.edges), digest) == (720, SYNTHETIC_EDGES_SHA256)


@pytest.mark.parametrize(
    "build", [build_synthetic_graph, random_dag], ids=["build_synthetic_graph", "random_dag"]
)
def test_synthetic_graphs_survive_save_and_load(tmp_path, build):
    """Test graphs are built from records alone, so their log rebuilds them."""
    graph = build()
    assert graph.edges
    graph.save(tmp_path)
    loaded = ContributionGraph.load(tmp_path)
    assert loaded.recompute_hash() == graph.graph_hash()
    assert loaded.edges == graph.edges


def test_random_graphs_validate_clean():
    for seed in range(5):
        graph = build_synthetic_graph(n_papers=20, seed=seed)
        assert graph.validate() == []


def test_concurrent_readers_see_consistent_snapshots():
    import threading

    graph = build_synthetic_graph(n_papers=10, seed=3)
    stop = threading.Event()
    errors: list[Exception] = []

    def reader():
        rng = random.Random(0)
        ids = sorted(graph.nodes)
        while not stop.is_set():
            cid = rng.choice(ids)
            try:
                total_in = sum(len(graph.incoming_edges(i)) for i in ids)
                total_out = sum(len(graph.outgoing_edges(i)) for i in ids)
                assert total_in == total_out
                graph.incoming_edges(cid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(20):
        graph.add_paper_record(make_record(f"77{i:03d}", n=2, internal=[(1, 0)]))
    stop.set()
    for t in threads:
        t.join()
    assert errors == []


class TestExtractedIsTheLog:
    """Whether a paper is extracted is read from the log alone; the status
    papers.jsonl carries is derived on save and ignored on load."""

    @pytest.mark.parametrize("status", ["extracted", "failed", "pending"])
    def test_stored_status_of_a_paper_the_log_lacks_is_ignored(self, tmp_path, status):
        graph = ContributionGraph()
        record = make_record("6", n=1)
        record["contributions"][0]["prerequisites"] = [cites("7")]
        graph.add_paper_record(record)
        graph.save(tmp_path)
        rows = list(read_jsonl(tmp_path / "papers.jsonl"))
        rows.append({"corpus_id": "7", "title": "Paper 7", "year": 2019, "status": status})
        write_jsonl(tmp_path / "papers.jsonl", rows)

        loaded = ContributionGraph.load(tmp_path)
        assert loaded.is_extracted("6") and not loaded.is_extracted("7")
        assert loaded.papers["7"].title == "Paper 7"
        assert build_histogram(loaded) == Counter({"7": 1})
        assert loaded.validate() == []
        loaded.save(tmp_path)
        assert [(r["corpus_id"], r["status"]) for r in read_jsonl(tmp_path / "papers.jsonl")] == [
            ("6", "extracted"), ("7", "pending")
        ]


class TestAlignmentsLog:
    def test_well_formed_row_becomes_an_edge(self, tmp_path):
        write_citing_pair(tmp_path, LATE_ALIGNMENT)
        loaded = ContributionGraph.load(tmp_path)
        assert [(e.pre_id, e.dep_id, e.match_type) for e in loaded.edges] == [
            ("7.c0", "6.c0", "strong")
        ]

    @pytest.mark.parametrize("name", sorted(MALFORMED_ALIGNMENTS))
    def test_row_breaking_the_record_rules_fails_the_load(self, tmp_path, name):
        write_citing_pair(tmp_path, MALFORMED_ALIGNMENTS[name])
        with pytest.raises(RecordValidationError, match="alignments.jsonl row 1"):
            ContributionGraph.load(tmp_path)
