from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_fixture as cf
from contribgraph import cli
from contribgraph.errors import (
    ContribGraphError,
    DuplicatePaperError,
    MalformedLineError,
    RecordValidationError,
    UnknownIdError,
)
from contribgraph.frontier import build_histogram
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import dump_line, read_jsonl, write_jsonl
from contribgraph.model import (
    Contribution,
    Edge,
    Match,
    PaperMeta,
    PaperRef,
    PartialDate,
    Prerequisite,
    UnresolvedRef,
)
from contribgraph.pipeline import Pipeline
from contribgraph.records import parse_record

from conftest import (
    FORGED,
    GOLDEN_RECORDS,
    LATE_ALIGNMENT,
    MALFORMED_ALIGNMENTS,
    assert_index_invariants,
    build_synthetic_graph,
    citation,
    forge_stamp,
    load_golden_raw,
    write_citing_pair,
)
from oracles import node_lines_fresh
from test_jsonl import disk_full_after
from test_pipeline import RoutedBackend, batch_inputs, batch_route, is_alignment
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
        assert_index_invariants(golden_graph)


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
        assert_index_invariants(graph)

    def test_match_outside_the_cited_paper_is_skipped_with_a_warning(self, caplog):
        graph = ContributionGraph()
        graph.add_paper_record(make_record("10", n=1))
        citing = make_record("20", n=1)
        prereq = cites("10")
        prereq["references"][0]["matches"] = [
            {"contribution_id": "10.c0", "explanation": "m", "match_type": "strong"},
            {"contribution_id": "10.c7", "explanation": "m", "match_type": "weak"},
        ]
        citing["contributions"][0]["prerequisites"] = [prereq]
        with caplog.at_level("WARNING", logger="contribgraph.graph"):
            delta = graph.add_paper_record(citing)
        assert delta.edges_added == 1
        assert [(e.pre_id, e.dep_id) for e in graph.edges] == [("10.c0", "20.c0")]
        assert [r.getMessage() for r in caplog.records] == [
            "20.c0: match target 10.c7 not in store, skipped"
        ]

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
        assert_index_invariants(graph)
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
        assert_index_invariants(graph)
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


def edge_graph(n_papers: int, references: bool) -> tuple[ContributionGraph, list]:
    """Parsed records of ``n_papers`` papers of three contributions, each
    contribution of paper p > 0 with six prerequisites, each citing and
    matching a contribution of an earlier paper, so six edges; without
    ``references`` the prerequisites cite nothing. Returns an empty graph
    and the records, parsed, so that applying them allocates only what
    the graph keeps."""
    rng = random.Random(7)
    parsed = []
    for p in range(n_papers):
        raw = make_record(str(1000 + p), n=3)
        for contribution in raw["contributions"] if p else ():
            for k in range(6):
                pre = f"{1000 + rng.randrange(p)}.c{rng.randrange(3)}"
                prerequisite = citation(pre, rng.choice(["strong", "weak"]), f"why {k}")
                if not references:
                    prerequisite["references"] = []
                contribution["prerequisites"].append(prerequisite)
        parsed.append(parse_record(raw))
    return ContributionGraph(), parsed


def traced_bytes(build) -> tuple[int, object]:
    """The bytes that ``build()`` allocates and keeps, and what it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


class TestEdgeColumns:
    def test_edges_read_as_a_sequence_of_edges(self, golden_graph):
        edges = golden_graph.edges
        listed = list(edges)
        assert len(edges) == len(listed) > 3 and all(isinstance(e, Edge) for e in listed)
        assert [edges[i] for i in range(len(edges))] == listed
        assert edges[-1] == listed[-1]
        assert edges == listed and listed == edges and edges != listed[:-1]
        assert edges == tuple(listed) and edges != [*listed[:-1], listed[0]]
        assert listed[0] in edges and edges.index(listed[2]) == 2
        with pytest.raises(IndexError):
            edges[len(edges)]
        assert not hasattr(edges, "append")

    def test_rows_read_back_what_the_record_holds(self):
        graph = ContributionGraph()
        graph.add_paper_record(make_record("1", n=1))
        record = make_record("2", n=2, internal=[(1, 0)])
        record["contributions"][0]["prerequisites"] = [
            citation("1.c0", "weak", "w"), citation("1.c0", "strong", "s"),
        ]
        graph.add_paper_record(parse_record(record))
        assert list(graph.edges) == [
            Edge("1.c0", "2.c0", "weak", "w", 0),
            Edge("1.c0", "2.c0", "strong", "s", 1),
            Edge("2.c0", "2.c1", "strong", "dep", 0),
        ]
        refs = [r for c in graph.records()[1].contributions for p in c.prerequisites
                for r in p.references]
        held = [r.matches[0].explanation if isinstance(r, PaperRef) else r.explanation
                for r in refs]
        assert len(held) == 3 and all(a is b for a, b in zip(graph.edges.explanation, held))
        assert graph.edges.incoming_rows("2.c0") == [0, 1]
        assert graph.edges.outgoing_rows("1.c0") == [0, 1]
        assert graph.edges.incoming_rows("1.c0") == []
        assert sorted(graph.dependent_ids()) == ["2.c0", "2.c1"]

    def test_edge_storage_is_at_most_half_the_object_layout(self):
        """Edge storage, the bytes a store of six edges per contribution
        keeps beyond the same store whose prerequisites cite nothing, is
        at most half what an ``Edge`` per edge plus dict-of-list indexes
        of positions would keep for the same edges."""
        n_papers = 400
        plain, plain_records = edge_graph(n_papers, references=False)
        graph, records = edge_graph(n_papers, references=True)
        without, _ = traced_bytes(lambda: [plain.add_paper_record(r) for r in plain_records])
        with_edges, _ = traced_bytes(lambda: [graph.add_paper_record(r) for r in records])
        assert len(graph.edges) == 6 * 3 * (n_papers - 1)

        def object_layout():
            edges = [Edge(e.pre_id, e.dep_id, e.match_type, e.explanation, e.prereq_index)
                     for e in graph.edges]
            incoming: dict[str, list[int]] = {}
            outgoing: dict[str, list[int]] = {}
            for i, edge in enumerate(edges):
                incoming.setdefault(edge.dep_id, []).append(i)
                outgoing.setdefault(edge.pre_id, []).append(i)
            return edges, incoming, outgoing

        objects, _ = traced_bytes(object_layout)
        assert with_edges - without <= objects / 2, (with_edges - without, objects)

    def test_edges_rows_are_the_edges_json(self, golden_graph, tmp_path):
        golden_graph.save(tmp_path)
        assert (tmp_path / "edges.jsonl").read_text(encoding="utf-8").splitlines() == [
            dump_line(edge.to_json()) for edge in golden_graph.edges
        ]


class TestValidate:
    def test_adjacency_holds_no_empty_lists(self, golden_graph):
        """Only contributions with edges have an adjacency entry, and it
        chains exactly their edges' rows: each index equals a rebuild from
        the edge list."""
        assert_index_invariants(golden_graph)
        for index in (golden_graph.edges.in_last, golden_graph.edges.out_last):
            assert set(index) < set(golden_graph.nodes)


class TestPersistence:
    def test_round_trip_via_records(self, tmp_path, golden_graph):
        golden_graph.save(tmp_path)
        loaded = ContributionGraph.load(tmp_path)
        assert_index_invariants(loaded)
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
            line
            for name in ("nodes.jsonl", "edges.jsonl")
            for line in (store / name).read_bytes().splitlines()
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


class TestPapersWrittenOnce:
    """``save`` leaves alone the papers.jsonl that this graph's last
    ``write_papers`` wrote, when the graph is unchanged since and the file
    is the same; any change in between makes it write the file again."""

    def build(self, store) -> ContributionGraph:
        graph = ContributionGraph()
        graph.add_paper_record(make_record("1"))
        graph.register_paper(PaperMeta("2", "Two", 2019, PartialDate(2019, 4)))
        graph.save(store)
        graph.write_papers(store)
        return graph

    def assert_fresh(self, graph, store, tmp_path) -> None:
        """papers.jsonl holds what a fresh write of ``graph`` holds, and
        the stamp's key matches it."""
        fresh = ContributionGraph()
        for record in graph.records():
            fresh.add_paper_record(record)
        for meta in graph.papers.values():
            fresh.register_paper(meta)
        fresh.write_papers(tmp_path / "fresh")
        assert (store / "papers.jsonl").read_bytes() == (tmp_path / "fresh" / "papers.jsonl").read_bytes()
        forge_stamp(store)
        assert ContributionGraph.load(store).graph_hash() == FORGED

    def test_a_save_right_after_write_papers_leaves_it(self, tmp_path, write_papers_calls):
        graph = self.build(tmp_path)
        del write_papers_calls[:]
        graph.save(tmp_path)
        graph.save(tmp_path)
        assert write_papers_calls == []
        self.assert_fresh(graph, tmp_path, tmp_path)

    @staticmethod
    def extract(graph, store, raw) -> None:
        """Apply a record and append it to the log, as ``ingest`` does."""
        record = parse_record(raw)
        graph.add_paper_record(record)
        graph.append_log(store / "records.jsonl", [record])

    @pytest.mark.parametrize("change", [
        lambda graph, store: TestPapersWrittenOnce.extract(graph, store, make_record("2", year=2019)),
        lambda graph, store: TestPapersWrittenOnce.extract(graph, store, make_record("3")),
        lambda graph, store: graph.register_paper(PaperMeta("2", "", None, None, "Venue")),
        lambda graph, store: graph.register_paper(PaperMeta("4", "Four", 2021)),
    ], ids=["record_of_a_pending_paper", "new_record", "metadata_enriched", "paper_registered"])
    def test_a_change_after_write_papers_makes_the_save_write_it(
        self, tmp_path, write_papers_calls, change
    ):
        store = tmp_path / "store"
        graph = self.build(store)
        change(graph, store)
        del write_papers_calls[:]
        graph.save(store)
        assert write_papers_calls == [store]
        self.assert_fresh(graph, store, tmp_path)

    def test_a_registration_that_changes_nothing_keeps_it(self, tmp_path, write_papers_calls):
        graph = self.build(tmp_path)
        assert not graph.register_paper(PaperMeta("2", "Other", 2020))
        del write_papers_calls[:]
        graph.save(tmp_path)
        assert write_papers_calls == []

    @pytest.mark.parametrize("elsewhere", ["another_directory", "file_deleted", "file_replaced"])
    def test_a_save_where_that_file_is_not_writes_it(self, tmp_path, write_papers_calls, elsewhere):
        store = tmp_path / "store"
        graph = self.build(store)
        if elsewhere == "another_directory":
            store = tmp_path / "other"
        elif elsewhere == "file_deleted":
            (store / "papers.jsonl").unlink()
        else:
            write_jsonl(store / "papers.jsonl", [{"corpus_id": "9"}])
        del write_papers_calls[:]
        graph.save(store)
        assert write_papers_calls == [store]
        self.assert_fresh(graph, store, tmp_path)


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
        assert_index_invariants(graph)


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
        assert_index_invariants(loaded)
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


# Characters of one to four UTF-8 bytes, so byte lengths differ from
# character lengths.
NON_ASCII = "\u00c5str\u00f6m \u2013 \u6570\u636e \U0001f642"


def rich_record(corpus_id: str, n: int = 2, year: int = 2020) -> dict:
    """``make_record`` with non-ASCII text and, past one contribution, a
    dash-split contribution."""
    record = make_record(corpus_id, n, year)
    for c in record["contributions"]:
        c["name"] = f"{NON_ASCII} {c['name']}"
        c["description"] = f"{c['description']} \u00e9t\u00e9 {NON_ASCII}"
    if n > 1:
        record["contributions"][1]["split_from"] = f"{NON_ASCII} key"
    return record


class TestNodeRowsFromTheLog:
    """``save`` builds each node row of a logged record, loaded or
    appended, from the bytes its log line holds; every other row is
    encoded. Either way each row is the row encoded whole, and the stamp
    is the full digest."""

    LOG = "records.jsonl"

    def build(self, store) -> ContributionGraph:
        """Papers 1 and 2 are loaded from the log; 3 to 6 are appended by
        this graph, 5 with no contributions. Paper 4 has a date and a
        venue before the append, paper 6 a date registered after it."""
        first = ContributionGraph()
        for raw in (rich_record("1"), rich_record("2", n=1)):
            first.add_paper_record(raw)
        first.save(store)
        graph = ContributionGraph.load(store)
        graph.register_paper(PaperMeta("4", "", None, PartialDate(2021, 3), f"{NON_ASCII} Venue"))
        raws = [rich_record("3"), rich_record("4", year=2021), make_record("5", n=0),
                rich_record("6", n=3)]
        records = [parse_record(raw) for raw in raws]
        for record in records:
            graph.add_paper_record(record)
        graph.append_log(store / self.LOG, records)
        graph.register_paper(PaperMeta("6", "", None, PartialDate(2020, 1, 2)))
        return graph

    def assert_fresh(self, graph, store) -> None:
        assert (store / "nodes.jsonl").read_bytes() == node_lines_fresh(graph)
        stamp = json.loads((store / "graph_hash.json").read_bytes())
        assert stamp["graph_hash"] == graph.recompute_hash()

    def test_rows_read_back_equal_rows_encoded(self, tmp_path):
        graph = self.build(tmp_path)
        graph.save(tmp_path)
        self.assert_fresh(graph, tmp_path)
        nodes = (tmp_path / "nodes.jsonl").read_text(encoding="utf-8")
        assert '"split_from": ' in nodes and f'"venue": "{NON_ASCII} Venue"' in nodes
        assert '"contribution_id": "6.c0"' in nodes and '"date": "2020-01-02"' in nodes
        assert ContributionGraph.load(tmp_path).graph_hash() == graph.recompute_hash()

    def test_the_append_writes_each_record_as_encoded_whole(self, tmp_path):
        graph = self.build(tmp_path)
        lines = (tmp_path / self.LOG).read_text(encoding="utf-8").splitlines()
        assert lines == [dump_line(record.to_json()) for record in graph.records()]

    def test_an_edit_that_keeps_every_length_fails_every_save(self, tmp_path):
        """Every save reads the logged records back from the graph's own
        log, so an edit there that keeps every length fails a save into
        any directory, naming the log and the line's offset."""
        store, copied, empty = tmp_path / "store", tmp_path / "copied", tmp_path / "empty"
        graph = self.build(store)
        log = store / self.LOG
        offset = log.read_bytes().index(b'{"corpus_id": "3"')
        with log.open("r+b") as f:
            f.write(log.read_bytes().replace(b"thing 0 of paper 3", b"THING 0 OF PAPER 3"))
        copied.mkdir()
        (copied / self.LOG).write_bytes(log.read_bytes())
        for directory in (store, copied, empty):
            with pytest.raises(ContribGraphError, match=rf"records\.jsonl at byte {offset}: "):
                graph.save(directory)
        assert not (empty / self.LOG).exists()

    def test_a_log_that_moved_the_appended_bytes_fails_the_save(self, tmp_path):
        graph = self.build(tmp_path)
        log = tmp_path / self.LOG
        data = log.read_bytes()
        with log.open("r+b") as f:  # the same file, every byte one later
            f.write(b"\n" + data)
        with pytest.raises(ContribGraphError, match=r"records\.jsonl at byte 0: the line of record 1"):
            graph.save(tmp_path)

    def test_an_append_failing_midway_keeps_no_span(self, tmp_path):
        graph = self.build(tmp_path)
        log = tmp_path / self.LOG
        before = log.read_bytes()
        records = [parse_record(rich_record(c)) for c in ("7", "8")]
        for record in records:
            graph.add_paper_record(record)
        whole = len(dump_line(records[0].to_json()).encode("utf-8")) + 1
        with pytest.raises(OSError), disk_full_after(len(before) + whole + 200):
            graph.append_log(log, records)
        assert len(log.read_bytes()) == len(before) + whole + 200  # 7 whole, 8 torn
        # Were a span kept for 7 or 8, reading it back from the log cut
        # back to its length before would fail.
        log.write_bytes(before)
        graph.save(tmp_path)
        self.assert_fresh(graph, tmp_path)


def test_a_save_of_a_loaded_store_encodes_no_contribution(tmp_path, monkeypatch):
    """Every node row of a loaded store is copied from its record's log
    line, the rows a save wrote, so neither a save nor ``recompute_hash``
    encodes a contribution."""
    graph = ContributionGraph()
    for raw in (*load_golden_raw(), rich_record("3"), make_record("5", n=0)):
        graph.add_paper_record(raw)
    graph.save(tmp_path)
    views = {name: (tmp_path / name).read_bytes() for name in ("nodes.jsonl", "graph_hash.json")}
    loaded = ContributionGraph.load(tmp_path)

    def encode(contribution):
        raise AssertionError(f"{contribution.id} encoded")

    monkeypatch.setattr(Contribution, "to_json", encode)
    assert loaded.recompute_hash() == json.loads(views["graph_hash.json"])["graph_hash"]
    loaded.save(tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in views} == views


def test_an_append_to_another_log_holds_the_old_logs_records_again(tmp_path):
    """The graph keeps the lines of one log: an append to another one
    reads back the records logged in the first and holds them again, so
    they outlive the first log, and the views it saves equal the rows
    encoded whole."""
    first, other = tmp_path / "first", tmp_path / "other"
    built = ContributionGraph()
    for raw in load_golden_raw():
        built.add_paper_record(raw)
    built.save(first)
    graph = ContributionGraph.load(first)
    logged = graph.records()
    record = parse_record(rich_record("3"))
    graph.add_paper_record(record)
    graph.append_log(other / "records.jsonl", [record])
    for name in ("records.jsonl", "alignments.jsonl"):
        (first / name).unlink()
    assert graph.records() == [*logged, record]
    graph.save(other)
    assert (other / "nodes.jsonl").read_bytes() == node_lines_fresh(graph)


def test_logged_records_hold_no_prerequisite_side(corpus, tmp_path, monkeypatch):
    """Once a record is in the log the graph holds none of its
    prerequisite side: no ``Prerequisite``, and no ``PaperRef`` or
    ``Match`` but those of its unresolved references, whether ``ingest
    --records`` appended the record, a replay-mock ``extract`` did (with
    late alignments), or a load replayed it. Each record still reads
    back whole, equal to the one the reload replays."""
    built = []  # each graph a CLI step loaded, and then built on
    real_load_store = cli.load_store
    monkeypatch.setattr(
        cli, "load_store", lambda store: built.append(real_load_store(store)) or built[-1]
    )

    def run(*argv) -> ContributionGraph:
        assert cli.dispatch([str(a) for a in argv]) == 0
        return built[-1]

    def alive() -> Counter:
        gc.unfreeze()  # load_store freezes: get_objects reads no frozen object
        gc.collect()
        kinds = (Prerequisite, PaperRef, Match)
        return Counter(type(o) for o in gc.get_objects() if type(o) in kinds)

    def assert_holds_no_prerequisite_side(route) -> ContributionGraph:
        before = alive()
        graph = route()
        refs = {id(entry.ref): entry.ref for entry in graph.unresolved}
        grown = alive()
        grown.subtract(before)
        assert (grown[Prerequisite], grown[PaperRef], grown[Match]) == (
            0, len(refs), sum(len(ref.matches) for ref in refs.values())
        )
        return graph

    ingested, extracted = tmp_path / "ingested", tmp_path / "extracted"
    from_ingest = assert_holds_no_prerequisite_side(
        lambda: run("ingest", "--store", ingested, "--records", GOLDEN_RECORDS)
    )
    run("ingest", "--store", extracted, "--catalog", corpus.catalog_path)
    from_extract = assert_holds_no_prerequisite_side(lambda: run(
        "extract", *cf.EXTRACTION_ORDER, "--store", extracted,
        "--catalog", corpus.catalog_path, "--mock", corpus.mock_dir,
    ))
    assert (extracted / "alignments.jsonl").stat().st_size > 0
    for store, graph in ((ingested, from_ingest), (extracted, from_extract)):
        reloaded = assert_holds_no_prerequisite_side(lambda: ContributionGraph.load(store))
        assert graph.unresolved
        assert graph.records() == reloaded.records() == [
            parse_record(raw) for raw in read_jsonl(store / "records.jsonl")
        ]
        assert_index_invariants(reloaded)


class TestLogChangedUnderTheGraph:
    """A loaded graph reads its logged records back from the log. A log
    whose line of a record was rewritten, or cut, fails every read of
    that record loudly, naming records.jsonl and the line's offset:
    ``record``, a save, and a late alignment of its reference."""

    @staticmethod
    def citing(corpus_id: str) -> dict:
        """A record of one contribution citing paper 301, not extracted."""
        record = make_record(corpus_id, n=1)
        record["contributions"][0]["prerequisites"] = [{
            "name": "p", "description": "d", "explanation": "e", "core_or_peripheral": "core",
            "references": [{"type": "paper", "paper_title": "t", "corpus_id": "301"}],
        }]
        return record

    @staticmethod
    def rewrite(log, offset) -> str:
        """Paper 100's line in place of paper 101's, as long."""
        other = dump_line(parse_record(TestLogChangedUnderTheGraph.citing("101")).to_json())
        data = log.read_bytes()
        assert len(other) == data.index(b"\n", offset) - offset
        with log.open("r+b") as f:
            f.seek(offset)
            f.write(other.encode("utf-8"))
        return "the log no longer holds the record of 100"

    @staticmethod
    def truncate(log, offset) -> str:
        with log.open("r+b") as f:
            f.truncate(offset + 10)
        return "the log ends inside the line of record 100"

    @pytest.mark.parametrize("change", ["rewrite", "truncate"])
    @pytest.mark.parametrize("read", ["record", "save", "late_alignment"])
    def test_every_read_of_the_record_fails(self, tmp_path, change, read):
        store = tmp_path / "store"
        first = ContributionGraph()
        for raw in (make_record("200", n=1), self.citing("100")):
            first.add_paper_record(raw)
        first.save(store)
        log = store / "records.jsonl"
        offset = log.read_bytes().index(b'{"corpus_id": "100"')
        graph = ContributionGraph.load(store)
        message = getattr(self, change)(log, offset)
        backend = RoutedBackend(batch_route({}))
        reads = {
            "record": lambda: graph.record("100"),
            "save": lambda: graph.save(store),
            "late_alignment": lambda: Pipeline(backend, graph).run_batch(batch_inputs("301")),
        }
        with pytest.raises(ContribGraphError, match=rf"records\.jsonl at byte {offset}: {message}"):
            reads[read]()
        assert not any(is_alignment(prompt) for prompt in backend.prompts)
