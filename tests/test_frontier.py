from __future__ import annotations

import random

import pytest

from contribgraph import frontier
from contribgraph.frontier import (
    Catalog,
    CatalogEntry,
    build_histogram,
    catalog_availability,
    resolve_reference,
    select_batch,
)
from contribgraph.graph import ContributionGraph
from contribgraph.model import PaperRef

from oracles import random_histogram, select_batch_brute


def catalog_of(*entries) -> Catalog:
    return Catalog(list(entries))


def entry(corpus_id, title, year, author="smith", open_access=True, text_path=""):
    return CatalogEntry(
        corpus_id=corpus_id,
        title=title,
        year=year,
        first_author_last=author,
        open_access=open_access,
        text_path=text_path,
    )


class TestResolveReference:
    def test_corpus_id_passthrough(self):
        ref = PaperRef(title="whatever", year=2016, corpus_id="3603249")
        assert resolve_reference(ref, catalog_of()) == "3603249"

    def test_unknown_title_unresolved(self):
        ref = PaperRef(title="Improving language understanding", year=2018, corpus_id=None)
        assert resolve_reference(ref, catalog_of()) is None

    def test_normalized_title_and_year_drift(self):
        catalog = catalog_of(entry("77", "Attention Is All You Need", 2017))
        ref = PaperRef(title="attention is all you need!!", year=2018, corpus_id=None)
        assert resolve_reference(ref, catalog) == "77"

    def test_year_too_far_off_unresolved(self):
        catalog = catalog_of(entry("77", "Attention is all you need", 2017))
        ref = PaperRef(title="Attention is all you need", year=2020, corpus_id=None)
        assert resolve_reference(ref, catalog) is None

    def test_title_tie_broken_by_first_author(self):
        catalog = catalog_of(
            entry("1", "On Things", 2020, author="ahlberg"),
            entry("2", "On Things", 2020, author="brandt"),
        )
        ref = PaperRef(
            title="On things", year=2020, corpus_id=None,
            first_author={"last_name": "Brandt", "first_name": "A", "middle_names": ""},
        )
        assert resolve_reference(ref, catalog) == "2"

    def test_unbreakable_tie_logs_ambiguity(self, caplog):
        catalog = catalog_of(
            entry("1", "On Things", 2020, author="same"),
            entry("2", "On Things", 2020, author="same"),
        )
        ref = PaperRef(
            title="On Things", year=2020, corpus_id=None,
            first_author={"last_name": "same", "first_name": "", "middle_names": ""},
        )
        with caplog.at_level("WARNING"):
            assert resolve_reference(ref, catalog) is None
        assert any("ambiguous" in r.message for r in caplog.records)


def graph_citing(citations: dict[str, int]) -> ContributionGraph:
    """One extracted paper whose prerequisites cite each key N times."""
    prerequisites = []
    for key, count in citations.items():
        for i in range(count):
            prerequisites.append(
                {
                    "name": f"needs {key} #{i}",
                    "description": "d",
                    "explanation": "e",
                    "core_or_peripheral": "core",
                    "references": [
                        {
                            "type": "paper",
                            "paper_title": f"Paper {key}",
                            "paper_year": 2019,
                            "paper_venue": "V",
                            "corpus_id": key,
                            "matches": [],
                        }
                    ],
                }
            )
    graph = ContributionGraph()
    graph.add_paper_record(
        {
            "corpus_id": "1",
            "title": "citing paper",
            "year": 2020,
            "contributions": [
                {
                    "contribution_id": "1.c0",
                    "name": "thing",
                    "description": "d",
                    "types": [{"type": "analysis", "explanation": "e"}],
                    "sections": ["S1"],
                    "prerequisites": prerequisites,
                }
            ],
        }
    )
    return graph


class TestBuildHistogram:
    def test_empty_graph(self):
        assert build_histogram(ContributionGraph()) == {}

    def test_counts_per_cited_paper(self):
        graph = graph_citing({"P": 3, "Q": 1})
        assert dict(build_histogram(graph)) == {"P": 3, "Q": 1}

    def test_extracted_paper_leaves_histogram(self):
        graph = graph_citing({"P": 3, "Q": 1})
        graph.add_paper_record(
            {"corpus_id": "P", "title": "Paper P", "year": 2019, "contributions": []}
        )
        assert dict(build_histogram(graph)) == {"Q": 1}

    def test_title_resolution_via_catalog(self):
        graph = ContributionGraph()
        graph.add_paper_record(
            {
                "corpus_id": "1",
                "title": "citing",
                "year": 2020,
                "contributions": [
                    {
                        "contribution_id": "1.c0",
                        "name": "x",
                        "description": "d",
                        "types": [],
                        "sections": [],
                        "prerequisites": [
                            {
                                "name": "p",
                                "description": "d",
                                "explanation": "e",
                                "core_or_peripheral": "core",
                                "references": [
                                    {
                                        "type": "paper",
                                        "paper_title": "A Titled Paper",
                                        "paper_year": 2019,
                                        "paper_venue": "V",
                                        "corpus_id": None,
                                        "matches": [],
                                    }
                                ],
                            }
                        ],
                    }
                ],
            }
        )
        catalog = catalog_of(entry("55", "A titled paper", 2019))
        assert dict(build_histogram(graph, catalog)) == {"55": 1}
        assert list(build_histogram(graph))[0].startswith("title:")

    def test_empty_corpus_id_counts_as_title_only(self):
        """A reference whose corpus_id is "" cites no paper by id: the graph
        indexes it, and the frontier counts and resolves it, with the
        title-only references."""
        title_only = {"type": "paper", "paper_title": "Paper Two", "paper_year": 2019}
        twins = [title_only, {**title_only, "corpus_id": ""}]
        graph = ContributionGraph()
        graph.add_paper_record({
            "corpus_id": "1", "title": "citing", "year": 2020,
            "contributions": [{
                "contribution_id": "1.c0", "name": "x", "description": "d",
                "prerequisites": [{"name": "p", "description": "d", "explanation": "e",
                                   "core_or_peripheral": "core", "references": twins}],
            }],
        })
        catalog = catalog_of(entry("2", "Paper Two", 2019))
        assert dict(build_histogram(graph, catalog)) == {"2": 2}
        assert dict(build_histogram(graph)) == {"title:paper two|2019": 2}
        assert list(graph.unresolved_by_cited()) == [None]


class TestSelectBatch:
    def test_top_k_by_count(self):
        batch = select_batch({"P": 3, "Q": 1, "R": 2}, lambda k: True, 2)
        assert batch == ["P", "R"]

    def test_availability_filter(self):
        available = {"R", "Q"}
        batch = select_batch({"P": 3, "R": 2, "Q": 1}, lambda k: k in available, 2)
        assert batch == ["R", "Q"]

    def test_tie_broken_by_ascending_key(self):
        batch = select_batch({"b": 2, "a": 2, "c": 2}, lambda k: True, 3)
        assert batch == ["a", "b", "c"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            select_batch({"a": 1}, lambda k: True, 0)

    def test_hundred_random_histograms_match_oracle(self):
        rng = random.Random(424242)
        for trial in range(100):
            histogram = random_histogram(rng, rng.randint(0, 60))
            denied = {k for k in histogram if rng.random() < 0.3}
            available = lambda key: key not in denied  # noqa: E731
            k = rng.randint(1, 20)
            got = select_batch(histogram, available, k)
            assert got == select_batch_brute(histogram, available, k)
            assert len(got) <= k
            assert len(set(got)) == len(got)
            assert all(available(key) for key in got)


def test_catalog_availability_checks_text_and_access(tmp_path):
    text = tmp_path / "p.txt"
    text.write_text("hello", encoding="utf-8")
    catalog = catalog_of(
        entry("open", "A", 2020, text_path=str(text)),
        entry("closed", "B", 2020, open_access=False, text_path=str(text)),
        entry("missing", "C", 2020, text_path=str(tmp_path / "nope.txt")),
    )
    available = catalog_availability(catalog)
    assert available("open")
    assert not available("closed")
    assert not available("missing")
    assert not available("unknown-key")


def test_monotone_progress_after_extraction():
    graph = graph_citing({"P": 3, "Q": 2, "R": 1})
    before = build_histogram(graph)
    batch = select_batch(before, lambda k: True, 2)
    assert batch == ["P", "Q"]
    for key in batch:
        graph.add_paper_record(
            {"corpus_id": key, "title": f"Paper {key}", "year": 2019, "contributions": []}
        )
    after = build_histogram(graph)
    assert all(key not in after for key in batch)
    assert sum(after.values()) == sum(before.values()) - 5


class TestCatalogRow:
    """A catalog field of the wrong type is a row error, not a silent
    reading or a traceback later; null reads as absent."""

    @pytest.mark.parametrize("field, value, problem", [
        ("open_access", "false", "open_access must be true or false, got 'false'"),
        ("open_access", 0, "open_access must be true or false, got 0"),
        ("open_access", 1, "open_access must be true or false, got 1"),
        ("text_path", 5, "text_path must be a string, got 5"),
        ("text_path", ["p.txt"], "text_path must be a string, got ['p.txt']"),
        ("first_author_last", 5, "first_author_last must be a string, got 5"),
        ("first_author_last", {"last": "x"}, "first_author_last must be a string, got {'last': 'x'}"),
    ])
    def test_a_field_of_the_wrong_type_is_rejected(self, field, value, problem):
        with pytest.raises(ValueError) as raised:
            CatalogEntry.from_row({"corpus_id": "1", "title": "T", field: value})
        assert str(raised.value) == problem

    def test_null_reads_as_absent(self):
        row = {"corpus_id": "1", "open_access": None, "text_path": None, "first_author_last": None}
        assert CatalogEntry.from_row(row) == CatalogEntry.from_row({"corpus_id": "1"})
        assert CatalogEntry.from_row(row) == CatalogEntry(corpus_id="1")

    def test_well_typed_fields_are_kept(self):
        row = {"corpus_id": "1", "title": "T", "year": 2020, "first_author_last": "Smith",
               "open_access": True, "text_path": "p.txt"}
        assert CatalogEntry.from_row(row) == CatalogEntry(
            corpus_id="1", title="T", year=2020, first_author_last="Smith",
            open_access=True, text_path="p.txt",
        )


class TestTitleIndex:
    """The catalog normalizes its titles on the first title lookup, not
    when it is built, and indexes every row in file order."""

    @pytest.fixture()
    def normalized(self, monkeypatch):
        calls = []
        real = frontier.normalize_title

        def normalize_title(title):
            calls.append(title)
            return real(title)

        monkeypatch.setattr(frontier, "normalize_title", normalize_title)
        return calls

    def test_built_once_on_first_use(self, normalized):
        catalog = catalog_of(entry("1", "On Things", 2020), entry("2", "Other Things", 2020))
        assert catalog.by_id["2"].title == "Other Things"
        assert normalized == []
        ref = PaperRef(title="On Things", year=2020, corpus_id=None)
        assert resolve_reference(ref, catalog) == "1"
        assert resolve_reference(ref, catalog) == "1"
        assert normalized == ["On Things", "Other Things", "On Things", "On Things"]

    def test_duplicate_ids_are_all_indexed_in_file_order(self):
        first, second = entry("1", "On Things", 2020), entry("1", "Other Things", 2020)
        catalog = catalog_of(first, second)
        assert catalog.by_id == {"1": second}
        ref = PaperRef(title="On Things", year=2020, corpus_id=None)
        assert resolve_reference(ref, catalog) == "1"
        assert catalog.by_title == {"on things": [first], "other things": [second]}
        twin = catalog_of(first, entry("1", "On Things", 2021))
        assert [e.year for e in twin.by_title["on things"]] == [2020, 2021]
