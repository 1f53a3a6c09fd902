from __future__ import annotations

import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contribgraph.embedding import (
    BLOCK_BYTES,
    EmbeddingIndex,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    build_index,
    embedding_text,
)
from contribgraph.errors import BackendError
from contribgraph.graph import ContributionGraph
from contribgraph.model import Contribution

from conftest import build_synthetic_graph, reply
from oracles import top_k_brute


def make_index(n=20, dim=8, seed=0) -> EmbeddingIndex:
    rng = np.random.default_rng(seed)
    ids = [f"p.c{i}" for i in range(n)]
    return EmbeddingIndex(ids, rng.standard_normal((n, dim)).astype(np.float32))


def rescaled(index: EmbeddingIndex, scales) -> EmbeddingIndex:
    """A new index whose row i is row i of `index` times scales[i]."""
    scales = np.asarray(scales, dtype=np.float32).reshape(-1, 1)
    return EmbeddingIndex(index.ids, index.matrix * scales)


class TestEmbeddingText:
    def test_separator(self):
        c = Contribution(id="1.c0", name="A", description="B")
        assert embedding_text(c) == "A: B"

    def test_empty_description(self):
        c = Contribution(id="1.c0", name="A", description="")
        assert embedding_text(c) == "A: "

    def test_bert_node_prefix(self, golden_graph):
        text = embedding_text(golden_graph.get_contribution("52967399.c0"))
        assert text.startswith(
            "Bidirectional Transformer encoder architecture (BERT): BERT introduces"
        )


class TestCosineTopK:
    def test_stored_vector_is_its_own_best_match(self):
        index = make_index()
        query = index.vector("p.c7")
        results = index.cosine_top_k(query, 3)
        assert results[0][0] == "p.c7"
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_vectors_score_zero(self):
        index = EmbeddingIndex(["a"], np.array([[1.0, 0.0]], dtype=np.float32))
        results = index.cosine_top_k(np.array([0.0, 1.0]), 1)
        assert results == [("a", 0.0)]

    def test_thousand_random_vectors_match_brute_force(self):
        rng = np.random.default_rng(20240917)
        ids = [f"v.c{i}" for i in range(1000)]
        index = EmbeddingIndex(ids, rng.standard_normal((1000, 8)).astype(np.float32))
        for q in range(20):
            query = rng.standard_normal(8)
            got = index.cosine_top_k(query, 10)
            want = top_k_brute(index.ids, index.matrix, query, 10)
            assert [cid for cid, _ in got] == [cid for cid, _ in want]

    def test_zero_norm_query_scores_zero(self):
        index = make_index(n=5)
        results = index.cosine_top_k(np.zeros(8), 5)
        assert all(score == 0.0 for _, score in results)
        # Ties at 0 break by ascending id.
        assert [cid for cid, _ in results] == sorted(index.ids)[:5]

    def test_zero_norm_entry_scores_zero(self):
        index = EmbeddingIndex(["zero", "one"], np.array([[0, 0, 0], [1, 0, 0]], dtype=np.float32))
        results = dict(index.cosine_top_k(np.array([1.0, 0.0, 0.0]), 2))
        assert results["zero"] == 0.0
        assert results["one"] == pytest.approx(1.0)

    def test_dim_mismatch_rejected(self):
        index = make_index(dim=8)
        with pytest.raises(ValueError, match="dim"):
            index.cosine_top_k(np.zeros(5), 3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            make_index().cosine_top_k(np.zeros(8), 0)

    def test_shape_checked_at_construction(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingIndex(["a", "b"], np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            EmbeddingIndex(["a"], np.zeros((1, 0), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            EmbeddingIndex(["a"], np.zeros(4, dtype=np.float32))

    def test_empty_index_returns_nothing(self):
        index = EmbeddingIndex([], np.empty((0, 4), dtype=np.float32))
        assert len(index) == 0
        assert index.cosine_top_k(np.ones(4), 3) == []

    def test_scores_bounded(self):
        index = make_index(n=50, seed=5)
        for cid, score in index.cosine_top_k(index.vector("p.c1"), 50):
            assert -1.0 <= score <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.sampled_from([0.0625, 0.25, 0.5, 2.0, 8.0, 1024.0]),
        entry=st.integers(0, 19),
    )
    def test_positive_scaling_preserves_scores(self, scale, entry):
        # Power-of-two scales are exact under float32 storage, so the
        # 1e-9 bound is meaningful; arbitrary scalars are covered by the
        # ordering check below at float32 precision.
        index = make_index(seed=3)
        query = np.asarray(index.vector("p.c5"), dtype=np.float64).copy()
        before = dict(index.cosine_top_k(query, 20))
        scaled = rescaled(make_index(seed=3), [scale if i == entry else 1.0 for i in range(20)])
        after = dict(scaled.cosine_top_k(query, 20))
        for cid in before:
            assert after[cid] == pytest.approx(before[cid], abs=1e-9)

    def test_arbitrary_positive_scaling_preserves_ordering(self):
        index = make_index(seed=3)
        query = np.asarray(index.vector("p.c5"), dtype=np.float64).copy()
        before = index.cosine_top_k(query, 20)
        scaled = rescaled(make_index(seed=3), [0.7 + 0.1 * i for i in range(20)])
        after = scaled.cosine_top_k(query, 20)
        assert [cid for cid, _ in after] == [cid for cid, _ in before]
        for (_, a), (_, b) in zip(after, before):
            assert a == pytest.approx(b, abs=1e-6)


def masked_brute(index: EmbeddingIndex, query, k, mask):
    """top_k_brute over only the rows the mask allows."""
    kept = [i for i in range(len(index)) if mask[i]]
    return top_k_brute([index.ids[i] for i in kept], index.matrix[kept], query, k)


def tied_index(seed: int, n: int = 40, dim: int = 4) -> EmbeddingIndex:
    """Rows drawn from a handful of small-integer vectors, so that many rows
    tie exactly, under ids stored in shuffled (unsorted) order."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(-2, 3, size=(5, dim)).astype(np.float32)
    palette[0] = 0.0  # a zero-norm entry, scoring 0
    ids = [f"{rng.integers(100, 999)}.c{i}" for i in range(n)]
    rng.shuffle(ids)
    return EmbeddingIndex(ids, palette[rng.integers(0, 5, size=n)])


class TestMaskedTopK:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_with_ties_across_the_cut(self, seed):
        index = tied_index(seed)
        assert index.ids != sorted(index.ids)
        rng = np.random.default_rng(1000 + seed)
        query = rng.integers(-2, 3, size=4).astype(np.float64)
        for k in (1, 3, 7, 15, 39, 40, 60):
            mask = rng.random(len(index)) < 0.6
            got = index.cosine_top_k(query, k, mask)
            want = masked_brute(index, query, k, mask)
            assert [cid for cid, _ in got] == [cid for cid, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    def test_cut_falls_inside_a_tie(self):
        ids = ["e.c0", "b.c0", "d.c0", "a.c0", "c.c0", "f.c0"]
        matrix = np.array([[1, 1], [1, 1], [2, 0], [1, 1], [1, 1], [0, 1]], dtype=np.float32)
        index = EmbeddingIndex(ids, matrix)
        query = np.array([1.0, 0.0])
        got = index.cosine_top_k(query, 3, np.array([True, True, True, True, False, True]))
        # d scores 1; a, b and e tie at 1/sqrt(2) and the cut keeps the two lowest ids.
        assert [cid for cid, _ in got] == ["d.c0", "a.c0", "b.c0"]
        assert got == masked_brute(index, query, 3, [True, True, True, True, False, True])

    def test_zero_norm_query_ranks_allowed_rows_by_id(self):
        index = tied_index(3)
        mask = np.arange(len(index)) % 3 != 0
        got = index.cosine_top_k(np.zeros(4), 10, mask)
        assert got == masked_brute(index, np.zeros(4), 10, mask)
        assert [cid for cid, _ in got] == sorted(c for c, ok in zip(index.ids, mask) if ok)[:10]
        assert all(score == 0.0 for _, score in got)

    def test_mask_allowing_fewer_than_k_rows(self):
        index = tied_index(5)
        mask = np.zeros(len(index), dtype=bool)
        mask[[4, 9, 17]] = True
        query = np.array([1.0, -1.0, 2.0, 0.0])
        got = index.cosine_top_k(query, 10, mask)
        assert len(got) == 3
        assert got == masked_brute(index, query, 10, mask)

    def test_all_false_mask_returns_nothing(self):
        index = tied_index(6)
        assert index.cosine_top_k(np.ones(4), 5, np.zeros(len(index), dtype=bool)) == []

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask"):
            make_index(n=5).cosine_top_k(np.ones(8), 2, np.ones(4, dtype=bool))


def near_tie_index(seed: int, dim: int = 16):
    """An index whose best rows differ from one base vector by a few float32
    ulps in one component, so that their float64 cosines with the returned
    query differ by far less than the float32 error bound; a few repeat
    exactly, and random rows score below them. Ids are shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dim).astype(np.float32)
    cluster = np.repeat(base[None, :], 40, axis=0)
    for row in cluster:
        j = rng.integers(dim)
        row[j] = np.nextafter(row[j], np.float32(rng.choice([-np.inf, np.inf])))
        for _ in range(rng.integers(0, 4)):
            row[j] = np.nextafter(row[j], np.float32(np.inf))
    cluster[30:] = cluster[:10]  # exact ties
    matrix = np.vstack([cluster, rng.standard_normal((60, dim)).astype(np.float32)])
    ids = [f"{i}.c0" for i in rng.permutation(len(matrix))]
    query = base.astype(np.float64) + 0.3 * rng.standard_normal(dim)
    return EmbeddingIndex(ids, matrix), query


class TestFloat32Scoring:
    @pytest.mark.parametrize("seed", range(8))
    def test_near_ties_across_the_cut_match_brute_force(self, seed):
        index, query = near_tie_index(seed)
        want_all = top_k_brute(index.ids, index.matrix, query, len(index))
        rng = np.random.default_rng(2000 + seed)
        for k in (1, 5, 13, 21, 29, 34):
            got = index.cosine_top_k(query, k)
            assert [cid for cid, _ in got] == [cid for cid, _ in want_all[:k]]
            mask = rng.random(len(index)) < 0.7
            got = index.cosine_top_k(query, k, mask)
            want = masked_brute(index, query, k, mask)
            assert [cid for cid, _ in got] == [cid for cid, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    def test_float32_scores_alone_would_misorder_the_near_ties(self):
        # The construction above bites: ranking by the float32 product alone
        # gets some seed's top 21 wrong.
        wrong = 0
        for seed in range(8):
            index, query = near_tie_index(seed)
            approx = index.matrix @ (query / np.linalg.norm(query)).astype(np.float32)
            by_float32 = sorted(zip(index.ids, approx), key=lambda item: (-item[1], item[0]))[:21]
            want = top_k_brute(index.ids, index.matrix, query, 21)
            wrong += [cid for cid, _ in by_float32] != [cid for cid, _ in want]
        assert wrong > 0

    def test_a_rows_score_depends_only_on_the_row_and_the_query(self):
        rng = np.random.default_rng(77)
        ids = [f"r.c{i}" for i in range(300)]
        index = EmbeddingIndex(ids, rng.standard_normal((300, 37)).astype(np.float32))
        query = rng.standard_normal(37)
        full = dict(index.cosine_top_k(query, len(index)))
        for trial in range(10):
            mask = rng.random(len(index)) < 0.3
            for cid, score in index.cosine_top_k(query, 10, mask):
                assert score == full[cid]
            keep = rng.permutation(len(index))[: rng.integers(1, len(index))]
            subset = EmbeddingIndex([ids[i] for i in keep], index.matrix[keep])
            for cid, score in subset.cosine_top_k(query, 25):
                assert score == full[cid]

    @pytest.mark.parametrize("dim", [64, 1536])
    def test_block_size_never_changes_a_norm_or_a_score(self, dim):
        # Three whole float64 blocks of BLOCK_BYTES and a partial one, rows of
        # norms from 0.01 to 100, against a float64 reduction of each row alone.
        block = BLOCK_BYTES // (8 * dim)
        n = 3 * block + block // 3 + 1
        rng = np.random.default_rng(dim)
        matrix = (rng.standard_normal((n, dim)) * rng.uniform(0.01, 100, (n, 1))).astype(np.float32)
        ids = [f"b.c{i}" for i in range(n)]
        index = EmbeddingIndex(ids, matrix)
        rows = [row.astype(np.float64) for row in matrix]
        norms = [np.sqrt(np.add.reduce(row * row)) for row in rows]
        assert index._norms.tolist() == norms
        query = rng.standard_normal(dim)
        qnorm = float(np.linalg.norm(query))
        want = {cid: float(np.clip(np.add.reduce(row * query) / (norm * qnorm), -1.0, 1.0))
                for cid, row, norm in zip(ids, rows, norms)}
        assert dict(index.cosine_top_k(query, n)) == want
        for cid, score in index.cosine_top_k(query, block + 5):
            assert score == want[cid]

    def test_no_float64_copy_of_the_matrix(self):
        index = make_index(n=50, dim=12)
        for value in vars(index).values():
            if isinstance(value, np.ndarray) and value.dtype == np.float64:
                assert value.shape != (50, 12)
        assert index.matrix.dtype == np.float32


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        index = make_index(n=37, dim=12, seed=9)
        path = tmp_path / "embeddings.bin"
        index.save(path)
        loaded = EmbeddingIndex.load(path)
        assert loaded.dim == 12
        assert loaded.ids == index.ids
        assert np.array_equal(loaded.matrix, index.matrix)
        assert loaded.matrix.dtype == np.float32

    def test_header_magic(self, tmp_path):
        index = make_index(n=1)
        path = tmp_path / "embeddings.bin"
        index.save(path)
        assert path.read_bytes()[:4] == b"SCGE"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            EmbeddingIndex.load(bad)

    def test_save_load_save_identical_bytes(self, tmp_path):
        index = make_index(n=10, dim=4)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        index.save(a)
        EmbeddingIndex.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_ids_are_the_graphs_keys(self, golden_graph, tmp_path):
        """A loaded index holds no second copy of the ids: each is the
        string a loaded graph keys that contribution by."""
        golden_graph.save(tmp_path)
        build_index(golden_graph, MockEmbeddingProvider(dim=4)).save(tmp_path / "embeddings.bin")
        graph = ContributionGraph.load(tmp_path)
        index = EmbeddingIndex.load(tmp_path / "embeddings.bin")
        keys = {cid: cid for cid in graph.nodes}
        assert sorted(keys) == index.ids
        assert all(cid is keys[cid] for cid in index.ids)

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingIndex(["p.c1", "p.c2", "p.c1"], np.eye(3, dtype=np.float32))
        # A file whose second row repeats the first id fails to load.
        path = tmp_path / "embeddings.bin"
        EmbeddingIndex(["p.c1", "p.c2"], np.eye(2, dtype=np.float32)).save(path)
        raw = path.read_bytes()
        assert raw.count(b"p.c2") == 1
        path.write_bytes(raw.replace(b"p.c2", b"p.c1"))
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingIndex.load(path)

    @pytest.mark.parametrize("cut, row", [(1, 9), (3, 9), (200, 7)])
    def test_file_cut_inside_its_rows_names_the_row(self, tmp_path, cut, row):
        # Rows of 2 + 43 + 32 bytes: ids long enough that a cut of 200
        # bytes passes the row-count check, which assumes empty ids.
        path = tmp_path / "embeddings.bin"
        ids = [f"{'9' * 40}.c{i}" for i in range(10)]
        EmbeddingIndex(ids, np.ones((10, 8), np.float32)).save(path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"^index file ends early, in row {row} of 10$"):
            EmbeddingIndex.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "embeddings.bin"
        make_index(n=10, dim=4).save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            EmbeddingIndex.load(path)
        # A header that claims more rows than the file can hold.
        path.write_bytes(b"SCGE" + struct.pack("<IIQ", 1, 4, 2**40))
        with pytest.raises(ValueError, match="too short"):
            EmbeddingIndex.load(path)


class TestMockProvider:
    def test_deterministic_and_unit_norm(self):
        provider = MockEmbeddingProvider(dim=16)
        a = provider.embed(["same text", "other text"])
        b = provider.embed(["same text", "other text"])
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])
        assert np.linalg.norm(a[0]) == pytest.approx(1.0, abs=1e-5)

    def test_build_index_covers_graph_sorted(self, golden_graph):
        index = build_index(golden_graph, MockEmbeddingProvider(dim=8))
        assert index.ids == sorted(golden_graph.nodes)
        assert len(index) == len(golden_graph.nodes)
        assert index.dim == 8

    def test_build_index_embeds_in_chunks_of_64(self):
        graph = build_synthetic_graph(n_papers=50, seed=7)
        provider = MockEmbeddingProvider(dim=8)
        sizes = []
        embed = provider.embed
        provider.embed = lambda texts: sizes.append(len(texts)) or embed(texts)
        index = build_index(graph, provider)
        n = len(graph.nodes)
        assert n > 128 and sizes == [64] * (n // 64) + ([n % 64] if n % 64 else [])
        texts = [embedding_text(graph.nodes[cid]) for cid in index.ids]
        assert np.array_equal(index.matrix, embed(texts))

    def test_chunk_of_another_dimension_is_a_backend_error(self):
        graph = build_synthetic_graph(n_papers=50, seed=7)
        widths = itertools.chain([8, 8], itertools.repeat(9))
        provider = MockEmbeddingProvider(dim=8)
        provider.embed = lambda texts: MockEmbeddingProvider(dim=next(widths)).embed(texts)
        with pytest.raises(BackendError, match="embedding chunk 2 has dimension 9, chunk 0 has 8"):
            build_index(graph, provider)

    def test_chunk_with_missing_rows_is_a_backend_error(self):
        # The matrix is preallocated: a short chunk must not leave rows unwritten.
        graph = build_synthetic_graph(n_papers=50, seed=7)
        provider = MockEmbeddingProvider(dim=8)
        provider.embed = lambda texts: MockEmbeddingProvider(dim=8).embed(texts[:1])
        with pytest.raises(BackendError, match="embedding chunk 0 .*; 1 rows for 64 texts"):
            build_index(graph, provider)

    def test_build_index_of_empty_graph_round_trips(self, tmp_path):
        index = build_index(ContributionGraph(), MockEmbeddingProvider(dim=8))
        assert len(index) == 0 and index.dim == 8
        index.save(tmp_path / "e.bin")
        assert EmbeddingIndex.load(tmp_path / "e.bin").dim == 8


class TestHttpProvider:
    def embed(self, loopback, body: str) -> np.ndarray:
        server = loopback()
        server.default = reply(200, body.encode("utf-8"))
        provider = HttpEmbeddingProvider(endpoint=server.url + "/embeddings", model="e")
        vectors = provider.embed(["a", "b"])
        assert json.loads(server.requests[0][3]) == {"model": "e", "input": ["a", "b"]}
        return vectors

    def test_rows_become_the_vectors(self, loopback):
        body = json.dumps({"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]})
        assert self.embed(loopback, body).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "body",
        ["<html>busy</html>", '{"object": "list"}', '{"data": [{"embedding": [1.0, 0.0]}]}'],
        ids=["not_json", "no_data", "fewer_rows_than_texts"],
    )
    def test_malformed_response_is_a_backend_error(self, loopback, body):
        with pytest.raises(BackendError, match="embedding response"):
            self.embed(loopback, body)

    def test_failures_name_the_embedding_endpoint(self, loopback):
        server = loopback()
        server.default = reply(429, b"slow down")
        provider = HttpEmbeddingProvider(endpoint=server.url)
        with pytest.raises(BackendError, match="^embedding endpoint returned 429: slow down"):
            provider.embed(["a"])
        server.stop()
        with pytest.raises(BackendError, match="^embedding request failed: ConnectionRefused"):
            provider.embed(["a"])
