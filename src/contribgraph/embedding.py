"""Per-contribution vector index with exact cosine top-k retrieval.

The index is built once, by `build_index` or `EmbeddingIndex.load`,
as one contiguous float32 matrix whose row norms and id ranks are
computed at construction; it never changes afterwards. Retrieval is
exact (no approximate structure), which keeps the oracles simple:
every row is scored in float64, an optional mask keeps only the rows
a caller allows, and a partial selection (`np.argpartition`) picks the
top k among them, ties broken by ascending id. Vectors are stored as
32-bit little-endian floats.

`HttpEmbeddingProvider` calls an OpenAI-compatible embeddings endpoint,
given with its key and model as arguments, through
`backends.JsonTransport`, the standard-library HTTP client the
generation backend uses too.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from abc import ABC, abstractmethod
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .backends import JsonTransport
from .errors import BackendError
from .graph import ContributionGraph
from .model import Contribution

MAGIC = b"SCGE"
FORMAT_VERSION = 1
EMBED_CHUNK = 64  # texts per provider.embed call


def embedding_text(contribution: Contribution) -> str:
    """Name and description concatenated with a fixed ": " separator."""
    return f"{contribution.name}: {contribution.description}"


class EmbeddingProvider(ABC):
    dim: int = 0

    @abstractmethod
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """(len(texts), dim) float32 array."""


class MockEmbeddingProvider(EmbeddingProvider):
    """Deterministic stand-in: hashes each text to a pseudo-random unit vector."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            seed = int.from_bytes(
                hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
            )
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim)
            norm = float(np.linalg.norm(vec))
            if norm > 0:
                vec = vec / norm
            out[i] = vec.astype(np.float32)
        return out


class HttpEmbeddingProvider(EmbeddingProvider):
    """OpenAI-compatible embeddings endpoint at ``endpoint``."""

    def __init__(
        self, endpoint: str, api_key: Optional[str] = None, model: str = "", timeout: float = 120.0
    ):
        self.model = model
        self.dim = 0  # discovered from the first response
        self._transport = JsonTransport(endpoint, "embedding", api_key, timeout)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        body = self._transport.post({"model": self.model, "input": list(texts)})
        try:
            vectors = np.asarray([row["embedding"] for row in json.loads(body)["data"]], np.float32)
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendError(f"malformed embedding response: {exc!r}") from exc
        if vectors.ndim != 2 or len(vectors) != len(texts):
            raise BackendError(f"embedding response shaped {vectors.shape} for {len(texts)} texts")
        self.dim = int(vectors.shape[1])
        return vectors


class EmbeddingIndex:
    """Immutable map from distinct contribution ids to vectors: row i of one
    float32 matrix is the vector of ids[i]; the norms are computed once, in
    float64, and so is each row's rank in ascending id order."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or matrix.shape[1] <= 0:
            raise ValueError(f"matrix shape {matrix.shape}, want ({len(ids)}, dim > 0)")
        self.ids = list(ids)
        self._positions = {cid: i for i, cid in enumerate(self.ids)}
        if len(self._positions) != len(self.ids):
            duplicates = sorted(cid for cid, n in Counter(self.ids).items() if n > 1)
            raise ValueError(f"duplicate ids in embedding index: {duplicates[:5]}")
        self.matrix = matrix
        self.dim = int(matrix.shape[1])
        self._matrix64 = matrix.astype(np.float64)  # scored against; converted once, not per query
        self._norms = np.linalg.norm(self._matrix64, axis=1)
        by_id = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self._id_rank = np.empty(len(self.ids), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, cid: str) -> bool:
        return cid in self._positions

    def position(self, cid: str) -> Optional[int]:
        """The row of ``cid``, or None when the index does not hold it."""
        return self._positions.get(cid)

    def vector(self, cid: str) -> np.ndarray:
        return self.matrix[self._positions[cid]]

    def cosine_top_k(
        self, query: np.ndarray, k: int, mask: Optional[np.ndarray] = None
    ) -> list[tuple[str, float]]:
        """Exact top-k by cosine over the rows ``mask`` allows (every row
        when it is None); ties break by ascending id, and zero-norm
        queries or entries score 0. Fewer than k results when fewer rows
        are allowed."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape != (self.dim,):
            raise ValueError(f"query dim {query.shape} does not match index dim {self.dim}")
        if mask is None:
            rows = np.arange(len(self.ids))
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (len(self.ids),):
                raise ValueError(f"mask shape {mask.shape} does not match {len(self.ids)} rows")
            rows = np.flatnonzero(mask)
        qnorm = float(np.linalg.norm(query))
        if qnorm == 0.0:
            scores = np.zeros(len(rows))
        else:
            # The product runs over every row, so each score is the same
            # whatever the mask; the elementwise steps run on the allowed rows.
            dots = (self._matrix64 @ query)[rows]
            norms = self._norms[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                scores = np.where(norms > 0.0, dots / (norms * qnorm), 0.0)
            scores = np.clip(scores, -1.0, 1.0)
        if k < len(rows):
            # Keep every row that scores at least the k-th best, so that rows
            # tied with it at the cut are ranked by id below, not dropped.
            cut = len(rows) - k
            keep = scores >= scores[np.argpartition(scores, cut)[cut]]
            rows, scores = rows[keep], scores[keep]
        top = np.lexsort((self._id_rank[rows], -scores))[:k]
        return [(self.ids[rows[i]], float(scores[i])) for i in top]

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.matrix.astype("<f4", copy=False)
        with path.open("wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IIQ", FORMAT_VERSION, self.dim, len(self.ids)))
            for cid, row in zip(self.ids, rows):
                raw = cid.encode("utf-8")
                f.write(struct.pack("<H", len(raw)))
                f.write(raw)
                f.write(row.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingIndex":
        with Path(path).open("rb") as f:
            magic = f.read(4)
            if magic != MAGIC:
                raise ValueError(f"not an embedding index file (magic {magic!r})")
            version, dim, count = struct.unpack("<IIQ", f.read(16))
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported index version {version}")
            # A row takes at least 2 + 4 * dim bytes: a corrupt count cannot over-allocate.
            if count * (2 + 4 * dim) > os.fstat(f.fileno()).st_size - 20:
                raise ValueError(f"index file is too short for its {count} rows")
            ids = []
            matrix = np.empty((count, dim), dtype=np.float32)
            for i in range(count):
                (id_len,) = struct.unpack("<H", f.read(2))
                ids.append(f.read(id_len).decode("utf-8"))
                matrix[i] = np.frombuffer(f.read(4 * dim), dtype="<f4")
        return cls(ids, matrix)


def build_index(graph: ContributionGraph, provider: EmbeddingProvider) -> EmbeddingIndex:
    """Embed every contribution (sorted by id for reproducibility) in
    fixed chunks of EMBED_CHUNK texts, stacked once into the matrix.
    Raises BackendError when a chunk's width differs from the first's."""
    ids = sorted(graph.nodes)
    texts = [embedding_text(graph.nodes[cid]) for cid in ids]
    chunks = [
        provider.embed(texts[start : start + EMBED_CHUNK])
        for start in range(0, len(texts), EMBED_CHUNK)
    ]
    for number, chunk in enumerate(chunks):
        if chunk.shape[1] != chunks[0].shape[1]:
            raise BackendError(
                f"embedding chunk {number} has dimension {chunk.shape[1]},"
                f" chunk 0 has {chunks[0].shape[1]}"
            )
    matrix = np.vstack(chunks) if chunks else np.empty((0, provider.dim or 1), np.float32)
    return EmbeddingIndex(ids, matrix)
