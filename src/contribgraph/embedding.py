"""Per-contribution vector index with exact cosine top-k retrieval.

The index is built once, by `build_index` or `EmbeddingIndex.load`, as
one float32 matrix with row norms and id ranks; no float64 copy is kept.
Norms, and the float64 rescoring below, convert a block of rows at a
time, squared or scaled in place: a block is capped in bytes,
`BLOCK_BYTES` of float64 (512 rows at dim 64, 21 at dim 1536), not in
rows, so the temporary stays that small at any dimension. Each row is
still reduced on its own, so no norm or score depends on the block.

Retrieval is exact flat search
(Johnson, Douze & Jegou, "Billion-scale similarity search with GPUs",
IEEE TBD 2019): one float32 product scores every row, and the rows whose
float32 score lies within the proven error bound of the k-th best
(Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 3.1)
are scored again in float64, each by a reduction over its own row. So
the selection and scores are those of float64 scoring, and a row's score
depends only on the row and the query. An optional mask keeps only the
rows a caller allows; ties break by ascending id. Vectors are stored as
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
from sys import intern
from typing import Iterator, Optional, Sequence

import numpy as np

from . import jsonl
from .backends import JsonTransport
from .errors import BackendError
from .graph import ContributionGraph
from .model import ContributionNode

MAGIC = b"SCGE"
FORMAT_VERSION = 1
EMBED_CHUNK = 64  # texts per provider.embed call
BLOCK_BYTES = 256 * 1024  # float64 bytes converted at a time


def embedding_text(contribution: ContributionNode) -> str:
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
            seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
            vec = np.random.default_rng(seed).standard_normal(self.dim)
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
    """Immutable map from distinct contribution ids to vectors: row i of one float32
    matrix is the vector of ids[i]; its float64 norm and id rank are computed once."""

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
        self._block_rows = max(1, BLOCK_BYTES // (8 * self.dim))
        self._norms = np.empty(len(self.ids))
        for start, stop in self._blocks(len(self.ids)):
            block = matrix[start:stop].astype(np.float64)
            block *= block
            np.sqrt(block.sum(axis=1), out=self._norms[start:stop])
        by_id = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self._id_rank = np.empty(len(self.ids), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def _blocks(self, n: int) -> Iterator[tuple[int, int]]:
        """(start, stop) of each block of ``n`` rows."""
        for start in range(0, n, self._block_rows):
            yield start, min(start + self._block_rows, n)

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
        if mask is not None and np.shape(mask) != (len(self.ids),):
            raise ValueError(f"mask shape {np.shape(mask)} does not match {len(self.ids)} rows")
        rows = np.arange(len(self.ids)) if mask is None else np.flatnonzero(np.asarray(mask, bool))
        qnorm = float(np.linalg.norm(query))
        if qnorm > 0.0 and k < len(rows):
            # A float32 score errs from the float64 one by at most (d + 1) * 2**-24 (query
            # rounding, then Higham's gamma_d) plus d * 2**-150 / norm for underflow;
            # doubling covers the float64 side and higher-order terms for d < 2**20. Clipping
            # keeps the bound; a non-finite score bounds nothing. The k-th best score is at
            # least the k-th best low end, so keep every row whose high end reaches it.
            norms = self._norms[rows]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                approx = (self.matrix @ (query / qnorm).astype(np.float32))[rows] / norms
                slack = (self.dim + 4) * 2.0**-23 + self.dim * 2.0**-149 / norms
            known = np.isfinite(approx)
            low = np.where(known, np.clip(approx - slack, -1.0, 1.0), -1.0)
            high = np.where(known, np.clip(approx + slack, -1.0, 1.0), 1.0)
            cut = len(rows) - k
            rows = rows[high >= np.partition(low, cut)[cut]]
        dots = np.zeros(len(rows))
        for start, stop in self._blocks(len(rows) if qnorm > 0.0 else 0):
            block = self.matrix[rows[start:stop]].astype(np.float64)
            block *= query
            dots[start:stop] = block.sum(axis=1)
        norms = self._norms[rows] * qnorm
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.clip(np.where(norms > 0.0, dots / norms, 0.0), -1.0, 1.0)
        top = np.lexsort((self._id_rank[rows], -scores))[:k]
        return [(self.ids[rows[i]], float(scores[i])) for i in top]

    def save(self, path: str | Path) -> None:
        jsonl.write_chunks(path, self._chunks())

    def _chunks(self) -> Iterator[bytes]:
        yield MAGIC + struct.pack("<IIQ", FORMAT_VERSION, self.dim, len(self.ids))
        for cid, row in zip(self.ids, self.matrix.astype("<f4", copy=False)):
            raw = cid.encode("utf-8")
            yield struct.pack("<H", len(raw)) + raw + row.tobytes()

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingIndex":
        with Path(path).open("rb") as f:
            header = f.read(20)
            if header[:4] != MAGIC or len(header) < 20:
                raise ValueError(f"not an embedding index file ({len(header)}-byte header,"
                                 f" magic {header[:4]!r})")
            version, dim, count = struct.unpack("<IIQ", header[4:])
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported index version {version}")
            # A row takes at least 2 + 4 * dim bytes: a corrupt count cannot over-allocate.
            if count * (2 + 4 * dim) > os.fstat(f.fileno()).st_size - 20:
                raise ValueError(f"index file is too short for its {count} rows")
            ids, matrix = [], np.empty((count, dim), dtype=np.float32)
            for i in range(count):
                head = f.read(2)
                size = int.from_bytes(head, "little") + 4 * dim
                row = f.read(size)
                if len(head) < 2 or len(row) < size:
                    raise ValueError(f"index file ends early, in row {i} of {count}")
                # Interned: the index shares the id strings a loaded graph keys its nodes by.
                ids.append(intern(row[: size - 4 * dim].decode("utf-8")))
                matrix[i] = np.frombuffer(row, dtype="<f4", offset=size - 4 * dim)
        return cls(ids, matrix)


def build_index(graph: ContributionGraph, provider: EmbeddingProvider) -> EmbeddingIndex:
    """Embed every contribution (sorted by id for reproducibility) in chunks of
    EMBED_CHUNK texts, written into one preallocated matrix. Raises BackendError
    when a chunk's width differs from chunk 0's or its rows from its texts."""
    ids = sorted(graph.nodes)
    matrix = np.empty((0, provider.dim or 1), np.float32)
    for number, start in enumerate(range(0, len(ids), EMBED_CHUNK)):
        texts = [embedding_text(graph.nodes[cid]) for cid in ids[start : start + EMBED_CHUNK]]
        chunk = provider.embed(texts)
        if number == 0:
            matrix = np.empty((len(ids), chunk.shape[1]), np.float32)
        if chunk.shape != (len(texts), matrix.shape[1]):
            raise BackendError(f"embedding chunk {number} has dimension {chunk.shape[1]}, chunk 0"
                               f" has {matrix.shape[1]}; {len(chunk)} rows for {len(texts)} texts")
        matrix[start : start + len(texts)] = chunk
    return EmbeddingIndex(ids, matrix)
