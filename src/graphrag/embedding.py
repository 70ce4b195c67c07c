"""Vector layer: embedding and rerank clients plus a read-only brute-force store.

The stub clients are fully deterministic and offline. The hashing embedder
buckets bag-of-token counts through a stable hash (sha1, not the salted
builtin) so vectors are identical across processes and platforms.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._http import post_json
from .errors import ClientError
from .textnorm import tokenize

log = logging.getLogger(__name__)

DEFAULT_DIM = 256
# texts per /embeddings request; a corpus goes out in batches of this size
EMBED_BATCH_SIZE = 64


@lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    """Stable 64-bit hash of a token: the first 8 bytes of its sha1."""
    return int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:8], "big")


def _finite_numbers(values: object) -> bool:
    """True for a JSON list of numbers, none of them a boolean or non-finite."""
    return isinstance(values, list) and all(
        type(v) is int or (type(v) is float and math.isfinite(v)) for v in values
    )


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity. A zero-norm side yields 0.0 (logged), not NaN."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        log.debug("cosine against a zero vector; returning 0.0")
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``rows[i] · other`` for a vector ``other``, or ``rows[i] · other[i]``
    for a matrix, as a stack of vector·vector matmuls: each goes through
    numpy's dot kernel, so it is bit-identical to ``np.dot(rows[i], ...)``."""
    return np.matmul(rows[:, None, :], other[..., :, None]).reshape(len(rows))


def top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the ``k`` best ``scores``, ordered by (score desc, row asc).
    Only the rows scoring at least the k-th best score are sorted."""
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k < len(scores):
        kth = len(scores) - k
        rows = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
    else:
        rows = np.arange(len(scores))
    return rows[np.argsort(-scores[rows], kind="stable")[:k]]


class EmbeddingClient(ABC):
    """Maps texts to fixed-dimension vectors."""

    dim: int

    @abstractmethod
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per input text, order preserved."""


class RerankClient(ABC):
    """Scores query/passage relevance; higher is more relevant."""

    @abstractmethod
    def score(self, query: str, passages: Sequence[str]) -> list[float]:
        """One score per passage, order preserved."""


class HashingEmbedder(EmbeddingClient):
    """Feature-hashing bag-of-tokens embedder, L2-normalized.

    Texts with no tokens map to the zero vector, which downstream cosine
    treats as similarity 0.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Each text's token counts per bucket, from one ``np.bincount``.
        Integer counts are exact in float64, so a vector equals the one a
        per-token ``+= 1.0`` builds, bit for bit."""
        out = []
        # token -> bucket for this call only; a long-lived map would grow
        # with every query a warm process serves
        buckets: dict[str, int] = {}
        for text in texts:
            tokens = tokenize(text)
            for token in set(tokens).difference(buckets):
                buckets[token] = _token_hash(token) % self.dim
            ids = np.fromiter(map(buckets.__getitem__, tokens), dtype=np.intp, count=len(tokens))
            vec = np.bincount(ids, minlength=self.dim).astype(np.float64)
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec /= norm
            out.append(vec)
        return out


class TokenOverlapReranker(RerankClient):
    """Token-set overlap F1 between query and passage."""

    def score(self, query: str, passages: Sequence[str]) -> list[float]:
        q = set(tokenize(query))
        scores = []
        for passage in passages:
            p = set(tokenize(passage))
            if not q or not p:
                scores.append(0.0)
                continue
            shared = len(q & p)
            if shared == 0:
                scores.append(0.0)
                continue
            precision = shared / len(p)
            recall = shared / len(q)
            scores.append(2.0 * precision * recall / (precision + recall))
        return scores


class VectorStore:
    """Read-only exact cosine store over the rows of one float64 matrix.

    The store knows rows only: a chunk store's row i is chunk
    ``KnowledgeGraph.chunk_ids()[i]`` and a report store's row i is
    community i, so row order is id order. ``similarities`` scores every
    row with one stacked ``np.matmul`` of 1×dim by dim×1 products. numpy
    sends each of those vector·vector products through the dot kernel that
    ``np.dot(query, row)`` uses, so every score is bit-identical to
    ``cosine`` and equal rows tie exactly wherever they sit. A plain
    mat-vec (``M @ q``), ``einsum`` or ``(M * q).sum(1)`` reduces in another
    order and changes low bits, which would break the row tie-break of
    ``top_rows``.
    """

    def __init__(self, matrix: np.ndarray):
        """Adopt ``matrix``; a C-ordered float64 matrix is not copied."""
        rows = np.ascontiguousarray(matrix, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"expected a matrix, got an array of shape {rows.shape}")
        self.dim = rows.shape[1]
        self._matrix = rows
        self._norms = np.sqrt(_row_dots(rows, rows))

    def __len__(self) -> int:
        return len(self._matrix)

    def similarities(self, query: Sequence[float]) -> np.ndarray:
        """Cosine of ``query`` against every row, in row order; a zero norm
        on either side scores 0.0. Equal to ``cosine(query, row)``."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {q.shape} vs ({self.dim},)")
        q_norm = float(np.linalg.norm(q))
        if q_norm == 0.0:
            return np.zeros(len(self))
        dots = _row_dots(self._matrix, q)
        zero = self._norms == 0.0
        sims = dots / np.where(zero, 1.0, q_norm * self._norms)
        sims[zero] = 0.0
        return sims


class HttpEmbeddingClient(EmbeddingClient):
    """OpenAI-compatible /embeddings endpoint."""

    def __init__(
        self,
        endpoint: str | None = None,
        model: str = "",
        api_key: str | None = None,
        dim: int = DEFAULT_DIM,
        timeout: float = 30.0,
    ):
        self.endpoint = (endpoint or os.environ.get("GRAPHRAG_EMBED_ENDPOINT") or "").rstrip("/")
        if not self.endpoint:
            raise ClientError("no embedding endpoint configured (GRAPHRAG_EMBED_ENDPOINT)")
        self.model = model
        self.api_key = api_key or os.environ.get("GRAPHRAG_EMBED_KEY")
        self.dim = dim
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed in batches of ``EMBED_BATCH_SIZE`` texts, one request each;
        the vectors come back in input order."""
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), EMBED_BATCH_SIZE):
            vectors.extend(self._embed_batch(list(texts[start:start + EMBED_BATCH_SIZE])))
        return vectors

    def _embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        body = post_json(
            f"{self.endpoint}/embeddings",
            {"model": self.model, "input": texts},
            api_key=self.api_key,
            timeout=self.timeout,
        )
        try:
            rows = sorted(body["data"], key=lambda r: r["index"])
            indices = [r["index"] for r in rows]
            embeddings = [r["embedding"] for r in rows]
        except (KeyError, TypeError) as exc:
            raise ClientError(f"malformed embeddings response: {exc}") from exc
        if len(embeddings) != len(texts):
            raise ClientError(f"asked for {len(texts)} embeddings, got {len(embeddings)}")
        if indices != list(range(len(texts))):
            raise ClientError(f"embeddings response has indices {indices}, expected 0 to {len(texts) - 1}")
        vectors = []
        for embedding in embeddings:
            if not _finite_numbers(embedding):
                raise ClientError("endpoint returned an embedding that is not a list of finite numbers")
            if len(embedding) != self.dim:
                raise ClientError(f"endpoint returned dimension {len(embedding)}, expected {self.dim}")
            vectors.append(np.asarray(embedding, dtype=np.float64))
        return vectors


class HttpRerankClient(RerankClient):
    """Plain JSON rerank endpoint: {query, passages} in, {scores} out."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
    ):
        self.endpoint = (endpoint or os.environ.get("GRAPHRAG_RERANK_ENDPOINT") or "").rstrip("/")
        if not self.endpoint:
            raise ClientError("no rerank endpoint configured (GRAPHRAG_RERANK_ENDPOINT)")
        self.api_key = api_key or os.environ.get("GRAPHRAG_RERANK_KEY")
        self.timeout = timeout

    def score(self, query: str, passages: Sequence[str]) -> list[float]:
        body = post_json(
            self.endpoint,
            {"query": query, "passages": list(passages)},
            api_key=self.api_key,
            timeout=self.timeout,
        )
        scores = body.get("scores")
        if not isinstance(scores, list) or len(scores) != len(passages):
            raise ClientError("rerank endpoint returned a malformed scores list")
        if not _finite_numbers(scores):
            raise ClientError("rerank endpoint returned a score that is not a finite number")
        return [float(s) for s in scores]
