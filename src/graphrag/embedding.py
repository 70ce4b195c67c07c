"""Vector layer: embedding and rerank clients plus a brute-force store.

The stub clients are fully deterministic and offline. The hashing embedder
buckets bag-of-token counts through a stable hash (sha1, not the salted
builtin) so vectors are identical across processes and platforms.
"""

from __future__ import annotations

import hashlib
import logging
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


@lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    """Stable 64-bit hash of a token: the first 8 bytes of its sha1."""
    return int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:8], "big")


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

    def _bucket(self, token: str) -> int:
        return _token_hash(token) % self.dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            vec = np.zeros(self.dim, dtype=np.float64)
            for token in tokenize(text):
                vec[self._bucket(token)] += 1.0
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
    """Exact brute-force similarity store over (ref id, vector) pairs."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("vector store dimension must be positive")
        self.dim = dim
        self._refs: list[str] = []
        self._vectors: list[np.ndarray] = []
        self._by_ref: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def add(self, ref: str, vector: Sequence[float]) -> None:
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for {ref!r} has shape {vec.shape}, expected ({self.dim},)")
        if ref in self._by_ref:
            raise ValueError(f"duplicate ref {ref!r}")
        self._by_ref[ref] = len(self._refs)
        self._refs.append(ref)
        self._vectors.append(vec)

    def get(self, ref: str) -> np.ndarray | None:
        idx = self._by_ref.get(ref)
        return self._vectors[idx] if idx is not None else None

    def refs(self) -> list[str]:
        return sorted(self._refs)

    def items(self) -> list[tuple[str, np.ndarray]]:
        return [(ref, self._vectors[self._by_ref[ref]]) for ref in sorted(self._by_ref)]

    def top_k(self, query: Sequence[float], k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine, ties broken by ref id ascending."""
        if k <= 0:
            return []
        scored = [(ref, cosine(query, vec)) for ref, vec in self.items()]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]


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
        body = post_json(
            f"{self.endpoint}/embeddings",
            {"model": self.model, "input": list(texts)},
            api_key=self.api_key,
            timeout=self.timeout,
        )
        try:
            rows = sorted(body["data"], key=lambda r: r["index"])
            vectors = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
        except (KeyError, TypeError) as exc:
            raise ClientError(f"malformed embeddings response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ClientError(f"asked for {len(texts)} embeddings, got {len(vectors)}")
        for vec in vectors:
            if vec.shape != (self.dim,):
                raise ClientError(f"endpoint returned dimension {vec.shape[0]}, expected {self.dim}")
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
        return [float(s) for s in scores]
