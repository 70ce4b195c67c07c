"""Vector math, the hashing embedder, rerank scoring, and HTTP client plumbing."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphrag.embedding import (
    HashingEmbedder,
    HttpEmbeddingClient,
    HttpRerankClient,
    TokenOverlapReranker,
    VectorStore,
    cosine,
)
from graphrag.errors import ClientError


class TestCosine:
    def test_frozen_value(self):
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318461970762, abs=1e-15)

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 6)
            u = [rng.uniform(-2, 2) for _ in range(n)]
            v = [rng.uniform(-2, 2) for _ in range(n)]
            assert cosine(u, v) == pytest.approx(oracles.cosine_ref(u, v), abs=1e-12)

    def test_zero_norm_is_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])


class TestHashingEmbedder:
    def test_unit_norm(self):
        emb = HashingEmbedder(dim=32)
        for vec in emb.embed(["the quick brown fox", "a", "alpha beta alpha"]):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert vec.shape == (32,)

    def test_instances_agree(self):
        a = HashingEmbedder(dim=64).embed(["shared text"])[0]
        b = HashingEmbedder(dim=64).embed(["shared text"])[0]
        assert np.array_equal(a, b)

    def test_tokenless_text_is_zero_vector(self):
        vec = HashingEmbedder(dim=16).embed(["!!! ???"])[0]
        assert not vec.any()

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
    def test_norm_is_zero_or_one(self, text):
        vec = HashingEmbedder(dim=8).embed([text])[0]
        norm = float(np.linalg.norm(vec))
        assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, abs=1e-12)

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)


class TestTokenOverlapReranker:
    def test_frozen_value(self):
        score = TokenOverlapReranker().score("alpha beta gamma", ["alpha beta delta epsilon"])[0]
        assert score == pytest.approx(0.5714285714285715, abs=1e-15)

    def test_matches_f1_oracle(self):
        rng = random.Random(43)
        words = ["red", "blue", "green", "jade", "silk", "iron"]
        rerank = TokenOverlapReranker()
        for _ in range(40):
            query = rng.choices(words, k=rng.randint(1, 5))
            passage = rng.choices(words, k=rng.randint(1, 7))
            got = rerank.score(" ".join(query), [" ".join(passage)])[0]
            want = oracles.token_f1_ref(set(query), set(passage))
            assert got == pytest.approx(want, abs=1e-12)

    def test_case_insensitive(self):
        rerank = TokenOverlapReranker()
        assert rerank.score("Jade CUP", ["jade cup"])[0] == pytest.approx(1.0)

    def test_empty_passage_scores_zero(self):
        assert TokenOverlapReranker().score("query", [""])[0] == 0.0


class TestVectorStore:
    def test_round_trip_and_refs_sorted(self):
        store = VectorStore(dim=2)
        store.add("b", [1.0, 0.0])
        store.add("a", [0.0, 1.0])
        assert store.refs() == ["a", "b"]
        assert np.array_equal(store.get("b"), np.array([1.0, 0.0]))
        assert store.get("missing") is None
        assert len(store) == 2

    def test_duplicate_ref_rejected(self):
        store = VectorStore(dim=2)
        store.add("a", [1.0, 0.0])
        with pytest.raises(ValueError):
            store.add("a", [0.0, 1.0])

    def test_wrong_dim_rejected(self):
        store = VectorStore(dim=3)
        with pytest.raises(ValueError):
            store.add("a", [1.0, 0.0])

    def test_top_k_matches_oracle(self):
        rng = random.Random(45)
        for _ in range(20):
            dim = rng.randint(2, 4)
            store = VectorStore(dim=dim)
            items = {}
            for i in range(rng.randint(1, 8)):
                vec = [rng.uniform(-1, 1) for _ in range(dim)]
                store.add(f"ref{i}", vec)
                items[f"ref{i}"] = vec
            query = [rng.uniform(-1, 1) for _ in range(dim)]
            k = rng.randint(1, 6)
            got = store.top_k(query, k)
            scored = {ref: oracles.cosine_ref(query, vec) for ref, vec in items.items()}
            want = oracles.top_k_ref(scored, k)
            assert [r for r, _ in got] == [r for r, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-12)

    def test_top_k_ties_break_by_ref(self):
        store = VectorStore(dim=2)
        store.add("z", [1.0, 0.0])
        store.add("a", [2.0, 0.0])  # same direction, same cosine
        got = store.top_k([1.0, 0.0], 2)
        assert [r for r, _ in got] == ["a", "z"]


@st.composite
def stores_with_queries(draw):
    """Rows of dimension 1-300 with exact duplicates, scalar multiples and
    zero rows at random positions, plus a query (sometimes zero, sometimes a
    stored row) and a k."""
    dim = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e3)))
    rows = [rng.standard_normal(dim) * scale for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("duplicate", "multiple", "zero")))
        source = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "duplicate":
            row = source.copy()
        elif kind == "multiple":
            row = source * draw(st.sampled_from((2.0, 0.5, -1.0, 3.0, 1e3)))
        else:
            row = np.zeros(dim)
        rows.insert(draw(st.integers(0, len(rows))), row)
    query = draw(st.sampled_from(("zero", "random", "stored")))
    if query == "zero":
        q = np.zeros(dim)
    elif query == "random":
        q = rng.standard_normal(dim)
    else:
        q = rows[draw(st.integers(0, len(rows) - 1))].copy()
    return [row.tolist() for row in rows], q.tolist(), draw(st.integers(1, len(rows) + 2))


class TestExactScoring:
    """The store's one scoring path must be bit-identical to cosine() per
    row: compared with ``==``, so a blocked mat-vec that gives equal rows
    different low bits fails here."""

    @given(stores_with_queries(), st.randoms(use_true_random=False))
    def test_similarities_and_top_k_equal_cosine(self, case, rnd):
        rows, query, k = case
        refs = [f"r{i:03d}" for i in range(len(rows))]
        rnd.shuffle(refs)  # insertion order differs from ref order
        store = VectorStore(dim=len(query))
        for ref, row in zip(refs, rows):
            store.add(ref, row)
        sims = store.similarities(query)
        assert sims.shape == (len(rows),)
        want = {ref: cosine(query, row) for ref, row in zip(refs, rows)}
        for i, ref in enumerate(refs):
            assert sims[i] == want[ref]
        got = store.top_k(query, k)
        expected = oracles.top_k_ref(want, k)
        assert [r for r, _ in got] == [r for r, _ in expected]
        assert [s for _, s in got] == [s for _, s in expected]

    def test_query_shape_checked(self):
        store = VectorStore(dim=3)
        for query in ([1.0, 0.0], [[1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError):
                store.similarities(query)
            with pytest.raises(ValueError):
                store.top_k(query, 1)
        assert store.similarities([1.0, 0.0, 0.0]).shape == (0,)
        assert store.top_k([1.0, 0.0, 0.0], 3) == []

    def test_adding_after_a_query_refreshes_the_ranking(self):
        store = VectorStore(dim=2)
        store.add("b", [1.0, 0.0])
        assert store.top_k([1.0, 0.0], 2) == [("b", 1.0)]
        store.add("a", [3.0, 0.0])
        store.add("c", [0.0, 0.0])
        assert store.top_k([1.0, 0.0], 3) == [("a", 1.0), ("b", 1.0), ("c", 0.0)]
        assert store.position("c") == 2


class TestHttpClients:
    def test_embeddings_sorted_by_index(self, monkeypatch):
        def fake_post(url, payload, **kwargs):
            assert url.endswith("/embeddings")
            assert payload["input"] == ["one", "two"]
            return {
                "data": [
                    {"index": 1, "embedding": [0.0, 1.0]},
                    {"index": 0, "embedding": [1.0, 0.0]},
                ]
            }

        monkeypatch.setattr("graphrag.embedding.post_json", fake_post)
        client = HttpEmbeddingClient(endpoint="http://svc/v1", dim=2)
        vecs = client.embed(["one", "two"])
        assert np.array_equal(vecs[0], np.array([1.0, 0.0]))
        assert np.array_equal(vecs[1], np.array([0.0, 1.0]))

    def test_embeddings_dim_mismatch(self, monkeypatch):
        monkeypatch.setattr(
            "graphrag.embedding.post_json",
            lambda url, payload, **kw: {"data": [{"index": 0, "embedding": [1.0, 2.0, 3.0]}]},
        )
        client = HttpEmbeddingClient(endpoint="http://svc", dim=2)
        with pytest.raises(ClientError, match="dimension"):
            client.embed(["text"])

    def test_embeddings_count_mismatch(self, monkeypatch):
        monkeypatch.setattr(
            "graphrag.embedding.post_json",
            lambda url, payload, **kw: {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
        )
        client = HttpEmbeddingClient(endpoint="http://svc", dim=2)
        with pytest.raises(ClientError, match="got 1"):
            client.embed(["a", "b"])

    def test_embeddings_missing_endpoint(self, monkeypatch):
        monkeypatch.delenv("GRAPHRAG_EMBED_ENDPOINT", raising=False)
        with pytest.raises(ClientError, match="GRAPHRAG_EMBED_ENDPOINT"):
            HttpEmbeddingClient()

    def test_embeddings_endpoint_from_env(self, monkeypatch):
        monkeypatch.setenv("GRAPHRAG_EMBED_ENDPOINT", "http://env-host/v1/")
        client = HttpEmbeddingClient(dim=4)
        assert client.endpoint == "http://env-host/v1"

    def test_rerank_round_trip(self, monkeypatch):
        seen = {}

        def fake_post(url, payload, **kwargs):
            seen.update(payload)
            return {"scores": [0.25, 0.75]}

        monkeypatch.setattr("graphrag.embedding.post_json", fake_post)
        client = HttpRerankClient(endpoint="http://rerank")
        assert client.score("q", ["p1", "p2"]) == [0.25, 0.75]
        assert seen == {"query": "q", "passages": ["p1", "p2"]}

    def test_rerank_malformed_scores(self, monkeypatch):
        monkeypatch.setattr("graphrag.embedding.post_json", lambda *a, **kw: {"scores": [0.5]})
        client = HttpRerankClient(endpoint="http://rerank")
        with pytest.raises(ClientError, match="malformed"):
            client.score("q", ["p1", "p2"])

    def test_rerank_missing_endpoint(self, monkeypatch):
        monkeypatch.delenv("GRAPHRAG_RERANK_ENDPOINT", raising=False)
        with pytest.raises(ClientError, match="GRAPHRAG_RERANK_ENDPOINT"):
            HttpRerankClient()
