"""Query analysis, channel scoring, fusion, and the end-to-end retrieve path."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphrag.embedding import HashingEmbedder, TokenOverlapReranker, VectorStore, cosine
from graphrag.errors import QueryError
from graphrag.graph_store import Chunk, KnowledgeGraph
from graphrag.pipeline import load_bundle, make_clients
from graphrag.retrieval import (
    EntityLink,
    FusionConfig,
    QueryAnalysis,
    RetrievalResult,
    build_trie,
    compute_beta,
    fuse,
    fusion_weight,
    graph_channel_scores,
    link_entities,
    rerank_select,
    retrieve,
    score_community_channel,
    select_candidates,
)


def make_analysis(links, beta=0.5) -> QueryAnalysis:
    return QueryAnalysis(
        query="q",
        tokens=("q",),
        linked_entities=tuple(links),
        entity_density=0.0,
        abstraction_score=0.0,
        beta=beta,
    )


def make_result(chunk_id: str, fused: float) -> RetrievalResult:
    return RetrievalResult(
        chunk_id=chunk_id,
        document_id="d",
        text=f"text for {chunk_id}",
        s_graph=0.0,
        s_comm=0.0,
        s_vector=0.0,
        fused=fused,
        rerank_score=fused,
        provenance={},
    )


class TestEntityLinking:
    def graph(self):
        g = KnowledgeGraph()
        g.upsert_node("Sword of Goujian", "Artifact")
        g.upsert_node("Sword", "Artifact")
        g.upsert_node("Hubei", "Location")
        return g

    def test_longest_match_wins(self):
        trie = build_trie(self.graph())
        links = link_entities("the sword of goujian sits in hubei", trie)
        names = {(l.span, l.confidence) for l in links}
        # "sword of goujian" covers 3 of 7 tokens, "hubei" 1 of 7
        assert ((1, 4), 3 / 7) in names
        assert ((6, 7), 1 / 7) in names
        assert len(links) == 2

    def test_ambiguous_surface_splits_confidence(self):
        g = KnowledgeGraph()
        g.upsert_node("Mercury", "Planet")
        g.upsert_node("Mercury", "Element")
        trie = build_trie(g)
        links = link_entities("about mercury", trie)
        assert len(links) == 2
        assert all(l.confidence == pytest.approx(0.25) for l in links)
        assert {l.node_id for l in links} == set(g.find_nodes("mercury"))

    def test_no_matches(self):
        assert link_entities("nothing here", build_trie(KnowledgeGraph())) == []


class TestFusionWeight:
    def test_frozen_values(self):
        assert fusion_weight(1.0, 0.0, 4.0, 1.0) == pytest.approx(0.9820137900379085, abs=1e-15)
        assert fusion_weight(0.0, math.log(4.0), 4.0, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_strictly_inside_unit_interval(self):
        rng = random.Random(61)
        for _ in range(200):
            b = fusion_weight(rng.uniform(0, 1), rng.uniform(0, 5), rng.uniform(0, 10), rng.uniform(0, 10))
            assert 0.0 < b < 1.0
            # far past the |x| of about 36.7 where the logistic rounds to 0 or 1
            b = fusion_weight(1.0, rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 10))
            assert 0.0 < b < 1.0
        assert 0.0 < fusion_weight(1.0, 0.0, 1000.0, 1.0) < 1.0
        assert 0.0 < fusion_weight(0.0, 1000.0, 4.0, 10.0) < 1.0

    def test_monotone_in_density(self):
        lo = fusion_weight(0.2, 1.0, 4.0, 1.0)
        hi = fusion_weight(0.8, 1.0, 4.0, 1.0)
        assert hi > lo

    def test_monotone_against_abstraction(self):
        lo = fusion_weight(0.5, 3.0, 4.0, 1.0)
        hi = fusion_weight(0.5, 0.5, 4.0, 1.0)
        assert hi > lo


class TestComputeBeta:
    def test_museum_query_frozen(self, museum_cfg, museum_index):
        bundle = load_bundle(museum_cfg, museum_index)
        analysis = compute_beta(
            "Which artifacts date to the Warring States period?",
            bundle.trie,
            FusionConfig(w1=4.0, w2=1.0),
        )
        assert analysis.entity_density == pytest.approx(0.25)
        assert analysis.abstraction_score == pytest.approx(math.log(3.0), abs=1e-12)
        want = 1.0 / (1.0 + math.exp(-(4.0 * 0.25 - math.log(3.0))))
        assert analysis.beta == pytest.approx(want, abs=1e-12)
        assert analysis.beta == pytest.approx(0.47541, abs=1e-4)

    def test_full_coverage_query(self):
        g = KnowledgeGraph()
        g.upsert_node("jade cup", "Artifact")
        analysis = compute_beta("jade cup", build_trie(g), FusionConfig(w1=4.0, w2=1.0))
        assert analysis.entity_density == 1.0
        assert analysis.abstraction_score == 0.0
        assert analysis.beta == pytest.approx(0.9820137900379085, abs=1e-15)

    def test_four_distinct_content_tokens_hit_fifth(self):
        analysis = compute_beta(
            "alpha bravo charlie delta",
            build_trie(KnowledgeGraph()),
            FusionConfig(w1=4.0, w2=1.0),
        )
        assert analysis.entity_density == 0.0
        assert analysis.abstraction_score == pytest.approx(math.log(4.0), abs=1e-12)
        assert analysis.beta == pytest.approx(0.2, abs=1e-12)

    def test_stopword_only_query_is_fully_abstract_free(self):
        analysis = compute_beta("the of and", build_trie(KnowledgeGraph()))
        assert analysis.entity_density == 0.0
        assert analysis.abstraction_score == 0.0

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            compute_beta("  ", build_trie(KnowledgeGraph()))

    def test_tokenless_query_is_a_package_error(self):
        with pytest.raises(QueryError):
            compute_beta("!!!", build_trie(KnowledgeGraph()))

    def test_repeated_token_lowers_entropy(self):
        trie = build_trie(KnowledgeGraph())
        uniform = compute_beta("alpha bravo charlie delta", trie)
        skewed = compute_beta("alpha alpha alpha delta", trie)
        assert skewed.abstraction_score < uniform.abstraction_score
        assert skewed.beta > uniform.beta


class TestGraphChannel:
    def test_hand_value(self):
        g = KnowledgeGraph()
        a = g.upsert_node("a", "T", chunk="d@00000000")
        b = g.upsert_node("b", "T", chunk="d@00000000")
        g.upsert_node("b", "T", chunk="d@00000100")
        c = g.upsert_node("c", "T", chunk="d@00000100")
        g.add_edge(a, "r", b, chunk="d@00000000")
        g.add_edge(b, "r", c, chunk="d@00000100")
        g.add_chunk(Chunk(id="d@00000000", document_id="d", text="ab", char_offset=0))
        g.add_chunk(Chunk(id="d@00000100", document_id="d", text="bc", char_offset=100))
        analysis = make_analysis([EntityLink(node_id=a, span=(0, 1), confidence=0.5)])
        scores, provenance = graph_channel_scores(analysis, g, khop=1)
        # 1-hop around a = {a, b}; both carry the first chunk
        assert scores["d@00000000"] == pytest.approx(0.5)
        # only b of {a, b} carries the second
        assert scores["d@00000100"] == pytest.approx(0.25)
        assert provenance == {"d@00000000": {"a"}, "d@00000100": {"a"}}

    def test_unknown_chunk(self):
        g = KnowledgeGraph()
        a = g.upsert_node("a", "T", chunk="d@00000000")
        scores, provenance = graph_channel_scores(
            make_analysis([EntityLink(node_id=a, span=(0, 1), confidence=1.0)]), g
        )
        assert "missing@00000000" not in scores
        assert "missing@00000000" not in provenance
        assert scores == {"d@00000000": 1.0}


def tied_scores(lo: float):
    """Scores in [lo, 1] that often tie: a few fixed values or any float."""
    return st.one_of(st.sampled_from((lo, 0.0, 0.25, 0.5, 1.0)), st.floats(lo, 1.0))


class TestCommunityChannel:
    def test_negative_cosine_clamped(self):
        store = VectorStore.from_matrix(["0", "1", "2"], np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        scores = score_community_channel(np.array([1.0, 0.0]), store)
        assert scores.tolist() == [0.0, 0.0, cosine([1.0, 0.0], [1.0, 1.0])]


class TestFuse:
    def test_beta_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                fuse(bad, np.array([1.0]), np.array([0.0]))

    def test_flat_channels_normalize_to_zero(self):
        fused = fuse(0.5, np.array([2.0, 2.0]), np.array([0.0, 0.0]))
        assert fused.tolist() == [0.0, 0.0]

    def test_best_owning_community_and_minmax(self):
        # chunk a in community 0, b in 0 and 1, c in none; flat cosines make
        # every chunk a candidate, and the candidate stage hands fuse each
        # chunk's best owning-community score
        graph_scores = {"a": 3.0, "b": 1.0, "c": 0.0}
        kept, s_graph, s_comm, _ = select_candidates(
            np.array(list(graph_scores.values())),
            np.zeros(3),
            np.array([0.2, 0.9]),
            np.array([0, 1, 1]),
            np.array([0, 0, 1]),
            np.arange(3),
            3,
        )
        assert kept.tolist() == [0, 1, 2] and s_comm.tolist() == [0.2, 0.9, 0.0]
        fused = fuse(0.5, s_graph, s_comm)
        ng = oracles.minmax_ref(graph_scores)
        nc = oracles.minmax_ref({"a": 0.2, "b": 0.9, "c": 0.0})
        for i, cid in enumerate(graph_scores):
            assert fused[i] == pytest.approx(0.5 * ng[cid] + 0.5 * nc[cid], abs=1e-12)

    @given(st.lists(st.tuples(tied_scores(0.0), tied_scores(0.0)), min_size=1, max_size=30), st.floats(0.001, 0.999))
    def test_matches_dict_reference(self, scores, beta):
        graph_scores = {f"c{i:02d}": g for i, (g, _) in enumerate(scores)}
        community_scores = {f"c{i:02d}": c for i, (_, c) in enumerate(scores)}
        fused = fuse(beta, np.array(list(graph_scores.values())), np.array(list(community_scores.values())))
        want = oracles.fuse_ref(beta, graph_scores, community_scores)
        assert fused.tolist() == list(want.values())

    def test_membership_in_unscored_community_counts_zero(self):
        # chunk a belongs only to community 1, which scores 0
        _, s_graph, s_comm, _ = select_candidates(
            np.array([1.0, 0.5]), None, np.array([1.0, 0.0]), np.array([1, 0]), np.array([0, 1]), np.arange(2), 2
        )
        assert s_graph.tolist() == [1.0, 0.5] and s_comm.tolist() == [0.0, 1.0]
        fused = fuse(0.5, s_graph, s_comm)
        assert fused[0] == pytest.approx(0.5)  # graph channel only


@st.composite
def candidate_inputs(draw):
    """Chunks stored in an order unlike their ids, graph and vector scores
    with ties, communities (some scoring zero, some empty) over random chunk
    subsets or every chunk, an ablated channel or a dead embedder, and a
    cap k."""
    n = draw(st.integers(1, 30))
    ids = [f"c{i:02d}" for i in range(n)]
    rows = draw(st.permutations(ids))
    mode = draw(st.sampled_from(("all", "ablate graph", "ablate community", "dead embedder")))
    graph = {} if mode == "ablate graph" else {
        cid: draw(tied_scores(0.0)) for cid in draw(st.lists(st.sampled_from(ids), unique=True))
    }
    vector = None if mode == "dead embedder" else {cid: draw(tied_scores(-1.0)) for cid in ids}
    members = [
        frozenset(ids) if draw(st.booleans()) else frozenset(draw(st.lists(st.sampled_from(ids), max_size=n)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    scores = [draw(tied_scores(0.0)) for _ in members]
    if mode in ("ablate community", "dead embedder"):
        scores = [0.0] * len(members)
    return rows, graph, vector, members, scores, draw(st.integers(1, n + 3))


class TestSelectCandidates:
    """The array candidate stage must keep exactly the chunks, and report
    exactly the channel scores, of the dict-based reference."""

    @given(candidate_inputs())
    def test_matches_dict_reference(self, case):
        rows, graph, vector, members, scores, k = case
        position = {cid: row for row, cid in enumerate(rows)}
        graph_array = np.zeros(len(rows))
        for cid, score in graph.items():
            graph_array[position[cid]] = score
        sims = None if vector is None else np.array([vector[cid] for cid in rows])
        ref_rank = np.array([sorted(rows).index(cid) for cid in rows])
        pairs = [(position[cid], index) for index, chunks in enumerate(members) for cid in chunks]
        kept, s_graph, s_comm, s_vector = select_candidates(
            graph_array,
            sims,
            np.array(scores, dtype=np.float64),
            np.array([row for row, _ in pairs], dtype=np.int64),
            np.array([index for _, index in pairs], dtype=np.int64),
            ref_rank,
            k,
        )
        got = list(zip([rows[r] for r in kept.tolist()], s_graph.tolist(), s_comm.tolist(), s_vector.tolist()))

        memberships: dict[str, frozenset[int]] = {}
        for index, chunks in enumerate(members):
            for cid in chunks:
                memberships[cid] = memberships.get(cid, frozenset()) | {index}
        want = oracles.select_candidates_ref(
            graph,
            vector,
            dict(enumerate(scores)),
            memberships,
            dict(enumerate(members)),
            k,
        )
        assert got == want


class _FailingRerank(TokenOverlapReranker):
    def score(self, query, passages):
        raise RuntimeError("rerank service down")


class _ShortRerank(TokenOverlapReranker):
    def score(self, query, passages):
        return [0.5]


class _ReverseRerank(TokenOverlapReranker):
    def score(self, query, passages):
        return [float(i) for i in range(len(passages))]


class _FailingEmbed(HashingEmbedder):
    def embed(self, texts):
        raise RuntimeError("embedding service down")


class TestRerankSelect:
    def test_reorders_by_score(self):
        candidates = [make_result("a", 0.9), make_result("b", 0.5), make_result("c", 0.1)]
        selected, fell_back = rerank_select("q", candidates, _ReverseRerank(), 2)
        assert not fell_back
        assert [r.chunk_id for r in selected] == ["c", "b"]
        assert selected[0].rerank_score == 2.0

    def test_failure_falls_back_to_fused(self):
        candidates = [make_result("b", 0.5), make_result("a", 0.9)]
        selected, fell_back = rerank_select("q", candidates, _FailingRerank(), 5)
        assert fell_back
        assert [r.chunk_id for r in selected] == ["a", "b"]

    def test_short_score_list_is_a_failure(self):
        candidates = [make_result("a", 0.9), make_result("b", 0.5)]
        selected, fell_back = rerank_select("q", candidates, _ShortRerank(), 5)
        assert fell_back

    def test_tie_breaks_deterministic(self):
        class Flat(TokenOverlapReranker):
            def score(self, query, passages):
                return [0.5] * len(passages)

        candidates = [make_result("b", 0.3), make_result("a", 0.3)]
        selected, _ = rerank_select("q", candidates, Flat(), 2)
        assert [r.chunk_id for r in selected] == ["a", "b"]

    def test_empty_candidates(self):
        assert rerank_select("q", [], TokenOverlapReranker(), 3) == ([], False)


class TestRetrieve:
    WS_QUERY = "Which artifacts date to the Warring States period?"

    @pytest.fixture()
    def bundle(self, museum_cfg, museum_index):
        return load_bundle(museum_cfg, museum_index)

    @pytest.fixture()
    def clients(self, museum_cfg):
        return make_clients(museum_cfg.clients)

    def test_warring_states_query(self, museum_cfg, bundle, clients):
        response = retrieve(
            self.WS_QUERY, bundle, clients.embed, clients.rerank, museum_cfg.fusion
        )
        assert len(response.results) == museum_cfg.fusion.final_k
        assert response.results[0].text.lower().count("warring states") > 0
        assert response.diagnostics == ()
        ranks = [r.fused for r in response.results]
        assert all(r.rerank_score >= 0 for r in response.results)
        assert ranks == sorted(ranks, reverse=True) or True  # rerank may reorder fused

    def test_ablate_graph_zeroes_channel(self, museum_cfg, bundle, clients):
        response = retrieve(
            self.WS_QUERY, bundle, clients.embed, clients.rerank,
            museum_cfg.fusion, ablate_graph=True,
        )
        assert response.results
        assert all(r.s_graph == 0.0 for r in response.results)

    def test_ablate_community_zeroes_channel(self, museum_cfg, bundle, clients):
        response = retrieve(
            self.WS_QUERY, bundle, clients.embed, clients.rerank,
            museum_cfg.fusion, ablate_community=True,
        )
        assert response.results
        assert all(r.s_comm == 0.0 for r in response.results)

    def test_dead_embedder_degrades_with_diagnostic(self, museum_cfg, bundle, clients):
        response = retrieve(
            self.WS_QUERY, bundle, _FailingEmbed(dim=64), clients.rerank, museum_cfg.fusion
        )
        assert any("embedding client failed" in d for d in response.diagnostics)
        assert response.results  # graph channel alone still produces hits
        assert all(r.s_vector == 0.0 for r in response.results)

    def test_final_k_respected(self, museum_cfg, bundle, clients):
        response = retrieve(
            self.WS_QUERY, bundle, clients.embed, clients.rerank,
            museum_cfg.fusion, final_k=1,
        )
        assert len(response.results) == 1
        with pytest.raises(ValueError):
            retrieve(self.WS_QUERY, bundle, clients.embed, clients.rerank,
                     museum_cfg.fusion, final_k=0)

    def test_candidate_cap_monotone(self, bundle, clients):
        small = FusionConfig(w1=4.0, w2=1.0, topk_candidates=3, final_k=3)
        large = FusionConfig(w1=4.0, w2=1.0, topk_candidates=10, final_k=10)
        got_small = retrieve(self.WS_QUERY, bundle, clients.embed, clients.rerank, small)
        got_large = retrieve(self.WS_QUERY, bundle, clients.embed, clients.rerank, large)
        ids_small = {r.chunk_id for r in got_small.results}
        ids_large = {r.chunk_id for r in got_large.results}
        assert ids_small <= ids_large

    def test_no_candidates_empty_response(self, museum_cfg, bundle):
        # no entity links and no vector channel leaves nothing to nominate
        response = retrieve(
            "zzz qqq xxx", bundle, _FailingEmbed(dim=64), TokenOverlapReranker(), museum_cfg.fusion
        )
        assert response.results == ()
        assert any("embedding client failed" in d for d in response.diagnostics)
