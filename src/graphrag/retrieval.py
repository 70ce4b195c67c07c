"""Query-time retrieval: entity linking, dual-channel scoring, fusion.

The graph channel scores a chunk by how much of each linked entity's
neighborhood has provenance in it; the community channel scores whole
communities by report-embedding similarity and hands each chunk the best
score among the communities containing it. The two channels are min-max
normalized over the candidate set and mixed with a per-query weight
``beta = sigmoid(w1 * entity_density - w2 * abstraction)``: entity-dense
queries lean on the graph, abstract ones on communities. The vector channel
only proposes candidates and feeds the cross-encoder rerank; it is not part
of the mix.

No LLM is called at query time.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .community import Community, CommunityReport
# cosine is re-exported: callers import it from this module as well
from .embedding import EmbeddingClient, RerankClient, VectorStore, cosine  # noqa: F401
from .errors import GraphRagError, QueryError
from .graph_store import KnowledgeGraph
from .textnorm import stopwords, tokenize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusionConfig:
    w1: float = 4.0
    w2: float = 1.0
    khop: int = 2
    topk_candidates: int = 24
    final_k: int = 8

    def __post_init__(self) -> None:
        if self.w1 <= 0 or self.w2 <= 0:
            raise ValueError("w1 and w2 must be positive")
        if self.khop < 0:
            raise ValueError("khop must be >= 0")
        if self.final_k < 1 or self.topk_candidates < 1:
            raise ValueError("final_k and topk_candidates must be >= 1")
        if self.final_k > self.topk_candidates:
            raise ValueError("final_k cannot exceed topk_candidates")


# -- entity trie ----------------------------------------------------------------


class _TrieNode:
    __slots__ = ("children", "ids")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.ids: set[int] = set()


class EntityTrie:
    """Token-sequence prefix tree mapping entity surface forms to node ids."""

    def __init__(self):
        self._root = _TrieNode()
        self._size = 0

    def insert(self, tokens: list[str], node_id: int) -> None:
        if not tokens:
            return
        node = self._root
        for token in tokens:
            node = node.children.setdefault(token, _TrieNode())
        if not node.ids:
            self._size += 1
        node.ids.add(node_id)

    def __len__(self) -> int:
        return self._size

    def longest_match(self, tokens: list[str], start: int) -> tuple[int, frozenset[int]] | None:
        """Longest entity match beginning at ``start``; returns (end index,
        node ids) or None. Prefers the deepest node that carries ids."""
        node = self._root
        best: tuple[int, frozenset[int]] | None = None
        i = start
        while i < len(tokens):
            node = node.children.get(tokens[i])
            if node is None:
                break
            i += 1
            if node.ids:
                best = (i, frozenset(node.ids))
        return best


def build_trie(graph: KnowledgeGraph) -> EntityTrie:
    """Index every node name and alias by its token sequence."""
    trie = EntityTrie()
    for node in graph.nodes():
        for surface in sorted({node.name, *node.aliases}):
            trie.insert(tokenize(surface), node.id)
    return trie


# -- query analysis ---------------------------------------------------------------


@dataclass(frozen=True)
class EntityLink:
    node_id: int
    span: tuple[int, int]  # token index range, end exclusive
    confidence: float      # query-token coverage, split over ambiguous ids


@dataclass(frozen=True)
class QueryAnalysis:
    query: str
    tokens: tuple[str, ...]
    linked_entities: tuple[EntityLink, ...]
    entity_density: float
    abstraction_score: float
    beta: float


def link_entities(query: str, trie: EntityTrie) -> list[EntityLink]:
    """Greedy left-to-right longest-match linking; spans never overlap.

    A link's confidence is its span length over the query token count; a
    surface form shared by several nodes splits that mass equally.
    """
    tokens = tokenize(query)
    total = len(tokens)
    links: list[EntityLink] = []
    i = 0
    while i < total:
        match = trie.longest_match(tokens, i)
        if match is None:
            i += 1
            continue
        end, ids = match
        coverage = (end - i) / total
        for node_id in sorted(ids):
            links.append(EntityLink(node_id=node_id, span=(i, end), confidence=coverage / len(ids)))
        i = end
    return links


def fusion_weight(entity_density: float, abstraction_score: float, w1: float, w2: float) -> float:
    """Logistic mix weight; strictly inside (0, 1)."""
    x = w1 * entity_density - w2 * abstraction_score
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def compute_beta(query: str, trie: EntityTrie, cfg: FusionConfig | None = None) -> QueryAnalysis:
    """Analyze a query: link entities, measure density and abstraction,
    derive the channel mix weight.

    Density is the fraction of query tokens covered by entity spans.
    Abstraction is the Shannon entropy (natural log) of the unigram
    distribution over non-entity, non-stop-word tokens; zero when none
    remain. Raises QueryError (a ValueError) for a tokenless query.
    """
    cfg = cfg or FusionConfig()
    tokens = tokenize(query)
    if not tokens:
        raise QueryError("query has no tokens")
    links = link_entities(query, trie)
    spans = {(link.span[0], link.span[1]) for link in links}
    covered_idx: set[int] = set()
    for start, end in spans:
        covered_idx.update(range(start, end))
    density = len(covered_idx) / len(tokens)
    stop = stopwords()
    content = [t for i, t in enumerate(tokens) if i not in covered_idx and t not in stop]
    if content:
        counts = Counter(content)
        total = len(content)
        # max() also flushes the -0.0 a one-token distribution produces
        abstraction = max(0.0, -sum((c / total) * math.log(c / total) for _, c in sorted(counts.items())))
    else:
        abstraction = 0.0
    beta = fusion_weight(density, abstraction, cfg.w1, cfg.w2)
    return QueryAnalysis(
        query=query,
        tokens=tuple(tokens),
        linked_entities=tuple(links),
        entity_density=density,
        abstraction_score=abstraction,
        beta=beta,
    )


# -- channel scores -----------------------------------------------------------------


def graph_channel_scores(
    analysis: QueryAnalysis,
    graph: KnowledgeGraph,
    khop: int = 2,
) -> tuple[dict[str, float], dict[str, set[str]]]:
    """Graph-channel score of every chunk near a linked entity: the sum over
    linked entities of confidence times the fraction of the entity's k-hop
    neighborhood with provenance in the chunk. Also returns, per chunk, the
    names of the linked entities that contributed. Chunks with no such
    provenance are absent."""
    scores: dict[str, float] = {}
    provenance: dict[str, set[str]] = {}
    for link in analysis.linked_entities:
        sub = graph.neighborhood(link.node_id, khop)
        denom = len(sub.node_ids)
        presence: Counter[str] = Counter()
        for node_id in sub.node_ids:
            presence.update(graph.node(node_id).source_chunks)
        entity_name = graph.node(link.node_id).name
        for chunk_id, count in sorted(presence.items()):
            scores[chunk_id] = scores.get(chunk_id, 0.0) + link.confidence * count / denom
            provenance.setdefault(chunk_id, set()).add(entity_name)
    return scores, provenance


def score_community_channel(
    query_vector: np.ndarray,
    reports: dict[int, CommunityReport],
    store: VectorStore,
) -> dict[int, float]:
    """Cosine of the query against every community report embedding,
    negatives clamped to zero."""
    sims = store.similarities(query_vector)
    scores: dict[int, float] = {}
    for ref in store.refs():
        cid = int(ref)
        if cid not in reports:
            raise GraphRagError(f"report store holds unknown community {cid}")
        scores[cid] = max(0.0, float(sims[store.position(ref)]))
    return scores


def _minmax(values: dict[str, float]) -> dict[str, float]:
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    if hi <= lo:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


def fuse(
    beta: float,
    graph_scores: dict[str, float],
    memberships: dict[str, frozenset[int]],
    community_scores: dict[int, float],
) -> dict[str, float]:
    """Mix the two channels over a candidate set.

    Each chunk's community score is the best score among communities holding
    it (zero when it belongs to none). Both channels are min-max normalized
    over the candidate set, then mixed as beta*graph + (1-beta)*community.
    A channel with no spread normalizes to all zeros.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    raw_comm = {}
    for chunk_id in graph_scores:
        best = 0.0
        for cid in sorted(memberships.get(chunk_id, frozenset())):
            score = community_scores.get(cid, 0.0)
            if score > best:
                best = score
        raw_comm[chunk_id] = best
    norm_graph = _minmax(graph_scores)
    norm_comm = _minmax(raw_comm)
    return {
        chunk_id: beta * norm_graph[chunk_id] + (1.0 - beta) * norm_comm[chunk_id]
        for chunk_id in graph_scores
    }


# -- retrieval ------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalResult:
    chunk_id: str
    document_id: str
    text: str
    s_graph: float
    s_comm: float
    s_vector: float
    fused: float
    rerank_score: float
    provenance: dict


@dataclass(frozen=True)
class RetrievalResponse:
    analysis: QueryAnalysis
    results: tuple[RetrievalResult, ...]
    diagnostics: tuple[str, ...] = ()


@dataclass
class IndexBundle:
    """Everything retrieve() needs, loaded once per index."""

    graph: KnowledgeGraph
    communities: list[Community]
    reports: dict[int, CommunityReport]
    chunk_store: VectorStore
    report_store: VectorStore
    trie: EntityTrie
    chunk_memberships: dict[str, frozenset[int]] = field(default_factory=dict)
    community_chunks: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def assemble(
        cls,
        graph: KnowledgeGraph,
        communities: list[Community],
        reports: dict[int, CommunityReport],
        chunk_store: VectorStore,
        report_store: VectorStore,
    ) -> "IndexBundle":
        memberships: dict[str, set[int]] = {}
        community_chunks: dict[int, frozenset[str]] = {}
        for community in communities:
            chunk_ids: set[str] = set()
            for node_id in sorted(community.completed_members):
                chunk_ids |= graph.node(node_id).source_chunks
            for chunk_id in chunk_ids:
                memberships.setdefault(chunk_id, set()).add(community.id)
            community_chunks[community.id] = frozenset(chunk_ids)
        return cls(
            graph=graph,
            communities=communities,
            reports=reports,
            chunk_store=chunk_store,
            report_store=report_store,
            trie=build_trie(graph),
            chunk_memberships={k: frozenset(v) for k, v in memberships.items()},
            community_chunks=community_chunks,
        )


def rerank_select(
    query: str,
    candidates: list[RetrievalResult],
    client: RerankClient,
    k: int,
) -> tuple[list[RetrievalResult], bool]:
    """Cross-encoder ordering of fused candidates; top-k survives.

    Order is (rerank desc, fused desc, chunk id asc), so it is stable under
    input permutation. On client failure the fused ordering stands in and the
    flag reports the fallback.
    """
    if not candidates:
        return [], False
    try:
        scores = client.score(query, [c.text for c in candidates])
        if len(scores) != len(candidates):
            raise GraphRagError("reranker returned a short score list")
    except Exception as exc:
        log.warning("rerank failed (%s); falling back to fused ordering", exc)
        ordered = sorted(candidates, key=lambda c: (-c.fused, c.chunk_id))
        return ordered[:k], True
    rescored = [
        RetrievalResult(
            chunk_id=c.chunk_id,
            document_id=c.document_id,
            text=c.text,
            s_graph=c.s_graph,
            s_comm=c.s_comm,
            s_vector=c.s_vector,
            fused=c.fused,
            rerank_score=float(score),
            provenance=c.provenance,
        )
        for c, score in zip(candidates, scores)
    ]
    rescored.sort(key=lambda c: (-c.rerank_score, -c.fused, c.chunk_id))
    return rescored[:k], False


def retrieve(
    query: str,
    bundle: IndexBundle,
    embed_client: EmbeddingClient,
    rerank_client: RerankClient,
    cfg: FusionConfig | None = None,
    *,
    final_k: int | None = None,
    ablate_graph: bool = False,
    ablate_community: bool = False,
) -> RetrievalResponse:
    """Full query path: analyze, gather candidates from the vector, graph,
    and community channels, fuse, rerank, select.

    Channel failures degrade: a dead embedding client zeroes the vector and
    community channels with a diagnostic; a dead reranker falls back to the
    fused ordering. Entity linking never fails (it just finds nothing).
    """
    cfg = cfg or FusionConfig()
    k = final_k if final_k is not None else cfg.final_k
    if k < 1:
        raise ValueError("final_k must be >= 1")
    diagnostics: list[str] = []
    analysis = compute_beta(query, bundle.trie, cfg)
    graph = bundle.graph

    query_vec: np.ndarray | None = None
    try:
        query_vec = embed_client.embed([query])[0]
    except Exception as exc:
        diagnostics.append(f"embedding client failed: {exc}; vector and community channels disabled")
        log.warning(diagnostics[-1])

    # community channel over whole communities
    community_scores: dict[int, float] = {}
    if query_vec is not None and not ablate_community and len(bundle.report_store):
        community_scores = score_community_channel(query_vec, bundle.reports, bundle.report_store)

    # graph channel over chunks with provenance near linked entities
    graph_scores: dict[str, float] = {}
    provenance_entities: dict[str, set[str]] = {}
    if not ablate_graph:
        graph_scores, provenance_entities = graph_channel_scores(analysis, graph, cfg.khop)

    # gather candidates: vector top hits, graph-positive chunks, community member chunks;
    # every chunk's cosine comes from one pass over the store
    candidate_ids: set[str] = {cid for cid, s in graph_scores.items() if s > 0.0}
    chunk_store = bundle.chunk_store
    sims = None
    if query_vec is not None:
        sims = chunk_store.similarities(query_vec)
        candidate_ids.update(chunk_id for chunk_id, _ in chunk_store.rank(sims, cfg.topk_candidates))
    for cid, score in community_scores.items():
        if score > 0.0:
            candidate_ids |= bundle.community_chunks.get(cid, frozenset())
    if not candidate_ids:
        return RetrievalResponse(analysis=analysis, results=(), diagnostics=tuple(diagnostics))

    # fill per-candidate channel scores
    ordered = sorted(candidate_ids)
    full_graph = {cid: graph_scores.get(cid, 0.0) for cid in ordered}
    full_vector = {}
    for cid in ordered:
        row = chunk_store.position(cid) if sims is not None else None
        full_vector[cid] = float(sims[row]) if row is not None else 0.0
    memberships = {cid: bundle.chunk_memberships.get(cid, frozenset()) for cid in ordered}
    raw_comm = {
        cid: max((community_scores.get(c, 0.0) for c in memberships[cid]), default=0.0)
        for cid in ordered
    }

    # cap the candidate set by the best normalized channel signal (computed
    # over the full union, so growing the cap never drops a candidate)
    ng, nc, nv = _minmax(full_graph), _minmax(raw_comm), _minmax(full_vector)
    prefusion = {cid: max(ng[cid], nc[cid], nv[cid]) for cid in ordered}
    kept = sorted(ordered, key=lambda cid: (-prefusion[cid], cid))[: cfg.topk_candidates]

    fused = fuse(
        analysis.beta,
        {cid: full_graph[cid] for cid in kept},
        {cid: memberships[cid] for cid in kept},
        community_scores,
    )

    results = []
    for chunk_id in sorted(kept, key=lambda cid: (-fused[cid], cid)):
        chunk = graph.chunk(chunk_id)
        owners = sorted(memberships[chunk_id])
        results.append(
            RetrievalResult(
                chunk_id=chunk_id,
                document_id=chunk.document_id,
                text=chunk.text,
                s_graph=full_graph[chunk_id],
                s_comm=raw_comm[chunk_id],
                s_vector=full_vector[chunk_id],
                fused=fused[chunk_id],
                rerank_score=fused[chunk_id],
                provenance={
                    "entities": sorted(provenance_entities.get(chunk_id, ())),
                    "communities": owners,
                },
            )
        )
    selected, fell_back = rerank_select(query, results, rerank_client, k)
    if fell_back:
        diagnostics.append("rerank client failed; results follow fused ordering")
    return RetrievalResponse(analysis=analysis, results=tuple(selected), diagnostics=tuple(diagnostics))
