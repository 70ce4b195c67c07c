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
from dataclasses import dataclass, replace

import numpy as np

from .community import Community
# cosine is re-exported: callers import it from this module as well
from .embedding import EmbeddingClient, RerankClient, VectorStore, cosine, top_rows  # noqa: F401
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
        if not (0 < self.w1 < math.inf and 0 < self.w2 < math.inf):
            raise ValueError("w1 and w2 must be positive and finite")
        if self.khop < 0:
            raise ValueError("khop must be >= 0")
        if self.final_k < 1 or self.topk_candidates < 1:
            raise ValueError("final_k and topk_candidates must be >= 1")
        if self.final_k > self.topk_candidates:
            raise ValueError("final_k cannot exceed topk_candidates")


# -- entity index ----------------------------------------------------------------


class EntityTrie:
    """Entity surface forms by token sequence: one dict from each form's
    token tuple to the ids of the nodes it names, plus the token length of
    the longest form. ``len()`` is the number of distinct forms."""

    def __init__(self, forms: dict[tuple[str, ...], frozenset[int]]):
        self._forms = forms
        self._longest = max(map(len, forms), default=0)

    def __len__(self) -> int:
        return len(self._forms)

    def longest_match(self, tokens: list[str], start: int) -> tuple[int, frozenset[int]] | None:
        """Longest entity match beginning at ``start``; returns (end index,
        node ids) or None. Tries the longest possible span first."""
        for end in range(min(len(tokens), start + self._longest), start, -1):
            ids = self._forms.get(tuple(tokens[start:end]))
            if ids is not None:
                return end, ids
        return None


def build_trie(graph: KnowledgeGraph) -> EntityTrie:
    """Index every node name and alias by its token sequence."""
    forms: dict[tuple[str, ...], set[int]] = {}
    for node in graph.nodes():
        for surface in {node.name, *node.aliases}:
            tokens = tuple(tokenize(surface))
            if tokens:
                forms.setdefault(tokens, set()).add(node.id)
    return EntityTrie({tokens: frozenset(ids) for tokens, ids in forms.items()})


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
    """Logistic mix weight; strictly inside (0, 1).

    Past |x| of about 36.7 the logistic rounds to 1.0 (or, far below, to
    0.0), so the result is clamped to the nearest float inside the interval.
    """
    x = w1 * entity_density - w2 * abstraction_score
    if x >= 0:
        beta = 1.0 / (1.0 + math.exp(-x))
    else:
        z = math.exp(x)
        beta = z / (1.0 + z)
    return min(max(beta, math.ulp(0.0)), math.nextafter(1.0, 0.0))


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
    node_rows: dict[int, np.ndarray],
    chunk_count: int,
    khop: int = 2,
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    """Graph-channel score of every chunk-store row: the sum over linked
    entities of confidence times the fraction of the entity's k-hop
    neighborhood with provenance in the chunk, ``node_rows`` holding each
    node's provenance as rows. Each link adds one ``bincount`` of the rows
    its neighborhood reaches. Also returns, per link, the entity's name and
    the mask of the rows it reached; rows no link reaches score 0."""
    scores = np.zeros(chunk_count)
    reach: list[tuple[str, np.ndarray]] = []
    for link in analysis.linked_entities:
        reached = graph.neighborhood(link.node_id, khop)
        counts = np.bincount(np.concatenate([node_rows[node_id] for node_id in reached]), minlength=chunk_count)
        scores += link.confidence * counts / len(reached)
        reach.append((graph.node(link.node_id).name, counts > 0))
    return scores, reach


def score_community_channel(query_vector: np.ndarray, report_store: VectorStore) -> np.ndarray:
    """Cosine of the query against every community report embedding, one
    per row of ``report_store`` (community order), negatives clamped to
    zero."""
    return np.maximum(report_store.similarities(query_vector), 0.0)


def _minmax(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; an array with no spread maps to zeros."""
    lo = values.min()
    hi = values.max()
    if hi <= lo:
        return np.zeros(len(values))
    return (values - lo) / (hi - lo)


def fuse(beta: float, graph_scores: np.ndarray, community_scores: np.ndarray) -> np.ndarray:
    """Mix the two channels over a candidate set: the arrays are aligned
    per candidate, ``community_scores`` holding each chunk's best
    owning-community score. Both channels are min-max normalized over the
    candidates, then mixed as beta*graph + (1-beta)*community. A channel
    with no spread normalizes to all zeros.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    return beta * _minmax(graph_scores) + (1.0 - beta) * _minmax(community_scores)


def select_candidates(
    graph_scores: np.ndarray,
    sims: np.ndarray | None,
    community_scores: np.ndarray,
    member_rows: np.ndarray,
    member_communities: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather candidate chunks from the three channels and keep the best k.

    Arrays run over chunk-store rows, which are in chunk id order:
    ``graph_scores`` is each chunk's graph channel score and ``sims`` its
    cosine to the query (None without a query vector). ``community_scores``
    runs over communities; ``member_rows[i]`` belongs to community
    ``member_communities[i]``.

    Candidates are the chunks with a positive graph score, the top k by
    cosine (ties by row), and every member of a positively scored
    community. Each chunk's community score is the best score among the
    communities holding it, 0 for none. Each channel is min-max normalized
    over the candidates; the best of the three normalized scores ranks them,
    ties by row, and the first k are kept. Normalizing over all
    candidates means a larger k never drops a kept chunk.

    Returns the kept rows in that order and their graph, community and
    vector scores.
    """
    vector = np.zeros(len(graph_scores)) if sims is None else sims
    owner_scores = community_scores[member_communities]
    community = np.zeros(len(graph_scores))
    np.maximum.at(community, member_rows, owner_scores)
    mask = graph_scores > 0.0
    if sims is not None:
        mask[top_rows(sims, k)] = True
    mask[member_rows[owner_scores > 0.0]] = True
    rows = np.flatnonzero(mask)
    if not len(rows):
        return rows, np.zeros(0), np.zeros(0), np.zeros(0)
    prefusion = np.maximum.reduce([
        _minmax(graph_scores[rows]),
        _minmax(community[rows]),
        _minmax(vector[rows]),
    ])
    kept = rows[top_rows(prefusion, k)]
    return kept, graph_scores[kept], community[kept], vector[kept]


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
    """Everything retrieve() needs, loaded once per index.

    Chunks are addressed by chunk-store row: row i of ``chunk_store`` is the
    embedding of chunk ``chunk_ids[i]``, ``chunk_ids`` being
    ``graph.chunk_ids()`` in ascending order. ``node_rows`` maps each node id
    to the ascending rows of its provenance chunks. Row i of
    ``report_store`` is the report embedding of community i.
    ``member_rows`` and ``member_communities`` hold one entry per (chunk,
    community) membership: the chunk's row and the community's index, rows
    ascending within each community.
    """

    graph: KnowledgeGraph
    chunk_store: VectorStore
    report_store: VectorStore
    trie: EntityTrie
    chunk_ids: list[str]
    node_rows: dict[int, np.ndarray]
    member_rows: np.ndarray
    member_communities: np.ndarray

    @classmethod
    def assemble(
        cls,
        graph: KnowledgeGraph,
        communities: list[Community],
        report_embeddings: np.ndarray,
        chunk_embeddings: np.ndarray,
    ) -> "IndexBundle":
        """Bundle an index from one embedding row per chunk of ``graph``, in
        chunk id order, and one report embedding row per community, both of
        one dimension. Community i must have id i."""
        chunk_ids = graph.chunk_ids()
        chunk_store, report_store = VectorStore(chunk_embeddings), VectorStore(report_embeddings)
        if (len(chunk_store), len(report_store)) != (len(chunk_ids), len(communities)):
            raise ValueError("the embeddings need one row per chunk and one per community")
        row_of = {chunk_id: row for row, chunk_id in enumerate(chunk_ids)}
        node_rows = {
            node.id: np.array([row_of[chunk_id] for chunk_id in sorted(node.source_chunks)], dtype=np.int64)
            for node in graph.nodes()
        }
        # not np.unique, which imports numpy.ma (about 11 ms) on first use
        members = [
            np.flatnonzero(np.bincount(
                np.concatenate([node_rows[node_id] for node_id in community.completed_members]),
                minlength=len(chunk_ids),
            ))
            for community in communities
        ]
        return cls(
            graph=graph,
            chunk_store=chunk_store,
            report_store=report_store,
            trie=build_trie(graph),
            chunk_ids=chunk_ids,
            node_rows=node_rows,
            member_rows=np.concatenate(members) if members else np.zeros(0, dtype=np.int64),
            member_communities=np.repeat(np.arange(len(members), dtype=np.int64), list(map(len, members))),
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
    rescored = [replace(c, rerank_score=float(score)) for c, score in zip(candidates, scores)]
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
        raise QueryError(f"k must be >= 1, got {k}")
    diagnostics: list[str] = []
    analysis = compute_beta(query, bundle.trie, cfg)
    graph = bundle.graph

    query_vec: np.ndarray | None = None
    try:
        query_vec = embed_client.embed([query])[0]
    except Exception as exc:
        diagnostics.append(f"embedding client failed: {exc}; vector and community channels disabled")
        log.warning(diagnostics[-1])

    # community channel over whole communities, in community order
    community_scores = np.zeros(len(bundle.report_store))
    if query_vec is not None and not ablate_community:
        community_scores = score_community_channel(query_vec, bundle.report_store)

    # graph channel over chunks with provenance near linked entities
    graph_scores = np.zeros(len(bundle.chunk_ids))
    reach: list[tuple[str, np.ndarray]] = []
    if not ablate_graph:
        graph_scores, reach = graph_channel_scores(analysis, graph, bundle.node_rows, len(bundle.chunk_ids), cfg.khop)

    # gather and cap candidates over chunk-store rows; every chunk's cosine
    # comes from one pass over the store
    rows, s_graph, s_comm, s_vector = select_candidates(
        graph_scores,
        bundle.chunk_store.similarities(query_vec) if query_vec is not None else None,
        community_scores,
        bundle.member_rows,
        bundle.member_communities,
        cfg.topk_candidates,
    )
    if not len(rows):
        return RetrievalResponse(analysis=analysis, results=(), diagnostics=tuple(diagnostics))
    fused = fuse(analysis.beta, s_graph, s_comm)

    # the reranker sees the candidates in fused order, ties by row (chunk id)
    order = np.lexsort((rows, -fused))
    results = []
    for row, graph_score, comm_score, vector_score, fused_score in zip(
        *(values[order].tolist() for values in (rows, s_graph, s_comm, s_vector, fused))
    ):
        chunk_id = bundle.chunk_ids[row]
        chunk = graph.chunk(chunk_id)
        results.append(
            RetrievalResult(
                chunk_id=chunk_id,
                document_id=chunk.document_id,
                text=chunk.text,
                s_graph=graph_score,
                s_comm=comm_score,
                s_vector=vector_score,
                fused=fused_score,
                rerank_score=fused_score,
                provenance={
                    "entities": sorted({name for name, reached in reach if reached[row]}),
                    # a community's index is its id, and member_communities ascends
                    "communities": bundle.member_communities[bundle.member_rows == row].tolist(),
                },
            )
        )
    selected, fell_back = rerank_select(query, results, rerank_client, k)
    if fell_back:
        diagnostics.append("rerank client failed; results follow fused ordering")
    return RetrievalResponse(analysis=analysis, results=tuple(selected), diagnostics=tuple(diagnostics))
