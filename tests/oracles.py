"""Independent reference implementations the tests check the package against.

Everything here favors clarity over speed: literal double sums, exhaustive
enumeration, full sorts. Nothing imports package internals, so a bug cannot
hide in shared code; an oracle that must build a package object takes the
package class it needs as an argument.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Pair = tuple[int, int]


# -- graph snapshots -------------------------------------------------------------------


def undirected_weights(edges: Iterable[tuple[int, int, float]]) -> dict[Pair, float]:
    """Fold directed weighted edges into unordered-pair weights, dropping
    self-loops. Parallel and reciprocal edges sum."""
    weights: dict[Pair, float] = {}
    for head, tail, weight in edges:
        if head == tail:
            continue
        key = (min(head, tail), max(head, tail))
        weights[key] = weights.get(key, 0.0) + weight
    return weights


def snapshot(graph) -> tuple[list[int], dict[Pair, float], dict[int, dict]]:
    """Extract (node ids, pair weights, attributes) from a KnowledgeGraph by
    reading raw records only."""
    nodes = sorted(n.id for n in graph.nodes())
    weights = undirected_weights((e.head, e.tail, e.weight) for e in graph.edges())
    attrs = {n.id: {k: list(v) for k, v in n.attributes.items()} for n in graph.nodes()}
    return nodes, weights, attrs


def weighted_degree(graph, node_id: int) -> float:
    """Sum of the weights of the non-loop edges touching ``node_id``, in
    either direction and under any relation."""
    return sum(
        e.weight for e in graph.edges() if e.head != e.tail and node_id in (e.head, e.tail)
    )


def structurally_equal(a, b) -> bool:
    """Two KnowledgeGraphs hold the same nodes, edges and chunks, field by
    field, and the same schema version and next node id."""
    if (a._next_id, a.schema_version) != (b._next_id, b.schema_version):
        return False
    nodes_a = [(n.id, n.name, n.entity_type, n.attributes, n.source_chunks, n.aliases) for n in a.nodes()]
    nodes_b = [(n.id, n.name, n.entity_type, n.attributes, n.source_chunks, n.aliases) for n in b.nodes()]
    edges_a = [(e.key, e.weight, e.source_chunks) for e in a.edges()]
    edges_b = [(e.key, e.weight, e.source_chunks) for e in b.edges()]
    chunks_a = [(c.id, c.document_id, c.text, c.char_offset) for c in a.chunks()]
    chunks_b = [(c.id, c.document_id, c.text, c.char_offset) for c in b.chunks()]
    return (nodes_a, edges_a, chunks_a) == (nodes_b, edges_b, chunks_b)


# -- attribute similarity ---------------------------------------------------------------


def jaccard_attrs(a: Mapping[str, Sequence[str]], b: Mapping[str, Sequence[str]]) -> float:
    pairs_a = {(k, v) for k, vs in a.items() for v in vs}
    pairs_b = {(k, v) for k, vs in b.items() for v in vs}
    union = pairs_a | pairs_b
    if not union:
        return 0.0
    return len(pairs_a & pairs_b) / len(union)


# -- modularity -------------------------------------------------------------------------


def degrees(nodes: Sequence[int], weights: Mapping[Pair, float]) -> dict[int, float]:
    k = {n: 0.0 for n in nodes}
    for (i, j), w in weights.items():
        k[i] += w
        k[j] += w
    return k


def modularity_oracle(
    nodes: Sequence[int],
    weights: Mapping[Pair, float],
    attrs: Mapping[int, Mapping[str, Sequence[str]]],
    assignment: Mapping[int, int],
    alpha: float,
) -> float:
    """Attribute-augmented modularity as a literal double sum over ordered
    node pairs. The structural term includes i == j (zero adjacency, nonzero
    degree product); the attribute term covers distinct pairs only."""
    m = sum(weights.values())
    if m <= 0:
        raise ValueError("modularity needs positive total edge weight")
    k = degrees(nodes, weights)
    total = 0.0
    for i in nodes:
        for j in nodes:
            if assignment[i] != assignment[j]:
                continue
            adj = weights.get((min(i, j), max(i, j)), 0.0) if i != j else 0.0
            total += adj - k[i] * k[j] / (2.0 * m)
            if i != j:
                total += alpha * jaccard_attrs(attrs.get(i, {}), attrs.get(j, {}))
    return total / (2.0 * m)


# -- local moves ---------------------------------------------------------------------------


def local_move_pass(
    nodes: Sequence[int],
    weights: Mapping[Pair, float],
    attrs: Mapping[int, Mapping[str, Sequence[str]]],
    alpha: float,
    tie: float = 1e-9,
) -> tuple[dict[int, int], bool]:
    """The optimizer's first local-move phase, every move scored by
    recomputing the whole metric.

    Each node starts in its own community, labeled by its id. Sweeps visit
    nodes in ascending order until one makes no move; a node may join only a
    community holding one of its graph neighbors, takes the largest positive
    metric gain, and breaks exact ties toward the lowest label. Returns the
    final assignment and whether any decision had its best two deltas (staying
    counts as delta 0) within ``tie`` of each other, where float rounding may
    legitimately pick either.
    """
    neighbors: dict[int, set[int]] = {n: set() for n in nodes}
    for i, j in weights:
        neighbors[i].add(j)
        neighbors[j].add(i)
    assignment = {n: n for n in nodes}
    ambiguous = False
    improved = True
    while improved:
        improved = False
        for v in sorted(nodes):
            own = assignment[v]
            current = modularity_oracle(nodes, weights, attrs, assignment, alpha)
            deltas = {own: 0.0}
            for c in sorted({assignment[u] for u in neighbors[v]} - {own}):
                trial = dict(assignment)
                trial[v] = c
                deltas[c] = modularity_oracle(nodes, weights, attrs, trial, alpha) - current
            ranked = sorted(deltas.values(), reverse=True)
            if len(ranked) > 1 and ranked[0] - ranked[1] <= tie:
                ambiguous = True
            best, best_delta = own, 0.0
            for c in sorted(deltas):  # strict > keeps the lowest label on a tie
                if c != own and deltas[c] > best_delta:
                    best, best_delta = c, deltas[c]
            if best != own:
                assignment[v] = best
                improved = True
    return assignment, ambiguous


def pairwise_initial_level(graph, level_cls, similarity):
    """The optimizer's first level built the quadratic way: ``similarity``
    called on every node pair. ``level_cls`` and ``similarity`` are the
    package's level type and attribute-similarity function."""
    nodes = graph.node_ids()
    index = {node: i for i, node in enumerate(nodes)}
    level = level_cls(len(nodes))
    adj = graph.undirected_adjacency()
    for node in nodes:
        i = index[node]
        level.members[i] = [node]
        for other in sorted(adj[node]):
            level.adj[i][index[other]] = adj[node][other]
    attrs = [graph.node(node).attributes for node in nodes]
    pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    for i, j in pairs:
        s = similarity(attrs[i], attrs[j])
        if s > 0.0:
            level.attr_adj[i][j] = s
            level.attr_adj[j][i] = s
    level.finish_degrees()
    return level


# -- partition enumeration ---------------------------------------------------------------


def singletons(partition_cls, node_ids: Iterable[int]):
    """The partition that puts every node in its own community, numbered in
    ascending node order, built as a ``partition_cls``."""
    ids = sorted(node_ids)
    return partition_cls(assignment={n: i for i, n in enumerate(ids)}, community_count=len(ids))


def set_partitions(items: Sequence[int]) -> Iterator[dict[int, int]]:
    """Every partition of ``items`` as an assignment map, via restricted
    growth strings. Bell(len(items)) results."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield {}
        return
    rgs = [0] * n

    def grow(pos: int, max_label: int) -> Iterator[dict[int, int]]:
        if pos == n:
            yield {items[i]: rgs[i] for i in range(n)}
            return
        for label in range(max_label + 2):
            rgs[pos] = label
            yield from grow(pos + 1, max(max_label, label))

    yield from grow(1, 0)


def best_partitions(
    nodes: Sequence[int],
    weights: Mapping[Pair, float],
    attrs: Mapping[int, Mapping[str, Sequence[str]]],
    alpha: float,
    tolerance: float = 1e-12,
) -> tuple[float, list[dict[int, int]]]:
    """Exhaustive global optimum of the attribute-augmented modularity.

    Returns the best score and every assignment within ``tolerance`` of it.
    Feasible only for small node counts (Bell numbers grow fast).
    """
    best = -math.inf
    winners: list[dict[int, int]] = []
    for assignment in set_partitions(nodes):
        q = modularity_oracle(nodes, weights, attrs, assignment, alpha)
        if q > best + tolerance:
            best = q
            winners = [dict(assignment)]
        elif q >= best - tolerance:
            winners.append(dict(assignment))
    return best, winners


def canonical_assignment(assignment: Mapping[int, int]) -> tuple[int, ...]:
    """Relabel communities by first appearance over sorted node ids, so two
    assignments compare equal exactly when they induce the same grouping."""
    relabel: dict[int, int] = {}
    out = []
    for node in sorted(assignment):
        label = assignment[node]
        if label not in relabel:
            relabel[label] = len(relabel)
        out.append(relabel[label])
    return tuple(out)


# -- schema -------------------------------------------------------------------------------


def validate_graph(graph, schema) -> list[str]:
    """Every schema violation in a graph, empty when it is clean: a node of
    an undeclared type, or an edge whose relation is undeclared or whose head
    or tail type lies outside the relation's domain or range."""
    declared = {t.casefold() for t in schema.entity_types}
    problems = []
    for node in graph.nodes():
        if node.entity_type.casefold() not in declared:
            problems.append(f"node {node.id} ({node.name!r}) has undeclared type {node.entity_type!r}")
    for edge in graph.edges():
        head_type = graph.node(edge.head).entity_type
        tail_type = graph.node(edge.tail).entity_type
        domain, range_ = schema.constraints.get(edge.relation.casefold(), ((), ()))
        if head_type.casefold() not in domain or tail_type.casefold() not in range_:
            problems.append(f"edge {edge.key} violates the schema ({head_type} -{edge.relation}-> {tail_type})")
    return problems


# -- traversal ----------------------------------------------------------------------------


def khop_nodes(pairs: Iterable[Pair], start: int, k: int) -> set[int]:
    """Undirected BFS ball of radius k around start."""
    adjacency: dict[int, set[int]] = {}
    for i, j in pairs:
        if i == j:
            continue
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == k:
            continue
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return seen


def reachable_by_simple_paths(
    out_edges: Mapping[int, Sequence[tuple[str, int]]],
    root: int,
    max_hops: int,
    patterns: Sequence[Sequence[str]] = (),
) -> set[int]:
    """Nodes at the end of some directed simple path from the root of length
    <= max_hops whose relation sequence is a prefix of an allowed pattern.
    Enumerates every simple path outright; exponential, test-sized only."""
    allowed = [tuple(p) for p in patterns]

    def admits(rels: tuple[str, ...]) -> bool:
        if not allowed:
            return True
        return any(len(rels) <= len(p) and tuple(p[: len(rels)]) == rels for p in allowed)

    found = {root}
    stack = [(root, (root,), ())]
    while stack:
        node, path, rels = stack.pop()
        if len(rels) >= max_hops:
            continue
        for relation, target in out_edges.get(node, ()):
            if target in path:
                continue
            extended = rels + (relation,)
            if not admits(extended):
                continue
            found.add(target)
            stack.append((target, path + (target,), extended))
    return found


# -- entity linking -----------------------------------------------------------------------


class _TrieNodeRef:
    def __init__(self):
        self.children: dict[str, _TrieNodeRef] = {}
        self.ids: set[int] = set()


class EntityTrieRef:
    """Token-sequence prefix tree mapping entity surface forms to node ids,
    walked one token at a time."""

    def __init__(self):
        self._root = _TrieNodeRef()
        self._size = 0

    def insert(self, tokens: Sequence[str], node_id: int) -> None:
        if not tokens:
            return
        node = self._root
        for token in tokens:
            node = node.children.setdefault(token, _TrieNodeRef())
        if not node.ids:
            self._size += 1
        node.ids.add(node_id)

    def __len__(self) -> int:
        return self._size

    def longest_match(self, tokens: Sequence[str], start: int) -> tuple[int, frozenset[int]] | None:
        """The deepest node carrying ids along the walk from ``start``."""
        node = self._root
        best = None
        i = start
        while i < len(tokens):
            node = node.children.get(tokens[i])
            if node is None:
                break
            i += 1
            if node.ids:
                best = (i, frozenset(node.ids))
        return best


def link_entities_ref(tokens: Sequence[str], trie: EntityTrieRef) -> list[tuple[int, tuple[int, int], float]]:
    """Greedy left-to-right longest-match linking as (node id, span,
    confidence), a shared form splitting its span's coverage equally."""
    links = []
    i = 0
    while i < len(tokens):
        match = trie.longest_match(tokens, i)
        if match is None:
            i += 1
            continue
        end, ids = match
        for node_id in sorted(ids):
            links.append((node_id, (i, end), (end - i) / len(tokens) / len(ids)))
        i = end
    return links


# -- scoring ------------------------------------------------------------------------------


def softmax_ref(scores: Sequence[float]) -> list[float]:
    exps = [math.exp(s) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def top_k_ref(scored: Mapping[str, float], k: int) -> list[tuple[str, float]]:
    ordered = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


def minmax_ref(values: Mapping[str, float]) -> dict[str, float]:
    if not values:
        return {}
    lo, hi = min(values.values()), max(values.values())
    if hi <= lo:
        return {key: 0.0 for key in values}
    return {key: (v - lo) / (hi - lo) for key, v in values.items()}


def fuse_ref(beta: float, graph_scores: Mapping[str, float], community_scores: Mapping[str, float]) -> dict[str, float]:
    """beta*graph + (1-beta)*community over min-max normalized channels,
    one chunk at a time."""
    ng, nc = minmax_ref(graph_scores), minmax_ref(community_scores)
    return {cid: beta * ng[cid] + (1.0 - beta) * nc[cid] for cid in graph_scores}


def graph_channel_scores_ref(links, graph, khop: int) -> tuple[dict[str, float], dict[str, set[str]]]:
    """The graph channel over dicts keyed by chunk id. For each link (an
    object with ``node_id`` and ``confidence``), in order, every chunk cited
    by c of the n nodes in the link's k-hop ball gains confidence * c / n,
    and the linked node's name joins the chunk's provenance. The ball is
    ``khop_nodes`` over the graph's edges; chunks no ball cites are absent."""
    pairs = [(edge.head, edge.tail) for edge in graph.edges()]
    scores: dict[str, float] = {}
    provenance: dict[str, set[str]] = {}
    for link in links:
        reached = khop_nodes(pairs, link.node_id, khop)
        presence: dict[str, int] = {}
        for node_id in reached:
            for chunk_id in graph.node(node_id).source_chunks:
                presence[chunk_id] = presence.get(chunk_id, 0) + 1
        name = graph.node(link.node_id).name
        for chunk_id, count in sorted(presence.items()):
            scores[chunk_id] = scores.get(chunk_id, 0.0) + link.confidence * count / len(reached)
            provenance.setdefault(chunk_id, set()).add(name)
    return scores, provenance


def select_candidates_ref(
    graph_scores: Mapping[str, float],
    vector_scores: Mapping[str, float] | None,
    community_scores: Mapping[int, float],
    chunk_memberships: Mapping[str, frozenset[int]],
    community_chunks: Mapping[int, frozenset[str]],
    k: int,
) -> list[tuple[str, float, float, float]]:
    """Candidate gather and cap over dicts, one chunk at a time.

    Candidates: chunks with a positive graph score, the top k of
    ``vector_scores`` (every chunk's cosine; None without a query vector),
    and every chunk of a positively scored community. Each channel is
    min-max normalized over the candidates, and the k best by their largest
    normalized score survive, ties by chunk id. Returns (chunk id, graph,
    community, vector score) per kept chunk, best first.
    """
    candidates = {cid for cid, s in graph_scores.items() if s > 0.0}
    if vector_scores is not None:
        candidates.update(cid for cid, _ in top_k_ref(vector_scores, k))
    for community, score in community_scores.items():
        if score > 0.0:
            candidates |= community_chunks.get(community, frozenset())
    ordered = sorted(candidates)
    graph = {cid: graph_scores.get(cid, 0.0) for cid in ordered}
    vector = {cid: vector_scores[cid] if vector_scores is not None else 0.0 for cid in ordered}
    comm = {
        cid: max((community_scores.get(c, 0.0) for c in chunk_memberships.get(cid, ())), default=0.0)
        for cid in ordered
    }
    ng, nc, nv = minmax_ref(graph), minmax_ref(comm), minmax_ref(vector)
    prefusion = {cid: max(ng[cid], nc[cid], nv[cid]) for cid in ordered}
    kept = sorted(ordered, key=lambda cid: (-prefusion[cid], cid))[:k]
    return [(cid, graph[cid], comm[cid], vector[cid]) for cid in kept]


def harmonic_f1_ref(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def token_f1_ref(query_tokens: set[str], passage_tokens: set[str]) -> float:
    if not query_tokens or not passage_tokens:
        return 0.0
    shared = len(query_tokens & passage_tokens)
    precision = shared / len(passage_tokens)
    recall = shared / len(query_tokens)
    return harmonic_f1_ref(precision, recall)


def cosine_ref(u: Sequence[float], v: Sequence[float]) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


# -- embedding ----------------------------------------------------------------------------


def hashing_embed_ref(texts: Sequence[str], dim: int) -> list[np.ndarray]:
    """The stub embedder one token at a time: each case-folded run of
    letters and digits adds 1.0 to bucket ``int(sha1(token)[:8]) % dim``,
    then the vector is divided by its L2 norm (a tokenless text stays zero)."""
    out = []
    for text in texts:
        vec = np.zeros(dim, dtype=np.float64)
        for token in re.findall(r"[^\W_]+", text.casefold()):
            digest = hashlib.sha1(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % dim] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        out.append(vec)
    return out
