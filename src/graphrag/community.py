"""Community layer: attribute-aware clustering and report generation.

The clustering objective extends classical modularity with a pairwise
attribute-similarity term weighted by ``alpha``; the optimizer is a
deterministic greedy local-move/aggregate scheme. Communities are then
boundary-completed: an outside neighbor joins when the fraction of its
(binary) adjacency pointing into the community reaches ``tau``. Orthogonal
community dimensions come from shared attribute values and from multi-hop
relation-path patterns.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .embedding import EmbeddingClient, HashingEmbedder
from .errors import UndefinedModularityError, UnknownNodeError
from .extraction import ChatClient
from .graph_store import KnowledgeGraph
from .textnorm import canonical_name, collapse_ws

log = logging.getLogger(__name__)

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class Partition:
    """Dense community assignment: ids are 0..community_count-1 and every
    node of the clustered graph appears exactly once."""

    assignment: dict[int, int]
    community_count: int

    def __post_init__(self) -> None:
        if self.assignment:
            labels = set(self.assignment.values())
            if labels != set(range(self.community_count)):
                raise ValueError("community ids must be dense 0..n-1")
        elif self.community_count != 0:
            raise ValueError("empty assignment with nonzero community count")

    @classmethod
    def from_labels(cls, labels: Mapping[int, int]) -> "Partition":
        """Relabel arbitrary community labels densely, ordered by each
        community's smallest node id (deterministic)."""
        groups: dict[int, list[int]] = {}
        for node in sorted(labels):
            groups.setdefault(labels[node], []).append(node)
        ordered = sorted(groups.values(), key=lambda members: members[0])
        assignment = {}
        for new_id, members in enumerate(ordered):
            for node in members:
                assignment[node] = new_id
        return cls(assignment=assignment, community_count=len(ordered))

    def members_of(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.community_count)]
        for node in sorted(self.assignment):
            groups[self.assignment[node]].append(node)
        return groups


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for the clustering stage.

    ``attribute_scope`` picks how the optimizer's move gain accounts for the
    attribute term: "2hop" restricts attribute pairs to nodes within two hops
    (cheap, the default), "full" uses every node pair exactly as the metric
    does. The reported metric is always the full-pair objective.
    """

    alpha: float = 0.5
    tau: float = 0.3
    max_passes: int = 10
    min_community_size: int = 2
    seed: int | None = None
    attribute_scope: str = "2hop"

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.attribute_scope not in ("2hop", "full"):
            raise ValueError("attribute_scope must be '2hop' or 'full'")


@dataclass(frozen=True)
class Community:
    """A node group along one dimension. ``completed_members`` is the
    boundary-completed superset; equal to ``members`` until completion runs.
    ``dimension`` tags the origin: "topology", "attribute:<key>", or
    "multihop:<root>:<hops>". ``internal_edges`` holds the keys of the edges
    among ``completed_members``, which the community's report lists.
    ``label`` carries the shared attribute value or the root name where that
    makes sense."""

    id: int
    dimension: str
    members: frozenset[int]
    completed_members: frozenset[int]
    internal_edges: tuple[tuple[int, int, str], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("community has no members")
        if not self.members <= self.completed_members:
            raise ValueError("members must be a subset of completed_members")


@dataclass(frozen=True)
class CommunityReport:
    community_id: int
    title: str
    summary: str
    dimension: str
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    embedding: tuple[float, ...]
    source_chunks: tuple[str, ...]


# -- attribute similarity ------------------------------------------------------


def _attribute_pairs(attrs: Mapping[str, object]) -> frozenset[tuple[str, str]]:
    pairs = set()
    for key, values in attrs.items():
        if isinstance(values, str):
            values = [values]
        for v in values:
            v = collapse_ws(str(v))
            if v:
                pairs.add((canonical_name(str(key)), canonical_name(v)))
    return frozenset(pairs)


def attribute_similarity(a: Mapping[str, object], b: Mapping[str, object]) -> float:
    """Jaccard overlap of canonicalized (key, value) attribute pairs.
    Two empty attribute sets score 0, not 1."""
    pa, pb = _attribute_pairs(a), _attribute_pairs(b)
    if not pa or not pb:
        return 0.0
    union = len(pa | pb)
    return len(pa & pb) / union


# -- modularity metric -----------------------------------------------------------


def modularity_multi(graph: KnowledgeGraph, partition: Partition, alpha: float) -> float:
    """Attribute-aware modularity of a partition.

    Literal double sum over ordered same-community node pairs: the structural
    term (weights minus the degree-product null model) includes i = j per
    convention, the attribute term excludes it. Self-loop edges never count.
    Raises UndefinedModularityError when the graph has no edge weight.
    """
    m = graph.total_weight()
    if m <= 0.0:
        raise UndefinedModularityError("modularity needs at least one non-loop edge")
    nodes = graph.node_ids()
    if set(partition.assignment) != set(nodes):
        raise ValueError("partition does not cover exactly the graph's nodes")
    adj = graph.undirected_adjacency()
    k = {i: sum(adj[i][j] for j in sorted(adj[i])) for i in nodes}
    attrs = {i: graph.node(i).attributes for i in nodes}
    two_m = 2.0 * m
    q = 0.0
    for members in partition.members_of():
        for i in members:
            for j in members:
                q += adj[i].get(j, 0.0) - k[i] * k[j] / two_m
                if i != j and alpha != 0.0:
                    q += alpha * attribute_similarity(attrs[i], attrs[j])
    return q / two_m


# -- optimizer --------------------------------------------------------------------


class _Level:
    """Working graph for one aggregation level. Supernode i carries its
    symmetric adjacency, internal (self) weight, the pairwise attribute mass
    to other supernodes, its internal attribute mass, and the original
    members it stands for."""

    __slots__ = ("adj", "selfw", "attr_adj", "attr_self", "members", "k")

    def __init__(self, n: int):
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.selfw = [0.0] * n
        self.attr_adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.attr_self = [0.0] * n
        self.members: list[list[int]] = [[] for _ in range(n)]
        self.k = [0.0] * n

    def finish_degrees(self) -> None:
        for i in range(len(self.k)):
            self.k[i] = sum(self.adj[i][j] for j in sorted(self.adj[i])) + 2.0 * self.selfw[i]

    @property
    def size(self) -> int:
        return len(self.members)


def _initial_level(graph: KnowledgeGraph, scope: str) -> _Level:
    nodes = graph.node_ids()
    index = {node: i for i, node in enumerate(nodes)}
    level = _Level(len(nodes))
    adj = graph.undirected_adjacency()
    for node in nodes:
        i = index[node]
        level.members[i] = [node]
        for other in sorted(adj[node]):
            level.adj[i][index[other]] = adj[node][other]
    # Only pairs sharing a canonical (key, value) have nonzero similarity, so
    # candidates come from an inverted index instead of all n^2 pairs. The
    # Jaccard arithmetic matches attribute_similarity exactly.
    pair_sets = [_attribute_pairs(graph.node(node).attributes) for node in nodes]
    holders: dict[tuple[str, str], list[int]] = {}
    for i, pairs in enumerate(pair_sets):
        for pair in pairs:
            holders.setdefault(pair, []).append(i)  # ascending: i increases
    for i, pa in enumerate(pair_sets):
        candidates: set[int] = set()
        for pair in pa:
            held = holders[pair]
            candidates.update(held[bisect_right(held, i):])
        if scope == "2hop" and candidates:  # neighbors plus neighbors-of-neighbors
            near = set(level.adj[i])
            for nb in level.adj[i]:
                near.update(level.adj[nb])
            candidates &= near
        for j in candidates:
            pb = pair_sets[j]
            s = len(pa & pb) / len(pa | pb)
            level.attr_adj[i][j] = s
            level.attr_adj[j][i] = s
    level.finish_degrees()
    return level


def _flat_labels(level: _Level, comm: list[int]) -> dict[int, int]:
    labels = {}
    for i, members in enumerate(level.members):
        for node in members:
            labels[node] = comm[i]
    return labels


def _local_moves(
    level: _Level,
    comm: list[int],
    m: float,
    alpha: float,
    rng: random.Random | None,
) -> bool:
    """Greedy move phase. Visits supernodes in ascending id order (shuffled
    only when a seed is set), moving each to the graph-neighboring community
    with the largest positive gain; ties go to the lowest community id.
    Returns whether any move happened."""
    n = level.size
    k_tot: dict[int, float] = {}
    for i in range(n):
        k_tot[comm[i]] = k_tot.get(comm[i], 0.0) + level.k[i]
    moved_any = False
    improved = True
    while improved:
        improved = False
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        for v in order:
            a = comm[v]
            if not level.adj[v]:
                continue  # isolated supernode: no neighboring community
            w_vc: dict[int, float] = {}
            for u in sorted(level.adj[v]):
                c = comm[u]
                w_vc[c] = w_vc.get(c, 0.0) + level.adj[v][u]
            p_vc: dict[int, float] = {}
            for u in sorted(level.attr_adj[v]):
                c = comm[u]
                p_vc[c] = p_vc.get(c, 0.0) + level.attr_adj[v][u]
            k_v = level.k[v]
            stay_gain = (
                w_vc.get(a, 0.0) / m
                + alpha * p_vc.get(a, 0.0) / m
                - k_v * (k_tot[a] - k_v) / (2.0 * m * m)
            )
            best_c = a
            best_delta = 0.0
            for c in sorted(w_vc):
                if c == a:
                    continue
                gain = (
                    w_vc[c] / m
                    + alpha * p_vc.get(c, 0.0) / m
                    - k_v * k_tot.get(c, 0.0) / (2.0 * m * m)
                )
                delta = gain - stay_gain
                if delta > best_delta + _TIE_EPS:
                    best_c = c
                    best_delta = delta
            if best_c != a:
                comm[v] = best_c
                k_tot[a] -= k_v
                k_tot[best_c] = k_tot.get(best_c, 0.0) + k_v
                moved_any = True
                improved = True
    return moved_any


def _aggregate(level: _Level, comm: list[int]) -> _Level:
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comm):
        groups.setdefault(c, []).append(i)
    ordered = sorted(groups.values(), key=lambda idxs: min(level.members[i][0] for i in idxs))
    remap = {}
    for new_id, idxs in enumerate(ordered):
        for i in idxs:
            remap[comm[i]] = new_id
    nxt = _Level(len(ordered))
    for new_id, idxs in enumerate(ordered):
        merged: list[int] = []
        for i in idxs:
            merged.extend(level.members[i])
            nxt.selfw[new_id] += level.selfw[i]
            nxt.attr_self[new_id] += level.attr_self[i]
        nxt.members[new_id] = sorted(merged)
    n = level.size
    for i in range(n):
        ci = remap[comm[i]]
        for j in sorted(level.adj[i]):
            if j <= i:
                continue
            w = level.adj[i][j]
            cj = remap[comm[j]]
            if ci == cj:
                nxt.selfw[ci] += w
            else:
                nxt.adj[ci][cj] = nxt.adj[ci].get(cj, 0.0) + w
                nxt.adj[cj][ci] = nxt.adj[cj].get(ci, 0.0) + w
        for j in sorted(level.attr_adj[i]):
            if j <= i:
                continue
            s = level.attr_adj[i][j]
            cj = remap[comm[j]]
            if ci == cj:
                nxt.attr_self[ci] += s
            else:
                nxt.attr_adj[ci][cj] = nxt.attr_adj[ci].get(cj, 0.0) + s
                nxt.attr_adj[cj][ci] = nxt.attr_adj[cj].get(ci, 0.0) + s
    nxt.finish_degrees()
    return nxt


def louvain_cluster(graph: KnowledgeGraph, params: ClusterParams | None = None) -> Partition:
    """Optimize the attribute-aware objective by local moves + aggregation.

    Deterministic by default: ascending visit order, largest-gain move,
    lowest-community-id tie break. The result's full-pair objective value is
    never below the singleton partition's (attribute similarities are
    non-negative, so accepted moves can only help).
    """
    params = params or ClusterParams()
    m = graph.total_weight()
    if m <= 0.0:
        raise UndefinedModularityError("clustering needs at least one non-loop edge")
    level = _initial_level(graph, params.attribute_scope)
    rng = random.Random(params.seed) if params.seed is not None else None
    comm = list(range(level.size))
    for _ in range(params.max_passes):
        moved = _local_moves(level, comm, m, params.alpha, rng)
        if not moved:
            break
        level = _aggregate(level, comm)
        comm = list(range(level.size))
    return Partition.from_labels(_flat_labels(level, comm))


# -- boundary completion ------------------------------------------------------------


def boundary_affinities(graph: KnowledgeGraph, members: frozenset[int] | set[int]) -> dict[int, float]:
    """For every outside neighbor of the member set, the fraction of its
    distinct neighbors that lie inside. Always within [0, 1]."""
    outside: set[int] = set()
    for v in sorted(members):
        outside |= graph.neighbors(v)
    outside -= set(members)
    result = {}
    for u in sorted(outside):
        neighbors = graph.neighbors(u)
        if not neighbors:
            continue
        result[u] = len(neighbors & set(members)) / len(neighbors)
    return result


def edges_within(graph: KnowledgeGraph, node_ids: frozenset[int] | set[int]) -> tuple[tuple[int, int, str], ...]:
    return tuple(
        edge.key for edge in graph.edges()
        if edge.head in node_ids and edge.tail in node_ids
    )


def complete_community(graph: KnowledgeGraph, community: Community, tau: float) -> Community:
    """Single-round boundary completion against the original member set.

    An outside node with at least one edge into the community joins the
    completed set when its member-adjacency fraction is >= tau. Absorbed
    nodes do not recruit further (no cascade), so the operation is idempotent
    for fixed members and tau. tau=0 absorbs every outside neighbor.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    completed = set(community.members)
    for node, affinity in boundary_affinities(graph, community.members).items():
        if affinity >= tau:
            completed.add(node)
    return replace(
        community,
        completed_members=frozenset(completed),
        internal_edges=edges_within(graph, frozenset(completed)),
    )


# -- orthogonal dimensions ------------------------------------------------------------


def communities_from_partition(graph: KnowledgeGraph, partition: Partition) -> list[Community]:
    out = []
    for cid, members in enumerate(partition.members_of()):
        member_set = frozenset(members)
        out.append(
            Community(
                id=cid,
                dimension="topology",
                members=member_set,
                completed_members=member_set,
                internal_edges=edges_within(graph, member_set),
            )
        )
    return out


def attribute_cluster(graph: KnowledgeGraph, attribute_key: str, min_size: int = 2) -> list[Community]:
    """One community per distinct canonicalized value of the given attribute
    key. Nodes lacking the key are left out; multi-valued nodes appear in
    every matching community; groups below ``min_size`` are dropped."""
    key = canonical_name(attribute_key)
    groups: dict[str, set[int]] = {}
    for node in graph.nodes():
        for value in node.attributes.get(key, ()):  # keys stored canonicalized
            groups.setdefault(canonical_name(value), set()).add(node.id)
    out = []
    next_id = 0
    for value in sorted(groups):
        members = frozenset(groups[value])
        if len(members) < min_size:
            log.info("attribute %s=%s: only %d member(s), below min size %d",
                     key, value, len(members), min_size)
            continue
        out.append(
            Community(
                id=next_id,
                dimension=f"attribute:{key}",
                members=members,
                completed_members=members,
                internal_edges=edges_within(graph, members),
                label=value,
            )
        )
        next_id += 1
    return out


def multihop_subgraph(
    graph: KnowledgeGraph,
    root: int,
    hops: int,
    patterns: Sequence[Sequence[str]] = (),
) -> Community:
    """Nodes reachable from the root along directed simple paths of length
    <= hops whose relation sequence prefix-matches one of the patterns.

    An empty pattern list accepts every relation sequence. The root itself is
    always included (the empty path). Growing ``hops`` can only grow the set.
    """
    root_node = graph.node(root)  # raises UnknownNodeError
    if hops < 0:
        raise ValueError("hops must be >= 0")
    folded_patterns = [tuple(canonical_name(r) for r in p) for p in patterns]
    found = {root}

    def admissible(rels: tuple[str, ...]) -> bool:
        if not folded_patterns:
            return True
        return any(
            len(rels) <= len(p) and p[: len(rels)] == rels
            for p in folded_patterns
        )

    def walk(node: int, on_path: frozenset[int], rels: tuple[str, ...]) -> None:
        if len(rels) >= hops:
            return
        for edge in graph.out_edges(node):
            if edge.tail in on_path:
                continue  # simple paths only
            nxt = rels + (canonical_name(edge.relation),)
            if not admissible(nxt):
                continue
            found.add(edge.tail)
            walk(edge.tail, on_path | {edge.tail}, nxt)

    walk(root, frozenset({root}), ())
    members = frozenset(found)
    return Community(
        id=0,
        dimension=f"multihop:{root}:{hops}",
        members=members,
        completed_members=members,
        internal_edges=edges_within(graph, members),
        label=root_node.name,
    )


# -- reports ------------------------------------------------------------------------


def _report_context(community: Community, graph: KnowledgeGraph) -> tuple[list[str], list[str], list[str], list[str]]:
    member_ids = sorted(community.completed_members)
    boundary = community.completed_members - community.members
    entity_lines = []
    for node_id in member_ids:
        node = graph.node(node_id)
        parts = [f"- {node.name} ({node.entity_type})"]
        attr_bits = []
        for key in sorted(node.attributes):
            attr_bits.append(f"{key}={', '.join(node.attributes[key])}")
        if attr_bits:
            parts.append("[" + "; ".join(attr_bits) + "]")
        if node_id in boundary:
            parts.append("(boundary)")
        entity_lines.append(" ".join(parts))
    relation_lines = []
    for head, tail, relation in community.internal_edges:
        relation_lines.append(f"- {graph.node(head).name} -{relation}-> {graph.node(tail).name}")
    histogram = Counter()
    for node_id in member_ids:
        node = graph.node(node_id)
        for key in sorted(node.attributes):
            for value in node.attributes[key]:
                histogram[f"{key}={canonical_name(value)}"] += 1
    histogram_lines = [f"- {pair}: {count}" for pair, count in sorted(histogram.items())]
    chunk_ids = sorted({c for nid in member_ids for c in graph.node(nid).source_chunks})
    return entity_lines, relation_lines, histogram_lines, chunk_ids


def generate_report(
    community: Community,
    graph: KnowledgeGraph,
    client: ChatClient | None = None,
    embedder: EmbeddingClient | None = None,
) -> CommunityReport:
    """Render a community into a titled, embedded report.

    With a chat client the title/summary come from the model; on any client
    failure (or no client) the deterministic template takes over: entity
    list, relation list, attribute histogram. Embedding failures are not
    swallowed; retrieval cannot use an unembedded report.
    """
    entity_lines, relation_lines, histogram_lines, chunk_ids = _report_context(community, graph)
    sections = ["Entities:"] + entity_lines
    if relation_lines:
        sections += ["", "Relations:"] + relation_lines
    if histogram_lines:
        sections += ["", "Attributes:"] + histogram_lines
    template_summary = "\n".join(sections)
    names = [graph.node(n).name for n in sorted(community.completed_members)]
    template_title = f"Community {community.id} [{community.dimension}]: " + ", ".join(names[:3])

    title, summary = template_title, template_summary
    if client is not None:
        excerpts = []
        for cid in chunk_ids[:3]:
            if graph.has_chunk(cid):
                excerpts.append(f"- {collapse_ws(graph.chunk(cid).text)[:200]}")
        prompt = "\n".join(
            [template_summary]
            + (["", "Source excerpts:"] + excerpts if excerpts else [])
            + [
                "",
                "Write a short report about this entity group.",
                "First line must be 'Title: <short title>'; then a paragraph.",
            ]
        )
        try:
            raw = client.complete("You summarize knowledge-graph communities.", prompt, temperature=0.0)
            first, _, rest = raw.partition("\n")
            if first.strip().lower().startswith("title:") and rest.strip():
                title = first.split(":", 1)[1].strip()
                summary = rest.strip()
            else:
                log.warning("community %d: summary reply missing title; using template", community.id)
        except Exception as exc:
            log.warning("community %d: summarization failed (%s); using template", community.id, exc)

    embedder = embedder or HashingEmbedder()
    vector = embedder.embed([summary])[0]
    return CommunityReport(
        community_id=community.id,
        title=title,
        summary=summary,
        dimension=community.dimension,
        entities=tuple(names),
        relations=tuple(relation_lines),
        embedding=tuple(float(x) for x in vector),
        source_chunks=tuple(chunk_ids),
    )
