"""Knowledge graph container with provenance.

Nodes are keyed for merging by (canonical name, entity type); edges are
directed subject-predicate-object records whose weight counts distinct
supporting (chunk, triple) observations. Degree, adjacency and total weight
are exposed in undirected form for the community layer, with self-loops
stored but excluded from those sums.

On-disk format: the JSON-lines records of ``records``. ``graph.jsonl``
holds a ``meta`` record, then ``node`` and ``edge`` records in that order;
``chunks.jsonl`` holds a ``meta`` record, then ``chunk`` records. The loaders
fail closed on kinds that do not belong in the file, out-of-order sections,
references to undefined nodes, and corrupt lines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import GraphFormatError, UnknownNodeError
from .records import FORMAT_VERSION, dump_jsonl, read_artifact
from .textnorm import canonical_name, collapse_ws

log = logging.getLogger(__name__)

GRAPH_NAME = "graph.jsonl"
CHUNKS_NAME = "chunks.jsonl"
# the record kinds each file holds after its meta record, in section order
_SECTIONS = {GRAPH_NAME: ("node", "edge"), CHUNKS_NAME: ("chunk",)}


@dataclass
class GraphNode:
    id: int
    name: str
    entity_type: str
    attributes: dict[str, list[str]] = field(default_factory=dict)
    source_chunks: set[str] = field(default_factory=set)
    aliases: set[str] = field(default_factory=set)


@dataclass
class GraphEdge:
    head: int
    tail: int
    relation: str
    weight: float = 1.0
    source_chunks: set[str] = field(default_factory=set)

    @property
    def self_loop(self) -> bool:
        return self.head == self.tail

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.head, self.tail, self.relation)


@dataclass
class Chunk:
    """A retrievable span of a source document. ``id`` is derived from
    (document_id, char_offset), which must be unique."""

    id: str
    document_id: str
    text: str
    char_offset: int


def make_chunk_id(document_id: str, char_offset: int) -> str:
    return f"{document_id}@{char_offset:08d}"


class KnowledgeGraph:
    """Mutable during indexing, treated as frozen afterwards.

    ``entity_types``, when given, restricts upserts to the declared types
    (case-insensitive match, declared casing stored).
    """

    def __init__(self, entity_types: Iterable[str] | None = None, schema_version: str = ""):
        self.schema_version = schema_version
        self._declared_types: dict[str, str] | None = None
        if entity_types is not None:
            self._declared_types = {t.casefold(): t for t in entity_types}
        self._nodes: dict[int, GraphNode] = {}
        self._edges: dict[tuple[int, int, str], GraphEdge] = {}
        self._out: dict[int, list[tuple[int, int, str]]] = {}
        self._in: dict[int, list[tuple[int, int, str]]] = {}
        self._name_index: dict[str, set[int]] = {}
        self._key_index: dict[tuple[str, str], int] = {}
        self._chunks: dict[str, Chunk] = {}
        self._next_id = 0

    # -- nodes --------------------------------------------------------------

    def upsert_node(
        self,
        name: str,
        entity_type: str,
        attributes: Mapping[str, object] | None = None,
        chunk: str | None = None,
    ) -> int:
        """Insert or merge a node keyed by (canonical name, entity type).

        Merging unions provenance, records case/spacing variants as aliases,
        and appends new attribute values (deduplicated canonically, earliest
        surface form kept, insertion order preserved). Returns the node id;
        ids are allocated monotonically and never reused.
        """
        surface = collapse_ws(name)
        if not surface:
            raise ValueError("node name is empty after whitespace normalization")
        etype = collapse_ws(entity_type)
        if self._declared_types is not None:
            declared = self._declared_types.get(etype.casefold())
            if declared is None:
                raise ValueError(f"entity type {etype!r} is not declared by the schema")
            etype = declared
        canon = canonical_name(surface)
        key = (canon, etype.casefold())
        node_id = self._key_index.get(key)
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
            node = GraphNode(id=node_id, name=surface, entity_type=etype)
            self._nodes[node_id] = node
            self._key_index[key] = node_id
            self._name_index.setdefault(canon, set()).add(node_id)
            self._out.setdefault(node_id, [])
            self._in.setdefault(node_id, [])
        else:
            node = self._nodes[node_id]
            if surface != node.name and surface not in node.aliases:
                node.aliases.add(surface)
        if chunk is not None:
            node.source_chunks.add(chunk)
        if attributes:
            for raw_key in attributes:
                values = attributes[raw_key]
                if isinstance(values, str):
                    values = [values]
                akey = canonical_name(str(raw_key))
                bucket = node.attributes.setdefault(akey, [])
                seen = {canonical_name(v) for v in bucket}
                for v in values:
                    v = collapse_ws(str(v))
                    if not v:
                        continue
                    cv = canonical_name(v)
                    if cv not in seen:
                        bucket.append(v)
                        seen.add(cv)
        return node_id

    def node(self, node_id: int) -> GraphNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id}") from None

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def nodes(self) -> Iterator[GraphNode]:
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def find_nodes(self, name: str) -> tuple[int, ...]:
        """Node ids whose canonical name matches (any entity type)."""
        return tuple(sorted(self._name_index.get(canonical_name(name), ())))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # -- edges ---------------------------------------------------------------

    def add_edge(self, head: int, relation: str, tail: int, chunk: str | None = None) -> GraphEdge:
        """Add or reinforce a directed edge.

        A repeat (head, tail, relation) observation increments the weight;
        the same chunk re-asserting the same triple does not (weight counts
        distinct (chunk, triple) observations). Self-loops are stored and
        flagged but never enter degree or modularity sums.
        """
        if head not in self._nodes:
            raise UnknownNodeError(f"edge head {head} is not a known node")
        if tail not in self._nodes:
            raise UnknownNodeError(f"edge tail {tail} is not a known node")
        relation = collapse_ws(relation)
        if not relation:
            raise ValueError("edge relation is empty")
        key = (head, tail, relation)
        edge = self._edges.get(key)
        if edge is None:
            edge = GraphEdge(head=head, tail=tail, relation=relation)
            self._edges[key] = edge
            self._out[head].append(key)
            self._in[tail].append(key)
            if edge.self_loop:
                log.info("self-loop stored on node %d (%s)", head, relation)
            if chunk is not None:
                edge.source_chunks.add(chunk)
        else:
            if chunk is not None and chunk in edge.source_chunks:
                return edge  # same observation repeated, not new support
            edge.weight += 1.0
            if chunk is not None:
                edge.source_chunks.add(chunk)
        return edge

    def edges(self) -> Iterator[GraphEdge]:
        for key in sorted(self._edges):
            yield self._edges[key]

    def out_edges(self, node_id: int) -> list[GraphEdge]:
        self.node(node_id)
        return [self._edges[k] for k in sorted(self._out.get(node_id, ()))]

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    # -- undirected views (community layer) -----------------------------------

    def neighbors(self, node_id: int) -> set[int]:
        """Distinct undirected neighbors, self excluded."""
        self.node(node_id)
        out = {k[1] for k in self._out.get(node_id, ())}
        inc = {k[0] for k in self._in.get(node_id, ())}
        result = out | inc
        result.discard(node_id)
        return result

    def degree(self, node_id: int) -> int:
        return len(self.neighbors(node_id))

    def total_weight(self) -> float:
        """Sum of non-loop edge weights: the m of the modularity objective."""
        return sum(self._edges[k].weight for k in sorted(self._edges) if k[0] != k[1])

    def undirected_adjacency(self) -> dict[int, dict[int, float]]:
        """Symmetric weight map A[i][j] summing all non-loop edges between i
        and j across relations and directions."""
        adj: dict[int, dict[int, float]] = {i: {} for i in self._nodes}
        for key in sorted(self._edges):
            h, t, _ = key
            if h == t:
                continue
            w = self._edges[key].weight
            adj[h][t] = adj[h].get(t, 0.0) + w
            adj[t][h] = adj[t].get(h, 0.0) + w
        return adj

    def neighborhood(self, node_id: int, k: int) -> frozenset[int]:
        """Ids of every node within k undirected hops.

        k=0 is the node alone. BFS over the undirected view, whatever the
        direction or relation of the edges crossed.
        """
        self.node(node_id)
        if k < 0:
            raise ValueError("hop count must be >= 0")
        reached = {node_id}
        frontier = [node_id]
        for _ in range(k):
            nxt = []
            for v in frontier:
                for u in sorted(self.neighbors(v)):
                    if u not in reached:
                        reached.add(u)
                        nxt.append(u)
            if not nxt:
                break
            frontier = nxt
        return frozenset(reached)

    # -- chunks ---------------------------------------------------------------

    def add_chunk(self, chunk: Chunk) -> None:
        if chunk.id in self._chunks:
            existing = self._chunks[chunk.id]
            if (existing.document_id, existing.char_offset) != (chunk.document_id, chunk.char_offset):
                raise ValueError(f"chunk id collision: {chunk.id!r}")
            return
        self._chunks[chunk.id] = chunk

    def chunk(self, chunk_id: str) -> Chunk:
        try:
            return self._chunks[chunk_id]
        except KeyError:
            raise KeyError(f"no chunk with id {chunk_id!r}") from None

    def has_chunk(self, chunk_id: str) -> bool:
        return chunk_id in self._chunks

    def chunk_ids(self) -> list[str]:
        return sorted(self._chunks)

    def chunks(self) -> Iterator[Chunk]:
        for cid in sorted(self._chunks):
            yield self._chunks[cid]

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    # -- integrity -------------------------------------------------------------

    def audit(self) -> list[str]:
        """Internal consistency check; returns human-readable problems."""
        problems: list[str] = []
        for key, edge in self._edges.items():
            if key != edge.key:
                problems.append(f"edge stored under wrong key: {key} vs {edge.key}")
            if edge.head not in self._nodes or edge.tail not in self._nodes:
                problems.append(f"edge {key} references a missing node")
            if key not in self._out.get(edge.head, ()):
                problems.append(f"edge {key} missing from out-adjacency of {edge.head}")
            if key not in self._in.get(edge.tail, ()):
                problems.append(f"edge {key} missing from in-adjacency of {edge.tail}")
            if edge.weight < 1.0:
                problems.append(f"edge {key} has weight {edge.weight} < 1")
        for node_id, node in self._nodes.items():
            canon = canonical_name(node.name)
            if node_id not in self._name_index.get(canon, set()):
                problems.append(f"node {node_id} missing from name index under {canon!r}")
        for canon, ids in self._name_index.items():
            for node_id in ids:
                if node_id not in self._nodes:
                    problems.append(f"name index entry {canon!r} points at missing node {node_id}")
        degree_sum = sum(self.degree(n) for n in self._nodes)
        slot_count = len({(min(h, t), max(h, t)) for h, t, _ in self._edges if h != t})
        if degree_sum != 2 * slot_count:
            problems.append(f"degree sum {degree_sum} != 2 * {slot_count} undirected slots")
        return problems


# -- serialization -------------------------------------------------------------


def node_record(node: GraphNode) -> dict:
    return {
        "kind": "node",
        "id": node.id,
        "name": node.name,
        "entity_type": node.entity_type,
        "attributes": {k: node.attributes[k] for k in sorted(node.attributes)},
        "source_chunks": sorted(node.source_chunks),
        "aliases": sorted(node.aliases),
    }


def edge_record(edge: GraphEdge) -> dict:
    return {
        "kind": "edge",
        "head": edge.head,
        "tail": edge.tail,
        "relation": edge.relation,
        "weight": edge.weight,
        "source_chunks": sorted(edge.source_chunks),
    }


def chunk_record(chunk: Chunk) -> dict:
    return {
        "kind": "chunk",
        "id": chunk.id,
        "document_id": chunk.document_id,
        "char_offset": chunk.char_offset,
        "text": chunk.text,
    }


def _meta(graph: KnowledgeGraph, next_node_id: int) -> dict:
    return {"kind": "meta", "format_version": FORMAT_VERSION,
            "schema_version": graph.schema_version, "next_node_id": next_node_id}


def save_graph(graph: KnowledgeGraph) -> bytes:
    """Serialize the nodes and edges to ``graph.jsonl``'s format; the chunks
    go to ``save_chunks``."""
    return dump_jsonl(chain(
        [_meta(graph, graph._next_id)],
        map(node_record, graph.nodes()),
        map(edge_record, graph.edges()),
    ))


def _read_graph(data: bytes, name: str) -> KnowledgeGraph:
    """Build a graph from artifact ``name``, failing closed.

    Beyond the format checks of ``read_artifact`` this rejects: a repeated
    meta, a kind the file does not hold, kinds out of section order, edges
    naming undefined nodes, and duplicate ids.
    """
    sections = _SECTIONS[name]
    meta, records = read_artifact(data, name)
    graph = KnowledgeGraph()
    try:
        graph.schema_version = meta.get("schema_version", "")
        graph._next_id = int(meta["next_node_id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"{name}:1: malformed meta record ({exc})") from exc
    last_rank = 0
    max_node_id = -1
    for lineno, record in enumerate(records, start=2):
        kind = record.get("kind")
        try:
            if kind == "meta":
                raise GraphFormatError(f"{name}:{lineno}: repeated meta record")
            if kind not in sections:
                raise GraphFormatError(f"{name}:{lineno}: unexpected record kind {kind!r}")
            rank = sections.index(kind)
            if rank < last_rank:
                raise GraphFormatError(f"{name}:{lineno}: {kind} record out of section order")
            last_rank = rank
            if kind == "node":
                node_id = int(record["id"])
                if node_id in graph._nodes:
                    raise GraphFormatError(f"{name}:{lineno}: duplicate node id {node_id}")
                node = GraphNode(
                    id=node_id,
                    name=str(record["name"]),
                    entity_type=str(record["entity_type"]),
                    attributes={k: list(v) for k, v in record["attributes"].items()},
                    source_chunks=set(record["source_chunks"]),
                    aliases=set(record["aliases"]),
                )
                graph._nodes[node_id] = node
                graph._out.setdefault(node_id, [])
                graph._in.setdefault(node_id, [])
                graph._name_index.setdefault(canonical_name(node.name), set()).add(node_id)
                graph._key_index[(canonical_name(node.name), node.entity_type.casefold())] = node_id
                max_node_id = max(max_node_id, node_id)
            elif kind == "edge":
                head, tail = int(record["head"]), int(record["tail"])
                if head not in graph._nodes or tail not in graph._nodes:
                    raise GraphFormatError(
                        f"{name}:{lineno}: edge references undefined node "
                        f"{head if head not in graph._nodes else tail}"
                    )
                key = (head, tail, str(record["relation"]))
                if key in graph._edges:
                    raise GraphFormatError(f"{name}:{lineno}: duplicate edge {key}")
                edge = GraphEdge(
                    head=head,
                    tail=tail,
                    relation=key[2],
                    weight=float(record["weight"]),
                    source_chunks=set(record["source_chunks"]),
                )
                graph._edges[key] = edge
                graph._out[head].append(key)
                graph._in[tail].append(key)
            else:  # chunk
                chunk = Chunk(
                    id=str(record["id"]),
                    document_id=str(record["document_id"]),
                    text=str(record["text"]),
                    char_offset=int(record["char_offset"]),
                )
                if chunk.id in graph._chunks:
                    raise GraphFormatError(f"{name}:{lineno}: duplicate chunk id {chunk.id!r}")
                graph._chunks[chunk.id] = chunk
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"{name}:{lineno}: malformed {kind} record ({exc})") from exc
    graph._next_id = max(graph._next_id, max_node_id + 1)
    return graph


def load_graph(data: bytes) -> KnowledgeGraph:
    """Parse ``graph.jsonl`` (nodes and edges)."""
    return _read_graph(data, GRAPH_NAME)


def save_chunks(graph: KnowledgeGraph) -> bytes:
    """Chunk records alone, same line format, own meta header."""
    return dump_jsonl(chain([_meta(graph, 0)], map(chunk_record, graph.chunks())))


def load_chunks(data: bytes, into: KnowledgeGraph) -> KnowledgeGraph:
    """Merge ``chunks.jsonl`` (meta header + chunk records) into a graph."""
    loaded = _read_graph(data, CHUNKS_NAME)
    for chunk in loaded.chunks():
        into.add_chunk(chunk)
    return into
