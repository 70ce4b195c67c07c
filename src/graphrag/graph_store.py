"""Knowledge graph container with provenance.

Nodes are keyed for merging by (canonical name, entity type); edges are
directed subject-predicate-object records whose weight counts distinct
supporting (chunk, triple) observations. Degree, adjacency and total weight
are exposed in undirected form for the community layer, with self-loops
stored but excluded from those sums.

On-disk format: one JSON record per line, record kinds ``meta``, ``node``,
``edge``, ``chunk``, in that order. The loader fails closed on unknown kinds,
out-of-order sections, references to undefined nodes, and corrupt lines.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import GraphFormatError, UnknownNodeError
from .textnorm import canonical_name, collapse_ws

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
_KIND_ORDER = {"meta": 0, "node": 1, "edge": 2, "chunk": 3}


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
    embedding: list[float] | None = None


@dataclass(frozen=True)
class Subgraph:
    """Induced subgraph handle: node ids plus the edge keys among them."""

    node_ids: frozenset[int]
    edge_keys: tuple[tuple[int, int, str], ...]


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

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

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

    def edge(self, head: int, tail: int, relation: str) -> GraphEdge | None:
        return self._edges.get((head, tail, collapse_ws(relation)))

    def edges(self) -> Iterator[GraphEdge]:
        for key in sorted(self._edges):
            yield self._edges[key]

    def out_edges(self, node_id: int) -> list[GraphEdge]:
        self.node(node_id)
        return [self._edges[k] for k in sorted(self._out.get(node_id, ()))]

    def in_edges(self, node_id: int) -> list[GraphEdge]:
        self.node(node_id)
        return [self._edges[k] for k in sorted(self._in.get(node_id, ()))]

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

    def weighted_degree(self, node_id: int) -> float:
        """Sum of incident edge weights in the undirected view (both
        directions, all relations), self-loops excluded."""
        self.node(node_id)
        total = 0.0
        for key in sorted(self._out.get(node_id, ())):
            if key[0] != key[1]:
                total += self._edges[key].weight
        for key in sorted(self._in.get(node_id, ())):
            if key[0] != key[1]:
                total += self._edges[key].weight
        return total

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

    def neighborhood(self, node_id: int, k: int) -> Subgraph:
        """Induced subgraph of everything within k undirected hops.

        k=0 is the node alone. BFS over the undirected view; all edges among
        reached nodes are included, whatever their direction or relation.
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
        edge_keys = tuple(sorted(
            key for head in reached for key in self._out.get(head, ())
            if key[1] in reached
        ))
        return Subgraph(node_ids=frozenset(reached), edge_keys=edge_keys)

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

    def structurally_equal(self, other: "KnowledgeGraph") -> bool:
        if self._next_id != other._next_id or self.schema_version != other.schema_version:
            return False
        if set(self._nodes) != set(other._nodes) or set(self._edges) != set(other._edges):
            return False
        for node_id, node in self._nodes.items():
            o = other._nodes[node_id]
            if (node.name, node.entity_type, node.attributes, node.source_chunks, node.aliases) != (
                o.name, o.entity_type, o.attributes, o.source_chunks, o.aliases
            ):
                return False
        for key, edge in self._edges.items():
            o = other._edges[key]
            if (edge.weight, edge.source_chunks) != (o.weight, o.source_chunks):
                return False
        if set(self._chunks) != set(other._chunks):
            return False
        for cid, chunk in self._chunks.items():
            o = other._chunks[cid]
            if (chunk.document_id, chunk.text, chunk.char_offset, chunk.embedding) != (
                o.document_id, o.text, o.char_offset, o.embedding
            ):
                return False
        return True


# -- serialization -------------------------------------------------------------


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
        "embedding": chunk.embedding,
    }


def save_graph(graph: KnowledgeGraph, *, include_chunks: bool = True) -> bytes:
    """Serialize to the record-per-line format (meta, nodes, edges, chunks)."""
    lines = [
        _dump(
            {
                "kind": "meta",
                "format_version": FORMAT_VERSION,
                "schema_version": graph.schema_version,
                "next_node_id": graph._next_id,
            }
        )
    ]
    for node in graph.nodes():
        lines.append(_dump(node_record(node)))
    for edge in graph.edges():
        lines.append(_dump(edge_record(edge)))
    if include_chunks:
        for chunk in graph.chunks():
            lines.append(_dump(chunk_record(chunk)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_graph(data: bytes) -> KnowledgeGraph:
    """Parse the record-per-line format, failing closed.

    Rejects: missing or repeated meta, wrong format version, kinds out of
    meta -> node -> edge -> chunk order, edges naming undefined nodes,
    duplicate ids, and any unparseable line (truncation shows up as a corrupt
    final record).
    """
    graph = KnowledgeGraph()
    text = data.decode("utf-8", errors="strict") if isinstance(data, bytes) else data
    last_rank = -1
    saw_meta = False
    max_node_id = graph._next_id - 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise GraphFormatError(f"line {lineno}: blank record")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"line {lineno}: corrupt record ({exc.msg})") from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise GraphFormatError(f"line {lineno}: record has no kind")
        kind = record["kind"]
        rank = _KIND_ORDER.get(kind)
        if rank is None:
            raise GraphFormatError(f"line {lineno}: unknown record kind {kind!r}")
        if rank < last_rank:
            raise GraphFormatError(f"line {lineno}: {kind} record out of section order")
        last_rank = rank
        try:
            if kind == "meta":
                if saw_meta:
                    raise GraphFormatError(f"line {lineno}: repeated meta record")
                saw_meta = True
                if record.get("format_version") != FORMAT_VERSION:
                    raise GraphFormatError(
                        f"unsupported format version {record.get('format_version')!r}"
                    )
                graph.schema_version = record.get("schema_version", "")
                graph._next_id = int(record["next_node_id"])
            elif kind == "node":
                if not saw_meta:
                    raise GraphFormatError(f"line {lineno}: node before meta")
                node_id = int(record["id"])
                if node_id in graph._nodes:
                    raise GraphFormatError(f"line {lineno}: duplicate node id {node_id}")
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
                        f"line {lineno}: edge references undefined node {head if head not in graph._nodes else tail}"
                    )
                key = (head, tail, str(record["relation"]))
                if key in graph._edges:
                    raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
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
                    embedding=list(record["embedding"]) if record.get("embedding") is not None else None,
                )
                if chunk.id in graph._chunks:
                    raise GraphFormatError(f"line {lineno}: duplicate chunk id {chunk.id!r}")
                graph._chunks[chunk.id] = chunk
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"line {lineno}: malformed {kind} record ({exc})") from exc
    if not saw_meta:
        raise GraphFormatError("file has no meta record")
    graph._next_id = max(graph._next_id, max_node_id + 1)
    return graph


def save_chunks(graph: KnowledgeGraph) -> bytes:
    """Chunk records alone, same line format, own meta header."""
    lines = [_dump({"kind": "meta", "format_version": FORMAT_VERSION,
                    "schema_version": graph.schema_version, "next_node_id": 0})]
    for chunk in graph.chunks():
        lines.append(_dump(chunk_record(chunk)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_chunks(data: bytes, into: KnowledgeGraph) -> KnowledgeGraph:
    """Merge a chunks-only file (meta header + chunk records) into a graph."""
    loaded = load_graph(data)
    if loaded.node_count or loaded.edge_count:
        raise GraphFormatError("chunk file contains node or edge records")
    for chunk in loaded.chunks():
        into.add_chunk(chunk)
    return into
