"""Knowledge graph container with provenance.

Nodes are keyed for merging by (canonical name, entity type); edges are
directed subject-predicate-object records whose weight counts distinct
supporting (chunk, triple) observations. Degree, adjacency and total weight
are exposed in undirected form for the community layer, with self-loops
stored but excluded from those sums.

On-disk format: the column records of ``records``, so a load parses a few
lines rather than one per node, edge or chunk. ``graph.jsonl`` holds a
``meta`` record carrying ``next_node_id`` and the ``nodes`` and ``edges``
counts, then one ``nodes`` record of six parallel lists in strictly
ascending id order (``id``, ``name``, ``entity_type``, ``attributes``,
``source_chunks`` and ``aliases``), then one ``edges`` record of five in
strictly ascending (head, tail, relation) order (``head``, ``tail``,
``relation``, ``weight`` and ``source_chunks``).
``chunks.jsonl`` holds a ``meta`` record with the chunk ``count``, then one
``chunks`` record of four parallel lists in ascending id order (``id``,
``document_id``, ``char_offset`` and ``text_end``), and ``chunks.txt``
holds every chunk text joined in that order as UTF-8, chunk i ending at
character ``text_end[i]``. Both loaders read through
``records.read_columns``, which checks every column's length and element
types in bulk; they add the checks that span columns (order, endpoints,
text ends). A loaded graph answers from the chunk columns and builds a
``Chunk`` only when one is asked for.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import le
from typing import Iterable, Iterator, Mapping

from .errors import GraphFormatError, UnknownNodeError
from .records import (
    FORMAT_VERSION, ascending, dicts, dump_jsonl, floats, ints, meta_int, read_columns, str_lists, strs,
)
from .textnorm import canonical_name, collapse_ws

log = logging.getLogger(__name__)

GRAPH_NAME = "graph.jsonl"
CHUNKS_NAME = "chunks.jsonl"
CHUNKS_TEXT_NAME = "chunks.txt"


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


@dataclass(frozen=True)
class ChunkColumns:
    """The read-only chunks of a loaded index: parallel columns in strictly
    ascending id order over one text, chunk i's text being
    ``text[text_end[i - 1]:text_end[i]]`` (from 0 for the first). Lookups
    bisect the ids; a ``Chunk`` is built only when one is asked for."""

    ids: list[str]
    document_ids: list[str]
    char_offsets: list[int]
    text_end: list[int]
    text: str = field(repr=False)

    def _row(self, chunk_id: str) -> int:
        row = bisect_left(self.ids, chunk_id)
        return row if row < len(self.ids) and self.ids[row] == chunk_id else -1

    def __contains__(self, chunk_id: object) -> bool:
        return isinstance(chunk_id, str) and self._row(chunk_id) >= 0

    def __getitem__(self, chunk_id: str) -> Chunk:
        row = self._row(chunk_id)
        if row < 0:
            raise KeyError(chunk_id)
        return Chunk(
            id=self.ids[row],
            document_id=self.document_ids[row],
            text=self.text[self.text_end[row - 1] if row else 0:self.text_end[row]],
            char_offset=self.char_offsets[row],
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


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
        # a dict while indexing; the columns of chunks.jsonl once loaded
        self._chunks: dict[str, Chunk] | ChunkColumns = {}
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
        for cid in self.chunk_ids():
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


def _attribute_maps(column: list) -> bool:
    # JSON object keys are always strings, so only the values need a check
    return dicts(column) and str_lists([v for values in column for v in values.values()])


def _weights(column: list) -> bool:
    # NaN fails the comparison too
    return floats(column) and all(1.0 <= w < math.inf for w in column)


# The sections of each artifact for ``records.read_columns``.
_CHUNK_SECTIONS = (
    ("chunks", "count", (
        ("id", strs, "a string"),
        ("document_id", strs, "a string"),
        ("char_offset", ints, "an integer"),
        ("text_end", ints, "an integer"),
    )),
)
_GRAPH_SECTIONS = (
    ("nodes", "nodes", (
        ("id", ints, "an integer"),
        ("name", strs, "a string"),
        ("entity_type", strs, "a string"),
        ("attributes", _attribute_maps, "a map of strings to lists of strings"),
        ("source_chunks", str_lists, "a list of strings"),
        ("aliases", str_lists, "a list of strings"),
    )),
    ("edges", "edges", (
        ("head", ints, "an integer"),
        ("tail", ints, "an integer"),
        ("relation", strs, "a string"),
        ("weight", _weights, "a finite float >= 1.0"),
        ("source_chunks", str_lists, "a list of strings"),
    )),
)


def save_graph(graph: KnowledgeGraph) -> bytes:
    """The bytes of ``graph.jsonl``: the meta record, then one ``nodes``
    record and one ``edges`` record of columns. The chunks go to
    ``save_chunks``."""
    nodes, edges = list(graph.nodes()), list(graph.edges())
    meta = {"kind": "meta", "format_version": FORMAT_VERSION, "schema_version": graph.schema_version,
            "next_node_id": graph._next_id, "nodes": len(nodes), "edges": len(edges)}
    node_columns = {
        "kind": "nodes",
        "id": [n.id for n in nodes],
        "name": [n.name for n in nodes],
        "entity_type": [n.entity_type for n in nodes],
        "attributes": [n.attributes for n in nodes],
        "source_chunks": [sorted(n.source_chunks) for n in nodes],
        "aliases": [sorted(n.aliases) for n in nodes],
    }
    edge_columns = {
        "kind": "edges",
        "head": [e.head for e in edges],
        "tail": [e.tail for e in edges],
        "relation": [e.relation for e in edges],
        "weight": [e.weight for e in edges],
        "source_chunks": [sorted(e.source_chunks) for e in edges],
    }
    return dump_jsonl([meta, node_columns, edge_columns])


def load_graph(data: bytes) -> KnowledgeGraph:
    """Build a graph from ``graph.jsonl`` (nodes and edges), failing closed.

    Everything is checked before a node is built: ``records.read_columns``
    checks the ``nodes`` and ``edges`` columns (every weight a finite float
    of at least 1.0); then a string schema version and an integer
    ``next_node_id`` in the meta, strictly ascending node ids and edge keys
    (head, tail, relation), so none repeats, and edge endpoints that are
    defined nodes.
    """
    name = GRAPH_NAME
    meta, (nodes, edges) = read_columns(data, name, _GRAPH_SECTIONS)
    schema_version, next_id = meta.get("schema_version"), meta_int(meta, "next_node_id", name)
    if type(schema_version) is not str:
        raise GraphFormatError(f"{name}:1: meta schema_version must be a string, got {schema_version!r}")
    ids, names, entity_types, attributes, node_chunks, aliases = nodes
    heads, tails, relations, weights, edge_chunks = edges
    if not ascending(ids):
        raise GraphFormatError(f"{name}:2: column 'id' is not strictly ascending")
    keys = list(zip(heads, tails, relations))
    if not ascending(keys):
        raise GraphFormatError(f"{name}:3: columns 'head', 'tail', 'relation' are not strictly ascending")
    defined = set(ids)
    for key, column in (("head", heads), ("tail", tails)):
        undefined = set(column) - defined
        if undefined:
            raise GraphFormatError(f"{name}:3: column {key!r} names undefined node {min(undefined)}")

    graph = KnowledgeGraph(schema_version=schema_version)
    graph._next_id = max(next_id, ids[-1] + 1 if ids else 0)
    for node_id, node_name, entity_type, attrs, chunks, surfaces in zip(
        ids, names, entity_types, attributes, node_chunks, aliases
    ):
        graph._nodes[node_id] = GraphNode(node_id, node_name, entity_type, attrs, set(chunks), set(surfaces))
        canon = canonical_name(node_name)
        graph._name_index.setdefault(canon, set()).add(node_id)
        graph._key_index[(canon, entity_type.casefold())] = node_id
    graph._out = {node_id: [] for node_id in ids}
    graph._in = {node_id: [] for node_id in ids}
    for key, weight, chunks in zip(keys, weights, edge_chunks):
        graph._edges[key] = GraphEdge(key[0], key[1], key[2], weight, set(chunks))
        graph._out[key[0]].append(key)
        graph._in[key[1]].append(key)
    return graph


def save_chunks(graph: KnowledgeGraph) -> tuple[bytes, bytes]:
    """The bytes of ``chunks.jsonl`` (meta, then the one ``chunks`` record
    of columns) and of ``chunks.txt`` (the texts joined, UTF-8)."""
    chunks = list(graph.chunks())
    meta = {"kind": "meta", "format_version": FORMAT_VERSION,
            "schema_version": graph.schema_version, "count": len(chunks)}
    record = {
        "kind": "chunks",
        "id": [c.id for c in chunks],
        "document_id": [c.document_id for c in chunks],
        "char_offset": [c.char_offset for c in chunks],
        "text_end": list(accumulate(len(c.text) for c in chunks)),
    }
    return dump_jsonl([meta, record]), "".join(c.text for c in chunks).encode("utf-8")


def load_chunks(data: bytes, text: bytes, into: KnowledgeGraph) -> KnowledgeGraph:
    """Give ``into`` the chunks of ``chunks.jsonl`` (``data``) over the texts
    of ``chunks.txt`` (``text``), replacing any it held.

    Everything is checked here, nothing per chunk is built: the ``chunks``
    columns by ``records.read_columns``, then strictly ascending ids and a
    ``text_end`` that never decreases from 0 and ends at the length of
    ``text``, which must be strict UTF-8.
    """
    _, [(ids, document_ids, char_offsets, text_end)] = read_columns(data, CHUNKS_NAME, _CHUNK_SECTIONS)
    where = f"{CHUNKS_NAME}:2"
    if not ascending(ids):
        raise GraphFormatError(f"{where}: chunk ids are not strictly ascending")
    if not all(map(le, chain((0,), text_end), text_end)):
        raise GraphFormatError(f"{where}: text_end decreases or starts below 0")
    try:
        joined = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{CHUNKS_TEXT_NAME}: not UTF-8 text ({exc.reason})") from exc
    end = text_end[-1] if text_end else 0
    if len(joined) != end:
        raise GraphFormatError(
            f"{CHUNKS_TEXT_NAME}: {len(joined)} characters where {where} text_end ends at {end}"
        )
    into._chunks = ChunkColumns(ids, document_ids, char_offsets, text_end, joined)
    return into
