"""Graph container semantics and the on-disk JSONL format."""

from __future__ import annotations

import json
import math
import random
import re

import pytest

import oracles
from conftest import random_graph
from graphrag.errors import GraphFormatError, UnknownNodeError
from graphrag.graph_store import (
    Chunk,
    KnowledgeGraph,
    load_chunks,
    load_graph,
    make_chunk_id,
    save_chunks,
    save_graph,
)
from graphrag.records import FORMAT_VERSION


def small_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    a = g.upsert_node("Sword", "Artifact", chunk="d@00000000")
    b = g.upsert_node("Museum", "Museum", chunk="d@00000000")
    c = g.upsert_node("Han", "Period")
    g.add_edge(a, "HousedIn", b, chunk="d@00000000")
    g.add_edge(a, "DatedTo", c)
    g.add_chunk(Chunk(id="d@00000000", document_id="d", text="Sword in Museum.", char_offset=0))
    return g


def attributed_graph() -> KnowledgeGraph:
    """``small_graph`` with an attribute and an alias on the sword."""
    g = small_graph()
    g.upsert_node("sword", "Artifact", attributes={"era": ["Han", "Qin"]})
    return g


def _drop(record, key):
    del record[key]


def _swap(column, i, j):
    column[i], column[j] = column[j], column[i]


def _repeat_first_edge(meta, nodes, edges):
    meta["edges"] += 1
    for key in ("head", "tail", "relation", "weight", "source_chunks"):
        edges[key].insert(0, edges[key][0])


# Ways to break graph.jsonl, each with the start of the error it must raise.
# An edit takes the meta, nodes and edges records, changes them in place and
# may return the records to write instead.
GRAPH_CORRUPTIONS = {
    "meta-next-id-bool": ("graph.jsonl:1: meta next_node_id", lambda m, n, e: m.update(next_node_id=True)),
    "meta-next-id-missing": ("graph.jsonl:1: meta next_node_id", lambda m, n, e: _drop(m, "next_node_id")),
    "meta-schema-not-str": ("graph.jsonl:1: meta schema_version", lambda m, n, e: m.update(schema_version=1)),
    "meta-nodes-negative": ("graph.jsonl:1: meta nodes", lambda m, n, e: m.update(nodes=-1)),
    "meta-edges-missing": ("graph.jsonl:1: meta edges", lambda m, n, e: _drop(m, "edges")),
    "meta-edges-float": ("graph.jsonl:1: meta edges", lambda m, n, e: m.update(edges=2.0)),
    "nodes-count-short": ("graph.jsonl:2: column 'id' has 3 elements, the meta nodes is 2",
                          lambda m, n, e: m.update(nodes=2)),
    "id-missing": ("graph.jsonl:2: column 'id' is missing", lambda m, n, e: _drop(n, "id")),
    "id-bool": ("graph.jsonl:2: column 'id' holds", lambda m, n, e: n["id"].__setitem__(1, True)),
    "id-float": ("graph.jsonl:2: column 'id' holds", lambda m, n, e: n["id"].__setitem__(2, 2.0)),
    "id-duplicate": ("graph.jsonl:2: column 'id' is not strictly ascending",
                     lambda m, n, e: n["id"].__setitem__(2, 1)),
    "id-descending": ("graph.jsonl:2: column 'id' is not strictly ascending", lambda m, n, e: _swap(n["id"], 0, 2)),
    "name-not-list": ("graph.jsonl:2: column 'name' is not a list", lambda m, n, e: n.update(name="Sword")),
    "name-short": ("graph.jsonl:2: column 'name' has 2 elements", lambda m, n, e: _drop(n["name"], -1)),
    "entity-type-null": ("graph.jsonl:2: column 'entity_type' holds",
                         lambda m, n, e: n["entity_type"].__setitem__(0, None)),
    "attributes-list": ("graph.jsonl:2: column 'attributes' holds",
                        lambda m, n, e: n["attributes"].__setitem__(0, ["era"])),
    "attribute-value-str": ("graph.jsonl:2: column 'attributes' holds",
                            lambda m, n, e: n["attributes"][0].update(era="Han")),
    "attribute-value-int": ("graph.jsonl:2: column 'attributes' holds",
                            lambda m, n, e: n["attributes"][0]["era"].append(7)),
    "node-chunks-str": ("graph.jsonl:2: column 'source_chunks' holds",
                        lambda m, n, e: n["source_chunks"].__setitem__(0, "d@00000000")),
    "alias-int": ("graph.jsonl:2: column 'aliases' holds", lambda m, n, e: n["aliases"][0].append(1)),
    "edges-count-long": ("graph.jsonl:3: column 'head' has 2 elements, the meta edges is 3",
                         lambda m, n, e: m.update(edges=3)),
    "head-bool": ("graph.jsonl:3: column 'head' holds", lambda m, n, e: e["head"].__setitem__(0, False)),
    "tail-str": ("graph.jsonl:3: column 'tail' holds", lambda m, n, e: e["tail"].__setitem__(0, "1")),
    "relation-null": ("graph.jsonl:3: column 'relation' holds", lambda m, n, e: e["relation"].__setitem__(0, None)),
    "weight-int": ("graph.jsonl:3: column 'weight' holds", lambda m, n, e: e["weight"].__setitem__(0, 1)),
    "weight-below-one": ("graph.jsonl:3: column 'weight' holds", lambda m, n, e: e["weight"].__setitem__(0, 0.5)),
    "weight-nan": ("graph.jsonl:3: column 'weight' holds", lambda m, n, e: e["weight"].__setitem__(0, math.nan)),
    "weight-infinite": ("graph.jsonl:3: column 'weight' holds",
                        lambda m, n, e: e["weight"].__setitem__(1, math.inf)),
    "edge-chunks-missing": ("graph.jsonl:3: column 'source_chunks' is missing",
                            lambda m, n, e: _drop(e, "source_chunks")),
    "edge-duplicate": ("graph.jsonl:3: columns 'head', 'tail', 'relation' are not strictly ascending",
                       _repeat_first_edge),
    "edges-descending": ("graph.jsonl:3: columns 'head', 'tail', 'relation' are not strictly ascending",
                         lambda m, n, e: _swap(e["tail"], 0, 1) or _swap(e["relation"], 0, 1)),
    "head-undefined": ("graph.jsonl:3: column 'head' names undefined node 99",
                       lambda m, n, e: e["head"].__setitem__(1, 99)),
    "tail-undefined": ("graph.jsonl:3: column 'tail' names undefined node 7",
                       lambda m, n, e: e["tail"].__setitem__(1, 7)),
    "edges-record-missing": ("graph.jsonl:3: expected the edges record, found no record", lambda m, n, e: [m, n]),
    "nodes-record-kind": ("graph.jsonl:2: expected the nodes record, found record kind 'node'",
                          lambda m, n, e: n.update(kind="node")),
    "record-after-edges": ("graph.jsonl:4: unexpected record kind 'edges' after the edges record",
                           lambda m, n, e: [m, n, e, e]),
}


class TestChunkIds:
    def test_format(self):
        assert make_chunk_id("doc", 7) == "doc@00000007"
        assert make_chunk_id("doc", 12345678) == "doc@12345678"


class TestUpsert:
    def test_merge_by_canonical_name_and_type(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Sword of Goujian", "Artifact")
        b = g.upsert_node("  sword   OF goujian ", "artifact")
        assert a == b
        assert g.node(a).name == "Sword of Goujian"
        assert "sword OF goujian" in g.node(a).aliases

    def test_same_name_different_type_is_new_node(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Phoenix", "Artifact")
        b = g.upsert_node("Phoenix", "Location")
        assert a != b
        assert g.find_nodes("phoenix") == (a, b)

    def test_attribute_values_dedup_canonically(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Sword", "Artifact", attributes={"Era": "Warring  States"})
        g.upsert_node("Sword", "Artifact", attributes={"era": ["warring states", "Han"]})
        attrs = g.node(a).attributes
        assert attrs == {"era": ["Warring States", "Han"]}

    def test_declared_type_validation(self):
        g = KnowledgeGraph(entity_types=["Artifact", "Period"])
        a = g.upsert_node("Sword", "artifact")
        assert g.node(a).entity_type == "Artifact"
        with pytest.raises(ValueError, match="not declared"):
            g.upsert_node("Ship", "Vehicle")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph().upsert_node("  ", "Artifact")


class TestEdges:
    def test_repeat_observation_increments_weight(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "r", b, chunk="c1")
        edge = g.add_edge(a, "r", b, chunk="c2")
        assert edge.weight == 2.0
        assert edge.source_chunks == {"c1", "c2"}

    def test_same_chunk_does_not_increment(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "r", b, chunk="c1")
        edge = g.add_edge(a, "r", b, chunk="c1")
        assert edge.weight == 1.0

    def test_self_loop_stored_but_outside_degree(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "self", a)
        g.add_edge(a, "r", b)
        assert g.edge_count == 2
        assert g.degree(a) == 1
        assert oracles.weighted_degree(g, a) == 1.0
        assert g.total_weight() == 1.0
        assert a not in g.neighbors(a)

    def test_unknown_endpoint(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        with pytest.raises(UnknownNodeError):
            g.add_edge(a, "r", 99)

    def test_undirected_adjacency_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            g, _ = random_graph(rng, 8)
            want = oracles.undirected_weights((e.head, e.tail, e.weight) for e in g.edges())
            got = g.undirected_adjacency()
            flat = {}
            for i, row in got.items():
                for j, w in row.items():
                    assert got[j][i] == w  # symmetric
                    flat[(min(i, j), max(i, j))] = w
            assert flat == want


class TestNeighborhood:
    def test_matches_bfs_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            g, ids = random_graph(rng, 10)
            pairs = [(e.head, e.tail) for e in g.edges()]
            start = rng.choice(ids)
            k = rng.randint(0, 3)
            assert g.neighborhood(start, k) == frozenset(oracles.khop_nodes(pairs, start, k))

    def test_unknown_start(self):
        with pytest.raises(UnknownNodeError):
            small_graph().neighborhood(99, 1)


def round_trip(graph: KnowledgeGraph) -> KnowledgeGraph:
    """Write a graph to its three files and load it back."""
    return load_chunks(*save_chunks(graph), into=load_graph(save_graph(graph)))


class TestSerialization:
    def test_round_trip_structural_equality(self):
        g = small_graph()
        again = round_trip(g)
        assert oracles.structurally_equal(again, g)
        assert (save_graph(again), save_chunks(again)) == (save_graph(g), save_chunks(g))

    def test_round_trip_random_graphs(self):
        rng = random.Random(13)
        for _ in range(10):
            g, _ = random_graph(rng, 9)
            assert oracles.structurally_equal(round_trip(g), g)

    def test_unicode_line_breaks_inside_records(self):
        # json leaves U+0085 and U+2028 unescaped; they must not end a line
        g = small_graph()
        g.add_chunk(Chunk(id="e@00000000", document_id="e", text="a\u2028b\x85c\u2029d", char_offset=0))
        # upsert collapses whitespace; an alias or attribute value set directly keeps it
        g.node(0).aliases.add("sword\u2028of\x85goujian")
        g.node(0).attributes["note"] = ["bronze\u2029blade"]
        record, text = save_chunks(g)
        assert "a\u2028b\x85c\u2029d".encode("utf-8") in text
        assert len(record.splitlines()) == 2
        graph = save_graph(g)
        assert "sword\u2028of\x85goujian".encode("utf-8") in graph
        assert graph.count(b"\n") == 3 and len(graph.decode().splitlines()) > 3
        again = round_trip(g)
        assert again.chunk("e@00000000").text == "a\u2028b\x85c\u2029d"
        assert again.node(0).aliases == {"sword\u2028of\x85goujian"}
        assert again.node(0).attributes == {"note": ["bronze\u2029blade"]}
        assert oracles.structurally_equal(again, g)

    def test_chunks_split_file(self):
        g = small_graph()
        bare = load_graph(save_graph(g))
        assert bare.chunk_count == 0
        load_chunks(*save_chunks(g), into=bare)
        assert bare.chunk_count == 1
        assert bare.chunk("d@00000000").text == "Sword in Museum."

    def test_chunks_file_rejects_graph_records(self):
        g = small_graph()
        with pytest.raises(GraphFormatError, match=r"chunks\.jsonl"):
            load_chunks(save_graph(g), b"", into=KnowledgeGraph())

    def test_graph_file_rejects_chunk_records(self):
        chunk_line = save_chunks(small_graph())[0].splitlines(keepends=True)[1]
        data = save_graph(small_graph()) + chunk_line
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:4: .*'chunks' after the edges record"):
            load_graph(data)

    def test_loaded_chunks_answer_from_the_columns(self):
        g = KnowledgeGraph()
        # id order ("a-b@..." < "a@...") differs from (document, offset) order
        for doc, offset, text in [("a", 0, "first"), ("a", 5, ""), ("a-b", 0, "caf\u00e9"), ("b", 3, "last")]:
            g.add_chunk(Chunk(id=make_chunk_id(doc, offset), document_id=doc, text=text, char_offset=offset))
        again = round_trip(g)
        assert again.chunk_ids() == g.chunk_ids() == sorted(g.chunk_ids())
        assert again.chunk_count == 4
        assert [again.chunk(cid) for cid in again.chunk_ids()] == list(g.chunks())
        assert again.chunk("a@00000005").text == ""
        for absent in ("", "a", "a@00000001", "zzz"):
            assert not again.has_chunk(absent)
            with pytest.raises(KeyError, match="no chunk"):
                again.chunk(absent)
        assert not again.has_chunk(5)

    def test_no_chunks_round_trip(self):
        g = KnowledgeGraph()
        record, text = save_chunks(g)
        assert text == b""
        again = round_trip(g)
        assert again.chunk_count == 0 and again.chunk_ids() == [] and list(again.chunks()) == []

    def test_missing_meta(self):
        lines = save_graph(small_graph()).splitlines(keepends=True)
        with pytest.raises(GraphFormatError, match=r"^graph\.jsonl: missing meta record$"):
            load_graph(b"".join(lines[1:]))

    def test_repeated_meta(self):
        lines = save_graph(small_graph()).splitlines(keepends=True)
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:2: expected the nodes record, found record kind 'meta'"):
            load_graph(b"".join([lines[0], *lines]))

    def test_corrupt_line(self):
        data = save_graph(small_graph())
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:4: unparseable line"):
            load_graph(data + b"{broken\n")
        meta, nodes, edges = data.splitlines(keepends=True)
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:2: unparseable line"):
            load_graph(meta + nodes[: len(nodes) // 2] + b"\n" + edges)

    def test_edge_before_nodes_rejected(self):
        meta, nodes, edges = save_graph(small_graph()).splitlines(keepends=True)
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:2: expected the nodes record, found record kind 'edges'"):
            load_graph(meta + edges + nodes)
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:3: expected the edges record, found no record"):
            load_graph(meta + nodes)

    def test_columns_layout(self):
        g = small_graph()
        meta, nodes, edges = map(json.loads, save_graph(g).splitlines())
        assert meta == {"kind": "meta", "format_version": FORMAT_VERSION, "schema_version": "",
                        "next_node_id": 3, "nodes": 3, "edges": 2}
        assert nodes == {
            "kind": "nodes", "id": [0, 1, 2], "name": ["Sword", "Museum", "Han"],
            "entity_type": ["Artifact", "Museum", "Period"], "attributes": [{}, {}, {}],
            "source_chunks": [["d@00000000"], ["d@00000000"], []], "aliases": [[], [], []],
        }
        assert edges == {
            "kind": "edges", "head": [0, 0], "tail": [1, 2], "relation": ["HousedIn", "DatedTo"],
            "weight": [1.0, 1.0], "source_chunks": [["d@00000000"], []],
        }

    @pytest.mark.parametrize("case", sorted(GRAPH_CORRUPTIONS))
    def test_malformed_column_names_line_and_column(self, case):
        blamed, edit = GRAPH_CORRUPTIONS[case]
        records = list(map(json.loads, save_graph(attributed_graph()).splitlines()))
        records = edit(*records) or records
        data = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(blamed)):
            load_graph(data)

    def test_audit_clean_after_round_trip(self):
        g = load_graph(save_graph(small_graph()))
        assert g.audit() == []
